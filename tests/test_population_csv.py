"""The population CSV codec: exact messages, strict fields, any column order.

Every malformed input is rejected with a DataError naming the file, the
row (its line number in the file) and, where one applies, the column.
"""

from __future__ import annotations

import csv
import random

import pytest

from conftest import acceptance_config, build_micro_population, build_micro_table

from povsim.cells import save_cell_table
from povsim.cli import main
from povsim.errors import DataError
from povsim.money import ZERO_YEAR
from povsim.nace import DIVISIONS
from povsim.population import (HOUSEHOLD_COLUMNS, PERSON_COLUMNS, Household,
                               LaborStatus, Person, Population, Sex,
                               load_population, save_population)
from povsim.synth import generate_synthetic


def saved_pair(tmp_path, pop=None) -> dict[str, str]:
    """The canonical CSV pair of pop (default: the micro population)."""
    tmp_path.mkdir(exist_ok=True)
    paths = {"persons": str(tmp_path / "persons.csv"),
             "households": str(tmp_path / "households.csv")}
    save_population(pop or build_micro_population(), paths["persons"],
                    paths["households"])
    return paths


def read_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def edit(paths: dict[str, str], *cells: tuple[str, int, str, str]) -> None:
    """Set (file, line, column) cells; line 1 is the header."""
    for name, line, column, value in cells:
        rows = read_rows(paths[name])
        rows[line - 1][rows[0].index(column)] = value
        write_rows(paths[name], rows)


def load_error(paths: dict[str, str]) -> str:
    with pytest.raises(DataError) as err:
        load_population(paths["persons"], paths["households"])
    return str(err.value)


# The loader's messages, pinned word for word as the per-field loader
# wrote them. {p} and {h} stand for the persons and households paths.
PINNED = {
    "bad income integer": (
        [("persons", 4, "wage_m03", "x")],
        "expected integer, got 'x' (file={p}, row=4, column=wage_m03)"),
    "empty income": (
        [("persons", 4, "transfers_m12", "")],
        "expected integer, got '' (file={p}, row=4, column=transfers_m12)"),
    "negative income": (
        [("persons", 7, "pension_m01", "-5")],
        "negative income -5 (file={p}, row=7, column=pension_m01)"),
    "bad age integer": (
        [("persons", 5, "age", "4x")],
        "expected integer, got '4x' (file={p}, row=5, column=age)"),
    "bad enum": (
        [("persons", 2, "sex", "other")],
        "expected one of [male, female], got 'other' (file={p}, row=2, column=sex)"),
    "bad labor status": (
        [("persons", 3, "labor_status", "retired")],
        "expected one of [employee, self_employed, unemployed_active, "
        "unemployed_passive, pensioner, student, child, inactive], got 'retired' "
        "(file={p}, row=3, column=labor_status)"),
    "bad education": (
        [("persons", 3, "education_level", "phd")],
        "expected one of [primary_or_less, secondary, tertiary_plus], got 'phd' "
        "(file={p}, row=3, column=education_level)"),
    "bad 0/1": (
        [("persons", 3, "in_public_education", "yes")],
        "expected 0 or 1, got 'yes' (file={p}, row=3, column=in_public_education)"),
    "unknown household": (
        [("persons", 13, "household_id", "9")],
        "person 12 references household 9, which {h} lacks "
        "(file={p}, row=13, column=household_id)"),
    "zero person id": (
        [("persons", 2, "person_id", "0")],
        "value 0 below minimum 1 (file={p}, row=2, column=person_id)"),
    "negative person id": (
        [("persons", 3, "person_id", "-2")],
        "value -2 below minimum 1 (file={p}, row=3, column=person_id)"),
    "negative household id of a person": (
        [("persons", 2, "household_id", "-1")],
        "value -1 below minimum 1 (file={p}, row=2, column=household_id)"),
    "zero household id": (
        [("households", 2, "household_id", "0")],
        "value 0 below minimum 1 (file={h}, row=2, column=household_id)"),
    "negative zero income": (
        [("persons", 4, "pension_m02", "-0")],
        "negative zero '-0' (file={p}, row=4, column=pension_m02)"),
    "negative zero id": (
        [("persons", 4, "person_id", "-00")],
        "negative zero '-00' (file={p}, row=4, column=person_id)"),
    "negative zero car age": (
        [("households", 3, "car_age_years", "-0")],
        "negative zero '-0' (file={h}, row=3, column=car_age_years)"),
    "person problem": (
        [("persons", 5, "age", "200")],
        "person 4: age 200 outside 0..110 (file={p}, row=5)"),
    "person problem on an industry code": (
        [("persons", 4, "nace2", "47")],
        "person 3: industry code on non-worker status inactive (file={p}, row=4)"),
    "duplicate person": (
        [("persons", 4, "person_id", "2")],
        "duplicate person id 2 (file={p}, row=4, column=person_id)"),
    "bad weight": (
        [("households", 3, "survey_weight", "abc")],
        "weight 'abc' is not numeric (file={h}, row=3, column=survey_weight)"),
    "bad household 0/1": (
        [("households", 2, "owns_residence", "2")],
        "expected 0 or 1, got '2' (file={h}, row=2, column=owns_residence)"),
    "negative car age": (
        [("households", 2, "car_age_years", "-1")],
        "value -1 below minimum 0 (file={h}, row=2, column=car_age_years)"),
    "bad household id": (
        [("households", 4, "household_id", "three")],
        "expected integer, got 'three' (file={h}, row=4, column=household_id)"),
    "household without members": (
        [("persons", 12, "household_id", "4"), ("persons", 13, "household_id", "4")],
        "household 5: household has no members, though {h} lists it (file={p})"),
    "duplicate household": (
        [("households", 6, "household_id", "4"), ("persons", 12, "household_id", "4"),
         ("persons", 13, "household_id", "4")],
        "duplicate household id 4 (file={h}, row=6, column=household_id)"),
    # A row with several faults reports the first in the loader's order.
    "income before enum": (
        [("persons", 2, "sex", "other"), ("persons", 2, "wage_m01", "x")],
        "expected integer, got 'x' (file={p}, row=2, column=wage_m01)"),
    "household before income": (
        [("persons", 2, "wage_m01", "x"), ("persons", 2, "household_id", "9")],
        "person 1 references household 9, which {h} lacks "
        "(file={p}, row=2, column=household_id)"),
    "earlier row first": (
        [("persons", 9, "age", "200"), ("persons", 5, "sex", "other")],
        "expected one of [male, female], got 'other' (file={p}, row=5, column=sex)"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_messages(tmp_path, case):
    cells, message = PINNED[case]
    paths = saved_pair(tmp_path)
    edit(paths, *cells)
    assert load_error(paths) == message.format(p=paths["persons"],
                                               h=paths["households"])


def insert_line(path: str, before: int, text: str) -> None:
    """Insert a raw line so that it becomes line `before` of the file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines.insert(before - 1, text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


@pytest.mark.parametrize("name,width", [("persons", len(PERSON_COLUMNS)),
                                        ("households", len(HOUSEHOLD_COLUMNS))])
@pytest.mark.parametrize("change", ["short", "long", "one field"])
def test_rows_with_the_wrong_number_of_fields_are_rejected(tmp_path, name, width,
                                                            change):
    paths = saved_pair(tmp_path)
    rows = read_rows(paths[name])
    rows[3] = {"short": rows[3][:-1], "long": rows[3] + ["999", "zzz"],
               "one field": [" "]}[change]
    write_rows(paths[name], rows)
    got = {"short": width - 1, "long": width + 2, "one field": 1}[change]
    assert load_error(paths) == (f"expected {width} fields, got {got} "
                                 f"(file={paths[name]}, row=4)")


def test_a_truncated_row_is_an_error_message_not_a_traceback(tmp_path, capsys):
    paths = saved_pair(tmp_path)
    rows = read_rows(paths["persons"])
    rows[5] = rows[5][:40]
    write_rows(paths["persons"], rows)
    cells = str(tmp_path / "cells.csv")
    save_cell_table(build_micro_table(), cells)
    capsys.readouterr()
    assert main(["shocks", "--persons", paths["persons"],
                 "--households", paths["households"], "--cells", cells,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: expected {len(PERSON_COLUMNS)} fields, got 40 "
                   f"(file={paths['persons']}, row=6)\n")


def test_rows_are_numbered_by_file_line_after_blank_lines(tmp_path):
    paths = saved_pair(tmp_path)
    insert_line(paths["persons"], 3, "\n")
    insert_line(paths["persons"], 5, "\n")
    # person 2 is now on line 4, person 3 on line 6
    edit(paths, ("persons", 6, "age", "200"))
    assert load_error(paths) == \
        f"person 3: age 200 outside 0..110 (file={paths['persons']}, row=6)"

    paths = saved_pair(tmp_path)
    insert_line(paths["households"], 2, "\n")
    edit(paths, ("households", 5, "survey_weight", "abc"))
    assert load_error(paths) == ("weight 'abc' is not numeric "
                                 f"(file={paths['households']}, row=5, "
                                 "column=survey_weight)")


def same_tables(a: Population, b: Population) -> bool:
    return a.persons == b.persons and a.households == b.households


def test_blank_lines_are_skipped(tmp_path):
    paths = saved_pair(tmp_path)
    for name in paths:
        insert_line(paths[name], 2, "\n")
        with open(paths[name], "a", encoding="utf-8") as fh:
            fh.write("\n\n")
    assert same_tables(load_population(paths["persons"], paths["households"]),
                       build_micro_population())


NON_CANONICAL = ["1_0", " 7", "7 ", "+7", "٣", "７", "0x1", "1e3",
                 "7.0", "--7", "7-", "-", ""]
INTEGER_CELLS = [("persons", 4, "wage_m01"), ("persons", 13, "transfers_m12"),
                 ("persons", 2, "person_id"), ("persons", 3, "household_id"),
                 ("persons", 5, "age"), ("households", 2, "household_id"),
                 ("households", 3, "car_age_years"), ("households", 4, "land_parcel_m2")]


# An empty asset column means "none", so "" is valid there.
@pytest.mark.parametrize("name,line,column,text", [
    (*cell, text) for cell in INTEGER_CELLS for text in NON_CANONICAL
    if text or cell[0] == "persons" or cell[2] == "household_id"])
def test_integers_must_be_ascii_digits_with_an_optional_minus(tmp_path, name, line,
                                                               column, text):
    paths = saved_pair(tmp_path)
    edit(paths, (name, line, column, text))
    assert load_error(paths) == (f"expected integer, got {text!r} "
                                 f"(file={paths[name]}, row={line}, column={column})")


@pytest.mark.parametrize("text", [" 100.00 ", "100.00 ", " 1", "١٠٠.٠٠", "１.5",
                                  "+1", "1_0", "1.5_0", "-1", "1.", ".5", "1e2"])
def test_weights_must_be_ascii_decimals(tmp_path, text):
    paths = saved_pair(tmp_path)
    edit(paths, ("households", 3, "survey_weight", text))
    assert load_error(paths) == (f"weight {text!r} is not numeric "
                                 f"(file={paths['households']}, row=3, "
                                 "column=survey_weight)")


def test_canonical_integer_spellings_load(tmp_path):
    """-?[0-9]+ includes leading zeros (a negative zero is pinned above)."""
    paths = saved_pair(tmp_path)
    edit(paths, ("persons", 4, "wage_m01", "000"), ("persons", 4, "pension_m02", "00"),
         ("persons", 6, "person_id", "05"), ("persons", 6, "household_id", "02"),
         ("persons", 5, "age", "010"), ("households", 2, "car_age_years", "08"),
         ("households", 3, "land_parcel_m2", "0300"))
    assert same_tables(load_population(paths["persons"], paths["households"]),
                       build_micro_population())


def test_header_must_name_each_column_once(tmp_path):
    paths = saved_pair(tmp_path)
    rows = read_rows(paths["households"])
    write_rows(paths["households"], [row + [row[4]] for row in rows])
    assert load_error(paths) == ("duplicate column 'car_age_years' "
                                 f"(file={paths['households']}, row=1, "
                                 "column=car_age_years)")


def synthetic(n_households: int = 150) -> Population:
    return generate_synthetic(acceptance_config(n_households), seed=20200401)


@pytest.mark.parametrize("make", [build_micro_population, synthetic])
def test_any_column_order_loads_the_same_population(tmp_path, make):
    pop = make()
    canonical = saved_pair(tmp_path / "canonical", pop)
    permuted = saved_pair(tmp_path / "permuted", pop)
    rng = random.Random(7)
    for name in permuted:
        rows = read_rows(permuted[name])
        order = list(range(len(rows[0])))
        rng.shuffle(order)
        write_rows(permuted[name], [[row[i] for i in order] for row in rows])
    assert read_rows(permuted["persons"])[0] != list(PERSON_COLUMNS)
    again = load_population(permuted["persons"], permuted["households"])
    assert again == load_population(canonical["persons"], canonical["households"])
    assert same_tables(again, pop)


@pytest.mark.parametrize("make", [build_micro_population, synthetic])
def test_loaded_population_equals_a_fully_validated_one(tmp_path, make):
    pop = make()
    paths = saved_pair(tmp_path, pop)
    loaded = load_population(paths["persons"], paths["households"])
    validated = Population(persons=loaded.persons, households=loaded.households,
                           provenance="loaded")
    assert loaded == validated
    for hh in loaded.households:
        assert loaded.household(hh.household_id) == validated.household(hh.household_id)
        assert loaded.members(hh.household_id) == validated.members(hh.household_id)
    assert same_tables(loaded, pop)
    # a month vector of zeros is one shared object
    zero_vectors = [vec for p in loaded.persons
                    for vec in p.incomes if vec == ZERO_YEAR]
    assert zero_vectors and all(vec is ZERO_YEAR for vec in zero_vectors)


def repeating_population() -> Population:
    """Three households whose members repeat constant and varying income
    vectors, and amounts across different vectors. Ids are above 256,
    which CPython does not cache as shared ints."""
    varying = tuple(1000 * m for m in range(1, 13))
    stepped = (12000,) * 6 + (30000,) * 6
    persons = []
    for pid in range(1, 7):
        hid = 1000 + (pid + 1) // 2
        persons.append(Person(
            pid, hid, 30 + pid, Sex.FEMALE if pid % 2 else Sex.MALE,
            LaborStatus.EMPLOYEE, nace2=("47", "55", "47")[hid - 1001],
            wage=(varying, stepped, (30000,) * 12)[pid % 3],
            pension=varying if pid < 3 else ZERO_YEAR,
            capital_rent=(12000,) * 12 if pid == 6 else ZERO_YEAR))
    households = [Household(1000 + i, (2 * i - 1, 2 * i), 10000) for i in (1, 2, 3)]
    return Population(tuple(persons), tuple(households))


def test_a_loaded_population_keeps_one_object_per_distinct_value(tmp_path):
    paths = saved_pair(tmp_path, repeating_population())
    # spellings with leading zeros share the canonical spelling's objects
    edit(paths, ("persons", 2, "wage_m07", "030000"), ("persons", 6, "household_id", "01003"))
    loaded = load_population(paths["persons"], paths["households"])
    assert same_tables(loaded, repeating_population())
    vectors = [vec for p in loaded.persons for vec in p.incomes]
    amounts = [amount for vec in vectors for amount in vec]
    assert len({id(a) for a in amounts}) == len(set(amounts)) == 14
    assert len({id(v) for v in vectors}) == len(set(vectors)) == 5
    zero_vectors = [vec for vec in vectors if vec == ZERO_YEAR]
    assert zero_vectors and all(vec is ZERO_YEAR for vec in zero_vectors)
    for p in loaded.persons:
        assert p.household_id is loaded.household(p.household_id).household_id
        assert p.nace2 is DIVISIONS[DIVISIONS.index(p.nace2)]


def test_resave_is_byte_identical(tmp_path):
    pop = synthetic()
    first = saved_pair(tmp_path, pop)
    loaded = load_population(first["persons"], first["households"])
    second = saved_pair(tmp_path / "again", loaded)
    for name in first:
        with open(first[name], "rb") as a, open(second[name], "rb") as b:
            assert a.read() == b.read()


def test_unsplittable_or_undecodable_files_are_data_errors(tmp_path):
    paths = saved_pair(tmp_path)
    edit(paths, ("persons", 3, "nace2", "4" * (csv.field_size_limit() + 1)))
    assert load_error(paths) == (f"malformed CSV: field larger than field limit "
                                 f"({csv.field_size_limit()}) "
                                 f"(file={paths['persons']}, row=3)")

    paths = saved_pair(tmp_path)
    with open(paths["households"], "ab") as fh:
        fh.write(b"6,1.00,\xff,0,,\n")
    assert load_error(paths).startswith("not UTF-8 text: 'utf-8' codec can't decode")
