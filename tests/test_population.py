"""Microdata model invariants and CSV interchange round-trips."""

from __future__ import annotations

import csv
import random

import pytest

from povsim.errors import DataError
from povsim.money import ZERO_YEAR
from povsim.nace import DIVISIONS
from povsim.population import (
    HOUSEHOLD_COLUMNS,
    PERSON_COLUMNS,
    EducationLevel,
    Household,
    LaborStatus,
    Person,
    Population,
    Sex,
    load_population,
    save_population,
)

from conftest import build_micro_population, flat
from oracles import population_csv_by_writer


def adult(pid: int, hid: int, **kw) -> Person:
    defaults = dict(person_id=pid, household_id=hid, age=40, sex=Sex.MALE,
                    labor_status=LaborStatus.INACTIVE)
    defaults.update(kw)
    return Person(**defaults)


class TestPerson:
    def test_is_child(self):
        assert adult(1, 1, age=17, labor_status=LaborStatus.CHILD).is_child
        assert not adult(1, 1, age=18).is_child

    def test_total_income_sums_all_sources(self):
        p = adult(1, 1, labor_status=LaborStatus.EMPLOYEE, nace2="47",
                  wage=flat(100), pension=flat(10),
                  interhousehold_transfers=flat(1))
        # the argument is a calendar month, 1..12
        assert p.total_income(1) == 111
        assert p.total_income(12) == 111

    @pytest.mark.parametrize("kw,fragment", [
        (dict(age=-1), "age"),
        (dict(age=111), "age"),
        (dict(labor_status=LaborStatus.EMPLOYEE), "without industry code"),
        (dict(nace2="47"), "industry code on non-worker"),
        (dict(labor_status=LaborStatus.EMPLOYEE, nace2="89"), "unknown industry"),
        (dict(informal_wage_flag=True), "informal_wage_flag on non-employee"),
        (dict(age=10), "minor with labor status"),
        (dict(wage=(1,) * 11), "entries"),
        (dict(pension=(-1,) + (0,) * 11), "negative pension"),
        (dict(wage=flat(5)), "wage income on non-employee"),
        (dict(self_employment=flat(5)), "self-employment income"),
    ])
    def test_problems(self, kw, fragment):
        probs = adult(1, 1, **kw).problems()
        assert probs and fragment in " / ".join(probs)

    def test_valid_person_has_no_problems(self):
        p = adult(1, 1, labor_status=LaborStatus.EMPLOYEE, nace2="47",
                  wage=flat(20000))
        assert p.problems() == []


class TestHousehold:
    def test_size_and_weight(self):
        h = Household(household_id=1, member_ids=(1, 2), weight_centi=12345)
        assert h.size == 2

    @pytest.mark.parametrize("kw,fragment", [
        (dict(member_ids=()), "no members"),
        (dict(weight_centi=0), "weight"),
        (dict(car_age_years=-1), "car age"),
        (dict(land_parcel_m2=-5), "land parcel"),
    ])
    def test_problems(self, kw, fragment):
        defaults = dict(household_id=1, member_ids=(1,), weight_centi=100)
        defaults.update(kw)
        probs = Household(**defaults).problems()
        assert probs and fragment in " / ".join(probs)


class TestPopulation:
    def test_sorted_and_indexed(self):
        pop = build_micro_population()
        assert [h.household_id for h in pop.households] == [1, 2, 3, 4, 5]
        assert [p.person_id for p in pop.persons] == list(range(1, 13))
        assert pop.n_persons == 12
        assert pop.n_households == 5
        assert pop.household(3).weight_centi == 10000
        assert [p.person_id for p in pop.members(2)] == [2, 3, 4, 5]

    def test_duplicate_household_id(self):
        hh = Household(household_id=1, member_ids=(1,), weight_centi=100)
        with pytest.raises(DataError, match="duplicate household"):
            Population(persons=(adult(1, 1),), households=(hh, hh))

    def test_duplicate_person_id(self):
        hh = Household(household_id=1, member_ids=(1, 1), weight_centi=100)
        with pytest.raises(DataError, match="duplicate person"):
            Population(persons=(adult(1, 1), adult(1, 1)), households=(hh,))

    def test_unknown_household_reference(self):
        hh = Household(household_id=1, member_ids=(1,), weight_centi=100)
        with pytest.raises(DataError, match="unknown household"):
            Population(persons=(adult(1, 1), adult(2, 9)), households=(hh,))

    def test_member_list_mismatch(self):
        hh = Household(household_id=1, member_ids=(1, 2), weight_centi=100)
        with pytest.raises(DataError, match="member list"):
            Population(persons=(adult(1, 1),), households=(hh,))

    def test_person_problem_is_raised(self):
        hh = Household(household_id=1, member_ids=(1,), weight_centi=100)
        with pytest.raises(DataError, match="person 1"):
            Population(persons=(adult(1, 1, age=200),), households=(hh,))

    def test_rescaled_incomes_share_the_household_index(self):
        pop = build_micro_population()
        assert pop._with_persons(pop.persons) is pop
        doubled = pop._with_persons(
            p._replace(pension=tuple(2 * v for v in p.pension)) for p in pop.persons)
        validated = Population(persons=doubled.persons,
                               households=pop.households,
                               provenance=pop.provenance)
        assert doubled == validated
        for hh in pop.households:
            assert doubled.members(hh.household_id) == \
                validated.members(hh.household_id)
        assert doubled.members(3)[0].pension[0] == 24000
        assert pop.members(3)[0].pension[0] == 12000

    def test_derived_keeps_the_latest_value(self):
        pop = build_micro_population()
        assert pop.derived("a", lambda: 1) == 1
        assert pop.derived("a", lambda: 2) == 1
        assert pop.derived("b", lambda: 3) == 3
        assert pop.derived("a", lambda: 4) == 4
        rescaled = pop._with_persons(p._replace(pension=p.pension[::-1])
                                     for p in pop.persons)
        assert rescaled.derived("a", lambda: 5) == 5


class TestCsvRoundTrip:
    def test_save_load_identity(self, tmp_path):
        pop = build_micro_population()
        ppath = str(tmp_path / "persons.csv")
        hpath = str(tmp_path / "households.csv")
        save_population(pop, ppath, hpath)
        again = load_population(ppath, hpath)
        assert again.persons == pop.persons
        assert again.households == pop.households

    def test_save_is_byte_stable(self, tmp_path):
        pop = build_micro_population()
        paths = [(str(tmp_path / f"p{i}.csv"), str(tmp_path / f"h{i}.csv"))
                 for i in range(2)]
        for ppath, hpath in paths:
            save_population(pop, ppath, hpath)
        blobs = [open(p, "rb").read() + open(h, "rb").read() for p, h in paths]
        assert blobs[0] == blobs[1]

    def test_header_is_validated(self, tmp_path):
        pop = build_micro_population()
        ppath = str(tmp_path / "persons.csv")
        hpath = str(tmp_path / "households.csv")
        save_population(pop, ppath, hpath)
        text = open(ppath, encoding="utf-8").read()
        broken = str(tmp_path / "broken.csv")
        with open(broken, "w", encoding="utf-8") as fh:
            fh.write(text.replace("person_id", "person", 1))
        with pytest.raises(DataError) as err:
            load_population(broken, hpath)
        assert "person_id" in str(err.value)

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        pop = build_micro_population()
        ppath = str(tmp_path / "persons.csv")
        hpath = str(tmp_path / "households.csv")
        save_population(pop, ppath, hpath)
        lines = open(hpath, encoding="utf-8").read().splitlines()
        lines[1] = lines[1].replace("200.00", "-3")
        with open(hpath, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_population(ppath, hpath)
        msg = str(err.value)
        assert "survey_weight" in msg and "row=2" in msg

    def test_column_sets_are_fixed(self):
        assert PERSON_COLUMNS[:2] == ("person_id", "household_id")
        assert len(PERSON_COLUMNS) == 10 + 5 * 12
        assert HOUSEHOLD_COLUMNS == (
            "household_id", "survey_weight", "owns_residence",
            "owns_other_real_estate", "car_age_years", "land_parcel_m2")


class TestRecords:
    def test_records_are_immutable(self):
        person = adult(1, 1)
        household = Household(household_id=1, member_ids=(1,), weight_centi=100)
        for record, field in ((person, "age"), (person, "wage"),
                              (household, "weight_centi"), (household, "member_ids")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                record.note = "x"
        assert person.age == 40 and household.weight_centi == 100

    def test_records_are_hashable_and_replace_makes_a_copy(self):
        person = adult(1, 1)
        older = person._replace(age=41)
        assert (older.age, person.age) == (41, 40)
        assert hash(adult(1, 1)) == hash(person)
        assert len({person, adult(1, 1), older}) == 2

    def test_incomes_are_the_five_vectors_in_source_order(self):
        p = adult(1, 1, labor_status=LaborStatus.EMPLOYEE, nace2="47",
                  wage=flat(1), pension=flat(3), capital_rent=flat(4),
                  interhousehold_transfers=flat(5))
        assert p.incomes == (flat(1), ZERO_YEAR, flat(3), flat(4), flat(5))


class TestOrder:
    def test_unsorted_input_is_sorted(self):
        pop = build_micro_population()
        shuffled = list(pop.persons)
        random.Random(3).shuffle(shuffled)
        again = Population(persons=tuple(shuffled),
                           households=tuple(reversed(pop.households)),
                           provenance=pop.provenance)
        assert again == pop
        assert [(p.household_id, p.person_id) for p in again.persons] == sorted(
            (p.household_id, p.person_id) for p in shuffled)
        assert [h.household_id for h in again.households] == [1, 2, 3, 4, 5]
        for hh in pop.households:
            assert again.members(hh.household_id) == pop.members(hh.household_id)

    def test_person_order_is_household_then_person(self):
        """Ids that sort one way by person and another by household."""
        persons = (adult(1, 2), adult(2, 1), adult(3, 2), adult(4, 1))
        households = (Household(household_id=2, member_ids=(3, 1), weight_centi=1),
                      Household(household_id=1, member_ids=(4, 2), weight_centi=1))
        pop = Population(persons=persons, households=households)
        assert [p.person_id for p in pop.persons] == [2, 4, 1, 3]
        assert [p.person_id for p in pop.members(2)] == [1, 3]

    def test_records_in_order_are_kept_as_given(self):
        pop = build_micro_population()
        again = Population(persons=pop.persons, households=pop.households)
        assert again.persons is pop.persons
        assert again.households is pop.households


def random_csv_population(rng: random.Random, n_households: int) -> Population:
    """Every enum value and flag, ids and incomes far beyond 64 bits,
    all-zero income rows, and households with and without assets."""

    def vector() -> tuple[int, ...]:
        kind = rng.randrange(5)
        if kind == 0:
            return ZERO_YEAR
        if kind == 1:
            return (0,) * 12  # equal to ZERO_YEAR, another object
        if kind == 2:
            return (rng.randint(1, 99_999),) * 12
        if kind == 3:
            return tuple(rng.randint(0, 10 ** rng.randint(1, 7)) for _ in range(12))
        return tuple(rng.randint(0, 10 ** 30) for _ in range(12))

    base = rng.choice((0, 10 ** 24))  # ids of up to 25 digits
    persons, households = [], []
    pid = 0
    for hid in range(1, n_households + 1):
        ids = []
        for _ in range(rng.randint(1, 5)):
            pid += 1
            age = rng.randint(0, 110)
            status = (rng.choice((LaborStatus.CHILD, LaborStatus.STUDENT))
                      if age < 18 else rng.choice(list(LaborStatus)))
            employee = status is LaborStatus.EMPLOYEE
            worker = employee or status is LaborStatus.SELF_EMPLOYED
            persons.append(Person(
                base + pid, base + hid, age, rng.choice(list(Sex)), status,
                rng.choice(list(EducationLevel)),
                rng.choice(DIVISIONS) if worker else None,
                employee and rng.random() < 0.5, rng.random() < 0.5,
                rng.random() < 0.5,
                vector() if employee else ZERO_YEAR,
                vector() if status is LaborStatus.SELF_EMPLOYED else ZERO_YEAR,
                vector(), vector(), vector()))
            ids.append(base + pid)
        households.append(Household(
            base + hid, tuple(ids), rng.choice((1, 100, rng.randint(1, 10 ** 25))),
            rng.random() < 0.5, rng.random() < 0.5,
            rng.choice((None, 0, rng.randint(1, 40), 10 ** 22)),
            rng.choice((None, 0, rng.randint(1, 5000)))))
    rng.shuffle(persons)
    rng.shuffle(households)
    return Population(persons=tuple(persons), households=tuple(households))


def saved(pop: Population, directory) -> tuple[str, str]:
    directory.mkdir(exist_ok=True)
    paths = (str(directory / "persons.csv"), str(directory / "households.csv"))
    save_population(pop, *paths)
    return paths


def texts(paths: tuple[str, str]) -> tuple[str, str]:
    out = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            out.append(fh.read())
    return tuple(out)


class TestCsvCodec:
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_and_bytes_match_csv_writer(self, tmp_path, seed):
        pop = random_csv_population(random.Random(seed), 60)
        statuses = {p.labor_status for p in pop.persons}
        assert statuses == set(LaborStatus)
        assert any(p.incomes == (ZERO_YEAR,) * 5 for p in pop.persons)
        paths = saved(pop, tmp_path)
        assert texts(paths) == population_csv_by_writer(pop)
        assert load_population(*paths) == pop

    def test_micro_population_bytes_match_csv_writer(self, tmp_path):
        pop = build_micro_population()
        assert texts(saved(pop, tmp_path)) == population_csv_by_writer(pop)

    def test_accepted_spellings_resave_canonically(self, tmp_path):
        """Leading zeros, empty flags, short weights, shuffled rows and
        columns and blank lines load, and save as the canonical files."""
        pop = random_csv_population(random.Random(11), 40)
        canonical = saved(pop, tmp_path / "canonical")
        rng = random.Random(5)
        for path, padded, flags in (
                (canonical[0], ("person_id", "household_id", "age", "wage_m01",
                                "pension_m12"),
                 ("informal_wage_flag", "in_public_education",
                  "special_category_flag")),
                (canonical[1], ("household_id", "car_age_years", "land_parcel_m2"),
                 ("owns_residence", "owns_other_real_estate"))):
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = list(csv.reader(fh))
            for row in rows:
                for column in padded:
                    i = header.index(column)
                    if row[i]:
                        row[i] = "00" + row[i]
                for column in flags:
                    i = header.index(column)
                    if row[i] == "0":
                        row[i] = ""
                if "survey_weight" in header:
                    i = header.index("survey_weight")
                    row[i] = row[i].removesuffix("0").removesuffix(".0")
            rng.shuffle(rows)
            order = list(range(len(header)))
            rng.shuffle(order)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow([header[i] for i in order])
                for row in rows:
                    writer.writerow([row[i] for i in order])
                    if rng.random() < 0.1:
                        fh.write("\n")
        with open(canonical[1], encoding="utf-8") as fh:
            edited = fh.read()
        assert ",00" in edited and ",," in edited
        loaded = load_population(*canonical)
        assert loaded == pop
        assert texts(saved(loaded, tmp_path / "again")) == population_csv_by_writer(pop)
