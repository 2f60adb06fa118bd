"""Seeded input fuzzing: a mutated input file exits 0 or names itself.

Each run applies one mutation, drawn by a seeded random.Random, to one
input file: the persons or households file of a small population, a
factor table (cells.csv), or the base or shocked survey aggregate. The
mutated file runs in-process through a command that reads it (shocks for
the population and the factor table, calibrate for the aggregates).

Each run exits 0, and the mutated input then re-saves canonically, or it
exits 1 with an error naming the mutated file. A fault reported with no
row, or against the other file of a pair, names both files of the pair.
No run exits 2 or raises. The mutation catalogue lives here: a new input
rule adds a mutation.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

import pytest

from conftest import WAGE_F, SE_F, acceptance_config

from povsim.cells import (CellChangeTable, CellStat, LfsAggregate, all_selfemp_keys,
                          all_wage_keys, load_cell_table, load_lfs_aggregate,
                          save_cell_table, save_lfs_aggregate)
from povsim.cli import main
from povsim.population import load_population, save_population
from povsim.synth import generate_synthetic

SEEDS = range(5)

# Texts a garbled field gets one of inserted at a random position: digits,
# signs, spaces, separators, a non-ASCII digit and a non-ASCII letter.
GARBLE = ("0", "7", "-", "+", " ", ".", "/", "_", "x", "٣", "é")


def _data_row(rows, rng) -> int:
    return rng.randrange(1, len(rows))


def drop_row(rows, rng):
    del rows[_data_row(rows, rng)]


def duplicate_row(rows, rng):
    i = _data_row(rows, rng)
    rows.insert(i, list(rows[i]))


def truncate_row(rows, rng):
    """Cut a row inside one of its fields, as a file cut short would."""
    i = _data_row(rows, rng)
    k = rng.randrange(len(rows[i]))
    rows[i] = rows[i][:k] + [rows[i][k][:rng.randrange(len(rows[i][k]) + 1)]]


def swap_fields(rows, rng):
    row = rows[_data_row(rows, rng)]
    a, b = rng.sample(range(len(row)), 2)
    row[a], row[b] = row[b], row[a]


def blank_field(rows, rng):
    row = rows[_data_row(rows, rng)]
    row[rng.randrange(len(row))] = ""


def garble_field(rows, rng):
    row = rows[_data_row(rows, rng)]
    j = rng.randrange(len(row))
    at = rng.randrange(len(row[j]) + 1)
    row[j] = row[j][:at] + rng.choice(GARBLE) + row[j][at:]


def negate_field(rows, rng):
    row = rows[_data_row(rows, rng)]
    j = rng.randrange(len(row))
    row[j] = "-" + row[j]


def drop_column(rows, rng):
    j = rng.randrange(len(rows[0]))
    for row in rows:
        del row[j]


MUTATIONS = (drop_row, duplicate_row, truncate_row, swap_fields, blank_field,
             garble_field, negate_field, drop_column)


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    """Canonical input files: a 12-household population, a factor table
    and two survey aggregates over the same 40 cells."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {name: root / f"{name}.csv"
             for name in ("persons", "households", "cells", "base", "shocked")}
    save_population(generate_synthetic(acceptance_config(12), seed=5),
                    str(files["persons"]), str(files["households"]))
    save_cell_table(CellChangeTable.from_factors(WAGE_F, SE_F), str(files["cells"]))
    rng = random.Random(11)
    wage = rng.sample(sorted(all_wage_keys()), 32)
    selfemp = rng.sample(sorted(all_selfemp_keys()), 8)

    def stats(keys):
        return {k: CellStat(rng.randrange(10**6), rng.randrange(2000)) for k in keys}

    for name, quarters in (("base", (1, 2, 3, 4)), ("shocked", (2, 3))):
        save_lfs_aggregate(LfsAggregate(quarters, stats(wage), stats(selfemp)),
                           str(files[name]))
    return files


def _resaves_canonically(load, save, paths: list[Path], out: Path) -> None:
    """load(*paths) saved, loaded and saved again gives the same input and
    the same bytes."""
    first = [out / "first" / p.name for p in paths]
    again = [out / "again" / p.name for p in paths]
    for directory in ("first", "again"):
        (out / directory).mkdir()
    loaded = load(*map(str, paths))
    save(loaded, *map(str, first))
    reloaded = load(*map(str, first))
    assert reloaded == loaded
    save(reloaded, *map(str, again))
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]


def _shocks(files, out):
    return ["shocks", "--persons", str(files["persons"]),
            "--households", str(files["households"]), "--cells", str(files["cells"]),
            "--out", str(out)]


def _calibrate(files, out):
    return ["calibrate", "--base", str(files["base"]), "--shocked", str(files["shocked"]),
            "--shocked-quarters", "2,3", "--out", str(out)]


def _load_aggregates(base, shocked):
    return (load_lfs_aggregate(base, quarters_covered=(1, 2, 3, 4)),
            load_lfs_aggregate(shocked, quarters_covered=(2, 3)))


def _save_aggregates(aggregates, base, shocked):
    save_lfs_aggregate(aggregates[0], base)
    save_lfs_aggregate(aggregates[1], shocked)


# mutated input -> (files of its pair, the command that reads them, their
# loader and saver)
CASES = {
    "persons": (("persons", "households"), _shocks, load_population, save_population),
    "households": (("persons", "households"), _shocks, load_population,
                   save_population),
    "cells": (("cells",), _shocks, load_cell_table, save_cell_table),
    "base": (("base", "shocked"), _calibrate, _load_aggregates, _save_aggregates),
    "shocked": (("base", "shocked"), _calibrate, _load_aggregates, _save_aggregates),
}


@pytest.mark.parametrize("target", sorted(CASES))
def test_mutated_input_exits_0_or_names_its_file(target, inputs, tmp_path, capsys):
    pair, command, load, save = CASES[target]
    codes = set()
    for mutation in MUTATIONS:
        for seed in SEEDS:
            case = tmp_path / f"{mutation.__name__}_{seed}"
            case.mkdir()
            files = dict(inputs)
            files[target] = case / inputs[target].name
            rows = _read(inputs[target])
            mutation(rows, random.Random(f"{target} {mutation.__name__} {seed}"))
            _write(files[target], rows)
            code = main(command(files, case / "out"))
            err = capsys.readouterr().err
            where = (mutation.__name__, seed, err)
            codes.add(code)
            if code == 0:
                _resaves_canonically(load, save, [files[name] for name in pair], case)
                continue
            assert code == 1, where
            assert err.startswith("error: ") and err.count("\n") == 1, where
            assert str(files[target]) in err, where
            if f"(file={files[target]}, row=" not in err:
                assert all(str(files[name]) in err for name in pair), where
    assert 1 in codes  # the mutations reach the command's checks
