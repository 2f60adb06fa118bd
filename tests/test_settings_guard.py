"""No setting that changes nothing: every config key and calibrate option
moves some command's output.

Each leaf of the poverty, synth, scenario, calibration and observed
sections, and each calibrate option, has a value here. Run with it, the
command that reads the setting must write different bytes or exit with
a different code. A manifest counts as output, less its echo of the
config, which changes with any key. A setting without an entry here
fails test_every_setting_has_a_value. The policy section has its own
guard, test_study.py::test_every_policy_parameter_changes_some_result.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import types
import typing

import pytest

from conftest import SE_F, WAGE_F
import povsim.cli as cli_mod
from povsim.cells import (CellChangeTable, CellStat, LfsAggregate, all_selfemp_keys,
                          all_wage_keys, save_cell_table, save_lfs_aggregate)
from povsim.cli import main
from povsim.config import StudyConfig, encode
from povsim.synth import SynthConfig

SEED = 20200401

# section -> the command that reads it and that command's config: each
# section written out in full, so that one key of a nested object can move
SECTIONS = {
    "poverty": ("simulate", {}),
    "scenario": ("simulate", {}),
    "synth": ("generate", {"seed": SEED}),
    "calibration": ("generate", {"seed": SEED, "synth": {"n_households": 60}}),
    "observed": ("validate", {}),
}
DEFAULTS = {
    "poverty": {},
    "scenario": {},
    "synth": encode(SynthConfig(n_households=60)),
    "calibration": {"target_child_poverty": "0.4", "tolerance": 0.02,
                    "max_evaluations": 16},
    "observed": {"wage": {"observed_pct": "-10", "tolerance_pp": "100"},
                 "self_employment": {"observed_pct": "-10", "tolerance_pp": "100"}},
}

SETTINGS = {
    "poverty.absolute_extreme": 100000,
    "poverty.absolute_upper": 300000,
    "poverty.child_population": 1000,
    "poverty.equivalence_scale.additional_adult_14plus": "0.7",
    "poverty.equivalence_scale.child_under_14": "0.5",
    "scenario.factors": ["wage_shock"],
    "scenario.shock_scale": "0.5",
    "scenario.shock_start_month": 9,
    "scenario.transfers_on_shocked": True,
    "scenario.band_scales": ["0.5"],
    "scenario.dimensions": ["sex"],
    "synth.n_households": 61,
    "synth.child_share": 0.5,
    "synth.share_tolerance": 0.0,
    "synth.household_size_dist": {"1": 1.0},
    "synth.adult_labor_shares": {"self_employed": 1.0},
    "synth.weight_range": [1.0, 2.0],
    "synth.informal_share": 0.9,
    "synth.informal_wage_factor": 0.1,
    "synth.rent_share": 0.9,
    "synth.transfer_share": 0.9,
    "synth.transfer_share_no_earner": 0.0,
    "synth.industry_dist": {"62": 1.0},
    "synth.selfemp_industry_dist": {"62": 1.0},
    "synth.sector_wage_multipliers": {"47": 3.0},
    "synth.couple_sector_assortativity": 1.0,
    "synth.education_shares": {"tertiary_plus": 1.0},
    "synth.enrollment_rate": 0.0,
    "synth.special_category_share": 0.9,
    "synth.owns_residence_share": 0.0,
    "synth.other_real_estate_share": 0.9,
    "synth.car_share": 0.0,
    "synth.car_max_age": 1,
    "synth.land_share": 0.0,
    "synth.elderly_worker_share": 0.9,
    "calibration.target_child_poverty": "0.2",
    "calibration.tolerance": 0.5,
    "calibration.max_evaluations": 1,
    "observed.wage.observed_pct": "-50",
    "observed.wage.tolerance_pp": "0.001",
    "observed.self_employment.observed_pct": "-50",
    "observed.self_employment.tolerance_pp": "0.001",
}
# each income distribution: a doubled median, no spread, the floor at the
# default cap and the cap at the default floor
SETTINGS |= {f"synth.{name}.{key}": value
             for name in ("wage", "selfemp_income", "pension", "rent_income",
                          "transfer_income", "land_m2")
             for dist in [getattr(SynthConfig(n_households=1), name)]
             for key, value in (("median", 2 * dist.median), ("sigma", 0.0),
                                ("floor", dist.cap), ("cap", dist.floor))}

# calibrate option -> its value in a changed run; --out names the output
CALIBRATE_OPTIONS = {
    "--base": "other.csv",
    "--shocked": "other.csv",
    "--base-period": "2019",
    "--shocked-period": "2020q23",
    "--base-quarters": "1,2,3",
    "--shocked-quarters": "2",
    "--threshold": "5000",
}


def _leaves(tp, path: str):
    """Dotted paths of the config keys under path, of type tp, that hold
    no object."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if not dataclasses.is_dataclass(tp):
        yield path
        return
    hints = typing.get_type_hints(tp)
    for f in dataclasses.fields(tp):
        if f.metadata.get("config_key", True):
            yield from _leaves(hints[f.name], f"{path}.{f.name}")


def test_every_setting_has_a_value():
    hints = typing.get_type_hints(StudyConfig)
    leaves = {leaf for section in SECTIONS
              for leaf in _leaves(hints[section], section)}
    assert leaves == set(SETTINGS)
    options = {param.opts[0] for param in cli_mod.calibrate.params}
    assert options - {"--out"} == set(CALIBRATE_OPTIONS)


def _outputs(out) -> dict:
    """File name -> bytes of what a run wrote; the manifest parsed, less
    the config it echoes."""
    found = {}
    for path in sorted(out.iterdir()) if out.exists() else ():
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text(encoding="utf-8"))
            for key in ("config_path", "config_sha256", "effective_config"):
                manifest.pop(key)
            found[path.name] = manifest
        else:
            found[path.name] = path.read_bytes()
    return found


def _aggregate(path, income: int) -> None:
    """A survey aggregate of every cell, each counting 1000 or more."""
    save_lfs_aggregate(LfsAggregate(
        (1, 2, 3, 4),
        {k: CellStat(income + i, 1000 + i) for i, k in enumerate(all_wage_keys())},
        {k: CellStat(income + i, 1000 + i) for i, k in enumerate(all_selfemp_keys())}),
        str(path))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """The inputs, and runs giving (exit code, outputs) of one command."""
    root = tmp_path_factory.mktemp("guard")
    runs = itertools.count()

    def run(argv: list[str]):
        out = root / f"run{next(runs)}"
        return main(argv + ["--out", str(out)]), _outputs(out)

    def run_config(section: str, config: dict):
        command, head = SECTIONS[section]
        path = root / f"config{next(runs)}.json"
        path.write_text(json.dumps({**head, **config}), encoding="utf-8")
        return run([command, "--config", str(path), *inputs[command]])

    population = root / "pop"
    cfg = root / "pop.json"
    cfg.write_text(json.dumps({"seed": SEED, "synth": {"n_households": 60}}),
                   encoding="utf-8")
    assert main(["generate", "--config", str(cfg), "--out", str(population)]) == 0
    cells = root / "cells.csv"
    save_cell_table(CellChangeTable.from_factors(WAGE_F, SE_F), str(cells))
    pop_files = ["--persons", str(population / "persons.csv"),
                 "--households", str(population / "households.csv"),
                 "--cells", str(cells)]
    inputs = {"generate": [], "simulate": pop_files, "validate": pop_files}
    for name, income in (("base", 1_000_000), ("shocked", 600_000), ("other", 900_000)):
        _aggregate(root / f"{name}.csv", income)
    calibrate = ["calibrate", "--base", str(root / "base.csv"),
                 "--shocked", str(root / "shocked.csv")]
    return types.SimpleNamespace(root=root, run=run, run_config=run_config,
                                 calibrate=calibrate)


@pytest.fixture(scope="module")
def default_runs(ws):
    """Section, or "calibrate" -> exit code and outputs of its command with
    that section at its defaults, or of calibrate with its default options."""
    runs = {section: ws.run_config(section, {section: DEFAULTS[section]})
            for section in SECTIONS}
    runs["calibrate"] = ws.run(ws.calibrate)
    assert {code for code, _ in runs.values()} == {0}
    return runs


@pytest.mark.parametrize("leaf", sorted(SETTINGS))
def test_every_setting_changes_some_output(leaf, ws, default_runs):
    section, *path = leaf.split(".")
    config = copy.deepcopy(DEFAULTS[section])
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = SETTINGS[leaf]
    assert ws.run_config(section, {section: config}) != default_runs[section]


@pytest.mark.parametrize("option", sorted(CALIBRATE_OPTIONS))
def test_every_calibrate_option_changes_some_output(option, ws, default_runs):
    value = CALIBRATE_OPTIONS[option]
    if value.endswith(".csv"):
        value = str(ws.root / value)
    # a repeated option takes its last value
    assert ws.run(ws.calibrate + [option, value]) != default_runs["calibrate"]
