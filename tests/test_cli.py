"""End-to-end tests for the command-line interface.

A module-scoped workspace runs the full pipeline once (generate ->
calibrate -> shocks -> simulate); individual tests inspect its outputs
and exercise error paths with fresh invocations.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from povsim.cells import (CellStat, LfsAggregate, aggregate_income_change,
                          all_selfemp_keys, all_wage_keys, apply_shock,
                          load_cell_table, save_lfs_aggregate)
import povsim.cli as cli_mod
from povsim.cli import main
from povsim.config import sha256_file
from povsim.money import fmt_fraction
from povsim.population import Population, load_population, save_population
from povsim.scenario import DIMENSIONS, simulated_aggregate_changes
from povsim.synth import generate_synthetic

from conftest import acceptance_config, build_micro_population

SEED = 424242
STUDY = {"seed": SEED, "synth": {"n_households": 240}}


def write_aggregates(base_path, shocked_path) -> None:
    """Full-coverage survey aggregates giving wage factor 0.8, selfemp 0.7.

    The base covers four quarters, the shocked period two, so the shocked
    totals are annualized by 2 when factors are derived.
    """
    base = LfsAggregate((1, 2, 3, 4),
                        {k: CellStat(1_000_000, 1200) for k in all_wage_keys()},
                        {k: CellStat(800_000, 1100) for k in all_selfemp_keys()})
    shocked = LfsAggregate((2, 3),
                           {k: CellStat(400_000, 1200) for k in all_wage_keys()},
                           {k: CellStat(280_000, 1100) for k in all_selfemp_keys()})
    save_lfs_aggregate(base, str(base_path))
    save_lfs_aggregate(shocked, str(shocked_path))


def read_manifest(out_dir) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "study.json"
    cfg.write_text(json.dumps(STUDY), encoding="utf-8")
    base, shocked = root / "base.csv", root / "shocked.csv"
    write_aggregates(base, shocked)
    gen, cal, shk, sim = (root / name for name in
                          ("gen", "cal", "shk", "sim"))
    assert main(["generate", "--config", str(cfg), "--out", str(gen)]) == 0
    assert main(["calibrate", "--base", str(base), "--shocked", str(shocked),
                 "--out", str(cal)]) == 0
    assert main(["shocks", "--persons", str(gen / "persons.csv"),
                 "--households", str(gen / "households.csv"),
                 "--cells", str(cal / "cells.csv"), "--scale", "0.8",
                 "--out", str(shk)]) == 0
    assert main(["simulate", "--config", str(cfg),
                 "--persons", str(gen / "persons.csv"),
                 "--households", str(gen / "households.csv"),
                 "--cells", str(cal / "cells.csv"), "--out", str(sim)]) == 0
    return SimpleNamespace(root=root, cfg=cfg, base=base, shocked=shocked,
                           gen=gen, cal=cal, shk=shk, sim=sim)


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_help(self):
        assert main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "Usage" in capsys.readouterr().err

    def test_missing_required_option(self):
        assert main(["generate"]) == 1

    def test_nonexistent_config_path(self, ws):
        assert main(["generate", "--config", str(ws.root / "absent.json"),
                     "--out", str(ws.root / "x")]) == 1

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("quarters,code", [("1,2,3,4", 0), ("one", 1)])
    def test_collector_paused_for_the_command_and_restored(
            self, ws, monkeypatch, collecting, quarters, code):
        """main runs a command with the cyclic garbage collector paused and
        leaves it as it found it, on success and on an error exit."""
        during = []
        load = cli_mod.load_lfs_aggregate

        def recording(*args, **kwargs):
            during.append(gc.isenabled())
            return load(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "load_lfs_aggregate", recording)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert main(["calibrate", "--base", str(ws.base),
                         "--shocked", str(ws.shocked), "--shocked-quarters", quarters,
                         "--out", str(ws.root / "x_gc")]) == code
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert during and not any(during)


class TestGenerate:
    def test_population_files_written(self, ws):
        pop = load_population(str(ws.gen / "persons.csv"),
                              str(ws.gen / "households.csv"))
        assert pop.n_households == 240
        assert pop.n_persons > 240

    def test_manifest_records_run(self, ws):
        manifest = read_manifest(ws.gen)
        assert manifest["command"] == "generate"
        assert manifest["seed"] == SEED
        assert manifest["config_sha256"]
        assert manifest["effective_config"]["synth"]["n_households"] == 240
        assert manifest["extra"]["n_households"] == 240
        assert manifest["extra"]["provenance"].startswith("synthetic")
        for name, digest in manifest["outputs"].items():
            assert digest == sha256_file(ws.gen / name)

    def test_same_seed_is_byte_identical(self, ws):
        again = ws.root / "gen_again"
        assert main(["generate", "--config", str(ws.cfg),
                     "--out", str(again)]) == 0
        for name in ("persons.csv", "households.csv", "manifest.json"):
            assert (again / name).read_bytes() == (ws.gen / name).read_bytes()

    def test_seed_override_changes_population(self, ws):
        other = ws.root / "gen_other"
        assert main(["generate", "--config", str(ws.cfg),
                     "--seed", str(SEED + 1), "--out", str(other)]) == 0
        assert ((other / "persons.csv").read_bytes()
                != (ws.gen / "persons.csv").read_bytes())
        assert read_manifest(other)["seed"] == SEED + 1

    def test_config_without_synth(self, ws, capsys):
        cfg = ws.root / "nosynth.json"
        cfg.write_text('{"seed": 1}', encoding="utf-8")
        assert main(["generate", "--config", str(cfg),
                     "--out", str(ws.root / "x1")]) == 1
        assert "no synth section" in capsys.readouterr().err

    def test_config_without_seed(self, ws, capsys):
        cfg = ws.root / "noseed.json"
        cfg.write_text('{"synth": {"n_households": 10}}', encoding="utf-8")
        assert main(["generate", "--config", str(cfg),
                     "--out", str(ws.root / "x2")]) == 1
        assert "needs a seed" in capsys.readouterr().err

    def test_there_is_no_base_year(self, ws, capsys):
        # no output depended on the base year, so its key is gone
        cfg = ws.root / "base_year.json"
        cfg.write_text(json.dumps({"seed": SEED, "synth": {"n_households": 10,
                                                           "base_year": 2019}}),
                       encoding="utf-8")
        assert main(["generate", "--config", str(cfg),
                     "--out", str(ws.root / "x17")]) == 1
        assert "unknown key 'base_year' in synth" in capsys.readouterr().err
        assert not (ws.root / "x17").exists()
        assert "base_year" not in read_manifest(ws.gen)["effective_config"]["synth"]

    def test_invalid_json_config(self, ws, capsys):
        cfg = ws.root / "broken.json"
        cfg.write_text("{oops", encoding="utf-8")
        assert main(["generate", "--config", str(cfg),
                     "--out", str(ws.root / "x3")]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestCalibrate:
    def test_factor_table_derived(self, ws):
        table = load_cell_table(str(ws.cal / "cells.csv"))
        assert all(c.factor == Fraction(4, 5) for c in table.wage.values())
        assert all(c.factor == Fraction(7, 10) for c in table.selfemp.values())

    def test_manifest_counts_cells(self, ws):
        manifest = read_manifest(ws.cal)
        assert manifest["extra"]["cells"] == {"estimated": 555}
        assert manifest["extra"]["small_cell_threshold"] == 1000
        assert set(manifest["inputs"]) == {"base", "shocked"}

    def test_manifest_records_period_labels(self, ws):
        """The period labels are recorded in the manifest; they change no
        factor."""
        extra = read_manifest(ws.cal)["extra"]
        assert (extra["base_period"], extra["shocked_period"]) == ("base", "shocked")
        out = ws.root / "cal_labelled"
        assert main(["calibrate", "--base", str(ws.base), "--shocked", str(ws.shocked),
                     "--base-period", "2019", "--shocked-period", "2020q23",
                     "--out", str(out)]) == 0
        assert (out / "cells.csv").read_bytes() == (ws.cal / "cells.csv").read_bytes()
        extra = read_manifest(out)["extra"]
        assert (extra["base_period"], extra["shocked_period"]) == ("2019", "2020q23")

    def test_bad_quarters(self, ws, capsys):
        assert main(["calibrate", "--base", str(ws.base),
                     "--shocked", str(ws.shocked),
                     "--base-quarters", "one,two",
                     "--out", str(ws.root / "x4")]) == 1
        assert "comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--base-quarters", "--shocked-quarters"])
    @pytest.mark.parametrize("quarters", ["1,1,2,2", "2,3,3", "+1", "\u0661",
                                          "1,,3", "1, 2", "", "0,1"])
    def test_malformed_quarters_name_the_option(self, ws, capsys, option, quarters):
        """Quarters are comma-separated ASCII digits, each a quarter 1..4
        listed once; anything else exits 1 naming the option."""
        assert main(["calibrate", "--base", str(ws.base), "--shocked", str(ws.shocked),
                     option, quarters, "--out", str(ws.root / "x_quarters")]) == 1
        assert f"error: {option}: " in capsys.readouterr().err
        assert not (ws.root / "x_quarters").exists()

    def test_truncated_aggregate_row(self, ws, capsys):
        """A truncated survey-aggregate row is a data error naming file and
        row, not a traceback."""
        base = ws.root / "base_truncated.csv"
        lines = ws.base.read_text(encoding="utf-8").splitlines()
        base.write_text("\n".join(lines[:2] + ["wage,55"] + lines[2:]) + "\n",
                        encoding="utf-8")
        assert main(["calibrate", "--base", str(base), "--shocked", str(ws.shocked),
                     "--out", str(ws.root / "x6")]) == 1
        assert (f"expected 6 fields, got 2 (file={base}, row=3)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("lacking", ["base", "shocked"])
    def test_aggregate_lacking_a_cell(self, ws, capsys, lacking):
        """Aggregates with different cell universes name the cell, the
        aggregate that lacks it, that aggregate's file and the other file."""
        short = ws.root / f"{lacking}_short.csv"
        header, first, *rest = getattr(ws, lacking).read_text(
            encoding="utf-8").splitlines()
        assert first.startswith("wage,00,female,adult_25_49,")
        short.write_text("\n".join([header] + rest) + "\n", encoding="utf-8")
        paths = {"base": str(ws.base), "shocked": str(ws.shocked), lacking: str(short)}
        assert main(["calibrate", "--base", paths["base"], "--shocked", paths["shocked"],
                     "--out", str(ws.root / "x14")]) == 1
        other = paths["shocked" if lacking == "base" else "base"]
        assert capsys.readouterr().err == (
            "error: wage cell WageCellKey(nace2='00', sex='female', "
            f"age_band='adult_25_49') is missing from the {lacking} aggregate, "
            f"though {other} has it (file={short})\n")

    def test_aggregate_not_utf8(self, ws, capsys):
        """A survey aggregate with a Latin-1 byte is a data error naming the
        file, not a traceback."""
        base = ws.root / "base_latin1.csv"
        base.write_bytes(ws.base.read_bytes().replace(b"female", b"f\xe9male", 1))
        assert main(["calibrate", "--base", str(base), "--shocked", str(ws.shocked),
                     "--out", str(ws.root / "x8")]) == 1
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err
        assert f"(file={base})" in err


class TestShocks:
    def test_shocked_population_differs(self, ws):
        assert ((ws.shk / "persons.csv").read_bytes()
                != (ws.gen / "persons.csv").read_bytes())
        load_population(str(ws.shk / "persons.csv"),
                        str(ws.shk / "households.csv"))

    def test_summary_reports_aggregate_changes(self, ws):
        summary = json.loads((ws.shk / "shock_summary.json")
                             .read_text(encoding="utf-8"))
        assert summary["scale"] == "4/5"
        assert summary["start_month"] == 3
        changes = summary["aggregate_change_pct"]
        # Ten of twelve months scaled: wage by the effective factor
        # 1 + 0.8*(0.8-1) = 0.84, self-employment by 1 + 0.8*(0.7-1) = 0.76.
        assert -14 < float(changes["wage"]) < -13
        assert -21 < float(changes["self_employment"]) < -19

    @pytest.mark.parametrize("source", ["micro", 1, 2])
    @pytest.mark.parametrize("scale", ["4/5", "6/5"])
    def test_streamed_shock_writes_the_materialized_population(self, ws, tmp_path,
                                                               source, scale):
        """shocks writes each shocked person as it is built: the bytes and
        the summary of the shocked Population apply_shock builds, on the
        micro panel and on 300 households drawn at two seeds."""
        pop = (build_micro_population() if source == "micro"
               else generate_synthetic(acceptance_config(300), source))
        given = {name: str(tmp_path / f"{name}.csv")
                 for name in ("persons", "households")}
        save_population(pop, given["persons"], given["households"])
        assert main(["shocks", "--persons", given["persons"],
                     "--households", given["households"],
                     "--cells", str(ws.cal / "cells.csv"), "--scale", scale,
                     "--out", str(tmp_path / "streamed")]) == 0
        loaded = load_population(given["persons"], given["households"])
        shocked = apply_shock(loaded, load_cell_table(str(ws.cal / "cells.csv")),
                              scale=Fraction(scale))
        assert shocked is not loaded
        materialized = tmp_path / "materialized"
        materialized.mkdir()
        save_population(shocked, str(materialized / "persons.csv"),
                        str(materialized / "households.csv"))
        for name in ("persons.csv", "households.csv"):
            assert ((tmp_path / "streamed" / name).read_bytes()
                    == (materialized / name).read_bytes())
        summary = json.loads((tmp_path / "streamed" / "shock_summary.json")
                             .read_text(encoding="utf-8"))
        assert summary["aggregate_change_pct"] == {
            source: fmt_fraction(aggregate_income_change(
                loaded, shocked.persons, source) * 100, 4)
            for source in ("wage", "self_employment")}

    @pytest.mark.parametrize("command", ["shocks", "validate"])
    def test_builds_no_shocked_population(self, ws, monkeypatch, command):
        """shocks and validate sum the changes as the shocked persons
        stream: no Population but the loaded one is made."""
        options = (["--config", observed_config(ws, Fraction(0), "100")]
                   if command == "validate" else [])

        def refuse(*args, **kwargs):
            raise AssertionError("a shocked Population was built")

        monkeypatch.setattr(Population, "__init__", refuse)
        monkeypatch.setattr(Population, "_with_persons", refuse)
        assert main([command, *options, "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--out", str(ws.root / f"x_{command}_stream")]) == 0

    @pytest.mark.parametrize("scale", ["big", " 0.8", "1_0", "٣", "1/0"])
    def test_bad_scale(self, ws, capsys, scale):
        assert main(["shocks", "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"), "--scale", scale,
                     "--out", str(ws.root / "x5")]) == 1
        assert "scale must be a number" in capsys.readouterr().err

    def test_truncated_cell_row(self, ws, capsys):
        """A truncated factor-table row is a data error naming file and row,
        not a traceback."""
        cells = ws.root / "cells_truncated.csv"
        lines = (ws.cal / "cells.csv").read_text(encoding="utf-8").splitlines()
        cells.write_text("\n".join(lines[:2] + ["wage,55"] + lines[2:]) + "\n",
                         encoding="utf-8")
        assert main(["shocks", "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(cells), "--out", str(ws.root / "x7")]) == 1
        assert (f"expected 6 fields, got 2 (file={cells}, row=3)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["shocks", "simulate"])
    def test_cell_table_lacking_a_cell(self, ws, capsys, command):
        """A factor table without its last row names its file and the cell
        it lacks."""
        cells = ws.root / "cells_short.csv"
        lines = (ws.cal / "cells.csv").read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith("selfemp,U,")
        cells.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        config = ["--config", str(ws.cfg)] if command == "simulate" else []
        assert main([command, *config, "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(cells), "--out", str(ws.root / "x15")]) == 1
        assert capsys.readouterr().err == (
            "error: self-employment table lacks cell SelfEmpCellKey(section='U') "
            f"(file={cells})\n")

    def test_cell_table_not_utf8(self, ws, capsys):
        """A factor table that is not UTF-8 is a data error naming the file,
        not a traceback."""
        cells = ws.root / "cells_latin1.csv"
        cells.write_bytes((ws.cal / "cells.csv").read_bytes()
                          .replace(b"estimated", b"estim\xe9ted", 1))
        assert main(["shocks", "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(cells), "--out", str(ws.root / "x9")]) == 1
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err
        assert f"(file={cells})" in err


class TestSimulate:
    def test_reports_and_charts_written(self, ws):
        names = {p.name for p in ws.sim.iterdir()}
        expected = {"table2.csv", "table2.json", "groups.csv", "groups.json",
                    "band.csv", "band.json", "band.svg", "manifest.json"}
        expected |= {f"groups_{dim}.svg" for dim in DIMENSIONS}
        assert expected <= names

    def test_manifest_hashes_match_files(self, ws):
        manifest = read_manifest(ws.sim)
        assert manifest["command"] == "simulate"
        assert manifest["extra"]["population_provenance"] == "loaded"
        assert manifest["outputs"]
        for name, digest in manifest["outputs"].items():
            assert digest == sha256_file(ws.sim / name)

    def test_rerun_writes_identical_outputs(self, ws, capsys):
        other = ws.root / "sim_again"
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--out", str(other)]) == 0
        out = capsys.readouterr().out
        assert "baseline relative child poverty" in out
        assert "combined scenario" in out
        for path in sorted(ws.sim.iterdir()):
            assert (other / path.name).read_bytes() == path.read_bytes()

    def test_synth_population_from_config(self, ws):
        other = ws.root / "sim_synth"
        assert main(["simulate", "--config", str(ws.cfg),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--out", str(other)]) == 0
        # The generated population round-trips through CSV exactly, so
        # reports match the file-driven run byte for byte.
        assert ((other / "table2.csv").read_bytes()
                == (ws.sim / "table2.csv").read_bytes())
        assert read_manifest(other)["extra"][
            "population_provenance"].startswith("synthetic")

    def test_csv_only_format(self, ws):
        other = ws.root / "sim_csv"
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--format", "csv", "--out", str(other)]) == 0
        names = {p.name for p in other.iterdir()}
        assert "table2.csv" in names and "table2.json" not in names
        assert "band.svg" in names
        assert ((other / "table2.csv").read_bytes()
                == (ws.sim / "table2.csv").read_bytes())

    def test_json_only_format(self, ws):
        other = ws.root / "sim_json"
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--format", "json", "--out", str(other)]) == 0
        names = {p.name for p in other.iterdir()}
        assert "table2.json" in names and "table2.csv" not in names

    def test_shock_factor_requires_cells(self, ws, capsys):
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--out", str(ws.root / "x6")]) == 1
        assert "--cells is required" in capsys.readouterr().err

    def test_repeated_factor_override(self, ws, capsys):
        # rejected as a repeat in the config key is, before any pass runs
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--factors", "gma_relaxation,one_offs,gma_relaxation",
                     "--out", str(ws.root / "x_factors")]) == 1
        assert capsys.readouterr().err == (
            "error: --factors (scenario.factors): factors lists 'gma_relaxation' "
            "more than once\n")
        assert not (ws.root / "x_factors").exists()

    @pytest.mark.parametrize("factors,item", [
        ("wage_shock,bogus", "bogus"), (",", ""), ("", ""),
        ("gma_relaxation,,one_offs", ""), ("gma_relaxation, one_offs", " one_offs"),
        ("gma_relaxation ,one_offs", "gma_relaxation "),
    ])
    def test_bad_factors_override_names_option_and_key(self, ws, capsys, factors,
                                                       item):
        """Each item is taken as given: an empty item or one with spaces
        around it is an unknown factor, not stripped away."""
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--factors", factors, "--out", str(ws.root / "x_factors")]) == 1
        assert capsys.readouterr().err == (
            f"error: --factors (scenario.factors): unknown factor {item!r} "
            "(allowed: wage_shock, selfemp_shock, gma_relaxation, one_offs)\n")
        assert not (ws.root / "x_factors").exists()

    def test_transfer_only_factors_need_no_cells(self, ws):
        other = ws.root / "sim_transfers"
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--factors", "gma_relaxation,one_offs",
                     "--out", str(other)]) == 0
        names = {p.name for p in other.iterdir()}
        assert "table2.csv" in names
        assert "band.csv" not in names  # band runs only with all factors

    def test_there_is_no_regime_option(self, ws, capsys):
        # the gma_relaxation factor is the one choice of means test
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--regime", "relaxed", "--out", str(ws.root / "x12")]) == 1
        assert "No such option" in capsys.readouterr().err
        assert "gma_regime" not in read_manifest(ws.sim)["effective_config"]["policy"]

    def test_there_is_no_basic_income_section(self, ws, capsys):
        # no command ran a basic income, so its policy section is gone
        cfg = ws.root / "tbi.json"
        cfg.write_text(json.dumps({**STUDY, "policy": {"tbi": {}}}), encoding="utf-8")
        assert main(["simulate", "--config", str(cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--out", str(ws.root / "x14")]) == 1
        assert "unknown key 'tbi' in policy" in capsys.readouterr().err
        assert not (ws.root / "x14").exists()
        assert "tbi" not in read_manifest(ws.sim)["effective_config"]["policy"]

    def test_persons_and_households_must_pair(self, ws, capsys):
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--out", str(ws.root / "x8")]) == 1
        assert "given together" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0.8.1", " 0.8", "1_0", "٣"])
    def test_bad_scale_override(self, ws, capsys, scale):
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--scale", scale, "--out", str(ws.root / "x9")]) == 1
        assert "scale must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["-1", "-1/5"])
    def test_negative_scale_override(self, ws, capsys, scale):
        # rejected as the config key is, before any shock is applied
        assert main(["simulate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--scale", scale, "--out", str(ws.root / "x13")]) == 1
        assert capsys.readouterr().err == (
            f"error: scenario.shock_scale {scale} must be nonnegative\n")
        assert not (ws.root / "x13").exists()


def observed_config(ws, offset: Fraction, tolerance: str) -> str:
    """Study config whose observed section sits `offset` pp from simulated."""
    pop = load_population(str(ws.gen / "persons.csv"),
                          str(ws.gen / "households.csv"))
    table = load_cell_table(str(ws.cal / "cells.csv"))
    simulated = simulated_aggregate_changes(pop, table)
    observed = {source: {"observed_pct": str(value + offset),
                         "tolerance_pp": tolerance}
                for source, value in simulated.items()}
    cfg = ws.root / f"observed_{offset.numerator}_{offset.denominator}.json"
    cfg.write_text(json.dumps({**STUDY, "observed": observed}),
                   encoding="utf-8")
    return str(cfg)


class TestValidate:
    def test_passing_run(self, ws, capsys):
        cfg = observed_config(ws, Fraction(1, 10), "0.5")
        out = ws.root / "val_pass"
        assert main(["validate", "--config", cfg,
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out and "FAIL" not in captured.out
        assert read_manifest(out)["extra"]["passed"] is True
        table1 = (out / "table1.csv").read_text(encoding="utf-8")
        assert "false" not in table1

    def test_failing_run(self, ws, capsys):
        cfg = observed_config(ws, Fraction(10), "0.5")
        out = ws.root / "val_fail"
        assert main(["validate", "--config", cfg,
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "validation failed" in captured.err
        assert read_manifest(out)["extra"]["passed"] is False

    def test_persons_truncated_before_the_last_household(self, ws, capsys):
        """A persons file cut before the last household's rows names the
        household, the persons file and the households file."""
        persons = ws.root / "persons_truncated.csv"
        lines = (ws.gen / "persons.csv").read_text(encoding="utf-8").splitlines()
        last = lines[-1].split(",")[1]
        kept = [line for line in lines if line.split(",")[1] != last]
        persons.write_text("\n".join(kept) + "\n", encoding="utf-8")
        assert main(["validate", "--config", observed_config(ws, Fraction(0), "1"),
                     "--persons", str(persons),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--out", str(ws.root / "x16")]) == 1
        assert capsys.readouterr().err == (
            f"error: household {last}: household has no members, though "
            f"{ws.gen / 'households.csv'} lists it (file={persons})\n")

    def test_config_without_observed(self, ws, capsys):
        assert main(["validate", "--config", str(ws.cfg),
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--out", str(ws.root / "x10")]) == 1
        assert "no observed section" in capsys.readouterr().err

    def test_json_only_format(self, ws):
        cfg = observed_config(ws, Fraction(0), "1")
        out = ws.root / "val_json"
        assert main(["validate", "--config", cfg,
                     "--persons", str(ws.gen / "persons.csv"),
                     "--households", str(ws.gen / "households.csv"),
                     "--cells", str(ws.cal / "cells.csv"),
                     "--format", "json", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "table1.json" in names and "table1.csv" not in names


class TestPlot:
    def test_rerenders_simulate_charts(self, ws):
        out = ws.root / "plots"
        assert main(["plot", "--band", str(ws.sim / "band.json"),
                     "--groups", str(ws.sim / "groups.json"),
                     "--out", str(out)]) == 0
        assert ((out / "band.svg").read_bytes()
                == (ws.sim / "band.svg").read_bytes())
        for dim in DIMENSIONS:
            name = f"groups_{dim}.svg"
            assert ((out / name).read_bytes()
                    == (ws.sim / name).read_bytes())

    def test_requires_some_input(self, ws, capsys):
        assert main(["plot", "--out", str(ws.root / "x11")]) == 1
        assert "nothing to plot" in capsys.readouterr().err

    def test_malformed_band_report(self, ws, capsys):
        bad = ws.root / "bad_band.json"
        bad.write_text('{"points": [{"scale": "1"}]}', encoding="utf-8")
        assert main(["plot", "--band", str(bad),
                     "--out", str(ws.root / "x12")]) == 1
        assert "malformed band report" in capsys.readouterr().err

    def test_band_report_not_json(self, ws, capsys):
        bad = ws.root / "not_json.json"
        bad.write_text("<html>", encoding="utf-8")
        assert main(["plot", "--band", str(bad),
                     "--out", str(ws.root / "x13")]) == 1
        assert "not valid JSON" in capsys.readouterr().err
