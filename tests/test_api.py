"""The public API: every exported name resolves, once, and retired entry
points stay retired, so scores have one way in (Study)."""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import pytest

import povsim

# The basic income no command ran and its baseline statistics.
BASIC_INCOME = ("Tbi" + "Params", "Tbi" + "Context", "tbi" + "_award",
                "Baseline" + "Stats", "median_per_capita" + "_monthly")

# The person-level scorer, build-a-ledger helper, gross-vector netting
# helper, one-study wrappers and household demography record that Study,
# HouseholdBase and person_net_market replaced, and the basic income,
# spelled in parts so that a search of the tree for one of these names
# finds only real uses.
RETIRED = tuple("_".join(parts) for parts in (
    ("build", "person", "rows"), ("relative", "poverty", "line"),
    ("poverty", "rate"), ("is", "child", "row"), ("compute", "report"),
    ("equivalized", "income"), ("run", "scenario"), ("build", "ledger"),
    ("net", "market", "vector"),
)) + ("Person" + "Row", "Household" + "Demography", "decompose",
      "uncertainty_band", "disaggregate", *BASIC_INCOME)


def test_every_exported_name_resolves():
    missing = [name for name in povsim.__all__ if not hasattr(povsim, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(set(povsim.__all__)) == len(povsim.__all__)


@pytest.mark.parametrize("module", ["povsim", "povsim.metrics",
                                    "povsim.scenario", "povsim.rules"])
def test_retired_names_are_not_importable(module):
    mod = importlib.import_module(module)
    assert [name for name in RETIRED if hasattr(mod, name)] == []
    assert not set(RETIRED) & set(getattr(mod, "__all__", ()))


def test_one_csv_reader():
    """Every CSV input goes through population._records: the source holds
    one csv.reader call and no csv.DictReader."""
    source = "".join(path.read_text(encoding="utf-8")
                     for path in Path(povsim.__file__).parent.glob("*.py"))
    assert source.count("csv.DictReader") == 0
    assert source.count("csv.reader(") == 1


# Members no output read: a scenario pass's per-household cascade
# results, the population's base year, an aggregate's period label, a
# loaded factor table's threshold, the fixed first-adult coefficient and a
# report's child headcount.
UNREAD = {"scenario.ScenarioResult": "fiscal", "population.Population": "base_year",
          "synth.SynthConfig": "base_year", "cells.LfsAggregate": "period",
          "cells.CellChangeTable": "small_cell_threshold",
          "metrics.EquivalenceScale": "first_adult",
          "metrics.PovertyReport": "child_headcount"}


@pytest.mark.parametrize("cls", ["metrics.HouseholdScores", "scenario.Study",
                                 "scenario.ScenarioSpec", "rules.PolicyParameters",
                                 "rules.HouseholdFiscalResult", *UNREAD])
def test_retired_members_are_gone(cls):
    """The basic income left no switch, stream, parameter section or
    baseline-statistics method on the classes that held them, and no
    class keeps a member that no output read."""
    module, name = cls.split(".")
    klass = getattr(importlib.import_module(f"povsim.{module}"), name)
    members = set(dir(klass)) | {f.name for f in getattr(
        klass, "__dataclass_fields__", {}).values()}
    retired = {*BASIC_INCOME, "tbi", "stats", "annual", UNREAD.get(cls)} - {None}
    assert members & retired == set()


def test_calibration_keeps_no_rescaling_path():
    """A calibration candidate lists its real members and becomes a
    Population through _with_persons: no income-rescaling constructor and
    no ledger built from incomes other than its members' remain."""
    from povsim.population import Population
    from povsim.rules import ledger_from_vectors
    assert not hasattr(Population, "_".join(("", "rescale", "incomes")))
    assert "incomes" not in inspect.signature(ledger_from_vectors).parameters
