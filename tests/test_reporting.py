"""Stable CSV/JSON serialization of results."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import pytest

from povsim.reporting import (
    BAND_HEADER,
    GROUPS_HEADER,
    TABLE1_HEADER,
    TABLE2_HEADER,
    band_csv,
    band_json_obj,
    dumps_json,
    groups_csv,
    groups_json_obj,
    pct_str,
    table1_csv,
    table1_json_obj,
    table2_csv,
    table2_json_obj,
)
from povsim.scenario import ScenarioSpec, Study, validate_against_observed

ALL_ON = ScenarioSpec(wage_shock=True, selfemp_shock=True,
                      gma_relaxation=True, one_offs=True)


@pytest.fixture()
def results(micro_pop, micro_table, params, pov):
    study = Study(micro_pop, micro_table, params, pov)
    return {
        "deco": study.decompose(),
        "band": study.uncertainty_band(),
        "dis": study.disaggregate(ALL_ON),
        "val": validate_against_observed(
            {"wage": 5.0, "self_employment": -11.6},
            {"wage": 9.8, "self_employment": -10.7},
            {"wage": 5, "self_employment": 2}),
    }


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


class TestPctStr:
    def test_formats(self):
        assert pct_str(Fraction(3, 4)) == "75.0000"
        assert pct_str(Fraction(278, 1000), places=1) == "27.8"
        assert pct_str(None) == ""


class TestTable2:
    def test_csv_shape_and_values(self, results):
        rows = parse_csv(table2_csv(results["deco"]))
        assert list(rows[0]) == list(TABLE2_HEADER)
        assert len(rows) == 6  # three indicators x two populations
        rel_children = rows[0]
        assert rel_children["indicator"] == "relative"
        assert rel_children["population"] == "children"
        assert rel_children["baseline"] == "75.0000"
        assert rel_children["combined"] == "75.0000"

    def test_json_mirrors_csv(self, results):
        obj = table2_json_obj(results["deco"])
        text = dumps_json(obj)
        parsed = json.loads(text)
        assert parsed["columns"][0] == "baseline"
        assert parsed["rows"][0]["rates_pct"]["baseline"] == "75.0000"

    def test_missing_columns_render_empty(self, micro_pop, micro_table, params,
                                          pov):
        deco = Study(micro_pop, micro_table, params, pov).decompose(
            factors=["wage_shock"])
        rows = parse_csv(table2_csv(deco))
        assert rows[0]["combined"] == ""
        assert rows[0]["one_offs"] == ""
        obj = table2_json_obj(deco)
        assert obj["rows"][0]["rates_pct"]["combined"] is None


class TestBand:
    def test_csv_rows(self, results):
        rows = parse_csv(band_csv(results["band"]))
        assert list(rows[0]) == list(BAND_HEADER)
        assert [r["scale"] for r in rows] == ["0.80", "1.00", "1.20"]
        for row in rows:
            float(row["rate_pct"])
            int(row["headcount_shift"])

    def test_json(self, results):
        obj = band_json_obj(results["band"])
        assert obj["baseline_rate_pct"] == "75.0000"
        assert len(obj["points"]) == 3
        assert isinstance(obj["points"][0]["headcount_shift"], int)


class TestGroups:
    def test_csv_covers_all_cells(self, results):
        rows = parse_csv(groups_csv(results["dis"]))
        assert list(rows[0]) == list(GROUPS_HEADER)
        # 4 dimensions with 2+3+2+4 groups, times three indicators.
        assert len(rows) == (2 + 3 + 2 + 4) * 3
        by_key = {(r["dimension"], r["group"], r["indicator"]): r for r in rows}
        cell = by_key[("sex", "female", "relative")]
        assert cell["pre_pct"] != ""
        assert cell["pre_headcount"] != ""

    def test_empty_groups_have_blank_rates(self, results):
        rows = parse_csv(groups_csv(results["dis"]))
        empty = [r for r in rows if r["pre_pct"] == ""]
        for row in empty:
            assert row["delta_pp"] == ""
            assert row["pre_headcount"] == "0.00"

    def test_json(self, results):
        obj = groups_json_obj(results["dis"])
        assert obj["indicators"] == ["relative", "absolute_extreme",
                                     "absolute_upper"]
        sex = [d for d in obj["dimensions"] if d["dimension"] == "sex"][0]
        assert {g["group"] for g in sex["groups"]} == {"male", "female"}


class TestTable1:
    def test_csv(self, results):
        rows = parse_csv(table1_csv(results["val"]))
        assert list(rows[0]) == list(TABLE1_HEADER)
        by_source = {r["source"]: r for r in rows}
        assert by_source["wage"]["gap_pp"] == "4.8000"
        assert by_source["wage"]["passed"] == "true"
        assert by_source["self_employment"]["gap_pp"] == "0.9000"

    def test_json(self, results):
        obj = table1_json_obj(results["val"])
        assert obj["passed"] is True
        assert obj["rows"][0]["passed"] is True


class TestDeterminism:
    def test_same_result_same_bytes(self, results):
        assert table2_csv(results["deco"]) == table2_csv(results["deco"])
        assert dumps_json(table2_json_obj(results["deco"])) == \
            dumps_json(table2_json_obj(results["deco"]))
        assert band_csv(results["band"]) == band_csv(results["band"])
        assert groups_csv(results["dis"]) == groups_csv(results["dis"])

    def test_json_ends_with_newline(self, results):
        assert dumps_json({"a": 1}).endswith("\n")
