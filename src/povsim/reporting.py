"""Serialization of simulation results to CSV and JSON with stable schemas.

Every value is rendered through exact fixed-point formatting, so the same
in-memory result always produces byte-identical text. CSV and JSON carry
the same strings; neither is recomputed from the other.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .metrics import INDICATORS, RateResult
from .money import fmt_fraction
from .scenario import (COLUMN_ORDER, BandResult, DecompositionResult,
                       DisaggregationResult, ValidationResult)

PCT_PLACES = 4

TABLE2_HEADER = ("indicator", "population") + COLUMN_ORDER
BAND_HEADER = ("scale", "rate_pct", "delta_pp", "headcount_shift")
GROUPS_HEADER = ("dimension", "group", "indicator", "pre_pct", "post_pct",
                 "delta_pp", "pre_headcount", "post_headcount")
TABLE1_HEADER = ("source", "simulated_pct", "observed_pct", "gap_pp",
                 "tolerance_pp", "passed")


def pct_str(rate: Fraction | None, places: int = PCT_PLACES) -> str:
    """A proportion as a fixed-point percent string; empty when undefined."""
    return "" if rate is None else fmt_fraction(rate * 100, places)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# -- decomposition table ----------------------------------------------------

def _rate_of(result, indicator: str, population: str) -> Fraction | None:
    stats = result.report.indicators[indicator]
    cell = stats.children if population == "children" else stats.all_persons
    return cell.rate


def table2_rows(deco: DecompositionResult) -> list[dict[str, str]]:
    present = dict(deco.columns)
    rows = []
    for indicator in INDICATORS:
        for population in ("children", "all"):
            row = {"indicator": indicator, "population": population}
            for name in COLUMN_ORDER:
                if name in present:
                    row[name] = pct_str(_rate_of(present[name], indicator,
                                                 population))
                else:
                    row[name] = ""
            rows.append(row)
    return rows


def table2_csv(deco: DecompositionResult) -> str:
    rows = [[r[col] for col in TABLE2_HEADER] for r in table2_rows(deco)]
    return _csv_text(TABLE2_HEADER, rows)


def table2_json_obj(deco: DecompositionResult) -> dict:
    return {
        "columns": list(deco.column_names()),
        "rows": [
            {"indicator": r["indicator"], "population": r["population"],
             "rates_pct": {name: (r[name] or None) for name in COLUMN_ORDER}}
            for r in table2_rows(deco)
        ],
    }


# -- uncertainty band -------------------------------------------------------

def band_rows(band: BandResult) -> list[dict[str, str]]:
    rows = []
    for point in band.points:
        rate = point.result.report.child_rate("relative")
        rows.append({
            "scale": fmt_fraction(point.scale, 2),
            "rate_pct": pct_str(rate),
            "delta_pp": fmt_fraction(point.delta_pp, PCT_PLACES),
            "headcount_shift": str(point.headcount_shift),
        })
    return rows


def band_csv(band: BandResult) -> str:
    rows = [[r[col] for col in BAND_HEADER] for r in band_rows(band)]
    return _csv_text(BAND_HEADER, rows)


def band_json_obj(band: BandResult) -> dict:
    return {
        "baseline_rate_pct": pct_str(band.baseline.report.child_rate("relative")),
        "points": [
            {"scale": r["scale"], "rate_pct": r["rate_pct"],
             "delta_pp": r["delta_pp"],
             "headcount_shift": int(r["headcount_shift"])}
            for r in band_rows(band)
        ],
    }


# -- group breakdowns -------------------------------------------------------

def _headcount_str(cell: RateResult) -> str:
    return fmt_fraction(cell.headcount, 2)


def groups_rows(dis: DisaggregationResult) -> list[dict[str, str]]:
    rows = []
    for breakdown in dis.breakdowns:
        for group in breakdown.groups:
            for indicator in INDICATORS:
                cell = breakdown.cell(group, indicator)
                pre, post = cell.pre.rate, cell.post.rate
                delta = ("" if pre is None or post is None
                         else fmt_fraction((post - pre) * 100, PCT_PLACES))
                rows.append({
                    "dimension": breakdown.dimension,
                    "group": group,
                    "indicator": indicator,
                    "pre_pct": pct_str(pre),
                    "post_pct": pct_str(post),
                    "delta_pp": delta,
                    "pre_headcount": _headcount_str(cell.pre),
                    "post_headcount": _headcount_str(cell.post),
                })
    return rows


def groups_csv(dis: DisaggregationResult) -> str:
    rows = [[r[col] for col in GROUPS_HEADER] for r in groups_rows(dis)]
    return _csv_text(GROUPS_HEADER, rows)


def groups_json_obj(dis: DisaggregationResult) -> dict:
    rows = iter(groups_rows(dis))
    return {"indicators": list(INDICATORS), "dimensions": [
        {"dimension": breakdown.dimension, "groups": [
            {"group": group, "rates": [{col: r[col] or None for col in GROUPS_HEADER[2:]}
                                       for r in islice(rows, len(INDICATORS))]}
            for group in breakdown.groups]}
        for breakdown in dis.breakdowns]}


# -- aggregate-change validation table --------------------------------------

def table1_rows(validation: ValidationResult) -> list[dict[str, str]]:
    rows = []
    for row in validation.rows:
        rows.append({
            "source": row.source,
            "simulated_pct": fmt_fraction(row.simulated_pct, PCT_PLACES),
            "observed_pct": fmt_fraction(row.observed_pct, PCT_PLACES),
            "gap_pp": fmt_fraction(row.gap_pp, PCT_PLACES),
            "tolerance_pp": fmt_fraction(row.tolerance_pp, PCT_PLACES),
            "passed": "true" if row.passed else "false",
        })
    return rows


def table1_csv(validation: ValidationResult) -> str:
    rows = [[r[col] for col in TABLE1_HEADER] for r in table1_rows(validation)]
    return _csv_text(TABLE1_HEADER, rows)


def table1_json_obj(validation: ValidationResult) -> dict:
    return {
        "rows": [
            {"source": r["source"], "simulated_pct": r["simulated_pct"],
             "observed_pct": r["observed_pct"], "gap_pp": r["gap_pp"],
             "tolerance_pp": r["tolerance_pp"],
             "passed": r["passed"] == "true"}
            for r in table1_rows(validation)
        ],
        "passed": validation.passed,
    }
