"""Command-line front end.

Subcommands cover each pipeline stage: generate (synthetic population),
calibrate (factor table from survey aggregates), shocks (apply the table
to a population), simulate (decomposition, band and group reports plus
charts), validate (aggregate changes against observed figures) and plot
(re-render charts from report files).

Exit codes: 0 success, 1 validation or configuration error, 2 runtime
error. Every command is reproducible: inputs and seed fully determine
the outputs, manifests included.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import click

from .cells import (SMALL_CELL_THRESHOLD, LfsAggregate, aggregate_income_change,
                    apply_shock, compute_cell_changes, load_cell_table,
                    load_lfs_aggregate, save_cell_table)
from .config import (StudyConfig, decode, load_study_config, sha256_file,
                     sha256_text, write_manifest)
from .errors import (CalibrationError, ConfigError, DataError, PipelineError,
                     PovsimError)
from .money import fmt_fraction
from .population import load_population, save_population
from .reporting import (band_csv, band_json_obj, dumps_json, groups_csv,
                        groups_json_obj, pct_str, table1_csv, table1_json_obj,
                        table1_rows, table2_csv, table2_json_obj)
from .scenario import (Study, prepare_baseline, simulated_aggregate_changes,
                       validate_against_observed)
from .synth import calibrate_to_baseline, generate_synthetic


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(out: Path, name: str, text: str, outputs: dict[str, str]) -> None:
    (out / name).write_text(text, encoding="utf-8", newline="")
    outputs[name] = sha256_text(text)


def _parse_quarters(text: str, option: str) -> tuple[int, ...]:
    """The quarters text lists as comma-separated ASCII digits, checked as
    an aggregate checks its quarter coverage."""
    quarters = text.split(",")
    if not all(q.isascii() and q.isdigit() for q in quarters):
        raise ConfigError(f"{option}: quarters must be comma-separated integers, "
                          f"got {text!r}")
    try:
        return LfsAggregate(tuple(map(int, quarters)), {}, {}).quarters_covered
    except DataError as exc:
        raise ConfigError(f"{option}: {exc}") from None


def _parse_scale(text: str) -> Fraction:
    try:
        return decode(Fraction, text, "scale")
    except ConfigError:
        raise ConfigError(f"scale must be a number, got {text!r}") from None


def _load_config_with_overrides(config_path: str, seed: int | None,
                                scale: str | None,
                                factors: str | None) -> StudyConfig:
    cfg = load_study_config(config_path)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if scale is not None:
        shock_scale = _parse_scale(scale)
        try:
            cfg = replace(cfg, scenario=replace(cfg.scenario, shock_scale=shock_scale))
        except ConfigError as exc:  # named as the config key it overrides
            raise ConfigError(f"scenario.{exc}") from None
    if factors is not None:
        wanted = tuple(f.strip() for f in factors.split(",") if f.strip())
        cfg = replace(cfg, scenario=replace(cfg.scenario, factors=wanted))
    return cfg


def _population_for(cfg: StudyConfig, persons: str | None,
                    households: str | None):
    """Population from files when given, otherwise from the synth section."""
    if (persons is None) != (households is None):
        raise ConfigError("--persons and --households must be given together")
    if persons is not None:
        return load_population(persons, households), {
            "persons": persons, "households": households}
    return _synthetic_population(cfg, "no population files given and config",
                                 "synthetic generation"), {}


def _synthetic_population(cfg: StudyConfig, lacking: str, needing: str):
    """The config's synthetic population, calibrated when configured.
    lacking and needing name the caller in the errors for a config without
    a synth section or a seed."""
    if cfg.synth is None:
        raise ConfigError(f"{lacking} has no synth section")
    if cfg.seed is None:
        raise ConfigError(f"{needing} needs a seed (config key 'seed' or --seed)")
    pop = generate_synthetic(cfg.synth, cfg.seed)
    if cfg.calibration is not None:
        pop = calibrate_to_baseline(
            pop, cfg.calibration.target_child_poverty, cfg.policy, cfg.poverty,
            tolerance=cfg.calibration.tolerance,
            max_evaluations=cfg.calibration.max_evaluations)
    return pop


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def cli() -> None:
    """Static microsimulation of income shocks, benefit rules and child poverty."""


@cli.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Study config JSON with a synth section.")
@click.option("--seed", type=int, default=None,
              help="Override the config seed.")
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False),
              help="Output directory.")
def generate(config_path: str, seed: int | None, out_path: str) -> None:
    """Generate a synthetic population; calibrate it when configured."""
    cfg = _load_config_with_overrides(config_path, seed, None, None)
    pop = _synthetic_population(cfg, "config", "generation")
    extra: dict = {"n_households": pop.n_households, "n_persons": pop.n_persons,
                   "provenance": pop.provenance}
    if cfg.calibration is not None:
        baseline = prepare_baseline(pop, cfg.policy, cfg.poverty)
        extra["baseline_child_rate_pct"] = pct_str(baseline.report.child_rate("relative"))
    out = _out_dir(out_path)
    save_population(pop, str(out / "persons.csv"), str(out / "households.csv"))
    outputs = {"persons.csv": sha256_file(out / "persons.csv"),
               "households.csv": sha256_file(out / "households.csv")}
    write_manifest(out, "generate", cfg, {}, outputs, extra=extra)
    click.echo(f"wrote {out / 'persons.csv'} and {out / 'households.csv'} "
               f"({pop.n_persons} persons in {pop.n_households} households)")
    if "baseline_child_rate_pct" in extra:
        click.echo(f"baseline relative child poverty: "
                   f"{extra['baseline_child_rate_pct']}%")


@cli.command()
@click.option("--base", "base_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Base-period cell aggregate CSV.")
@click.option("--shocked", "shocked_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Shock-period cell aggregate CSV.")
@click.option("--base-period", default="base", show_default=True,
              help="Label of the base period, recorded in the manifest.")
@click.option("--shocked-period", default="shocked", show_default=True,
              help="Label of the shock period, recorded in the manifest.")
@click.option("--base-quarters", default="1,2,3,4", show_default=True,
              help="Quarters the base aggregate covers.")
@click.option("--shocked-quarters", default="2,3", show_default=True,
              help="Quarters the shocked aggregate covers.")
@click.option("--threshold", type=int, default=SMALL_CELL_THRESHOLD,
              show_default=True, help="Small-cell suppression threshold.")
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
def calibrate(base_path: str, shocked_path: str, base_period: str,
              shocked_period: str, base_quarters: str, shocked_quarters: str,
              threshold: int, out_path: str) -> None:
    """Derive the cell factor table from two survey aggregates."""
    base = load_lfs_aggregate(base_path, quarters_covered=_parse_quarters(
        base_quarters, "--base-quarters"))
    shocked = load_lfs_aggregate(shocked_path, quarters_covered=_parse_quarters(
        shocked_quarters, "--shocked-quarters"))
    try:
        table = compute_cell_changes(base, shocked, small_cell_threshold=threshold)
    except DataError as exc:
        # a cell one aggregate lacks: name that aggregate's file and the other
        lacking, other = ((shocked_path, base_path)
                          if exc.message.endswith("shocked aggregate")
                          else (base_path, shocked_path))
        raise DataError(f"{exc.message}, though {other} has it", file=lacking) from None
    out = _out_dir(out_path)
    save_cell_table(table, str(out / "cells.csv"))
    outputs = {"cells.csv": sha256_file(out / "cells.csv")}
    counts: dict[str, int] = {}
    for change in list(table.wage.values()) + list(table.selfemp.values()):
        counts[change.provenance] = counts.get(change.provenance, 0) + 1
    write_manifest(out, "calibrate", None,
                   {"base": base_path, "shocked": shocked_path}, outputs,
                   extra={"cells": counts, "small_cell_threshold": threshold,
                          "base_period": base_period,
                          "shocked_period": shocked_period})
    click.echo(f"wrote {out / 'cells.csv'}")
    for provenance in sorted(counts):
        click.echo(f"  {provenance}: {counts[provenance]} cells")


@cli.command()
@click.option("--persons", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--households", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--cells", "cells_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--scale", default="1", show_default=True,
              help="Shock scale (fraction or decimal, e.g. 0.8).")
@click.option("--start-month", type=int, default=3, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
def shocks(persons: str, households: str, cells_path: str, scale: str,
           start_month: int, out_path: str) -> None:
    """Apply the factor table to a population; write the shocked copy."""
    scale_frac = _parse_scale(scale)
    pop = load_population(persons, households)
    table = load_cell_table(cells_path)
    shocked = apply_shock(pop, table, shock_start_month=start_month,
                          scale=scale_frac)
    out = _out_dir(out_path)
    save_population(shocked, str(out / "persons.csv"),
                    str(out / "households.csv"))
    changes: dict[str, str | None] = {}
    for source in ("wage", "self_employment"):
        try:
            change = aggregate_income_change(pop, shocked.persons, source)
        except DataError:
            changes[source] = None
        else:
            changes[source] = fmt_fraction(change * 100, 4)
    summary = {"scale": str(scale_frac), "start_month": start_month,
               "aggregate_change_pct": changes}
    outputs = {"persons.csv": sha256_file(out / "persons.csv"),
               "households.csv": sha256_file(out / "households.csv")}
    _write_text(out, "shock_summary.json", dumps_json(summary), outputs)
    write_manifest(out, "shocks", None,
                   {"persons": persons, "households": households,
                    "cells": cells_path}, outputs, extra=summary)
    click.echo(f"wrote shocked population to {out}")
    for source, change in changes.items():
        shown = "n/a" if change is None else f"{change}%"
        click.echo(f"  {source} aggregate change: {shown}")


def _factor_needs_table(factors: tuple[str, ...]) -> bool:
    return "wage_shock" in factors or "selfemp_shock" in factors


@cli.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--persons", default=None,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--households", default=None,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--cells", "cells_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Factor table CSV; required when a shock factor is selected.")
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "both"]),
              default="both", show_default=True)
@click.option("--scale", default=None, help="Override scenario.shock_scale.")
@click.option("--factors", default=None,
              help="Comma-separated factor subset override.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def simulate(config_path: str, persons: str | None, households: str | None,
             cells_path: str | None, out_path: str, fmt: str,
             scale: str | None, factors: str | None, seed: int | None) -> None:
    """Run decomposition, uncertainty band and group breakdowns."""
    cfg = _load_config_with_overrides(config_path, seed, scale, factors)
    settings = cfg.scenario
    pop, inputs = _population_for(cfg, persons, households)
    table = None
    if cells_path is not None:
        table = load_cell_table(cells_path)
        inputs["cells"] = cells_path
    if _factor_needs_table(settings.factors) and table is None:
        raise ConfigError("selected factors include an income shock; "
                          "--cells is required")

    study = Study(pop, table, cfg.policy, cfg.poverty)
    deco = study.decompose(base_spec=settings.base_spec(),
                           factors=settings.factors,
                           transfers_on_shocked=settings.transfers_on_shocked)
    band = None
    if settings.all_factors:
        band = study.uncertainty_band(scales=settings.band_scales,
                                      base_spec=settings.base_spec())
    dis = study.disaggregate(settings.scenario_spec(),
                             dimensions=settings.dimensions)

    out = _out_dir(out_path)
    outputs: dict[str, str] = {}
    want_csv = fmt in ("csv", "both")
    want_json = fmt in ("json", "both")
    groups_obj = groups_json_obj(dis)
    if want_csv:
        _write_text(out, "table2.csv", table2_csv(deco), outputs)
        _write_text(out, "groups.csv", groups_csv(dis), outputs)
    if want_json:
        _write_text(out, "table2.json", dumps_json(table2_json_obj(deco)),
                    outputs)
        _write_text(out, "groups.json", dumps_json(groups_obj), outputs)
    points = None
    if band is not None:
        band_obj = band_json_obj(band)
        if want_csv:
            _write_text(out, "band.csv", band_csv(band), outputs)
        if want_json:
            _write_text(out, "band.json", dumps_json(band_obj), outputs)
        points = _band_points(band_obj)
    _write_charts(out, points, _group_bars(groups_obj), outputs)
    write_manifest(out, "simulate", cfg, inputs, outputs,
                   extra={"population_provenance": pop.provenance,
                          "format": fmt})

    base_rate = deco.report("baseline").child_rate("relative")
    click.echo(f"baseline relative child poverty: {pct_str(base_rate)}%")
    if "combined" in deco.column_names():
        combined_rate = deco.report("combined").child_rate("relative")
        click.echo(f"combined scenario:               {pct_str(combined_rate)}%")
    click.echo(f"wrote reports to {out}")


def _band_points(report: dict) -> list[tuple[float, float]]:
    """(scale, rate %) chart points of a band report, undefined rates left out."""
    return [(float(Fraction(p["scale"])), float(p["rate_pct"]))
            for p in report["points"] if p["rate_pct"]]


def _group_bars(report: dict) -> dict[str, list]:
    """Dimension -> (group, pre %, post %) bars of a groups report's
    relative child poverty rates."""
    bars = {}
    for entry in report["dimensions"]:
        bars[entry["dimension"]] = dim_bars = []
        for group in entry["groups"]:
            rate = next(r for r in group["rates"] if r["indicator"] == "relative")
            pre, post = rate["pre_pct"], rate["post_pct"]
            dim_bars.append((group["group"], None if pre is None else float(pre),
                             None if post is None else float(post)))
    return bars


def _write_charts(out: Path, points: list[tuple[float, float]] | None,
                  bars: dict[str, list] | None, outputs: dict[str, str]) -> None:
    """band.svg from points and groups_<dimension>.svg from bars (relative
    child poverty); None skips that chart, an empty input warns."""
    from .charts import band_chart, grouped_bar_chart
    if points is not None:
        if points:
            _write_text(out, "band.svg", band_chart(points), outputs)
        else:
            click.echo("warning: band has no defined rates; chart omitted",
                       err=True)
    for dim, dim_bars in (bars or {}).items():
        svg = grouped_bar_chart(
            dim_bars, title=f"Child poverty by {dim.replace('_', ' ')} (relative, %)")
        if svg is None:
            click.echo(f"warning: no data for dimension {dim}; chart omitted",
                       err=True)
            continue
        _write_text(out, f"groups_{dim}.svg", svg, outputs)


@cli.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Study config with an observed section.")
@click.option("--persons", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--households", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--cells", "cells_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "both"]),
              default="both", show_default=True)
def validate(config_path: str, persons: str, households: str, cells_path: str,
             out_path: str, fmt: str) -> int:
    """Check simulated aggregate income changes against observed figures."""
    cfg = load_study_config(config_path)
    if cfg.observed is None:
        raise ConfigError("config has no observed section to validate against")
    pop = load_population(persons, households)
    table = load_cell_table(cells_path)
    simulated = simulated_aggregate_changes(pop, table)
    sources = {"self_employment": cfg.observed.self_employment,
               "wage": cfg.observed.wage}
    observed = {s: e.observed_pct for s, e in sources.items()}
    tolerance = {s: e.tolerance_pp for s, e in sources.items()}
    result = validate_against_observed(simulated, observed, tolerance)

    out = _out_dir(out_path)
    outputs: dict[str, str] = {}
    if fmt in ("csv", "both"):
        _write_text(out, "table1.csv", table1_csv(result), outputs)
    if fmt in ("json", "both"):
        _write_text(out, "table1.json", dumps_json(table1_json_obj(result)),
                    outputs)
    write_manifest(out, "validate", cfg,
                   {"persons": persons, "households": households,
                    "cells": cells_path}, outputs,
                   extra={"passed": result.passed})
    for row in table1_rows(result):
        verdict = "PASS" if row["passed"] == "true" else "FAIL"
        click.echo(f"{row['source']}: simulated {row['simulated_pct']}% vs "
                   f"observed {row['observed_pct']}% "
                   f"(gap {row['gap_pp']}pp, tolerance {row['tolerance_pp']}pp) "
                   f"{verdict}")
    if not result.passed:
        click.echo("validation failed", err=True)
        return 1
    return 0


@cli.command()
@click.option("--band", "band_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="band.json written by simulate.")
@click.option("--groups", "groups_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="groups.json written by simulate.")
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
def plot(band_path: str | None, groups_path: str | None, out_path: str) -> None:
    """Render SVG charts from report files."""
    if band_path is None and groups_path is None:
        raise ConfigError("nothing to plot: give --band and/or --groups")
    out = _out_dir(out_path)
    outputs: dict[str, str] = {}
    inputs: dict[str, str] = {}
    points = bars = None
    if band_path is not None:
        inputs["band"] = band_path
        points = _read_report(band_path, "band", _band_points)
    if groups_path is not None:
        inputs["groups"] = groups_path
        bars = _read_report(groups_path, "groups", _group_bars)
    _write_charts(out, points, bars, outputs)
    write_manifest(out, "plot", None, inputs, outputs)
    click.echo(f"wrote {len(outputs)} chart(s) to {out}")


def _read_report(path: str, kind: str, extract):
    """extract applied to the JSON report at path; any fault is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"report is not valid JSON: {exc}", file=path) from exc
    try:
        return extract(data)
    except (KeyError, TypeError, ValueError, StopIteration) as exc:
        raise DataError(f"malformed {kind} report: {exc}", file=path) from exc


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping.

    The cyclic garbage collector is paused while the command runs and
    restored after it: a command frees its data by reference counting, and
    collections, triggered by its many allocations, find almost nothing.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ConfigError, DataError, CalibrationError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except PipelineError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (PovsimError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    finally:
        if collecting:
            gc.enable()
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
