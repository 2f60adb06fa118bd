"""The benchmark's workloads: povsim command chains and their output checks.

Every workload derives its configs from ``configs/demo.json`` at run time,
so the synth recipe lives in one place; the seed is the benchmark's.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 20200401  # the seed of configs/demo.json
WORKLOADS = ("demo", "band_sweep", "survey_x10")
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Band scales 1/2, 3/5, ..., 3/2: eleven combined-scenario passes.
BAND_SCALES = tuple(str(Fraction(5 + i, 10)) for i in range(11))


@dataclass(frozen=True)
class Step:
    """One povsim command of a chain; out is its output directory."""

    command: str
    argv: tuple[str, ...]
    out: str
    ok_codes: tuple[int, ...] = (0,)


def derive_configs(root: Path, work: Path, seed: int,
                   households: int | None = None) -> dict[str, Path]:
    """Write the band_sweep and survey_x10 configs; return config paths.

    households overrides the demo population size (tests use a small one);
    survey_x10 is always ten times the demo size.
    """
    demo_path = root / "configs" / "demo.json"
    demo = json.loads(demo_path.read_text(encoding="utf-8"))
    paths = {"demo": demo_path}
    if households is not None:
        demo["synth"]["n_households"] = households
        demo["seed"] = seed
        paths["demo"] = work / "demo.json"
        paths["demo"].write_text(json.dumps(demo, indent=2), encoding="utf-8")

    band = copy.deepcopy(demo)
    band.pop("calibration", None)
    band["seed"] = seed
    band["scenario"] = {"transfers_on_shocked": True,
                        "band_scales": list(BAND_SCALES)}
    x10 = copy.deepcopy(demo)
    x10.pop("calibration", None)
    x10["seed"] = seed
    x10["synth"]["n_households"] *= 10
    for name, cfg in (("band_sweep", band), ("survey_x10", x10)):
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return paths


def steps(workload: str, root: Path, configs: dict[str, Path], rep: Path,
          seed: int) -> list[Step]:
    """The command chain of a workload, writing under rep."""
    lfs = root / "configs"
    calibrate = Step("calibrate", (
        "--base", str(lfs / "lfs_2019.csv"),
        "--shocked", str(lfs / "lfs_2020q23.csv"),
        "--base-period", "2019", "--shocked-period", "2020q23",
        "--out", str(rep / "cells")), "cells")
    cells = ("--cells", str(rep / "cells" / "cells.csv"))
    pop = ("--persons", str(rep / "pop" / "persons.csv"),
           "--households", str(rep / "pop" / "households.csv"))
    cfg = str(configs[workload])
    # validate exits 1 when a source is outside tolerance: a result.
    validate = Step("validate", ("--config", cfg, *pop, *cells,
                                 "--out", str(rep / "checks")),
                    "checks", ok_codes=(0, 1))
    if workload == "demo":
        return [
            Step("generate", ("--config", cfg, "--seed", str(seed),
                              "--out", str(rep / "pop")), "pop"),
            calibrate,
            Step("simulate", ("--config", cfg, *pop, *cells,
                              "--out", str(rep / "results")), "results"),
            validate,
        ]
    if workload == "band_sweep":
        return [
            calibrate,
            Step("simulate", ("--config", cfg, *cells,
                              "--out", str(rep / "results")), "results"),
        ]
    if workload == "survey_x10":
        return [
            calibrate,
            Step("generate", ("--config", cfg, "--out", str(rep / "pop")), "pop"),
            Step("shocks", (*pop, *cells, "--out", str(rep / "shocked")),
                 "shocked"),
            validate,
        ]
    raise ValueError(f"unknown workload {workload!r}")


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_manifest(rep: Path, step: Step) -> tuple[dict[str, str], list[str]]:
    """Digest a step's outputs and check them against its manifest.

    manifest.json itself is not digested: it embeds the paths this run
    chose. Returns ({"<out>/<file>": sha256}, problems).
    """
    out = rep / step.out
    problems: list[str] = []
    try:
        recorded = json.loads((out / "manifest.json").read_text(
            encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, [f"{step.command}: unreadable manifest ({exc})"]
    digests: dict[str, str] = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            continue
        digest = sha256_of(path)
        digests[f"{step.out}/{path.name}"] = digest
        if recorded.get(path.name) != digest:
            problems.append(f"{step.command}: {path.name} does not match "
                            "the hash its manifest records")
    for name in sorted(set(recorded) - {p.name for p in out.iterdir()}):
        problems.append(f"{step.command}: manifest lists missing {name}")
    return digests, problems


def combined_digest(digests: dict[str, str]) -> str:
    lines = "".join(f"{name} {digests[name]}\n" for name in sorted(digests))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def check_golden(workload: str, digests: dict[str, str]) -> list[str]:
    """Every file digested at the default seed must read the same bytes.

    A file the program newly writes is not a failure; one that changed or
    disappeared is.
    """
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[workload]
    problems = []
    for name, digest in sorted(golden["files"].items()):
        if name not in digests:
            problems.append(f"golden output {name} was not written")
        elif digests[name] != digest:
            problems.append(f"{name} differs from its golden digest")
    return problems


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _relative_children(table2: Path) -> dict[str, str]:
    for row in _csv_rows(table2):
        if row["indicator"] == "relative" and row["population"] == "children":
            return row
    raise ValueError("table2.csv has no relative/children row")


_RATE = re.compile(r"baseline relative child poverty: (-?[0-9.]+)%")
_COUNTS = re.compile(r"\((\d+) persons in (\d+) households\)")
_COMBINED = re.compile(r"combined scenario: +(-?[0-9.]+)%")

# README quick-start figures at the default seed.
DEMO_DEFAULT = {"persons": 9551, "households": 3000,
                "baseline": "27.5707", "combined": "29.6642"}


def check_invariants(workload: str, rep: Path, stdout: dict[str, str],
                     seed: int, full_size: bool = True) -> dict[str, list[str]]:
    """Cross-command invariants that need no golden data.

    Returns command -> problems, attributed to the later command of each
    pair. stdout maps command -> what it printed.
    """
    problems: dict[str, list[str]] = {}

    def fail(command: str, text: str) -> None:
        problems.setdefault(command, []).append(text)

    try:
        if workload == "demo":
            rate = _RATE.search(stdout["generate"]).group(1)
            table = _relative_children(rep / "results" / "table2.csv")
            if table["baseline"] != rate:
                fail("simulate", f"table2 baseline {table['baseline']} != "
                     f"generate's {rate}")
            if seed == DEFAULT_SEED and full_size:
                persons, households = map(
                    int, _COUNTS.search(stdout["generate"]).groups())
                got = {"persons": persons, "households": households,
                       "baseline": rate,
                       "combined": _COMBINED.search(stdout["simulate"]).group(1)}
                for key, want in DEMO_DEFAULT.items():
                    if got[key] != want:
                        fail("simulate" if key == "combined" else "generate",
                             f"{key} {got[key]} != README's {want}")
        elif workload == "band_sweep":
            table = _relative_children(rep / "results" / "table2.csv")
            band = {Fraction(r["scale"]): r["rate_pct"]
                    for r in _csv_rows(rep / "results" / "band.csv")}
            if band.get(Fraction(1)) != table["combined"]:
                fail("simulate", f"band 1.00 rate {band.get(Fraction(1))} != "
                     f"table2 combined {table['combined']}")
        elif workload == "survey_x10":
            summary = json.loads((rep / "shocked" / "shock_summary.json")
                                 .read_text(encoding="utf-8"))
            simulated = {r["source"]: r["simulated_pct"]
                         for r in _csv_rows(rep / "checks" / "table1.csv")}
            for source, change in summary["aggregate_change_pct"].items():
                if simulated.get(source) != change:
                    fail("validate", f"{source}: validate {simulated.get(source)}"
                         f" != shocks {change}")
            if seed == DEFAULT_SEED and full_size:
                persons, households = map(
                    int, _COUNTS.search(stdout["generate"]).groups())
                if (persons, households) != (96401, 30000):
                    fail("generate", f"{persons} persons in {households} "
                         "households, expected 96401 in 30000")
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        fail("invariants", f"cannot check {workload} invariants: {exc!r}")
    return problems
