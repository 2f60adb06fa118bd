"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run the real command chains on small populations, so they check the
tracer against the program as it is, not against a fake.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

SMALL = 300  # households; survey_x10 runs ten times as many


def _counts(metrics: dict[str, float]) -> dict[str, float]:
    units = tracing.per_layer_metric_units()
    return {k: v for k, v in metrics.items() if units[k][0] != "s"}


@pytest.mark.parametrize("workload", ["demo", "band_sweep", "survey_x10"])
def test_two_traced_runs_count_identically(workload, tmp_path):
    results = []
    for i in range(2):
        (tmp_path / f"run{i}").mkdir()
        metrics, chains, problems = run.run_traced(
            workload, 7, 0, tmp_path / f"run{i}", households=SMALL)
        assert problems == []
        assert all(not c.failed for c in chains)
        results.append(_counts(metrics))
    assert results[0] == results[1]


def test_band_sweep_counts_passes_and_shocks(tmp_path):
    metrics, _, problems = run.run_traced("band_sweep", 7, 0, tmp_path,
                                          households=SMALL)
    assert problems == []
    assert metrics["scenario.passes"] == 20
    assert metrics["scenario.distinct_passes"] == 16
    assert metrics["cells.apply_shock.calls"] == 17
    assert metrics["rules.build_ledger.calls"] == 20 * SMALL
    assert metrics["population.load_population.calls"] == 0  # bypassed


def test_absent_layers_read_zero_without_stopping(tmp_path, monkeypatch):
    # A package where a refactor left only scenario.decompose behind.
    pkg = tmp_path / "shrunkpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "scenario.py").write_text(
        "def decompose(x):\n    return helper(x) * 2\n\n"
        "def helper(x):\n    return x + 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = tracing.Tracer()
    restore, absent = tracing.install(tracer, package="shrunkpkg")
    import shrunkpkg.scenario as scenario
    try:
        assert tracer.run_command("simulate", scenario.decompose, 1) == 4
    finally:
        restore()
    assert "scenario.decompose" not in absent
    assert "rules.build_ledger" in absent
    metrics, problems = tracing.per_layer_metrics([tracer], [1.0], [1.0])
    assert problems == []
    assert metrics["scenario.decompose.calls"] == 1
    assert metrics["rules.build_ledger.calls"] == 0
    assert metrics["rules.build_ledger.self_s"] == 0.0
    # helper is not a named function: its time stays in decompose
    assert tracer.calls["scenario.helper"] == 0


def test_refuses_to_run_without_a_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "demo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
