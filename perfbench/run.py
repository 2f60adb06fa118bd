#!/usr/bin/env python3
"""Benchmark the povsim command-line tool on one workload.

    python3 perfbench/run.py --workload demo --seed 20200401 --seconds 40 --trace 0

Run from the root of a povsim checkout. One driver process runs the
workload's command chain one command at a time (a closed loop with one
client), each command as a child ``python3 -m povsim.cli`` process with
``src`` on PYTHONPATH, and repeats the chain while another repetition fits
in --seconds. --trace 1 instead runs the chain in-process through
``povsim.cli.main``, once untraced and once with every layer's public
functions wrapped in spans (see tracing.py), and reports per-layer
metrics. Outputs are checked on every repetition; see README.md.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
command succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from workloads import DEFAULT_SEED, WORKLOADS, Step

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 7

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


@dataclass
class CommandRun:
    command: str
    out: str  # output directory, relative to the repetition's directory
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    problems: list[str] = field(default_factory=list)


@dataclass
class ChainRun:
    commands: list[CommandRun]
    wall_s: float
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)  # not tied to a command

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if c.problems)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(step: Step, cwd: Path, deadline: float) -> CommandRun:
    """Run one povsim command as a child process; time it and its RSS."""
    out_path, err_path = (cwd / f"{step.command}.{s}" for s in ("stdout", "stderr"))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "povsim.cli", step.command, *step.argv],
            stdout=out, stderr=err, cwd=cwd, env=child_env())
        killer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = CommandRun(step.command, step.out, proc.returncode, wall,
                     usage.ru_maxrss / 1024,
                     out_path.read_text(encoding="utf-8", errors="replace"))
    if run.code not in step.ok_codes:
        err = err_path.read_text(encoding="utf-8", errors="replace").strip()
        run.problems.append(f"{step.command}: exit code {run.code}: {err[-300:]}")
    return run


def run_in_process(step: Step, main, tracer: tracing.Tracer | None) -> CommandRun:
    """Run one povsim command through povsim.cli.main in this process."""
    argv = [step.command, *step.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        if tracer is None:
            code = main(argv)
        else:
            code = tracer.run_command(step.command, main, argv)
        wall = perf_counter() - start
    run = CommandRun(step.command, step.out, code, wall, 0.0, out.getvalue())
    if code not in step.ok_codes:
        run.problems.append(f"{step.command}: exit code {code}: "
                            f"{err.getvalue().strip()[-300:]}")
    return run


def run_chain(workload: str, configs, rep: Path, seed: int, runner,
              households: int | None = None) -> ChainRun:
    """Run the workload's chain, stopping at the first failed command."""
    rep.mkdir(parents=True)
    chain = workloads.steps(workload, ROOT, configs, rep, seed)
    commands: list[CommandRun] = []
    start = perf_counter()
    for step in chain:
        commands.append(runner(step, rep))
        if commands[-1].problems:
            break
    run = ChainRun(commands, perf_counter() - start)
    if any(c.problems for c in commands):
        return run
    by_command = {c.command: c for c in commands}
    for step in chain:
        digests, problems = workloads.check_manifest(rep, step)
        run.digests.update(digests)
        by_command[step.command].problems.extend(problems)
    stdout = {c.command: c.stdout for c in commands}
    for command, problems in workloads.check_invariants(
            workload, rep, stdout, seed, full_size=households is None).items():
        target = by_command.get(command)
        if target is None:
            run.problems.extend(problems)
        else:
            target.problems.extend(problems)
    if seed == DEFAULT_SEED and households is None:
        _blame(run, workloads.check_golden(workload, run.digests))
    return run


def _blame(run: ChainRun, problems: list[str]) -> None:
    """Attribute output problems to the command owning the file named."""
    for problem in problems:
        owner = next((c for c in run.commands if f"{c.out}/" in problem), None)
        (owner.problems if owner else run.problems).append(problem)


def check_repetitions(chains: list[ChainRun]) -> None:
    """Repetitions of one run must write identical outputs."""
    first = next((c for c in chains if c.digests and not c.failed), None)
    if first is None:
        return
    for chain in chains:
        if not chain.digests or chain is first:
            continue
        differing = sorted(n for n in set(first.digests) | set(chain.digests)
                           if first.digests.get(n) != chain.digests.get(n))
        _blame(chain, [f"{n} differs between repetitions" for n in differing])


def measure_setup() -> list[float]:
    """Seconds to start a fresh interpreter and import povsim.cli."""
    argv = [sys.executable, "-c", "import povsim.cli"]
    subprocess.run(argv, env=child_env(), check=True)  # byte-compile once
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(argv, env=child_env(), check=True)
        samples.append(perf_counter() - start)
    return samples


def repeat(body, seconds: float) -> list[ChainRun]:
    """Call body(i) -> chains while another repetition fits in the window.

    Stops early once a chain fails: later repetitions would fail alike.
    """
    started = perf_counter()
    chains: list[ChainRun] = []
    longest = 0.0
    for i in itertools.count():
        rep_start = perf_counter()
        new = body(i)
        chains.extend(new)
        longest = max(longest, perf_counter() - rep_start)
        if any(c.failed for c in new) or (
                perf_counter() - started + longest > seconds):
            break
    return chains


def report_untraced(workload: str, seed: int, setup: list[float],
                    chains: list[ChainRun]) -> dict[str, float]:
    ok = [c for c in chains if not c.failed]
    metrics = {"setup_s": statistics.median(setup)}
    attempted = sum(len(c.commands) for c in chains)
    failed = sum(c.failed for c in chains)
    print(f"workload {workload}  seed {seed}  {len(chains)} repetition(s)")
    print(f"  setup_s           {metrics['setup_s']:10.4f} s   "
          f"median of {len(setup)}")
    if ok:
        metrics["pipeline_s"] = statistics.median([c.wall_s for c in ok])
        metrics["peak_rss_mb"] = statistics.median(
            [max(r.rss_mb for r in c.commands) for c in ok])
        print(f"  pipeline_s        {metrics['pipeline_s']:10.4f} s   "
              f"median of {len(ok)}")
        for command in ("generate", "simulate", "validate", "shocks",
                        "calibrate"):
            walls = [r.wall_s for c in ok for r in c.commands
                     if r.command == command]
            if walls:
                print(f"  {command + '_s':<17} {statistics.median(walls):10.4f} s   "
                      f"median of {len(walls)}")
        print(f"  peak_rss_mb       {metrics['peak_rss_mb']:10.1f} MB  "
              f"median of {len(ok)}")
        print(f"  digest            {workloads.combined_digest(ok[0].digests)}")
    print(f"  failed_ops_share  {failed}/{attempted}")
    return metrics


def run_untraced(workload: str, seed: int, seconds: float, run_dir: Path,
                 started: float) -> tuple[dict, list[ChainRun]]:
    configs = workloads.derive_configs(ROOT, run_dir, seed)
    setup = measure_setup()
    deadline = started + RUN_BUDGET_S

    def one(i: int) -> list[ChainRun]:
        rep = run_dir / f"rep{i}"
        chain = run_chain(workload, configs, rep, seed,
                          lambda step, cwd: run_child(step, cwd, deadline))
        shutil.rmtree(rep, ignore_errors=True)
        return [chain]

    chains = repeat(one, seconds)
    check_repetitions(chains)
    return report_untraced(workload, seed, setup, chains), chains


def load_povsim():
    """Import povsim.cli from this checkout's src directory."""
    sys.path.insert(0, str(ROOT / "src"))
    import povsim.cli
    src = (ROOT / "src").resolve()
    if src not in Path(povsim.cli.__file__).resolve().parents:
        raise ImportError(f"povsim imported from {povsim.cli.__file__}, "
                          f"not from {src}")
    for layer in tracing.LAYERS:
        __import__(f"povsim.{layer}")  # no lazy import inside a timed call
    return povsim.cli.main


def run_traced(workload: str, seed: int, seconds: float, run_dir: Path,
               households: int | None = None, spans_path: Path | None = None,
               ) -> tuple[dict, list[ChainRun], list[str]]:
    """Alternate untraced and traced in-process chains; per-layer metrics."""
    main = load_povsim()
    configs = workloads.derive_configs(ROOT, run_dir, seed, households)
    tracers: list[tracing.Tracer] = []
    absent: list[str] = []

    def one(i: int) -> list[ChainRun]:
        pair = []
        for traced in (False, True):
            rep = run_dir / f"rep{i}-{'traced' if traced else 'untraced'}"
            tracer = tracing.Tracer() if traced else None
            restore = None
            if tracer is not None:
                restore, missing = tracing.install(tracer)
                absent[:] = missing
            try:
                gc.collect()
                pair.append(run_chain(
                    workload, configs, rep, seed,
                    lambda step, cwd: run_in_process(step, main, tracer),
                    households))
            finally:
                if restore is not None:
                    restore()
            if tracer is not None:
                tracers.append(tracer)
            shutil.rmtree(rep, ignore_errors=True)
        return pair

    chains = repeat(one, seconds)
    pairs = list(zip(chains[0::2], chains[1::2]))
    check_repetitions(chains)
    problems: list[str] = []
    metrics: dict[str, float] = {}
    if all(not c.failed for c in chains):
        metrics, problems = tracing.per_layer_metrics(
            tracers, [p[0].wall_s for p in pairs], [p[1].wall_s for p in pairs])
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("rep,span_id,parent_id,name,start_s,end_s\n")
            for i, tracer in enumerate(tracers):
                tracer.write_spans(fh, i)
    report_traced(workload, seed, pairs, tracers, metrics, absent, spans_path)
    return metrics, chains, problems


def report_traced(workload, seed, pairs, tracers, metrics, absent,
                  spans_path) -> None:
    print(f"workload {workload}  seed {seed}  traced  "
          f"{len(pairs)} untraced/traced pair(s)")
    if absent:
        print(f"  absent (0 calls): {', '.join(absent)}")
    if tracers:
        tracer = tracers[0]
        for command, shares in tracer.layer_shares().items():
            parts = ", ".join(f"{layer} {share:.1%}" for layer, share in
                              sorted(shares.items(), key=lambda kv: -kv[1]))
            print(f"  {command} time: {parts}")
            calls = ", ".join(
                f"{name} {tracer.command_calls[(command, name)]}"
                for name in tracing.NAMED_FUNCTIONS
                if tracer.command_calls[(command, name)])
            print(f"  {command} calls: {calls}")
    units = tracing.per_layer_metric_units()
    for name, value in metrics.items():
        print(f"  {name:<48} {value:14.6f} {units[name][0]}")
    if spans_path is not None:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measurement window; a chain repetition starts "
                             "only while it still fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    if not (ROOT / "src" / "povsim" / "cli.py").is_file() or not (
            ROOT / "configs" / "demo.json").is_file():
        print(f"error: {ROOT} holds no povsim checkout "
              "(src/povsim and configs/demo.json)", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.csv"
            metrics, chains, problems = run_traced(
                args.workload, args.seed, args.seconds, run_dir,
                spans_path=spans)
            units = tracing.per_layer_metric_units()
            units = {k: v[0] for k, v in units.items()}
        else:
            metrics, chains = run_untraced(args.workload, args.seed,
                                           args.seconds, run_dir, started)
            problems = []
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems += [p for c in chains for p in c.problems]
    problems += [p for c in chains for r in c.commands for p in r.problems]
    for problem in problems:
        print(f"FAILED: {problem}")
    attempted = sum(len(c.commands) for c in chains)
    failed = sum(c.failed for c in chains)
    correct = not problems and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
