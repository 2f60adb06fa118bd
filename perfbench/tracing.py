"""In-process span tracer for povsim's layers.

Layers are povsim's modules. Every public function a layer module defines
is wrapped where other modules look it up, that is at each layer boundary:
in every povsim module that imported it by name. The functions reported by
name, and the report writers, are also wrapped in the defining module's
own namespace, which intra-module calls and function-local imports go
through. The ``Population`` constructor is wrapped on its class. The program's source is not touched,
and the function ``install`` returns puts every original back.

Each wrapped call becomes a span (id, parent id, name, start, end). A
span's self time is its duration minus the time its child spans cover.
Time spent inside the wrappers themselves is booked to ``trace``, so it
lands in no layer. Counters the per-layer metrics name are taken from
arguments and results after the timed call.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# Layer modules. money and nace are arithmetic and lookup helpers called
# per value; their time stays with the layer that calls them.
LAYERS = ("synth", "population", "cells", "rules", "metrics", "scenario",
          "reporting", "charts", "config")
COMMANDS = ("generate", "calibrate", "shocks", "simulate", "validate")
PASS_FUNCTIONS = ("scenario.run_scenario", "scenario.prepare_baseline")

# Functions reported by name. One the program no longer defines or calls
# reads 0 calls and 0 s instead of stopping the run.
NAMED_FUNCTIONS = (
    "synth.calibrate_to_baseline", "synth.generate_synthetic",
    "population.load_population", "population.save_population",
    "population.Population",
    "cells.apply_shock", "cells.load_lfs_aggregate",
    "cells.compute_cell_changes", "cells.load_cell_table",
    "cells.aggregate_income_change",
    "rules.build_ledger", "rules.disposable_income",
    "metrics.build_person_rows", "metrics.relative_poverty_line",
    "metrics.weighted_median", "metrics.compute_report",
    "metrics.poverty_rate",
    "scenario.decompose", "scenario.uncertainty_band",
    "scenario.disaggregate", "scenario.run_scenario",
    "scenario.prepare_baseline",
    "config.load_study_config", "config.write_manifest",
)
_EXTRA_MEASURES = {
    "synth.calibrate_to_baseline": ("evaluations",),
    "population.load_population": ("rows", "bytes_read"),
    "population.save_population": ("bytes_written",),
    "population.Population": ("persons_validated",),
    "cells.apply_shock": ("distinct_calls", "households_touched_share"),
    "metrics.build_person_rows": ("rows",),
}
_UNITS = {"self_s": "s", "bytes_read": "B", "bytes_written": "B",
          "households_touched_share": "ratio"}


def per_layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for name in NAMED_FUNCTIONS:
        for measure in ("calls", "self_s") + _EXTRA_MEASURES.get(name, ()):
            out[f"{name}.{measure}"] = (_UNITS.get(measure, "count"), "lower")
    out["scenario.passes"] = ("count", "lower")
    out["scenario.distinct_passes"] = ("count", "lower")
    out["scenario.useful_pass_ratio"] = ("ratio", "higher")
    for layer in ("reporting", "charts"):
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.bytes"] = ("B", "lower")
    for command in COMMANDS:
        out[f"cli.{command}.wall_s"] = ("s", "lower")
        out[f"cli.{command}.other_s"] = ("s", "lower")
    out["trace.self_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


@dataclass
class _Frame:
    name: str
    span_id: int
    child_s: float = 0.0


class Tracer:
    """Spans and counters of one traced pipeline run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[_Frame] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.trace_s = 0.0
        self.hook_errors: list[str] = []
        self.command: str | None = None
        # per command: wall, layer self time below it, tracer time below it
        self.command_wall: defaultdict[str, float] = defaultdict(float)
        self.command_inner: defaultdict[str, float] = defaultdict(float)
        self.command_trace: defaultdict[str, float] = defaultdict(float)
        self.command_layer: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.command_calls: Counter[tuple[str, str]] = Counter()
        self.pass_keys: set = set()
        self.shock_keys: set = set()
        self._ids = 0
        self._origin = perf_counter()

    def _open(self, name: str) -> _Frame:
        self._ids += 1
        frame = _Frame(name, self._ids)
        self.stack.append(frame)
        return frame

    def _close(self, frame: _Frame, start: float, end: float) -> None:
        self.stack.pop()
        own = (end - start) - frame.child_s
        self.calls[frame.name] += 1
        self.self_s[frame.name] += own
        parent = self.stack[-1] if self.stack else None
        if self.command is not None:
            self.command_layer[(self.command, frame.name.split(".")[0])] += own
            self.command_calls[(self.command, frame.name)] += 1
            if parent is not None:
                self.command_inner[self.command] += own
        self.spans.append((frame.span_id, parent.span_id if parent else 0,
                           frame.name, start - self._origin, end - self._origin))

    def parent_name(self) -> str | None:
        return self.stack[-1].name if self.stack else None

    def in_span(self, *names: str) -> bool:
        return any(f.name in names for f in self.stack)

    def wrap(self, name: str, fn, hook=None):
        """fn wrapped in a span called name; hook(tracer, args, kwargs,
        result) books counters after the call, with the caller's stack."""
        tracer = self

        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = tracer.stack[-1] if tracer.stack else None
            frame = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(frame, start, end)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except Exception as exc:  # a stale hook must not stop the run
                    tracer.hook_errors.append(f"{name}: {exc!r}")
            left = perf_counter()
            overhead = (left - entered) - (end - start)
            tracer.trace_s += overhead
            if tracer.command is not None:
                tracer.command_trace[tracer.command] += overhead
            if parent is not None:
                parent.child_s += left - entered
            return result

        traced.__wrapped__ = fn
        return traced

    def run_command(self, command: str, main, argv: list[str]) -> int:
        """Run one CLI command in-process as the root span cli.<command>."""
        self.command = command
        frame = self._open(f"cli.{command}")
        start = perf_counter()
        try:
            return main(argv)
        finally:
            end = perf_counter()
            self._close(frame, start, end)
            self.command_wall[command] += end - start
            self.command = None

    def bookkeeping_gaps(self) -> dict[str, float]:
        """command -> wall minus (other + layer self + tracer time).

        Zero up to float rounding when every span's time is booked once.
        """
        return {c: wall - (self.self_s[f"cli.{c}"] + self.command_inner[c]
                           + self.command_trace[c])
                for c, wall in self.command_wall.items()}

    def counter_values(self) -> dict[str, float]:
        """Every per-layer metric that must repeat exactly between runs."""
        out: dict[str, float] = {}
        for name in NAMED_FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name]
        c = self.counts
        out["synth.calibrate_to_baseline.evaluations"] = c["calibration_evaluations"]
        out["population.load_population.rows"] = c["load_rows"]
        out["population.load_population.bytes_read"] = c["bytes_read"]
        out["population.save_population.bytes_written"] = c["bytes_written"]
        out["population.Population.persons_validated"] = c["persons_validated"]
        out["cells.apply_shock.distinct_calls"] = len(self.shock_keys)
        out["cells.apply_shock.households_touched_share"] = (
            c["households_touched"] / c["households_shocked"]
            if c["households_shocked"] else 0.0)
        out["metrics.build_person_rows.rows"] = c["person_rows"]
        out["scenario.passes"] = c["passes"]
        out["scenario.distinct_passes"] = len(self.pass_keys)
        out["scenario.useful_pass_ratio"] = (
            len(self.pass_keys) / c["passes"] if c["passes"] else 0.0)
        out["reporting.bytes"] = c["reporting.bytes"]
        out["charts.bytes"] = c["charts.bytes"]
        return out

    def timing_values(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in NAMED_FUNCTIONS:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for layer in ("reporting", "charts"):
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.startswith(layer + "."))
        for command in COMMANDS:
            out[f"cli.{command}.wall_s"] = self.command_wall.get(command, 0.0)
            out[f"cli.{command}.other_s"] = self.self_s.get(f"cli.{command}", 0.0)
        out["trace.self_s"] = self.trace_s
        return out

    def layer_shares(self) -> dict[str, dict[str, float]]:
        """command -> layer -> share of the command's traced wall time."""
        return {c: {layer: own / wall
                    for (cmd, layer), own in self.command_layer.items()
                    if cmd == c}
                for c, wall in self.command_wall.items() if wall > 0}

    def write_spans(self, fh, rep: int) -> None:
        for span_id, parent, name, start, end in self.spans:
            fh.write(f"{rep},{span_id},{parent},{name},{start:.9f},{end:.9f}\n")


# -- counter hooks ----------------------------------------------------------

def _file_bytes(args, kwargs) -> int:
    total = 0
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            total += os.path.getsize(value)
    return total


def _on_load_population(tracer, args, kwargs, result) -> None:
    tracer.counts["load_rows"] += result.n_persons + result.n_households
    tracer.counts["bytes_read"] += _file_bytes(args, kwargs)


def _on_save_population(tracer, args, kwargs, result) -> None:
    tracer.counts["bytes_written"] += _file_bytes(args, kwargs)


def _on_population_init(tracer, args, kwargs, result) -> None:
    tracer.counts["persons_validated"] += len(args[0].persons)


def _on_apply_shock(tracer, args, kwargs, result) -> None:
    pop, table = args[0], args[1]
    before = {id(p) for p in pop.persons}
    touched = {p.household_id for p in result.persons if id(p) not in before}
    tracer.counts["households_touched"] += len(touched)
    tracer.counts["households_shocked"] += result.n_households
    factors = (tuple(c.factor for c in table.wage.values()),
               tuple(c.factor for c in table.selfemp.values()))
    # populations live for their command, so their ids are unique in it
    tracer.shock_keys.add((tracer.command, id(pop), factors,
                           tuple(sorted(kwargs.items())), args[2:]))


def _on_person_rows(tracer, args, kwargs, result) -> None:
    tracer.counts["person_rows"] += len(result)


def _on_pass(tracer, args, kwargs, result) -> None:
    if tracer.in_span(*PASS_FUNCTIONS):
        return  # nested inside another pass (basic-income anchors)
    if tracer.in_span("synth.calibrate_to_baseline"):
        tracer.counts["calibration_evaluations"] += 1
    if tracer.command != "simulate":
        return
    tracer.counts["passes"] += 1
    # run_scenario returns a result, prepare_baseline (stats, result)
    results = result if isinstance(result, tuple) else (result,)
    spec = next((r.spec for r in results if hasattr(r, "spec")), None)
    if spec is not None and spec == type(spec)():
        spec = "baseline"
    table = args[1] if len(args) > 1 and spec != "baseline" else None
    tracer.pass_keys.add((id(args[0]), id(table), spec))


def _bytes_hook(layer: str):
    def hook(tracer, args, kwargs, result) -> None:
        parent = tracer.parent_name()
        if isinstance(result, str) and not (parent or "").startswith(layer + "."):
            tracer.counts[f"{layer}.bytes"] += len(result.encode("utf-8"))
    return hook


_HOOKS = {
    "population.load_population": _on_load_population,
    "population.save_population": _on_save_population,
    "population.Population": _on_population_init,
    "cells.apply_shock": _on_apply_shock,
    "metrics.build_person_rows": _on_person_rows,
    "scenario.run_scenario": _on_pass,
    "scenario.prepare_baseline": _on_pass,
}


def install(tracer: Tracer, package: str = "povsim"):
    """Wrap every layer's public functions.

    Returns (restore, absent): restore undoes the wrapping, absent lists
    the named functions the program does not define.
    """
    importlib.import_module(package)
    targets: dict = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{package}.{layer}")
        except ImportError:
            continue
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                name = f"{layer}.{attr}"
                hook = _HOOKS.get(name)
                if hook is None and layer in ("reporting", "charts"):
                    hook = _bytes_hook(layer)
                targets[obj] = (name, tracer.wrap(name, obj, hook))
    patched: list[tuple[object, str, object]] = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package
                                  or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            if not (inspect.isfunction(obj) and obj in targets):
                continue
            name, wrapper = targets[obj]
            # Calls inside the defining module are traced only for named
            # functions and the report writers: the other public helpers
            # (is_child_row, gross_to_net, age_band_of, ...) run per person
            # or per month, where a span would cost more than the work.
            if (obj.__module__ == mod_name and name not in NAMED_FUNCTIONS
                    and name.split(".")[0] not in ("reporting", "charts")):
                continue
            setattr(module, attr, wrapper)
            patched.append((module, attr, obj))
    population = sys.modules.get(f"{package}.population")
    cls = getattr(population, "Population", None)
    if inspect.isclass(cls):
        original_init = cls.__dict__["__init__"]
        cls.__init__ = tracer.wrap("population.Population", original_init,
                                   _HOOKS["population.Population"])
        patched.append((cls, "__init__", original_init))
    wrapped = {name for name, _ in targets.values()}
    if inspect.isclass(cls):
        wrapped.add("population.Population")
    absent = [n for n in NAMED_FUNCTIONS if n not in wrapped]

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore, absent


def per_layer_metrics(tracers: list[Tracer], untraced_s: list[float],
                      traced_s: list[float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over traced repetitions, plus any problems found.

    Times are medians over the repetitions; counters must match exactly.
    """
    problems: list[str] = []
    counters = tracers[0].counter_values()
    for i, t in enumerate(tracers[1:], start=2):
        if t.counter_values() != counters:
            problems.append(f"traced repetition {i} counted differently "
                            "from repetition 1")
    timings = {k: statistics.median(t.timing_values()[k] for t in tracers)
               for k in tracers[0].timing_values()}
    timings["trace.overhead_s"] = (statistics.median(traced_s)
                                   - statistics.median(untraced_s))
    values = {**counters, **timings}
    order = per_layer_metric_units()
    for t in tracers:
        problems.extend(f"counter hook failed: {e}" for e in t.hook_errors)
        for command, gap in t.bookkeeping_gaps().items():
            if abs(gap) > 1e-6 * max(1, len(t.spans)):
                problems.append(f"cli.{command}: layer self times plus "
                                f"other_s miss its wall time by {gap:.6f} s")
    return {name: values[name] for name in order}, problems
