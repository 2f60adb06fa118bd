"""Scenario pipeline: shocks, rules, metrics, decomposition, band, groups.

A scenario is a switch set over {wage shock, self-employment shock, GMA
relaxation, one-offs} plus a shock scale. The GMA relaxation switch is
the only choice between the pre-crisis and the relaxed means test; no
policy parameter selects it. The pipeline order is fixed: income shocks,
gross-to-net, GMA and allowances, one-off schemes, then poverty metrics.
The pre-shock income profile the means test reads before January is
always the unshocked population's.

A Study is the one way to evaluate scenarios: it runs every scenario a
study asks for over one population (its decomposition, uncertainty band
and group breakdown), each distinct ScenarioSpec once, all of them on
one HouseholdBase, the per-household data no scenario changes. A shock
is applied to the HouseholdBase's ledgers directly; no shocked
Population is built. prepare_baseline is the study of the baseline run
alone, for generate and calibration.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .errors import ConfigError, PipelineError
from .cells import (CellChangeTable, aggregate_income_change, shock_factors,
                    shock_site, shocked_person, shocked_persons)
from .metrics import (INDICATORS, RELATIVE_LINE_SHARE, EquivalenceScale,
                      HouseholdFrame, HouseholdScores, PovertyLines,
                      PovertyReport, RateResult, adult_education_group,
                      headcount_from_pp)
from .money import as_fraction
from .population import Person, Population
from .rules import (HouseholdLedger, PolicyParameters, disposable_income,
                    household_demography, ledger_from_vectors, person_net_market,
                    shocked_ledger)

FACTOR_NAMES: tuple[str, ...] = ("wage_shock", "selfemp_shock", "gma_relaxation",
                                 "one_offs")

COLUMN_ORDER: tuple[str, ...] = ("baseline",) + FACTOR_NAMES + ("combined",)

DIMENSIONS: tuple[str, ...] = ("sex", "child_age_band", "three_plus_children",
                               "adult_education")


@dataclass(frozen=True)
class ScenarioSpec:
    """Switch set and scale for one scenario run."""

    wage_shock: bool = False
    selfemp_shock: bool = False
    gma_relaxation: bool = False
    one_offs: bool = False
    shock_scale: Fraction = Fraction(1)
    shock_start_month: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "shock_scale", as_fraction(self.shock_scale))
        if not 1 <= self.shock_start_month <= 12:
            raise ConfigError(
                f"shock_start_month {self.shock_start_month} outside 1..12")

    @property
    def any_shock(self) -> bool:
        return self.wage_shock or self.selfemp_shock


BASELINE_SPEC = ScenarioSpec()


@dataclass(frozen=True)
class PovertyConfig:
    """Measurement settings shared by every scenario of a study."""

    absolute_extreme: int = 42000
    absolute_upper: int = 150000
    child_population: int = 407865
    equivalence_scale: EquivalenceScale = field(default_factory=EquivalenceScale)

    def __post_init__(self) -> None:
        if not 0 < self.absolute_extreme < self.absolute_upper:
            raise ConfigError("absolute poverty lines must satisfy 0 < extreme < upper")
        if self.child_population <= 0:
            raise ConfigError("child_population must be positive")


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario run's poverty report and household scores."""

    spec: ScenarioSpec
    report: PovertyReport
    scores: HouseholdScores = field(repr=False, compare=False)


def _age_band_group(age: int) -> str:
    if age <= 5:
        return "age_0_5"
    if age <= 14:
        return "age_6_14"
    return "age_15_17"


# dimension -> (groups, group of a child given the child, the household's
# number of children and its adult education group)
_GROUPERS: dict[str, tuple[tuple[str, ...],
                           Callable[[Person, int, str | None], str]]] = {
    "sex": (("male", "female"), lambda child, n, edu: child.sex.value),
    "child_age_band": (("age_0_5", "age_6_14", "age_15_17"),
                       lambda child, n, edu: _age_band_group(child.age)),
    "three_plus_children": (("three_plus", "fewer_than_three"),
                            lambda child, n, edu: "three_plus" if n >= 3
                            else "fewer_than_three"),
    "adult_education": (("primary_or_less", "secondary", "tertiary_plus",
                         "undefined"),
                        lambda child, n, edu: edu or "undefined"),
}


class HouseholdDemography:
    """What no income change moves, in household order: members (their
    demographic fields), household_demography fields, frame, group counts
    and shock sites."""

    def __init__(self, pop: Population, params: PolicyParameters,
                 pov: PovertyConfig) -> None:
        self.members = tuple(pop.members(hh.household_id) for hh in pop.households)
        self.fields = tuple(household_demography(ms, params) for ms in self.members)
        self.frame = HouseholdFrame.of(pop, pov.equivalence_scale)

    @cached_property
    def group_counts(self) -> dict[tuple[str, str], tuple[int, ...]]:
        """(dimension, group) -> that group's children in each household."""
        counts = {(dim, group): [0] * len(self.members)
                  for dim, (groups, _) in _GROUPERS.items() for group in groups}
        for i, (members, n_children) in enumerate(zip(self.members, self.frame.children)):
            edu = adult_education_group(members)
            for child in members:
                if child.is_child:
                    for dim, (_, grouper) in _GROUPERS.items():
                        counts[(dim, grouper(child, n_children, edu))][i] += 1
        return {key: tuple(c) for key, c in counts.items()}

    @cached_property
    def shock_sites(self) -> tuple[tuple[int, tuple[tuple, ...]], ...]:
        """(household index, (member index, *cells.shock_site) of each member
        a shock can move) of each household that has such a member."""
        sites = (tuple((j, k, cell) for j, (k, cell) in enumerate(map(shock_site, members))
                       if cell is not None) for members in self.members)
        return tuple((i, s) for i, s in enumerate(sites) if s)


class HouseholdBase:
    """Per-household data of one population that no scenario changes.

    Its demography and an income part: each member's net-market vector
    and each household's baseline ledger; once evaluated, the baseline
    run and the annual totals evaluate() reuses. Shocks change only
    income vectors, so every scenario over the population reuses it, and
    shocked_ledgers() derives a shock's ledgers from it. Get one through
    household_base(). cascade_runs and memo_hits count the households
    evaluate() ran the cascade for and those it reused.
    """

    def __init__(self, pop: Population, params: PolicyParameters,
                 pov: PovertyConfig) -> None:
        self.params = params
        self.pov = pov
        self.demography = demo = HouseholdDemography(pop, params, pov)
        self.frame = demo.frame
        self.net_vectors: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
            tuple(person_net_market(m, params) for m in members)
            for members in demo.members)
        self.ledgers: tuple[HouseholdLedger, ...] = tuple(
            ledger_from_vectors(hh, members, vectors, params, demography=fields)
            for hh, members, vectors, fields in zip(
                pop.households, demo.members, self.net_vectors, demo.fields))
        # report and scores of the baseline run; no reference to the
        # population, which holds this base
        self.baseline: tuple[PovertyReport, HouseholdScores] | None = None
        self._start_memo()

    def _start_memo(self) -> None:
        # (relaxed, one_offs) -> per household, (ledger, annual disposable
        # income) of the cascade over this base's own ledger, or None
        self._memo: dict[tuple[bool, bool], list[tuple[HouseholdLedger, int] | None]] = {}
        self.cascade_runs = 0
        self.memo_hits = 0

    def shocked_ledgers(self, table: CellChangeTable, shock_start_month: int,
                        scale: Fraction) -> tuple[HouseholdLedger, ...]:
        """The ledgers of cells.apply_shock(pop, table, ...) for this base's
        population, without building it.

        A household with a member in a cell of effective factor other than 1
        gets a rules.shocked_ledger listing those members rebuilt (the May
        one-off reads the wage) with new net vectors. Every other household
        keeps this base's ledger object, whose annual totals evaluate()
        reuses.
        """
        factors, start = shock_factors(table, shock_start_month, scale)
        ledgers = list(self.ledgers)
        for i, sites in self.demography.shock_sites:
            base = ledgers[i]
            members = nets = None
            for j, k, cell in sites:
                num, den = factors[cell]
                if num == den:
                    continue
                if members is None:
                    members, nets = list(base.members), list(self.net_vectors[i])
                members[j] = shocked_person(base.members[j], k, num, den, start)
                nets[j] = person_net_market(members[j], self.params)
            if members is not None:
                ledgers[i] = shocked_ledger(base, members, nets)
        return tuple(ledgers)

    def rescaled(self, members: Sequence[tuple[Person, ...] | None]) -> "HouseholdBase":
        """The base, baseline run included, of this base's population with
        each household's members replaced by members[i] (None keeps them):
        a changed household gets a ledger listing its new members, with the
        demography's fields, and only its new member objects are netted
        again. It starts an empty memo and zero counters."""
        net_vectors, ledgers = [], []
        for ledger, vectors, fields, new in zip(self.ledgers, self.net_vectors,
                                                self.demography.fields, members,
                                                strict=True):
            if new is not None:
                vectors = tuple(v if m is old else person_net_market(m, self.params)
                                for m, old, v in zip(new, ledger.members, vectors,
                                                     strict=True))
                ledger = ledger_from_vectors(ledger.household, new, vectors, self.params,
                                             demography=fields)
            net_vectors.append(vectors)
            ledgers.append(ledger)
        derived = copy.copy(self)
        derived.net_vectors, derived.ledgers = tuple(net_vectors), tuple(ledgers)
        derived._start_memo()
        derived.baseline = derived.evaluate(derived.ledgers, BASELINE_SPEC)
        return derived

    def materialize(self, source: Population) -> Population:
        """source with this base's members, a base rescaled() from source's
        base, which it keeps, memo included, as its household base; its
        demography, cached group counts and shock sites kept, lists pop's
        members, so it holds none of source's persons."""
        pop = source._with_persons(m for ledger in self.ledgers for m in ledger.members)
        self.demography = copy.copy(self.demography)
        self.demography.members = tuple(pop.members(hh.household_id)
                                        for hh in pop.households)
        pop.derived((HouseholdBase, self.params, self.pov), lambda: self)
        return pop

    def evaluate(self, ledgers: Sequence[HouseholdLedger], spec: ScenarioSpec,
                 ) -> tuple[PovertyReport, HouseholdScores]:
        """(report, scores) of spec's cascade over ledgers (this or a
        shocked population's, in household order).

        A household's annual disposable income depends only on its ledger
        and the (relaxed, one_offs) switches, so the cascade runs once per
        household and switch pair: a later pass whose ledger for that
        household is this base's own ledger object (one no shock touched)
        reuses the total. Each entry keeps the ledger it was computed on
        and is served only to that very object.
        """
        relaxed, one_offs = spec.gma_relaxation, spec.one_offs
        memo = self._memo.setdefault((relaxed, one_offs), [None] * len(self.ledgers))
        totals = []
        hits = 0
        try:
            for i, (ledger, own) in enumerate(zip(ledgers, self.ledgers, strict=True)):
                entry = memo[i]
                if entry and entry[0] is ledger:
                    total = entry[1]
                    hits += 1
                else:
                    total = disposable_income(ledger, self.params, relaxed=relaxed,
                                              one_offs=one_offs).annual_disposable
                    if ledger is own:
                        memo[i] = (ledger, total)
                totals.append(total)
        except (PipelineError, ConfigError):
            raise
        except Exception as exc:
            raise PipelineError("fiscal_rules", str(exc)) from exc
        self.memo_hits += hits
        self.cascade_runs += len(ledgers) - hits
        try:
            scores = self.frame.scores(totals)
            lines = PovertyLines(
                relative=RELATIVE_LINE_SHARE * scores.median_equivalized(),
                absolute_extreme=Fraction(self.pov.absolute_extreme),
                absolute_upper=Fraction(self.pov.absolute_upper),
            )
            report = scores.report(lines)
        except Exception as exc:
            raise PipelineError("poverty_metrics", str(exc)) from exc
        return report, scores


def household_base(pop: Population, params: PolicyParameters,
                   pov: PovertyConfig) -> HouseholdBase:
    """The population's household base, built on first request and kept
    with the population."""
    return pop.derived((HouseholdBase, params, pov),
                       lambda: HouseholdBase(pop, params, pov))


class Study:
    """Every scenario of one study over one population, each run once.

    Results are kept by ScenarioSpec, so a spec the decomposition, the
    band and the group breakdown share is evaluated once. Only the ledgers
    of the latest income shock (wage, self-employment, scale, start month)
    are kept, for the passes that follow it: a shock asked for again after
    another one is applied again. runs counts the scenario passes
    evaluated.
    """

    def __init__(self, pop: Population, table: CellChangeTable | None,
                 params: PolicyParameters, pov: PovertyConfig) -> None:
        self.table = table
        self.params = params
        self.pov = pov
        self.base = household_base(pop, params, pov)
        self.runs = 0
        self._results: dict[ScenarioSpec, ScenarioResult] = {}
        self._shock_ledgers: tuple[tuple, tuple[HouseholdLedger, ...]] = ((), ())

    def result(self, spec: ScenarioSpec) -> ScenarioResult:
        """The run of spec, evaluated on its first request."""
        found = self._results.get(spec)
        if found is not None:
            return found
        if spec == BASELINE_SPEC and self.base.baseline is not None:
            report, scores = self.base.baseline
        else:
            try:
                ledgers = self._ledgers_of(spec)
            except (PipelineError, ConfigError):
                raise
            except Exception as exc:
                raise PipelineError("shock_application", str(exc)) from exc
            report, scores = self.base.evaluate(ledgers, spec)
            self.runs += 1
            if spec == BASELINE_SPEC:
                self.base.baseline = (report, scores)
        found = self._results[spec] = ScenarioResult(spec=spec, report=report,
                                                     scores=scores)
        return found

    def _ledgers_of(self, spec: ScenarioSpec) -> tuple[HouseholdLedger, ...]:
        """The ledgers of spec's income shock."""
        if not spec.any_shock:
            return self.base.ledgers
        key = (spec.wage_shock, spec.selfemp_shock, spec.shock_scale,
               spec.shock_start_month)
        if self._shock_ledgers[0] != key:
            if self.table is None:
                raise ConfigError("scenario enables shocks but no cell table given")
            self._shock_ledgers = key, self.base.shocked_ledgers(
                self.table.neutralize(wage=not spec.wage_shock,
                                      selfemp=not spec.selfemp_shock),
                spec.shock_start_month, spec.shock_scale)
        return self._shock_ledgers[1]

    def decompose(self, base_spec: ScenarioSpec | None = None,
                  factors: Sequence[str] | None = None,
                  transfers_on_shocked: bool = False) -> "DecompositionResult":
        """Six-column decomposition: baseline, each factor alone, all together.

        The transfer columns run on unshocked incomes by default; setting
        transfers_on_shocked evaluates them on top of both income shocks
        instead. A factor subset drops the unselected single-factor columns,
        and the combined column is only produced when all factors are in.
        """
        base_spec = base_spec or ScenarioSpec()
        selected = tuple(factors) if factors is not None else FACTOR_NAMES
        unknown = set(selected) - set(FACTOR_NAMES)
        if unknown:
            raise ConfigError(f"unknown factor {sorted(unknown)[0]!r} "
                              f"(allowed: {', '.join(FACTOR_NAMES)})")
        names = ["baseline"]
        names += [f for f in FACTOR_NAMES if f in selected]
        if set(selected) == set(FACTOR_NAMES):
            names.append("combined")
        columns = []
        for name in names:
            spec = (BASELINE_SPEC if name == "baseline"
                    else _column_spec(name, base_spec, transfers_on_shocked))
            columns.append((name, self.result(spec)))
        return DecompositionResult(columns=tuple(columns))

    def uncertainty_band(self, scales: Sequence[float | Fraction] = (0.8, 1.0, 1.2),
                         base_spec: ScenarioSpec | None = None) -> "BandResult":
        """Combined scenario at several shock scales, sorted ascending."""
        base_spec = base_spec or ScenarioSpec()
        baseline = self.result(BASELINE_SPEC)
        base_rate = baseline.report.child_rate("relative")
        if base_rate is None:
            raise PipelineError("reporting", "baseline child rate undefined")
        points = []
        for scale in sorted(as_fraction(s) for s in scales):
            result = self.result(ScenarioSpec(
                wage_shock=True, selfemp_shock=True, gma_relaxation=True,
                one_offs=True, shock_scale=scale,
                shock_start_month=base_spec.shock_start_month))
            rate = result.report.child_rate("relative")
            if rate is None:
                raise PipelineError("reporting", "band child rate undefined")
            delta_pp = (rate - base_rate) * 100
            points.append(BandPoint(
                scale=scale, result=result, delta_pp=delta_pp,
                headcount_shift=headcount_from_pp(delta_pp,
                                                  self.pov.child_population)))
        return BandResult(baseline=baseline, points=tuple(points))

    def disaggregate(self, spec: ScenarioSpec,
                     dimensions: Sequence[str] = DIMENSIONS,
                     ) -> "DisaggregationResult":
        """Child poverty rates by group, baseline versus scenario.

        Every dimension partitions the child population, so group headcounts
        add up to the headline child headcount exactly.
        """
        for dim in dimensions:
            if dim not in _GROUPERS:
                raise ConfigError(f"unknown dimension {dim!r} "
                                  f"(allowed: {', '.join(_GROUPERS)})")
        baseline = self.result(BASELINE_SPEC)
        scenario = self.result(spec)
        counts = self.base.demography.group_counts
        breakdowns = []
        for dim in dimensions:
            group_names, _ = _GROUPERS[dim]
            cells: dict[tuple[str, str], GroupCell] = {}
            for group in group_names:
                selected = counts[(dim, group)]
                for indicator in INDICATORS:
                    cells[(group, indicator)] = GroupCell(
                        pre=baseline.scores.rate(
                            baseline.report.lines.line(indicator), selected),
                        post=scenario.scores.rate(
                            scenario.report.lines.line(indicator), selected))
            breakdowns.append(GroupBreakdown(dimension=dim, groups=group_names,
                                             cells=cells))
        return DisaggregationResult(baseline=baseline, scenario=scenario,
                                    breakdowns=tuple(breakdowns))


def prepare_baseline(pop: Population, params: PolicyParameters,
                     pov: PovertyConfig) -> ScenarioResult:
    """The all-off scenario's run."""
    return Study(pop, None, params, pov).result(BASELINE_SPEC)


def _column_spec(name: str, base: ScenarioSpec,
                 transfers_on_shocked: bool) -> ScenarioSpec:
    """The spec of decomposition column name, a factor or "combined"."""
    kwargs = dict(shock_scale=base.shock_scale,
                  shock_start_month=base.shock_start_month)
    if name == "wage_shock":
        return ScenarioSpec(wage_shock=True, **kwargs)
    if name == "selfemp_shock":
        return ScenarioSpec(selfemp_shock=True, **kwargs)
    if name == "gma_relaxation":
        return ScenarioSpec(gma_relaxation=True,
                            wage_shock=transfers_on_shocked,
                            selfemp_shock=transfers_on_shocked, **kwargs)
    if name == "one_offs":
        return ScenarioSpec(one_offs=True,
                            wage_shock=transfers_on_shocked,
                            selfemp_shock=transfers_on_shocked, **kwargs)
    return ScenarioSpec(wage_shock=True, selfemp_shock=True,
                        gma_relaxation=True, one_offs=True, **kwargs)


@dataclass(frozen=True)
class DecompositionResult:
    """Factor-by-factor scenario columns in fixed order."""

    columns: tuple[tuple[str, ScenarioResult], ...]

    def report(self, name: str) -> PovertyReport:
        for col_name, result in self.columns:
            if col_name == name:
                return result.report
        raise KeyError(name)

    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)


@dataclass(frozen=True)
class BandPoint:
    scale: Fraction
    result: ScenarioResult
    delta_pp: Fraction          # relative child rate shift vs baseline
    headcount_shift: int        # converted onto the reference child population


@dataclass(frozen=True)
class BandResult:
    baseline: ScenarioResult
    points: tuple[BandPoint, ...]


@dataclass(frozen=True)
class ValidationRow:
    source: str
    simulated_pct: Fraction
    observed_pct: Fraction
    gap_pp: Fraction
    tolerance_pp: Fraction

    @property
    def passed(self) -> bool:
        return self.gap_pp <= self.tolerance_pp


@dataclass(frozen=True)
class ValidationResult:
    rows: tuple[ValidationRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def validate_against_observed(simulated: Mapping[str, float | Fraction],
                              observed: Mapping[str, float | Fraction],
                              tolerance_pp: Mapping[str, float | Fraction],
                              ) -> ValidationResult:
    """Compare simulated aggregate income changes (percent) to observed ones.

    All three mappings must cover the same sources. Gaps and comparisons
    are exact.
    """
    if set(simulated) != set(observed) or set(simulated) != set(tolerance_pp):
        raise ConfigError("simulated, observed and tolerance sources differ")
    rows = []
    for source in sorted(simulated):
        sim = as_fraction(simulated[source])
        obs = as_fraction(observed[source])
        rows.append(ValidationRow(
            source=source, simulated_pct=sim, observed_pct=obs,
            gap_pp=abs(sim - obs), tolerance_pp=as_fraction(tolerance_pp[source])))
    return ValidationResult(rows=tuple(rows))


@dataclass(frozen=True)
class GroupCell:
    pre: RateResult
    post: RateResult


@dataclass(frozen=True)
class GroupBreakdown:
    """Child poverty by group for one dimension, pre and post scenario."""

    dimension: str
    groups: tuple[str, ...]
    cells: Mapping[tuple[str, str], GroupCell]  # (group, indicator) -> rates

    def cell(self, group: str, indicator: str) -> GroupCell:
        return self.cells[(group, indicator)]


@dataclass(frozen=True)
class DisaggregationResult:
    baseline: ScenarioResult
    scenario: ScenarioResult
    breakdowns: tuple[GroupBreakdown, ...]


def simulated_aggregate_changes(pop: Population, table: CellChangeTable,
                                spec: ScenarioSpec | None = None,
                                ) -> dict[str, Fraction]:
    """Full-scale aggregate income changes in percent, for validation,
    from the shocked persons without building a shocked Population."""
    spec = spec or ScenarioSpec(wage_shock=True, selfemp_shock=True)
    shocked = tuple(shocked_persons(pop, table, shock_start_month=spec.shock_start_month,
                                    scale=spec.shock_scale))
    return {source: aggregate_income_change(pop, shocked, source) * 100
            for source in ("wage", "self_employment")}
