"""The study evaluation against a reference pipeline and the oracles.

Scoring on households, the household base, shared shocks and the
per-spec memo must all reproduce, exactly, what one scenario at a time
gives with every ledger rebuilt by ledger_from_vectors and every score
taken from the definitions in tests/oracles.py.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (ACCEPT_SEED, SE_F, WAGE_F, acceptance_config,
                      build_micro_population, build_micro_table, cascade_results)
from oracles import (aggregate_change_by_scan, dec_round_half_up, equivalized,
                     gma_countable_by_definition, ledger_streams_by_definition,
                     poverty_rate_by_scan, relative_line_by_scan,
                     weighted_median_by_scan)

import povsim.cli as cli_mod
from povsim.cells import CellChangeTable, apply_shock, save_cell_table
from povsim.cli import main
from povsim.config import ScenarioSettings
from povsim.errors import CalibrationError, ConfigError
from povsim.metrics import (INDICATORS, EquivalenceScale, HouseholdFrame,
                            IndicatorStats, PovertyLines, PovertyReport,
                            RateResult, adult_education_group)
from povsim.population import (EducationLevel, Household, LaborStatus, Person,
                               Population, Sex)
from povsim.nace import DIVISIONS, SECTIONS
from povsim.rules import (HouseholdLedger, PolicyParameters, disposable_income,
                          ledger_from_vectors, person_net_market)
from povsim.scenario import (BASELINE_SPEC, HouseholdBase, HouseholdDemography,
                             PovertyConfig, ScenarioSpec, Study, household_base,
                             prepare_baseline, simulated_aggregate_changes)
from povsim.synth import calibrate_to_baseline, generate_synthetic

ROOT = Path(__file__).resolve().parents[1]

ALL_ON = ScenarioSpec(wage_shock=True, selfemp_shock=True,
                      gma_relaxation=True, one_offs=True)

# The group of a child by each dimension's definition, given the child,
# its household's number of children and adult education group.
CHILD_GROUPS = {
    "sex": lambda child, n, edu: child.sex.value,
    "child_age_band": lambda child, n, edu: (
        "age_0_5" if child.age <= 5 else
        "age_6_14" if child.age <= 14 else "age_15_17"),
    "three_plus_children": lambda child, n, edu: (
        "three_plus" if n >= 3 else "fewer_than_three"),
    "adult_education": lambda child, n, edu: edu or "undefined",
}


def equivalized_by_household(pop: Population, annual, pov: PovertyConfig):
    """household id -> oracles.equivalized of its annual income under the
    study's equivalence scale."""
    scale = pov.equivalence_scale
    return {hh.household_id: equivalized(
                annual[hh.household_id],
                [m.age for m in pop.members(hh.household_id)],
                scale.additional_adult_14plus, scale.child_under_14)
            for hh in pop.households}


def person_triples(pop: Population, eq, selected=lambda person: True):
    """(equivalized income, weight, selected) of every person."""
    return [(eq[hh.household_id], hh.weight_centi, selected(person))
            for hh in pop.households for person in pop.members(hh.household_id)]


def household_pairs(pop: Population, value):
    """(value of the household, weight x members) of every household: what
    the quadratic median scan reads, one pair per household."""
    return [(value[hh.household_id], hh.weight_centi * len(hh.member_ids))
            for hh in pop.households]


def rate_by_scan(triples, line: Fraction) -> RateResult:
    """poverty_rate_by_scan with the selected and poor weights it implies."""
    rate = poverty_rate_by_scan(triples, line)
    total = sum(w for _, w, selected in triples if selected)
    return RateResult(rate=rate, poor_centi=int((rate or 0) * total),
                      total_centi=total)


def oracle_report(pop: Population, annual, pov: PovertyConfig,
                  lines: PovertyLines | None = None) -> PovertyReport:
    """The report of one annual income per household by the definitions:
    the relative line (unless lines are given) from the median scan, each
    rate from a scan over person triples."""
    eq = equivalized_by_household(pop, annual, pov)
    if lines is None:
        lines = PovertyLines(relative=relative_line_by_scan(household_pairs(pop, eq)),
                             absolute_extreme=Fraction(pov.absolute_extreme),
                             absolute_upper=Fraction(pov.absolute_upper))
    everyone = person_triples(pop, eq)
    children = person_triples(pop, eq, lambda person: person.age < 18)
    return PovertyReport(
        lines=lines,
        indicators={name: IndicatorStats(
                        children=rate_by_scan(children, lines.line(name)),
                        all_persons=rate_by_scan(everyone, lines.line(name)))
                    for name in INDICATORS},
        n_persons=len(everyone), n_households=pop.n_households)


def random_population(rng: random.Random, n_households: int) -> Population:
    """Households of 1-6 members of any age, children-only ones included."""
    persons, households = [], []
    pid = 0
    for hid in range(1, n_households + 1):
        ids = []
        for _ in range(rng.randint(1, 6)):
            pid += 1
            age = rng.randint(0, 80) if rng.random() < 0.8 else rng.randint(0, 17)
            persons.append(Person(
                person_id=pid, household_id=hid, age=age,
                sex=rng.choice(list(Sex)),
                labor_status=(LaborStatus.CHILD if age < 18
                              else LaborStatus.INACTIVE),
                education_level=rng.choice(list(EducationLevel))))
            ids.append(pid)
        households.append(Household(household_id=hid, member_ids=tuple(ids),
                                    weight_centi=rng.randint(1, 50_000)))
    return Population(persons=tuple(persons), households=tuple(households))


def test_household_scoring_equals_oracles(params):
    """Median, rates, reports and group cells on households equal the
    oracles' scans, with zero incomes, tied incomes and incomes exactly on
    a line, under two equivalence scales."""
    rng = random.Random(20200401)
    scales = (EquivalenceScale(),
              EquivalenceScale(additional_adult_14plus=Fraction(7, 10),
                               child_under_14=Fraction(1, 2)))
    on_line = 0
    for i in range(60):
        pop = random_population(rng, rng.randint(1, 30))
        pov = PovertyConfig(equivalence_scale=scales[i % 2])
        base = household_base(pop, params, pov)
        incomes = [0 if rng.random() < 0.15 else
                   rng.choice((120_000, rng.randint(1, 1_500_000)))
                   for _ in pop.households]
        scores = base.frame.scores(incomes)
        annual = {hh.household_id: y for hh, y in zip(pop.households, incomes)}
        eq = equivalized_by_household(pop, annual, pov)

        assert scores.median_equivalized() == weighted_median_by_scan(
            household_pairs(pop, eq))
        assert scores.equivalized() == eq

        pivot = rng.choice(list(eq.values()))  # some household sits on it
        lines = PovertyLines(relative=relative_line_by_scan(household_pairs(pop, eq)),
                             absolute_extreme=min(pivot, Fraction(42000)),
                             absolute_upper=max(pivot, Fraction(42000)) + 1)
        assert scores.report(lines) == oracle_report(pop, annual, pov, lines)
        groups = {}
        for hh in pop.households:
            members = pop.members(hh.household_id)
            n = sum(1 for m in members if m.age < 18)
            edu = adult_education_group(members)
            for m in members:
                groups[m.person_id] = {dim: grouper(m, n, edu)
                                       for dim, grouper in CHILD_GROUPS.items()}
        for line in (lines.relative, pivot, Fraction(0), pivot + Fraction(1, 7)):
            on_line += line in eq.values()
            assert scores.rate(line, base.frame.sizes) == rate_by_scan(
                person_triples(pop, eq), line)
            assert scores.rate(line, base.frame.children) == rate_by_scan(
                person_triples(pop, eq, lambda p: p.age < 18), line)
            for (dim, group), counts in base.demography.group_counts.items():
                assert scores.rate(line, counts) == rate_by_scan(
                    person_triples(pop, eq, lambda p: p.age < 18
                                   and groups[p.person_id][dim] == group),
                    line), (i, dim, group)
    assert on_line >= 60


def shocked_by_oracle(pop: Population, table: CellChangeTable | None,
                      spec: ScenarioSpec) -> Population:
    """The population spec's income shock makes, by apply_shock."""
    if not spec.any_shock:
        return pop
    return apply_shock(pop, table.neutralize(wage=not spec.wage_shock,
                                             selfemp=not spec.selfemp_shock),
                       shock_start_month=spec.shock_start_month,
                       scale=spec.shock_scale)


def reference_run(pop: Population, table: CellChangeTable | None,
                  spec: ScenarioSpec, params: PolicyParameters,
                  pov: PovertyConfig):
    """One scenario with every ledger rebuilt by ledger_from_vectors (the
    unshocked one as baseline) and scored by the oracles: the pipeline
    without the household base, the shared shocks or household scoring."""

    def net(members):
        return [person_net_market(m, params) for m in members]

    def fiscal_of(current: Population, switches: ScenarioSpec):
        fiscal = {}
        for hh in current.households:
            before = pop.members(hh.household_id)
            ledger = ledger_from_vectors(hh, before, net(before), params)
            if current is not pop:
                after = current.members(hh.household_id)
                ledger = ledger_from_vectors(hh, after, net(after), params,
                                             baseline=ledger)
            fiscal[hh.household_id] = disposable_income(
                ledger, params, relaxed=switches.gma_relaxation,
                one_offs=switches.one_offs)
        return fiscal

    def annual(fiscal):
        return {hid: res.annual_disposable for hid, res in fiscal.items()}

    shocked = shocked_by_oracle(pop, table, spec)
    fiscal = fiscal_of(shocked, spec)
    return fiscal, oracle_report(shocked, annual(fiscal), pov)


def _micro():
    return build_micro_population(), build_micro_table()


def _synth800():
    return (generate_synthetic(acceptance_config(800), ACCEPT_SEED),
            CellChangeTable.from_factors(WAGE_F, SE_F))


@pytest.mark.parametrize("transfers_on_shocked", [False, True])
@pytest.mark.parametrize("make", [_micro, _synth800], ids=["micro", "synth800"])
def test_study_results_equal_fresh_runs(make, transfers_on_shocked, params, pov):
    """Every decomposition column, band point and disaggregation scenario
    of one study equal a fresh study's run of that spec alone and the
    reference pipeline, on an identical, separately built population."""
    pop, table = make()
    study = Study(pop, table, params, pov)
    deco = study.decompose(transfers_on_shocked=transfers_on_shocked)
    band = study.uncertainty_band()
    dis = study.disaggregate(ALL_ON)
    results = ([r for _, r in deco.columns] + [p.result for p in band.points]
               + [dis.scenario])
    assert len({r.spec for r in results}) == 8  # band 1.0 and groups share

    fresh_pop, _ = make()
    for result in {r.spec: r for r in results}.values():
        fresh_study = Study(fresh_pop, table, params, pov)
        fresh = fresh_study.result(result.spec)
        got = cascade_results(study, result)
        assert result.report == fresh.report, result.spec
        assert got == cascade_results(fresh_study, fresh), result.spec
        fiscal, report = reference_run(fresh_pop, table, result.spec, params, pov)
        assert result.report == report, result.spec
        assert got == fiscal, result.spec


def _policy_leaves(obj=PolicyParameters(), path=()):
    """Dotted paths of every scalar field of PolicyParameters."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _policy_leaves(value, path + (f.name,))
        else:
            yield ".".join(path + (f.name,))


def _perturbed(obj, path: list[str]):
    """obj with the field at path moved away from its value: a bool
    flipped, a number set to 0, or halved where 0 is not a valid value."""
    head, *rest = path
    value = getattr(obj, head)
    if rest:
        return dataclasses.replace(obj, **{head: _perturbed(value, rest)})
    if isinstance(value, bool):
        return dataclasses.replace(obj, **{head: not value})
    assert value != 0, path
    try:
        return dataclasses.replace(obj, **{head: 0})
    except ConfigError:
        return dataclasses.replace(obj, **{head: value / 2})


def _fiscal_by_column(pop, table, params, pov):
    study = Study(pop, table, params, pov)
    return {name: cascade_results(study, result)
            for name, result in study.decompose().columns}


@pytest.fixture(scope="module")
def synth800_fiscal(params, pov):
    pop, table = _synth800()
    return pop, table, _fiscal_by_column(pop, table, params, pov)


@pytest.mark.parametrize("leaf", list(_policy_leaves()))
def test_every_policy_parameter_changes_some_result(leaf, synth800_fiscal, pov):
    """Moving any policy parameter off its default changes at least one
    household's result in a decomposition column, which simulate writes
    to table2: no parameter is dead."""
    pop, table, default = synth800_fiscal
    params = _perturbed(PolicyParameters(), leaf.split("."))
    changed = _fiscal_by_column(pop, table, params, pov)
    assert any(changed[name][hid] != fiscal[hid]
               for name, fiscal in default.items() for hid in fiscal), leaf


@pytest.mark.parametrize("transfers_on_shocked", [False, True])
def test_default_settings_run_eight_distinct_passes(transfers_on_shocked,
                                                    monkeypatch, params, pov):
    """Decomposition, band and group breakdown at default settings share
    one study: 8 distinct specs run once each, 5 distinct shocks."""
    shocks = []
    shocked_ledgers = HouseholdBase.shocked_ledgers

    def counting_shocked_ledgers(self, *args):
        shocks.append(args)
        return shocked_ledgers(self, *args)

    monkeypatch.setattr(HouseholdBase, "shocked_ledgers", counting_shocked_ledgers)
    settings = ScenarioSettings(transfers_on_shocked=transfers_on_shocked)
    pop, table = _micro()
    study = Study(pop, table, params, pov)
    study.decompose(base_spec=settings.base_spec(), factors=settings.factors,
                    transfers_on_shocked=settings.transfers_on_shocked)
    study.uncertainty_band(scales=settings.band_scales,
                           base_spec=settings.base_spec())
    study.disaggregate(settings.scenario_spec(), dimensions=settings.dimensions)
    assert study.runs == 8
    assert len(shocks) == 5


def test_simulate_command_runs_eight_distinct_passes(tmp_path, monkeypatch):
    """The simulate command evaluates its default study in 8 passes."""
    studies = []

    class RecordingStudy(Study):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            studies.append(self)

    monkeypatch.setattr(cli_mod, "Study", RecordingStudy)
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"seed": 5, "synth": {"n_households": 60}}),
                   encoding="utf-8")
    cells = tmp_path / "cells.csv"
    save_cell_table(build_micro_table(), str(cells))
    assert main(["simulate", "--config", str(cfg), "--cells", str(cells),
                 "--out", str(tmp_path / "sim")]) == 0
    assert [s.runs for s in studies] == [8]


@pytest.mark.parametrize("tolerance", [0.5, 0.01], ids=["within", "bisection"])
def test_calibrated_population_is_scored_once(tolerance, monkeypatch, params,
                                              pov):
    """prepare_baseline on a calibrated population returns the evaluation
    calibration accepted, also when the input was already within tolerance."""
    evaluated = []
    evaluate = HouseholdBase.evaluate

    def counting_evaluate(self, ledgers, spec):
        evaluated.append(spec)
        return evaluate(self, ledgers, spec)

    monkeypatch.setattr(HouseholdBase, "evaluate", counting_evaluate)
    raw = generate_synthetic(acceptance_config(300), ACCEPT_SEED)
    calibrated = calibrate_to_baseline(raw, 0.278, params, pov,
                                       tolerance=tolerance)
    assert (calibrated is raw) == (tolerance == 0.5)
    n_calibration = len(evaluated)
    assert (n_calibration > 1) == (tolerance == 0.01)
    result = prepare_baseline(calibrated, params, pov)
    assert len(evaluated) == n_calibration
    assert abs(float(result.report.child_rate("relative")) - 0.278) <= tolerance


def test_bisection_materializes_one_population(monkeypatch, params, pov):
    """A bisection scores its candidates on the input's demography and
    builds the demographic part once and one Population, the accepted
    candidate, whose household base equals a fresh one."""
    built = Counter()

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            built[f"{cls.__name__}.{name}"] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    raw = generate_synthetic(acceptance_config(300), ACCEPT_SEED)
    for cls, name in ((Population, "__post_init__"),
                      (Population, "_with_persons"),
                      (HouseholdDemography, "__init__"),
                      (HouseholdBase, "__init__"), (HouseholdBase, "evaluate")):
        counting(cls, name)
    calibrated = calibrate_to_baseline(raw, 0.278, params, pov, tolerance=0.01)
    evaluations = built.pop("HouseholdBase.evaluate")
    assert evaluations > 2
    assert built == {"Population._with_persons": 1,
                     "HouseholdDemography.__init__": 1,
                     "HouseholdBase.__init__": 1}

    monkeypatch.undo()
    fresh = Population(persons=calibrated.persons, households=raw.households)
    base, fresh_base = (household_base(p, params, pov) for p in (calibrated, fresh))
    assert base.ledgers == fresh_base.ledgers
    assert base.net_vectors == fresh_base.net_vectors
    assert base.demography.group_counts == fresh_base.demography.group_counts
    result = prepare_baseline(fresh, params, pov)
    report, scores = base.baseline
    assert report == result.report
    assert scores.keys == result.scores.keys
    study = Study(calibrated, None, params, pov)
    assert cascade_results(study, study.result(BASELINE_SPEC)) == cascade_results(
        Study(fresh, None, params, pov), result)


def random_income_population(rng: random.Random,
                             n_households: int) -> Population:
    """Households of 1-6 members with every income source: formal and
    informal wages, self-employment, pensions, rent and transfers, flat or
    varying by month, spread over four orders of magnitude. About one
    household in six has no income at all, and half of those fail the GMA
    asset test, so their equivalized income is zero."""

    def vector() -> tuple[int, ...]:
        amount = int(10 ** rng.uniform(2, 5.5))
        if rng.random() < 0.5:
            return (amount,) * 12
        return tuple(rng.randint(amount // 2, amount) for _ in range(12))

    def extra(share: float) -> tuple[int, ...]:
        return vector() if rng.random() < share else (0,) * 12

    persons, households = [], []
    pid = 0
    for hid in range(1, n_households + 1):
        penniless = rng.random() < 1 / 6
        ids = []
        for _ in range(rng.randint(1, 6)):
            pid += 1
            age = rng.randint(0, 17) if rng.random() < 0.3 else rng.randint(18, 80)
            status = (rng.choice((LaborStatus.CHILD, LaborStatus.STUDENT))
                      if age < 18 else rng.choice([s for s in LaborStatus
                                                   if s is not LaborStatus.CHILD]))
            worker = status in (LaborStatus.EMPLOYEE, LaborStatus.SELF_EMPLOYED)
            if penniless and (worker or status is LaborStatus.PENSIONER):
                status = LaborStatus.INACTIVE
                worker = False
            adult_income = not penniless and age >= 18
            persons.append(Person(
                person_id=pid, household_id=hid, age=age,
                sex=rng.choice(list(Sex)), labor_status=status,
                education_level=rng.choice(list(EducationLevel)),
                nace2=rng.choice(DIVISIONS) if worker else None,
                informal_wage_flag=(status is LaborStatus.EMPLOYEE
                                    and rng.random() < 0.3),
                in_public_education=status is LaborStatus.STUDENT,
                wage=vector() if status is LaborStatus.EMPLOYEE else (0,) * 12,
                self_employment=(vector() if status is LaborStatus.SELF_EMPLOYED
                                 else (0,) * 12),
                pension=vector() if status is LaborStatus.PENSIONER else (0,) * 12,
                capital_rent=extra(0.2 * adult_income),
                interhousehold_transfers=extra(0.2 * adult_income)))
            ids.append(pid)
        households.append(Household(
            household_id=hid, member_ids=tuple(ids),
            weight_centi=rng.randint(1, 50_000),
            owns_other_real_estate=penniless and rng.random() < 0.5,
            car_age_years=rng.choice((None, 2, 9))))
    return Population(persons=tuple(persons), households=tuple(households))


@pytest.mark.parametrize("seed", range(3))
def test_calibration_candidates_score_as_materialized(seed, monkeypatch, params,
                                                     pov):
    """Every candidate of a bisection, scored from its scaled income
    vectors, gets the report, annual totals and cascade results
    prepare_baseline gives on that candidate built as a validated
    Population; factors clamped at 0.05 and 20 and households left at
    factor 1 among them."""
    pop = random_income_population(random.Random(seed), 150)
    candidates = []
    rescaled = HouseholdBase.rescaled

    def recording(self, members):
        candidate = rescaled(self, members)
        candidates.append((members, candidate))
        return candidate

    monkeypatch.setattr(HouseholdBase, "rescaled", recording)
    base_result = prepare_baseline(pop, params, pov)
    assert 0 in base_result.scores.keys
    assert any(p.informal_wage_flag and any(p.wage) for p in pop.persons)
    with pytest.raises(CalibrationError):
        calibrate_to_baseline(pop, 0.5, params, pov, tolerance=1e-12,
                              max_evaluations=6)
    assert len(candidates) == 6

    # each candidate's members, from the spread transform's definition
    median = base_result.scores.median_equivalized()
    ratios = [float(eq / median) for eq in base_result.scores.equivalized().values()]
    lo, hi = 0.3, 3.0
    factors = set()
    for members, candidate in candidates:
        gamma = 0.5 * (lo + hi)
        factor = {hh.household_id: Fraction(1) if r <= 0 else Fraction(
                      str(round(min(20.0, max(0.05, r ** (gamma - 1.0))), 9)))
                  for hh, r in zip(pop.households, ratios)}
        factors.update(factor.values())
        assert len(members) == pop.n_households
        for hh, new, ledger in zip(pop.households, members, candidate.ledgers):
            old = pop.members(hh.household_id)
            assert ledger.members == (new or old)
            f = factor[hh.household_id]
            for p, q in zip(old, new or old, strict=True):
                assert q[:10] == p[:10]
                assert q.incomes == tuple(
                    tuple(dec_round_half_up(v * f) for v in vec) if any(vec) else vec
                    for vec in p.incomes)

        built = Population(persons=tuple(m for ledger in candidate.ledgers
                                         for m in ledger.members),
                           households=pop.households)
        result = prepare_baseline(built, params, pov)
        report, scores = candidate.baseline
        rate = report.child_rate("relative")
        assert rate == result.report.child_rate("relative")
        assert report == result.report
        assert scores.keys == result.scores.keys
        assert {ledger.household.household_id: disposable_income(ledger, params)
                for ledger in candidate.ledgers} == cascade_results(
                    Study(built, None, params, pov), result)
        if float(rate) < 0.5:
            lo = gamma
        else:
            hi = gamma
    assert {Fraction(1), Fraction(1, 20), Fraction(20)} <= factors


@pytest.mark.parametrize("seed", range(3))
def test_shocked_ledgers_equal_full_rebuild(seed, monkeypatch, params, pov):
    """For every shock a study makes, at start months 1, 3 and 12 and at a
    scale that floors some effective factors at 0, over formal and informal
    employees and the self-employed, each shocked ledger equals, field by
    field, ledger_from_vectors over the members apply_shock gives, with the
    unshocked ledger as baseline; a household apply_shock left alone keeps
    the base's ledger object."""
    rng = random.Random(100 + seed)
    pop = random_income_population(rng, 150)
    table = CellChangeTable.from_factors(
        {d: Fraction(rng.randint(30, 160), 100) for d in rng.sample(DIVISIONS, 50)},
        {s: Fraction(rng.randint(30, 160), 100) for s in SECTIONS})
    shocks = []
    shocked_ledgers = HouseholdBase.shocked_ledgers

    def recording(self, *args):
        shocks.append((args, shocked_ledgers(self, *args)))
        return shocks[-1][1]

    monkeypatch.setattr(HouseholdBase, "shocked_ledgers", recording)
    study = Study(pop, table, params, pov)
    for start in (1, 3, 12):
        base_spec = ScenarioSpec(shock_start_month=start)
        study.decompose(base_spec=base_spec, transfers_on_shocked=True)
        study.uncertainty_band(scales=(Fraction(1, 2), 1, 4), base_spec=base_spec)
    assert len(shocks) == 15

    def net(members):
        return [person_net_market(m, params) for m in members]

    rebuilt, seen = 0, Counter()
    for (effective, start, scale), ledgers in shocks:
        shocked = apply_shock(pop, effective, shock_start_month=start, scale=scale)
        for base, ledger in zip(study.base.ledgers, ledgers, strict=True):
            hh = base.household
            members = shocked.members(hh.household_id)
            baseline = ledger_from_vectors(hh, base.members, net(base.members),
                                           params)
            full = ledger_from_vectors(hh, members, net(members), params,
                                       baseline=baseline)
            for f in HouseholdLedger._fields:
                assert getattr(ledger, f) == getattr(full, f), \
                    (start, scale, hh.household_id, f)
            touched = [(a, b) for a, b in zip(base.members, members) if a is not b]
            assert (ledger is base) == (not touched), (start, scale, hh.household_id)
            rebuilt += ledger is not base
            for a, b in touched:
                seen["informal"] += a.informal_wage_flag
                seen["self_employed"] += a.labor_status is LaborStatus.SELF_EMPLOYED
                moved = slice(start - 1, None)
                seen["floored"] += (any(a.wage[moved] + a.self_employment[moved])
                                    and not any(b.wage[moved] + b.self_employment[moved]))
    assert rebuilt > 300
    assert min(seen.values()) > 20, seen


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("maker", ["synthetic", "random"])
def test_ledger_streams_equal_their_definition(seed, maker, params, pov):
    """Every stream of every base ledger, and of every ledger of shocks at
    scales 0, 1/2 and 3/2, equals its month-by-month sum over the members
    (oracles.ledger_streams_by_definition), however the engine shares the
    streams' values. Some factors floor at 0 at scale 3/2, so shocked
    members have all-zero vectors that are not money.ZERO_YEAR. At scale 0
    every effective factor is 1, so every household keeps its base ledger."""
    rng = random.Random(1600 + seed)
    pop = (generate_synthetic(acceptance_config(60), 1600 + seed) if maker == "synthetic"
           else random_income_population(rng, 60))
    table = CellChangeTable.from_factors(
        {d: Fraction(rng.randint(20, 160), 100) for d in rng.sample(DIVISIONS, 60)},
        {s: Fraction(rng.randint(20, 160), 100) for s in SECTIONS})
    base = household_base(pop, params, pov)
    for ledger in base.ledgers:
        want = ledger_streams_by_definition(ledger.members, params)
        want.update(base_core_countable=want["core_countable"], base_rent=want["rent"])
        for name, months in want.items():
            assert list(getattr(ledger, name)) == months, (ledger.household, name)
    zeroed = 0
    for start in (1, 7):
        for scale in (0, Fraction(1, 2), Fraction(3, 2)):
            shocked = apply_shock(pop, table, shock_start_month=start, scale=scale)
            ledgers = base.shocked_ledgers(table, start, scale)
            for own, ledger in zip(base.ledgers, ledgers, strict=True):
                members = shocked.members(own.household.household_id)
                assert ledger.members == members
                if ledger is own:  # its streams were checked above
                    continue
                want = ledger_streams_by_definition(members, params)
                want.update(base_core_countable=own.core_countable, base_rent=own.rent)
                for name, months in want.items():
                    assert list(getattr(ledger, name)) == list(months), \
                        (start, scale, own.household, name)
                zeroed += sum(any(a.incomes[k]) and not any(b.incomes[k])
                              for a, b in zip(own.members, members) for k in (0, 1))
            if scale == 0:
                assert all(a is b for a, b in zip(ledgers, base.ledgers))
    assert zeroed > 0


@pytest.mark.parametrize("seed", range(3))
def test_simulated_aggregate_changes_match_scan(seed):
    """validate's aggregate changes, summed over the shocked persons
    without a shocked Population, equal the weighted scan of what
    apply_shock gives, at several start months and at scales that floor
    some effective factors at 0."""
    rng = random.Random(700 + seed)
    pop = random_income_population(rng, 150)
    table = CellChangeTable.from_factors(
        {d: Fraction(rng.randint(30, 160), 100) for d in rng.sample(DIVISIONS, 50)},
        {s: Fraction(rng.randint(30, 160), 100) for s in SECTIONS})
    for start in (1, 3, 12):
        for scale in (Fraction(1, 2), Fraction(1), Fraction(4)):
            spec = ScenarioSpec(shock_start_month=start, shock_scale=scale)
            got = simulated_aggregate_changes(pop, table, spec)
            shocked = apply_shock(pop, table, shock_start_month=start, scale=scale)
            assert got == {source: aggregate_change_by_scan(pop, shocked, source) * 100
                           for source in ("wage", "self_employment")}, (start, scale)


@pytest.mark.parametrize("seed", range(3))
def test_shocks_that_only_cut_raise_no_income(seed, params, pov):
    """With every cell factor at most 1, a shock at any scale and start
    month raises no person's income in any month, and the absolute-line
    child poverty rates before transfers (household net market plus
    carried income) do not fall. The benefit cascade is not monotone, so
    nothing is claimed after transfers."""
    rng = random.Random(400 + seed)
    pop = random_income_population(rng, 150)
    table = CellChangeTable.from_factors(
        {d: Fraction(rng.randint(1, 100), 100) for d in rng.sample(DIVISIONS, 60)},
        {s: Fraction(rng.randint(1, 100), 100) for s in rng.sample(SECTIONS, 15)})
    study = Study(pop, table, params, pov)
    frame = HouseholdFrame.of(pop, pov.equivalence_scale)
    lines = (Fraction(pov.absolute_extreme), Fraction(pov.absolute_upper))

    def pre_transfer_child_rates(result):
        scores = frame.scores([sum(res.net_market) + sum(res.carried)
                               for res in cascade_results(study, result).values()])
        return [scores.rate(line, frame.children).rate for line in lines]

    before = pre_transfer_child_rates(study.result(BASELINE_SPEC))
    cut = rose = 0
    # 1/1000: cuts under half an MKD, where only the rounding acts
    for scale in (Fraction(1, 1000), Fraction(1, 4), 1, Fraction(3, 2), 4):
        for wage, selfemp in ((True, False), (False, True), (True, True)):
            spec = ScenarioSpec(wage_shock=wage, selfemp_shock=selfemp,
                                shock_scale=scale,
                                shock_start_month=rng.randint(1, 12))
            shocked = shocked_by_oracle(pop, table, spec)
            for p, q in zip(pop.persons, shocked.persons, strict=True):
                assert p.person_id == q.person_id
                for old, new in zip(p.incomes, q.incomes):
                    assert all(n <= o for o, n in zip(old, new)), (spec, p.person_id)
                cut += q.incomes != p.incomes
            after = pre_transfer_child_rates(study.result(spec))
            assert all(a >= b for a, b in zip(after, before)), spec
            rose += after != before
    assert cut > 100 and rose > 0


def _default_study(pop, table, params, pov, transfers_on_shocked=False):
    """simulate's study at default settings: the study and every distinct
    result it made."""
    settings = ScenarioSettings(transfers_on_shocked=transfers_on_shocked)
    study = Study(pop, table, params, pov)
    deco = study.decompose(base_spec=settings.base_spec(), factors=settings.factors,
                           transfers_on_shocked=settings.transfers_on_shocked)
    band = study.uncertainty_band(scales=settings.band_scales,
                                  base_spec=settings.base_spec())
    dis = study.disaggregate(settings.scenario_spec(), dimensions=settings.dimensions)
    results = ([r for _, r in deco.columns] + [p.result for p in band.points]
               + [dis.scenario])
    return study, list({r.spec: r for r in results}.values())


def _assert_fresh_cascade(study, results):
    """Each household's annual total in each pass, whether the memo served
    it or not, equals that of disposable_income run afresh on the ledger
    that pass evaluated (cascade_results checks it)."""
    for result in results:
        cascade_results(study, result)


@pytest.mark.parametrize("transfers_on_shocked", [False, True])
def test_memoized_cascade_equals_fresh_runs(transfers_on_shocked, params, pov):
    """Every household's annual total in every pass of a study equals a
    fresh cascade's on its ledger, though most untouched households reuse
    an earlier pass's total."""
    pop, table = _synth800()
    study, results = _default_study(pop, table, params, pov, transfers_on_shocked)
    _assert_fresh_cascade(study, results)
    assert study.base.memo_hits > 0


def test_cascade_counters_cover_every_pass(params, pov):
    """A study's passes each run the cascade or reuse a result for every
    household; untouched households hit the memo."""
    pop, table = _synth800()
    study, _ = _default_study(pop, table, params, pov)
    base, n = study.base, pop.n_households
    assert study.runs == 8
    assert base.cascade_runs + base.memo_hits == study.runs * n
    assert base.memo_hits > 0


def test_calibrated_base_keeps_its_memo(params, pov):
    """A calibrated population's base is the accepted candidate, memo
    included: its first wage-only pass reuses the baseline run's total for
    every household the shock leaves alone, it never reuses a total of its
    source's memo, and its study still matches a fresh cascade
    everywhere."""
    pop = random_income_population(random.Random(1), 300)
    n = pop.n_households
    rate = prepare_baseline(pop, params, pov).report.child_rate("relative")
    calibrated = calibrate_to_baseline(pop, rate - Fraction(1, 20),
                                       params, pov, tolerance=0.01)
    source = household_base(pop, params, pov)
    base = household_base(calibrated, params, pov)
    assert base is not source
    # the source's one pass, its baseline run, filled its memo
    assert (source.cascade_runs, source.memo_hits) == (n, 0)
    assert sum(all(a is b for a, b in zip(calibrated.members(hh.household_id),
                                          pop.members(hh.household_id)))
               for hh in pop.households) > 50
    assert [ledger.members for ledger in base.ledgers] == [
        calibrated.members(hh.household_id) for hh in calibrated.households]
    # one cascade per household: the accepted candidate's baseline run
    assert (base.cascade_runs, base.memo_hits) == (n, 0)

    table = CellChangeTable.from_factors(WAGE_F, SE_F)
    # the wage-only pass has the baseline's switches: every household whose
    # shocked ledger is the base's own ledger is served from the memo
    study, wage_only = Study(calibrated, table, params, pov), ScenarioSpec(wage_shock=True)
    study.result(wage_only)
    untouched = sum(a is b for a, b in zip(study._ledgers_of(wage_only), base.ledgers))
    assert base.memo_hits > 0
    assert (base.cascade_runs, base.memo_hits) == (2 * n - untouched, untouched)
    study, results = _default_study(calibrated, table, params, pov)
    assert base.memo_hits > 0
    assert base.cascade_runs + base.memo_hits == (2 + study.runs) * n
    # no pass over the calibrated population consulted the source's memo
    assert (source.cascade_runs, source.memo_hits) == (n, 0)
    _assert_fresh_cascade(study, results)


def test_calibrated_base_holds_no_source_person(params, pov):
    """The accepted candidate's demography lists the calibrated
    population's members, not its source's, and keeps the group counts and
    shock sites cached on the source's demography."""
    raw = generate_synthetic(acceptance_config(300), ACCEPT_SEED)
    source = household_base(raw, params, pov)
    counts, sites = source.demography.group_counts, source.demography.shock_sites
    calibrated = calibrate_to_baseline(raw, 0.278, params, pov, tolerance=0.01)
    assert calibrated is not raw
    demography = household_base(calibrated, params, pov).demography
    assert demography is not source.demography
    for members, hh in zip(demography.members, calibrated.households, strict=True):
        assert members is calibrated.members(hh.household_id)
    assert demography.group_counts is counts
    assert demography.shock_sites is sites
    assert demography.fields is source.demography.fields
    # the source's own demography still lists the source's members
    assert all(members is raw.members(hh.household_id) for members, hh in
               zip(source.demography.members, raw.households, strict=True))


def _asset_test_fails(hh: Household, relaxed: bool) -> bool:
    """The GMA asset test by its definition: other real estate always
    fails; pre-crisis any car or land fails, relaxed a car under five years
    or land of 500 m2 or more."""
    car, land = hh.car_age_years, hh.land_parcel_m2
    if relaxed:
        return (hh.owns_other_real_estate or (car is not None and car < 5)
                or (land is not None and land >= 500))
    return hh.owns_other_real_estate or car is not None or land is not None


@pytest.mark.parametrize("transfers_on_shocked", [False, True])
@pytest.mark.parametrize("seed", range(2))
def test_cascade_accounting_in_every_pass(seed, transfers_on_shocked, params, pov):
    """In every pass of a study over a random population, each household's disposable income in each month is its
    members' net market income plus their carried income (pensions,
    transfers, rent) plus each award; no GMA award exceeds the gap from
    the means test's countable income up to ledger.threshold, rounded to
    whole MKD; and a household failing the asset test gets no GMA, no
    energy supplement and no assisted allowance in any month."""
    rng = random.Random(300 + seed)
    pop = random_income_population(rng, 150)
    table = CellChangeTable.from_factors(
        {d: Fraction(rng.randint(30, 160), 100) for d in rng.sample(DIVISIONS, 50)},
        {s: Fraction(rng.randint(30, 160), 100) for s in SECTIONS})
    study, results = _default_study(pop, table, params, pov, transfers_on_shocked)
    seen = Counter()
    for result in results:
        relaxed = result.spec.gma_relaxation
        shocked = shocked_by_oracle(pop, table, result.spec)
        cascade = cascade_results(study, result)
        for ledger in study._ledgers_of(result.spec):
            hh = ledger.household
            members = shocked.members(hh.household_id)
            fiscal = cascade[hh.household_id]
            nets = [person_net_market(m, params) for m in members]
            awards = (fiscal.gma, fiscal.energy, fiscal.allowances,
                      fiscal.oneoff_may, fiscal.oneoff_dec)
            assert fiscal.monthly_disposable() == tuple(
                sum(net[m] for net in nets)
                + sum(p.pension[m] + p.interhousehold_transfers[m]
                      + p.capital_rent[m] for p in members)
                + sum(award[m] for award in awards)
                for m in range(12)), (result.spec, hh.household_id)

            countable = gma_countable_by_definition(
                ledger.core_countable, ledger.base_core_countable,
                ledger.rent, ledger.base_rent, relaxed)
            for gma, income in zip(fiscal.gma, countable):
                gap = ledger.threshold - income
                assert gma <= (dec_round_half_up(gap) if gap > 0 else 0), \
                    (result.spec, hh.household_id)
                seen["gma_months"] += gma > 0

            if _asset_test_fails(hh, relaxed):
                unassisted = (params.child_allowance_amount * ledger.n_children
                              if params.universal_child_allowance else 0)
                assert not any(fiscal.gma) and not any(fiscal.energy)
                assert fiscal.allowances == (unassisted,) * 12
                seen["asset_failures"] += 1
    assert min(seen.values()) > 20, seen


# SHA-256 of every file (but manifest.json) the 300-household demo chain
# wrote before scenarios shared a household base and were scored on
# households (the shocked copies: before the one-pass CSV codec); seed
# 20200401.
GOLDEN_300 = {
    "pop/households.csv": "d566377e0b6e12131b7e435a683415fef7bff7b06c3926c86054964b2a1a4f6f",
    "pop/persons.csv": "fcb98f2e0424514f260c3c6593bca6ec3e53369768959e1fadca554174a4ef94",
    "cells/cells.csv": "af03e8879e17e6c5bffa0f95f814898c333a9fa5ee347578c510f6b43cfd0e2a",
    "sim/band.csv": "9822f798a9233e71cbf6b49da90fdab2a2abc7916944041b9b8f7aab7d44fed1",
    "sim/band.json": "95d15151c38e05bd4696fbeb86420311553ac3839b7e0c4b5f98dbf136e04218",
    "sim/band.svg": "b06c2a47b289c045d9232365bb86bd319a1a341d56013288f8c719ddbf305f73",
    "sim/groups.csv": "a24126ab8f775567962d9f510fe3ba0bc2797fd55dba3545e2a5a3f85713cad2",
    "sim/groups.json": "ed523870fa3095610d40d01452a998d23320d547ba9bb6228cd7b6f88110848d",
    "sim/groups_adult_education.svg": "4804bcdd206df5f3d246b92c3c0a19d98ee23f1b7aea3f046faa59996f262497",
    "sim/groups_child_age_band.svg": "9d74f60c97c2d7a291af3e154669a0a0aaf33ae56771b3a531e894967a2db3ec",
    "sim/groups_sex.svg": "6f41ddeb8b3f07ac7bd02da02fdcf4dd1ea78cbf44787697ed51728cbfaacf84",
    "sim/groups_three_plus_children.svg": "e5a3345dc9ce05122a8c860d5fa8b2fb976a4b653f65055d795d7c7bee85d028",
    "sim/table2.csv": "a1c54a06f68412ddc64bc07d9ad5209058388d2d17bd3b573383ad1ebe8a5d60",
    "sim/table2.json": "bc4c0673ea8c7670872cb475de4f4c3f61491352832379df6c91c69c6e61fd98",
    "val/table1.csv": "d5fc7aa4ccdde5abfbc198116ca131b70ecc0c2315ac00c37e0654968e73d886",
    "val/table1.json": "50717ca99a46385988918fba5f23a5d47f064ddecca2f4d4a8fee1f4c1845d09",
    "shk/households.csv": "d566377e0b6e12131b7e435a683415fef7bff7b06c3926c86054964b2a1a4f6f",
    "shk/persons.csv": "479d3ab8c0f709cf5f9e293743320b90c31200d91f9ea2e42180e3887b0af01f",
    "shk/shock_summary.json": "064e0316fb7ca207a312a49bf1add27948dfb4f6ec371070a8ec71f541f67bef",
    "shk08/households.csv": "d566377e0b6e12131b7e435a683415fef7bff7b06c3926c86054964b2a1a4f6f",
    "shk08/persons.csv": "9e41ff56cc8cf59b844c18d6f70ba14f2b7ddb48b4a5b0d69541a4cf8991a7e2",
    "shk08/shock_summary.json": "2ccb6604d6ebf85eaf2e4532d489fc9b1c387d1bb4d3d84f94a70adb6617487d",
}


def _demo300_config(tmp_path: Path) -> Path:
    """The demo recipe at 300 households."""
    demo = json.loads((ROOT / "configs" / "demo.json").read_text(encoding="utf-8"))
    demo["synth"]["n_households"] = 300
    cfg = tmp_path / "demo300.json"
    cfg.write_text(json.dumps(demo), encoding="utf-8")
    return cfg


def test_demo_chain_matches_golden_digests(tmp_path, capsys, monkeypatch):
    """generate (calibrated) -> calibrate -> simulate -> validate, and
    shocks at two scales and start months, on the demo recipe at 300
    households write the golden bytes. simulate and validate apply their
    shocks to the household base: they build no shocked population with
    apply_shock, which only shocks, writing it, calls."""
    applied = []

    def recording_apply_shock(*args, **kwargs):
        applied.append(kwargs)
        return apply_shock(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "povsim" and hasattr(module, "apply_shock"):
            monkeypatch.setattr(module, "apply_shock", recording_apply_shock)

    def run(*argv):
        """main's exit code and the apply_shock calls the command made."""
        before = len(applied)
        return main(list(argv)), len(applied) - before

    cfg = _demo300_config(tmp_path)
    lfs = ROOT / "configs"
    pop = ["--persons", str(tmp_path / "pop" / "persons.csv"),
           "--households", str(tmp_path / "pop" / "households.csv")]
    cells = ["--cells", str(tmp_path / "cells" / "cells.csv")]
    assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "pop")) == (0, 0)
    assert "baseline relative child poverty: 27.4183%" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "pop" / "manifest.json").read_text())
    assert manifest["extra"]["baseline_child_rate_pct"] == "27.4183"
    assert run("calibrate", "--base", str(lfs / "lfs_2019.csv"),
               "--shocked", str(lfs / "lfs_2020q23.csv"),
               "--base-period", "2019", "--shocked-period", "2020q23",
               "--out", str(tmp_path / "cells")) == (0, 0)
    assert run("simulate", "--config", str(cfg), *pop, *cells,
               "--out", str(tmp_path / "sim")) == (0, 0)
    # one source misses its tolerance at this size: a result, exit 1
    assert run("validate", "--config", str(cfg), *pop, *cells,
               "--out", str(tmp_path / "val")) == (1, 0)
    assert run("shocks", *pop, *cells, "--out", str(tmp_path / "shk")) == (0, 1)
    assert run("shocks", *pop, *cells, "--scale", "0.8", "--start-month", "5",
               "--out", str(tmp_path / "shk08")) == (0, 1)
    digests = {f"{d}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
               for d in ("pop", "cells", "sim", "val", "shk", "shk08")
               for f in sorted((tmp_path / d).iterdir())
               if f.name != "manifest.json"}
    assert digests == GOLDEN_300


def test_outputs_do_not_depend_on_row_order(tmp_path):
    """simulate, shocks and validate write the same bytes for a
    300-household population whose persons.csv and households.csv data
    rows were shuffled; only the manifests' input paths and hashes differ."""
    cfg = _demo300_config(tmp_path)
    lfs = ROOT / "configs"
    assert main(["generate", "--config", str(cfg),
                 "--out", str(tmp_path / "pop")]) == 0
    assert main(["calibrate", "--base", str(lfs / "lfs_2019.csv"),
                 "--shocked", str(lfs / "lfs_2020q23.csv"),
                 "--base-period", "2019", "--shocked-period", "2020q23",
                 "--out", str(tmp_path / "cells")]) == 0
    rng = random.Random(20200401)
    (tmp_path / "shuffled").mkdir()
    for name in ("persons.csv", "households.csv"):
        header, *rows = (tmp_path / "pop" / name).read_text(
            encoding="utf-8").splitlines()
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert shuffled != rows
        (tmp_path / "shuffled" / name).write_text(
            "\n".join([header] + shuffled) + "\n", encoding="utf-8")

    cells = ["--cells", str(tmp_path / "cells" / "cells.csv")]
    for source in ("pop", "shuffled"):
        pop = ["--persons", str(tmp_path / source / "persons.csv"),
               "--households", str(tmp_path / source / "households.csv")]
        assert main(["simulate", "--config", str(cfg), *pop, *cells,
                     "--out", str(tmp_path / source / "sim")]) == 0
        # one source misses its tolerance at this size: a result, exit 1
        assert main(["validate", "--config", str(cfg), *pop, *cells,
                     "--out", str(tmp_path / source / "val")]) == 1
        assert main(["shocks", *pop, *cells,
                     "--out", str(tmp_path / source / "shk")]) == 0

    for command in ("sim", "val", "shk"):
        ordered, shuffled = (tmp_path / source / command
                             for source in ("pop", "shuffled"))
        names = sorted(f.name for f in ordered.iterdir())
        assert names == sorted(f.name for f in shuffled.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (ordered / name).read_bytes() == (shuffled / name).read_bytes(), \
                    (command, name)
        manifests = [json.loads((d / "manifest.json").read_text(encoding="utf-8"))
                     for d in (ordered, shuffled)]
        inputs = [m.pop("inputs") for m in manifests]
        assert manifests[0] == manifests[1], command
        for label in ("persons", "households"):
            assert inputs[0][label] != inputs[1][label], (command, label)
        assert inputs[0]["cells"] == inputs[1]["cells"], command
