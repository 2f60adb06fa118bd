"""Acceptance suite: ten independent checks, one test function each.

Each test asserts one released property of the engine end to end and
prints a one-line summary of the measured values. Run with `pytest -v`
to get one pass/fail line per check.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import cascade_results, flat
from oracles import (equivalized, headcount_by_decimal, poverty_rate_by_scan,
                     relative_line_by_scan, weighted_median_by_scan)

from povsim.cells import (CellStat, LfsAggregate, all_selfemp_keys,
                          all_wage_keys, compute_cell_changes, save_cell_table)
from povsim.cli import main
from povsim.metrics import headcount_from_pp
from povsim.money import as_fraction, fmt_fraction
from povsim.nace import DIVISIONS
from povsim.population import Household, LaborStatus, Person, Sex
from povsim.rules import (CAR_OWNED, CAR_TOO_NEW, ELIGIBLE, INCOME_TOO_HIGH,
                          LAND_OWNED, LAND_TOO_LARGE, OTHER_REAL_ESTATE,
                          disposable_income, gma_schedule, ledger_from_vectors,
                          person_net_market)
from povsim.scenario import ScenarioSpec, Study, validate_against_observed
from povsim.synth import SynthConfig, generate_synthetic

INDICATORS = ("relative", "absolute_extreme", "absolute_upper")


def pct(x: Fraction | None) -> str:
    return "n/a" if x is None else fmt_fraction(x * 100, 2)


@pytest.fixture(scope="module")
def accept_study(accept_pop, accept_table, params, pov):
    """One study over the calibrated population, as simulate runs it."""
    return Study(accept_pop, accept_table, params, pov)


def test_01_metrics_match_brute_force_oracles(params, pov):
    """Rates, medians, lines and equivalized incomes of the baseline run on
    20 small random populations equal an independent O(n^2) scan
    implementation exactly."""
    started = time.perf_counter()
    populations = 0
    comparisons = 0
    for i in range(20):
        pop = generate_synthetic(SynthConfig(n_households=40 + 3 * i),
                                 seed=9000 + i)
        study = Study(pop, None, params, pov)
        result = study.result(ScenarioSpec())

        ages = {hh.household_id: [p.age for p in pop.members(hh.household_id)]
                for hh in pop.households}
        weight = {hh.household_id: hh.weight_centi for hh in pop.households}
        eq = {hid: equivalized(fr.annual_disposable, ages[hid])
              for hid, fr in cascade_results(study, result).items()}
        assert result.scores.equivalized() == eq
        comparisons += len(eq)

        # one pair per household, weighted by its persons: the scan is O(n^2)
        pairs = [(eq[hid], weight[hid] * len(ages[hid])) for hid in eq]
        assert result.report.lines.relative == relative_line_by_scan(pairs)
        median = weighted_median_by_scan(pairs)
        assert result.report.lines.relative == Fraction(3, 5) * median

        lines = {"relative": result.report.lines.relative,
                 "absolute_extreme": Fraction(pov.absolute_extreme),
                 "absolute_upper": Fraction(pov.absolute_upper)}
        for indicator in INDICATORS:
            stats = result.report.indicators[indicator]
            triples_all = [(eq[hid], weight[hid], True)
                           for hid in eq for _ in ages[hid]]
            triples_child = [(eq[hid], weight[hid], age < 18)
                             for hid in eq for age in ages[hid]]
            line = lines[indicator]
            assert stats.all_persons.rate == poverty_rate_by_scan(
                triples_all, line)
            assert stats.children.rate == poverty_rate_by_scan(
                triples_child, line)
            comparisons += 2
        populations += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"oracle equality: {populations} populations, "
          f"{comparisons} exact comparisons, {elapsed:.2f}s")


def test_02_gma_eligibility_truth_table(params):
    """Eight asset profiles crossed with two income levels reproduce the
    expected eligibility verdict and reason under both regimes."""
    low, high = 3000, 5000  # single-adult threshold is 4000
    profiles = (
        ("no assets", {},
         ELIGIBLE, ELIGIBLE),
        ("residence only", {"owns_residence": True},
         ELIGIBLE, ELIGIBLE),
        ("other real estate", {"owns_residence": True,
                               "owns_other_real_estate": True},
         OTHER_REAL_ESTATE, OTHER_REAL_ESTATE),
        ("car 3y", {"car_age_years": 3},
         CAR_OWNED, CAR_TOO_NEW),
        ("car 7y", {"car_age_years": 7},
         CAR_OWNED, ELIGIBLE),
        ("land 300", {"land_parcel_m2": 300},
         LAND_OWNED, ELIGIBLE),
        ("land 700", {"land_parcel_m2": 700},
         LAND_OWNED, LAND_TOO_LARGE),
        ("car 7y + land 300", {"car_age_years": 7, "land_parcel_m2": 300},
         CAR_OWNED, ELIGIBLE),
    )
    cases = 0
    for label, assets, pre_asset, relaxed_asset in profiles:
        for income in (low, high):
            person = Person(person_id=1, household_id=1, age=40,
                            sex=Sex.FEMALE, labor_status=LaborStatus.INACTIVE,
                            interhousehold_transfers=flat(income))
            household = Household(household_id=1, member_ids=(1,),
                                  weight_centi=100, **assets)
            ledger = ledger_from_vectors(household, [person],
                                         [person_net_market(person, params)],
                                         params)
            for relaxed, asset_reason in ((False, pre_asset),
                                          (True, relaxed_asset)):
                if asset_reason is not ELIGIBLE:
                    expected = (False, asset_reason)
                elif income >= 4000:
                    expected = (False, INCOME_TOO_HIGH)
                else:
                    expected = (True, ELIGIBLE)
                _, reason = gma_schedule(ledger, relaxed)[5]  # June
                got = (reason == ELIGIBLE, reason)
                assert got == expected, (label, income, relaxed)
            cases += 1
    assert cases == 16
    print(f"eligibility truth table: {cases} cases x 2 regimes, all exact")


def test_03_cell_table_covers_universe_with_small_cell_rule():
    """The factor table always holds 534 wage and 21 self-employment
    cells; base counts under 1,000 force factor 1.0."""
    wage_keys, se_keys = all_wage_keys(), all_selfemp_keys()

    def aggregates(counts):
        base = LfsAggregate(
            (1, 2, 3, 4),
            {k: CellStat(1_000_000, counts(i)) for i, k in enumerate(wage_keys)},
            {k: CellStat(800_000, counts(i)) for i, k in enumerate(se_keys)})
        shocked = LfsAggregate(
            (2, 3),
            {k: CellStat(400_000, counts(i)) for i, k in enumerate(wage_keys)},
            {k: CellStat(320_000, counts(i)) for i, k in enumerate(se_keys)})
        return base, shocked

    mixed = compute_cell_changes(*aggregates(lambda i: 500 if i % 2 else 1500))
    tiny = compute_cell_changes(*aggregates(lambda i: 999))
    suppressed = 0
    for table in (mixed, tiny):
        assert len(table.wage) == 534
        assert len(table.selfemp) == 21
    for i, key in enumerate(wage_keys):
        expected = Fraction(1) if i % 2 else Fraction(4, 5)
        assert mixed.wage[key].factor == expected
        suppressed += i % 2
    for i, key in enumerate(se_keys):
        expected = Fraction(1) if i % 2 else Fraction(4, 5)
        assert mixed.selfemp[key].factor == expected
    assert all(c.factor == 1 for c in tiny.wage.values())
    assert all(c.factor == 1 for c in tiny.selfemp.values())
    print(f"cell universe: 534+21 cells in both tables; "
          f"{suppressed} small wage cells pinned to 1.0")


def test_04_headcount_conversion_exact():
    """4.6pp of the 407,865-child reference population is 18,762 children."""
    assert headcount_from_pp(as_fraction("4.6"), 407_865) == 18_762
    assert headcount_by_decimal(as_fraction("4.6"), 407_865) == 18_762
    print("headcount conversion: 4.6pp of 407,865 -> 18,762 (exact)")


def test_05_scenario_sign_pattern_on_calibrated_population(accept_study):
    """On the calibrated 10,000-household population the combined scenario
    raises relative child poverty by 3-6pp, each income shock raises it,
    and each transfer factor lowers the extreme absolute rate."""
    started = time.perf_counter()
    deco = accept_study.decompose()
    elapsed = time.perf_counter() - started
    rel = {name: deco.report(name).child_rate("relative")
           for name in deco.column_names()}
    ext = {name: deco.report(name).child_rate("absolute_extreme")
           for name in deco.column_names()}

    base_pp = rel["baseline"] * 100
    assert abs(base_pp - Fraction(278, 10)) <= Fraction(1, 2)
    combined_delta = (rel["combined"] - rel["baseline"]) * 100
    assert Fraction(3) <= combined_delta <= Fraction(6)
    assert rel["wage_shock"] > rel["baseline"]
    assert rel["selfemp_shock"] > rel["baseline"]
    assert ext["gma_relaxation"] < ext["baseline"]
    assert ext["one_offs"] < ext["baseline"]
    assert ext["combined"] < ext["baseline"]
    assert elapsed < 60.0
    print("sign pattern: baseline "
          f"{pct(rel['baseline'])}%, combined {pct(rel['combined'])}% "
          f"(+{fmt_fraction(combined_delta, 2)}pp); extreme "
          f"{pct(ext['baseline'])}% -> {pct(ext['combined'])}%; "
          f"{elapsed:.1f}s")


def test_06_uncertainty_band_strictly_ordered(accept_study):
    """Scaling the shock by 0.8/1.0/1.2 orders the relative child rate
    strictly, with both gaps wider than 0.1pp."""
    band = accept_study.uncertainty_band()
    scales = tuple(p.scale for p in band.points)
    assert scales == (Fraction(4, 5), Fraction(1), Fraction(6, 5))
    rates = [p.result.report.child_rate("relative") for p in band.points]
    lower_gap = (rates[1] - rates[0]) * 100
    upper_gap = (rates[2] - rates[1]) * 100
    assert rates[0] < rates[1] < rates[2]
    assert lower_gap > Fraction(1, 10)
    assert upper_gap > Fraction(1, 10)
    print(f"band: {pct(rates[0])}% <= {pct(rates[1])}% <= {pct(rates[2])}% "
          f"(gaps {fmt_fraction(lower_gap, 3)}pp, "
          f"{fmt_fraction(upper_gap, 3)}pp)")


def test_07_validation_harness_exact_gaps():
    """Known simulated/observed pairs give gaps of 4.8pp and 0.9pp and
    pass at tolerances of 5pp and 2pp."""
    result = validate_against_observed(
        {"wage": as_fraction("5.0"), "self_employment": as_fraction("-11.6")},
        {"wage": as_fraction("9.8"), "self_employment": as_fraction("-10.7")},
        {"wage": as_fraction(5), "self_employment": as_fraction(2)})
    rows = {row.source: row for row in result.rows}
    assert rows["wage"].gap_pp == Fraction(24, 5)
    assert rows["self_employment"].gap_pp == Fraction(9, 10)
    assert rows["wage"].passed and rows["self_employment"].passed
    assert result.passed
    print("validation harness: gaps 4.8pp/0.9pp within (5, 2) -> PASS")


def _random_crisis_household(rng: random.Random, idx: int, params):
    """One randomized household whose incomes never rise month over month,
    with a flat pre-crisis baseline at the January level."""

    def decline(level: int) -> tuple[int, ...]:
        if level == 0 or rng.random() < 0.3:
            return flat(level)
        start = rng.randint(2, 12)
        low = rng.randint(0, level)
        return tuple(level if m < start else low for m in range(1, 13))

    members, baseline = [], []
    pid = idx * 10
    for _ in range(rng.randint(1, 3)):
        pid += 1
        status = rng.choices(
            [LaborStatus.EMPLOYEE, LaborStatus.SELF_EMPLOYED,
             LaborStatus.PENSIONER, LaborStatus.UNEMPLOYED_ACTIVE,
             LaborStatus.UNEMPLOYED_PASSIVE, LaborStatus.INACTIVE],
            weights=[35, 10, 20, 10, 10, 15])[0]
        fields = dict(
            person_id=pid, household_id=idx, sex=rng.choice(list(Sex)),
            labor_status=status,
            special_category_flag=rng.random() < 0.05,
        )
        incomes: dict[str, int] = {}
        if status is LaborStatus.EMPLOYEE:
            fields["age"] = rng.randint(18, 64)
            fields["nace2"] = rng.choice(DIVISIONS)
            fields["informal_wage_flag"] = rng.random() < 0.15
            incomes["wage"] = rng.randint(0, 9000)
        elif status is LaborStatus.SELF_EMPLOYED:
            fields["age"] = rng.randint(18, 64)
            fields["nace2"] = rng.choice(DIVISIONS)
            incomes["self_employment"] = rng.randint(0, 9000)
        elif status is LaborStatus.PENSIONER:
            fields["age"] = rng.randint(62, 90)
            incomes["pension"] = rng.randint(2000, 15000)
        else:
            fields["age"] = rng.randint(18, 80)
        if rng.random() < 0.4:
            incomes["interhousehold_transfers"] = rng.randint(0, 3000)
        if rng.random() < 0.2:
            incomes["capital_rent"] = rng.randint(0, 3000)

        current = {src: decline(level) for src, level in incomes.items()}
        stable = {src: flat(level) for src, level in incomes.items()}
        members.append(Person(**fields, **current))
        baseline.append(Person(**fields, **stable))

    for _ in range(rng.randint(0, 3)):
        pid += 1
        age = rng.randint(0, 17)
        status = (LaborStatus.STUDENT if age >= 15 and rng.random() < 0.5
                  else LaborStatus.CHILD)
        child = Person(person_id=pid, household_id=idx, age=age,
                       sex=rng.choice(list(Sex)), labor_status=status,
                       in_public_education=status is LaborStatus.STUDENT)
        members.append(child)
        baseline.append(child)

    household = Household(
        household_id=idx, member_ids=tuple(p.person_id for p in members),
        weight_centi=100,
        owns_residence=rng.random() < 0.7,
        owns_other_real_estate=rng.random() < 0.1,
        car_age_years=rng.randint(0, 12) if rng.random() < 0.4 else None,
        land_parcel_m2=rng.randint(50, 1200) if rng.random() < 0.3 else None,
    )

    def ledger(persons, pre_shock=None):
        return ledger_from_vectors(
            household, persons, [person_net_market(p, params) for p in persons],
            params, pre_shock)
    return ledger(members, ledger(baseline))


def test_08_transfer_monotonicity_property(params):
    """Across 1,000 randomized crisis households, switching on the relaxed
    regime or the one-offs never lowers any month's disposable income, and
    relaxed-regime eligibility covers every household-month the strict
    regime accepts."""
    rng = random.Random(20250814)
    variants = {
        "relaxed": dict(relaxed=True),
        "one_offs": dict(one_offs=True),
        "all": dict(relaxed=True, one_offs=True),
    }
    hit = {name: 0 for name in ("gma_pre", "gma_relaxed", "one_offs")}
    for idx in range(1, 1001):
        ledger = _random_crisis_household(rng, idx, params)
        base = disposable_income(ledger, params)
        base_monthly = base.monthly_disposable()
        runs = {name: disposable_income(ledger, params, **switches)
                for name, switches in variants.items()}
        for name, run in runs.items():
            monthly = run.monthly_disposable()
            for m in range(12):
                assert monthly[m] >= base_monthly[m], (idx, name, m + 1)
        for m in range(12):
            if base.gma[m] > 0:
                assert runs["relaxed"].gma[m] > 0, (idx, m + 1)
        hit["gma_pre"] += any(base.gma)
        hit["gma_relaxed"] += any(runs["relaxed"].gma)
        hit["one_offs"] += any(runs["one_offs"].oneoff_may) or any(
            runs["one_offs"].oneoff_dec)
    # The property only means something if every branch actually fired.
    assert all(count > 50 for count in hit.values()), hit
    print("monotonicity: 1000 households, 0 violations "
          f"(eligible pre {hit['gma_pre']}, relaxed {hit['gma_relaxed']}, "
          f"one-offs {hit['one_offs']})")


def test_09_simulate_byte_identical_across_runs(tmp_path, accept_table):
    """The simulate command writes byte-identical CSV, JSON and SVG files
    when run again with the same seed into another directory."""
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"seed": 777, "synth": {"n_households": 800}}),
                   encoding="utf-8")
    cells = tmp_path / "cells.csv"
    save_cell_table(accept_table, str(cells))
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert main(["simulate", "--config", str(cfg), "--cells", str(cells),
                     "--out", str(out)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    suffixes = {name.rsplit(".", 1)[1] for name in names}
    assert {"csv", "json", "svg"} <= suffixes
    for name in names:
        assert ((first / name).read_bytes()
                == (second / name).read_bytes()), name
    print(f"determinism: {len(names)} files byte-identical across two runs")


def test_11_group_headcounts_reaggregate_exactly(accept_study):
    """For every disaggregation dimension, indicator and period, group
    headcounts sum exactly to the headline child headcount."""
    spec = ScenarioSpec(wage_shock=True, selfemp_shock=True,
                        gma_relaxation=True, one_offs=True)
    dis = accept_study.disaggregate(spec)
    checks = 0
    for breakdown in dis.breakdowns:
        for indicator in INDICATORS:
            for period, headline in (("pre", dis.baseline),
                                     ("post", dis.scenario)):
                cells = [getattr(breakdown.cell(group, indicator), period)
                         for group in breakdown.groups]
                target = headline.report.indicators[indicator].children
                assert sum(c.poor_centi for c in cells) == target.poor_centi, (
                    breakdown.dimension, indicator, period)
                assert sum(c.total_centi for c in cells) == target.total_centi
                checks += 1
    assert checks == len(dis.breakdowns) * len(INDICATORS) * 2
    print(f"reaggregation: {checks} group-sum identities hold exactly")
