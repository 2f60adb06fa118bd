"""Full engine runs on the five-household panel against hand-computed values.

Every number asserted here was derived by hand in tests/oracles.py; the
engine must reproduce each one exactly.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from povsim.cells import apply_shock
from povsim.rules import ledger_from_vectors, person_net_market
from povsim.scenario import ScenarioSpec, Study, prepare_baseline

from conftest import cascade_results
from oracles import MICRO_EXPECTED as E

COMBINED = ScenarioSpec(wage_shock=True, selfemp_shock=True,
                        gma_relaxation=True, one_offs=True)


@pytest.fixture()
def baseline(micro_pop, params, pov):
    return prepare_baseline(micro_pop, params, pov)


@pytest.fixture()
def baseline_fiscal(baseline, micro_pop, params, pov):
    """household id -> the cascade result of the baseline run."""
    return cascade_results(Study(micro_pop, None, params, pov), baseline)


@pytest.fixture()
def combined_study(micro_pop, micro_table, params, pov):
    return Study(micro_pop, micro_table, params, pov)


@pytest.fixture()
def combined(combined_study):
    return combined_study.result(COMBINED)


@pytest.fixture()
def combined_fiscal(combined_study, combined):
    """household id -> the cascade result of the combined run."""
    return cascade_results(combined_study, combined)


class TestBaseline:
    def test_annual_disposable_per_household(self, baseline_fiscal):
        got = {hid: res.annual_disposable for hid, res in baseline_fiscal.items()}
        assert got == E["baseline_annual"]

    def test_relative_line(self, baseline):
        assert baseline.report.lines.relative == E["baseline_relative_line"]

    def test_median_equivalized(self, baseline):
        # The line is 60 percent of the median, so recover the median.
        assert baseline.report.lines.relative * Fraction(5, 3) == \
            E["baseline_median_eq"]

    def test_poverty_rates(self, baseline):
        report = baseline.report
        assert report.child_rate("relative") == E["baseline_child_poor"]
        assert report.indicators["relative"].all_persons.rate == \
            E["baseline_all_poor"]
        assert report.child_rate("absolute_extreme") == \
            E["baseline_extreme_child_poor"]

    def test_pre_regime_gma_for_jobless_mother(self, baseline_fiscal):
        assert baseline_fiscal[5].gma == E["h5_gma_monthly_pre"]

    def test_no_transfers_without_flags(self, baseline_fiscal):
        for res in baseline_fiscal.values():
            assert res.oneoff_may == (0,) * 12
            assert res.oneoff_dec == (0,) * 12


class TestCombinedScenario:
    def test_annual_disposable_per_household(self, combined_fiscal):
        got = {hid: res.annual_disposable for hid, res in combined_fiscal.items()}
        assert got == E["combined_annual"]

    def test_line_moves_with_the_distribution(self, combined):
        assert combined.report.lines.relative == E["combined_relative_line"]
        assert combined.report.lines.relative * Fraction(5, 3) == \
            E["combined_median_eq"]

    def test_poverty_rates(self, combined):
        assert combined.report.child_rate("relative") == E["combined_child_poor"]
        assert combined.report.indicators["relative"].all_persons.rate == \
            E["combined_all_poor"]

    def test_relaxed_gma_schedule_for_shocked_cashier(self, combined_fiscal):
        assert combined_fiscal[2].gma == E["h2_gma_monthly"]

    def test_one_off_totals(self, combined_fiscal):
        assert sum(combined_fiscal[2].oneoff_may) == E["h2_may_total"]
        assert sum(combined_fiscal[3].oneoff_dec) == E["h3_dec_total"]
        assert sum(combined_fiscal[4].oneoff_may) == E["h4_may_total"]
        assert sum(combined_fiscal[5].oneoff_may) == E["h5_may_total"]

    def test_shock_leaves_first_two_months(self, combined_fiscal, micro_pop,
                                           micro_table, params):
        shocked = apply_shock(micro_pop, micro_table)
        hotel_worker = [p for p in shocked.persons if p.person_id == 1][0]
        assert hotel_worker.wage == (30000, 30000) + (15000,) * 10
        members = shocked.members(hotel_worker.household_id)
        ledger = ledger_from_vectors(
            shocked.household(hotel_worker.household_id), members,
            [person_net_market(m, params) for m in members], params)
        assert combined_fiscal[hotel_worker.household_id].net_market == \
            ledger.net_market

