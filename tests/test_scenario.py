"""Scenario orchestration: decomposition, bands, validation, disaggregation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from povsim.errors import ConfigError
from povsim.metrics import headcount_from_pp
from povsim.rules import disposable_income, ledger_from_vectors, person_net_market
from povsim.scenario import (
    COLUMN_ORDER,
    DIMENSIONS,
    ScenarioSpec,
    Study,
    household_base,
    prepare_baseline,
    simulated_aggregate_changes,
    validate_against_observed,
)
from povsim.cells import aggregate_income_change, apply_shock

from conftest import cascade_results

ALL_ON = ScenarioSpec(wage_shock=True, selfemp_shock=True,
                      gma_relaxation=True, one_offs=True)


def net_market(study, result):
    """household id -> monthly net market income a scenario run of study
    scored."""
    return {hid: res.net_market for hid, res in cascade_results(study, result).items()}


def net_market_of(pop, params):
    """household id -> monthly net market income of pop's members, by
    ledger_from_vectors."""
    return {hh.household_id: ledger_from_vectors(
                hh, pop.members(hh.household_id),
                [person_net_market(m, params) for m in pop.members(hh.household_id)],
                params).net_market
            for hh in pop.households}


class TestScenarioSpec:
    def test_flags_mapping(self, micro_pop, params, pov):
        """A spec's gma_relaxation and one_offs switches are the cascade's
        relaxed and one_offs switches."""
        ledgers = household_base(micro_pop, params, pov).ledgers
        for spec in (ScenarioSpec(), ScenarioSpec(gma_relaxation=True),
                     ScenarioSpec(gma_relaxation=True, one_offs=True)):
            study = Study(micro_pop, None, params, pov)
            fiscal = cascade_results(study, study.result(spec))
            for hh, ledger in zip(micro_pop.households, ledgers, strict=True):
                assert fiscal[hh.household_id] == disposable_income(
                    ledger, params, relaxed=spec.gma_relaxation,
                    one_offs=spec.one_offs), (spec, hh.household_id)

    def test_any_shock(self):
        assert not ScenarioSpec(gma_relaxation=True, one_offs=True).any_shock
        assert ScenarioSpec(wage_shock=True).any_shock
        assert ScenarioSpec(selfemp_shock=True).any_shock

    def test_start_month_validation(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(shock_start_month=0)
        with pytest.raises(ConfigError):
            ScenarioSpec(shock_start_month=13)

    def test_scale_is_exact(self):
        assert ScenarioSpec(shock_scale=0.8).shock_scale == Fraction(4, 5)


class TestStudyResult:
    def test_shock_requires_table(self, micro_pop, params, pov):
        with pytest.raises(ConfigError, match="no cell table"):
            Study(micro_pop, None, params, pov).result(ScenarioSpec(wage_shock=True))

    def test_transfer_only_scenarios_need_no_table(self, micro_pop, params, pov):
        study = Study(micro_pop, None, params, pov)
        result = study.result(ScenarioSpec(gma_relaxation=True, one_offs=True))
        assert net_market(study, result) == net_market_of(micro_pop, params)

    def test_wage_only_spec_neutralizes_selfemp(self, micro_pop, micro_table,
                                                params, pov):
        study = Study(micro_pop, micro_table, params, pov)
        result = study.result(ScenarioSpec(wage_shock=True))
        shocked = apply_shock(micro_pop, micro_table.neutralize(selfemp=True))
        by_id = {p.person_id: p for p in shocked.persons}
        assert by_id[1].wage[11] == 15000          # hotel wage shocked
        assert by_id[8].self_employment[11] == 25000  # self-emp untouched
        assert net_market(study, result) == net_market_of(shocked, params)

    def test_selfemp_only_spec_neutralizes_wage(self, micro_pop, micro_table,
                                                params, pov):
        study = Study(micro_pop, micro_table, params, pov)
        result = study.result(ScenarioSpec(selfemp_shock=True))
        shocked = apply_shock(micro_pop, micro_table.neutralize(wage=True))
        by_id = {p.person_id: p for p in shocked.persons}
        assert by_id[1].wage[11] == 30000
        assert by_id[8].self_employment[11] == 15000
        assert net_market(study, result) == net_market_of(shocked, params)

    def test_prepare_baseline_is_the_baseline_run(self, micro_pop, params, pov):
        result = prepare_baseline(micro_pop, params, pov)
        assert result.spec == ScenarioSpec()
        assert result.report.child_rate("relative") == Fraction(3, 4)


class TestDecompose:
    def test_column_order_and_names(self, micro_pop, micro_table, params, pov):
        deco = Study(micro_pop, micro_table, params, pov).decompose()
        assert deco.column_names() == COLUMN_ORDER
        assert deco.column_names() == (
            "baseline", "wage_shock", "selfemp_shock", "gma_relaxation",
            "one_offs", "combined")

    def test_unknown_factor_rejected(self, micro_pop, micro_table, params, pov):
        with pytest.raises(ConfigError, match="unknown factor"):
            Study(micro_pop, micro_table, params, pov).decompose(
                factors=["wage_shock", "gravity"])

    def test_subset_drops_combined(self, micro_pop, micro_table, params, pov):
        deco = Study(micro_pop, micro_table, params, pov).decompose(
            factors=["wage_shock"])
        assert deco.column_names() == ("baseline", "wage_shock")

    def test_transfer_columns_run_on_unshocked_incomes(self, micro_pop,
                                                       micro_table, params, pov):
        study = Study(micro_pop, micro_table, params, pov)
        deco = study.decompose()
        unshocked = net_market_of(micro_pop, params)
        gma_col = dict(deco.columns)["gma_relaxation"]
        assert net_market(study, gma_col) == unshocked  # incomes untouched
        combined = dict(deco.columns)["combined"]
        assert net_market(study, combined) == net_market_of(
            apply_shock(micro_pop, micro_table), params) != unshocked

    def test_transfers_on_shocked_flag(self, micro_pop, micro_table, params, pov):
        study = Study(micro_pop, micro_table, params, pov)
        deco = study.decompose(transfers_on_shocked=True)
        gma_col = dict(deco.columns)["gma_relaxation"]
        shocked = apply_shock(micro_pop, micro_table)
        assert [p.wage[11] for p in shocked.persons if p.person_id == 1] == [15000]
        assert net_market(study, gma_col) == net_market_of(shocked, params)

    def test_combined_column_matches_direct_run(self, micro_pop, micro_table,
                                                params, pov):
        study = Study(micro_pop, micro_table, params, pov)
        deco = study.decompose()
        direct_study = Study(micro_pop, micro_table, params, pov)
        direct = direct_study.result(ALL_ON)
        combined = dict(deco.columns)["combined"]
        assert cascade_results(study, combined) == cascade_results(direct_study, direct)
        assert combined.report == direct.report

    def test_report_lookup(self, micro_pop, micro_table, params, pov):
        deco = Study(micro_pop, micro_table, params, pov).decompose()
        assert deco.report("baseline").child_rate("relative") == Fraction(3, 4)
        with pytest.raises(KeyError):
            deco.report("imaginary")


class TestUncertaintyBand:
    def test_points_are_sorted_and_anchored(self, micro_pop, micro_table,
                                            params, pov):
        band = Study(micro_pop, micro_table, params, pov).uncertainty_band(
            scales=(1.2, 0.8, 1.0))
        assert [pt.scale for pt in band.points] == \
            [Fraction(4, 5), Fraction(1), Fraction(6, 5)]
        base_rate = band.baseline.report.child_rate("relative")
        for pt in band.points:
            rate = pt.result.report.child_rate("relative")
            assert pt.delta_pp == (rate - base_rate) * 100
            assert pt.headcount_shift == headcount_from_pp(
                pt.delta_pp, pov.child_population)

    def test_scale_one_matches_combined_run(self, micro_pop, micro_table,
                                            params, pov):
        band = Study(micro_pop, micro_table, params, pov).uncertainty_band(
            scales=(1.0,))
        direct = Study(micro_pop, micro_table, params, pov).result(ALL_ON)
        assert band.points[0].result.report == direct.report


class TestValidation:
    def test_reference_inputs_pass(self):
        result = validate_against_observed(
            {"wage": 5.0, "self_employment": -11.6},
            {"wage": 9.8, "self_employment": -10.7},
            {"wage": 5, "self_employment": 2})
        by_source = {row.source: row for row in result.rows}
        assert by_source["wage"].gap_pp == Fraction(48, 10)
        assert by_source["self_employment"].gap_pp == Fraction(9, 10)
        assert result.passed

    def test_failing_row_fails_result(self):
        result = validate_against_observed(
            {"wage": 5.0}, {"wage": 9.8}, {"wage": 4})
        assert not result.passed
        assert result.rows[0].gap_pp == Fraction(48, 10)

    def test_boundary_gap_passes(self):
        result = validate_against_observed(
            {"wage": 5.0}, {"wage": 10.0}, {"wage": 5})
        assert result.passed  # gap == tolerance counts as within

    def test_source_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            validate_against_observed({"wage": 1}, {"selfemp": 1}, {"wage": 1})
        with pytest.raises(ConfigError):
            validate_against_observed({"wage": 1}, {"wage": 1}, {})

    def test_simulated_aggregate_changes(self, micro_pop, micro_table):
        got = simulated_aggregate_changes(micro_pop, micro_table)
        shocked = apply_shock(micro_pop, micro_table, shock_start_month=3)
        assert got["wage"] == \
            aggregate_income_change(micro_pop, shocked.persons, "wage") * 100
        assert got["self_employment"] == \
            aggregate_income_change(micro_pop, shocked.persons, "self_employment") * 100
        assert got["wage"] < 0
        assert got["self_employment"] < 0


class TestDisaggregate:
    def test_unknown_dimension_rejected(self, micro_pop, micro_table, params,
                                        pov):
        with pytest.raises(ConfigError, match="unknown dimension"):
            Study(micro_pop, micro_table, params, pov).disaggregate(
                ALL_ON, dimensions=["zodiac"])

    def test_groups_partition_children(self, micro_pop, micro_table, params,
                                        pov):
        dis = Study(micro_pop, micro_table, params, pov).disaggregate(ALL_ON)
        assert {b.dimension for b in dis.breakdowns} == set(DIMENSIONS)
        for breakdown in dis.breakdowns:
            for indicator in ("relative", "absolute_extreme", "absolute_upper"):
                cells = [breakdown.cell(g, indicator) for g in breakdown.groups]
                for which in ("pre", "post"):
                    rates = [getattr(c, which) for c in cells]
                    headline = (dis.baseline if which == "pre"
                                else dis.scenario).report
                    target = headline.indicators[indicator].children
                    assert sum(r.poor_centi for r in rates) == target.poor_centi
                    assert sum(r.total_centi for r in rates) == target.total_centi

    def test_cell_lookup(self, micro_pop, micro_table, params, pov):
        dis = Study(micro_pop, micro_table, params, pov).disaggregate(
            ALL_ON, dimensions=["sex"])
        cell = dis.breakdowns[0].cell("female", "relative")
        assert cell.pre.total_centi > 0
