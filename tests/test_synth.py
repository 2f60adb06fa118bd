"""Synthetic survey generator: determinism, validity, calibration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from povsim.config import study_config_from_dict
from povsim.errors import CalibrationError, ConfigError
from povsim.money import ZERO_YEAR
from povsim.population import LaborStatus
from povsim.scenario import prepare_baseline
from povsim.synth import (
    IncomeDist,
    SynthConfig,
    calibrate_to_baseline,
    generate_synthetic,
)

from conftest import acceptance_config, members_by_household


@pytest.fixture(scope="module")
def small_pop():
    return generate_synthetic(SynthConfig(n_households=300), seed=42)


class TestIncomeDist:
    def test_validation(self):
        with pytest.raises(ConfigError):
            IncomeDist(median=0, sigma=0.5)
        with pytest.raises(ConfigError):
            IncomeDist(median=100, sigma=-1)
        with pytest.raises(ConfigError):
            IncomeDist(median=100, sigma=0.5, floor=50, cap=40)

    def test_floor_and_cap_bind(self):
        dist = IncomeDist(median=1000, sigma=2.0, floor=900, cap=1100)
        rng = random.Random(1)
        draws = [dist.draw(rng) for _ in range(200)]
        assert all(900 <= d <= 1100 for d in draws)
        assert 900 in draws and 1100 in draws

    def test_scale_applies_before_floor(self):
        # With a deterministic sigma of 0, a draw is just the scaled median
        # pushed back up to the floor.
        dist = IncomeDist(median=10000, sigma=0.0, floor=6000)
        rng = random.Random(1)
        assert dist.draw(rng, scale=1.0) == 10000
        assert dist.draw(rng, scale=0.7) == 7000
        assert dist.draw(rng, scale=0.5) == 6000  # floored, not 5000


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(n_households=0),
        dict(child_share=1.0),
        dict(household_size_dist={1: 0.5, 2: 0.6}),
        dict(household_size_dist={0: 1.0}),
        dict(adult_labor_shares={"employee": 1.0, "astronaut": 0.0}),
        dict(adult_labor_shares={"employee": 0.7}),
        dict(education_shares={"secondary": 0.5}),
        dict(industry_dist={"89": 1.0}),
        dict(sector_wage_multipliers={"XX": 1.0}),
        dict(weight_range=(0.0, 10.0)),
        dict(weight_range=(10.0, 5.0)),
        dict(couple_sector_assortativity=-0.1),
        dict(couple_sector_assortativity=1.5),
    ])
    def test_rejects(self, kw):
        kwargs = {"n_households": 100}
        kwargs.update(kw)
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown key"):
            study_config_from_dict(
                {"synth": {"n_households": 10, "n_housholds": 10}})
        with pytest.raises(ConfigError, match="unknown key"):
            study_config_from_dict(
                {"synth": {"n_households": 10,
                           "wage": {"median": 100, "mode": 1}}})

    def test_from_dict_builds_distributions(self):
        cfg = study_config_from_dict({"synth": {
            "n_households": 10,
            "wage": {"median": 25000, "sigma": 0.4, "floor": 15000},
            "household_size_dist": {"1": 0.5, "2": 0.5},
            "weight_range": [10, 20],
        }}).synth
        assert cfg.wage == IncomeDist(median=25000, sigma=0.4, floor=15000)
        assert cfg.household_size_dist == {1: 0.5, 2: 0.5}
        assert cfg.weight_range == (10.0, 20.0)


class TestGeneration:
    def test_same_seed_same_population(self):
        cfg = SynthConfig(n_households=200)
        a = generate_synthetic(cfg, seed=7)
        b = generate_synthetic(cfg, seed=7)
        assert a.persons == b.persons
        assert a.households == b.households

    def test_different_seed_differs(self):
        cfg = SynthConfig(n_households=200)
        a = generate_synthetic(cfg, seed=7)
        c = generate_synthetic(cfg, seed=8)
        assert a.persons != c.persons

    def test_population_is_valid_and_sized(self, small_pop):
        # Population construction already enforces invariants; spot-check
        # composition.
        assert small_pop.n_households == 300
        assert small_pop.provenance.startswith("synthetic")
        statuses = {p.labor_status for p in small_pop.persons}
        assert LaborStatus.EMPLOYEE in statuses
        assert LaborStatus.PENSIONER in statuses
        children = sum(1 for p in small_pop.persons if p.is_child)
        assert 0 < children < small_pop.n_persons

    def test_zero_income_vectors_are_zero_year(self, small_pop):
        """Every all-zero income vector is the shared ZERO_YEAR, which the
        validator and the engine skip by identity."""
        zeros = [v for p in small_pop.persons for v in p.incomes if not any(v)]
        assert zeros
        assert all(v is ZERO_YEAR for v in zeros)

    def test_child_share_is_steered(self):
        cfg = SynthConfig(n_households=800, child_share=0.30)
        pop = generate_synthetic(cfg, seed=3)
        share = sum(1 for p in pop.persons if p.is_child) / pop.n_persons
        assert abs(share - 0.30) < 0.05

    def test_workers_have_divisions_and_wages(self, small_pop):
        for p in small_pop.persons:
            if p.labor_status is LaborStatus.EMPLOYEE:
                assert p.nace2 is not None
                assert any(p.wage)
            elif p.labor_status is LaborStatus.SELF_EMPLOYED:
                assert p.nace2 is not None
                assert any(p.self_employment)

    def test_wage_floor_binds_after_sector_multiplier(self):
        cfg = acceptance_config(n_households=600)
        pop = generate_synthetic(cfg, seed=11)
        wages = sorted(p.wage[0] for p in pop.persons
                       if p.labor_status is LaborStatus.EMPLOYEE
                       and not p.informal_wage_flag)
        # The minimum formal wage is exactly the floor, and a visible
        # cluster sits on it (the statutory-minimum pile-up).
        assert wages[0] == cfg.wage.floor
        at_floor = sum(1 for w in wages if w == cfg.wage.floor)
        assert at_floor >= len(wages) // 50

    def test_assortativity_links_second_earner_sectors(self):
        from dataclasses import replace as dc_replace

        from povsim.synth import _pay_tier

        cfg = acceptance_config(n_households=1500)
        matched = generate_synthetic(cfg, seed=5)
        unmatched = generate_synthetic(
            dc_replace(cfg, couple_sector_assortativity=0.0), seed=5)
        mult = cfg.sector_wage_multipliers

        def tier_match_rate(pop):
            same = total = 0
            for members in members_by_household(pop).values():
                employees = [p for p in members
                             if p.labor_status is LaborStatus.EMPLOYEE]
                if len(employees) < 2:
                    continue
                tiers = {_pay_tier(mult.get(p.nace2, 1.0)) for p in employees}
                total += 1
                same += len(tiers) == 1
            return same / total

        assert tier_match_rate(matched) > tier_match_rate(unmatched) + 0.15


class TestCalibration:
    def test_hits_target_rate(self, params, pov):
        pop = generate_synthetic(acceptance_config(n_households=1500), seed=9)
        calibrated = calibrate_to_baseline(pop, 0.25, params, pov,
                                           tolerance=0.005)
        rate = prepare_baseline(calibrated, params, pov).report.child_rate("relative")
        assert abs(float(rate) - 0.25) <= 0.005

    def test_returns_input_when_within_tolerance(self, params, pov):
        pop = generate_synthetic(acceptance_config(n_households=800), seed=9)
        rate = prepare_baseline(pop, params, pov).report.child_rate("relative")
        already = calibrate_to_baseline(pop, rate, params, pov,
                                        tolerance=0.01)
        assert already is pop

    def test_unreachable_target_raises(self, params, pov):
        pop = generate_synthetic(SynthConfig(n_households=120), seed=10)
        with pytest.raises(CalibrationError):
            calibrate_to_baseline(pop, 0.99, params, pov, tolerance=0.001,
                                  max_evaluations=6)

    def test_target_bounds(self, params, pov):
        pop = generate_synthetic(SynthConfig(n_households=50), seed=1)
        with pytest.raises(ConfigError):
            calibrate_to_baseline(pop, 1.5, params, pov)
