"""Synthetic survey-style population generator and baseline calibration.

The generator fabricates households with configurable size, child share,
labour-status and industry margins, and flat within-year income profiles
(a shock is what introduces within-year variation). Everything is driven
by one random.Random(seed), so a (config, seed) pair reproduces the same
population bit for bit, independent of the machine.

Calibration rescales household income draws monotonically (a spread
transform around the median) until the baseline relative child poverty
rate lands on a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import is_
from typing import Mapping

import random

from .errors import CalibrationError, ConfigError
from .money import MONTHS, ZERO_YEAR, as_fraction, scaled_months
from .nace import DIVISIONS
from .population import (EducationLevel, Household, LaborStatus, Person,
                         Population, Sex)

_DEFAULT_SIZE_DIST: dict[int, float] = {1: 0.13, 2: 0.22, 3: 0.20, 4: 0.27,
                                        5: 0.12, 6: 0.06}

_DEFAULT_LABOR_SHARES: dict[str, float] = {
    "employee": 0.52, "self_employed": 0.06, "unemployed_active": 0.05,
    "unemployed_passive": 0.05, "pensioner": 0.22, "inactive": 0.08,
    "student": 0.02,
}

_DEFAULT_INDUSTRY: dict[str, float] = {
    "01": 2.0, "10": 6.0, "13": 3.0, "14": 5.0, "22": 3.0, "24": 2.0, "25": 3.0,
    "27": 3.0, "29": 4.0, "31": 2.0, "33": 1.0, "35": 1.5, "41": 3.0, "42": 2.0,
    "43": 3.0, "45": 3.0, "46": 6.0, "47": 9.0, "49": 4.0, "52": 1.5, "53": 1.0,
    "55": 1.5, "56": 4.5, "58": 0.5, "61": 1.0, "62": 2.5, "63": 0.5, "64": 1.5,
    "65": 0.5, "68": 0.5, "69": 1.0, "70": 0.5, "71": 1.0, "73": 0.5, "74": 0.5,
    "75": 0.3, "77": 0.3, "78": 0.7, "80": 1.5, "81": 1.0, "82": 1.2, "84": 7.0,
    "85": 6.0, "86": 5.5, "87": 1.0, "88": 1.0, "90": 0.5, "91": 0.3, "92": 0.7,
    "93": 0.8, "94": 0.5, "95": 0.5, "96": 2.5,
}

_DEFAULT_SELFEMP_INDUSTRY: dict[str, float] = {
    "01": 14.0, "10": 2.0, "43": 10.0, "45": 4.0, "46": 5.0, "47": 12.0,
    "49": 7.0, "55": 2.0, "56": 8.0, "62": 3.0, "69": 4.0, "71": 3.0, "74": 3.0,
    "86": 3.0, "93": 2.0, "95": 3.0, "96": 9.0,
}

_DEFAULT_WAGE_MULTIPLIERS: dict[str, float] = {
    "13": 0.75, "14": 0.72, "45": 0.90, "46": 0.95, "47": 0.85, "55": 0.80,
    "56": 0.75, "58": 1.60, "61": 1.70, "62": 1.90, "63": 1.50, "64": 1.60,
    "65": 1.50, "69": 1.40, "70": 1.30, "78": 0.75, "80": 0.80, "81": 0.70,
    "84": 1.25, "85": 1.15, "86": 1.20, "96": 0.80, "35": 1.30, "10": 0.90,
}

_DEFAULT_EDUCATION: dict[str, float] = {
    "primary_or_less": 0.25, "secondary": 0.55, "tertiary_plus": 0.20,
}


@dataclass(frozen=True)
class IncomeDist:
    """Lognormal monthly income draw, parameterized by its median."""

    median: int
    sigma: float
    floor: int = 0
    cap: int | None = None

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0:
            raise ConfigError("income distribution needs median > 0 and sigma >= 0")
        if self.cap is not None and self.cap < self.floor:
            raise ConfigError("income distribution cap below floor")

    def draw(self, rng: random.Random, scale: float = 1.0) -> int:
        value = scale * rng.lognormvariate(math.log(self.median), self.sigma)
        value = max(self.floor, int(round(value)))
        if self.cap is not None:
            value = min(self.cap, value)
        return value


def _check_shares(shares: Mapping, what: str) -> None:
    total = sum(shares.values())
    if not shares or abs(total - 1.0) > 1e-6:
        raise ConfigError(f"{what} must sum to 1, got {total!r}")
    if any(v < 0 for v in shares.values()):
        raise ConfigError(f"{what} must be nonnegative")


@dataclass(frozen=True)
class SynthConfig:
    """Every knob of the synthetic generator, with workable defaults."""

    n_households: int
    child_share: float = 0.25
    share_tolerance: float | None = None
    household_size_dist: Mapping[int, float] = field(
        default_factory=lambda: dict(_DEFAULT_SIZE_DIST))
    adult_labor_shares: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_LABOR_SHARES))
    weight_range: tuple[float, float] = (50.0, 200.0)
    wage: IncomeDist = IncomeDist(median=24000, sigma=0.50, floor=8000, cap=200000)
    informal_share: float = 0.12
    informal_wage_factor: float = 0.65
    selfemp_income: IncomeDist = IncomeDist(median=20000, sigma=0.65, floor=4000,
                                            cap=300000)
    pension: IncomeDist = IncomeDist(median=12500, sigma=0.30, floor=5000, cap=40000)
    rent_income: IncomeDist = IncomeDist(median=4000, sigma=0.60, floor=1000,
                                         cap=60000)
    rent_share: float = 0.07
    transfer_income: IncomeDist = IncomeDist(median=3200, sigma=0.55, floor=800,
                                             cap=30000)
    transfer_share: float = 0.08
    transfer_share_no_earner: float = 0.60
    industry_dist: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_INDUSTRY))
    selfemp_industry_dist: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_SELFEMP_INDUSTRY))
    sector_wage_multipliers: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_WAGE_MULTIPLIERS))
    couple_sector_assortativity: float = 0.0
    education_shares: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_EDUCATION))
    enrollment_rate: float = 0.96
    special_category_share: float = 0.004
    owns_residence_share: float = 0.80
    other_real_estate_share: float = 0.06
    car_share: float = 0.52
    car_max_age: int = 20
    land_share: float = 0.22
    land_m2: IncomeDist = IncomeDist(median=300, sigma=0.90, floor=50, cap=20000)
    elderly_worker_share: float = 0.01

    def __post_init__(self) -> None:
        if self.n_households < 1:
            raise ConfigError("n_households must be at least 1")
        if not 0 <= self.child_share < 1:
            raise ConfigError("child_share must lie in [0, 1)")
        _check_shares(self.household_size_dist, "household_size_dist")
        if any(int(s) < 1 for s in self.household_size_dist):
            raise ConfigError("household sizes must be at least 1")
        _check_shares(self.adult_labor_shares, "adult_labor_shares")
        unknown = set(self.adult_labor_shares) - {
            s.value for s in LaborStatus if s not in (LaborStatus.CHILD,)}
        if unknown:
            raise ConfigError(f"unknown labor status {sorted(unknown)[0]!r}")
        _check_shares(self.education_shares, "education_shares")
        for div in list(self.industry_dist) + list(self.selfemp_industry_dist) \
                + list(self.sector_wage_multipliers):
            if div not in DIVISIONS:
                raise ConfigError(f"unknown activity division {div!r}")
        lo, hi = self.weight_range
        if not 0 < lo <= hi:
            raise ConfigError("weight_range must satisfy 0 < low <= high")
        if not 0 <= self.couple_sector_assortativity <= 1:
            raise ConfigError("couple_sector_assortativity must lie in [0, 1]")


def _flat(value: int) -> tuple[int, ...]:
    return (value,) * MONTHS if value else ZERO_YEAR


# Pay-tier cutoffs used when matching second earners to the head's sector.
_TIER_LOW = 0.75
_TIER_HIGH = 1.10


def _pay_tier(multiplier: float) -> str:
    if multiplier <= _TIER_LOW:
        return "low"
    if multiplier >= _TIER_HIGH:
        return "high"
    return "mid"


class _Maker:
    """Stateful helper that builds one household at a time."""

    def __init__(self, cfg: SynthConfig, rng: random.Random) -> None:
        self.cfg = cfg
        self.rng = rng
        self.statuses = list(cfg.adult_labor_shares)
        self.status_weights = [cfg.adult_labor_shares[s] for s in self.statuses]
        self.industries = sorted(cfg.industry_dist)
        self.industry_weights = [cfg.industry_dist[d] for d in self.industries]
        self.tier_industries: dict[str, tuple[list[str], list[float]]] = {}
        for tier in ("low", "mid", "high"):
            divs = [d for d in self.industries
                    if _pay_tier(cfg.sector_wage_multipliers.get(d, 1.0)) == tier]
            if divs:
                self.tier_industries[tier] = (
                    divs, [cfg.industry_dist[d] for d in divs])
        self.se_industries = sorted(cfg.selfemp_industry_dist)
        self.se_weights = [cfg.selfemp_industry_dist[d] for d in self.se_industries]
        self.edu_levels = [EducationLevel(e) for e in sorted(cfg.education_shares)]
        self.edu_weights = [cfg.education_shares[e.value] for e in self.edu_levels]
        sizes = sorted(cfg.household_size_dist)
        self.sizes = sizes
        self.size_weights = [cfg.household_size_dist[s] for s in sizes]
        e_size = sum(s * w for s, w in zip(sizes, self.size_weights))
        e_extra = e_size - 1.0
        if cfg.child_share > 0 and e_extra <= 0:
            raise ConfigError("child_share > 0 needs households larger than 1")
        self.child_prob = 0.0 if e_extra <= 0 else min(
            0.92, cfg.child_share * e_size / e_extra)

    def adult_status(self) -> LaborStatus:
        return LaborStatus(self.rng.choices(self.statuses,
                                            self.status_weights)[0])

    def education(self) -> EducationLevel:
        return self.rng.choices(self.edu_levels, self.edu_weights)[0]

    def sex(self) -> Sex:
        return Sex.MALE if self.rng.random() < 0.5 else Sex.FEMALE

    def adult_age(self, status: LaborStatus) -> int:
        rng = self.rng
        if status is LaborStatus.PENSIONER:
            return rng.randint(65, 84)
        if status is LaborStatus.STUDENT:
            return rng.randint(18, 29)
        if status in (LaborStatus.EMPLOYEE, LaborStatus.SELF_EMPLOYED):
            if rng.random() < self.cfg.elderly_worker_share:
                return rng.randint(65, 69)
            return rng.randint(18, 64)
        return rng.randint(18, 64)

    def earnings(self, status: LaborStatus, anchor: str | None = None) -> dict:
        """Industry, income vectors and flags for one adult.

        ``anchor`` is the household head's division; second earners match
        the head's pay tier with probability ``couple_sector_assortativity``
        (earnings homogamy), instead of drawing economy-wide.
        """
        cfg, rng = self.cfg, self.rng
        out: dict = {"nace2": None, "wage": None, "selfemp": None, "informal": False}
        if status is LaborStatus.EMPLOYEE:
            pool = (self.industries, self.industry_weights)
            if anchor is not None and rng.random() < cfg.couple_sector_assortativity:
                tier = _pay_tier(cfg.sector_wage_multipliers.get(anchor, 1.0))
                pool = self.tier_industries.get(tier, pool)
            div = rng.choices(pool[0], pool[1])[0]
            mult = cfg.sector_wage_multipliers.get(div, 1.0)
            # The floor binds on the sector-adjusted wage, so low-pay sectors
            # pile up at the floor the way statutory minimums do in practice.
            value = cfg.wage.draw(rng, mult)
            informal = rng.random() < cfg.informal_share
            if informal:
                value = max(1, int(round(value * cfg.informal_wage_factor)))
            out.update(nace2=div, wage=_flat(value), informal=informal)
        elif status is LaborStatus.SELF_EMPLOYED:
            div = rng.choices(self.se_industries, self.se_weights)[0]
            out.update(nace2=div, selfemp=_flat(cfg.selfemp_income.draw(rng)))
        return out

    def make_household(self, hid: int, next_pid: int) -> tuple[Household,
                                                               list[Person], int]:
        cfg, rng = self.cfg, self.rng
        size = rng.choices(self.sizes, self.size_weights)[0]
        persons: list[Person] = []

        head_status = self.adult_status()
        head_age = self.adult_age(head_status)
        n_children = sum(1 for _ in range(size - 1)
                         if rng.random() < self.child_prob)
        n_extra_adults = size - 1 - n_children

        member_plan: list[tuple[str, LaborStatus | None]] = [("head", head_status)]
        member_plan += [("adult", None)] * n_extra_adults
        member_plan += [("child", None)] * n_children

        pid = next_pid
        anchor_div: str | None = None
        for role, status in member_plan:
            if role == "child":
                age = rng.randint(0, 17)
                enrolled = age >= 6 and rng.random() < cfg.enrollment_rate
                persons.append(Person(
                    pid, hid, age, self.sex(),
                    LaborStatus.STUDENT if enrolled else LaborStatus.CHILD,
                    (EducationLevel.PRIMARY_OR_LESS if age < 15
                     else EducationLevel.SECONDARY),
                    None, False, enrolled))
                pid += 1
                continue
            st = status if status is not None else self.adult_status()
            age = head_age if role == "head" else self.adult_age(st)
            earn = self.earnings(st, anchor=None if role == "head" else anchor_div)
            if role == "head" and st is LaborStatus.EMPLOYEE:
                anchor_div = earn["nace2"]
            # positional, in field order; the draws run left to right
            persons.append(Person(
                pid, hid, age, self.sex(), st, self.education(), earn["nace2"],
                earn["informal"], st is LaborStatus.STUDENT,
                rng.random() < cfg.special_category_share,
                earn["wage"] or ZERO_YEAR,
                earn["selfemp"] or ZERO_YEAR,
                (_flat(cfg.pension.draw(rng))
                 if st is LaborStatus.PENSIONER else ZERO_YEAR),
            ))
            pid += 1

        # Household-level unearned income lands on the head.
        head = persons[0]
        has_earner = any(
            p.labor_status in (LaborStatus.EMPLOYEE, LaborStatus.SELF_EMPLOYED,
                               LaborStatus.PENSIONER) for p in persons)
        rent_vec = ZERO_YEAR
        if rng.random() < cfg.rent_share:
            rent_vec = _flat(cfg.rent_income.draw(rng))
        tr_share = (cfg.transfer_share if has_earner
                    else cfg.transfer_share_no_earner)
        transfer_vec = ZERO_YEAR
        if rng.random() < tr_share:
            transfer_vec = _flat(cfg.transfer_income.draw(rng))
        if any(rent_vec) or any(transfer_vec):
            persons[0] = head._replace(capital_rent=rent_vec,
                                       interhousehold_transfers=transfer_vec)

        lo, hi = cfg.weight_range
        weight_centi = rng.randint(int(round(lo * 100)), int(round(hi * 100)))
        household = Household(
            household_id=hid,
            member_ids=tuple(p.person_id for p in persons),
            weight_centi=weight_centi,
            owns_residence=rng.random() < cfg.owns_residence_share,
            owns_other_real_estate=rng.random() < cfg.other_real_estate_share,
            car_age_years=(rng.randint(0, cfg.car_max_age)
                           if rng.random() < cfg.car_share else None),
            land_parcel_m2=(cfg.land_m2.draw(rng)
                            if rng.random() < cfg.land_share else None),
        )
        return household, persons, pid


def generate_synthetic(cfg: SynthConfig, seed: int) -> Population:
    """Fabricate a population; (cfg, seed) fully determines the result."""
    rng = random.Random(seed)
    maker = _Maker(cfg, rng)
    households: list[Household] = []
    persons: list[Person] = []
    pid = 1
    for hid in range(1, cfg.n_households + 1):
        household, members, pid = maker.make_household(hid, pid)
        households.append(household)
        persons.extend(members)
    pop = Population(persons=tuple(persons), households=tuple(households),
                     provenance=f"synthetic(seed={seed})")
    if cfg.share_tolerance is not None:
        achieved = sum(1 for p in pop.persons if p.is_child) / pop.n_persons
        if abs(achieved - cfg.child_share) > cfg.share_tolerance:
            raise ConfigError(
                f"generated child share {achieved:.4f} misses target "
                f"{cfg.child_share:.4f} by more than {cfg.share_tolerance}")
    return pop


def _scaled_person(p: Person, f: Fraction) -> Person:
    """p with each income vector scaled by f; p itself if it has no income."""
    if not any(map(any, p.incomes)):
        return p
    num, den = f.numerator, f.denominator
    return Person._make(p[:10] + tuple([scaled_months(v, num, den) if any(v) else v
                                        for v in p.incomes]))


def calibrate_to_baseline(pop: Population, target_child_poverty: float | Fraction,
                          params, pov, *, tolerance: float = 0.005,
                          max_evaluations: int = 16) -> Population:
    """Rescale incomes until baseline relative child poverty hits the target.

    Applies a rank-preserving spread transform around the median equivalized
    income: household incomes move to m * (x/m)**gamma, with gamma found by
    bisection. Returns the input population unchanged when it already sits
    within tolerance. Raises CalibrationError when the target cannot be
    reached within the evaluation budget, reporting the best achieved rate.

    A candidate is the input's household base with each household's
    rescaled members (HouseholdBase.rescaled); only the accepted one
    becomes a Population, which keeps it as its base, memo included.
    """
    from .scenario import household_base, prepare_baseline  # avoids a cycle

    target = float(as_fraction(target_child_poverty))
    if not 0 <= target <= 1:
        raise ConfigError("target child poverty must lie in [0, 1]")

    base_result = prepare_baseline(pop, params, pov)
    base_rate = base_result.report.child_rate("relative")
    if base_rate is None:
        raise CalibrationError("population has no children to calibrate on")
    base_rate = float(base_rate)
    if abs(base_rate - target) <= tolerance:
        return pop

    # Anchor ratios from the original distribution, once, in household order.
    median_eq = base_result.scores.median_equivalized()
    if median_eq <= 0:
        raise CalibrationError("median equivalized income is zero",
                               best_rate=base_rate)
    ratios = [float(eq / median_eq) for eq in base_result.scores.equivalized().values()]
    base = household_base(pop, params, pov)

    def members_for(gamma: float) -> list[tuple[Person, ...] | None]:
        """Each household's members with scaled incomes, None where no
        member changes."""
        out: list[tuple[Person, ...] | None] = []
        for ratio, members in zip(ratios, base.demography.members):
            f = 1 if ratio <= 0 else as_fraction(
                round(min(20.0, max(0.05, ratio ** (gamma - 1.0))), 9))
            new = members if f == 1 else tuple(_scaled_person(p, f) for p in members)
            out.append(None if all(map(is_, new, members)) else new)
        return out

    lo, hi = 0.3, 3.0
    best_rate = base_rate
    evaluations = 0
    while evaluations < max_evaluations:
        gamma = 0.5 * (lo + hi)
        candidate = base.rescaled(members_for(gamma))  # the same children as pop
        rate = float(candidate.baseline[0].child_rate("relative"))
        evaluations += 1
        if abs(rate - target) < abs(best_rate - target):
            best_rate = rate
        if abs(rate - target) <= tolerance:
            return candidate.materialize(pop)
        del candidate  # released before the next one is built
        if rate < target:
            lo = gamma
        else:
            hi = gamma
    raise CalibrationError(
        f"calibration did not reach target {target:.4f} within "
        f"{max_evaluations} evaluations", best_rate=best_rate,
        iterations=evaluations)
