"""Tax and benefit rules applied to household microdata.

The module covers the gross-to-net wage wedge, the guaranteed minimum
assistance (GMA) means test in its pre-crisis and relaxed variants, the
energy supplement and child/education allowances that ride on GMA, and
two one-off cash schemes (May and December 2020). All awards are integer
MKD per month; means tests are evaluated in exact arithmetic.

gma_schedule is the one implementation of the GMA means test. Which
variant applies is not a policy parameter: the cascade's relaxed switch,
set by a scenario's gma_relaxation factor, selects it.

Benefit sequencing matters: GMA is resolved before one-offs because the
May scheme keys off social-assistance receipt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError, DataError
from .money import MONTHS, ZERO_YEAR, as_fraction, round_mul_div
from .population import Household, LaborStatus, Person


# GMA ineligibility reasons.
ELIGIBLE = "eligible"
OTHER_REAL_ESTATE = "owns_other_real_estate"
CAR_OWNED = "owns_car"
CAR_TOO_NEW = "car_newer_than_5_years"
LAND_OWNED = "owns_land"
LAND_TOO_LARGE = "land_500m2_or_larger"
INCOME_TOO_HIGH = "income_at_or_above_threshold"


def _require_nonnegative(obj, names: Sequence[str]) -> None:
    for name in names:
        if getattr(obj, name) < 0:
            raise ConfigError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class GmaScale:
    """Equivalence coefficients used inside the GMA means test."""

    first_adult: Fraction = Fraction(1)
    additional_adult: Fraction = Fraction(1, 2)
    child: Fraction = Fraction(3, 10)

    def __post_init__(self) -> None:
        for name in ("first_adult", "additional_adult", "child"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
            if getattr(self, name) < 0:
                raise ConfigError(f"GMA scale coefficient {name} must be nonnegative")

    def coefficient(self, members: Sequence[Person]) -> Fraction:
        adults = sum(1 for m in members if m.age >= 18)
        children = len(members) - adults
        if adults == 0:
            return self.first_adult + self.child * max(0, children - 1)
        return (self.first_adult + self.additional_adult * (adults - 1)
                + self.child * children)


@dataclass(frozen=True)
class OneOffMay:
    """May 2020 one-off cash support."""

    adult_sa_amount: int = 9000
    low_wage_amount: int = 3000
    low_wage_cap: int = 15000
    student_amount: int = 3000
    student_age_min: int = 16
    student_age_max: int = 29

    def __post_init__(self) -> None:
        _require_nonnegative(self, [f.name for f in fields(self)])


@dataclass(frozen=True)
class OneOffDec:
    """December 2020 one-off cash support."""

    amount: int = 6000
    passive_jobseeker_cap: int = 15000
    pension_cap: int = 15000

    def __post_init__(self) -> None:
        _require_nonnegative(self, [f.name for f in fields(self)])


@dataclass(frozen=True)
class PolicyParameters:
    """Every policy lever in one place; all values are configurable."""

    pit_rate: Fraction = Fraction(1, 10)
    ssc_rate: Fraction = Fraction(28, 100)
    gma_base_amount: int = 4000
    gma_scale: GmaScale = field(default_factory=GmaScale)
    energy_supplement_amount: int = 1000
    energy_months_pre: int = 6
    energy_months_relaxed: int = 12
    child_allowance_amount: int = 700
    education_allowance_amount: int = 700
    universal_child_allowance: bool = False
    oneoff_may: OneOffMay = field(default_factory=OneOffMay)
    oneoff_dec: OneOffDec = field(default_factory=OneOffDec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pit_rate", as_fraction(self.pit_rate))
        object.__setattr__(self, "ssc_rate", as_fraction(self.ssc_rate))
        for name in ("pit_rate", "ssc_rate"):
            rate = getattr(self, name)
            if not 0 <= rate < 1:
                raise ConfigError(f"{name} must lie in [0, 1)")
        _require_nonnegative(self, ("gma_base_amount", "energy_supplement_amount",
                                    "child_allowance_amount",
                                    "education_allowance_amount"))
        for name in ("energy_months_pre", "energy_months_relaxed"):
            if not 0 <= getattr(self, name) <= 12:
                raise ConfigError(f"{name} must lie in 0..12")

    def energy_months(self, relaxed: bool) -> int:
        return self.energy_months_relaxed if relaxed else self.energy_months_pre


def gross_to_net(gross: int, params: PolicyParameters, *,
                 informal: bool = False) -> int:
    """Net monthly earnings after social contributions and income tax.

    Contributions come off gross first, tax applies to the remainder;
    both round half away from zero. Informal earnings bypass the wedge.
    """
    if gross < 0:
        raise DataError(f"negative gross earnings {gross}")
    if informal or gross == 0:
        return gross
    sr = params.ssc_rate
    ssc = round_mul_div(gross, sr.numerator, sr.denominator)
    base = gross - ssc
    pr = params.pit_rate
    pit = round_mul_div(base, pr.numerator, pr.denominator)
    return gross - ssc - pit


def _net_vector(gross: tuple[int, ...], params: PolicyParameters) -> tuple[int, ...]:
    """gross_to_net month by month, computed once per distinct amount."""
    if gross == ZERO_YEAR:
        return ZERO_YEAR
    net = {v: gross_to_net(v, params) for v in set(gross)}
    return tuple(net[v] for v in gross)


def _shared_months(months: Iterable[int]) -> tuple[int, ...]:
    """The months as a vector in which equal amounts are one int."""
    months = list(months)
    first: dict[int, int] = {}
    return tuple(map(first.setdefault, months, months))


def _sum_vectors(vectors: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """Month-by-month sum. ZERO_YEAR operands are skipped: with none left
    the sum is ZERO_YEAR and with one it is that operand itself; otherwise
    equal monthly sums share one int."""
    vectors = [v for v in vectors if v is not ZERO_YEAR]
    if not vectors:
        return ZERO_YEAR
    if len(vectors) == 1:
        return vectors[0]
    return _shared_months(map(sum, zip(*vectors)))


def person_net_market(person: Person, params: PolicyParameters) -> tuple[int, ...]:
    """Twelve months of net market income (wage plus self-employment)."""
    wage = person.wage if person.informal_wage_flag else _net_vector(person.wage, params)
    return _sum_vectors((wage, _net_vector(person.self_employment, params)))


class HouseholdLedger(NamedTuple):
    """Per-household income streams the benefit rules read from.

    core_countable is the means-testable stream without capital rent
    (net market income, pensions, inter-household transfers); the rent
    stream is kept separate because only the pre-crisis test counts it.
    base_* streams hold the pre-shock profile used for assessment months
    that fall before January. threshold is the GMA threshold under the
    parameters the ledger was built with.

    Streams share their values: a stream that is zero all year may be
    money.ZERO_YEAR, a stream may be the very object of another stream or
    of a member's vector (core_countable is net_market in a household
    with no pension or transfer), and equal months may be one int. So
    streams are compared by value; identity serves only as a shortcut.
    """

    household: Household
    members: tuple[Person, ...]
    net_market: tuple[int, ...]
    carried: tuple[int, ...]
    core_countable: tuple[int, ...]
    rent: tuple[int, ...]
    base_core_countable: tuple[int, ...]
    base_rent: tuple[int, ...]
    threshold: Fraction
    n_children: int
    n_enrolled_children: int


def household_demography(members: Sequence[Person], params: PolicyParameters,
                         ) -> tuple[Fraction, int, int]:
    """GMA threshold, children and enrolled children: no income moves them."""
    return (params.gma_base_amount * params.gma_scale.coefficient(members),
            sum(1 for m in members if m.is_child),
            sum(1 for m in members if m.is_child and m.in_public_education))


def ledger_from_vectors(household: Household, members: Sequence[Person],
                        net_vectors: Sequence[tuple[int, ...]],
                        params: PolicyParameters,
                        baseline: HouseholdLedger | None = None, *,
                        demography: tuple[Fraction, int, int] | None = None,
                        ) -> HouseholdLedger:
    """Assemble one household's ledger from its members' income vectors.

    net_vectors[i] is person_net_market(members[i], params), and
    household_demography(members, params) can be given. baseline is the
    household's pre-shock ledger; it defaults to this ledger itself
    (appropriate when no shock was applied).
    """
    _, _, pensions, rents, transfers = zip(*(m.incomes for m in members))
    net_market = _sum_vectors(net_vectors)
    rent = _sum_vectors(rents)
    unearned = _sum_vectors(pensions + transfers)
    core = _sum_vectors((net_market, unearned))
    base_core, base_rent = ((core, rent) if baseline is None
                            else (baseline.core_countable, baseline.rent))
    return HouseholdLedger(household, tuple(members), net_market,
                           _sum_vectors((unearned, rent)), core, rent,
                           base_core, base_rent,
                           *(demography or household_demography(members, params)))


def shocked_ledger(baseline: HouseholdLedger, members: Sequence[Person],
                   net_vectors: Sequence[tuple[int, ...]]) -> HouseholdLedger:
    """ledger_from_vectors(..., baseline=baseline) after a shock: it moves only
    wage and self-employment, so only net_market and core_countable change,
    and core_countable stays net_market where it was."""
    net_market = _sum_vectors(net_vectors)
    if baseline.core_countable is baseline.net_market:
        core = net_market
    else:
        core = _shared_months(n + c - b for n, c, b in zip(
            net_market, baseline.core_countable, baseline.net_market))
    return HouseholdLedger(
        baseline.household, tuple(members), net_market, baseline.carried, core,
        baseline.rent, baseline.core_countable, baseline.rent, baseline.threshold,
        baseline.n_children, baseline.n_enrolled_children)


def gma_schedule(ledger: HouseholdLedger, relaxed: bool,
                 ) -> tuple[tuple[int, str], ...]:
    """The GMA means test: (award, reason) for each month January..December.

    The asset test runs once, and a household that fails it gets no award
    and the first failing test as its reason in every month. An owned
    residence never disqualifies; real estate beyond it always does.
    Pre-crisis any car or land parcel disqualifies, while the relaxed test
    tolerates a car of five or more years and land under 500 m2.

    Pre-crisis, countable income for an award month is the mean of the
    three preceding months, rent included; relaxed, it is the single
    preceding month, rent excluded. Months before January read the
    baseline profile (month 0 is baseline December). Income must be
    strictly below ledger.threshold, else the reason is INCOME_TOO_HIGH;
    the award fills the gap to the threshold, rounded half away from
    zero, and may round to 0 for an eligible month. With threshold
    num/den and a window of w months summing to s, the test is
    s * den < w * num, in integers.
    """
    hh = ledger.household
    car, land = hh.car_age_years, hh.land_parcel_m2
    if hh.owns_other_real_estate:
        reason = OTHER_REAL_ESTATE
    elif not relaxed and car is not None:
        reason = CAR_OWNED
    elif not relaxed and land is not None:
        reason = LAND_OWNED
    elif relaxed and car is not None and car < 5:
        reason = CAR_TOO_NEW
    elif relaxed and land is not None and land >= 500:
        reason = LAND_TOO_LARGE
    else:
        reason = ELIGIBLE
    if reason != ELIGIBLE:
        return ((0, reason),) * MONTHS
    if relaxed:
        window = 1
        sums = (ledger.base_core_countable[11],) + ledger.core_countable[:11]
    else:
        window = 3
        months = [c + r for c, r in zip(
            ledger.base_core_countable[9:] + ledger.core_countable[:11],
            ledger.base_rent[9:] + ledger.rent[:11])]
        sums = map(sum, zip(months, months[1:], months[2:]))
    den = ledger.threshold.denominator
    limit = window * ledger.threshold.numerator
    scale = window * den
    schedule = []
    for total in sums:
        gap = limit - total * den  # (threshold - countable) * scale
        schedule.append((round_mul_div(gap, 1, scale), ELIGIBLE) if gap > 0
                        else (0, INCOME_TOO_HIGH))
    return tuple(schedule)


def _sole_income_is_wage(person: Person) -> bool:
    return not (any(person.self_employment) or any(person.pension)
                or any(person.capital_rent) or any(person.interhousehold_transfers))


def oneoff_may2020(person: Person, on_social_assistance: bool,
                   params: PolicyParameters) -> int:
    """May 2020 award for one person; at most one award, highest first.

    Adults in households on social assistance and registered active
    jobseekers get the large amount. Employees whose income is wages alone
    with a May net wage at or under the cap, and public-education students
    in the eligible age band, get the small amount.
    """
    may = params.oneoff_may
    if person.age >= 18 and on_social_assistance:
        return may.adult_sa_amount
    if person.labor_status is LaborStatus.UNEMPLOYED_ACTIVE:
        return may.adult_sa_amount
    if (person.labor_status is LaborStatus.EMPLOYEE
            and _sole_income_is_wage(person)):
        net_may = gross_to_net(person.wage[4], params,
                               informal=person.informal_wage_flag)
        if net_may <= may.low_wage_cap:
            return may.low_wage_amount
    if (person.in_public_education
            and may.student_age_min <= person.age <= may.student_age_max):
        return may.student_amount
    return 0


def oneoff_dec2020(person: Person, params: PolicyParameters) -> int:
    """December 2020 award for one person (single amount, three gateways)."""
    dec = params.oneoff_dec
    if person.labor_status is LaborStatus.UNEMPLOYED_PASSIVE:
        if all(person.total_income(m) <= dec.passive_jobseeker_cap
               for m in range(1, 13)):
            return dec.amount
    if person.labor_status is LaborStatus.PENSIONER:
        if max(person.pension) < dec.pension_cap:
            return dec.amount
    if person.special_category_flag:
        return dec.amount
    return 0


class HouseholdFiscalResult(NamedTuple):
    """Monthly decomposition of one household's disposable income."""

    household_id: int
    net_market: tuple[int, ...]
    carried: tuple[int, ...]
    gma: tuple[int, ...]
    energy: tuple[int, ...]
    allowances: tuple[int, ...]
    oneoff_may: tuple[int, ...]
    oneoff_dec: tuple[int, ...]

    def monthly_disposable(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(self.net_market, self.carried, self.gma, self.energy,
                                  self.allowances, self.oneoff_may, self.oneoff_dec)))

    @property
    def annual_disposable(self) -> int:
        """Sum of every stream over the year."""
        return sum(map(sum, (self.net_market, self.carried, self.gma, self.energy,
                             self.allowances, self.oneoff_may, self.oneoff_dec)))


def _in_month(amount: int, month: int) -> tuple[int, ...]:
    """A stream paying amount in one month (zero-based), ZERO_YEAR for 0."""
    if amount == 0:
        return ZERO_YEAR
    return (0,) * month + (amount,) + (0,) * (MONTHS - 1 - month)


def disposable_income(ledger: HouseholdLedger, params: PolicyParameters, *,
                      relaxed: bool = False,
                      one_offs: bool = False) -> HouseholdFiscalResult:
    """Run the benefit cascade for one household.

    relaxed selects the GMA means test and energy months, one_offs
    switches the one-off schemes on. Order: GMA and its supplements, then
    one-offs (May depends on social assistance receipt).

    The result depends on ledger, params, relaxed and one_offs alone,
    which HouseholdBase.evaluate relies on to reuse its annual total. A
    stream that is zero all year is money.ZERO_YEAR, shared: the GMA and
    energy streams of a household with no eligible month and switched-off
    one-offs.
    """
    schedule = gma_schedule(ledger, relaxed)
    eligible = tuple(reason == ELIGIBLE for _, reason in schedule)
    child = params.child_allowance_amount * ledger.n_children
    unassisted = child if params.universal_child_allowance else 0
    if any(eligible):
        gma = tuple(award for award, _ in schedule)
        energy_months = params.energy_months(relaxed)
        energy = tuple(params.energy_supplement_amount
                       if ok and m < energy_months else 0
                       for m, ok in enumerate(eligible))
        assisted = child + params.education_allowance_amount * ledger.n_enrolled_children
        allowances = tuple(assisted if ok else unassisted for ok in eligible)
    else:
        gma = energy = ZERO_YEAR
        allowances = (unassisted,) * MONTHS if unassisted else ZERO_YEAR

    may = dec = ZERO_YEAR
    if one_offs:
        on_sa = any(eligible[m] or allowances[m] > 0 for m in range(5))
        may = _in_month(sum(oneoff_may2020(p, on_sa, params) for p in ledger.members), 4)
        dec = _in_month(sum(oneoff_dec2020(p, params) for p in ledger.members), 11)

    return HouseholdFiscalResult(ledger.household.household_id, ledger.net_market,
                                 ledger.carried, gma, energy, allowances, may, dec)
