"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately naive and written from the definitions:
quadratic scans, decimal rounding, no shared helpers with the package.
The engine must agree with these exactly — any divergence is a bug in
one of the two, never acceptable drift.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Iterable, Sequence


def dec_round_half_up(x: Fraction) -> int:
    """Round half away from zero using decimal arithmetic on |x|."""
    magnitude = Decimal(abs(x).numerator) / Decimal(abs(x).denominator)
    rounded = int(magnitude.quantize(Decimal("1"), rounding=ROUND_HALF_UP))
    return -rounded if x < 0 else rounded


def weighted_median_by_scan(pairs: Iterable[tuple[Fraction, int]]) -> Fraction:
    """Lower weighted median straight from the definition, O(n^2).

    The smallest value v such that the weight at or below v reaches half
    the total weight.
    """
    items = [(Fraction(v), int(w)) for v, w in pairs]
    if not items or any(w <= 0 for _, w in items):
        raise ValueError("need nonempty positive-weight items")
    # every value as an integer over one common denominator: comparisons
    # stay exact and run on ints
    den = math.lcm(*(v.denominator for v, _ in items))
    items = [(v.numerator * (den // v.denominator), w) for v, w in items]
    total = sum(w for _, w in items)
    for value, _ in sorted(items):
        at_or_below = sum(w for v, w in items if v <= value)
        if 2 * at_or_below >= total:
            return Fraction(value, den)
    raise AssertionError("unreachable")


def equivalence_divisor(ages: Sequence[int], adult: Fraction = Fraction(1, 2),
                        child: Fraction = Fraction(3, 10)) -> Fraction:
    """Modified OECD divisor from member ages (14+ counts as adult); adult
    and child are the coefficients of each further adult and of a child."""
    adults = sum(1 for a in ages if a >= 14)
    children = len(ages) - adults
    if adults == 0:
        return Fraction(1) + child * (children - 1)
    return Fraction(1) + adult * (adults - 1) + child * children


def equivalized(annual: int, ages: Sequence[int], adult: Fraction = Fraction(1, 2),
                child: Fraction = Fraction(3, 10)) -> Fraction:
    return Fraction(annual) / equivalence_divisor(ages, adult, child)


def poverty_rate_by_scan(rows: Iterable[tuple[Fraction, int, bool]],
                         line: Fraction) -> Fraction | None:
    """(value, weight, selected) triples -> weighted share strictly below.

    None when nothing is selected.
    """
    poor = total = 0
    for value, weight, selected in rows:
        if not selected:
            continue
        total += weight
        if value < line:
            poor += weight
    if total == 0:
        return None
    return Fraction(poor, total)


def relative_line_by_scan(pairs: Iterable[tuple[Fraction, int]]) -> Fraction:
    return Fraction(3, 5) * weighted_median_by_scan(pairs)


def headcount_by_decimal(pp: Fraction, population: int) -> int:
    """Percentage points of a population, decimal half-up rounding."""
    exact = Fraction(pp) * population / 100
    return dec_round_half_up(exact)


def net_by_decimal(gross: int, pit: Fraction, ssc: Fraction) -> int:
    """Gross-to-net wedge recomputed with decimal rounding at each step."""
    contributions = dec_round_half_up(Fraction(gross) * ssc)
    tax = dec_round_half_up(Fraction(gross - contributions) * pit)
    return gross - contributions - tax


def ledger_streams_by_definition(members, params) -> dict[str, list[int]]:
    """A household's twelve-month ledger streams, each month summed over
    every member: net market income (wages through net_by_decimal unless
    informal, plus netted self-employment), carried income (pensions,
    transfers, rent), means-testable income without rent, and rent."""
    streams = {"net_market": [], "carried": [], "core_countable": [], "rent": []}
    for month in range(12):
        net = pensions = transfers = rent = 0
        for m in members:
            wage = m.wage[month]
            if not m.informal_wage_flag:
                wage = net_by_decimal(wage, params.pit_rate, params.ssc_rate)
            net += wage + net_by_decimal(m.self_employment[month], params.pit_rate,
                                         params.ssc_rate)
            pensions += m.pension[month]
            transfers += m.interhousehold_transfers[month]
            rent += m.capital_rent[month]
        streams["net_market"].append(net)
        streams["carried"].append(pensions + transfers + rent)
        streams["core_countable"].append(net + pensions + transfers)
        streams["rent"].append(rent)
    return streams


def cell_factor_by_definition(base_income: int, base_count: int,
                              shock_income: int, base_quarters: int,
                              shock_quarters: int,
                              threshold: int) -> tuple[Fraction, str]:
    """Annualized cell change factor straight from its definition."""
    if base_count < threshold:
        return Fraction(1), "suppressed_small_cell"
    if base_income == 0 or shock_income == 0:
        return Fraction(1), "missing_default"
    annual_base = Fraction(base_income) * Fraction(4, base_quarters)
    annual_shock = Fraction(shock_income) * Fraction(4, shock_quarters)
    return annual_shock / annual_base, "estimated"


def aggregate_change_by_scan(before, after, source: str) -> Fraction:
    """Weighted relative change of one source's annual income total between
    two populations of the same persons, from the definition: each person
    found in after by id, weighted by their household's weight in before."""
    weight = {hh.household_id: hh.weight_centi for hh in before.households}
    after_by_id = {p.person_id: p for p in after.persons}
    total_before = total_after = 0
    for person in before.persons:
        w = weight[person.household_id]
        total_before += w * sum(getattr(person, source))
        total_after += w * sum(getattr(after_by_id[person.person_id], source))
    return Fraction(total_after - total_before, total_before)


# Income sources in persons.csv column order, with each one's column prefix.
_CSV_SOURCES = (("wage", "wage"), ("self_employment", "selfemp"),
                ("pension", "pension"), ("capital_rent", "rent"),
                ("interhousehold_transfers", "transfers"))


def _two_decimals(centi: int) -> str:
    """A positive count of hundredths with a point before its last two digits."""
    digits = str(centi).rjust(3, "0")
    return f"{digits[:-2]}.{digits[-2:]}"


def population_csv_by_writer(pop) -> tuple[str, str]:
    """The canonical (persons.csv, households.csv) texts of a population,
    rendered by csv.writer from each record's named fields: persons by
    (household id, person id), households by id, booleans as 0/1, no
    industry code or asset as an empty field, weights with two decimals."""
    persons, households = io.StringIO(), io.StringIO()
    writer = csv.writer(persons, lineterminator="\n")
    writer.writerow(
        ["person_id", "household_id", "age", "sex", "labor_status",
         "education_level", "nace2", "informal_wage_flag", "in_public_education",
         "special_category_flag"]
        + [f"{prefix}_m{month:02d}" for _, prefix in _CSV_SOURCES
           for month in range(1, 13)])
    for p in sorted(pop.persons, key=lambda p: (p.household_id, p.person_id)):
        writer.writerow(
            [p.person_id, p.household_id, p.age, p.sex.value, p.labor_status.value,
             p.education_level.value, "" if p.nace2 is None else p.nace2,
             int(p.informal_wage_flag), int(p.in_public_education),
             int(p.special_category_flag)]
            + [value for source, _ in _CSV_SOURCES for value in getattr(p, source)])
    writer = csv.writer(households, lineterminator="\n")
    writer.writerow(["household_id", "survey_weight", "owns_residence",
                     "owns_other_real_estate", "car_age_years", "land_parcel_m2"])
    for hh in sorted(pop.households, key=lambda hh: hh.household_id):
        writer.writerow(
            [hh.household_id, _two_decimals(hh.weight_centi),
             int(hh.owns_residence), int(hh.owns_other_real_estate),
             "" if hh.car_age_years is None else hh.car_age_years,
             "" if hh.land_parcel_m2 is None else hh.land_parcel_m2])
    return persons.getvalue(), households.getvalue()


def gma_countable_by_definition(monthly_countable: Sequence[int],
                                baseline_countable: Sequence[int],
                                monthly_rent: Sequence[int],
                                baseline_rent: Sequence[int],
                                relaxed: bool) -> list[Fraction]:
    """Countable income of each award month January..December.

    Pre-crisis: mean of the three months before the award month, rent
    included; relaxed: the single month before, rent excluded. Months
    before January read the baseline December backwards.
    """

    def at(series: Sequence[int], base: Sequence[int], month: int) -> int:
        if month >= 1:
            return series[month - 1]
        return base[month + 11]

    countable = []
    for m in range(1, 13):
        if relaxed:
            countable.append(Fraction(at(monthly_countable, baseline_countable,
                                         m - 1)))
        else:
            window = []
            for k in (m - 3, m - 2, m - 1):
                window.append(at(monthly_countable, baseline_countable, k)
                              + at(monthly_rent, baseline_rent, k))
            countable.append(Fraction(sum(window), 3))
    return countable


def gma_monthly_by_definition(monthly_countable: Sequence[int],
                              baseline_countable: Sequence[int],
                              monthly_rent: Sequence[int],
                              baseline_rent: Sequence[int],
                              threshold: Fraction,
                              relaxed: bool) -> list[int]:
    """Twelve monthly GMA awards from the definition of each means test:
    the gap from countable income up to the threshold, when positive."""
    return [dec_round_half_up(threshold - countable) if countable < threshold
            else 0
            for countable in gma_countable_by_definition(
                monthly_countable, baseline_countable, monthly_rent,
                baseline_rent, relaxed)]


# ---------------------------------------------------------------------------
# Hand-computed expectations for the five-household fixture.
#
# Wedge arithmetic (rates 28% contributions off gross, then 10% tax):
#   30000 -> 8400 -> 2160 -> 19440      12000 -> 3360 ->  864 ->  7776
#   25000 -> 7000 -> 1800 -> 16200      15000 -> 4200 -> 1080 ->  9720
#    9600 -> 2688 ->  691 ->  6221      14000 -> 3920 -> 1008 ->  9072
# Informal wages bypass the wedge entirely.
# ---------------------------------------------------------------------------

MICRO_EXPECTED = {
    "net_wages": {30000: 19440, 12000: 7776, 25000: 16200, 15000: 9720,
                  9600: 6221, 14000: 9072},
    # Annual disposable income per household, all-off baseline scenario
    # (pre-crisis regime, no one-offs, no shock):
    #   h1 19440*12                               = 233280
    #   h2  7776*12                               =  93312  (residence blocks GMA)
    #   h3 (12000+14000)*12                       = 312000
    #   h4 (16200+15000)*12                       = 374400
    #   h5 3000*12 + 2200*12 + 1000*6 + 700*12   =  76800
    "baseline_annual": {1: 233280, 2: 93312, 3: 312000, 4: 374400, 5: 76800},
    # Baseline poverty: equivalized incomes 233280, 93312/2.1, 208000,
    # 187200, 76800/1.3; person-weighted median 187200; line 112320.
    "baseline_median_eq": Fraction(187200),
    "baseline_relative_line": Fraction(112320),
    "baseline_child_poor": Fraction(3, 4),
    "baseline_all_poor": Fraction(6, 13),
    "baseline_extreme_child_poor": Fraction(0),
    # Combined scenario (both shocks, relaxed GMA, one-offs):
    #   h1 19440*2 + 9720*10 + may 3000                         = 139080
    #   h2 7776*2+6221*10 + gma(624*3+2179*9) + energy 12000
    #      + allowances 2100*12 + may 18000                     = 154445
    #   h3 312000 + dec 6000*2                                  = 324000
    #   h4 16200*2+9720*10 + 15000*2+10500*10 + may 6000        = 270600
    #   h5 36000 + 26400 + 12000 + 8400 + may 9000              =  91800
    "combined_annual": {1: 139080, 2: 154445, 3: 324000, 4: 270600, 5: 91800},
    "combined_median_eq": Fraction(135300),
    "combined_relative_line": Fraction(81180),
    "combined_child_poor": Fraction(3, 4),
    "combined_all_poor": Fraction(6, 13),
    # Household 2 under the relaxed means test: threshold 4000 * 2.1 = 8400;
    # countable is last month's net wage (7776 before the shock, 6221 after).
    "h2_gma_monthly": (624, 624, 624, 2179, 2179, 2179, 2179, 2179, 2179,
                       2179, 2179, 2179),
    "h2_may_total": 18000,
    "h3_dec_total": 12000,
    "h4_may_total": 6000,
    "h5_may_total": 9000,
    "h5_gma_monthly_pre": (2200,) * 12,
}
