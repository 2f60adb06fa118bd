"""Poverty measurement: equivalization, weighted medians, rates, headcounts.

Everything here is exact. Equivalized incomes are integer keys over one
common denominator, weighted reductions run on integer centiweights, and
the lower weighted median is the smallest value whose cumulative weight
reaches half the total. Statistics are person-weighted but computed over
households (HouseholdFrame, HouseholdScores). Rates are Fractions and
only rendered to decimals at the reporting edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, DataError
from .money import as_fraction, round_half_away
from .population import EducationLevel, Household, Person

#: Age below which a household member counts as a child on the modified
#: OECD scale (the scale's cut, distinct from the under-18 poverty cut).
OECD_CHILD_AGE = 14

INDICATORS: tuple[str, ...] = ("relative", "absolute_extreme", "absolute_upper")

#: The relative poverty line as a share of the median equivalized income.
RELATIVE_LINE_SHARE = Fraction(3, 5)


@dataclass(frozen=True)
class EquivalenceScale:
    """Modified OECD scale; coefficients are exact decimals. The first
    member aged 14 or over (or, with none, the first child) counts 1."""

    additional_adult_14plus: Fraction = Fraction(1, 2)
    child_under_14: Fraction = Fraction(3, 10)

    def __post_init__(self) -> None:
        object.__setattr__(self, "additional_adult_14plus",
                           as_fraction(self.additional_adult_14plus))
        object.__setattr__(self, "child_under_14", as_fraction(self.child_under_14))

    def divisor(self, members: Sequence[Person]) -> Fraction:
        if not members:
            raise DataError("cannot equivalize an empty household")
        adults = sum(1 for m in members if m.age >= OECD_CHILD_AGE)
        children = len(members) - adults
        if adults == 0:
            # No 14+ member: the first child takes the head coefficient.
            return 1 + self.child_under_14 * (children - 1)
        return (1 + self.additional_adult_14plus * (adults - 1)
                + self.child_under_14 * children)


def weighted_median(pairs: Iterable[tuple[Fraction | int, int]]) -> Fraction:
    """Lower weighted median of (value, weight) pairs with integer weights.

    Returns the smallest value v such that the cumulative weight of items
    <= v reaches half the total weight.
    """
    items = sorted(pairs, key=lambda vw: vw[0])
    if not items:
        raise DataError("weighted median of empty sequence")
    total = 0
    for value, weight in items:
        if weight <= 0:
            raise DataError("weighted median requires positive weights")
        total += weight
    cum = 0
    for value, weight in items:
        cum += weight
        if 2 * cum >= total:
            return as_fraction(value)
    raise AssertionError("unreachable: cumulative weight never reached half total")


_EDU_CODE = {
    EducationLevel.PRIMARY_OR_LESS: 0,
    EducationLevel.SECONDARY: 1,
    EducationLevel.TERTIARY_PLUS: 2,
}
_EDU_FROM_CODE = {v: k.value for k, v in _EDU_CODE.items()}


def adult_education_group(members: Sequence[Person]) -> str | None:
    """Mean education level of members aged 18+, rounded to the nearest level.

    None when the household has no adult members.
    """
    codes = [_EDU_CODE[m.education_level] for m in members if m.age >= 18]
    if not codes:
        return None
    mean = Fraction(sum(codes), len(codes))
    return _EDU_FROM_CODE[min(2, round_half_away(mean))]


@dataclass(frozen=True)
class PovertyLines:
    relative: Fraction
    absolute_extreme: Fraction
    absolute_upper: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "relative", as_fraction(self.relative))
        object.__setattr__(self, "absolute_extreme", as_fraction(self.absolute_extreme))
        object.__setattr__(self, "absolute_upper", as_fraction(self.absolute_upper))
        if not self.absolute_extreme < self.absolute_upper:
            raise ConfigError("absolute extreme line must sit below the upper line")

    def line(self, indicator: str) -> Fraction:
        if indicator == "relative":
            return self.relative
        if indicator == "absolute_extreme":
            return self.absolute_extreme
        if indicator == "absolute_upper":
            return self.absolute_upper
        raise ConfigError(f"unknown indicator {indicator!r}")


@dataclass(frozen=True)
class RateResult:
    """Weighted poverty rate over a filtered person set.

    rate is None when the filter selects nobody (undefined, not zero).
    Headcounts are weighted persons in centiweight units.
    """

    rate: Fraction | None
    poor_centi: int
    total_centi: int

    @property
    def headcount(self) -> Fraction:
        return Fraction(self.poor_centi, 100)


def headcount_from_pp(delta_pp: float | Fraction, population: int) -> int:
    """Convert a percentage-point rate change into persons of a reference
    population, rounding half away from zero."""
    return round_half_away(as_fraction(delta_pp) * population / 100)


@dataclass(frozen=True)
class IndicatorStats:
    children: RateResult
    all_persons: RateResult


@dataclass(frozen=True)
class PovertyReport:
    """Headline poverty statistics for one simulated scenario."""

    lines: PovertyLines
    indicators: Mapping[str, IndicatorStats]
    n_persons: int
    n_households: int

    def child_rate(self, indicator: str = "relative") -> Fraction | None:
        return self.indicators[indicator].children.rate


# -- household-level scoring --------------------------------------------------
#
# Every member of a household shares its equivalized income, per-capita
# income and survey weight, so each person-weighted statistic equals the
# same statistic over households, each weighted by its survey weight times
# the number of members counted. The classes below compute them that way,
# on exact integer keys: equivalized income is
# income * eq_factor / eq_denominator with integer factors and one common
# denominator, so sorting and line comparisons never build a Fraction.


@dataclass(frozen=True)
class HouseholdFrame:
    """Per-household scoring data of one population, in household order."""

    household_ids: tuple[int, ...]
    weights: tuple[int, ...]          # centiweights
    sizes: tuple[int, ...]
    children: tuple[int, ...]         # members under 18
    eq_factors: tuple[int, ...]
    eq_denominator: int

    @classmethod
    def of(cls, households: Sequence[Household],
           members: Sequence[Sequence[Person]],
           scale: EquivalenceScale) -> "HouseholdFrame":
        """The frame of households, household i with members[i]."""
        divisors = [scale.divisor(ms) for ms in members]
        # eq = income / (n/d) = income * d * (L/n) / L with L = lcm of the n
        den = math.lcm(*(d.numerator for d in divisors))
        return cls(
            household_ids=tuple(hh.household_id for hh in households),
            weights=tuple(hh.weight_centi for hh in households),
            sizes=tuple(len(ms) for ms in members),
            children=tuple(sum(1 for m in ms if m.is_child) for ms in members),
            eq_factors=tuple(d.denominator * (den // d.numerator)
                             for d in divisors),
            eq_denominator=den,
        )

    def scores(self, annual_income: Sequence[int]) -> "HouseholdScores":
        """Scores of one annual income per household, in household order."""
        return HouseholdScores(
            frame=self, keys=tuple(y * f for y, f in zip(annual_income, self.eq_factors)))


@dataclass(frozen=True)
class HouseholdScores:
    """Equivalized incomes of one scenario as exact integer keys.

    keys[i] / frame.eq_denominator is household i's equivalized income.
    """

    frame: HouseholdFrame
    keys: tuple[int, ...]

    def equivalized(self) -> dict[int, Fraction]:
        den = self.frame.eq_denominator
        return {hid: Fraction(key, den)
                for hid, key in zip(self.frame.household_ids, self.keys)}

    def _person_weights(self) -> Iterable[int]:
        return (w * n for w, n in zip(self.frame.weights, self.frame.sizes))

    def median_equivalized(self) -> Fraction:
        """Person-weighted lower median of equivalized income."""
        return (weighted_median(zip(self.keys, self._person_weights()))
                / self.frame.eq_denominator)

    def rate(self, line: Fraction, counts: Sequence[int]) -> RateResult:
        """Weighted share of selected persons strictly below the line; the
        counts[i] selected members of household i each carry its weight.
        The rate is None when nobody is selected."""
        num, den = line.numerator, line.denominator
        bound = num * self.frame.eq_denominator
        poor = total = 0
        for key, weight, count in zip(self.keys, self.frame.weights, counts):
            if count:
                weight *= count
                total += weight
                if key * den < bound:
                    poor += weight
        rate = None if total == 0 else Fraction(poor, total)
        return RateResult(rate=rate, poor_centi=poor, total_centi=total)

    def report(self, lines: PovertyLines) -> PovertyReport:
        """Child and all-person rates of every indicator at lines: the
        weighted share of selected persons strictly below each line."""
        indicators = {}
        for name in INDICATORS:
            line = lines.line(name)
            indicators[name] = IndicatorStats(
                children=self.rate(line, self.frame.children),
                all_persons=self.rate(line, self.frame.sizes),
            )
        return PovertyReport(lines=lines, indicators=indicators,
                             n_persons=sum(self.frame.sizes),
                             n_households=len(self.keys))
