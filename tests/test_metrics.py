"""Poverty measurement layer against the brute-force reference functions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from povsim.config import study_config_from_dict
from povsim.errors import ConfigError, DataError
from povsim.metrics import (
    RELATIVE_LINE_SHARE,
    EquivalenceScale,
    HouseholdFrame,
    PovertyLines,
    adult_education_group,
    headcount_from_pp,
    weighted_median,
)
from povsim.population import (EducationLevel, Household, LaborStatus, Person,
                               Population, Sex)

from conftest import build_micro_population, members_by_household
from oracles import (
    equivalence_divisor,
    equivalized,
    headcount_by_decimal,
    poverty_rate_by_scan,
    relative_line_by_scan,
    weighted_median_by_scan,
)


def person_aged(age: int, pid: int = 1,
                education: EducationLevel = EducationLevel.SECONDARY) -> Person:
    status = LaborStatus.CHILD if age < 18 else LaborStatus.INACTIVE
    return Person(person_id=pid, household_id=1, age=age, sex=Sex.FEMALE,
                  labor_status=status, education_level=education)


class TestEquivalenceScale:
    def test_defaults_match_reference_formula(self):
        scale = EquivalenceScale()
        rng = random.Random(5150)
        for _ in range(500):
            n = rng.randint(1, 8)
            ages = [rng.randint(0, 90) for _ in range(n)]
            members = [person_aged(a, pid=i + 1) for i, a in enumerate(ages)]
            assert scale.divisor(members) == equivalence_divisor(ages), ages

    def test_known_values(self):
        scale = EquivalenceScale()
        assert scale.divisor([person_aged(40)]) == 1
        assert scale.divisor([person_aged(40), person_aged(38, 2)]) == Fraction(3, 2)
        assert scale.divisor([person_aged(40), person_aged(38, 2),
                              person_aged(10, 3), person_aged(3, 4)]) == Fraction(21, 10)
        # A 14-year-old counts as an adult on the scale even though they are
        # a child for poverty purposes.
        assert scale.divisor([person_aged(40), person_aged(14, 2)]) == Fraction(3, 2)

    def test_child_only_household(self):
        scale = EquivalenceScale()
        assert scale.divisor([person_aged(10)]) == 1
        assert scale.divisor([person_aged(10), person_aged(8, 2)]) == Fraction(13, 10)

    def test_empty_household_rejected(self):
        with pytest.raises(DataError):
            EquivalenceScale().divisor([])

    def test_first_adult_coefficient_is_not_a_key(self):
        # the first adult always counts 1, so no setting names it
        with pytest.raises(ConfigError, match="unknown key 'first_adult' in "
                                              "poverty.equivalence_scale"):
            study_config_from_dict(
                {"poverty": {"equivalence_scale": {"first_adult": "1"}}})
        with pytest.raises(TypeError):
            EquivalenceScale(first_adult=Fraction(1))

    def test_equivalized_income_exact(self):
        members = (person_aged(40), person_aged(10, 2))
        pop = Population(persons=members, households=(
            Household(household_id=1, weight_centi=100),))
        scores = HouseholdFrame.of(pop.households, [members_by_household(pop)[1]],
                                   EquivalenceScale()).scores([100000])
        assert scores.equivalized() == {1: equivalized(100000, [40, 10])}
        assert scores.equivalized()[1] == Fraction(1000000, 13)


class TestWeightedMedian:
    def test_matches_scan_on_random_inputs(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(1, 40)
            pairs = [(Fraction(rng.randint(0, 1000), rng.randint(1, 7)),
                      rng.randint(1, 500)) for _ in range(n)]
            assert weighted_median(pairs) == weighted_median_by_scan(pairs)

    def test_lower_median_on_even_split(self):
        # Two values with equal weight: the lower one reaches half the mass.
        assert weighted_median([(10, 1), (20, 1)]) == 10

    def test_single_item(self):
        assert weighted_median([(Fraction(7, 3), 42)]) == Fraction(7, 3)

    def test_weight_dominates(self):
        assert weighted_median([(1, 1), (2, 1), (100, 98)]) == 100

    def test_rejects_empty_and_nonpositive_weights(self):
        with pytest.raises(DataError):
            weighted_median([])
        with pytest.raises(DataError):
            weighted_median([(1, 0)])


class TestAdultEducation:
    def test_none_without_adults(self):
        assert adult_education_group([person_aged(10)]) is None

    def test_mean_rounded_to_level(self):
        prim = person_aged(50, 1, EducationLevel.PRIMARY_OR_LESS)
        sec = person_aged(48, 2, EducationLevel.SECONDARY)
        ter = person_aged(30, 3, EducationLevel.TERTIARY_PLUS)
        assert adult_education_group([sec]) == "secondary"
        assert adult_education_group([prim, ter]) == "secondary"
        assert adult_education_group([prim, sec]) == "secondary"  # 0.5 rounds up
        assert adult_education_group([ter, ter]) == "tertiary_plus"
        assert adult_education_group([prim, prim, sec]) == "primary_or_less"

    def test_children_do_not_count(self):
        kid = person_aged(16, 1, EducationLevel.PRIMARY_OR_LESS)
        ter = person_aged(40, 2, EducationLevel.TERTIARY_PLUS)
        assert adult_education_group([kid, ter]) == "tertiary_plus"


MICRO_ANNUAL = {1: 233280, 2: 93312, 3: 312000, 4: 374400, 5: 76800}


class TestRatesAndLines:
    """HouseholdScores on the five-household panel's baseline incomes
    against the oracles over (equivalized income, weight, selected)
    triples, one per person."""

    def micro(self):
        pop = build_micro_population()
        frame = HouseholdFrame.of(
            pop.households, list(members_by_household(pop).values()),
            EquivalenceScale())
        scores = frame.scores([MICRO_ANNUAL[hid] for hid in frame.household_ids])
        return pop, frame, scores

    @staticmethod
    def triples(pop, selected=lambda age: True):
        out = []
        members = members_by_household(pop)
        for hh in pop.households:
            ages = [m.age for m in members[hh.household_id]]
            eq = equivalized(MICRO_ANNUAL[hh.household_id], ages)
            out += [(eq, hh.weight_centi, selected(age)) for age in ages]
        return out

    def test_relative_line_is_sixty_percent_of_median(self):
        pop, _, scores = self.micro()
        pairs = [(eq, w) for eq, w, _ in self.triples(pop)]
        line = RELATIVE_LINE_SHARE * scores.median_equivalized()
        assert line == Fraction(3, 5) * weighted_median_by_scan(pairs)
        assert line == relative_line_by_scan(pairs)

    def test_strictly_below_the_line_counts_as_poor(self):
        pop, frame, scores = self.micro()
        triples = self.triples(pop)
        # Put the line exactly on an occupied income value: those persons
        # must not count as poor until the line moves above them.
        line = Fraction(187200)
        at_line = [t for t in triples if t[0] == line]
        assert at_line, "fixture should have people sitting on this line"
        result = scores.rate(line, frame.sizes)
        assert result.rate == poverty_rate_by_scan(triples, line)
        eps = Fraction(1, 10**9)
        bumped = scores.rate(line + eps, frame.sizes)
        expected_extra = sum(w for _, w, _ in at_line)
        assert bumped.poor_centi == result.poor_centi + expected_extra

    def test_poverty_rate_matches_scan_on_random_lines(self):
        rng = random.Random(31)
        pop, frame, scores = self.micro()
        triples = self.triples(pop, lambda age: age < 18)
        for _ in range(100):
            line = Fraction(rng.randint(1, 300000))
            got = scores.rate(line, frame.children)
            assert got.rate == poverty_rate_by_scan(triples, line)

    def test_rate_is_none_for_empty_selection(self):
        _, frame, scores = self.micro()
        result = scores.rate(Fraction(1), [0] * len(frame.sizes))
        assert result.rate is None
        assert result.poor_centi == 0 and result.total_centi == 0

    def test_lines_validation_and_dispatch(self):
        lines = PovertyLines(relative=Fraction(100), absolute_extreme=42,
                             absolute_upper=150)
        assert lines.line("relative") == 100
        assert lines.line("absolute_extreme") == 42
        assert lines.line("absolute_upper") == 150
        with pytest.raises(ConfigError):
            lines.line("median")
        with pytest.raises(ConfigError):
            PovertyLines(relative=Fraction(1), absolute_extreme=99,
                         absolute_upper=42)

    def test_report_covers_every_indicator(self):
        pop, _, scores = self.micro()
        lines = PovertyLines(
            relative=RELATIVE_LINE_SHARE * scores.median_equivalized(),
            absolute_extreme=42000, absolute_upper=150000)
        report = scores.report(lines)
        assert set(report.indicators) == {"relative", "absolute_extreme",
                                          "absolute_upper"}
        assert report.n_persons == pop.n_persons == 12
        assert report.n_households == 5
        rel = report.indicators["relative"]
        assert rel.children.rate == Fraction(3, 4)
        assert rel.all_persons.rate == Fraction(6, 13)


class TestHeadcounts:
    def test_matches_decimal_oracle(self):
        rng = random.Random(4)
        for _ in range(300):
            pp = Fraction(rng.randint(-2000, 2000), 100)
            population = rng.randint(1, 10**6)
            assert headcount_from_pp(pp, population) == \
                headcount_by_decimal(pp, population)

    def test_accepts_float_pp(self):
        assert headcount_from_pp(4.6, 407865) == \
            headcount_by_decimal(Fraction(46, 10), 407865)
