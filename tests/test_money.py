"""Exact-arithmetic helpers: rounding, formatting, weight parsing."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from povsim.money import (
    MONTHS,
    ZERO_YEAR,
    as_fraction,
    fmt_fraction,
    parse_weight,
    round_half_away,
    round_mul_div,
    weight_to_str,
)

from oracles import dec_round_half_up


def test_constants():
    assert MONTHS == 12
    assert ZERO_YEAR == (0,) * 12


class TestAsFraction:
    def test_int_and_fraction_pass_through(self):
        assert as_fraction(7) == Fraction(7)
        f = Fraction(3, 7)
        assert as_fraction(f) is f

    def test_float_uses_decimal_repr(self):
        # 0.8 must mean exactly 4/5, not the nearest binary double.
        assert as_fraction(0.8) == Fraction(4, 5)
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(27.8) == Fraction(139, 5)

    def test_string_and_decimal(self):
        assert as_fraction("0.648") == Fraction(648, 1000)
        assert as_fraction(Decimal("1.25")) == Fraction(5, 4)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_fraction(None)


class TestRoundHalfAway:
    def test_ints_pass_through(self):
        assert round_half_away(5) == 5
        assert round_half_away(-5) == -5

    @pytest.mark.parametrize("x,expected", [
        (Fraction(1, 2), 1),
        (Fraction(-1, 2), -1),
        (Fraction(3, 2), 2),
        (Fraction(-3, 2), -2),
        (Fraction(1, 3), 0),
        (Fraction(2, 3), 1),
        (Fraction(-2, 3), -1),
        (Fraction(0), 0),
    ])
    def test_ties_away_from_zero(self, x, expected):
        assert round_half_away(x) == expected

    def test_matches_decimal_oracle_on_random_fractions(self):
        rng = random.Random(1234)
        for _ in range(2000):
            x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997))
            assert round_half_away(x) == dec_round_half_up(x), x


class TestRoundMulDiv:
    def test_matches_fraction_path(self):
        rng = random.Random(99)
        for _ in range(2000):
            value = rng.randint(0, 300000)
            num = rng.randint(0, 5000)
            den = rng.randint(1, 5000)
            assert round_mul_div(value, num, den) == \
                round_half_away(Fraction(value * num, den))


class TestFmtFraction:
    @pytest.mark.parametrize("x,places,expected", [
        (Fraction(1, 3), 2, "0.33"),
        (Fraction(2, 3), 2, "0.67"),
        (Fraction(1, 2), 0, "1"),
        (Fraction(-1, 2), 0, "-1"),
        (Fraction(-1, 8), 2, "-0.13"),
        (Fraction(278, 10), 1, "27.8"),
        (Fraction(5), 3, "5.000"),
    ])
    def test_fixed_point(self, x, places, expected):
        assert fmt_fraction(x, places) == expected

    def test_accepts_int(self):
        assert fmt_fraction(12, 2) == "12.00"


class TestWeights:
    @pytest.mark.parametrize("text,centi", [
        ("1", 100),
        ("1.5", 150),
        ("1.50", 150),
        ("0.01", 1),
        ("1234.56", 123456),
        ("007.5", 750),
    ])
    def test_parse(self, text, centi):
        assert parse_weight(text) == centi

    @pytest.mark.parametrize("text", ["", "0", "0.00", "-1", "1.234", "abc",
                                      "1.2.3", "1e2", " 2.25 ", "+1", "1_0",
                                      "١٠٠.٠٠"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_weight(text)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(500):
            centi = rng.randint(1, 10**7)
            assert parse_weight(weight_to_str(centi)) == centi

    def test_to_str(self):
        assert weight_to_str(100) == "1.00"
        assert weight_to_str(10550) == "105.50"
        assert weight_to_str(1) == "0.01"
