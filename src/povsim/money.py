"""Exact integer-denar arithmetic.

All monetary amounts in the engine are integers (MKD per month). Every
place that has to divide goes through Fraction and rounds half away from
zero, so results never depend on float rounding or evaluation order.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

MONTHS = 12
ZERO_YEAR: tuple[int, ...] = (0,) * MONTHS


def as_fraction(value: int | float | str | Decimal | Fraction) -> Fraction:
    """Coerce a numeric input to an exact Fraction.

    Floats are interpreted through their shortest decimal repr: 0.8 means
    4/5, not the binary double closest to 0.8. Strings and Decimals are
    parsed exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, (str, Decimal)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact number")


def round_half_away(x: Fraction | int) -> int:
    """Round to the nearest integer, ties away from zero."""
    if isinstance(x, int):
        return x
    n, d = x.numerator, x.denominator
    if n >= 0:
        q, r = divmod(n, d)
        return q + (1 if 2 * r >= d else 0)
    q, r = divmod(-n, d)
    return -(q + (1 if 2 * r >= d else 0))


def round_mul_div(value: int, num: int, den: int) -> int:
    """round_half_away(value * num / den) for nonnegative operands.

    Hot-path helper used when applying shock factors month by month.
    """
    x = value * num
    return (2 * x + den) // (2 * den)


def scaled_months(vec: tuple[int, ...], num: int, den: int) -> tuple[int, ...]:
    """vec times num/den, each month rounded half away from zero
    (round_mul_div); computed once per distinct amount, so equal months
    share one int."""
    scaled = {v: round_mul_div(v, num, den) for v in set(vec)}
    return tuple(map(scaled.__getitem__, vec))


def fmt_fraction(x: Fraction | int, places: int) -> str:
    """Render an exact number as a fixed-point decimal string.

    Rounds half away from zero at the last kept digit; never goes through
    float, so output is stable across platforms.
    """
    x = as_fraction(x) if not isinstance(x, Fraction) else x
    scale = 10 ** places
    scaled = round_half_away(x * scale)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def parse_weight(text: str) -> int:
    """Parse a survey weight with at most two decimals into centiweight units.

    Returns weight * 100 as an integer. The text must be ASCII
    [0-9]+(.[0-9]{1,2})?: no sign, no spaces, no other digits. Raises
    ValueError on any other text and on a zero weight.
    """
    if not text:
        raise ValueError("empty weight")
    whole, dot, frac = text.partition(".")
    if not (text.isascii() and whole.isdigit() and (frac.isdigit() or not dot)):
        raise ValueError(f"weight {text!r} is not numeric")
    if len(frac) > 2:
        raise ValueError(f"weight {text!r} is not a fixed-point decimal with <= 2 decimals")
    centi = int(whole) * 100 + int(frac.ljust(2, "0"))
    if centi <= 0:
        raise ValueError(f"weight {text!r} must be positive")
    return centi


def weight_to_str(weight_centi: int) -> str:
    """Canonical two-decimal rendering of a centiweight."""
    whole, frac = divmod(weight_centi, 100)
    return f"{whole}.{frac:02d}"
