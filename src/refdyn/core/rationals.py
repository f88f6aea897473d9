"""Exact rational scalars and their wire format.

``fractions.Fraction`` already guarantees the invariants we need (always
reduced, positive denominator, arbitrary precision), so it is used directly
as the coefficient carrier everywhere in this package.  What this module adds
is the serialization convention: rationals travel as decimal-free strings
``"a/b"``, or just ``"a"`` when the denominator is one.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

RationalLike = Fraction | int | str


def as_rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "a/b" string to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return rat_from_str(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_from_str(s: str) -> Fraction:
    """Parse a decimal-free "a/b" (or "a") string."""
    s = s.strip()
    if "." in s or "e" in s or "E" in s:
        raise ValueError(f"rational strings must be decimal-free: {s!r}")
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rat_to_str(q: RationalLike) -> str:
    """Format as "a/b", or "a" for integers."""
    q = as_rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def outward_decimals(lo: Fraction, hi: Fraction, digits: int) -> tuple[str, str]:
    """Decimal strings with ``digits`` places enclosing [lo, hi], for display.

    Both ends are rounded outward, each by less than 10^-digits, so for
    hi - lo < 10^-digits the strings can be up to 2*10^-digits apart.
    """
    if digits < 0:
        raise ValueError("digits must be non-negative")
    scale = 10**digits
    down = lo.numerator * scale // lo.denominator
    up = -(-hi.numerator * scale // hi.denominator)
    out = []
    for scaled in (down, up):
        whole, frac = divmod(abs(scaled), scale)
        text = ("-" if scaled < 0 else "") + str(whole)
        out.append(f"{text}.{frac:0{digits}d}" if digits else text)
    return out[0], out[1]
