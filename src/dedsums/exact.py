"""Exact integer and rational primitives shared by every sum family.

The universal scalar of the exact path is ``fractions.Fraction``: an
arbitrary-precision rational that is always reduced and keeps a strictly
positive denominator, so equality of values is structural equality.
Everything here is a pure function over immutable values and is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "Rational",
    "gcd_pos",
    "floor_frac",
    "frac",
    "sgn",
    "is_integer",
    "binomial",
    "mod_inverse",
    "parse_rational",
    "format_rational",
]

Rational = Fraction

# Literal grammar: optional leading '-', decimal integer, optionally followed
# by '/' and a positive decimal integer.  No whitespace, no '+', no decimals,
# ASCII digits only; the whole text must match.  An integer literal (the
# command line's) is the numerator alone.
_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(rf"({_INTEGER_RE.pattern})(?:/([0-9]+))?")


def _as_fraction(x) -> Fraction:
    # ``Fraction(x)``, but a Fraction itself is returned uncopied: the values
    # that reach the rendering and rounding helpers mostly are Fractions.
    return x if type(x) is Fraction else Fraction(x)


def _not_ints(fn: str, *values) -> ValueError:
    # The integer helpers take ints, not bools: a float would end in a
    # TypeError or run on its binary value, and True would pass for 1.
    bad = next(v for v in values if type(v) is not int)
    return ValueError(f"{fn} takes ints, got {bad!r}")


def gcd_pos(a: int, b: int) -> int:
    """Positive greatest common divisor of ``|a|`` and ``|b|``.

    ``gcd_pos(a, 0) == abs(a)``; both arguments zero is a domain error.
    """
    if type(a) is not int or type(b) is not int:
        raise _not_ints("gcd_pos", a, b)
    if a == 0 and b == 0:
        raise ValueError("gcd_pos(0, 0) is undefined")
    return math.gcd(a, b)


def floor_frac(x: Fraction) -> tuple[int, Fraction]:
    """Split ``x`` into its floor and fractional part, exactly.

    Returns ``(q, t)`` with ``x == q + t`` and ``0 <= t < 1``.
    """
    x = _as_fraction(x)
    q = x.numerator // x.denominator
    return q, x - q


def frac(x: Fraction) -> Fraction:
    """Fractional part ``{x}`` in ``[0, 1)``."""
    x = _as_fraction(x)
    return x - (x.numerator // x.denominator)


def sgn(x) -> int:
    """Sign of ``x``: 0 when ``x == 0``, otherwise ``x/|x|``."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def is_integer(x: Fraction) -> bool:
    """Whether ``x`` is an integer (the indicator usually written delta_Z)."""
    return _as_fraction(x).denominator == 1


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0, zero outside 0 <= k <= n."""
    if type(n) is not int or type(k) is not int:
        raise _not_ints("binomial", n, k)
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def mod_inverse(a: int, m: int) -> int:
    """The inverse of ``a`` modulo ``m``, in ``range(m)``.

    Requires ``m >= 1`` and ``gcd(a, m) == 1``; for ``m == 1`` the inverse
    is 0, since every integer is congruent to 0 mod 1.
    """
    if type(a) is not int or type(m) is not int:
        raise _not_ints("mod_inverse", a, m)
    if m < 1:
        raise ValueError("mod_inverse requires m >= 1")
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} has no inverse modulo {m} (gcd is {math.gcd(a, m)})")
    return pow(a, -1, m)


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal like ``-7/3`` or ``5``.

    The denominator, when present, must be a positive decimal integer.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"invalid rational literal (zero denominator): {text!r}")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    """Format ``x`` as a literal that :func:`parse_rational` round-trips."""
    x = _as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
