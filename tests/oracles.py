"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own algorithms: Bernoulli
polynomials come from the Worpitzky double sum instead of the recurrence,
kernels are branched by hand, lattice counts enumerate triples directly,
and sums are literal loops over these local pieces.  Agreement between the
two routes is the evidence the tests are after.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd


def worpitzky_poly(n: int, x: Fraction) -> Fraction:
    """B_n(x) via the Worpitzky identity (independent of the recurrence)."""
    x = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        inner = Fraction(0)
        for j in range(k + 1):
            inner += (-1) ** j * comb(k, j) * (x + j) ** n
        total += Fraction(inner, k + 1)
    return total


def frac_part(x: Fraction) -> Fraction:
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def sawtooth_oracle(x: Fraction) -> Fraction:
    t = frac_part(x)
    return Fraction(0) if t == 0 else t - Fraction(1, 2)


def bbar_oracle(n: int, x: Fraction) -> Fraction:
    """Periodized kernel from scratch: sawtooth at degree 1, Worpitzky above."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return sawtooth_oracle(x)
    return worpitzky_poly(n, frac_part(x))


def carlitz_oracle(n: int, x: Fraction) -> Fraction:
    return worpitzky_poly(n, frac_part(x))


def hwz_oracle(m: int, n: int, a: int, b: int, c: int,
               x: Fraction, y: Fraction, z: Fraction, kernel=bbar_oracle) -> Fraction:
    total = Fraction(0)
    for r in range(1, abs(c) + 1):
        u = (r + Fraction(z)) / c
        total += kernel(m, a * u - Fraction(x)) * kernel(n, b * u - Fraction(y))
    return total


def raw_hwz_oracle(m: int, n: int, a: int, b: int, c: int,
                   x: Fraction, y: Fraction, z: Fraction) -> Fraction:
    """The literal loop of :func:`hwz_oracle` on the raw kernel B_n({.})."""
    return hwz_oracle(m, n, a, b, c, x, y, z, kernel=carlitz_oracle)


def dedekind_descent(a: int, b: int) -> Fraction:
    """Classical s(a, b), b >= 1, by the two-term law in O(log b) steps.

    Uses s(ka, kb) = s(a, b), s(a mod b, b) = s(a, b), s(0, b) = 0 and, for
    coprime a, b >= 1, s(a, b) = -s(b, a) - 1/4 + (a/b + b/a + 1/(ab))/12.
    """
    g = gcd(a, b)
    a, b = (a // g) % (b // g), b // g
    total, sign = Fraction(0), 1
    while a:
        total += sign * (Fraction(-1, 4) + (Fraction(a, b) + Fraction(b, a)
                                            + Fraction(1, a * b)) / 12)
        sign = -sign
        a, b = b % a, a
    return total


def ladder_count_oracle(a: int, b: int, c: int,
                        x: Fraction, y: Fraction, z: Fraction) -> int:
    """Brute-force triple enumeration of the ladder condition.

    Counts integer triples (r, s, t) with
    0 <= sgn(c)(r+x)/a = sgn(c)(s+y)/b = sgn(c)(t+z)/c < 1,
    by walking every candidate r, s, t range directly.
    """
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    sc = 1 if c > 0 else -1

    def ratios(m: int, shift: Fraction) -> set[Fraction]:
        # all ratios (v + shift)/(sc*m) in [0, 1) over a generous integer window
        denom = sc * m
        width = abs(m) + abs(shift.numerator // shift.denominator) + 2
        out = set()
        for v in range(-width, width + 1):
            val = (v + shift) / denom
            if 0 <= val < 1:
                out.add(val)
        return out

    common = ratios(a, x) & ratios(b, y) & ratios(c, z)
    return len(common)
