"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own algorithms: Bernoulli
polynomials come from the Worpitzky double sum instead of the recurrence,
kernels are branched by hand, lattice counts enumerate triples directly,
and sums are literal loops over these local pieces.  Agreement between the
two routes is the evidence the tests are after.

The float series at the end are the literal term-by-term loops the
truncation checks once ran: one ``cmath.exp`` phase per term, the terms in
index order in two lists, each reduced by ``math.fsum``.  They are the
reference for the bits of the streamed series core.
"""

from __future__ import annotations

import cmath
import math
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


_TWO_PI = 2.0 * math.pi


def _phase(num: int, den: int) -> complex:
    # exp(2 pi i num/den), the argument reduced mod 1 exactly first
    if den < 0:
        num, den = -num, -den
    return cmath.exp(complex(0.0, _TWO_PI * ((num % den) / den)))


def fourier_series_oracle(n: int, x: Fraction, K: int) -> complex:
    """-n!/(2 pi i)^n times the sum over 1 <= k <= K of (e(kx) + (-1)^n e(-kx)) / k^n."""
    p, q = x.numerator, x.denominator
    sign = (-1) ** n
    re_terms: list[float] = []
    im_terms: list[float] = []
    for k in range(1, K + 1):
        term = (_phase(k * p, q) + sign * _phase(-k * p, q)) / float(k) ** n
        re_terms.append(term.real)
        im_terms.append(term.imag)
    series = complex(math.fsum(re_terms), math.fsum(im_terms))
    coef = -math.factorial(n) / complex(0.0, _TWO_PI) ** n
    return coef * series


def bilateral_oracle(j: int, alpha: Fraction, x, K: int) -> complex:
    """Sum over |d| <= K of e(dx) / (d + alpha)^j, unit weights for ``x=None``.

    The pole d = -alpha (integer alpha only) is left out; d and -d are
    added one after the other.
    """
    af = float(alpha)
    pole = -alpha if alpha.denominator == 1 else None
    re_terms: list[float] = []
    im_terms: list[float] = []

    def add(d: int) -> None:
        if pole is not None and d == pole:
            return
        w = _phase(d * x.numerator, x.denominator) if x is not None else complex(1.0, 0.0)
        t = w / (d + af) ** j
        re_terms.append(t.real)
        im_terms.append(t.imag)

    add(0)
    for d in range(1, K + 1):
        add(d)
        add(-d)
    return complex(math.fsum(re_terms), math.fsum(im_terms))


def zeta_partial_oracle(j: int, K: int) -> float:
    """The sum over 1 <= k <= K of k^(-2j)."""
    return math.fsum(1.0 / float(k) ** (2 * j) for k in range(1, K + 1))
