"""Reference computations that share no code with ``dedsums``.

The benchmark compares the program's outputs with these, outside the timed
passes.  Bernoulli numbers come from the Akiyama-Tanigawa algorithm (the
library uses the defining recurrence), lattice sums are accumulated as one
integer over a common denominator, the classical Dedekind sum at a large
modulus is evaluated by the Euclid-style reciprocity descent in O(log b)
steps, ladder triples are counted straight from their definition, and the
floating-point references come from ``mpmath``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n by the Akiyama-Tanigawa algorithm, with B_1 = -1/2."""
    a: list[Fraction] = []
    out: list[Fraction] = []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]
    return tuple(out)


@lru_cache(maxsize=None)
def _integer_row(n: int) -> tuple[int, tuple[int, ...]]:
    """(L, c) with L * D^n * B_n(t/D) = sum_k c[k] t^(n-k) D^k for integers t, D."""
    bs = bernoulli_numbers(n)
    terms = [math.comb(n, k) * bs[k] for k in range(n + 1)]
    lcm = 1
    for v in terms:
        lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    return lcm, tuple(int(v * lcm) for v in terms)


def kernel(n: int, x: Fraction, raw: bool = False) -> Fraction:
    """B_n({x}); with ``raw=False`` the degree-1 value at integers is 0, else -1/2."""
    x = Fraction(x)
    t = x - (x.numerator // x.denominator)
    if n == 0:
        return Fraction(1)
    if n == 1 and t == 0 and not raw:
        return Fraction(0)
    bs = bernoulli_numbers(n)
    return sum((math.comb(n, k) * bs[k] * t ** (n - k) for k in range(n + 1)), Fraction(0))


def _scaled_values(n: int, p: int, q: int, d: int, raw: bool, count: int):
    """Integers L*d^n*B_n({(p r + q)/d}) for r = 1..count, and the scale L*d^n."""
    if d < 0:
        p, q, d = -p, -q, -d
    lcm, row = _integer_row(n)
    coeffs = [c * d ** k for k, c in enumerate(row)]
    values = []
    for r in range(1, count + 1):
        t = (p * r + q) % d
        if n == 1 and t == 0 and not raw:
            values.append(0)
            continue
        acc = 0
        for c in coeffs:
            acc = acc * t + c
        values.append(acc)
    return values, lcm * d ** n


def lattice_sum(first, second, count: int, raw: bool = False) -> Fraction:
    """sum_{r=1..count} B_m({(p1 r+q1)/d1}) B_n({(p2 r+q2)/d2}).

    ``first`` and ``second`` are ``(degree, p, q, d)`` with integer entries.
    """
    v1, s1 = _scaled_values(*first, raw, count)
    v2, s2 = _scaled_values(*second, raw, count)
    return Fraction(sum(a * b for a, b in zip(v1, v2)), s1 * s2)


def _affine(top: int, shift: Fraction, mod: int, offset: Fraction, sign: int):
    """(p, q, d) with top*(r + shift)/mod + sign*offset == (p r + q)/d."""
    sn, sd = shift.numerator, shift.denominator
    on, od = offset.numerator, offset.denominator
    return top * sd * od, top * sn * od + sign * on * mod * sd, mod * sd * od


def hwz(m, n, a, b, c, x, y, z) -> Fraction:
    """sum_{r=1..|c|} B'_m(a(r+z)/c - x) B'_n(b(r+z)/c - y)."""
    return lattice_sum((m, *_affine(a, z, c, x, -1)), (n, *_affine(b, z, c, y, -1)), abs(c))


def two_term(m, n, a, b, x, y) -> Fraction:
    """sum_{r=1..|b|} B'_m(a(r+y)/b + x) B'_n((r+y)/b)."""
    zero = Fraction(0)
    return lattice_sum((m, *_affine(a, y, b, x, 1)), (n, *_affine(1, y, b, zero, 1)), abs(b))


def carlitz(n, a, b, x, y) -> Fraction:
    """sum_{r=1..|b|} B_1({(r+y)/b}) B_n({a(r+y)/b + x}) on the raw kernel."""
    zero = Fraction(0)
    return lattice_sum((1, *_affine(1, y, b, zero, 1)), (n, *_affine(a, y, b, x, 1)),
                       abs(b), raw=True)


def dedekind_sum(a: int, b: int) -> Fraction:
    """Classical s(a, b) by reciprocity descent, O(log b) steps."""
    b = abs(b)
    a %= b
    total, sign = Fraction(0), 1
    while a:
        g = math.gcd(a, b)
        a, b = a // g, b // g
        total += sign * (Fraction(-1, 4) + (Fraction(a, b) + Fraction(b, a)
                                             + Fraction(1, a * b)) / 12)
        sign = -sign
        a, b = b % a, a
    return total


def ladder_count(a, b, c, x, y, z) -> int:
    """Triples (r, s, t) with 0 <= sgn(c)(r+x)/a = sgn(c)(s+y)/b = sgn(c)(t+z)/c < 1.

    Walks every t in the window and tests whether r and s come out integral.
    """
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    count = 0
    for t in range(math.ceil(-z), math.ceil(abs(c) - z)):
        v = (t + z) / c
        if (a * v - x).denominator == 1 and (b * v - y).denominator == 1:
            count += 1
    return count


def lhs(identity: str, p: dict) -> Fraction:
    """Left-hand side of a product formula or three-modulus law, from scratch."""
    m, n = p["m"], p["n"]
    a, b = p["a"], p["b"]
    x, y = p["x"], p["y"]
    if identity == "thm31":
        return kernel(m, a * x + y) * kernel(n, b * x + p["z"])
    if identity == "thm33":
        u, v = a * x + y, b * x + p["z"]
        return m * a * kernel(m - 1, u) * kernel(n, v) + n * b * kernel(m, u) * kernel(n - 1, v)
    if identity in ("cor32", "cor34"):
        drop = 0 if identity == "cor32" else 1
        sb = 1 if b > 0 else -1
        sa = 1 if a > 0 else -1
        s1 = sum((Fraction(math.comb(m, j) * (-1) ** (m - j) * a ** (m - j),
                           1 if drop else m + n - j)
                  * two_term(j, m + n - j - drop, a, b, x, y) for j in range(m + 1)),
                 Fraction(0)) * n * Fraction(b) ** (n - 1) * sb
        s2 = sum((Fraction(math.comb(n, j) * (-1) ** (n - j) * b ** (n - j),
                           1 if drop else m + n - j)
                  * two_term(j, m + n - j - drop, b, a, y, x) for j in range(n + 1)),
                 Fraction(0)) * m * Fraction(a) ** (m - 1) * sa
        return s1 - s2 if drop else s1 + s2
    c, z = p["c"], p["z"]
    if identity == "thm41":
        return hwz(m, n, a, b, c, x, y, z)
    if identity == "thm44":
        return (m * a * hwz(m - 1, n, a, b, c, x, y, z)
                + n * b * hwz(m, n - 1, a, b, c, x, y, z))
    raise ValueError(f"no reference LHS for {identity!r}")


# ---------------------------------------------------------------------------
# Floating-point references (mpmath)
# ---------------------------------------------------------------------------

def _mp():
    import mpmath
    mpmath.mp.dps = 30
    return mpmath


def _phase(mp, num: int, den: int):
    """exp(2 pi i num/den), exactly reduced."""
    t = mp.mpf(num % den) / den
    return mp.mpc(mp.cospi(2 * t), mp.sinpi(2 * t))


def _phased_tail(mp, j: int, p: int, q: int, alpha: Fraction, start: int):
    """sum_{d >= start} exp(2 pi i d p/q) / (d + alpha)^j, d + alpha > 0 throughout.

    Grouped by residue class s of d mod q, each class is a Hurwitz zeta.
    """
    total = mp.mpc(0)
    for s in range(q):
        d0 = start + ((s - start) % q)
        total += _phase(mp, d0 * p, q) * mp.zeta(j, (d0 + mp.mpf(alpha.numerator)
                                                      / alpha.denominator) / q) / mp.mpf(q) ** j
    return total


def bilateral_tail(j: int, alpha: Fraction, x: Fraction, K: int) -> complex:
    """sum_{|d| > K} exp(2 pi i d x) / (d + alpha)^j."""
    mp = _mp()
    p, q = x.numerator, x.denominator
    value = _phased_tail(mp, j, p, q, alpha, K + 1) \
        + (-1) ** j * _phased_tail(mp, j, -p, q, -alpha, K + 1)
    return complex(value)


def bilateral_full(j: int, alpha: Fraction, x: Fraction) -> complex:
    """sum_{d in Z} exp(2 pi i d x) / (d + alpha)^j for non-integer alpha, j >= 2."""
    mp = _mp()
    p, q = x.numerator, x.denominator
    k = alpha.numerator // alpha.denominator
    base = alpha - k
    # Shifting d by k moves alpha into (0, 1) and multiplies by exp(-2 pi i k x).
    value = _phased_tail(mp, j, p, q, base, 0) \
        + (-1) ** j * _phased_tail(mp, j, -p, q, -base, 1)
    return complex(value * _phase(mp, -k * p, q))


def zeta_even(j: int) -> float:
    return float(_mp().zeta(2 * j))


def zeta_tail(s: int, K: int) -> float:
    """sum_{n > K} n^-s."""
    return float(_mp().zeta(s, K + 1))


def bernoulli_float(n: int, x: Fraction) -> float:
    """B_n({x}) from mpmath's Bernoulli polynomial."""
    mp = _mp()
    t = x - (x.numerator // x.denominator)
    return float(mp.bernpoly(n, mp.mpf(t.numerator) / t.denominator))


def fourier_tail(n: int, x: Fraction, K: int) -> float:
    """Re of -n!/(2 pi i)^n sum_{|k| > K} exp(2 pi i k x) / k^n."""
    mp = _mp()
    p, q = x.numerator, x.denominator
    series = _phased_tail(mp, n, p, q, Fraction(0), K + 1) \
        + (-1) ** n * _phased_tail(mp, n, -p, q, Fraction(0), K + 1)
    coef = -mp.factorial(n) / mp.mpc(0, 2 * mp.pi) ** n
    return float((coef * series).real)
