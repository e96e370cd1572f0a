"""Floating-point truncation checks of the convergent-series facts.

Each check evaluates a symmetric partial sum of a bilateral series in double
precision and compares it against a reference assembled from the exact
closed form (exact rationals converted to float once, unit-modulus phases
evaluated once via exact integer argument reduction).  The ``tolerance``
recorded in each report is an analytically derived upper bound on the
truncation error (integral tail bounds; Abel summation for the
conditionally convergent cases), never a fitted constant.

Two purely algebraic lemmas that need no floating point at all are also
checked here, exactly: a partial-fraction split of 1/((d-x)^m (d-y)^n) and
a hockey-stick style binomial sum.

Conventions: bilateral sums are truncated symmetrically at |d| <= K, so the
conditionally convergent degree-1 cases telescope; undefined terms (poles)
are excluded.  Every series runs through one core, :func:`_series`: a
summand's weight depends only on d mod q (the denominator of the phase, 1
for unit weights), so the weights of the residues the window reaches are
tabulated once (at most min(q, window length) of them) and each residue
class is streamed into a single ``math.fsum`` as one stepped range, in
O(min(q, K)) memory.  ``fsum`` returns the exact sum of its terms rounded
once, and each term is the same float operation on the same operands
whatever order the terms come in, so the results are bit-reproducible and
do not depend on how the terms are grouped.  Lemmas 2.4 and 2.7 share one
core, :func:`_bilateral` (Lemma 2.4 is its x = 0 case), for their gates,
reference and tolerance.  One constructor, :func:`_report`, sets every
verdict, and a check's tolerance is final there.  An order whose float
powers leave the double range raises ``ValueError``.
"""

from __future__ import annotations

import cmath
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .bernoulli import bernoulli_function, bernoulli_number
from .exact import binomial, format_rational, frac, sgn
from .params import Params, coerce, declare

__all__ = [
    "TruncationReport",
    "fourier_partial",
    "fourier_partial_complex",
    "lemma24_check",
    "lemma27_check",
    "zeta_even_check",
    "lemma22_exact",
    "lemma28_exact",
    "ANALYTIC_TARGETS",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TruncationReport:
    """One truncation check: approximation, exact-derived reference, verdict.

    ``approx`` and ``reference`` are floats for real targets and
    ``(re, im)`` pairs for the complex target; ``abs_error`` is the absolute
    difference (the max over components in the complex case) and must not
    exceed ``tolerance`` for ``passed`` to hold.
    """

    target: str
    params: tuple[tuple[str, object], ...]
    K: int
    approx: Union[float, tuple[float, float]]
    reference: Union[float, tuple[float, float]]
    abs_error: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, tuple):
                return [v[0], v[1]]
            return v
        params = {}
        for name, value in self.params:
            params[name] = format_rational(value) if isinstance(value, Fraction) else value
        return {
            "target": self.target,
            "params": params,
            "K": self.K,
            "approx": enc(self.approx),
            "reference": enc(self.reference),
            "abs_error": self.abs_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _report(target: str, params: tuple, K: int, approx: Union[float, complex],
            reference: Union[float, complex], tolerance: float) -> TruncationReport:
    """The one place a verdict is set, and where a check's tolerance is final.

    A complex value is kept as its ``(re, im)`` parts, and ``abs_error`` is
    the largest difference between components.
    """
    if isinstance(approx, complex):
        approx, reference = (approx.real, approx.imag), (reference.real, reference.imag)
        abs_error = max(abs(a - r) for a, r in zip(approx, reference))
    else:
        abs_error = abs(approx - reference)
    return TruncationReport(target, params, K, approx, reference, abs_error, tolerance,
                            abs_error <= tolerance)


def _admit(tag: str, *args) -> tuple:
    # The arguments of one check, admitted by the strict coercer under its
    # declaration: no float, bool or junk string.
    params = ANALYTIC_TARGETS[tag].params if tag in ANALYTIC_TARGETS else _EXACT_PARAMS[tag]
    return tuple(coerce(tag, params, dict(zip(params, args))).values())


@contextmanager
def _in_double_range(name: str, order: int):
    # A float power of the series or of the reference that leaves the double
    # range raises OverflowError, or ZeroDivisionError once it underflows to
    # zero and is divided by; either becomes one ValueError naming the order.
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"order {name}={order} is beyond double precision") from None


def _cis(num: int, den: int) -> complex:
    """exp(2*pi*i * num/den) with exact integer argument reduction mod 1."""
    if den < 0:
        num, den = -num, -den
    return cmath.exp(complex(0.0, _TWO_PI * ((num % den) / den)))


def _gate_level(K: int) -> None:
    if K < 1:
        raise ValueError("truncation level K must be >= 1")


def _window_weights(weight: Callable[[int], complex], q: int, lo: int,
                    hi: int) -> list:
    """weight(d) for d = lo, lo + 1, ... over one period q, cut to the window.

    ``weight(d)`` depends only on d mod q.  A window [lo, hi] shorter than q
    meets each residue at most once, so only the residues it reaches are
    tabulated: the table never outgrows the window, however large q is.
    """
    return [weight(d) for d in range(lo, lo + min(q, hi - lo + 1))]


def _series(weights: Sequence[float], shift: float, power: int, lo: int, hi: int,
            pole: Optional[int] = None) -> float:
    """fsum of weights[(d - lo) % m] / (d + shift) ** power over lo <= d <= hi, d != pole.

    ``m = len(weights)``, as built by :func:`_window_weights`.  Each residue
    class mod m is one ``range`` of step m (split at the pole when it falls
    in that class), and the terms stream straight into ``math.fsum``: no
    term list, O(m) memory.  Zero terms never change an ``fsum`` result,
    whatever their sign.  ``(d + shift) ** power`` must stay one ``pow``:
    with glibc 2.36, ``t ** 2 != t * t`` for 652 of 4,000,000 terms
    ``t = d + r/b`` (d = 1..10^5, 40 random shifts with |r| <= 9 and
    1 <= b <= 9), so a "faster square" would change reported bits.
    """
    m = len(weights)
    if pole is not None and not lo <= pole <= hi:
        pole = None
    runs = []
    for i, w in enumerate(weights):
        if pole is not None and (pole - lo) % m == i:
            runs += [(w, range(lo + i, pole, m)), (w, range(pole + m, hi + 1, m))]
        else:
            runs.append((w, range(lo + i, hi + 1, m)))
    return math.fsum(chain.from_iterable(
        (w / (d + shift) ** power for d in span) for w, span in runs))


def _complex_series(weights: Sequence[complex], shift: float, power: int, lo: int, hi: int,
                    pole: Optional[int] = None) -> complex:
    """:func:`_series` with complex weights: the real and imaginary parts apart.

    A nonzero part of the complex quotient w / f is that part of w divided
    by f, bit for bit, and a zero part changes no ``fsum``; so the two real
    sums equal the parts of a sum of complex terms.
    """
    return complex(_series([w.real for w in weights], shift, power, lo, hi, pole),
                   _series([w.imag for w in weights], shift, power, lo, hi, pole))


def _pole(alpha: Fraction) -> Optional[int]:
    # The d at which d + alpha = 0, when there is one.
    return -alpha.numerator if alpha.denominator == 1 else None


def _fourier_series(n: int, x: Fraction, K: int) -> complex:
    # The partial sum of fourier_partial_complex, on admitted arguments.
    if n < 2:
        raise ValueError("absolute convergence requires degree n >= 2")
    _gate_level(K)
    p, q = x.numerator, x.denominator
    sign = (-1) ** n
    weights = _window_weights(lambda k: _cis(k * p, q) + sign * _cis(-k * p, q), q, 1, K)
    series = _complex_series(weights, 0.0, n, 1, K)
    coef = -math.factorial(n) / complex(0.0, _TWO_PI) ** n
    return coef * series


def fourier_partial_complex(n: int, x: Fraction, K: int) -> complex:
    """Symmetric partial sum of the exponential series for the degree-n kernel.

    The k and -k terms share one weight, e(kx) + (-1)^n e(-kx), so the
    imaginary part vanishes up to rounding for the (real) target.  Arguments
    are admitted as for :func:`fourier_partial`.
    """
    n, x, K = _admit("fourier", n, x, K)
    with _in_double_range("n", n):
        return _fourier_series(n, x, K)


def fourier_partial(n: int, x: Fraction, K: int) -> TruncationReport:
    """Check the exponential-series representation of the degree-n kernel.

    Tolerance: |tail| <= 2*n!/(2*pi)^n * sum_{k>K} k^-n
                       <= 2*n!/((2*pi)^n (n-1)) * K^(1-n).
    """
    n, x, K = _admit("fourier", n, x, K)
    with _in_double_range("n", n):
        approx = _fourier_series(n, x, K).real
        reference = float(bernoulli_function(n, x))
        tolerance = 2.0 * math.factorial(n) / (_TWO_PI ** n * (n - 1)) * K ** (1 - n)
    return _report("fourier", (("n", n), ("x", x)), K, approx, reference, tolerance)


def _lemma_reference(j: int, b: int, r: int, x: Fraction) -> complex:
    """Exact-derived closed form: phase-weighted kernel values over l = 1..|b|."""
    rat = Fraction(sgn(b) * (-1) ** (j - 1), math.factorial(j)) * Fraction(b) ** (j - 1)
    coef = float(rat) * complex(0.0, _TWO_PI) ** j
    acc = complex(0.0, 0.0)
    p, q = x.numerator, x.denominator
    for l in range(1, abs(b) + 1):
        acc += _cis((l * q - p) * r, q * b) * float(bernoulli_function(j, (l - x) / b))
    return coef * acc


def _bilateral(j: int, b: int, r: int, x: Fraction, K: int,
               series: Callable[[float, Optional[int]], Union[float, complex]]) -> tuple:
    """Lemmas 2.4 (x = 0) and 2.7: approximation, reference and tolerance.

    The series is the sum over |d| <= K, d != pole, of e(dx) / (d + alpha)^j
    with alpha = r/b, which ``series(shift, pole)`` evaluates after the gates
    and before the exact reference, so that an order past the double range
    raises before any exact work.  The tolerance bounds its tail beyond
    |d| = K (K past the pole), plus 1e-12:
    - j = 1, fractional x: Abel summation bounds each one-sided tail by
      2/(|sin(pi x)| (K+1-|alpha|)), giving 8/(|sin(pi x)| K) after pairing;
    - j = 1, integer x: pairing leaves sum_{d>K} 2*alpha/(alpha^2 - d^2),
      bounded by 4(|alpha|+1)/K (the integer-alpha shifted-harmonic case too);
    - j >= 2: the two-sided integral bound 2*(K-|alpha|)^(1-j)/(j-1).
    """
    if j < 1:
        raise ValueError("power j must be >= 1")
    if b == 0:
        raise ValueError("modulus b must be nonzero")
    alpha = Fraction(r, b)
    _gate_level(K)
    # The tail bounds assume the window clears the pole with room to spare.
    need = 2 * (math.ceil(abs(alpha)) + 1)
    if K < need:
        raise ValueError(f"truncation level K={K} too small for pole at {-alpha} "
                         f"(need K >= {need})")
    approx = series(float(alpha), _pole(alpha))
    a, t = abs(float(alpha)), frac(x)
    if j == 1:
        tail = 8.0 / (math.sin(math.pi * float(t)) * K) if t else 4.0 * (a + 1.0) / K
    else:
        tail = 2.0 * (K - a) ** (1 - j) / (j - 1)
    return approx, _lemma_reference(j, b, r, x), tail + 1e-12


def lemma24_check(j: int, b: int, r: int, K: int) -> TruncationReport:
    """Check the unweighted bilateral power sum against its closed form."""
    j, b, r, K = _admit("lemma24", j, b, r, K)
    with _in_double_range("j", j):
        approx, reference, tolerance = _bilateral(
            j, b, r, Fraction(0), K, lambda shift, pole: _series([1.0], shift, j, -K, K, pole))
    return _report("lemma24", (("j", j), ("b", b), ("r", r)), K,
                   approx, reference.real, tolerance)


def lemma27_check(j: int, b: int, r: int, x: Fraction, K: int) -> TruncationReport:
    """Check the phase-weighted bilateral power sum against its closed form.

    For integer x this coincides with the unweighted check.
    """
    j, b, r, x, K = _admit("lemma27", j, b, r, x, K)
    p, q = x.numerator, x.denominator

    def series(shift: float, pole: Optional[int]) -> complex:
        phases = _window_weights(lambda d: _cis(d * p, q), q, -K, K)
        return _complex_series(phases, shift, j, -K, K, pole)

    with _in_double_range("j", j):
        approx, reference, tolerance = _bilateral(j, b, r, x, K, series)
    return _report("lemma27", (("j", j), ("b", b), ("r", r), ("x", x)), K,
                   approx, reference, tolerance)


def zeta_even_check(j: int, K: int) -> TruncationReport:
    """Check the partial sum of n^(-2j) against the closed form for even zeta.

    Tolerance is the integral tail bound K^(1-2j)/(2j-1).
    """
    j, K = _admit("zeta-even", j, K)
    if j < 1:
        raise ValueError("j must be >= 1")
    _gate_level(K)
    with _in_double_range("j", j):
        # The float steps first: an order past the double range raises before
        # the exact Bernoulli number is grown.
        approx = _series([1.0], 0.0, 2 * j, 1, K)
        pi_power = math.pi ** (2 * j)
        coeff = Fraction((-1) ** (j + 1) * 2 ** (2 * j - 1), math.factorial(2 * j)) \
            * bernoulli_number(2 * j)
        reference = float(coeff) * pi_power
    tolerance = float(K) ** (1 - 2 * j) / (2 * j - 1)
    return _report("zeta_even", (("j", j),), K, approx, reference, tolerance)


class AnalyticSpec(NamedTuple):
    """Declared parameters of one truncation check, in its argument order."""

    fn: Callable[..., TruncationReport]
    params: Params
    flags = ()


# Command-line tag -> check; the report of "zeta-even" names its target "zeta_even".
ANALYTIC_TARGETS = {
    "fourier": AnalyticSpec(fourier_partial, {"n": int, "x": Fraction, "K": int}),
    "lemma24": AnalyticSpec(lemma24_check, {"j": int, "b": int, "r": int, "K": int}),
    "lemma27": AnalyticSpec(lemma27_check,
                            {"j": int, "b": int, "r": int, "x": Fraction, "K": int}),
    "zeta-even": AnalyticSpec(zeta_even_check, {"j": int, "K": int}),
}


# The exact lemmas are not truncation checks, so the command line does not
# list them, but they admit their arguments by the same rules.
_EXACT_PARAMS = {"lemma22": declare(ints=("m", "n"), rationals=("d", "x", "y")),
                 "lemma28": declare(ints=("m", "n"))}


def lemma22_exact(m: int, n: int, d: Fraction, x: Fraction,
                  y: Fraction) -> tuple[Fraction, Fraction]:
    """Partial-fraction split of 1/((d-x)^m (d-y)^n), both sides exactly.

    Returns ``(lhs, rhs)``; the two are equal for all admissible inputs.
    """
    m, n, d, x, y = _admit("lemma22", m, n, d, x, y)
    if m < 1 or n < 1:
        raise ValueError("orders m, n must be >= 1")
    if d == x or d == y or x == y:
        raise ValueError("requires d != x, d != y, x != y")
    lhs = 1 / ((d - x) ** m * (d - y) ** n)
    rhs = Fraction(0)
    for j in range(1, m + 1):
        rhs += binomial(m + n - j - 1, n - 1) * (-1) ** (m - j) \
            / ((x - y) ** (m + n - j) * (d - x) ** j)
    for j in range(1, n + 1):
        rhs += binomial(m + n - j - 1, m - 1) * (-1) ** (n - j) \
            / ((y - x) ** (m + n - j) * (d - y) ** j)
    return lhs, rhs


def lemma28_exact(m: int, n: int) -> tuple[int, int]:
    """Diagonal binomial sum versus its closed form, both sides exactly."""
    m, n = _admit("lemma28", m, n)
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    lhs = sum(binomial(m + n - j - 1, n - 1) for j in range(1, m + 1))
    rhs = binomial(m + n - 1, n)
    return lhs, rhs
