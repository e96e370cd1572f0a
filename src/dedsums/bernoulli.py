"""Bernoulli numbers, Bernoulli polynomials, and their periodized kernels.

Two one-periodic kernels are exposed and they differ only at integers:

* :func:`bernoulli_function` -- the periodized Bernoulli function, whose
  degree-1 member is the sawtooth (value 0 at integers);
* :func:`carlitz_kernel` -- the raw polynomial evaluated at the fractional
  part, whose degree-1 member takes the value -1/2 at integers.

Some sum families are defined with one kernel, some with the other, so the
distinction is load-bearing: collapsing the two silently changes values on
integer lattice arguments.

Numbers and coefficient rows are grown on demand by the defining recurrence
``sum_{j=0}^{n} C(n+1, j) B_j = 0`` with ``B_0 = 1`` (convention
``B_j = B_j(0)``, so ``B_1 = -1/2``), memoized in a process-wide cache that
is synchronized for concurrent use.  The same cache keeps each row in
integers, scaled by the lcm ``L_n`` of the denominators of ``B_0..B_n``:
``L_n d^n B_n(t/d)`` is an integer.  The exact sums add those integers and
build one Fraction per sum; every other polynomial value is one of them
over ``L_n d^n``.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .exact import binomial, floor_frac

__all__ = [
    "BernoulliCache",
    "bernoulli_number",
    "bernoulli_poly_coeffs",
    "bernoulli_poly",
    "bernoulli_poly_derivative_coeffs",
    "sawtooth",
    "bernoulli_function",
    "carlitz_kernel",
]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class BernoulliCache:
    """Grow-on-demand table of Bernoulli numbers and polynomial rows.

    ``numbers[j]`` is B_j; ``poly_rows[n]`` holds the monomial coefficients
    of B_n(x) ordered from degree n down to degree 0 (the coefficient of
    x^(n-k) is C(n, k) * B_k).  Requesting index ``j`` fills every index up
    to ``j``; growth is guarded by a lock, reads after fill are pure.
    """

    def __init__(self) -> None:
        self._numbers: list[Fraction] = [Fraction(1)]
        self._rows: list[tuple[Fraction, ...]] = [(Fraction(1),)]
        self._scaled: list[tuple[int, tuple[int, ...]]] = [(1, (1,))]
        self._lock = threading.Lock()

    def _grow(self, n: int) -> None:
        with self._lock:
            while len(self._numbers) <= n:
                k = len(self._numbers)
                # B_k = -1/(k+1) * sum_{j<k} C(k+1, j) B_j
                acc = _ZERO
                for j, bj in enumerate(self._numbers):
                    acc += binomial(k + 1, j) * bj
                bk = -acc / (k + 1)
                self._numbers.append(bk)
                self._rows.append(
                    tuple(binomial(k, i) * self._numbers[i] for i in range(k + 1))
                )

    def number(self, j: int) -> Fraction:
        if j < 0:
            raise ValueError("Bernoulli number index must be >= 0")
        if j >= len(self._numbers):
            self._grow(j)
        return self._numbers[j]

    def poly_row(self, n: int) -> tuple[Fraction, ...]:
        if n < 0:
            raise ValueError("Bernoulli polynomial degree must be >= 0")
        if n >= len(self._rows):
            self._grow(n)
        return self._rows[n]

    def scaled_row(self, n: int) -> tuple[int, tuple[int, ...]]:
        """``(L, (L C(n, k) B_k for k = 0..n))``, L the lcm of the denominators of B_0..B_n.

        The integers are ``L`` times :meth:`poly_row`, in its order.
        """
        if n < 0:
            raise ValueError("Bernoulli polynomial degree must be >= 0")
        if n >= len(self._scaled):
            self.poly_row(n)
            with self._lock:
                while len(self._scaled) <= n:
                    k = len(self._scaled)
                    lcm = math.lcm(self._scaled[-1][0], self._numbers[k].denominator)
                    self._scaled.append((lcm, tuple(
                        c.numerator * (lcm // c.denominator) for c in self._rows[k])))
        return self._scaled[n]


_CACHE = BernoulliCache()


def bernoulli_number(j: int) -> Fraction:
    """The j-th Bernoulli number B_j (convention B_j = B_j(0), B_1 = -1/2)."""
    return _CACHE.number(j)


def bernoulli_poly_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x), degree n first, degree 0 last."""
    return _CACHE.poly_row(n)


def _admit(x: Fraction, n: int = 1) -> None:
    # The public kernels take an int degree (not a bool) and an exact point,
    # an int (not a bool) or a Fraction; a float would run on its binary value.
    if type(n) is not int:
        raise ValueError(f"degree must be an int, got {n!r}")
    if type(x) is not int and type(x) is not Fraction:
        raise ValueError(f"kernel argument must be an int or a Fraction, got {x!r}")


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """Exact value of the Bernoulli polynomial B_n(x)."""
    _admit(x, n)
    return _poly_value(n, x.numerator, x.denominator)


def bernoulli_poly_derivative_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of d/dx B_n(x); equals n times the row of B_{n-1}."""
    if n < 1:
        raise ValueError("derivative row requires degree >= 1")
    row = _CACHE.poly_row(n)
    return tuple((n - i) * row[i] for i in range(n))


# (L_n, (L_n C(n, k) B_k for k = 0..n)): one shared table per order, read
# by both lattice routes (bound once: it is called per sum and per memo miss).
_scaled_row = _CACHE.scaled_row


def _scaled_poly(n: int, t: int, d: int) -> int:
    """The integer ``L_n d^n B_n(t/d)`` = sum_k L_n C(n, k) B_k d^k t^(n-k), d > 0."""
    acc, dk = 0, 1
    for c in _scaled_row(n)[1]:
        acc = acc * t + c * dk
        dk *= d
    return acc


def _poly_value(n: int, tn: int, td: int) -> Fraction:
    # B_n(tn/td) for any integer tn and td > 0: the integer above over L_n td^n.
    return Fraction(_scaled_poly(n, tn, td), _scaled_row(n)[0] * td ** n)


# The kernel memo of the direct lattice route, read once per term with
# 0 <= t < d; int keys and values hash and multiply fast.  The bound keeps a
# direct-route sum over a large modulus from growing it without limit.
_scaled_poly_at = lru_cache(maxsize=1 << 16)(_scaled_poly)


# The kernel memo of the kernel functions below, which the closed-form terms
# of the identity checks call, with tn/td a reduced fraction in [0, 1); int
# keys hash much faster than Fraction keys, and hits dominate in grid sweeps.
_poly_at_pair = lru_cache(maxsize=1 << 16)(_poly_value)


def _bbar_pair(n: int, num: int, den: int) -> Fraction:
    """Periodized kernel at num/den without constructing intermediate Fractions."""
    if den < 0:
        num, den = -num, -den
    t = num % den
    if t == 0:
        return _ZERO if n == 1 else _poly_at_pair(n, 0, 1)
    g = math.gcd(t, den)
    return _poly_at_pair(n, t // g, den // g)


def _carlitz_pair(n: int, num: int, den: int) -> Fraction:
    """Raw polynomial kernel at the fractional part of num/den."""
    if den < 0:
        num, den = -num, -den
    t = num % den
    g = math.gcd(t, den)
    return _poly_at_pair(n, t // g, den // g)


def sawtooth(x: Fraction) -> Fraction:
    """The sawtooth ((x)): 0 at integers, {x} - 1/2 elsewhere."""
    _admit(x)
    _, t = floor_frac(x)
    if t == 0:
        return _ZERO
    return t - _HALF


def bernoulli_function(n: int, x: Fraction) -> Fraction:
    """The n-th periodized Bernoulli function.

    Degree 0 is the constant 1, degree 1 is the sawtooth (0 at integers),
    and degree n >= 2 is B_n({x}).
    """
    _admit(x, n)
    if n < 0:
        raise ValueError("Bernoulli function index must be >= 0")
    return _bbar_pair(n, x.numerator, x.denominator)


def carlitz_kernel(n: int, x: Fraction) -> Fraction:
    """B_n({x}) with no integer-point adjustment: B_1({k}) = -1/2 for k in Z."""
    _admit(x, n)
    if n < 0:
        raise ValueError("kernel index must be >= 0")
    return _carlitz_pair(n, x.numerator, x.denominator)


def clear_eval_cache() -> None:
    """Drop memoized kernel evaluations (used to bound memory in long sweeps)."""
    _poly_at_pair.cache_clear()
    _scaled_poly_at.cache_clear()
