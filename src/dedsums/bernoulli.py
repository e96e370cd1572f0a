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
``L_n d^n B_n(t/d)`` is an integer.  One bounded memo holds these integers
for ``0 <= t < d``; the lattice sums add them and build one Fraction per
sum, the closed-form terms of the identity checks read them as integer
pairs ``(L_n d^n K, L_n d^n)`` from :func:`_kernel_pair`, and the public
kernels build their one Fraction from that pair.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .exact import binomial

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


class BernoulliCache:
    """Grow-on-demand table of Bernoulli numbers and polynomial rows.

    ``_numbers[j]`` is B_j; ``_rows[n]`` holds the monomial coefficients of
    B_n(x) ordered from degree n down to degree 0 (the coefficient of
    x^(n-k) is C(n, k) * B_k); ``_scaled[n]`` is that row in integers,
    ``(L, L * _rows[n])`` with L the lcm of the denominators of B_0..B_n.
    Requesting index ``j`` fills all three tables up to ``j`` in one locked
    step; reads after fill are pure.
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
                row = tuple(binomial(k, i) * self._numbers[i] for i in range(k + 1))
                self._rows.append(row)
                lcm = math.lcm(self._scaled[-1][0], bk.denominator)
                self._scaled.append((lcm, tuple(c.numerator * (lcm // c.denominator)
                                                for c in row)))

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
            self._grow(n)
        return self._scaled[n]


_CACHE = BernoulliCache()


def bernoulli_number(j: int) -> Fraction:
    """The j-th Bernoulli number B_j (convention B_j = B_j(0), B_1 = -1/2)."""
    if type(j) is not int:
        raise ValueError(f"Bernoulli number index must be an int, got {j!r}")
    return _CACHE.number(j)


def bernoulli_poly_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x), degree n first, degree 0 last."""
    if type(n) is not int:
        raise ValueError(f"degree must be an int, got {n!r}")
    return _CACHE.poly_row(n)


def _admit(x: Fraction, n: int) -> None:
    # The public kernels take an int degree (not a bool) and an exact point,
    # an int (not a bool) or a Fraction; a float would run on its binary value.
    if type(n) is not int:
        raise ValueError(f"degree must be an int, got {n!r}")
    if type(x) is not int and type(x) is not Fraction:
        raise ValueError(f"kernel argument must be an int or a Fraction, got {x!r}")


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """Exact value of the Bernoulli polynomial B_n(x)."""
    _admit(x, n)
    return Fraction(_scaled_poly(n, x.numerator, x.denominator), _scale(n, x.denominator))


def bernoulli_poly_derivative_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of d/dx B_n(x); equals n times the row of B_{n-1}."""
    if type(n) is not int or n < 1:
        raise ValueError(f"derivative row requires an int degree >= 1, got {n!r}")
    row = _CACHE.poly_row(n)
    return tuple((n - i) * row[i] for i in range(n))


# (L_n, (L_n C(n, k) B_k for k = 0..n)): one shared table per order, read by
# both lattice routes and every kernel pair (bound once: it is called per sum,
# per kernel pair and per memo miss).
_scaled_row = _CACHE.scaled_row


def _scale(n: int, d: int) -> int:
    # L_n d^n: the denominator of every kernel value at a point t/d.
    return _scaled_row(n)[0] * d ** n


def _scaled_poly(n: int, t: int, d: int) -> int:
    """The integer ``L_n d^n B_n(t/d)`` = sum_k L_n C(n, k) B_k d^k t^(n-k), d > 0."""
    acc, dk = 0, 1
    for c in _scaled_row(n)[1]:
        acc = acc * t + c * dk
        dk *= d
    return acc


# The one kernel memo, read with 0 <= t < d: once per term by the direct
# lattice route and once per kernel value by :func:`_kernel_pair`.  Int keys
# and values hash and multiply fast; the bound keeps a direct-route sum over
# a large modulus from growing it without limit.
_poly_at_pair = lru_cache(maxsize=1 << 16)(_scaled_poly)


def _kernel_pair(n: int, num: int, den: int, raw: bool = False) -> tuple[int, int]:
    """``(L_n d^n K, L_n d^n)`` for the kernel value K at num/den, den != 0.

    ``d`` is the reduced denominator of num/den.  K is the periodized kernel
    (0 at integers in degree 1), or the raw kernel B_n({num/den}) when
    ``raw`` is set.
    """
    if den < 0:
        num, den = -num, -den
    t = num % den
    g = math.gcd(t, den)
    t, den = t // g, den // g
    scale = _scale(n, den)
    if t == 0 and n == 1 and not raw:
        return 0, scale
    return _poly_at_pair(n, t, den), scale


def sawtooth(x: Fraction) -> Fraction:
    """The sawtooth ((x)): 0 at integers, {x} - 1/2 elsewhere."""
    return bernoulli_function(1, x)


def bernoulli_function(n: int, x: Fraction) -> Fraction:
    """The n-th periodized Bernoulli function.

    Degree 0 is the constant 1, degree 1 is the sawtooth (0 at integers),
    and degree n >= 2 is B_n({x}).
    """
    _admit(x, n)
    if n < 0:
        raise ValueError("Bernoulli function index must be >= 0")
    return Fraction(*_kernel_pair(n, x.numerator, x.denominator))


def carlitz_kernel(n: int, x: Fraction) -> Fraction:
    """B_n({x}) with no integer-point adjustment: B_1({k}) = -1/2 for k in Z."""
    _admit(x, n)
    if n < 0:
        raise ValueError("kernel index must be >= 0")
    return Fraction(*_kernel_pair(n, x.numerator, x.denominator, True))


def clear_eval_cache() -> None:
    """Drop the kernel memo alone; ``clear_caches()`` drops it with the others."""
    _poly_at_pair.cache_clear()
