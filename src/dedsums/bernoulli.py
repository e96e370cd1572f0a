"""Bernoulli numbers, Bernoulli polynomials, and their periodized kernels.

Two one-periodic kernels are exposed and they differ only at integers:

* :func:`bernoulli_function` -- the periodized Bernoulli function, whose
  degree-1 member is the sawtooth (value 0 at integers);
* :func:`carlitz_kernel` -- the raw polynomial evaluated at the fractional
  part, whose degree-1 member takes the value -1/2 at integers.

Some sum families are defined with one kernel, some with the other, so the
distinction is load-bearing: collapsing the two silently changes values on
integer lattice arguments.

The cache keeps one table, in integers, grown on demand by the defining
recurrence ``sum_{j=0}^{n} C(n+1, j) B_j = 0`` with ``B_0 = 1`` (convention
``B_j = B_j(0)``, so ``B_1 = -1/2``) and synchronized for concurrent use.
Row n is B_n(x) scaled by the lcm ``L_n`` of the denominators of
``B_0..B_n``, so ``L_n d^n B_n(t/d)`` is an integer.  One bounded memo holds
these integers for ``0 <= t < d``; the lattice sums add them and build one
Fraction per sum, the closed-form terms of the identity checks read them as
integer pairs ``(L_n d^n K, L_n d^n)`` from :func:`_kernel_pair` and B_j as
``(L_j B_j, L_j)`` from :func:`_number_pair`, and the public entries, each
admitted by its declared signature, build their Fractions from the table.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .params import Gate, Signature, admit, declare

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


class BernoulliCache:
    """Grow-on-demand table of Bernoulli polynomial rows, in integers.

    ``_scaled[n]`` is ``(L, (L C(n, k) B_k for k = 0..n))`` with L the lcm
    of the denominators of B_0..B_n: the monomial coefficients of B_n(x),
    degree n first, times L.  B_j is entry j of row j over its L.
    Requesting order ``n`` fills the table up to ``n`` in one locked step;
    reads after fill are pure.
    """

    def __init__(self) -> None:
        self._scaled: list[tuple[int, tuple[int, ...]]] = [(1, (1,))]
        self._lock = threading.Lock()

    def _grow(self, n: int) -> None:
        # Row k from row k-1 = (L, (L C(k-1, j) B_j)), L = L_{k-1}: L C(k, j)
        # B_j is its entry times k/(k-j), and L C(k+1, j) B_j that times
        # (k+1)/(k+1-j), both exact.  The recurrence gives B_k =
        # -sum_{j<k} C(k+1, j) B_j / (k+1), reduced once; L_k = L * scale.
        with self._lock:
            while len(self._scaled) <= n:
                k = len(self._scaled)
                lcm, prev = self._scaled[-1]
                row = [c * k // (k - j) for j, c in enumerate(prev)]
                acc = sum([c * (k + 1) // (k + 1 - j) for j, c in enumerate(row)])
                g = math.gcd(acc, (k + 1) * lcm)
                top, bottom = -acc // g, (k + 1) * lcm // g
                scale = bottom // math.gcd(lcm, bottom)
                self._scaled.append((lcm * scale, (*(c * scale for c in row),
                                                   top * (lcm * scale // bottom))))

    def number(self, j: int) -> Fraction:
        lcm, row = self.scaled_row(j)
        return Fraction(row[j], lcm)

    def poly_row(self, n: int) -> tuple[Fraction, ...]:
        lcm, row = self.scaled_row(n)
        return tuple(Fraction(c, lcm) for c in row)

    def scaled_row(self, n: int) -> tuple[int, tuple[int, ...]]:
        """Row n, ``(L, (L C(n, k) B_k for k = 0..n))``: L times :meth:`poly_row`."""
        if n < 0:
            raise ValueError("Bernoulli order must be >= 0")
        if n >= len(self._scaled):
            self._grow(n)
        return self._scaled[n]


_CACHE = BernoulliCache()

# The public kernels' declared parameters and gates: each admits its call by
# its signature (an order an int, a point an int or a Fraction).
_ORDER = {"n": (Gate("least", 0, "order n must be >= 0"),)}
_SIGNATURES = {
    "bernoulli_number": Signature("bernoulli_number", declare(("j",)),
                                  {"j": (Gate("least", 0, "index j must be >= 0"),)}),
    "bernoulli_poly_coeffs": Signature("bernoulli_poly_coeffs", declare(("n",)), _ORDER),
    "bernoulli_poly_derivative_coeffs": Signature(
        "bernoulli_poly_derivative_coeffs", declare(("n",)),
        {"n": (Gate("least", 1, "order n must be >= 1"),)}),
    **{name: Signature(name, declare(("n",), ("x",)), _ORDER)
       for name in ("bernoulli_poly", "bernoulli_function", "carlitz_kernel")},
    "sawtooth": Signature("sawtooth", declare(rationals=("x",))),
}


def bernoulli_number(j: int) -> Fraction:
    """The j-th Bernoulli number B_j (convention B_j = B_j(0), B_1 = -1/2)."""
    admit(_SIGNATURES["bernoulli_number"], (j,))
    return _CACHE.number(j)


def bernoulli_poly_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x), degree n first, degree 0 last."""
    admit(_SIGNATURES["bernoulli_poly_coeffs"], (n,))
    return _CACHE.poly_row(n)


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """Exact value of the Bernoulli polynomial B_n(x)."""
    n, x = admit(_SIGNATURES["bernoulli_poly"], (n, x))
    return Fraction(_scaled_poly(n, x.numerator, x.denominator), _scale(n, x.denominator))


def bernoulli_poly_derivative_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of d/dx B_n(x); equals n times the row of B_{n-1}."""
    admit(_SIGNATURES["bernoulli_poly_derivative_coeffs"], (n,))
    lcm, row = _scaled_row(n)
    return tuple(Fraction((n - i) * c, lcm) for i, c in enumerate(row[:n]))


# (L_n, (L_n C(n, k) B_k for k = 0..n)): the one table, read by both lattice
# routes, every kernel pair and every number pair (bound once: it is called
# per sum, per pair and per memo miss).
_scaled_row = _CACHE.scaled_row
_SCALED = _CACHE._scaled  # the same table as a list, which _scale reads unchecked


def _scale(n: int, d: int) -> int:
    # L_n d^n: the denominator of every kernel value at a point t/d.  L_n is
    # read from the table once it holds order n; the checked call grows it.
    return (_SCALED[n][0] if 0 <= n < len(_SCALED) else _scaled_row(n)[0]) * d ** n


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


def _number_pair(j: int) -> tuple[int, int]:
    """B_j as the integer pair ``(L_j B_j, L_j)``, read from the table."""
    lcm, row = _scaled_row(j)
    return row[j], lcm


def sawtooth(x: Fraction) -> Fraction:
    """The sawtooth ((x)): 0 at integers, {x} - 1/2 elsewhere."""
    (x,) = admit(_SIGNATURES["sawtooth"], (x,))
    return Fraction(*_kernel_pair(1, x.numerator, x.denominator))


def bernoulli_function(n: int, x: Fraction) -> Fraction:
    """The n-th periodized Bernoulli function.

    Degree 0 is the constant 1, degree 1 is the sawtooth (0 at integers),
    and degree n >= 2 is B_n({x}).
    """
    n, x = admit(_SIGNATURES["bernoulli_function"], (n, x))
    return Fraction(*_kernel_pair(n, x.numerator, x.denominator))


def carlitz_kernel(n: int, x: Fraction) -> Fraction:
    """B_n({x}) with no integer-point adjustment: B_1({k}) = -1/2 for k in Z."""
    n, x = admit(_SIGNATURES["carlitz_kernel"], (n, x))
    return Fraction(*_kernel_pair(n, x.numerator, x.denominator, True))


def clear_eval_cache() -> None:
    """Drop the kernel memo alone; ``clear_caches()`` drops it with the others."""
    _poly_at_pair.cache_clear()
