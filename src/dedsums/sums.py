"""Every Dedekind-type sum family, evaluated exactly from its defining sum.

Each family is one lattice sum under its own parameters: the sum over
``r = 1 .. N`` of ``K_m((p1 r + q1)/d1) K_n((p2 r + q2)/d2)``, where ``K``
is the periodized Bernoulli kernel (the raw kernel ``B_n({.})`` for
``carlitz_s``) and the two linear forms carry the family's tops, modulus
and shifts with signed division.  A family's pair helper (``_classical``
for :func:`classical_s`, and so on; :func:`hwz_s` and :func:`s_mn_two`
build theirs inline) builds these integers and returns the integer pair
of :func:`_lattice_sum`; the public function gates its arguments and
makes one Fraction of that pair.  Both kernels
have period 1, so the core first replaces each slope ``p`` by its signed
residue mod ``d`` (``|p| <= d/2``), which changes no term, and then takes
one of two routes to the same exact value.
Both work in integers: each factor's kernel value scaled by ``L_n d^n``
(``L_n`` the lcm of the denominators of ``B_0..B_n``) is an integer, so a
sum is one integer numerator over the predictable denominator
``L_m d1^m L_n d2^n``, and the core returns that pair, unreduced.  The
checkers of :mod:`dedsums.reciprocity` fold the helpers' pairs, and their
binomial sides build their two forms once and read the pairs of every
order pair straight from the core.

* **direct** -- the literal loop, one product of two integer kernel values
  ``L_n d^n K_n(t/d)`` (``t = num mod d``) per term.  The kernel values
  come from the memo in :mod:`dedsums.bernoulli`, which grid sweeps over
  small moduli hit constantly.
* **piecewise** -- while ``r`` runs over a stretch where neither ``floor``
  moves, each factor is a polynomial in ``r``, so the stretch is summed in
  closed form with power sums; a periodized degree-1 factor, which is 0 and
  not ``-1/2`` at an integer argument, is corrected at those points one by
  one.  Its cost follows the number of stretches (about
  ``|p1| N/d1 + |p2| N/d2`` with the reduced slopes), not ``N``, and it
  fills no kernel memo.

The piecewise route is a regrouping of the terms of the defining sum, not a
reciprocity law, so either side of an identity check may use it: the
checks in :mod:`dedsums.reciprocity` still compare a lattice sum with
closed-form terms and sums over the other moduli.  :func:`_piecewise_pays`
picks the route by a rule measured in (orders, stretches, ``N``); small
moduli always take the direct route.  Negative moduli are supported
wherever the defining sum permits them.  One bounded memo on
:func:`_lattice_sum`, keyed by its integer arguments, holds every value, so
families that are the same lattice sum share entries; orders, tops and
moduli must be ints and shifts ints or Fractions, else ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from .bernoulli import _poly_at_pair, _scale, _scaled_poly, _scaled_row
from .exact import floor_frac, format_rational
from .params import Params, coerce, declare, lookup

__all__ = [
    "classical_s",
    "rademacher_s",
    "berndt_s",
    "apostol_s",
    "carlitz_s",
    "hwz_s",
    "s_mn_two",
    "s_n_two",
    "s_mn_plain",
    "count_ladder",
    "SumRequest",
    "SUM_FAMILIES",
]

_CACHE_SIZE = 1 << 16
_EXACT = (int, Fraction)


def _require_nonzero(value: int, name: str) -> None:
    if value == 0:
        raise ValueError(f"modulus {name} must be nonzero")


def _require_order(value: int, name: str, minimum: int = 0) -> None:
    if type(value) is not int:  # a bool, a float or a string is refused
        raise ValueError(f"order {name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"order {name} must be >= {minimum}")


# ---------------------------------------------------------------------------
# The lattice-sum core
# ---------------------------------------------------------------------------

def _form(top: int, mod: int, shift: Fraction | int, offset: Fraction | int = 0,
          sign: int = 1) -> tuple[int, int, int]:
    """Integers (p, q, d), d > 0, with (p r + q)/d = top (r + shift)/mod + sign offset.

    Every top and modulus of a family passes here: they must be ints (not
    bools), and the shift and offset ints or Fractions.
    """
    if type(top) is not int or type(mod) is not int:
        raise ValueError(f"tops and moduli must be ints, got {top!r} and {mod!r}")
    if type(shift) not in _EXACT or type(offset) not in _EXACT:
        raise ValueError(f"shifts must be ints or Fractions, got {shift!r} and {offset!r}")
    sn, sd = shift.as_integer_ratio()
    on, od = offset.as_integer_ratio()
    p, q, d = top * sd * od, top * sn * od + sign * on * sd * mod, sd * mod * od
    return (p, q, d) if d > 0 else (-p, -q, -d)


def _solve_linear(p: int, q: int, d: int) -> tuple[int, int] | None:
    """(residue, step) with d | p r + q exactly when r = residue mod step."""
    g = math.gcd(p, d)
    if q % g:
        return None
    step = d // g
    return (-(q // g) * pow(p // g, -1, step)) % step, step


# Dispatch rule.  Each route forced on one lattice sum of N terms with S
# stretches (forms (3t, q, 3N), tops t set for R = N/S terms per stretch;
# one nonconstant factor, or two), cold and warm kernel memo, 2-core x86-64
# KVM guest, Python 3.11.7.  The ratio R at which both routes cost the same:
#
#   N      factors   m+n = 2      m+n = 5      m+n = 8    (cold / warm)
#   97        1      7.2 / 22     8.9 / 29    11.6 / >48
#   97        2      5.1 / 36     8.9 / >48   17.8 / >48
#   257       1      6.5 / 14     8.4 / 19     9.6 / 32
#   257       2      3.9 / 16     5.5 / 35     7.4 / >48
#   4001      1      5.6 / 11     6.8 / 14     8.6 / 24
#   4001      2      3.7 / 13     6.5 / 16     5.8 / 47
#
# A direct term costs 0.8-2.7 us cold and 0.4-0.7 us warm, a stretch 4-25 us.
# The rule takes the piecewise route when it covers at least (4 + m + n)
# terms per stretch (6, 9, 12 at m + n = 2, 5, 8), and only from 64 terms
# up: the cold crossover, within its spread, while the warm one is 2-5 times
# higher.  Which applies depends on whether an earlier sum over the same
# denominator filled the kernel memo, which the rule cannot see, so no one
# crossover shows and the constants stay.  Grid sweeps over small moduli
# (every acceptance grid, |modulus| <= 30, and the identity and CLI sweeps,
# |modulus| <= 9) stay below 64 terms and on the direct route.
_PIECEWISE_MIN_TERMS = 64


def _piecewise_pays(m: int, n: int, stretches: int, count: int) -> bool:
    """True when the piecewise route is measured to beat the direct loop."""
    return count >= _PIECEWISE_MIN_TERMS and count >= (4 + m + n) * stretches


def _reduce(form: tuple[int, int, int]) -> tuple[int, int, int]:
    # Both kernels have period 1, so at integer r a slope p mod d and an offset
    # q mod d give the same terms; the slope is the signed residue, |p| <= d/2.
    p, q, d = form
    p %= d
    return (p - d if 2 * p > d else p), q % d, d


@lru_cache(maxsize=_CACHE_SIZE)
def _lattice_sum(m: int, f1: tuple[int, int, int], n: int, f2: tuple[int, int, int],
                 count: int, raw: bool = False) -> tuple[int, int]:
    """Sum over r = 1..count of K_m((p1 r + q1)/d1) K_n((p2 r + q2)/d2).

    ``f1`` and ``f2`` are the forms ``(p, q, d)`` with ``d > 0``; ``K`` is
    the periodized kernel, or the raw kernel B_n({.}) when ``raw`` is set.
    The sum is the integer pair ``(num, L_m d1^m L_n d2^n)``, by either
    route and not reduced; ``Fraction(*pair)`` is its value, and
    ``reciprocity._fold`` reads the pair as a factor as it is.  The
    arguments are not checked here: the callers build them with
    :func:`_form`.
    """
    f1, f2 = _reduce(f1), _reduce(f2)
    if count >= _PIECEWISE_MIN_TERMS:
        # A factor's floor takes |floor(u(count)) - floor(u(1))| + 1 values;
        # a factor of order 0 is the constant 1 and never breaks a stretch.
        stretches = 1 + sum(abs((p * count + q) // d - (p + q) // d)
                            for order, (p, q, d) in ((m, f1), (n, f2)) if order)
        if _piecewise_pays(m, n, stretches, count):
            return _piecewise_sum(m, f1, n, f2, count, raw)
    # Each term is k1 k2 over the fixed denominator L_m d1^m L_n d2^n, k being
    # the integer kernel value L d^order K(t/d) at t = num mod d from the one
    # kernel memo, which the closed-form terms of the checks read too; the
    # periodized degree-1 kernel is 0, not B_1(0) = -1/2, at t = 0.
    (p1, t1, d1), (p2, t2, d2) = f1, f2
    zero1, zero2 = m == 1 and not raw, n == 1 and not raw
    kernel = _poly_at_pair
    acc = 0
    for _ in range(count):
        t1 = (t1 + p1) % d1
        t2 = (t2 + p2) % d2
        if (t1 or not zero1) and (t2 or not zero2):
            acc += kernel(m, t1, d1) * kernel(n, t2, d2)
    return acc, _scale(m, d1) * _scale(n, d2)


def _kernel_numerator(order: int, num: int, den: int, raw: bool) -> int:
    # The integer L den^order K(num/den) of the direct route, without its memo.
    t = num % den
    if t == 0 and order == 1 and not raw:
        return 0
    return _scaled_poly(order, t, den)


def _stretch_numerators(order: int, p: int, q: int, d: int, r: int) -> tuple[list[int], int]:
    """Integers N_j with L d^order B_order({(p (r + t) + q)/d}) = sum_j N_j t^j.

    L is the lcm of the denominators of B_0..B_order.  The floor is constant
    from ``r`` through the returned last point, so the fractional part is
    (g + p t)/d there, and L d^order B_order(u/d) is the integer polynomial
    P(u) = sum_k L C(order, k) B_k d^k u^(order-k) at u = g + p t: P shifted
    by g (Ruffini-Horner), then its t^j coefficient times p^j.
    """
    fl, g = divmod(p * r + q, d)
    last = ((fl + 1) * d - q - 1) // p if p > 0 else (q - fl * d) // -p
    # coeffs[i] is the coefficient of u^i of P
    coeffs, dk = [], 1
    for c in _scaled_row(order)[1]:
        coeffs.append(c * dk)
        dk *= d
    coeffs.reverse()
    for i in range(order):
        for k in range(order - 1, i - 1, -1):
            coeffs[k] += g * coeffs[k + 1]
    pj = 1
    for j in range(order + 1):
        coeffs[j] *= pj
        pj *= p
    return coeffs, last


def _power_sums(degree: int, top: int) -> list[int]:
    """sum_{t=0}^{top} t^k (with 0^0 = 1) for k = 0..degree.

    Telescoping (t+1)^(k+1) - t^(k+1) over t = 0..top gives
    (top+1)^(k+1) = sum_{i<=k} C(k+1, i) S_i, solved for S_k in turn.
    """
    sums: list[int] = []
    for k in range(degree + 1):
        acc = (top + 1) ** (k + 1) - sum(math.comb(k + 1, i) * s for i, s in enumerate(sums))
        sums.append(acc // (k + 1))
    return sums


def _piecewise_sum(m: int, f1: tuple[int, int, int], n: int, f2: tuple[int, int, int],
                   count: int, raw: bool) -> tuple[int, int]:
    """:func:`_lattice_sum` by closed-form sums over the stretches of constant floors.

    Each stretch adds an integer to one numerator over the fixed denominator
    L_m d1^m L_n d2^n of the direct route, and so do the few integer-point
    corrections after.
    """
    factors = ((m, *f1), (n, *f2))
    # A factor of order 0 or with p = 0 is constant in r: its kernel value.
    consts = [_kernel_numerator(order, q, d, raw) if order == 0 or p == 0 else None
              for order, p, q, d in factors]
    acc = 0
    r = 1
    while r <= count:
        last, polys = count, []
        for (order, p, q, d), const in zip(factors, consts):
            if const is None:
                coeffs, end = _stretch_numerators(order, p, q, d, r)
                polys.append(coeffs)
                last = min(last, end)
            else:
                polys.append((const,))
        sums = _power_sums(len(polys[0]) + len(polys[1]) - 2, last - r)
        acc += sum(a * b * sums[i + j]
                   for i, a in enumerate(polys[0]) for j, b in enumerate(polys[1]))
        r = last + 1
    if not raw:
        # The stretch polynomial of a periodized degree-1 factor gives B_1(0) = -1/2
        # where its argument is an integer; the kernel is 0 there.
        zeros = []
        for (order, p, q, d), const in zip(factors, consts):
            sol = _solve_linear(p, q, d) if order == 1 and const is None else None
            zeros.append(set(range(sol[0] or sol[1], count + 1, sol[1])) if sol else set())
        for r in zeros[0] | zeros[1]:
            poly = [const if const is not None else _kernel_numerator(order, p * r + q, d, True)
                    for (order, p, q, d), const in zip(factors, consts)]
            kern = [0 if r in z else v for z, v in zip(zeros, poly)]
            acc += kern[0] * kern[1] - poly[0] * poly[1]
    return acc, _scale(m, f1[2]) * _scale(n, f2[2])


# ---------------------------------------------------------------------------
# The families
# ---------------------------------------------------------------------------
# A family whose sum a checker of dedsums.reciprocity reads writes its forms
# once, in its pair helper: the integer pair of its lattice sum, with the
# types gated by _form.  The public function adds the order and modulus
# gates and makes the pair one Fraction; the checkers, whose arguments are
# admitted already, fold the helpers' pairs as they are.  hwz_s and
# s_mn_two, which no checker reads so, build their forms themselves.

def _classical(a: int, b: int) -> tuple[int, int]:
    return _lattice_sum(1, _form(1, b, 0), 1, _form(a, b, 0), abs(b))


def _rademacher(a: int, b: int, x: Fraction, y: Fraction) -> tuple[int, int]:
    return _lattice_sum(1, _form(1, b, y), 1, _form(a, b, y, x), abs(b))


def _berndt(a: int, b: int, c: int, x: Fraction, y: Fraction, z: Fraction) -> tuple[int, int]:
    return _lattice_sum(1, _form(a, c, z, x, -1), 1, _form(b, c, z, y, -1), abs(c))


def _apostol(n: int, a: int, b: int) -> tuple[int, int]:
    return _lattice_sum(1, _form(1, b, 0), n, _form(a, b, 0), abs(b))


def _carlitz(n: int, a: int, b: int, x: Fraction, y: Fraction) -> tuple[int, int]:
    return _lattice_sum(1, _form(1, b, y), n, _form(a, b, y, x), abs(b), raw=True)


def _two_n(n: int, a: int, b: int, x: Fraction, y: Fraction) -> tuple[int, int]:
    return _lattice_sum(1, _form(1, b, y), n, _form(a, b, y, x), abs(b))


def _plain(m: int, n: int, a: int, b: int, c: int) -> tuple[int, int]:
    return _lattice_sum(m, _form(a, c, 0), n, _form(b, c, 0), abs(c))


def classical_s(a: int, b: int) -> Fraction:
    """Classical Dedekind sum: sum of ((r/b)) ((ar/b)) over r = 1..|b|."""
    _require_nonzero(b, "b")
    return Fraction(*_classical(a, b))


def rademacher_s(a: int, b: int, x: Fraction, y: Fraction) -> Fraction:
    """Shifted two-term sum: sum of (((r+y)/b)) ((a(r+y)/b + x))."""
    _require_nonzero(b, "b")
    return Fraction(*_rademacher(a, b, x, y))


def berndt_s(a: int, b: int, c: int, x: Fraction, y: Fraction, z: Fraction) -> Fraction:
    """Three-argument sawtooth sum: sum of ((a(r+z)/c - x)) ((b(r+z)/c - y))."""
    _require_nonzero(c, "c")
    return Fraction(*_berndt(a, b, c, x, y, z))


def apostol_s(n: int, a: int, b: int) -> Fraction:
    """Higher-order sum with one sawtooth factor and one degree-n factor."""
    _require_order(n, "n", 1)
    _require_nonzero(b, "b")
    return Fraction(*_apostol(n, a, b))


def carlitz_s(n: int, a: int, b: int, x: Fraction, y: Fraction) -> Fraction:
    """Shifted higher-order sum built on the raw polynomial kernel B_n({.}).

    Unlike the periodized kernel, the degree-1 factor here is -1/2 (not 0)
    whenever its argument is an integer.
    """
    _require_order(n, "n")
    _require_nonzero(b, "b")
    return Fraction(*_carlitz(n, a, b, x, y))


def hwz_s(m: int, n: int, a: int, b: int, c: int,
          x: Fraction, y: Fraction, z: Fraction) -> Fraction:
    """Generalized two-order, three-modulus, three-shift sum.

    The summand is B'_m(a(r+z)/c - x) B'_n(b(r+z)/c - y) over r = 1..|c|;
    ``a`` and ``b`` may be any integers (zero included -- a zero top entry
    makes its factor constant in r), while ``c`` carries the summation
    range and must be nonzero.
    """
    _require_order(m, "m")
    _require_order(n, "n")
    _require_nonzero(c, "c")
    return Fraction(*_lattice_sum(m, _form(a, c, z, x, -1), n, _form(b, c, z, y, -1), abs(c)))


def s_mn_two(m: int, n: int, a: int, b: int, x: Fraction, y: Fraction) -> Fraction:
    """Two-modulus projection: sum of B'_m(a(r+y)/b + x) B'_n((r+y)/b)."""
    _require_order(m, "m")
    _require_order(n, "n")
    _require_nonzero(b, "b")
    return Fraction(*_lattice_sum(m, _form(a, b, y, x), n, _form(1, b, y), abs(b)))


def s_n_two(n: int, a: int, b: int, x: Fraction, y: Fraction) -> Fraction:
    """Single-order projection: sum of B'_1((r+y)/b) B'_n(a(r+y)/b + x)."""
    _require_order(n, "n")
    _require_nonzero(b, "b")
    return Fraction(*_two_n(n, a, b, x, y))


def s_mn_plain(m: int, n: int, a: int, b: int, c: int) -> Fraction:
    """Unshifted three-modulus sum: sum of B'_m(ar/c) B'_n(br/c)."""
    _require_order(m, "m")
    _require_order(n, "n")
    _require_nonzero(c, "c")
    return Fraction(*_plain(m, n, a, b, c))


def count_ladder(a: int, b: int, c: int, x: Fraction, y: Fraction, z: Fraction) -> int:
    """Count lattice triples on the common ladder through the three moduli.

    Counts triples (r, s, t) of integers with

        0 <= sgn(c)(r+x)/a = sgn(c)(s+y)/b = sgn(c)(t+z)/c < 1.

    Each admissible common value is (k + {z})/c for a unique k in
    0..|c|-1, and the triple is determined by k, so it suffices to count
    the k for which a(k+{z})/c - x and b(k+{z})/c - y are both integers.
    Each condition is one linear congruence in k; the two combine by the
    Chinese remainder theorem into one residue class, counted in O(log |c|).
    For positive moduli and zero shifts this is gcd(a, b, c).  The moduli
    must be nonzero ints (not bools) and the shifts ints or Fractions, else
    ``ValueError``; they are admitted before the memo sees them.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if type(v) is not int:
            raise ValueError(f"modulus {name} must be an int, got {v!r}")
        _require_nonzero(v, name)
    for v in (x, y, z):
        if type(v) not in _EXACT:
            raise ValueError(f"shifts must be ints or Fractions, got {v!r}")
    return _count_ladder(a, b, c, x, y, z)


@lru_cache(maxsize=_CACHE_SIZE)
def _count_ladder(a: int, b: int, c: int, x: Fraction, y: Fraction, z: Fraction) -> int:
    # count_ladder on admitted arguments; equal values give equal counts, so
    # an int and the Fraction it equals may share an entry.
    _, fz = floor_frac(z)
    residue, step = 0, 1
    for top, shift in ((a, x), (b, y)):
        sol = _solve_linear(*_form(top, c, fz, shift, -1))
        if sol is None:
            return 0
        # Merge k = residue mod step with k = sol[0] mod sol[1].
        g = math.gcd(step, sol[1])
        if (sol[0] - residue) % g:
            return 0
        lcm = step // g * sol[1]
        t = (sol[0] - residue) // g * pow(step // g, -1, sol[1] // g)
        residue, step = (residue + step * t) % lcm, lcm
    # 0 <= residue < step, so this is 0 when residue >= |c|.
    return (abs(c) - 1 - residue) // step + 1


# The public name carries the views of its memo, as the families do.
count_ladder.cache_info, count_ladder.cache_clear = \
    _count_ladder.cache_info, _count_ladder.cache_clear


class FamilySpec(NamedTuple):
    """Declared parameters of one sum family: orders, moduli, shifts, in that order."""

    fn: Callable[..., Fraction]
    orders: tuple[str, ...]
    moduli: tuple[str, ...]
    shifts: tuple[str, ...]
    flags = ()

    @property
    def params(self) -> Params:
        return declare(self.orders + self.moduli, self.shifts)


SUM_FAMILIES: dict[str, FamilySpec] = {
    "classical": FamilySpec(classical_s, (), ("a", "b"), ()),
    "rademacher": FamilySpec(rademacher_s, (), ("a", "b"), ("x", "y")),
    "berndt3": FamilySpec(berndt_s, (), ("a", "b", "c"), ("x", "y", "z")),
    "apostol": FamilySpec(apostol_s, ("n",), ("a", "b"), ()),
    "carlitz": FamilySpec(carlitz_s, ("n",), ("a", "b"), ("x", "y")),
    "hwz": FamilySpec(hwz_s, ("m", "n"), ("a", "b", "c"), ("x", "y", "z")),
    "two_term_mn": FamilySpec(s_mn_two, ("m", "n"), ("a", "b"), ("x", "y")),
    "two_term_n": FamilySpec(s_n_two, ("n",), ("a", "b"), ("x", "y")),
    "plain_mn": FamilySpec(s_mn_plain, ("m", "n"), ("a", "b", "c"), ()),
}


@dataclass(frozen=True)
class SumRequest:
    """A sum family name plus its full parameter tuple.

    ``orders``, ``moduli`` and ``shifts`` must match the family's arity
    (empty tuples where the family takes none), and every value must pass
    :func:`dedsums.params.coerce`.  The canonical JSON encoding uses the
    family tag string, plain integers, and rational literal strings.
    """

    family: str
    orders: tuple[int, ...] = ()
    moduli: tuple[int, ...] = ()
    shifts: tuple[Fraction, ...] = ()

    def _spec(self) -> FamilySpec:
        return lookup(SUM_FAMILIES, self.family, "sum family")

    def _values(self) -> dict:
        spec = self._spec()
        shape = (len(spec.orders), len(spec.moduli), len(spec.shifts))
        if (len(self.orders), len(self.moduli), len(self.shifts)) != shape:
            raise ValueError(f"{self.family} takes {shape[0]} order(s), {shape[1]} moduli "
                             f"and {shape[2]} shift(s)")
        values = (*self.orders, *self.moduli, *self.shifts)
        return coerce(self.family, spec.params, dict(zip(spec.params, values)))

    def validate(self) -> None:
        """Check the family, the arity and the value types; the family checks the rest."""
        self._values()

    def evaluate(self) -> Fraction:
        return self._spec().fn(*self._values().values())

    def to_json_dict(self) -> dict:
        kinds = self._spec().params
        return {"family": self.family,
                **{name: format_rational(v) if kinds[name] is Fraction else v
                   for name, v in self._values().items()}}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SumRequest":
        if not isinstance(data, Mapping):
            raise ValueError(f"a sum request must be a mapping, got {data!r}")
        values = dict(data)
        family = values.pop("family", None)
        spec = lookup(SUM_FAMILIES, family, "sum family")
        v = coerce(family, spec.params, values)
        return cls(family=family, orders=tuple(v[n] for n in spec.orders),
                   moduli=tuple(v[n] for n in spec.moduli),
                   shifts=tuple(v[n] for n in spec.shifts))


# Views of the one memo, for callers that still ask a family for cache_info.
for _spec in SUM_FAMILIES.values():
    _spec.fn.cache_info, _spec.fn.cache_clear = _lattice_sum.cache_info, _lattice_sum.cache_clear


def memos() -> dict[str, Callable]:
    """Every memo of this layer and the one kernel memo below it, by qualified name."""
    return {"sums._lattice_sum": _lattice_sum, "sums.count_ladder": _count_ladder,
            "bernoulli._poly_at_pair": _poly_at_pair}


def clear_caches() -> None:
    """Drop every evaluation memo: lattice sums, ladder counts and kernel values."""
    for memo in memos().values():
        memo.cache_clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits, misses, size and maxsize of every evaluation memo, by qualified name.

    The names are those of :func:`memos`: ``sums._lattice_sum``, the one memo
    of every family and of ``reciprocity._inner_pair_sum``, then
    ``sums.count_ladder`` and ``bernoulli._poly_at_pair``, the kernel memo
    that the lattice sums and the closed-form terms of the checks share.
    """
    stats = {}
    for name, memo in memos().items():
        info = memo.cache_info()
        stats[name] = {"hits": info.hits, "misses": info.misses,
                       "size": info.currsize, "maxsize": info.maxsize}
    return stats
