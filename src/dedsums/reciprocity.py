"""Exact two-sided evaluation of the reciprocity laws.

Every checker computes the left- and right-hand side of one identity by
structurally independent routes -- the lattice-sum families from
:mod:`dedsums.sums` on one side (by either of that module's routes, both of
which regroup the defining sum), closed-form Bernoulli/gcd/lattice-counter
expressions on the other -- and returns both values together with the exact
residual ``lhs - rhs``.  All sixteen share one driver, so a checker's body
is the law's mathematics: :func:`_admit` admits its arguments by the
identity's entry in :data:`IDENTITIES`, the checker lists the terms of each
side, and :func:`_report` folds each side's terms (:func:`_fold`) into one
Fraction and builds the report.  The terms are assembled in integers: a
kernel argument such as ``a x + y`` is an integer pair (:func:`_arg`), and
so is each kernel value.  The binomial sums of the product formulas and the
three-modulus laws (:func:`_binomial_side`) build their two linear forms
once per side and read each lattice sum from the core of
:mod:`dedsums.sums` as its integer pair.  Every other lattice sum is the
integer pair of its family's helper in that module (``sums._classical``
for ``classical_s``, and so on), and the lattice counters of ``berndt``,
``cor43`` and ``cor45`` come from the counter's memo, on admitted
arguments.  Only ``thm41`` and ``thm44`` call public families: ``hwz_s``
for their left-hand sums and ``count_ladder``.  A checker never "fixes"
its inputs: it admits them by its signature in :data:`IDENTITIES`.  An
order or modulus that is not an ``int``, or a shift that is neither an
``int`` nor a ``Fraction``, raises ``ValueError``; a violated hypothesis
raises :class:`HypothesisError` naming the clause.

The identity tags understood by :func:`run_case`:

========================  =====================================================
``dedekind``              two-term law for the classical sum
``rademacher3``           three-term law with modular inverses (``dieter``
                          flag selects the weaker single-modulus congruences)
``rademacher15``          shifted two-term law, coprime moduli
``eq319``                 shifted two-term law with gcd correction, any moduli
``berndt``                shifted three-term sawtooth law with lattice counter
``apostol``               higher-order two-term law, odd order
``carlitz``               shifted higher-order law on the raw kernel
``thm31`` / ``thm33``     product formulas for two periodized factors
``cor32`` / ``cor34``     their two-modulus projections
``thm41`` / ``thm44``     three-modulus laws for the generalized sums
``cor42``                 shifted one-order projection, positive moduli
``cor43``                 odd-order unshifted three-term law
``cor45``                 derivative-level unshifted three-term law
========================  =====================================================
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from .bernoulli import _kernel_pair, _number_pair
from .exact import binomial, format_rational, gcd_pos, mod_inverse, sgn
from .params import Gate, HypothesisError, Params, Signature, admit, coerce, declare, lookup
# The checkers read the pair helpers and the core; of the public families
# only hwz_s and count_ladder are called here (by thm41 and thm44).  Every
# family stays importable from this module, where the benchmark's tracer
# wraps each of them by name.
from .sums import (
    _apostol,
    _berndt,
    _carlitz,
    _classical,
    _count_ladder,
    _form,
    _lattice_sum,
    _plain,
    _rademacher,
    _two_n,
    apostol_s,
    berndt_s,
    cache_stats,
    carlitz_s,
    classical_s,
    clear_caches,
    count_ladder,
    hwz_s,
    rademacher_s,
    s_mn_plain,
    s_mn_two,
    s_n_two,
)

__all__ = [
    "HypothesisError",
    "IdentityCase",
    "IdentityReport",
    "IDENTITIES",
    "run_case",
    "random_case",
    "check_dedekind",
    "check_rademacher_three",
    "check_rademacher15",
    "check_rademacher_rad",
    "check_berndt",
    "check_apostol",
    "check_carlitz",
    "check_thm31",
    "check_cor32",
    "check_thm33",
    "check_cor34",
    "check_thm41",
    "check_cor42",
    "check_cor43",
    "check_thm44",
    "check_cor45",
    "clear_caches",
    "cache_stats",
]


@dataclass(frozen=True)
class IdentityCase:
    """One identity instance: the tag plus its ordered parameter tuple."""

    identity: str
    params: tuple[tuple[str, object], ...]

    def params_dict(self) -> dict:
        return dict(self.params)

    def to_json_dict(self) -> dict:
        out = {}
        for name, value in self.params:
            out[name] = format_rational(value) if isinstance(value, Fraction) else value
        return out


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one identity instance and the exact residual verdict."""

    case: IdentityCase
    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    passed: bool
    counter: Optional[int] = None

    def to_json_dict(self) -> dict:
        out = {
            "identity": self.case.identity,
            "params": self.case.to_json_dict(),
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "residual": format_rational(self.residual),
            "pass": self.passed,
        }
        if self.counter is not None:
            out["counter"] = self.counter
        return out

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict())``, byte for byte, as one f-string."""
        case, counter = self.case, self.counter
        params = ", ".join([f"{_quote(name)}: {_json_value(v)}" for name, v in case.params])
        tail = "" if counter is None else f', "counter": {_json_value(counter)}'
        return (f'{{"identity": {_quote(case.identity)}, "params": {{{params}}}, '
                f'"lhs": "{format_rational(self.lhs)}", "rhs": "{format_rational(self.rhs)}", '
                f'"residual": "{format_rational(self.residual)}", '
                f'"pass": {_json_value(self.passed)}{tail}}}')


# A str as json.dumps writes it (ASCII, escaped), for names in IdentityReport.to_json.
_quote = json.encoder.encode_basestring_ascii


def _json_value(v) -> str:
    # A value as json.dumps writes it in a report's dict: an int by its
    # digits, a bool as true/false, a Fraction as its quoted literal (as
    # to_json_dict formats it), anything else by json.dumps itself.
    if type(v) is int:
        return repr(v)
    if type(v) is bool:
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f'"{format_rational(v)}"'
    return json.dumps(v)


def _admit(identity: str, *values) -> tuple:
    return admit(IDENTITIES[identity].signature, values)


def _report(identity: str, values: tuple, lhs_terms, rhs_terms,
            counter: Optional[int] = None) -> IdentityReport:
    # Each side is the one Fraction its _fold terms add up to, and the
    # residual is formed from the two integer pairs.  The case lists
    # ``values``, as _admit returned them, under the identity's columns.
    (ln, ld), (rn, rd) = _fold(lhs_terms), _fold(rhs_terms)
    diff = ln * rd - rn * ld
    return IdentityReport(
        case=IdentityCase(identity, tuple(zip(IDENTITIES[identity].columns, values))),
        lhs=Fraction(ln, ld), rhs=Fraction(rn, rd), residual=Fraction(diff, ld * rd),
        passed=(diff == 0), counter=counter,
    )


def _fold(terms) -> tuple[int, int]:
    """The sum of ``terms`` as one integer pair ``(num, den)``, ``den != 0``.

    A term is ``(top, bottom, *factors)``: the integers top/bottom (bottom
    nonzero, of either sign) times each factor: an integer pair ``(num,
    den)``, not necessarily reduced (a kernel value from :func:`_kernel_pair`,
    a Bernoulli number from ``bernoulli._number_pair``, a lattice sum from
    ``sums._lattice_sum`` or a family's pair helper), or an int or a
    Fraction (the ``hwz_s`` sums of thm41 and thm44), each read by
    numerator and denominator.  A side of
    :func:`_binomial_side` is a term with no factor.  The terms add up over
    one running lcm of their denominators and build no Fraction;
    :func:`_report` makes each side one Fraction at the end.
    """
    num, den = 0, 1
    for term in terms:
        top, bottom = term[0], term[1]
        for f in term[2:]:
            fn, fd = f if type(f) is tuple else (f.numerator, f.denominator)
            top *= fn
            bottom *= fd
        if top:
            g = math.gcd(den, bottom)
            num, den = num * (bottom // g) + top * (den // g), den // g * bottom
    return num, den


def _arg(a: int, x: Fraction, b: int, y: Fraction, g: int = 1) -> tuple[int, int]:
    # The kernel argument (a x + b y)/g as the integer pair (num, den), from
    # the numerators and denominators of the shifts; den > 0 when g > 0.
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    return a * xn * yd + b * yn * xd, g * xd * yd


def _dz(num: int, den: int) -> int:
    # delta_Z of num/den, for any integers with den != 0.
    return 0 if num % den else 1


def _kd(i: int, j: int) -> int:
    return 1 if i == j else 0


# ---------------------------------------------------------------------------
# Classical two- and three-term laws
# ---------------------------------------------------------------------------

def check_dedekind(a: int, b: int) -> IdentityReport:
    """s(a,b) + s(b,a) = -1/4 + (a/b + 1/(ab) + b/a)/12 for coprime a, b >= 1."""
    return _report("dedekind", _admit("dedekind", a, b),
                   ((1, 1, _classical(a, b)), (1, 1, _classical(b, a))),
                   ((-1, 4), (a, 12 * b), (1, 12 * a * b), (b, 12 * a)))


def check_rademacher_three(a: int, b: int, c: int, dieter: bool = False) -> IdentityReport:
    """Three-term law for pairwise coprime a, b, c >= 1.

    Canonically the inverses satisfy a*a' == 1 mod bc (and cyclically); with
    ``dieter=True`` the weaker single-modulus congruences mod b, mod c, mod a
    are used instead.  Both are valid representatives of the same summands.
    """
    values = _admit("rademacher3", a, b, c, dieter)
    if dieter:
        a1, b1, c1 = mod_inverse(a, b), mod_inverse(b, c), mod_inverse(c, a)
    else:
        a1, b1, c1 = mod_inverse(a, b * c), mod_inverse(b, c * a), mod_inverse(c, a * b)
    return _report("rademacher3", values,
                   ((1, 1, _classical(b * c1, a)), (1, 1, _classical(c * a1, b)),
                    (1, 1, _classical(a * b1, c))),
                   ((-1, 4), (a, 12 * b * c), (b, 12 * c * a), (c, 12 * a * b)))


def _shifted_two_term(identity: str, a: int, b: int, x: Fraction, y: Fraction) -> IdentityReport:
    # The shifted two-term law with the gcd-corrected last term, for
    # rademacher15 and eq319; under rademacher15's coprime gate g = 1.
    values = a, b, x, y = _admit(identity, a, b, x, y)
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    g = gcd_pos(a, b)
    return _report(identity, values,
                   ((1, 1, _rademacher(a, b, x, y)), (1, 1, _rademacher(b, a, y, x))), (
        (-_dz(xn, xd) * _dz(yn, yd), 4),
        (1, 1, _kernel_pair(1, xn, xd), _kernel_pair(1, yn, yd)),  # ((x)) ((y))
        (a, 2 * b, _kernel_pair(2, yn, yd)),
        (b, 2 * a, _kernel_pair(2, xn, xd)),
        (g * g, 2 * a * b, _kernel_pair(2, *_arg(a, y, b, x, g))),
    ))


def check_rademacher15(a: int, b: int, x: Fraction, y: Fraction) -> IdentityReport:
    """Shifted two-term law for coprime a, b >= 1 (verbatim, no gcd powers)."""
    return _shifted_two_term("rademacher15", a, b, x, y)


def check_rademacher_rad(a: int, b: int, x: Fraction, y: Fraction) -> IdentityReport:
    """Shifted two-term law with the gcd-corrected last term; no coprimality.

    Valid for all a, b >= 1; reduces to the coprime law when gcd(a, b) = 1.
    """
    return _shifted_two_term("eq319", a, b, x, y)


def check_berndt(a: int, b: int, c: int, x: Fraction, y: Fraction, z: Fraction) -> IdentityReport:
    """Shifted three-term sawtooth law for a, b, c >= 1 with lattice counter N."""
    values = a, b, c, x, y, z = _admit("berndt", a, b, c, x, y, z)
    n_count = _count_ladder(a, b, c, x, y, z)
    gab, gbc, gca = gcd_pos(a, b), gcd_pos(b, c), gcd_pos(c, a)
    return _report("berndt", values, (
        (1, 1, _berndt(a, b, c, x, y, z)),
        (1, 1, _berndt(b, c, a, y, z, x)),
        (1, 1, _berndt(c, a, b, z, x, y)),
    ), (
        (-n_count, 4),
        (c * gab * gab, 2 * a * b, _kernel_pair(2, *_arg(a, y, -b, x, gab))),
        (a * gbc * gbc, 2 * b * c, _kernel_pair(2, *_arg(b, z, -c, y, gbc))),
        (b * gca * gca, 2 * c * a, _kernel_pair(2, *_arg(c, x, -a, z, gca))),
    ), counter=n_count)


# ---------------------------------------------------------------------------
# Higher-order two-term laws
# ---------------------------------------------------------------------------

def check_apostol(n: int, a: int, b: int) -> IdentityReport:
    """Odd-order two-term law: a b^n s_n(a,b) + b a^n s_n(b,a) in closed form."""
    return _report("apostol", _admit("apostol", n, a, b),
                   ((a * b**n, 1, _apostol(n, a, b)), (b * a**n, 1, _apostol(n, b, a))), (
        *((binomial(n + 1, j) * (-1) ** j * a**j * b ** (n + 1 - j), n + 1,
           _number_pair(j), _number_pair(n + 1 - j)) for j in range(n + 2)),
        (n, n + 1, _number_pair(n + 1)),
    ))


def check_carlitz(n: int, a: int, b: int, x: Fraction, y: Fraction) -> IdentityReport:
    """Shifted higher-order law on the raw kernel B_n({.}), coprime a, b >= 1."""
    values = n, a, b, x, y = _admit("carlitz", n, a, b, x, y)
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    return _report("carlitz", values, ((a * b**n, 1, _carlitz(n, a, b, x, y)),
                                       (b * a**n, 1, _carlitz(n, b, a, y, x))), (
        *((binomial(n + 1, j) * a**j * b ** (n + 1 - j), n + 1,
           _kernel_pair(j, yn, yd, True), _kernel_pair(n + 1 - j, xn, xd, True))
          for j in range(n + 2)),
        (n, n + 1, _kernel_pair(n + 1, *_arg(a, y, b, x), True)),
    ))


# ---------------------------------------------------------------------------
# Product formulas for two periodized factors and their projections
# ---------------------------------------------------------------------------

def _inner_pair_sum(j: int, k: int, top: int, mod: int, sub: Fraction,
                    shift: Fraction, x: Fraction) -> Fraction:
    # sum over l = 1..|mod| of B'_j(top(l+shift)/mod - sub) B'_k(x + (l+shift)/mod).
    # No checker calls it: the sides of thm31/thm33 read these sums from
    # _lattice_sum directly.  It stays, with the memo views below, as the
    # name under which the benchmark reads the memo those sides fill.
    return Fraction(*_lattice_sum(j, _form(top, mod, shift, sub, -1), k,
                                  _form(1, mod, shift, x), abs(mod)))


# A view of the one lattice-sum memo, as each family in sums carries one.
_inner_pair_sum.cache_info = _lattice_sum.cache_info
_inner_pair_sum.cache_clear = _lattice_sum.cache_clear


def _binomial_side(scale: int, m: int, n: int, a: int, b: int, derivative: bool,
                   f1: tuple[int, int, int], f2: tuple[int, int, int], count: int,
                   c: int = 1, c_power: int = 0) -> tuple[int, int]:
    # One half T(m,n,a,b) of a law T(m,n,a,b,...) +- T(n,m,b,a,...):
    #   scale n b^(n-1) sum_{j=0..m} C(m,j) (-1)^j a^(m-j) w_k c^(c_power-k) S(j, k),
    # where S(j, k) is the lattice sum over r = 1..count of the order-j
    # kernel at the form f1 times the order-k kernel at the form f2, with
    # k = m+n-j and w_k = 1/k for the integral-level laws (Thm 3.1, Cor 3.2,
    # Thm 4.1), k = m+n-j-1 and w_k = 1 for the derivative-level ones.
    # The caller builds both forms once with sums._form, and each S(j, k)
    # is read from the memo as its integer pair.  ``scale`` is the law's
    # global integer factor (a sign, sgn(b), a power of c).  Each summand is
    # a term of _fold: the coefficient and c^e for e >= 0 above, k and c^-e
    # for e < 0 below, times S.  The side is their integer pair (num, den),
    # itself a term of the caller's side.
    coeff = scale * n * b ** (n - 1)
    terms = []
    for j in range(m + 1):
        k = m + n - j - 1 if derivative else m + n - j
        top = coeff * math.comb(m, j) * a ** (m - j)
        bottom = 1 if derivative else k
        if j % 2:
            top = -top
        e = c_power - k
        if e >= 0:
            top *= c ** e
        else:
            bottom *= c ** -e
        terms.append((top, bottom, _lattice_sum(j, f1, k, f2, count)))
    return _fold(terms)


def _product_side(m: int, n: int, a: int, b: int, x: Fraction, y: Fraction, z: Fraction,
                  derivative: bool) -> tuple[int, int]:
    # One half of Thm 3.1 (Thm 3.3 when ``derivative``), with
    # S(j, k): B'_j(a(l+z)/b - y) B'_k(x + (l+z)/b) over l = 1..|b|.
    return _binomial_side(sgn(b), m, n, a, b, derivative,
                          _form(a, b, z, y, -1), _form(1, b, z, x), abs(b))


def _projection_side(m: int, n: int, a: int, b: int, x: Fraction, y: Fraction,
                     derivative: bool, sign: int = 1) -> tuple[int, int]:
    # One half of Cor 3.2 (Cor 3.4 when ``derivative``), times ``sign``, with
    # S(j, k): B'_j(a(r+y)/b + x) B'_k((r+y)/b) over r = 1..|b|.
    return _binomial_side(sign * (-1) ** m * sgn(b), m, n, a, b, derivative,
                          _form(a, b, y, x), _form(1, b, y), abs(b))


def check_thm31(m: int, n: int, a: int, b: int,
                x: Fraction, y: Fraction, z: Fraction) -> IdentityReport:
    """Product of two periodized factors as binomial-weighted lattice sums."""
    values = m, n, a, b, x, y, z = _admit("thm31", m, n, a, b, x, y, z)
    u, v = _arg(a, x, 1, y), _arg(b, x, 1, z)
    g = gcd_pos(a, b)
    return _report("thm31", values, ((1, 1, _kernel_pair(m, *u), _kernel_pair(n, *v)),), (
        _product_side(m, n, a, b, x, y, z, False),
        _product_side(n, m, b, a, x, z, y, False),
        ((-1) ** (n - 1) * math.factorial(m) * math.factorial(n) * g ** (m + n),
         math.factorial(m + n) * a**n * b**m,
         _kernel_pair(m + n, *_arg(b, y, -a, z, g))),
        (-_kd(1, m) * _kd(1, n) * sgn(a * b) * _dz(*u) * _dz(*v), 4),
    ))


def check_cor32(m: int, n: int, a: int, b: int, x: Fraction, y: Fraction) -> IdentityReport:
    """Two-modulus projection of the product formula."""
    values = m, n, a, b, x, y = _admit("cor32", m, n, a, b, x, y)
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    g = gcd_pos(a, b)
    return _report("cor32", values, (_projection_side(m, n, a, b, x, y, False),
                                     _projection_side(n, m, b, a, y, x, False)), (
        (-_kd(1, m) * _kd(1, n) * sgn(a * b) * _dz(xn, xd) * _dz(yn, yd), 4),
        (1, 1, _kernel_pair(m, xn, xd), _kernel_pair(n, yn, yd)),
        (math.factorial(m) * math.factorial(n) * g ** (m + n),
         math.factorial(m + n) * a**n * b**m,
         _kernel_pair(m + n, *_arg(a, y, b, x, g))),
    ))


def check_thm33(m: int, n: int, a: int, b: int,
                x: Fraction, y: Fraction, z: Fraction) -> IdentityReport:
    """Derivative-level product formula (no 1/(m+n-j) weights)."""
    values = m, n, a, b, x, y, z = _admit("thm33", m, n, a, b, x, y, z)
    u, v = _arg(a, x, 1, y), _arg(b, x, 1, z)
    weight = _kd(1, m - 1) * _kd(1, n) * m * a + _kd(1, m) * _kd(1, n - 1) * n * b
    return _report("thm33", values, ((m * a, 1, _kernel_pair(m - 1, *u), _kernel_pair(n, *v)),
                                     (n * b, 1, _kernel_pair(m, *u), _kernel_pair(n - 1, *v))), (
        _product_side(m, n, a, b, x, y, z, True),
        _product_side(n, m, b, a, x, z, y, True),
        (-sgn(a * b) * _dz(*u) * _dz(*v) * weight, 4),
    ))


def check_cor34(m: int, n: int, a: int, b: int, x: Fraction, y: Fraction) -> IdentityReport:
    """Two-modulus projection of the derivative-level product formula."""
    values = m, n, a, b, x, y = _admit("cor34", m, n, a, b, x, y)
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    weight = _kd(1, m) * _kd(1, n - 1) * n * b - _kd(1, m - 1) * _kd(1, n) * m * a
    return _report("cor34", values, (_projection_side(m, n, a, b, x, y, True),
                                     _projection_side(n, m, b, a, y, x, True, -1)), (
        (-sgn(a * b) * _dz(xn, xd) * _dz(yn, yd) * weight, 4),
        (n * b, 1, _kernel_pair(m, xn, xd), _kernel_pair(n - 1, yn, yd)),
        (-m * a, 1, _kernel_pair(m - 1, xn, xd), _kernel_pair(n, yn, yd)),
    ))


# ---------------------------------------------------------------------------
# Three-modulus laws for the generalized sums
# ---------------------------------------------------------------------------

def _three_modulus_side(m: int, n: int, a: int, b: int, c: int, x: Fraction, y: Fraction,
                        z: Fraction, derivative: bool) -> tuple[int, int]:
    # One half of Thm 4.1 (Thm 4.4 when ``derivative``), with
    # S(j, k) = hwz_s(j, k, a, c, b, x, z, y), weighted by c^(1-k).
    return _binomial_side((-1) ** (m + n - derivative) * sgn(b * c), m, n, a, b, derivative,
                          _form(a, b, y, x, -1), _form(c, b, y, z, -1), abs(b), c, 1)


def check_thm41(m: int, n: int, a: int, b: int, c: int,
                x: Fraction, y: Fraction, z: Fraction) -> IdentityReport:
    """Three-modulus law expressing one generalized sum through cyclic mates."""
    values = m, n, a, b, c, x, y, z = _admit("thm41", m, n, a, b, c, x, y, z)
    n_tilde = count_ladder(a, b, c, x, y, z)
    g = gcd_pos(a, b)
    return _report("thm41", values, ((1, 1, hwz_s(m, n, a, b, c, x, y, z)),), (
        _three_modulus_side(m, n, a, b, c, x, y, z, False),
        _three_modulus_side(n, m, b, a, c, y, x, z, False),
        ((-1) ** (n - 1) * math.factorial(m) * math.factorial(n) * c * g ** (m + n) * sgn(c),
         math.factorial(m + n) * a**n * b**m,
         _kernel_pair(m + n, *_arg(a, y, -b, x, g))),
        (-_kd(1, m) * _kd(1, n) * sgn(a * b) * n_tilde, 4),
    ), counter=n_tilde)


def check_cor42(n: int, a: int, b: int, x: Fraction, y: Fraction) -> IdentityReport:
    """Shifted one-order projection, positive moduli, no coprimality needed."""
    values = n, a, b, x, y = _admit("cor42", n, a, b, x, y)
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    g = gcd_pos(a, b)
    return _report("cor42", values, ((a * b**n, 1, _two_n(n, a, b, x, y)),
                                     (b * a**n, 1, _two_n(n, b, a, y, x))), (
        (-_kd(1, n) * _dz(xn, xd) * _dz(yn, yd) * a * b, 4),
        *((binomial(n + 1, j) * a**j * b ** (n + 1 - j), n + 1,
           _kernel_pair(j, yn, yd), _kernel_pair(n + 1 - j, xn, xd)) for j in range(n + 2)),
        (n * g ** (n + 1), n + 1, _kernel_pair(n + 1, *_arg(a, y, b, x, g))),
    ))


def check_cor43(p: int, r: int, a: int, b: int, c: int) -> IdentityReport:
    """Odd-order unshifted three-term law with free row index r."""
    values = _admit("cor43", p, r, a, b, c)
    n_hat = _count_ladder(a, b, c, 0, 0, 0)
    return _report("cor43", values, (
        *((binomial(p + 1, j) * binomial(p - j, p - 1 - r) * (-1) ** (j + 1)
           * a**p * b ** (p + 1 - j) * c**j, 1,
           _plain(j, p + 1 - j, b, c, a)) for j in range(1, r + 2)),
        *((binomial(p + 1, j) * binomial(p - j, r) * (-1) ** (j + 1)
           * a ** (p + 1 - j) * b**p * c**j, 1,
           _plain(j, p + 1 - j, a, c, b)) for j in range(1, p - r + 1)),
        (binomial(p + 1, r + 1) * a ** (r + 1) * b ** (p - r) * c**p, 1,
         _plain(p - r, r + 1, a, b, c)),
    ), (
        (binomial(p, r) * a ** (p + 1) * gcd_pos(b, c) ** (p + 1)
         + binomial(p, r + 1) * b ** (p + 1) * gcd_pos(a, c) ** (p + 1)
         + (-1) ** r * c ** (p + 1) * gcd_pos(a, b) ** (p + 1), 1, _number_pair(p + 1)),
        (-_kd(1, p) * a * b * c * n_hat, 2),
    ), counter=n_hat)


def check_thm44(m: int, n: int, a: int, b: int, c: int,
                x: Fraction, y: Fraction, z: Fraction) -> IdentityReport:
    """Derivative-level three-modulus law."""
    values = m, n, a, b, c, x, y, z = _admit("thm44", m, n, a, b, c, x, y, z)
    n_tilde = count_ladder(a, b, c, x, y, z)
    weight = _kd(1, m - 1) * _kd(1, n) * m * a + _kd(1, m) * _kd(1, n - 1) * n * b
    return _report("thm44", values, ((m * a, 1, hwz_s(m - 1, n, a, b, c, x, y, z)),
                                     (n * b, 1, hwz_s(m, n - 1, a, b, c, x, y, z))), (
        _three_modulus_side(m, n, a, b, c, x, y, z, True),
        _three_modulus_side(n, m, b, a, c, y, x, z, True),
        (-sgn(a * b) * weight * n_tilde, 4),
    ), counter=n_tilde)


def check_cor45(m: int, n: int, a: int, b: int, c: int) -> IdentityReport:
    """Derivative-level unshifted three-term law for positive moduli."""
    values = _admit("cor45", m, n, a, b, c)
    n_hat = _count_ladder(a, b, c, 0, 0, 0)
    weight = _kd(1, m) * _kd(1, n - 1) * n * b - _kd(1, m - 1) * _kd(1, n) * m * a
    # Each half: S(j, k) = _plain(j, k, a, c, b), weighted by c^(j-m) = c^(n-1-k).
    return _report("cor45", values, (
        _binomial_side((-1) ** m * c ** (m + 1), m, n, a, b, True,
                       _form(a, b, 0), _form(c, b, 0), abs(b), c, n - 1),
        _binomial_side(-(-1) ** n * c ** (n + 1), n, m, b, a, True,
                       _form(b, a, 0), _form(c, a, 0), abs(a), c, m - 1),
    ), (
        (n * b * c ** (m + n - 1), 1, _plain(m, n - 1, a, -b, c)),
        (-m * a * c ** (m + n - 1), 1, _plain(n, m - 1, b, -a, c)),
        (-weight * c * c * n_hat, 4),
    ), counter=n_hat)


# ---------------------------------------------------------------------------
# Registry, dispatch, and seeded random cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentitySpec:
    """Declared parameters of one identity; they drive the CLI, sweeps, sampling and admission.

    The parameters are the orders (each with its sampling choices: a
    sequence, or a function of the values drawn so far), the moduli and the
    shifts.  The :attr:`signature` gates each order at 1 or above, unless
    ``gates`` declares its own (``carlitz``'s and ``cor42``'s ``n >= 0``,
    ``apostol``'s odd order, ``cor43``'s row range); each modulus nonzero
    when ``signed``, else at least 1; and, when ``coprime``, the moduli
    pairwise coprime after the last one.
    """

    name: str
    fn: Callable[..., IdentityReport]
    orders: Mapping[str, Sequence[int] | Callable[[dict], Sequence[int]]] = \
        field(default_factory=dict)
    moduli: tuple[str, ...] = ()
    shifts: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()
    signed: bool = False
    coprime: bool = False
    gates: Mapping[str, tuple[Gate, ...]] = field(default_factory=dict)

    @cached_property
    def params(self) -> Params:
        return declare((*self.orders, *self.moduli), self.shifts)

    @cached_property
    def signature(self) -> Signature:
        signed = self.moduli if self.signed else ()
        gates = {name: (Gate("nonzero", 0, f"{name} != 0") if name in signed
                        else Gate("least", 1, f"{name} >= 1"),)
                 for name in (*self.orders, *self.moduli)}
        if self.coprime:
            first, mod = len(self.orders), self.moduli
            gates[mod[-1]] += tuple(Gate("coprime", (first + i, first + k),
                                         f"gcd({mod[i]}, {mod[k]}) = 1")
                                    for i, k in ((0, 1), (1, 2), (0, 2)) if k < len(mod))
        return Signature(self.name, self.params, {**gates, **self.gates}, self.flags, True)

    @cached_property
    def columns(self) -> tuple[str, ...]:
        """The names a report's case lists its values under: parameters, then flags."""
        return (*self.params, *self.flags)


_AB, _ABC, _XY, _XYZ = ("a", "b"), ("a", "b", "c"), ("x", "y"), ("x", "y", "z")
_MN4 = {"m": range(1, 5), "n": range(1, 5)}
_MN3 = {"m": range(1, 4), "n": range(1, 4)}
_N7, _N0 = {"n": range(7)}, {"n": (Gate("least", 0, "n >= 0"),)}
_ROW = "0 <= r <= p - 1"

IDENTITIES: dict[str, IdentitySpec] = {
    spec.name: spec for spec in [
        IdentitySpec("dedekind", check_dedekind, moduli=_AB, coprime=True),
        IdentitySpec("rademacher3", check_rademacher_three, moduli=_ABC,
                     flags=("dieter",), coprime=True),
        IdentitySpec("rademacher15", check_rademacher15, {}, _AB, _XY, coprime=True),
        IdentitySpec("eq319", check_rademacher_rad, {}, _AB, _XY),
        IdentitySpec("berndt", check_berndt, {}, _ABC, _XYZ),
        IdentitySpec("apostol", check_apostol, {"n": (1, 3, 5, 7)}, _AB, coprime=True,
                     gates={"n": (Gate("least", 1, "n >= 1"), Gate("odd", 1, "n odd"))}),
        IdentitySpec("carlitz", check_carlitz, _N7, _AB, _XY, coprime=True, gates=_N0),
        IdentitySpec("thm31", check_thm31, _MN4, _AB, _XYZ, signed=True),
        IdentitySpec("cor32", check_cor32, _MN4, _AB, _XY, signed=True),
        IdentitySpec("thm33", check_thm33, _MN4, _AB, _XYZ, signed=True),
        IdentitySpec("cor34", check_cor34, _MN4, _AB, _XY, signed=True),
        IdentitySpec("thm41", check_thm41, _MN3, _ABC, _XYZ, signed=True),
        IdentitySpec("cor42", check_cor42, _N7, _AB, _XY, gates=_N0),
        IdentitySpec("cor43", check_cor43,
                     {"p": (1, 3, 5), "r": lambda drawn: range(drawn["p"])}, _ABC,
                     gates={"p": (Gate("least", 1, "p >= 1"), Gate("odd", 1, "p odd")),
                            "r": (Gate("least", 0, _ROW), Gate("below", 0, _ROW))}),
        IdentitySpec("thm44", check_thm44, _MN3, _ABC, _XYZ, signed=True),
        IdentitySpec("cor45", check_cor45, _MN3, _ABC),
    ]
}


def run_case(identity: str, params: Mapping[str, object]) -> IdentityReport:
    """Dispatch one identity instance; raises HypothesisError on bad tuples.

    ``params`` must hold every declared name and no other, else ValueError
    (:func:`dedsums.params.coerce`); a rational may be a literal string.  The
    checker then admits the values as it admits a direct call.
    """
    spec = lookup(IDENTITIES, identity, "identity")
    return spec.fn(**coerce(identity, spec.params, params, spec.flags))


# Sampling distribution: moduli uniform in 1..9 (times a uniform sign when
# the identity allows negatives); shifts with numerator uniform in -9..9 and
# denominator uniform in 1..9, then reduced.
_MODULI = range(1, 10)
_NUMERATORS, _DENOMINATORS = range(-9, 10), range(1, 10)


def random_case(identity: str, rng) -> dict[str, object]:
    """One hypothesis-respecting random parameter tuple for ``identity``.

    Deterministic given the state of ``rng``, and drawn from the identity's
    declared sampling data: pairwise-coprime moduli first, jointly, redrawn
    until they are coprime; then each order from its choices; then the other
    moduli; then the shifts.  Keys come in declared parameter order.
    """
    spec = lookup(IDENTITIES, identity, "identity")

    def modulus() -> int:
        sign = rng.choice((-1, 1)) if spec.signed else 1
        return sign * rng.choice(_MODULI)

    drawn: dict[str, object] = {}
    while spec.coprime and not drawn:  # until one joint draw is pairwise coprime
        moduli = [modulus() for _ in spec.moduli]
        if all(math.gcd(u, v) == 1 for u, v in itertools.combinations(moduli, 2)):
            drawn = dict(zip(spec.moduli, moduli))
    for name, choices in spec.orders.items():
        drawn[name] = rng.choice(choices(drawn) if callable(choices) else choices)
    for name in spec.moduli:
        if name not in drawn:
            drawn[name] = modulus()
    for name in spec.shifts:
        drawn[name] = Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
    return {name: drawn[name] for name in spec.params}
