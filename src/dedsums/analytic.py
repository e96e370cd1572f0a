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
tabulated once (at most min(q, window length) of them).  With eight or more
terms per residue class on average, each class is streamed into a single
``math.fsum`` as one stepped range; a shorter window is streamed in order of
d, taking the weights in turn.  Memory is O(min(q, K)).  ``fsum`` returns
the exact sum of its terms rounded once, and each term is the same float
operation on the same operands whatever order the terms come in, so the
results are bit-reproducible and do not depend on how the terms are
grouped.  A complex series is two such sums, one per part, and the Fourier
check sums only the part its real target reads.

The same fact lets a long window be split across two processes.  Where
``os.fork`` exists, no other thread is alive and more than one CPU is
usable, a window of at least ``_MIN_SPLIT`` terms (and eight per residue
class on average) is shared with one forked child.  In a real series the
child takes the tail of each residue-class run and reduces its terms to an
expansion: a few floats whose exact sum is the exact sum of its terms
(Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
Geometric Predicates", DCG 18, 1997), and returns it over a pipe.  The
caller chains those floats after its own terms into the one ``fsum``, whose
exact input sum, and so whose result, is unchanged.  In a complex series the
child sums the whole imaginary part with one ``fsum`` and returns that
float, while the caller sums the real part; a part whose weights are all
zero is +0.0 and is not summed when the other part is, which is then split
as a real series.  The caller keeps O(min(q, K))
memory; the child holds one chunk of terms and a few parts.  No child
process or pipe outlives a check, even one that raises.

Lemmas 2.4 and 2.7 share one core, :func:`_bilateral` (Lemma 2.4 is its
x = 0 case), for their gates, reference and tolerance.  One constructor,
:func:`_report`, sets every verdict, and a check's tolerance is final
there.  An order whose float powers leave the double range raises
``ValueError``.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

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


# A window with _RUN_TERMS or more terms per residue class on average is
# summed one residue-class run at a time, and only such a window is split.
# Each run costs a range and a generator, so a shorter window is streamed in
# order of d instead: on a 2-CPU guest (Python 3.11) that stream is 1.3x
# faster at 8 terms per class and breaks even near 24, while at q <= 9 and
# 10^4 to 5*10^5 terms the runs are 1.2-1.4x faster.  A window of at least
# _MIN_SPLIT terms is split between the caller and one forked child; below
# that, a fork costs more than it saves.  A real series leaves the child the
# part of each residue-class run after the caller's _OWN_SHARE: the child
# pays about 1.3x per term for its expansion, hence a caller's share above
# one half.  The child folds its terms in chunks of _CHUNK.  A complex
# series leaves the child its whole imaginary part.
_RUN_TERMS = 8
_MIN_SPLIT = 1 << 16
_OWN_SHARE = 0.57
_CHUNK = 1 << 13


def _terms(runs: Sequence[tuple[float, range]], shift: float, power: int) -> Iterator[float]:
    # The one place a term of a run is computed: w / (d + shift) ** power.
    return chain.from_iterable((w / (d + shift) ** power for d in span) for w, span in runs)


def _runs(weights: Sequence[float], lo: int, hi: int,
          pole: Optional[int]) -> list[tuple[float, range]]:
    """One ``(weight, range)`` run of step m = len(weights) per residue class.

    The class of the pole, when it falls in the window, is two runs, one on
    each side of it.
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
    return runs


def _stream(weights: Sequence[float], shift: float, power: int, lo: int, hi: int,
            pole: Optional[int]) -> Iterator[float]:
    """The terms of one component over the whole window, in one process.

    A window with ``_RUN_TERMS`` or more terms per residue class on average
    streams each class as one run.  A shorter one (q near the window's
    length or past it) streams the terms in order of d, taking the weights
    in turn (without the copy ``itertools.cycle`` would keep), so it builds
    no run and no generator per term.  The term is the same float operation
    on the same operands either way.
    """
    if hi - lo + 1 >= _RUN_TERMS * len(weights):
        return _terms(_runs(weights, lo, hi, pole), shift, power)
    return (w / (d + shift) ** power
            for w, d in zip(chain.from_iterable(repeat(weights)), range(lo, hi + 1))
            if d != pole)


def _splits(m: int, lo: int, hi: int) -> bool:
    # Only a window streamed as runs is split: with fewer than _RUN_TERMS
    # terms per class the child's share of each run would be small, and
    # cutting every run would cost about as much as summing it.  A complex
    # series forks its child under the same guard.
    return hi - lo + 1 >= max(_MIN_SPLIT, _RUN_TERMS * m) and _may_fork()


def _expansion(xs: list) -> list:
    """Floats whose exact sum is the exact sum of ``xs`` (which is consumed).

    ``fsum(xs)`` is that sum rounded once; appending its negation leaves the
    exact residual, whose ``fsum`` is the next part, until a residual is
    zero.  Each part is at most half an ulp of the one before, so a handful
    suffice.  The first part is kept even when it is zero: it is then the
    zero ``fsum`` gives for ``xs``, sign included.
    """
    parts = [math.fsum(xs)]
    while True:
        xs.append(-parts[-1])
        residual = math.fsum(xs)
        if not residual:
            return parts
        parts.append(residual)


def _child_parts(terms: Iterator[float], whole: bool) -> list:
    """What a child sends back for its share of terms.

    A whole component is one float, the ``fsum`` of its terms.  The tails of
    runs are an expansion (:func:`_expansion`), folded ``_CHUNK`` terms at a
    time, so the child holds one chunk and a few parts.
    """
    if whole:
        return [math.fsum(terms)]
    parts = []
    while xs := list(islice(terms, _CHUNK)):
        parts = _expansion(xs + parts)
    return parts


def _may_fork() -> bool:
    # A fork is safe only with no other thread (its locks would be copied
    # held), and pays only with a second CPU to run the child on.
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _Child:
    """One share of a series, summed by a forked child.

    The share is either the tails of a real series' runs, which the child
    sends back as an exact expansion, or (``whole``) the whole imaginary
    component of a complex series, which it sends back as the one float
    its ``fsum`` gives (:func:`_child_parts`).  Entering forks the child.
    Iterating reads the child's floats from the pipe once it has finished;
    when there is no child, or it failed, iterating yields the share's own
    terms computed here instead, so an exception a term raises comes from
    the caller.  Either way the caller's ``fsum`` over what it yields
    (chained after its own terms, for tails) has the bits of the unsplit
    stream.  Leaving kills and reaps a child still running and closes the
    pipe.
    """

    def __init__(self, terms: Callable[[], Iterator[float]], whole: bool = False):
        self.terms, self.whole = terms, whole
        self.pid = self.fd = None

    def __enter__(self) -> "_Child":
        self.fd, out = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare: the share is summed here
            os.close(out)
            return self
        if self.pid == 0:
            status = 1
            try:
                from array import array
                os.close(self.fd)
                parts = _child_parts(self.terms(), self.whole)
                with open(out, "wb") as pipe:
                    pipe.write(array("d", parts).tobytes())
                status = 0
            finally:
                os._exit(status)
        os.close(out)
        return self

    def __iter__(self) -> Iterator[float]:
        if self.pid is not None:
            fd, self.fd = self.fd, None
            with open(fd, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            if status == 0:
                return iter(memoryview(data).cast("d"))
        return self.terms()

    def __exit__(self, *exc) -> None:
        if self.pid is not None:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None


def _series(weights: Sequence[float], shift: float, power: int, lo: int, hi: int,
            pole: Optional[int] = None) -> float:
    """fsum of weights[(d - lo) % m] / (d + shift) ** power over lo <= d <= hi, d != pole.

    ``m = len(weights)``, as built by :func:`_window_weights`.  The terms
    stream straight into ``math.fsum`` (:func:`_stream`): no term list, O(m)
    memory.  Zero terms never change an ``fsum`` result, whatever their
    sign.  ``(d + shift) ** power`` must stay one ``pow``: with glibc 2.36,
    ``t ** 2 != t * t`` for 652 of 4,000,000 terms ``t = d + r/b``
    (d = 1..10^5, 40 random shifts with |r| <= 9 and 1 <= b <= 9), so a
    "faster square" would change reported bits.

    A window of at least ``_MIN_SPLIT`` and ``_RUN_TERMS * m`` terms, in a
    process that may fork (``os.fork`` exists, no other thread is alive,
    more than one CPU is usable), is split: the caller streams the first
    ``_OWN_SHARE`` of each residue-class run, and one forked child
    (:class:`_Child`) sums the rest into an expansion, floats with exactly
    the exact sum of its terms, which it sends back over a pipe.  The parts are chained after the caller's
    terms into the one ``fsum``; since ``fsum`` rounds the exact sum of what
    it is given once, the result has the same bits as the unsplit stream.
    A child that fails has its share recomputed by the caller, so its errors
    surface here; an error in the caller's own share kills and reaps the
    child.  The caller keeps O(m) memory and the child one chunk of
    ``_CHUNK`` terms plus a few parts.
    """
    if not _splits(len(weights), lo, hi):
        return math.fsum(_stream(weights, shift, power, lo, hi, pole))
    runs = _runs(weights, lo, hi, pole)
    own = [(w, span[:math.ceil(len(span) * _OWN_SHARE)]) for w, span in runs]
    rest = [(w, span[len(mine):]) for (w, span), (_, mine) in zip(runs, own)]
    with _Child(lambda: _terms(rest, shift, power)) as child:
        return math.fsum(chain(_terms(own, shift, power), child))


def _complex_series(weights: Sequence[complex], shift: float, power: int, lo: int, hi: int,
                    pole: Optional[int] = None) -> complex:
    """:func:`_series` with complex weights: the real and imaginary parts apart.

    A nonzero part of the complex quotient w / f is that part of w divided
    by f, bit for bit, and a zero part changes no ``fsum``; so the two real
    sums equal the parts of a sum of complex terms.

    The two parts are independent sums.  Where :func:`_series` would split
    the window, one forked child (:class:`_Child`) sums the whole imaginary
    part with one ``fsum`` and sends back that float, while the caller sums
    the whole real part unsplit; each part is still one ``fsum`` over the
    same terms, so the bits are those of the unsplit sums.  A child that
    fails has its part summed here, an error in the real part kills and
    reaps the child, and where no process can be forked both parts are
    summed here.  Otherwise both parts are summed here, one after the other.

    A part whose weights are all zero (the imaginary part of lemma27 at an
    integer x) sums to +0.0, as ``fsum`` of zeros of either sign does, so it
    is not summed when the other part is: that part alone goes to
    :func:`_series`, split as a real series is, and raises whatever error a
    term's power would raise in either part.  When both parts are zero, both
    are summed, so an order past the double range still raises.
    """
    real, imag = [w.real for w in weights], [w.imag for w in weights]
    if any(real) != any(imag):
        if any(real):
            return complex(_series(real, shift, power, lo, hi, pole), 0.0)
        return complex(0.0, _series(imag, shift, power, lo, hi, pole))

    def stream(part: Sequence[float]) -> Iterator[float]:
        return _stream(part, shift, power, lo, hi, pole)

    if not _splits(len(weights), lo, hi):
        return complex(math.fsum(stream(real)), math.fsum(stream(imag)))
    with _Child(lambda: stream(imag), whole=True) as child:
        return complex(math.fsum(stream(real)), math.fsum(child))


def _pole(alpha: Fraction) -> Optional[int]:
    # The d at which d + alpha = 0, when there is one.
    return -alpha.numerator if alpha.denominator == 1 else None


def _fourier(n: int, x: Fraction, K: int) -> tuple[list, complex]:
    # The gates, the weights and the coefficient -n!/(2 pi i)^n of the
    # Fourier partial sum, on admitted arguments.
    if n < 2:
        raise ValueError("absolute convergence requires degree n >= 2")
    _gate_level(K)
    p, q = x.numerator, x.denominator
    sign = (-1) ** n
    weights = _window_weights(lambda k: _cis(k * p, q) + sign * _cis(-k * p, q), q, 1, K)
    return weights, -math.factorial(n) / complex(0.0, _TWO_PI) ** n


def _fourier_series(n: int, x: Fraction, K: int) -> complex:
    # The partial sum of fourier_partial_complex, on admitted arguments.
    weights, coef = _fourier(n, x, K)
    return coef * _complex_series(weights, 0.0, n, 1, K)


def _fourier_real(n: int, x: Fraction, K: int) -> float:
    """``_fourier_series(n, x, K).real``, summing one part of the series where it can.

    The real part of ``coef * s`` is ``coef.real * s.real - coef.imag *
    s.imag``.  For n <= 100 ``complex ** int`` multiplies repeatedly, so
    ``coef`` is exactly real (even n) or exactly imaginary (odd n), its
    other part a signed zero.  Then the real part is ``coef.real * s.real``
    or ``-coef.imag * s.imag``, bit for bit, whenever that product is
    nonzero, and only that part of the series is summed.  A zero product
    (every weight of that part zero, as for odd n at an integer x) takes its
    sign from the other part too, and a coefficient with two nonzero parts
    (n > 100) needs both: then the other part is summed as well and the full
    product is taken.
    """
    weights, coef = _fourier(n, x, K)

    @functools.cache
    def part(name: str) -> float:
        return _series([getattr(w, name) for w in weights], 0.0, n, 1, K)

    if not coef.imag and (approx := coef.real * part("real")):
        return approx
    if not coef.real and (approx := -coef.imag * part("imag")):
        return approx
    return (coef * complex(part("real"), part("imag"))).real


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

    The approximation is the real part of :func:`fourier_partial_complex`,
    bit for bit; only the component of the series it reads is summed
    (:func:`_fourier_real`).

    Tolerance: |tail| <= 2*n!/(2*pi)^n * sum_{k>K} k^-n
                       <= 2*n!/((2*pi)^n (n-1)) * K^(1-n).
    """
    n, x, K = _admit("fourier", n, x, K)
    with _in_double_range("n", n):
        approx = _fourier_real(n, x, K)
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
