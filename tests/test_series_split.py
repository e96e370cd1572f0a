"""The split truncation series: the bits of one fsum, and nothing left behind.

A window of at least ``analytic._MIN_SPLIT`` terms is summed by the caller
and one forked child.  For a real series the child's share comes back as an
exact expansion (see ``analytic._series``); for a complex series the child
sums the whole imaginary part and sends back its ``fsum`` (see
``analytic._complex_series``), unless one part has only zero weights: that
part is then not summed, and the other is split as a real series.  The bit
tests force the split on small
windows and compare with one streamed ``math.fsum`` per part by
``float.hex``.  The hygiene tests check that no child process and no pipe
outlives a check, whether it returns or raises, that a complex series
forks once, and that no fork happens while another thread is alive or with
one usable CPU.  A leaked pipe object fails the module through its
``ResourceWarning``.
"""

import math
import os
import signal
import threading
import tracemalloc
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dedsums import analytic
from dedsums.analytic import fourier_partial_complex, lemma27_check, zeta_even_check

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

F = Fraction


def _bits(value) -> list:
    """float.hex and the sign of every part: equal lists mean equal bits."""
    parts = (value.real, value.imag) if isinstance(value, complex) else (value,)
    return [(v.hex(), math.copysign(1.0, v)) for v in parts]


def _one_fsum(weights, shift, power, lo, hi, pole) -> float:
    # The unsplit stream, written out: one fsum over the window in order.
    m = len(weights)
    return math.fsum(weights[(d - lo) % m] / (d + shift) ** power
                     for d in range(lo, hi + 1) if d != pole)


@contextmanager
def _split(chunk: int):
    """Every window split, on any machine, the child folding ``chunk`` terms at a time."""
    with mock.patch.object(analytic, "_MIN_SPLIT", 1), \
            mock.patch.object(analytic, "_CHUNK", chunk), \
            mock.patch.object(analytic, "_may_fork", lambda: True):
        yield


def _cuts(m: int, lo: int, hi: int) -> list:
    # The last d of the caller's share of each residue class, and the first
    # of the child's.
    cuts = []
    for i in range(m):
        span = range(lo + i, hi + 1, m)
        k = math.ceil(len(span) * analytic._OWN_SHARE)
        cuts += span[max(k - 1, 0):k + 1]
    return cuts


@st.composite
def windows(draw, kinds=("lemma27", "fourier", "real", "zero")):
    """(weights, shift, power, lo, hi, pole) in the shapes the checks build."""
    q, power = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    lo = draw(st.integers(-300, 40))
    hi = lo + draw(st.integers(0, 500))
    p = draw(st.integers(-9, 9))
    kind = draw(st.sampled_from(kinds))
    if kind == "lemma27":
        weights = analytic._window_weights(lambda d: analytic._cis(d * p, q), q, lo, hi)
    elif kind == "fourier":
        sign = (-1) ** power
        weights = analytic._window_weights(
            lambda k: analytic._cis(k * p, q) + sign * analytic._cis(-k * p, q), q, lo, hi)
    else:
        values = st.sampled_from([0.0, -0.0]) if kind == "zero" else st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e6, 1e6))
        weights = draw(st.lists(values, min_size=q, max_size=q))[:hi - lo + 1]
    m = len(weights)
    pole = draw(st.one_of(st.none(), st.integers(lo, hi),
                          st.sampled_from(_cuts(m, lo, hi)), st.integers(lo - 5, hi + 5)))
    if pole is not None and lo <= pole <= hi and draw(st.booleans()):
        shift = float(-pole)   # the pole is a true pole of the summand
    else:
        b = draw(st.integers(2, 9))
        shift = float(F(draw(st.integers(-40, 40).filter(lambda r: r % b)), b))
    return weights, shift, power, lo, hi, pole


@given(windows(), st.sampled_from([1, 2, 3, 7, analytic._CHUNK]))
@example(([0.0, -0.0, -0.0], -0.5, 3, -40, 40, None), 2)    # all-zero weights
@example(([-0.0], 0.0, 1, -9, 9, 0), 1)                      # zero weight, pole at 0
@settings(max_examples=150, deadline=None)
def test_split_has_the_bits_of_one_fsum(window, chunk):
    weights, shift, power, lo, hi, pole = window
    if weights and isinstance(weights[0], complex):
        with _split(chunk):
            got = analytic._complex_series(weights, shift, power, lo, hi, pole)
        want = complex(_one_fsum([w.real for w in weights], shift, power, lo, hi, pole),
                       _one_fsum([w.imag for w in weights], shift, power, lo, hi, pole))
    else:
        with _split(chunk):
            got = analytic._series(weights, shift, power, lo, hi, pole)
        want = _one_fsum(weights, shift, power, lo, hi, pole)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("check,args", [
    (lemma27_check, (2, 5, -3, F(2, 7), 3000)),
    (lemma27_check, (1, 2, 1, F(1, 3), 2000)),
    (analytic.fourier_partial, (3, F(5, 8), 2000)),
    (analytic.lemma24_check, (2, -1, 7, 500)),
    (zeta_even_check, (1, 4000)),
])
def test_split_reports_are_identical(check, args):
    with _split(analytic._CHUNK):
        split = check(*args)
    assert split == check(*args)


@given(windows(kinds=("lemma27", "fourier")), st.sampled_from([1, 7, analytic._CHUNK]))
@example(([1j, -1j, 0j], -0.5, 3, -40, 40, None), 1)     # zero real weights
@example(([-0j], 0.0, 2, -9, 9, 0), 7)                    # zero weight, pole at 0
@settings(max_examples=100, deadline=None)
def test_complex_split_has_the_bits_of_one_fsum_per_part(window, chunk):
    # The child sums the whole imaginary part; the caller sums the real one.
    weights, shift, power, lo, hi, pole = window
    with _split(chunk):
        got = analytic._complex_series(weights, shift, power, lo, hi, pole)
    want = complex(_one_fsum([w.real for w in weights], shift, power, lo, hi, pole),
                   _one_fsum([w.imag for w in weights], shift, power, lo, hi, pole))
    assert _bits(got) == _bits(want)


@given(n=st.integers(2, 8),
       x=st.builds(F, st.integers(-60, 60), st.integers(1, 60)),
       K=st.integers(1, 600),
       split=st.booleans())
@example(n=3, x=F(0), K=600, split=True)     # odd n at an integer x: every weight is 0
@example(n=5, x=F(-2), K=7, split=False)
@example(n=7, x=F(1), K=1, split=True)
@example(n=3, x=F(1, 2), K=100, split=True)  # odd n at 1/2: every weight is 0 as well
@settings(max_examples=150, deadline=None)
def test_fourier_report_has_the_bits_of_the_complex_real_part(n, x, K, split):
    # The report sums one component where it can; its approximation is the
    # real part of the complex partial sum, sign of zero included.  Under
    # _split, K below 8q streams in order of d and K from 8q on is split.
    with _split(7) if split else nullcontext():
        got = analytic.fourier_partial(n, x, K).approx
        want = analytic._fourier_series(n, x, K).real
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("lo,length,m,pole", [
    (-9, 30, 5, -3), (1, 39, 5, None), (0, 7, 1, 0), (-50, 100, 13, 49), (-3, 12, 12, 8),
])
def test_short_runs_stream_in_order_of_d(lo, length, m, pole):
    # Fewer than 8 terms per residue class: one stream over d, weights in turn.
    hi = lo + length - 1
    weights = [math.sin(i + 0.5) * 10.0 ** (i % 7) for i in range(m)]
    want = _one_fsum(weights, 0.25, 3, lo, hi, pole)
    assert _bits(analytic._series(weights, 0.25, 3, lo, hi, pole)) == _bits(want)


def test_short_runs_build_nothing_per_term():
    # A run and a generator per term would take about 11 MB here, and a
    # saved copy of the weights (as itertools.cycle keeps) about 0.8 MB.
    weights = [float(i % 7) - 3.0 for i in range(100_001)]
    tracemalloc.start()
    try:
        analytic._series(weights, 0.25, 2, -50_000, 50_000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


@given(st.lists(st.floats(-1e300, 1e300), max_size=60))
@example([1e300, 1.0, -1e300, 5e-324])
@example([0.1] * 10)
@example([-0.0, -0.0])
@example([])
def test_expansion_has_the_exact_sum(xs):
    parts = analytic._expansion(list(xs))
    assert sum(map(F, parts), F(0)) == sum(map(F, xs), F(0))
    assert parts[0] == math.fsum(xs)
    assert all(abs(b) < abs(a) for a, b in zip(parts, parts[1:]))


# ---------------------------------------------------------------------------
# Process hygiene
# ---------------------------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, a split from 2 terms on, and a record of every fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(analytic, "_MIN_SPLIT", 2)
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _fds() -> list:
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@contextmanager
def _leaves_nothing():
    fds = _fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _fds() == fds


def _unsplit(check, *args):
    with mock.patch.object(analytic, "_MIN_SPLIT", 1 << 62):
        return check(*args)


@pytest.mark.parametrize("check,args", [
    (zeta_even_check, (1, 20_000)),
    (lemma27_check, (2, 3, 1, F(1, 5), 5_000)),
])
def test_split_check_leaves_no_child_or_pipe(forks, check, args):
    with _leaves_nothing():
        rep = check(*args)
    assert forks
    assert rep == _unsplit(check, *args)


def test_error_in_the_callers_share_kills_and_reaps_the_child(forks):
    # 6^400 overflows on the caller's first terms, mid-series.
    with _leaves_nothing():
        with pytest.raises(ValueError, match="order j=200 is beyond double precision"):
            zeta_even_check(200, 10**6)
    assert len(forks) == 1


def test_error_while_the_child_runs_kills_and_reaps_it(forks):
    # |d + 1/2|^60 overflows past 1.4e5: at the caller's first term, while
    # the child's share (|d + 1/2| < 7e4) would run for 1.1e5 terms.
    with _leaves_nothing():
        with pytest.raises(OverflowError):
            analytic._series([1.0], 0.5, 60, -200_000, 66_666)
    assert len(forks) == 1


def test_error_in_the_childs_share_is_raised_here(forks):
    # d^380 overflows from d = 7 on: only in the child's share of 1..10, which
    # the caller then sums itself, raising what the unsplit stream raises.
    with _leaves_nothing():
        with pytest.raises(ValueError, match="order j=190 is beyond double precision"):
            zeta_even_check(190, 10)
        with pytest.raises(OverflowError):
            analytic._series([1.0], 0.0, 380, 1, 10)
    assert len(forks) == 2
    with pytest.raises(ValueError, match="order j=190 is beyond double precision"):
        _unsplit(zeta_even_check, 190, 10)


@pytest.mark.parametrize("crash", [
    lambda xs: os.kill(os.getpid(), signal.SIGKILL),
    lambda xs: 1 / 0,
])
def test_failed_child_has_its_share_summed_here(forks, monkeypatch, crash):
    # A child killed by a signal, or raising, reports nothing: the caller
    # sums its share itself, to the same bits.
    monkeypatch.setattr(analytic, "_expansion", crash)
    with _leaves_nothing():
        rep = lemma27_check(2, 3, 1, F(1, 5), 5_000)
    assert forks
    assert rep == _unsplit(lemma27_check, 2, 3, 1, F(1, 5), 5_000)


def test_successful_child_leaves_the_caller_its_own_share(forks, monkeypatch):
    # A child that finishes sends back its share, so the caller computes
    # only the first _OWN_SHARE of each run: were the child's floats thrown
    # away, the caller would compute every term again, with the same bits.
    if not analytic._may_fork():
        pytest.skip("this process may not fork")
    computed = []
    real = analytic._terms

    def counting(runs, shift, power):
        computed.append(sum(len(span) for _, span in runs))  # in this process only
        return real(runs, shift, power)

    monkeypatch.setattr(analytic, "_terms", counting)
    with _leaves_nothing():
        value = analytic._series([1.0, -2.0, 0.5], 0.5, 2, 1, 30_000)
    assert len(forks) == 1
    assert computed == [3 * math.ceil(10_000 * analytic._OWN_SHARE)]
    assert _bits(value) == _bits(_one_fsum([1.0, -2.0, 0.5], 0.5, 2, 1, 30_000, None))


def test_fork_failure_sums_the_share_here(forks, monkeypatch):
    def fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    with _leaves_nothing():
        rep = zeta_even_check(1, 20_000)
    assert rep == _unsplit(zeta_even_check, 1, 20_000)


def test_no_fork_for_runs_of_a_few_terms(forks):
    # A period past the window gives one term per residue class: nothing to split.
    rep = lemma27_check(2, 3, 1, F(1, 10**9), 200)
    assert forks == []
    assert rep == _unsplit(lemma27_check, 2, 3, 1, F(1, 10**9), 200)


def test_no_fork_while_another_thread_is_alive(forks):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        rep = zeta_even_check(1, 20_000)
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert forks == []
    assert rep == _unsplit(zeta_even_check, 1, 20_000)


def test_no_fork_on_one_cpu(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    rep = zeta_even_check(1, 20_000)
    assert forks == []
    assert rep == _unsplit(zeta_even_check, 1, 20_000)


# ---------------------------------------------------------------------------
# The child of a complex series: the whole imaginary part
# ---------------------------------------------------------------------------

_COMPLEX_CHECKS = [
    (lemma27_check, (2, 3, 1, F(1, 5), 5_000)),
    (lemma27_check, (1, 2, 1, F(1, 3), 2_000)),
    (fourier_partial_complex, (3, F(5, 8), 2_000)),
    (fourier_partial_complex, (4, F(0), 500)),
]


def _same(got, want) -> bool:
    if isinstance(got, complex):
        return _bits(got) == _bits(want)
    return got == want and _bits(complex(*got.approx)) == _bits(complex(*want.approx))


@pytest.mark.parametrize("check,args", _COMPLEX_CHECKS)
def test_complex_series_forks_once(forks, check, args):
    with _leaves_nothing():
        got = check(*args)
    assert len(forks) == 1
    assert _same(got, _unsplit(check, *args))


@pytest.mark.parametrize("crash", [
    lambda terms, whole: os.kill(os.getpid(), signal.SIGKILL),
    lambda terms, whole: 1 / 0,
])
def test_failed_child_has_its_part_summed_here(forks, monkeypatch, crash):
    # A child killed by a signal, or raising, reports nothing: the caller
    # sums the imaginary part itself, to the same bits.
    monkeypatch.setattr(analytic, "_child_parts", crash)
    with _leaves_nothing():
        got = [check(*args) for check, args in _COMPLEX_CHECKS]
    assert len(forks) == len(_COMPLEX_CHECKS)
    for value, (check, args) in zip(got, _COMPLEX_CHECKS):
        assert _same(value, _unsplit(check, *args))


def test_error_in_the_real_part_kills_and_reaps_the_child(forks):
    # 1e308 + 1e308/2 + 1e308/3 overflows fsum at the caller's third real
    # term, while the child has 2*10^5 imaginary terms to sum.
    with _leaves_nothing():
        with pytest.raises(OverflowError, match="intermediate overflow"):
            analytic._complex_series([complex(1e308, 1.0)], 0.0, 1, 1, 200_000)
    assert len(forks) == 1


def test_fork_failure_sums_both_parts_here(forks, monkeypatch):
    def fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    with _leaves_nothing():
        got = [check(*args) for check, args in _COMPLEX_CHECKS]
    for value, (check, args) in zip(got, _COMPLEX_CHECKS):
        assert _same(value, _unsplit(check, *args))


def test_no_complex_fork_while_another_thread_is_alive(forks):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with _leaves_nothing():
            got = [check(*args) for check, args in _COMPLEX_CHECKS]
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert forks == []
    for value, (check, args) in zip(got, _COMPLEX_CHECKS):
        assert _same(value, _unsplit(check, *args))


def test_no_complex_fork_on_one_cpu(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with _leaves_nothing():
        got = [check(*args) for check, args in _COMPLEX_CHECKS]
    assert forks == []
    for value, (check, args) in zip(got, _COMPLEX_CHECKS):
        assert _same(value, _unsplit(check, *args))


# ---------------------------------------------------------------------------
# A complex series whose one part has only zero weights
# ---------------------------------------------------------------------------

@st.composite
def one_part_zero(draw):
    """A window whose complex weights have one part all zeros (of either sign)."""
    weights, shift, power, lo, hi, pole = draw(windows(kinds=("real",)))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=len(weights),
                          max_size=len(weights)))
    pairs = zip(weights, zeros) if draw(st.booleans()) else zip(zeros, weights)
    return [complex(re, im) for re, im in pairs], shift, power, lo, hi, pole


@given(one_part_zero(), st.booleans())
@example(([complex(1.0, -0.0)], 0.5, 2, -30, 30, None), True)      # lemma27 at integer x
@example(([complex(-0.0, 0.0), complex(0.0, 2.0)], 0.0, 3, 1, 40, None), False)
@settings(max_examples=150, deadline=None)
def test_zero_part_skipped_with_the_bits_of_the_unskipped_sum(window, split):
    weights, shift, power, lo, hi, pole = window
    with _split(7) if split else nullcontext():
        got = analytic._complex_series(weights, shift, power, lo, hi, pole)
    want = complex(_one_fsum([w.real for w in weights], shift, power, lo, hi, pole),
                   _one_fsum([w.imag for w in weights], shift, power, lo, hi, pole))
    assert _bits(got) == _bits(want)


def test_no_child_for_the_zero_part_at_an_integer_x(forks, monkeypatch):
    # At an integer x every phase is 1: the imaginary part is not summed, so
    # no child takes it; the real part is split as lemma24's series is.
    wholes = []
    real_child = analytic._Child

    def child(terms, whole=False):
        wholes.append(whole)
        return real_child(terms, whole)

    monkeypatch.setattr(analytic, "_Child", child)
    with _leaves_nothing():
        got = lemma27_check(2, 3, 1, F(4), 5_000)
    assert wholes == [False] and len(forks) == 1
    assert _same(got, _unsplit(lemma27_check, 2, 3, 1, F(4), 5_000))
    assert got.approx == (analytic.lemma24_check(2, 3, 1, 5_000).approx, 0.0)


def test_order_past_the_double_range_still_raises():
    # Odd n at an integer x: both parts have only zero weights, so both are
    # summed, and the powers overflow.
    with pytest.raises(ValueError, match="order n=151 is beyond double precision"):
        fourier_partial_complex(151, 0, 200)
    # One part zero: the other part's powers raise.
    with pytest.raises(ValueError, match="order j=200 is beyond double precision"):
        lemma27_check(200, 3, 1, F(0), 100)
