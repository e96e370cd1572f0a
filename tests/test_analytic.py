"""Truncation checks: references, tolerances, convergence evidence."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedsums import analytic
from dedsums.analytic import (
    ANALYTIC_TARGETS,
    fourier_partial,
    fourier_partial_complex,
    lemma22_exact,
    lemma24_check,
    lemma27_check,
    lemma28_exact,
    zeta_even_check,
)
from dedsums.bernoulli import bernoulli_number
from oracles import bilateral_oracle, fourier_series_oracle, zeta_partial_oracle

F = Fraction


class TestFourier:
    def test_quarter_point(self):
        rep = fourier_partial(2, F(1, 4), 1000)
        assert rep.passed
        assert rep.reference == float(F(-1, 48))
        assert rep.abs_error < 1e-5

    def test_integer_point(self):
        rep = fourier_partial(4, F(0), 100)
        assert rep.passed
        assert rep.reference == float(F(-1, 30))
        assert rep.abs_error < 1e-6

    def test_odd_degree_half_point(self):
        rep = fourier_partial(3, F(1, 2), 10)
        assert rep.passed
        assert rep.reference == 0.0
        assert rep.abs_error < 1e-2

    def test_imaginary_residue_vanishes(self):
        for (n, x, K) in [(2, F(1, 4), 500), (3, F(2, 7), 300), (5, F(-3, 5), 200)]:
            assert abs(fourier_partial_complex(n, x, K).imag) <= 1e-12

    def test_degree_gate(self):
        with pytest.raises(ValueError):
            fourier_partial(1, F(1, 3), 100)

    def test_json_fields(self):
        rep = fourier_partial(2, F(1, 4), 50)
        data = rep.to_json_dict()
        assert list(data) == ["target", "params", "K", "approx", "reference",
                              "abs_error", "tolerance", "pass"]
        assert data["target"] == "fourier"
        assert data["params"] == {"n": 2, "x": "1/4"}


class TestLemma24:
    def test_fractional_pole_quadratic(self):
        rep = lemma24_check(2, 3, 1, 10000)
        assert rep.passed
        # reference equals the bilateral closed form pi^2/sin^2(pi/3) scaled
        assert rep.reference == pytest.approx((math.pi / math.sin(math.pi / 3)) ** 2)

    def test_conditionally_convergent(self):
        rep = lemma24_check(1, 2, 1, 100000)
        assert rep.passed
        assert rep.reference == pytest.approx(0.0, abs=1e-12)
        assert rep.abs_error < 1e-3

    def test_odd_power_integer_pole(self):
        rep = lemma24_check(3, 1, 0, 1000)
        assert rep.passed
        assert rep.approx == 0.0 and abs(rep.reference) <= 1e-12

    def test_even_power_integer_pole_is_even_zeta(self):
        rep = lemma24_check(2, 1, 0, 4000)
        zeta = zeta_even_check(1, 4000)
        assert rep.passed and zeta.passed
        assert rep.reference == pytest.approx(2 * zeta.reference)

    def test_small_window_gate(self):
        with pytest.raises(ValueError):
            lemma24_check(2, 1, 50, 20)

    def test_error_within_derived_tolerance_grid(self):
        for j in (1, 2, 3, 4):
            for b in (-5, -2, 1, 3, 7):
                for r in (-3, 0, 1, 4, 9):
                    rep = lemma24_check(j, b, r, 2000)
                    assert rep.passed, (j, b, r)

    def test_error_is_independent_hurwitz_tail(self):
        # the truncation error at |d| <= K is the two-sided tail
        # sum_{d>K} (d+1/3)^-2 + (d-1/3)^-2 = zeta(2, K+4/3) + zeta(2, K+2/3),
        # evaluated here by mpmath, which shares no code with the library
        mpmath = pytest.importorskip("mpmath")
        K = 10**4
        rep = lemma24_check(2, 3, 1, K)
        with mpmath.workdps(30):
            tail = (mpmath.zeta(2, mpmath.mpf(3 * K + 4) / 3)
                    + mpmath.zeta(2, mpmath.mpf(3 * K + 2) / 3))
        assert abs(rep.abs_error - float(tail)) <= 1e-12


class TestLemma27:
    def test_weighted_quadratic(self):
        rep = lemma27_check(2, 3, 1, F(1, 5), 10000)
        assert rep.passed and rep.abs_error < 1e-3

    def test_weighted_conditionally_convergent(self):
        rep = lemma27_check(1, 2, 1, F(1, 3), 100000)
        assert rep.passed and rep.abs_error < 1e-2

    def test_integer_weight_reduces_to_unweighted(self):
        weighted = lemma27_check(2, 3, 1, F(0), 10000)
        plain = lemma24_check(2, 3, 1, 10000)
        assert weighted.passed
        assert weighted.approx[0] == pytest.approx(plain.approx, abs=1e-12)
        assert weighted.approx[1] == pytest.approx(0.0, abs=1e-12)
        assert weighted.reference[0] == pytest.approx(plain.reference, abs=1e-9)

    def test_complex_report_shape(self):
        rep = lemma27_check(1, 3, 2, F(2, 7), 5000)
        assert rep.passed
        data = rep.to_json_dict()
        assert isinstance(data["approx"], list) and len(data["approx"]) == 2

    def test_error_within_derived_tolerance_grid(self):
        pts = [F(0), F(1, 3), F(-2, 5), F(5, 4)]
        for j in (1, 2, 3):
            for b in (-4, 2, 5):
                for r in (0, 1, 3):
                    for x in pts:
                        rep = lemma27_check(j, b, r, x, 3000)
                        assert rep.passed, (j, b, r, x)


class TestZetaEven:
    def test_j1(self):
        rep = zeta_even_check(1, 10**6)
        assert rep.passed
        assert rep.reference == pytest.approx(math.pi**2 / 6)
        assert rep.abs_error <= 1e-6

    def test_j2(self):
        rep = zeta_even_check(2, 1000)
        assert rep.passed
        assert rep.reference == pytest.approx(math.pi**4 / 90)
        assert rep.abs_error <= 1e-9

    def test_j3_reference_coefficient(self):
        rep = zeta_even_check(3, 100)
        assert rep.passed
        assert bernoulli_number(6) == F(1, 42)
        expect = float(F(2**5, math.factorial(6)) * F(1, 42)) * math.pi**6
        assert rep.reference == pytest.approx(expect, rel=1e-15)

    def test_gates(self):
        with pytest.raises(ValueError):
            zeta_even_check(0, 10)
        with pytest.raises(ValueError):
            zeta_even_check(1, 0)


class TestConvergenceEvidence:
    def test_error_shrinks_at_quadruple_level(self):
        quads = [
            lambda K: fourier_partial(2, F(0), K),
            lambda K: fourier_partial(2, F(1, 4), K),
            lambda K: fourier_partial(4, F(2, 7), K),
            lambda K: lemma24_check(2, 3, 1, K),
            lambda K: lemma24_check(3, 5, 2, K),
            lambda K: lemma27_check(2, 3, 1, F(1, 5), K),
            lambda K: zeta_even_check(1, K),
            lambda K: zeta_even_check(2, K),
        ]
        for mk in quads:
            e1 = mk(500).abs_error
            e4 = mk(2000).abs_error
            assert e4 <= e1 + 1e-14
        oscillatory = [
            lambda K: lemma24_check(1, 2, 1, K),
            lambda K: lemma24_check(1, 3, 2, K),
            lambda K: lemma27_check(1, 2, 1, F(1, 3), K),
            lambda K: lemma27_check(1, 5, 3, F(2, 7), K),
        ]
        for mk in oscillatory:
            e1 = mk(500).abs_error
            e4 = mk(2000).abs_error
            assert e4 <= 2 * e1 + 1e-14


def _bits(value) -> list:
    """float.hex and the sign of every part: equal lists mean equal bits."""
    if isinstance(value, complex):
        value = (value.real, value.imag)
    parts = value if isinstance(value, tuple) else (value,)
    return [(v.hex(), math.copysign(1.0, v)) for v in parts]


# The approximation each report carries, by the literal loops the core replaced.
_ORACLE_APPROX = {
    "fourier": lambda n, x, K: fourier_series_oracle(n, x, K).real,
    "lemma24": lambda j, b, r, K: bilateral_oracle(j, F(r, b), None, K).real,
    "lemma27": lambda j, b, r, x, K: bilateral_oracle(j, F(r, b), x, K),
    "zeta-even": zeta_partial_oracle,
}


def _assert_same_approx(target: str, args: tuple) -> None:
    approx = ANALYTIC_TARGETS[target].fn(*args).approx
    assert _bits(approx) == _bits(_ORACLE_APPROX[target](*args)), (target, args)


def _assert_same_bits(j: int, b: int, r: int, x: Fraction, K: int) -> None:
    # Every series of the four checks against the oracle loops.  The lemma
    # checks need K past the pole at -r/b; fourier and zeta_even take any K.
    KL = max(K, 2 * (math.ceil(abs(F(r, b))) + 1))
    for target, args in (("lemma24", (j, b, r, KL)), ("lemma27", (j, b, r, x, KL)),
                         ("fourier", (j + 1, x, K)), ("zeta-even", (j, K))):
        _assert_same_approx(target, args)
    assert _bits(fourier_partial_complex(j + 1, x, K)) == \
        _bits(fourier_series_oracle(j + 1, x, K))


class TestStreamedSeriesBits:
    """The streamed core against the term lists it replaced, bit for bit."""

    @given(j=st.integers(1, 6),
           b=st.sampled_from([*range(-12, 0), *range(1, 13)]),
           r=st.integers(-30, 30),
           x=st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
           K=st.integers(1, 3000))
    @settings(max_examples=120, deadline=None)
    def test_random_draws(self, j, b, r, x, K):
        _assert_same_bits(j, b, r, x, K)

    @pytest.mark.parametrize("j,b,r,x,K", [
        (1, 1, 0, F(0), 1),            # pole at d = 0, one residue class
        (2, -1, 7, F(3), 16),          # pole at d = 7, integer x
        (2, 3, 6, F(1, 7), 100),       # pole at d = -2 inside one of seven classes
        (3, 4, 8, F(5), 2999),         # odd power, pole at d = -2
        (6, 12, -30, F(-7, 12), 64),   # highest order, alpha = -5/2, twelve classes
        (1, 3, 1, F(1, 10**9), 20),    # q far past K: one weight per index
        (2, -4, 8, F(-999_999_937, 10**9 + 7), 25),   # the same, pole at d = 2
    ])
    def test_edge_draws(self, j, b, r, x, K):
        _assert_same_bits(j, b, r, x, K)

    @pytest.mark.parametrize("target,args", [
        ("fourier", (2, F(-7, 9), 10_000)),
        ("fourier", (3, F(5, 8), 200_000)),
        ("lemma24", (2, 9, -4, 20_000)),
        ("lemma24", (2, 7, 5, 200_000)),
        ("lemma27", (2, 8, 3, F(-5, 9), 50_000)),
        ("lemma27", (2, 5, -3, F(2, 7), 250_000)),
        ("zeta-even", (1, 1_000_000)),
    ])
    def test_benchmark_shapes_at_full_K(self, target, args):
        # The shapes of the analytic-tails workload, at its largest K.
        _assert_same_approx(target, args)

    @pytest.mark.parametrize("lo,hi,pole", [
        (-5, 5, 0), (-5, 5, -5), (-5, 5, 5), (-5, 5, 6), (-5, 5, -9), (-5, 5, None),
        (3, 3, 3), (3, 3, None), (4, 3, None), (-17, 11, 2),
    ])
    def test_core_window(self, lo, hi, pole):
        # The core's contract on windows the checks never ask for: the pole
        # at an end of the window, outside it, or an empty window.
        weights = [0.5, -1.25, 3.0, -0.0, 2.0]
        want = math.fsum(weights[(d - lo) % 5] / (d + 0.375) ** 3
                         for d in range(lo, hi + 1) if d != pole)
        got = analytic._series(weights, 0.375, 3, lo, hi, pole)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("lo,hi,pole", [
        (1, 3, None), (-2, 2, 0), (-2, 2, 2), (4, 3, None),
    ])
    def test_core_window_shorter_than_the_period(self, lo, hi, pole):
        # A window shorter than q gets one weight per index, from lo on.
        q = 10**9
        weights = analytic._window_weights(lambda d: float(d % q), q, lo, hi)
        assert len(weights) == max(0, hi - lo + 1)
        want = math.fsum(float(d % q) / (d + 0.375) ** 3
                         for d in range(lo, hi + 1) if d != pole)
        assert _bits(analytic._series(weights, 0.375, 3, lo, hi, pole)) == _bits(want)


@pytest.mark.parametrize("check,args", [
    (lemma27_check, (2, 8, 3, F(-5, 9), 250_000)),
    (lemma24_check, (2, 9, -4, 200_000)),
    (fourier_partial, (2, F(5, 8), 200_000)),
    (fourier_partial, (2, F(1, 10**9), 10)),
    (lemma27_check, (2, 3, 1, F(1, 10**9), 20)),
])
def test_series_memory_is_bounded(check, args):
    # Term lists of 2K+1 floats would peak at 13-32 MB in the first three,
    # and a weight table of one period at gigabytes in the last two.
    tracemalloc.start()
    try:
        check(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("check,args,order", [
    (lemma24_check, (700, 3, 1, 10), "j=700"),
    (lemma27_check, (700, 3, 1, F(1, 2), 10), "j=700"),
    (zeta_even_check, (200, 10), "j=200"),
    (fourier_partial, (200, F(1, 3), 100), "n=200"),
    (fourier_partial_complex, (200, F(1, 3), 100), "n=200"),
    (lemma24_check, (150, 1000, 1, 4), "j=150"),   # 0.001^150 underflows to zero
    (lemma24_check, (400, 1, 0, 2), "j=400"),      # the series is finite; (2 pi i)^400 is not
])
def test_order_beyond_double_precision_is_a_value_error(check, args, order):
    with pytest.raises(ValueError, match=f"order {order} is beyond double precision"):
        check(*args)


@pytest.mark.parametrize("check,args,order", [
    (zeta_even_check, (311, 1), "j=311"),          # pi^622 overflows; B_622 is slow
    (lemma24_check, (150, 1000, 1, 4), "j=150"),   # 1000 exact degree-150 kernel values
])
def test_order_beyond_double_precision_fails_before_exact_work(check, args, order):
    # The float steps run before the exact reference, so the error comes at once.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"order {order} is beyond double precision"):
        check(*args)
    assert time.perf_counter() - t0 < 0.5


class TestExactLemmas:
    def test_partial_fraction_hand_case(self):
        lhs, rhs = lemma22_exact(1, 1, F(0), F(1), F(2))
        assert lhs == rhs == F(1, 2)

    def test_partial_fraction_examples(self):
        for args in [(2, 1, F(3), F(1), F(1, 2)), (3, 4, F(1, 7), F(2, 7), F(3, 7))]:
            lhs, rhs = lemma22_exact(*args)
            assert lhs == rhs

    def test_partial_fraction_random(self):
        rng = random.Random(2024)
        done = 0
        while done < 200:
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            d, x, y = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            if d == x or d == y or x == y:
                continue
            lhs, rhs = lemma22_exact(m, n, d, x, y)
            assert lhs == rhs
            done += 1

    def test_partial_fraction_gate(self):
        with pytest.raises(ValueError):
            lemma22_exact(1, 1, F(1), F(1), F(2))
        with pytest.raises(ValueError):
            lemma22_exact(1, 1, F(0), F(2), F(2))

    def test_binomial_sum_examples(self):
        assert lemma28_exact(1, 1) == (1, 1)
        lhs, rhs = lemma28_exact(3, 2)
        assert lhs == rhs == 6
        lhs, rhs = lemma28_exact(5, 4)
        assert lhs == rhs

    def test_binomial_sum_random(self):
        rng = random.Random(2025)
        for _ in range(200):
            m, n = rng.randint(1, 40), rng.randint(1, 40)
            lhs, rhs = lemma28_exact(m, n)
            assert lhs == rhs
