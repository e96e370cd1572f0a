"""Bernoulli numbers, polynomials, and periodized kernels against oracles."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from dedsums import bernoulli as bern_mod
from dedsums.bernoulli import (
    BernoulliCache,
    bernoulli_function,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_coeffs,
    bernoulli_poly_derivative_coeffs,
    carlitz_kernel,
    sawtooth,
)

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=24)


def _lcm_denominators(n):
    # L_n, the lcm of the denominators of B_0..B_n, from the oracle's numbers
    return math.lcm(*(oracles.worpitzky_poly(j, Fraction(0)).denominator
                      for j in range(n + 1)))


class TestNumbers:
    def test_known_values(self):
        # B_2 from the displayed quadratic x^2 - x + 1/6 at x = 0
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(3) == 0
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(0) == 1
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(6) == Fraction(1, 42)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_odd_indices_vanish(self):
        for j in range(1, 11):
            assert bernoulli_number(2 * j + 1) == 0

    def test_matches_independent_oracle(self):
        for n in range(17):
            assert bernoulli_number(n) == oracles.worpitzky_poly(n, Fraction(0))


class TestPolynomials:
    def test_spec_values(self):
        assert bernoulli_poly(2, Fraction(1, 3)) == Fraction(-1, 18)
        assert bernoulli_poly(0, Fraction(17, 5)) == 1
        assert bernoulli_poly(1, Fraction(1, 2)) == 0

    def test_matches_independent_oracle(self):
        pts = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3, 7),
               Fraction(22, 5), Fraction(-9, 4)]
        for n in range(11):
            for x in pts:
                assert bernoulli_poly(n, x) == oracles.worpitzky_poly(n, x)

    @given(st.integers(0, 12), rationals)
    def test_integer_evaluator_matches_worpitzky(self, n, x):
        # B_n(x) at any sign of x; the kernel memo holds the integer
        # L_n d^n B_n(t/d) at the fractional part t/d
        assert bernoulli_poly(n, x) == oracles.worpitzky_poly(n, x)
        t = x - (x.numerator // x.denominator)
        value = bern_mod._poly_at_pair(n, t.numerator, t.denominator)
        assert type(value) is int
        assert value == oracles.worpitzky_poly(n, t) * _lcm_denominators(n) * t.denominator ** n

    def test_row_evaluations_match_numbers(self):
        # row at 0 gives B_n; row at 1 gives B_n + [n == 1]
        for n in range(13):
            at0 = bernoulli_poly(n, Fraction(0))
            at1 = bernoulli_poly(n, Fraction(1))
            assert at0 == bernoulli_number(n)
            assert at1 - at0 == (1 if n == 1 else 0)

    def test_row_shape(self):
        row = bernoulli_poly_coeffs(2)
        assert row == (Fraction(1), Fraction(-1), Fraction(1, 6))


class TestDerivativeRows:
    def test_degree_two(self):
        # d/dx (x^2 - x + 1/6) = 2x - 1 = 2 * B_1(x)
        assert bernoulli_poly_derivative_coeffs(2) == (Fraction(2), Fraction(-1))

    def test_degree_one(self):
        assert bernoulli_poly_derivative_coeffs(1) == (Fraction(1),)

    def test_scaled_row_identity(self):
        for n in range(1, 13):
            scaled = tuple(n * c for c in bernoulli_poly_coeffs(n - 1))
            assert bernoulli_poly_derivative_coeffs(n) == scaled

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_poly_derivative_coeffs(0)


class TestSawtooth:
    def test_integer_is_zero(self):
        assert sawtooth(Fraction(7)) == 0

    def test_third(self):
        assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)

    def test_reflection(self):
        assert sawtooth(Fraction(-1, 3)) == Fraction(1, 6)

    @given(st.fractions())
    def test_matches_oracle(self, x):
        assert sawtooth(x) == oracles.sawtooth_oracle(x)


class TestPeriodizedKernel:
    def test_spec_values(self):
        assert bernoulli_function(1, Fraction(1, 2)) == 0
        assert bernoulli_function(2, Fraction(5, 4)) == Fraction(-1, 48)
        assert bernoulli_function(4, Fraction(-3)) == Fraction(-1, 30)

    @given(st.integers(0, 8), rationals)
    def test_matches_oracle(self, n, x):
        assert bernoulli_function(n, x) == oracles.bbar_oracle(n, x)

    @given(st.integers(0, 8), rationals)
    def test_reflection(self, j, x):
        assert bernoulli_function(j, -x) == (-1) ** j * bernoulli_function(j, x)

    @given(st.integers(1, 8), rationals)
    def test_periodicity(self, n, x):
        assert bernoulli_function(n, x + 1) == bernoulli_function(n, x)

    def test_raabe_distribution(self):
        pts = [Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]
        for q in range(1, 9):
            for j in range(7):
                for x in pts:
                    rhs = sum(bernoulli_function(j, x + Fraction(l, q))
                              for l in range(q))
                    assert bernoulli_function(j, q * x) == Fraction(q) ** (j - 1) * rhs

    def test_signed_modulus_sum(self):
        pts = [Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]
        for b in [i for i in range(-8, 9) if i != 0]:
            sb = 1 if b > 0 else -1
            for j in range(7):
                for x in pts:
                    lhs = sum(bernoulli_function(j, Fraction(l - x, 1) / b)
                              for l in range(1, abs(b) + 1))
                    rhs = (-1) ** j * Fraction(b) ** (1 - j) * sb * bernoulli_function(j, x)
                    assert lhs == rhs


class TestCarlitzKernel:
    def test_differs_only_at_integers_in_degree_one(self):
        assert carlitz_kernel(1, Fraction(3)) == Fraction(-1, 2)
        assert bernoulli_function(1, Fraction(3)) == 0
        assert carlitz_kernel(1, Fraction(1, 3)) == bernoulli_function(1, Fraction(1, 3))

    @given(st.integers(0, 8), rationals)
    def test_equals_poly_at_fractional_part(self, n, x):
        assert carlitz_kernel(n, x) == oracles.carlitz_oracle(n, x)

    @given(st.integers(2, 8), rationals)
    def test_agrees_with_periodized_for_higher_degree(self, n, x):
        assert carlitz_kernel(n, x) == bernoulli_function(n, x)


class TestCacheObject:
    def test_fresh_cache_consistency(self):
        cache = BernoulliCache()
        assert cache.number(8) == bernoulli_number(8)
        assert cache.poly_row(5) == bernoulli_poly_coeffs(5)
        assert cache.number(0) == 1

    def test_negative_rejected(self):
        cache = BernoulliCache()
        with pytest.raises(ValueError):
            cache.number(-2)
        with pytest.raises(ValueError):
            cache.poly_row(-1)


class TestIntegerPairKernels:
    """The kernels at an integer pair (num, den), as the identity checkers call them.

    The checkers pass arguments such as ``a x + y`` as unreduced pairs of
    either sign and multiply the integer pair ``(L_n d^n K, L_n d^n)`` into
    their terms, ``d`` the reduced denominator: its ratio must be the
    oracle's value.
    """

    @staticmethod
    def _check(n, num, den):
        x = Fraction(num, den)
        for raw, oracle in ((False, oracles.bbar_oracle), (True, oracles.carlitz_oracle)):
            top, bottom = bern_mod._kernel_pair(n, num, den, raw)
            assert type(top) is int and type(bottom) is int
            assert Fraction(top, bottom) == oracle(n, x)
            assert bottom == _lcm_denominators(n) * x.denominator ** n

    @given(st.integers(0, 8), st.integers(-60, 60),
           st.integers(-12, 12).filter(bool), st.integers(1, 6))
    def test_matches_oracles_at_any_pair(self, n, num, den, scale):
        self._check(n, num * scale, den * scale)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("num, den", [
        (0, 1), (0, -7), (6, 3), (-6, 3), (6, -3), (-12, -4),  # integer points
        (1, -2), (-1, -2), (5, -3), (-7, 6), (14, -12), (3, 9),
    ])
    def test_signs_integer_points_and_low_orders(self, n, num, den):
        self._check(n, num, den)

    def test_degree_one_at_integers(self):
        # 0 on the periodized kernel, B_1(0) = -1/2 on the raw one, whatever the sign
        for num, den in ((0, 1), (4, -2), (-9, 3), (-10, -5)):
            assert Fraction(*bern_mod._kernel_pair(1, num, den)) == 0
            assert Fraction(*bern_mod._kernel_pair(1, num, den, True)) == Fraction(-1, 2)


class TestKernelAdmission:
    """The public kernels take exact points only: an int (not a bool) or a Fraction."""

    CALLS = [
        lambda x: bernoulli_function(2, x),
        lambda x: carlitz_kernel(2, x),
        lambda x: bernoulli_poly(2, x),
        sawtooth,
    ]

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0, float("nan"), True, "1/3", None,
                                   Decimal("0.25")])
    def test_inexact_point_rejected(self, call, x):
        with pytest.raises(ValueError):
            call(x)

    @pytest.mark.parametrize("call", CALLS)
    def test_exact_points_accepted(self, call):
        assert call(3) == call(Fraction(3))
        assert call(Fraction(-7, 3)) == call(Fraction(-14, 6))

    @pytest.mark.parametrize("fn", [bernoulli_function, carlitz_kernel, bernoulli_poly])
    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_degree_must_be_an_int(self, fn, n):
        with pytest.raises(ValueError):
            fn(n, Fraction(1, 3))

    def test_float_point_no_longer_runs_on_its_binary_value(self):
        # 0.1 is 3602879701896397/2^55; its value would carry that denominator
        with pytest.raises(ValueError, match="int or a Fraction"):
            bernoulli_function(2, 0.1)
        assert bernoulli_function(2, Fraction(1, 10)) == Fraction(1, 6) - Fraction(9, 100)
