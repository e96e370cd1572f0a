"""Integer/rational primitive behavior and algebraic properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dedsums.exact import (
    binomial,
    floor_frac,
    format_rational,
    frac,
    gcd_pos,
    is_integer,
    mod_inverse,
    parse_rational,
    sgn,
)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64)


class TestGcd:
    def test_sign_stripped(self):
        assert gcd_pos(12, -18) == 6

    def test_unit(self):
        assert gcd_pos(7, 1) == 1

    def test_zero_argument(self):
        assert gcd_pos(0, -5) == 5
        assert gcd_pos(-5, 0) == 5

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd_pos(0, 0)

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_divides_and_is_greatest(self, a, b):
        if a == 0 and b == 0:
            return
        g = gcd_pos(a, b)
        assert g >= 1
        assert abs(a) % g == 0 and abs(b) % g == 0
        for d in range(1, min(200, max(abs(a), abs(b))) + 1):
            if (a % d == 0) and (b % d == 0):
                assert g % d == 0


class TestFloorFrac:
    def test_negative_fraction(self):
        assert floor_frac(Fraction(-7, 3)) == (-3, Fraction(2, 3))

    def test_integer_input(self):
        assert floor_frac(Fraction(5)) == (5, Fraction(0))

    def test_half(self):
        assert floor_frac(Fraction(1, 2)) == (0, Fraction(1, 2))

    @given(rationals)
    def test_reconstruction(self, x):
        q, t = floor_frac(x)
        assert q + t == x
        assert 0 <= t < 1

    @given(rationals, st.integers(-50, 50))
    def test_fractional_part_periodic(self, x, k):
        assert floor_frac(x + k)[1] == floor_frac(x)[1]


class TestSgnIsInteger:
    @pytest.mark.parametrize("x,expected", [
        (Fraction(-3, 7), -1), (Fraction(0), 0), (Fraction(9), 1),
    ])
    def test_sgn(self, x, expected):
        assert sgn(x) == expected

    def test_is_integer(self):
        assert is_integer(Fraction(4, 2))
        assert not is_integer(Fraction(1, 2))
        assert is_integer(Fraction(-6))


class TestBinomial:
    def test_basic(self):
        assert binomial(5, 2) == 10

    def test_negative_k_is_zero(self):
        assert binomial(4, -1) == 0

    def test_zero_zero(self):
        assert binomial(0, 0) == 1

    def test_k_above_n_is_zero(self):
        assert binomial(3, 5) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_rule(self):
        for n in range(1, 65):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestModInverse:
    def test_basic(self):
        assert mod_inverse(3, 7) == 5

    def test_modulus_one(self):
        assert mod_inverse(1, 1) == 0

    def test_no_inverse(self):
        with pytest.raises(ValueError):
            mod_inverse(4, 6)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_inverse(3, 0)

    @given(st.integers(-100, 100), st.integers(1, 97))
    def test_inverse_property(self, a, m):
        from math import gcd
        if gcd(a, m) != 1:
            return
        inv = mod_inverse(a, m)
        assert 0 <= inv < m
        assert (a * inv) % m == 1 % m


class TestLiteralFormat:
    @pytest.mark.parametrize("text,value", [
        ("-7/3", Fraction(-7, 3)),
        ("5", Fraction(5)),
        ("0", Fraction(0)),
        ("4/2", Fraction(2)),
        ("-0", Fraction(0)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "+5", "1.5", "7/-3", "5/0", "1/ 2", "a/b", "1//2",
                                      "5\n", "\u0663", "1/\u0663"])
    def test_rejects_bad_literals(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x


class TestExactArithmetic:
    @given(st.integers(-999, 999), st.integers(1, 999),
           st.integers(-999, 999), st.integers(1, 999))
    def test_addition_exact(self, a, b, c, d):
        # (a/b + c/d) * (b*d) == a*d + c*b as integers
        s = (Fraction(a, b) + Fraction(c, d)) * (b * d)
        assert s == a * d + c * b
        assert s.denominator == 1


class TestNoCopyOnFractions:
    """The helpers skip the ``Fraction(x)`` copy of a Fraction; an int or a
    Fraction still gives the result of copying it first, and any other input
    (a bool, a float, a string, None) raises ValueError."""

    @staticmethod
    def _outcome(fn, x):
        try:
            return fn(x)
        except Exception as exc:
            return type(exc)

    @pytest.mark.parametrize("x", [Fraction(-7, 3), Fraction(4), 5, -2, True, 0.75, "9/4",
                                   "-3", " 1/2 ", None, "x", float("inf")])
    def test_same_result_as_a_copy_first(self, x):
        reference = {
            floor_frac: lambda v: (math.floor(Fraction(v)), Fraction(v) - math.floor(Fraction(v))),
            frac: lambda v: Fraction(v) - math.floor(Fraction(v)),
            is_integer: lambda v: Fraction(v).denominator == 1,
            format_rational: lambda v: (str(Fraction(v).numerator) if Fraction(v).denominator == 1
                                        else f"{Fraction(v).numerator}/{Fraction(v).denominator}"),
        }
        exact = type(x) in (int, Fraction)
        for fn, ref in reference.items():
            assert self._outcome(fn, x) == (self._outcome(ref, x) if exact else ValueError)
