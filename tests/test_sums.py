"""Sum families against literal-summation oracles and structural properties.

Both routes of the lattice-sum core are forced in turn and compared with the
literal loops of ``tests/oracles.py``.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dedsums import bernoulli as bern_mod
from dedsums import reciprocity as rec_mod
from dedsums import sums as sums_mod
from dedsums.exact import gcd_pos
from dedsums.reciprocity import run_case
from dedsums.sums import (
    SUM_FAMILIES,
    SumRequest,
    apostol_s,
    berndt_s,
    carlitz_s,
    classical_s,
    count_ladder,
    hwz_s,
    rademacher_s,
    s_mn_plain,
    s_mn_two,
    s_n_two,
)

F = Fraction
ZERO = F(0)


def rand_rational(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 9))


class TestClassical:
    def test_two_three(self):
        # r=1: ((1/3))((2/3)) = -1/36 ; r=2: ((2/3))((4/3)) = -1/36 ; r=3: 0
        assert classical_s(2, 3) == F(-1, 18)

    def test_three_two(self):
        assert classical_s(3, 2) == 0

    def test_unit_modulus(self):
        assert classical_s(5, 1) == 0

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            classical_s(1, 0)

    def test_against_oracle(self):
        rng = random.Random(101)
        for _ in range(60):
            a = rng.randint(-12, 12)
            b = rng.choice((-1, 1)) * rng.randint(1, 12)
            expect = sum(
                oracles.sawtooth_oracle(F(r, b)) * oracles.sawtooth_oracle(F(a * r, b))
                for r in range(1, abs(b) + 1))
            assert classical_s(a, b) == expect


class TestRademacher:
    def test_zero_shifts_reduce_to_classical(self):
        assert rademacher_s(2, 3, ZERO, ZERO) == classical_s(2, 3)

    def test_half_shift(self):
        assert rademacher_s(1, 2, F(1, 2), ZERO) == 0

    def test_negative_modulus_signed_division(self):
        # r=1: ((-3/4))^2 = 1/16 ; r=2: ((-5/4))^2 = 1/16
        assert rademacher_s(1, -2, ZERO, F(1, 2)) == F(1, 8)

    def test_against_oracle(self):
        rng = random.Random(102)
        for _ in range(40):
            a = rng.randint(-9, 9)
            b = rng.choice((-1, 1)) * rng.randint(1, 9)
            x, y = rand_rational(rng), rand_rational(rng)
            expect = sum(
                oracles.sawtooth_oracle((r + y) / b)
                * oracles.sawtooth_oracle(a * (r + y) / b + x)
                for r in range(1, abs(b) + 1))
            assert rademacher_s(a, b, x, y) == expect


class TestBerndt:
    def test_single_term(self):
        assert berndt_s(1, 1, 1, ZERO, ZERO, ZERO) == 0

    def test_one_two_three(self):
        assert berndt_s(1, 2, 3, ZERO, ZERO, ZERO) == F(-1, 18)

    def test_equals_generalized_at_order_one(self):
        rng = random.Random(103)
        for _ in range(100):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            c = rng.choice((-1, 1)) * rng.randint(1, 9)
            x, y, z = (rand_rational(rng) for _ in range(3))
            assert berndt_s(a, b, c, x, y, z) == hwz_s(1, 1, a, b, c, x, y, z)


class TestApostol:
    def test_order_one_is_classical(self):
        assert apostol_s(1, 2, 3) == F(-1, 18)

    def test_half_points(self):
        assert apostol_s(3, 1, 2) == 0

    def test_order_two(self):
        assert apostol_s(2, 1, 3) == 0

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            apostol_s(0, 1, 3)

    def test_against_oracle(self):
        rng = random.Random(104)
        for _ in range(30):
            n = rng.randint(1, 5)
            a = rng.randint(-9, 9)
            b = rng.choice((-1, 1)) * rng.randint(1, 9)
            expect = sum(
                oracles.sawtooth_oracle(F(r, b)) * oracles.bbar_oracle(n, F(a * r, b))
                for r in range(1, abs(b) + 1))
            assert apostol_s(n, a, b) == expect


class TestCarlitz:
    def test_single_term_raw_kernel(self):
        # B_1({1})^2 = (-1/2)^2, not 0: the raw kernel differs from the sawtooth
        assert carlitz_s(1, 1, 1, ZERO, ZERO) == F(1, 4)

    def test_order_zero_collapses_second_factor(self):
        rng = random.Random(105)
        for _ in range(20):
            a = rng.randint(-9, 9)
            b = rng.choice((-1, 1)) * rng.randint(1, 9)
            x, y = rand_rational(rng), rand_rational(rng)
            expect = sum(oracles.carlitz_oracle(1, (r + y) / b)
                         for r in range(1, abs(b) + 1))
            assert carlitz_s(0, a, b, x, y) == expect

    def test_order_two(self):
        assert carlitz_s(2, 1, 2, ZERO, ZERO) == F(-1, 12)

    def test_against_oracle(self):
        rng = random.Random(106)
        for _ in range(30):
            n = rng.randint(0, 5)
            a = rng.randint(-9, 9)
            b = rng.choice((-1, 1)) * rng.randint(1, 9)
            x, y = rand_rational(rng), rand_rational(rng)
            expect = sum(
                oracles.carlitz_oracle(1, (r + y) / b)
                * oracles.carlitz_oracle(n, a * (r + y) / b + x)
                for r in range(1, abs(b) + 1))
            assert carlitz_s(n, a, b, x, y) == expect


class TestGeneralized:
    def test_order_zero_counts_terms(self):
        assert hwz_s(0, 0, 3, 7, 4, F(1, 3), F(2, 5), F(1, 7)) == 4
        assert hwz_s(0, 0, 1, 1, -5, ZERO, ZERO, ZERO) == 5

    def test_low_order_values(self):
        assert hwz_s(1, 1, 1, 2, 3, ZERO, ZERO, ZERO) == F(-1, 18)
        assert hwz_s(2, 1, 1, 1, 2, ZERO, ZERO, ZERO) == 0

    def test_zero_top_entry_allowed(self):
        # a = 0 makes the first factor constant in r
        v = hwz_s(2, 1, 0, 1, 3, F(1, 4), ZERO, ZERO)
        expect = sum(
            oracles.bbar_oracle(2, F(-1, 4)) * oracles.bbar_oracle(1, F(r, 3))
            for r in range(1, 4))
        assert v == expect

    def test_against_oracle(self):
        rng = random.Random(107)
        for _ in range(40):
            m, n = rng.randint(0, 4), rng.randint(0, 4)
            a, b = rng.randint(-8, 8), rng.randint(-8, 8)
            c = rng.choice((-1, 1)) * rng.randint(1, 8)
            x, y, z = (rand_rational(rng) for _ in range(3))
            assert hwz_s(m, n, a, b, c, x, y, z) == \
                oracles.hwz_oracle(m, n, a, b, c, x, y, z)


class TestTwoModulusProjections:
    def test_embeds_in_generalized(self):
        rng = random.Random(108)
        for _ in range(100):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            a = rng.randint(-9, 9)
            b = rng.choice((-1, 1)) * rng.randint(1, 9)
            x, y = rand_rational(rng), rand_rational(rng)
            assert s_mn_two(m, n, a, b, x, y) == hwz_s(m, n, a, 1, b, -x, ZERO, y)

    def test_order_one_pair_is_classical(self):
        assert s_mn_two(1, 1, 2, 3, ZERO, ZERO) == F(-1, 18)

    def test_order_zero_first_factor(self):
        rng = random.Random(109)
        for _ in range(20):
            n = rng.randint(0, 4)
            a = rng.randint(-9, 9)
            b = rng.choice((-1, 1)) * rng.randint(1, 9)
            x, y = rand_rational(rng), rand_rational(rng)
            expect = sum(oracles.bbar_oracle(n, (r + y) / b)
                         for r in range(1, abs(b) + 1))
            assert s_mn_two(0, n, a, b, x, y) == expect

    def test_single_order_form_factors_commute(self):
        rng = random.Random(110)
        for _ in range(50):
            n = rng.randint(0, 4)
            a = rng.randint(-9, 9)
            b = rng.choice((-1, 1)) * rng.randint(1, 9)
            x, y = rand_rational(rng), rand_rational(rng)
            assert s_n_two(n, a, b, x, y) == s_mn_two(n, 1, a, b, x, y)

    def test_single_order_values(self):
        assert s_n_two(1, 2, 3, ZERO, ZERO) == F(-1, 18)
        assert s_n_two(2, 1, 3, ZERO, ZERO) == 0


class TestPlainThreeModulus:
    def test_examples(self):
        assert s_mn_plain(1, 2, 1, 1, 3) == 0
        assert s_mn_plain(2, 2, 1, 1, 1) == F(1, 36)

    def test_parity_vanishing(self):
        for m in range(0, 8):
            for n in range(0, 8 - m):
                if (m + n) % 2 == 0:
                    continue
                for (a, b, c) in [(1, 1, 1), (2, 3, 4), (5, 7, 8), (6, 6, 6)]:
                    assert s_mn_plain(m, n, a, b, c) == 0


class TestFamilyCoherence:
    def test_order_one_families_agree(self):
        for a in range(1, 13):
            for b in range(1, 13):
                v = classical_s(a, b)
                assert apostol_s(1, a, b) == v
                assert rademacher_s(a, b, ZERO, ZERO) == v
                assert s_n_two(1, a, b, ZERO, ZERO) == v

    def test_shift_periodicity(self):
        rng = random.Random(111)
        for _ in range(25):
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            c = rng.choice((-1, 1)) * rng.randint(1, 6)
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            x, y, z = (rand_rational(rng) for _ in range(3))
            base = hwz_s(m, n, a, b, c, x, y, z)
            assert hwz_s(m, n, a, b, c, x + 1, y, z) == base
            assert hwz_s(m, n, a, b, c, x, y + 1, z) == base
            assert hwz_s(m, n, a, b, c, x, y, z + 1) == base
            assert rademacher_s(a or 1, c, x, y) == rademacher_s(a or 1, c, x + 1, y + 1)
            assert carlitz_s(n, a, c, x, y) == carlitz_s(n, a, c, x + 1, y + 1)

    @pytest.mark.parametrize("family", sorted(SUM_FAMILIES))
    def test_int_shifts_equal_fraction_shifts(self, family):
        spec = SUM_FAMILIES[family]
        head = [2] * len(spec.orders) + [5, -3, 7][:len(spec.moduli)]
        shifts = [1, -2, 0][:len(spec.shifts)]
        assert spec.fn(*head, *shifts) == spec.fn(*head, *map(F, shifts))


class TestOneMemo:
    """Every family reads the one memo on the lattice sum, keyed by its integers."""

    def test_rademacher_reads_the_hwz_entry(self):
        _clear_all()
        a, b, x, y = 3, -7, F(1, 3), F(-2, 5)
        first = hwz_s(1, 1, 1, a, b, 0, -x, y)
        assert rademacher_s(a, b, x, y) == first
        info = sums_mod._lattice_sum.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_classical_reads_the_plain_entry(self):
        _clear_all()
        first = s_mn_plain(1, 1, 1, 5, 11)
        assert classical_s(5, 11) == first
        info = sums_mod._lattice_sum.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_family_views_read_the_one_memo(self):
        for fn in (*(spec.fn for spec in SUM_FAMILIES.values()), rec_mod._inner_pair_sum):
            assert fn.cache_info == sums_mod._lattice_sum.cache_info
            assert fn.cache_clear == sums_mod._lattice_sum.cache_clear


_LADDER_SHIFTS = st.one_of(st.integers(-4, 4).map(Fraction),
                           st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))


class TestLadderCounter:
    def test_examples(self):
        assert count_ladder(1, 1, 1, ZERO, ZERO, ZERO) == 1
        assert count_ladder(2, 3, 5, ZERO, ZERO, ZERO) == 1
        assert count_ladder(2, 3, 5, F(1, 2), ZERO, ZERO) == 0

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            count_ladder(0, 1, 1, ZERO, ZERO, ZERO)

    @pytest.mark.parametrize("warm", [False, True])
    def test_inexact_arguments_rejected_in_either_memo_state(self, warm):
        sums_mod.clear_caches()
        if warm:  # memoize the int and Fraction calls the inexact ones equal
            assert count_ladder(1, 2, 3, 1, 0, 0) == 1
            assert count_ladder(1, 2, 3, 0, 0, F(1, 2)) == 0
        for args in [(1, 2, 3, 0, 0, 0.5), (1, 2, 3, 0, 0, "1/2"), (1, 2, 3, True, 0, 0)]:
            with pytest.raises(ValueError):
                count_ladder(*args)

    @pytest.mark.parametrize("warm", [False, True])
    def test_unhashable_arguments_rejected_in_either_memo_state(self, warm):
        # The arguments are admitted before the memo hashes them.
        sums_mod.clear_caches()
        if warm:
            assert count_ladder(1, 2, 3, 0, 0, 1) == 1
        for args in [(1, 2, 3, 0, 0, [1]), ([1], 2, 3, 0, 0, 0), (1, 2, 3, {}, 0, 0)]:
            with pytest.raises(ValueError):
                count_ladder(*args)
        info = count_ladder.cache_info()
        assert (info.hits, info.misses) == (0, 1 if warm else 0)

    def test_public_name_carries_the_views_of_its_memo(self):
        memo = sums_mod.memos()["sums.count_ladder"]
        assert memo is not count_ladder
        assert count_ladder.cache_info == memo.cache_info
        assert count_ladder.cache_clear == memo.cache_clear

    def test_matches_triple_enumeration_positive(self):
        shifts = [ZERO, F(1, 2), F(1, 3), F(2, 5)]
        for a in range(1, 7):
            for b in range(1, 7):
                for c in range(1, 7):
                    for x in shifts:
                        for y in shifts:
                            for z in shifts:
                                assert count_ladder(a, b, c, x, y, z) == \
                                    oracles.ladder_count_oracle(a, b, c, x, y, z)

    def test_matches_triple_enumeration_signed(self):
        rng = random.Random(112)
        for _ in range(300):
            a = rng.choice((-1, 1)) * rng.randint(1, 6)
            b = rng.choice((-1, 1)) * rng.randint(1, 6)
            c = rng.choice((-1, 1)) * rng.randint(1, 6)
            x, y, z = (rand_rational(rng) for _ in range(3))
            assert count_ladder(a, b, c, x, y, z) == \
                oracles.ladder_count_oracle(a, b, c, x, y, z)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(-30, 30).filter(bool), b=st.integers(-30, 30).filter(bool),
           c=st.integers(-30, 30).filter(bool), x=_LADDER_SHIFTS, y=_LADDER_SHIFTS,
           z=_LADDER_SHIFTS)
    def test_congruence_count_matches_enumeration(self, a, b, c, x, y, z):
        assert count_ladder(a, b, c, x, y, z) == oracles.ladder_count_oracle(a, b, c, x, y, z)

    def test_unshifted_is_gcd(self):
        for a in range(1, 13):
            for b in range(1, 13):
                for c in range(1, 13):
                    assert count_ladder(a, b, c, ZERO, ZERO, ZERO) == \
                        gcd_pos(gcd_pos(a, b), c)


class TestSumRequest:
    def test_dispatch(self):
        req = SumRequest("classical", moduli=(2, 3))
        assert req.evaluate() == F(-1, 18)
        req = SumRequest("hwz", orders=(0, 0), moduli=(1, 1, 4),
                         shifts=(ZERO, ZERO, ZERO))
        assert req.evaluate() == 4

    def test_json_round_trip(self):
        req = SumRequest("carlitz", orders=(2,), moduli=(1, 2),
                         shifts=(F(-7, 3), F(1, 2)))
        data = req.to_json_dict()
        assert data == {"family": "carlitz", "n": 2, "a": 1, "b": 2,
                        "x": "-7/3", "y": "1/2"}
        back = SumRequest.from_json_dict(data)
        assert back == req
        assert back.evaluate() == req.evaluate()

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            SumRequest("classical", orders=(1,), moduli=(2, 3)).validate()
        with pytest.raises(ValueError):
            SumRequest("hwz", orders=(1, 1), moduli=(1, 2), shifts=(ZERO,) * 3).validate()
        # A zero modulus is the family's own precondition, checked on evaluation.
        with pytest.raises(ValueError, match="modulus b must be nonzero"):
            SumRequest("classical", moduli=(2, 0)).evaluate()

    def test_json_of_a_malformed_request_is_refused(self):
        for req in (SumRequest("classical", moduli=(2, 3, 4)),
                    SumRequest("carlitz", orders=(2,), moduli=(1, 2), shifts=(0.5, F(1, 2)))):
            with pytest.raises(ValueError):
                req.to_json_dict()

    def test_arity_message_names_the_declared_shape(self):
        with pytest.raises(ValueError) as exc:
            SumRequest("hwz", orders=(1, 1), moduli=(1, 2), shifts=(ZERO,) * 3).validate()
        assert str(exc.value) == "hwz takes 2 order(s), 3 moduli and 3 shift(s)"
        with pytest.raises(ValueError) as exc:
            SumRequest("classical", orders=(1,), moduli=(2, 3)).validate()
        assert str(exc.value) == "classical takes 0 order(s), 2 moduli and 0 shift(s)"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            SumRequest("nope", moduli=(1, 2)).validate()
        with pytest.raises(ValueError):
            SumRequest.from_json_dict({"family": "nope"})


# ---------------------------------------------------------------------------
# The two routes of the lattice-sum core
# ---------------------------------------------------------------------------

def _clear_all():
    sums_mod.clear_caches()
    rec_mod.clear_caches()
    bern_mod.clear_eval_cache()


@contextlib.contextmanager
def forced_route(piecewise: bool):
    """Send every lattice sum down one route, from cleared caches."""
    saved = sums_mod._PIECEWISE_MIN_TERMS, sums_mod._piecewise_pays
    sums_mod._PIECEWISE_MIN_TERMS = 0 if piecewise else saved[0]
    sums_mod._piecewise_pays = lambda m, n, stretches, count: piecewise
    _clear_all()
    try:
        yield
    finally:
        sums_mod._PIECEWISE_MIN_TERMS, sums_mod._piecewise_pays = saved
        _clear_all()


def _family_and_oracle(family, m, n, a, b, c, x, y, z):
    """(the family evaluated at one drawn tuple, the literal loop's value).

    ``c`` is the summed modulus of every family; the oracle is the hwz loop
    of ``tests/oracles.py`` at the family's embedding into hwz_s.
    """
    hwz, raw = oracles.hwz_oracle, oracles.raw_hwz_oracle
    calls = {
        "classical_s": (lambda: classical_s(a, c), lambda: hwz(1, 1, 1, a, c, ZERO, ZERO, ZERO)),
        "rademacher_s": (lambda: rademacher_s(a, c, x, y),
                         lambda: hwz(1, 1, 1, a, c, ZERO, -x, y)),
        "berndt_s": (lambda: berndt_s(a, b, c, x, y, z), lambda: hwz(1, 1, a, b, c, x, y, z)),
        "apostol_s": (lambda: apostol_s(n + 1, a, c),
                      lambda: hwz(1, n + 1, 1, a, c, ZERO, ZERO, ZERO)),
        "carlitz_s": (lambda: carlitz_s(n, a, c, x, y), lambda: raw(1, n, 1, a, c, ZERO, -x, y)),
        "hwz_s": (lambda: hwz_s(m, n, a, b, c, x, y, z), lambda: hwz(m, n, a, b, c, x, y, z)),
        "s_mn_two": (lambda: s_mn_two(m, n, a, c, x, y), lambda: hwz(m, n, a, 1, c, -x, ZERO, y)),
        "s_n_two": (lambda: s_n_two(n, a, c, x, y), lambda: hwz(1, n, 1, a, c, ZERO, -x, y)),
        "s_mn_plain": (lambda: s_mn_plain(m, n, a, b, c),
                       lambda: hwz(m, n, a, b, c, ZERO, ZERO, ZERO)),
        "_inner_pair_sum": (lambda: rec_mod._inner_pair_sum(m, n, a, c, x, z, y),
                            lambda: hwz(m, n, a, 1, c, x, -y, z)),
    }
    family_fn, oracle_fn = calls[family]
    return family_fn, oracle_fn()


_ROUTE_FAMILIES = ["classical_s", "rademacher_s", "berndt_s", "apostol_s", "carlitz_s",
                   "hwz_s", "s_mn_two", "s_n_two", "s_mn_plain", "_inner_pair_sum"]
_shifts = st.one_of(st.integers(-3, 3).map(Fraction),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
_summed = st.integers(-200, 200).filter(bool)


class TestRoutes:
    @pytest.mark.parametrize("family", _ROUTE_FAMILIES)
    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(0, 6), n=st.integers(0, 6), a=st.integers(-12, 12),
           b=st.integers(-12, 12), c=_summed, x=_shifts, y=_shifts, z=_shifts)
    def test_both_routes_match_literal_loop(self, family, m, n, a, b, c, x, y, z):
        family_fn, expect = _family_and_oracle(family, m, n, a, b, c, x, y, z)
        for piecewise in (False, True):
            with forced_route(piecewise):
                assert family_fn() == expect, ("piecewise" if piecewise else "direct")

    def test_grid_tuples_take_the_direct_route(self, monkeypatch):
        """Criteria 7-10 sum over their tuples' moduli only, all on the direct loop.

        A route depends on the orders, the stretch count and the summed
        modulus, and every lattice sum of these checkers sums over one of the
        tuple's moduli; so every modulus combination of each grid, at its
        highest orders, and the seeded random tuples cover every route taken.
        """
        from test_acceptance import (
            _PRODUCT_MODULI, _PRODUCT_SHIFTS, _THREE_MOD_MODULI, _THREE_MOD_SHIFTS)

        def refuse(*args):
            raise AssertionError(f"piecewise route taken: {args}")

        monkeypatch.setattr(sums_mod, "_piecewise_sum", refuse)
        _clear_all()
        x, y, z = _PRODUCT_SHIFTS[1:]
        for a in _PRODUCT_MODULI:
            for b in _PRODUCT_MODULI:
                run_case("thm31", {"m": 4, "n": 4, "a": a, "b": b, "x": x, "y": y, "z": z})
                run_case("thm33", {"m": 4, "n": 4, "a": a, "b": b, "x": x, "y": y, "z": z})
                run_case("cor32", {"m": 4, "n": 4, "a": a, "b": b, "x": x, "y": y})
                run_case("cor34", {"m": 4, "n": 4, "a": a, "b": b, "x": x, "y": y})
        x, y, z = _THREE_MOD_SHIFTS
        for a in _THREE_MOD_MODULI:
            for b in _THREE_MOD_MODULI:
                for c in _THREE_MOD_MODULI:
                    for ident in ("thm41", "thm44"):
                        run_case(ident, {"m": 3, "n": 3, "a": a, "b": b, "c": c,
                                         "x": x, "y": y, "z": z})
        for ident, seed in (("thm31", 7001), ("thm33", 7008), ("thm41", 7002), ("thm44", 7003)):
            rng = random.Random(seed)
            for _ in range(300 if ident in ("thm41", "thm44") else 500):
                run_case(ident, rec_mod.random_case(ident, rng))
        _clear_all()

    def test_large_modulus_classical_matches_descent(self):
        b = 10**6 + 1
        assert classical_s(7, b) == oracles.dedekind_descent(7, b)

    def test_large_modulus_thm41_has_zero_residual(self):
        rep = run_case("thm41", {"m": 2, "n": 3, "a": 5, "b": -6, "c": 10**5 + 3,
                                 "x": F(1, 3), "y": F(-3, 8), "z": F(9, 7)})
        assert rep.passed and rep.residual == 0

    def test_large_sum_leaves_kernel_memo_small(self):
        _clear_all()
        t0 = time.perf_counter()
        hwz_s(2, 3, 1, 2, 200003, F(1, 3), ZERO, F(1, 7))
        elapsed = time.perf_counter() - t0
        entries = bern_mod._poly_at_pair.cache_info().currsize
        _clear_all()
        assert entries < 1000
        assert elapsed < 1.0


# (m, n, f1, f2, count, piecewise): the route _lattice_sum takes.  The rule
# is count >= _PIECEWISE_MIN_TERMS and count >= (4 + m + n) * stretches,
# with stretches = 1 + the floor steps of each factor of nonzero order;
# rows sit on both sides of each bound.  f2 = (0, 1, 3) is constant in r.
_ROUTE_TABLE = [
    (1, 0, (1, 0, 70), (1, 0, 2), 63, False),   # 1 stretch, below 64 terms
    (1, 0, (1, 0, 70), (1, 0, 2), 64, True),    # 1 stretch, 64 terms
    (1, 1, (1, 5, 6), (0, 1, 3), 66, True),     # floors 1..11: 11 stretches, 6 * 11 = 66
    (1, 1, (1, 0, 6), (0, 1, 3), 66, False),    # floors 0..11: 12 stretches, 72 > 66
    (1, 1, (1, 5, 6), (0, 1, 3), 65, False),    # floors 1..11 again: 65 < 66
    (2, 3, (1, 0, 20), (1, 0, 18), 90, True),   # 1 + 4 + 5 = 10 stretches, 9 * 10 = 90
    (2, 3, (1, 0, 20), (1, 0, 15), 90, False),  # 1 + 4 + 6 = 11 stretches, 99 > 90
    (0, 3, (1, 0, 2), (1, 0, 18), 64, True),    # order 0 never breaks: 1 + 3, 7 * 4 = 28
]


@pytest.mark.parametrize("m,n,f1,f2,count,piecewise", _ROUTE_TABLE)
def test_dispatch_rule_picks_the_route(monkeypatch, m, n, f1, f2, count, piecewise):
    """Which route a lattice sum takes, on both sides of each bound of the rule.

    Both routes give the same value, so only a spy on ``_piecewise_sum``
    sees the route: a rule that counted one stretch more, or asked for one
    more term per stretch, would send the boundary rows down the direct loop.
    """
    taken = []
    real = sums_mod._piecewise_sum

    def spy(*args):
        taken.append(args)
        return real(*args)

    monkeypatch.setattr(sums_mod, "_piecewise_sum", spy)
    pair = sums_mod._lattice_sum.__wrapped__(m, f1, n, f2, count)  # past the memo
    assert bool(taken) is piecewise
    assert F(*pair) == _literal_lattice_sum(m, f1, n, f2, count, False)


_big_tops = st.integers(-9000, 9000)


class TestReducedSlopes:
    """Slopes reduced to their signed residue mod d: same terms, any top."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(0, 5), n=st.integers(0, 5), a=_big_tops, b=_big_tops,
           c=st.integers(-59, 59).filter(bool), x=_shifts, y=_shifts, z=_shifts)
    def test_large_tops_match_literal_loop(self, m, n, a, b, c, x, y, z):
        expect = oracles.hwz_oracle(m, n, a, b, c, x, y, z)
        raw_expect = oracles.raw_hwz_oracle(1, n, 1, a, c, ZERO, -x, y)
        for piecewise in (False, True):
            with forced_route(piecewise):
                assert hwz_s(m, n, a, b, c, x, y, z) == expect
                assert carlitz_s(n, a, c, x, y) == raw_expect

    def test_tops_near_a_large_modulus_are_fast(self):
        # About 17 s each on the direct loop before the slopes were reduced.
        _clear_all()
        t0 = time.perf_counter()
        reports = [run_case("thm31", {"m": 2, "n": 2, "a": 100003, "b": 99991,
                                      "x": ZERO, "y": F(1, 3), "z": ZERO}),
                   run_case("cor43", {"p": 3, "r": 1, "a": 100003, "b": 99991, "c": 7})]
        elapsed = time.perf_counter() - t0
        _clear_all()
        assert all(rep.passed for rep in reports)
        assert elapsed < 2.0


def _literal_lattice_sum(m, f1, n, f2, count, raw):
    """The lattice sum as a literal Fraction loop over the oracle kernels."""
    kernel = oracles.carlitz_oracle if raw else oracles.bbar_oracle
    (p1, q1, d1), (p2, q2, d2) = f1, f2
    return sum((kernel(m, F(p1 * r + q1, d1)) * kernel(n, F(p2 * r + q2, d2))
                for r in range(1, count + 1)), ZERO)


def _lcm_bernoulli_denominators(n):
    """L_n, the lcm of the denominators of B_0..B_n, from the Worpitzky oracle."""
    return math.lcm(*(oracles.worpitzky_poly(k, ZERO).denominator for k in range(n + 1)))


# Integer shifts half the time: with integer x and z some r puts
# a (r + z)/c - x on an integer, where the two degree-1 kernels differ.
_integral_shifts = st.one_of(st.integers(-3, 3).map(Fraction),
                             st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
_orders = st.one_of(st.just(1), st.integers(0, 8))


class TestIntegerDirectRoute:
    @settings(max_examples=80, deadline=None)
    @given(m=_orders, n=_orders, a=st.integers(-90, 90),
           b=st.integers(-90, 90), c=st.integers(-40, 40).filter(bool),
           x=_integral_shifts, y=_integral_shifts, z=_integral_shifts, raw=st.booleans())
    @example(m=1, n=1, a=3, b=-2, c=-6, x=ZERO, y=F(1, 2), z=F(1), raw=False)
    @example(m=1, n=8, a=5, b=7, c=40, x=F(2), y=F(-1), z=ZERO, raw=True)
    def test_matches_literal_fraction_loop(self, m, n, a, b, c, x, y, z, raw):
        f1, f2 = sums_mod._form(a, c, z, x, -1), sums_mod._form(b, c, z, y, -1)
        expect = _literal_lattice_sum(m, f1, n, f2, abs(c), raw)
        with forced_route(False):
            num, den = sums_mod._lattice_sum(m, f1, n, f2, abs(c), raw)
        assert F(num, den) == expect
        # The pair is not reduced: its denominator is L_m d1^m L_n d2^n.
        assert den == _lcm_bernoulli_denominators(m) * f1[2] ** m \
            * _lcm_bernoulli_denominators(n) * f2[2] ** n
