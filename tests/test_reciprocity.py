"""Identity checkers: spec'd instances, hypothesis gates, counters, chains."""

import functools
import importlib
import itertools
import json
import math
import pkgutil
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dedsums
import oracles
from dedsums import bernoulli as bern_mod
from dedsums import reciprocity as rec_mod
from dedsums import sums as sums_mod
from dedsums.reciprocity import (
    IDENTITIES,
    HypothesisError,
    IdentityCase,
    IdentityReport,
    check_apostol,
    check_berndt,
    check_carlitz,
    check_cor32,
    check_cor34,
    check_cor42,
    check_cor43,
    check_cor45,
    check_dedekind,
    check_rademacher15,
    check_rademacher_rad,
    check_rademacher_three,
    check_thm31,
    check_thm33,
    check_thm41,
    check_thm44,
    random_case,
    run_case,
)

F = Fraction
ZERO = F(0)


class TestDedekind:
    def test_two_three(self):
        rep = check_dedekind(2, 3)
        assert rep.passed and rep.lhs == F(-1, 18) and rep.rhs == F(-1, 18)

    def test_unit_pair(self):
        rep = check_dedekind(1, 1)
        assert rep.passed and rep.lhs == 0 and rep.rhs == 0

    def test_gcd_gate(self):
        with pytest.raises(HypothesisError) as exc:
            check_dedekind(2, 4)
        assert exc.value.clause == "gcd(a, b) = 1"

    def test_positivity_gate(self):
        with pytest.raises(HypothesisError):
            check_dedekind(-2, 3)


class TestRademacherThreeTerm:
    @pytest.mark.parametrize("triple", [(1, 1, 1), (2, 3, 5), (2, 3, 7)])
    def test_passes(self, triple):
        assert check_rademacher_three(*triple).passed

    def test_dieter_variant_same_value(self):
        strong = check_rademacher_three(3, 4, 5)
        weak = check_rademacher_three(3, 4, 5, dieter=True)
        assert strong.passed and weak.passed
        assert strong.lhs == weak.lhs and strong.rhs == weak.rhs

    @pytest.mark.parametrize("flag", ["no", 1, 0, None, 1.0])
    def test_dieter_flag_must_be_a_bool(self, flag):
        # A direct call admits the flag as run_case coerces it, with its message.
        with pytest.raises(ValueError) as direct:
            check_rademacher_three(2, 3, 5, dieter=flag)
        with pytest.raises(ValueError) as dispatched:
            run_case("rademacher3", {"a": 2, "b": 3, "c": 5, "dieter": flag})
        assert type(direct.value) is ValueError
        assert str(direct.value) == str(dispatched.value) == \
            f"rademacher3: flag 'dieter' must be a bool, got {flag!r}"

    def test_dieter_flag_is_listed_only_when_set(self):
        assert check_rademacher_three(2, 3, 5, dieter=True).case.params[-1] == ("dieter", True)
        assert [n for n, _ in check_rademacher_three(2, 3, 5, dieter=False).case.params] == \
            ["a", "b", "c"]

    def test_coprimality_gate(self):
        with pytest.raises(HypothesisError) as exc:
            check_rademacher_three(2, 4, 5)
        assert exc.value.clause == "gcd(a, b) = 1"
        # pairs are checked in the order (a, b), (b, c), (a, c)
        with pytest.raises(HypothesisError) as exc:
            check_rademacher_three(2, 3, 6)
        assert exc.value.clause == "gcd(b, c) = 1"
        with pytest.raises(HypothesisError):
            check_rademacher_three(3, 5, 10)


class TestShiftedTwoTerm:
    def test_eq_values(self):
        assert check_rademacher_rad(2, 3, ZERO, ZERO).passed
        assert check_rademacher_rad(2, 4, F(1, 3), F(1, 5)).passed
        assert check_rademacher_rad(1, 1, F(1, 2), F(1, 2)).passed

    def test_no_coprimality_needed(self):
        assert check_rademacher_rad(6, 9, F(2, 5), F(-7, 3)).passed

    def test_positivity_gate(self):
        with pytest.raises(HypothesisError):
            check_rademacher_rad(0, 3, ZERO, ZERO)

    def test_verbatim_variant_matches_on_coprime_inputs(self):
        for (a, b) in [(1, 1), (2, 3), (3, 5), (7, 4)]:
            for (x, y) in [(ZERO, ZERO), (F(1, 3), F(2, 5)), (F(-7, 3), F(1, 2))]:
                verbatim = check_rademacher15(a, b, x, y)
                corrected = check_rademacher_rad(a, b, x, y)
                assert verbatim.passed and corrected.passed
                assert verbatim.lhs == corrected.lhs
                assert verbatim.rhs == corrected.rhs

    def test_verbatim_requires_coprime(self):
        with pytest.raises(HypothesisError) as exc:
            check_rademacher15(2, 4, ZERO, ZERO)
        assert exc.value.clause == "gcd(a, b) = 1"


class TestBerndtThreeTerm:
    def test_all_units(self):
        rep = check_berndt(1, 1, 1, ZERO, ZERO, ZERO)
        assert rep.passed and rep.counter == 1 and rep.lhs == 0 and rep.rhs == 0

    def test_coprime_triple(self):
        rep = check_berndt(2, 3, 5, ZERO, ZERO, ZERO)
        assert rep.passed and rep.counter == 1

    def test_shifted(self):
        assert check_berndt(2, 3, 5, F(1, 2), F(1, 3), F(1, 7)).passed

    def test_counter_matches_enumeration(self):
        shifts = [ZERO, F(1, 2), F(1, 3)]
        for a, b, c in itertools.product(range(1, 5), repeat=3):
            for x, y, z in itertools.product(shifts, repeat=3):
                rep = check_berndt(a, b, c, x, y, z)
                assert rep.passed
                assert rep.counter == oracles.ladder_count_oracle(a, b, c, x, y, z)

    def test_positivity_gate(self):
        with pytest.raises(HypothesisError):
            check_berndt(1, -1, 1, ZERO, ZERO, ZERO)


class TestApostol:
    def test_order_one(self):
        assert check_apostol(1, 2, 3).passed

    def test_order_three(self):
        assert check_apostol(3, 3, 4).passed

    def test_even_order_gate(self):
        with pytest.raises(HypothesisError) as exc:
            check_apostol(2, 2, 3)
        assert exc.value.clause == "n odd"

    def test_gcd_gate(self):
        with pytest.raises(HypothesisError):
            check_apostol(3, 2, 4)


class TestCarlitz:
    def test_order_zero(self):
        assert check_carlitz(0, 2, 3, F(1, 3), F(1, 4)).passed

    def test_all_units_raw_kernel(self):
        rep = check_carlitz(1, 1, 1, ZERO, ZERO)
        assert rep.passed
        # single-term sums with the raw kernel: both sides nonzero
        assert rep.lhs == rep.rhs != 0

    def test_order_four(self):
        assert check_carlitz(4, 2, 3, F(1, 5), F(2, 7)).passed

    def test_gcd_gate(self):
        with pytest.raises(HypothesisError):
            check_carlitz(2, 2, 6, ZERO, ZERO)


class TestProductFormulas:
    def test_sawtooth_square(self):
        rep = check_thm31(1, 1, 1, 1, F(1, 2), ZERO, ZERO)
        assert rep.passed and rep.lhs == 0

    def test_general_orders(self):
        assert check_thm31(2, 3, 2, -3, F(1, 3), F(1, 5), F(1, 7)).passed

    def test_negative_moduli_delta_term(self):
        # both factor arguments integral and sgn(ab) = 1: the delta term fires
        assert check_thm31(1, 1, -1, -1, ZERO, ZERO, ZERO).passed

    def test_zero_modulus_gate(self):
        with pytest.raises(HypothesisError) as exc:
            check_thm31(1, 1, 0, 2, ZERO, ZERO, ZERO)
        assert exc.value.clause == "a != 0"
        with pytest.raises(HypothesisError):
            check_thm31(0, 1, 1, 2, ZERO, ZERO, ZERO)

    def test_derivative_level_branches(self):
        # all four order regimes of the derivative-level formula
        assert check_thm33(1, 1, 1, 1, ZERO, ZERO, ZERO).passed
        assert check_thm33(1, 2, 2, 3, F(1, 4), F(1, 3), F(1, 5)).passed
        assert check_thm33(2, 1, 3, -2, F(1, 4), F(1, 3), F(1, 5)).passed
        assert check_thm33(3, 2, -2, 3, F(1, 2), ZERO, F(1, 3)).passed

    def test_delta_weight_cases(self):
        # (m, n) in {(2,1), (1,2)} with integer arguments exercises the
        # derivative-level remainder weight
        assert check_thm33(2, 1, 1, 1, ZERO, ZERO, ZERO).passed
        assert check_thm33(1, 2, -1, 2, ZERO, ZERO, ZERO).passed


class TestProjections:
    def test_cor32_order_one_reduces(self):
        assert check_cor32(1, 1, 2, 3, ZERO, ZERO).passed

    def test_cor32_general(self):
        assert check_cor32(2, 2, 3, -5, F(1, 2), F(1, 3)).passed
        assert check_cor32(1, 2, 1, 1, ZERO, ZERO).passed

    def test_cor34(self):
        assert check_cor34(1, 1, 2, 3, ZERO, ZERO).passed
        assert check_cor34(2, 1, 3, 5, F(1, 2), F(1, 3)).passed
        assert check_cor34(2, 3, -1, 2, ZERO, F(1, 7)).passed

    def test_cor34_integer_shift_weight(self):
        assert check_cor34(2, 1, 3, 5, ZERO, ZERO).passed
        assert check_cor34(1, 2, 3, 5, ZERO, ZERO).passed


class TestThreeModulusLaws:
    def test_thm41_units(self):
        rep = check_thm41(1, 1, 1, 1, 1, ZERO, ZERO, ZERO)
        assert rep.passed and rep.counter == 1

    def test_thm41_reduces_to_three_term(self):
        rep = check_thm41(1, 1, 2, 3, 5, ZERO, ZERO, ZERO)
        assert rep.passed
        berndt = check_berndt(2, 3, 5, ZERO, ZERO, ZERO)
        assert berndt.passed and rep.counter == berndt.counter

    def test_thm41_general(self):
        assert check_thm41(2, 2, 2, -3, 5, F(1, 3), F(1, 4), F(1, 5)).passed

    def test_thm41_counter_signed(self):
        rng = random.Random(313)
        for _ in range(120):
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            a = rng.choice((-1, 1)) * rng.randint(1, 5)
            b = rng.choice((-1, 1)) * rng.randint(1, 5)
            c = rng.choice((-1, 1)) * rng.randint(1, 5)
            x, y, z = (F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3))
            rep = check_thm41(m, n, a, b, c, x, y, z)
            assert rep.passed
            assert rep.counter == oracles.ladder_count_oracle(a, b, c, x, y, z)

    def test_thm44(self):
        assert check_thm44(1, 1, 1, 1, 1, ZERO, ZERO, ZERO).passed
        assert check_thm44(2, 1, 2, 3, 5, F(1, 2), F(1, 3), F(1, 5)).passed
        assert check_thm44(1, 2, -2, 3, -5, ZERO, F(1, 4), ZERO).passed

    def test_zero_modulus_gate(self):
        with pytest.raises(HypothesisError) as exc:
            check_thm41(1, 1, 1, 1, 0, ZERO, ZERO, ZERO)
        assert exc.value.clause == "c != 0"
        with pytest.raises(HypothesisError):
            check_thm44(1, 1, 1, 0, 1, ZERO, ZERO, ZERO)


class TestCor42:
    def test_order_one_reduces(self):
        assert check_cor42(1, 2, 3, ZERO, ZERO).passed

    def test_order_zero(self):
        assert check_cor42(0, 2, 4, F(1, 3), F(1, 5)).passed

    def test_non_coprime(self):
        assert check_cor42(4, 2, 4, F(1, 2), F(1, 2)).passed

    def test_gates(self):
        with pytest.raises(HypothesisError):
            check_cor42(-1, 2, 3, ZERO, ZERO)
        with pytest.raises(HypothesisError):
            check_cor42(1, 0, 3, ZERO, ZERO)


class TestCor43:
    def test_smallest(self):
        rep = check_cor43(1, 0, 1, 1, 1)
        assert rep.passed and rep.counter == 1

    def test_non_pairwise_coprime(self):
        assert check_cor43(3, 1, 2, 3, 4).passed

    def test_even_row(self):
        assert check_cor43(5, 4, 2, 2, 2).passed

    def test_counter_is_gcd(self):
        rng = random.Random(314)
        for _ in range(60):
            p = rng.choice((1, 3, 5))
            r = rng.randint(0, p - 1)
            a, b, c = (rng.randint(1, 8) for _ in range(3))
            rep = check_cor43(p, r, a, b, c)
            assert rep.passed
            assert rep.counter == oracles.ladder_count_oracle(a, b, c, ZERO, ZERO, ZERO)

    def test_gates(self):
        with pytest.raises(HypothesisError) as exc:
            check_cor43(2, 0, 1, 1, 1)
        assert exc.value.clause == "p odd"
        with pytest.raises(HypothesisError) as exc:
            check_cor43(3, 3, 1, 1, 1)
        assert exc.value.clause == "0 <= r <= p - 1"


class TestCor45:
    def test_units(self):
        assert check_cor45(1, 1, 1, 1, 1).passed

    def test_examples(self):
        assert check_cor45(2, 2, 2, 3, 5).passed
        assert check_cor45(1, 2, 2, 4, 6).passed

    def test_gate(self):
        with pytest.raises(HypothesisError):
            check_cor45(1, 1, 1, 0, 1)


class TestSpecializationChains:
    def test_three_modulus_law_vs_three_term_arrangement(self):
        shifts = [ZERO, F(1, 2), F(1, 3)]
        for a, b, c in itertools.product((1, 2, 3), repeat=3):
            for x, y, z in itertools.product(shifts, repeat=3):
                general = check_thm41(1, 1, a, b, c, x, y, z)
                three_term = check_berndt(a, b, c, x, y, z)
                assert general.passed and three_term.passed
                assert general.counter == three_term.counter

    def test_cor42_at_order_one_matches_shifted_two_term(self):
        for a, b in itertools.product(range(1, 7), repeat=2):
            for x, y in [(ZERO, ZERO), (F(1, 3), F(2, 5)), (F(1, 2), F(1, 2))]:
                scaled = check_cor42(1, a, b, x, y)
                plain = check_rademacher_rad(a, b, x, y)
                assert scaled.passed and plain.passed
                assert scaled.lhs == a * b * plain.lhs
                assert scaled.rhs == a * b * plain.rhs

    def test_cor42_matches_raw_kernel_law_off_lattice(self):
        # with x, y, ay+bx all non-integral both kernels agree term by term
        cases = [
            (0, 2, 3, F(1, 3), F(1, 4)),
            (1, 2, 3, F(1, 5), F(1, 7)),
            (3, 3, 4, F(1, 5), F(2, 7)),
            (4, 1, 2, F(1, 3), F(1, 5)),
        ]
        for n, a, b, x, y in cases:
            assert (a * y + b * x).denominator > 1
            assert x.denominator > 1 and y.denominator > 1
            scaled = check_cor42(n, a, b, x, y)
            raw = check_carlitz(n, a, b, x, y)
            assert scaled.passed and raw.passed
            assert scaled.lhs == raw.lhs
            assert scaled.rhs == raw.rhs


class TestDispatchAndReports:
    def test_run_case_round_trip(self):
        rep = run_case("thm31", {"m": 1, "n": 2, "a": 2, "b": -3,
                                 "x": F(1, 3), "y": ZERO, "z": F(1, 7)})
        assert rep.passed

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            run_case("nope", {})

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            run_case("dedekind", {"a": 2})

    def test_json_field_order_and_literals(self):
        rep = check_berndt(2, 3, 5, F(1, 2), F(1, 3), F(1, 7))
        data = json.loads(rep.to_json())
        assert list(data) == ["identity", "params", "lhs", "rhs", "residual",
                              "pass", "counter"]
        assert list(data["params"]) == ["a", "b", "c", "x", "y", "z"]
        assert data["params"]["x"] == "1/2"
        assert data["pass"] is True
        rep2 = check_dedekind(2, 3)
        data2 = json.loads(rep2.to_json())
        assert "counter" not in data2
        assert data2["lhs"] == "-1/18"

    def test_json_row_has_the_bytes_of_json_dumps(self):
        # to_json writes its row directly; it must equal the dict, dumped.
        reports = [run_case(identity, random_case(identity, random.Random(seed)))
                   for identity in IDENTITIES for seed in range(50)]
        reports += [
            check_rademacher_three(2, 3, 5, dieter=True),
            check_berndt(2, 3, 5, F(1, 2), F(-1, 3), F(-9, 7)),
            check_thm41(2, 1, -3, 4, -5, F(-1, 2), F(7, 3), F(-2, 9)),
            check_cor32(3, 2, -7, -2, F(-5, 6), F(-4)),
            IdentityReport(IdentityCase("thm31", (("m", 1), ("a", -2), ("x", F(-1, 3)))),
                           lhs=F(1, 2), rhs=F(-3), residual=F(7, 2), passed=False),
            IdentityReport(IdentityCase("berndt", (("a", 1), ("z", F(5)))),
                           lhs=F(-1, 6), rhs=F(0), residual=F(-1, 6), passed=False, counter=0),
        ]
        assert any(r.counter is not None for r in reports)
        assert any(r.case.params[-1] == ("dieter", True) for r in reports)
        for rep in reports:
            assert rep.to_json() == json.dumps(rep.to_json_dict()), rep

    def test_random_cases_respect_hypotheses(self):
        rng = random.Random(12345)
        for identity in IDENTITIES:
            for _ in range(25):
                rep = run_case(identity, random_case(identity, rng))
                assert rep.passed, identity

    @given(st.sampled_from(sorted(IDENTITIES)), st.integers(0, 2**32))
    def test_sides_are_fractions_in_lowest_terms(self, identity, seed):
        # Each side is built from integers and becomes a Fraction once; an
        # unnormalized pair, or an int, must never reach the report.
        rep = run_case(identity, random_case(identity, random.Random(seed)))
        for v in (rep.lhs, rep.rhs, rep.residual):
            assert type(v) is Fraction
            # Fraction equality compares numerator and denominator as stored
            assert v == Fraction(v.numerator, v.denominator)
        assert rep.passed

    def test_registry_covers_all_identities(self):
        assert sorted(IDENTITIES) == sorted([
            "dedekind", "rademacher3", "rademacher15", "eq319", "berndt",
            "apostol", "carlitz", "thm31", "cor32", "thm33", "cor34",
            "thm41", "cor42", "cor43", "thm44", "cor45",
        ])


class TestGateExactness:
    """Validators reject exactly their pre-clauses, nothing more."""

    def test_rejections_name_the_clause(self):
        violations = [
            ("dedekind", {"a": 0, "b": 3}, "a >= 1"),
            ("rademacher3", {"a": 2, "b": 3, "c": 0}, "c >= 1"),
            ("rademacher15", {"a": 4, "b": 6, "x": ZERO, "y": ZERO}, "gcd(a, b) = 1"),
            ("eq319", {"a": 2, "b": -3, "x": ZERO, "y": ZERO}, "b >= 1"),
            ("berndt", {"a": 1, "b": 1, "c": -2, "x": ZERO, "y": ZERO, "z": ZERO},
             "c >= 1"),
            ("apostol", {"n": -1, "a": 2, "b": 3}, "n >= 1"),
            ("carlitz", {"n": -1, "a": 2, "b": 3, "x": ZERO, "y": ZERO}, "n >= 0"),
            ("thm31", {"m": 1, "n": 0, "a": 1, "b": 2,
                       "x": ZERO, "y": ZERO, "z": ZERO}, "n >= 1"),
            ("cor32", {"m": 1, "n": 1, "a": 1, "b": 0, "x": ZERO, "y": ZERO},
             "b != 0"),
            ("thm33", {"m": 0, "n": 1, "a": 1, "b": 2,
                       "x": ZERO, "y": ZERO, "z": ZERO}, "m >= 1"),
            ("cor34", {"m": 1, "n": 1, "a": 0, "b": 2, "x": ZERO, "y": ZERO},
             "a != 0"),
            ("thm41", {"m": 1, "n": 1, "a": 1, "b": 1, "c": 0,
                       "x": ZERO, "y": ZERO, "z": ZERO}, "c != 0"),
            ("cor42", {"n": 1, "a": 1, "b": -2, "x": ZERO, "y": ZERO}, "b >= 1"),
            ("cor43", {"p": 3, "r": 0, "a": 1, "b": 0, "c": 1}, "b >= 1"),
            ("thm44", {"m": 1, "n": 1, "a": 0, "b": 1, "c": 1,
                       "x": ZERO, "y": ZERO, "z": ZERO}, "a != 0"),
            ("cor45", {"m": 0, "n": 1, "a": 1, "b": 1, "c": 1}, "m >= 1"),
        ]
        for identity, params, clause in violations:
            with pytest.raises(HypothesisError) as exc:
                run_case(identity, params)
            assert exc.value.clause == clause, identity
            assert exc.value.identity == identity

    def test_no_spurious_rejections(self):
        # boundary-legal tuples right next to each gate must be accepted
        assert run_case("dedekind", {"a": 1, "b": 1}).passed
        assert run_case("apostol", {"n": 1, "a": 1, "b": 1}).passed
        assert run_case("carlitz", {"n": 0, "a": 1, "b": 1,
                                    "x": ZERO, "y": ZERO}).passed
        assert run_case("cor42", {"n": 0, "a": 1, "b": 1,
                                  "x": ZERO, "y": ZERO}).passed
        assert run_case("cor43", {"p": 1, "r": 0, "a": 1, "b": 1, "c": 1}).passed
        assert run_case("thm31", {"m": 1, "n": 1, "a": -1, "b": -1,
                                  "x": ZERO, "y": ZERO, "z": ZERO}).passed
        # non-coprime pairs are fine wherever no gcd clause exists
        assert run_case("eq319", {"a": 6, "b": 9, "x": F(1, 2), "y": ZERO}).passed
        assert run_case("cor42", {"n": 3, "a": 4, "b": 6,
                                  "x": F(1, 3), "y": F(1, 5)}).passed
        assert run_case("cor45", {"m": 1, "n": 2, "a": 2, "b": 4, "c": 6}).passed


def _modulus_violations(spec):
    """(moduli overrides, clause) for one violation of each modulus rule of ``spec``."""
    out = []
    for name in spec.moduli:
        if spec.signed:
            out.append(({name: 0}, f"{name} != 0"))
        else:
            out += [({name: 0}, f"{name} >= 1"), ({name: -1}, f"{name} >= 1")]
    if spec.coprime:
        for u, v in [("a", "b"), ("b", "c"), ("a", "c")]:
            if v not in spec.moduli:
                continue
            # every other pair stays coprime, so the first failing clause is (u, v)
            overrides = dict.fromkeys(spec.moduli, 1)
            overrides.update({u: 2, v: 2})
            out.append((overrides, f"gcd({u}, {v}) = 1"))
    return out


@pytest.mark.parametrize("identity", list(IDENTITIES))
def test_modulus_gates_follow_the_registry(identity):
    # The gates read IDENTITIES[...].signed/.coprime, the data random_case
    # samples by; each checker, called directly, names the broken rule.
    spec = IDENTITIES[identity]
    base = random_case(identity, random.Random(3))
    violations = _modulus_violations(spec)
    assert violations
    for overrides, clause in violations:
        with pytest.raises(HypothesisError) as exc:
            spec.fn(**{**base, **overrides})
        assert exc.value.clause == clause, (identity, overrides)
        assert exc.value.identity == identity


class TestClearCaches:
    def test_three_clear_functions_empty_every_memo(self):
        run_case("thm41", {"m": 2, "n": 3, "a": 2, "b": -3, "c": 5,
                           "x": F(1, 3), "y": F(1, 2), "z": F(-2, 7)})
        assert bern_mod._poly_at_pair.cache_info().currsize > 0
        sums_mod.clear_caches()
        rec_mod.clear_caches()
        bern_mod.clear_eval_cache()
        assert bern_mod._poly_at_pair.cache_info().currsize == 0

    def test_reciprocity_clear_alone_empties_every_memo(self):
        # Tops near half the modulus keep this sum on the direct route, even
        # with reduced slopes, and it fills the kernel memo with one entry per
        # kernel argument.
        sums_mod.hwz_s(2, 3, 1005, 1006, 2011, F(1, 3), ZERO, F(1, 7))
        run_case("thm41", {"m": 2, "n": 3, "a": 2, "b": -3, "c": 5,
                           "x": F(1, 3), "y": F(1, 2), "z": F(-2, 7)})
        memos = [bern_mod._poly_at_pair, rec_mod._inner_pair_sum, sums_mod.count_ladder,
                 *(spec.fn for spec in sums_mod.SUM_FAMILIES.values())]
        assert bern_mod._poly_at_pair.cache_info().currsize > 4000
        rec_mod.clear_caches()
        assert [m.cache_info().currsize for m in memos] == [0] * len(memos)

    def test_kernel_memo_is_bounded(self):
        assert bern_mod._poly_at_pair.cache_info().maxsize == 1 << 16

    def test_package_clear_and_stats_cover_every_memo(self):
        memos = {"sums._lattice_sum": sums_mod._lattice_sum,
                 "sums.count_ladder": sums_mod.count_ladder,
                 "bernoulli._poly_at_pair": bern_mod._poly_at_pair}
        dedsums.clear_caches()
        case = {"m": 2, "n": 3, "a": 2, "b": -3, "c": 5,
                "x": F(1, 3), "y": F(1, 2), "z": F(-2, 7)}
        run_case("thm41", case)
        run_case("thm41", case)
        stats = dedsums.cache_stats()
        assert sorted(stats) == sorted(memos)
        for name, memo in memos.items():
            info = memo.cache_info()
            assert stats[name] == {"hits": info.hits, "misses": info.misses,
                                   "size": info.currsize, "maxsize": info.maxsize}, name
        # the second run finds every lattice sum of the first in the memo
        assert stats["sums._lattice_sum"]["hits"] > 0
        assert stats["sums._lattice_sum"]["size"] == stats["sums._lattice_sum"]["misses"] > 0
        assert all(s["maxsize"] is not None for s in stats.values())
        dedsums.clear_caches()
        assert all(s["size"] == 0 for s in dedsums.cache_stats().values())

    def test_every_lru_cache_of_the_package_is_named_and_cleared(self):
        # Every functools.lru_cache wrapper bound at module level in the module
        # that defines it, anywhere in the package (not the __main__ entry
        # point, which runs the CLI), by the name cache_stats() would give it.
        # A memoized core ``_name`` behind a public ``name`` that admits the
        # arguments and carries the core's views goes by the public name.
        found = {}
        for info in pkgutil.iter_modules(dedsums.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"dedsums.{info.name}")
            for attr, obj in vars(module).items():
                if (isinstance(obj, functools._lru_cache_wrapper)
                        and obj.__module__ == module.__name__):
                    public = getattr(module, attr.lstrip("_"), None)
                    if getattr(public, "cache_info", None) == obj.cache_info:
                        attr = attr.lstrip("_")
                    found[f"{info.name}.{attr}"] = obj
        assert set(found) == set(dedsums.cache_stats())
        rng = random.Random(5)
        for identity in IDENTITIES:
            run_case(identity, random_case(identity, rng))
        sums_mod.hwz_s(2, 3, 1005, 1006, 2011, F(1, 3), ZERO, F(1, 7))
        assert all(memo.cache_info().currsize > 0 for memo in found.values())
        dedsums.clear_caches()
        assert {name: memo.cache_info().currsize for name, memo in found.items()} == \
            dict.fromkeys(found, 0)


# ---------------------------------------------------------------------------
# The binomial sides against sides folded from the public families
# ---------------------------------------------------------------------------

def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _reference_side(scale, m, n, a, b, derivative, family, c=1, c_exponent=lambda j, k: 0):
    # scale n b^(n-1) sum_{j=0..m} C(m, j) (-1)^j a^(m-j) w_k c^e family(j, k),
    # k = m+n-j with w_k = 1/k (integral level), k = m+n-j-1 with w_k = 1
    # (derivative level): one public family call per j, in Fractions.
    total = ZERO
    for j in range(m + 1):
        k = m + n - j - (1 if derivative else 0)
        weight = F(1) if derivative else F(1, k)
        total += (scale * n * b ** (n - 1) * math.comb(m, j) * (-1) ** j * a ** (m - j)
                  * weight * F(c) ** c_exponent(j, k) * family(j, k))
    return total


def _reference_sides(identity, p):
    """The two sides of each binomial law, in the order its checker folds them."""
    m, n, a, b = p["m"], p["n"], p["a"], p["b"]
    derivative = identity in ("thm33", "cor34", "thm44", "cor45")
    if identity in ("thm31", "thm33"):
        x, y, z = p["x"], p["y"], p["z"]

        def side(m, n, a, b, y, z):
            # B'_j(a(l+z)/b - y) B'_k(x + (l+z)/b) over l = 1..|b|, as hwz_s
            return _reference_side(_sign(b), m, n, a, b, derivative,
                                   lambda j, k: sums_mod.hwz_s(j, k, a, 1, b, y, -x, z))
        return [side(m, n, a, b, y, z), side(n, m, b, a, z, y)]
    if identity in ("cor32", "cor34"):
        x, y = p["x"], p["y"]

        def side(m, n, a, b, x, y, sign=1):
            return _reference_side(sign * (-1) ** m * _sign(b), m, n, a, b, derivative,
                                   lambda j, k: sums_mod.s_mn_two(j, k, a, b, x, y))
        return [side(m, n, a, b, x, y), side(n, m, b, a, y, x, -1 if derivative else 1)]
    c = p["c"]
    if identity in ("thm41", "thm44"):
        x, y, z = p["x"], p["y"], p["z"]

        def side(m, n, a, b, x, y):
            sign = (-1) ** (m + n - (1 if derivative else 0)) * _sign(b * c)
            return _reference_side(sign, m, n, a, b, derivative,
                                   lambda j, k: sums_mod.hwz_s(j, k, a, c, b, x, z, y),
                                   c, lambda j, k: 1 - k)
        return [side(m, n, a, b, x, y), side(n, m, b, a, y, x)]
    assert identity == "cor45"

    def side(m, n, a, b, sign=1):
        return _reference_side(sign * (-1) ** m * c ** (m + 1), m, n, a, b, True,
                               lambda j, k: sums_mod.s_mn_plain(j, k, a, c, b),
                               c, lambda j, k: j - m)
    return [side(m, n, a, b), side(n, m, b, a, -1)]


_BINOMIAL_LAWS = ("thm31", "thm33", "cor32", "cor34", "thm41", "thm44", "cor45")


@pytest.mark.parametrize("identity", _BINOMIAL_LAWS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_binomial_sides_equal_sides_folded_from_the_families(identity, seed):
    """Each side's integer pair is the side folded from the public families.

    The checker's sides read the lattice core with forms they build
    themselves; the reference calls a public family once per j, with the
    shifts and offsets written out for that law.
    """
    params = random_case(identity, random.Random(seed))
    sides = []
    real = rec_mod._binomial_side

    def recording(*args, **kwargs):
        sides.append(real(*args, **kwargs))
        return sides[-1]

    with mock.patch.object(rec_mod, "_binomial_side", recording):
        report = run_case(identity, params)
    assert report.passed
    assert all(type(num) is int and type(den) is int and den for num, den in sides)
    assert [F(*side) for side in sides] == _reference_sides(identity, params)


# ---------------------------------------------------------------------------
# Term ablation: every term of every law is needed
# ---------------------------------------------------------------------------

ABLATION_SEEDS = range(400)


def _folding(act):
    """A stand-in for ``reciprocity._report`` that hands the two sides' term
    lists to ``act`` (which may change them in place) before folding them."""
    real = rec_mod._report

    def report(identity, values, lhs_terms, rhs_terms, counter=None):
        sides = [list(lhs_terms), list(rhs_terms)]
        act(sides)
        return real(identity, values, *sides, counter)
    return report


@pytest.mark.parametrize("identity", list(IDENTITIES))
def test_every_term_of_every_law_is_needed(identity):
    """With any one term of either side dropped, some seeded case fails.

    ``_report`` is the one place where the terms of both sides are folded,
    so a patched ``_report`` drops the term at one index of one side.  For
    every index that occurs in the draws, one of the ``random_case`` draws
    of seeds 0..399 must then leave a nonzero residual: a term that never
    changes a residual would not be tested by any pass.
    """
    cases = [random_case(identity, random.Random(seed)) for seed in ABLATION_SEEDS]
    sizes = []
    with mock.patch.object(rec_mod, "_report",
                           _folding(lambda sides: sizes.append([len(t) for t in sides]))):
        for case in cases:
            assert run_case(identity, case).passed
    for side in (0, 1):
        for index in range(max(size[side] for size in sizes)):
            def drop(sides):
                del sides[side][index]
            with mock.patch.object(rec_mod, "_report", _folding(drop)):
                assert any(run_case(identity, case).residual != 0
                           for case, size in zip(cases, sizes) if size[side] > index), \
                    (identity, ("lhs", "rhs")[side], index)
