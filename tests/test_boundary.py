"""The input boundary: inexact or malformed inputs fail loudly, never pass.

``run_case``, ``SumRequest.from_json_dict`` and ``cli.main`` are driven with
a valid input that has one defect: a float, a bool, a junk string, ``None``
or a list in place of a value, a missing or unknown name, a non-bool flag,
or an unknown tag.  The four registered analytic checks, called directly,
get one bad value in place of a valid argument, and so do
``fourier_partial_complex``, which admits the arguments of ``fourier``, and
the exact lemmas ``lemma22_exact`` and ``lemma28_exact``.  Every sum
family, called directly, gets a float, a bool, a junk string or ``None`` in
place of one argument, and so does each exact integer helper (``gcd_pos``,
``binomial``, ``mod_inverse``, ``bernoulli_number``,
``bernoulli_poly_coeffs``, ``bernoulli_poly_derivative_coeffs``).
Every identity checker, called directly, gets one bad value in place of an
order, a modulus or a shift; a direct call parses no rational literal.
The only allowed outcomes are ``ValueError`` (which ``HypothesisError``
subclasses) and, on the command line, exit code 2.  A report, a value or
any other exception fails the test.
"""

import contextlib
import io
import os
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dedsums import cli
from dedsums import analytic
from dedsums.analytic import (ANALYTIC_TARGETS, fourier_partial_complex, lemma22_exact,
                              lemma28_exact)
from dedsums.bernoulli import (bernoulli_number, bernoulli_poly_coeffs,
                               bernoulli_poly_derivative_coeffs)
from dedsums.exact import binomial, gcd_pos, mod_inverse, parse_rational
from dedsums.reciprocity import (IDENTITIES, check_dedekind, check_rademacher_rad, check_thm31,
                                 random_case, run_case)
from dedsums.sums import SUM_FAMILIES, SumRequest


def _accepted(text: str) -> bool:
    """Whether any parser of a command-line value would take ``text``."""
    for parse in (cli._VALUE_TYPE[int], parse_rational, cli._int_range, cli._rational_list):
        try:
            parse(text)
            return True
        except ValueError:
            pass
    return False


# Text no value parser accepts; a leading '-' could read as an option.
JUNK_TEXT = st.one_of(
    st.sampled_from(["", "abc", "1.5", "0.1", "1e3", "nan", "inf", "True", "None",
                     "1/0", "1//2", "0x10", "½", "5\n", "٣"]),
    st.text(max_size=6),
).filter(lambda t: not t.startswith("-") and not _accepted(t))
# Not an exact value of any kind.
BAD_VALUE = st.one_of(st.floats(), st.booleans(), JUNK_TEXT, st.none(),
                      st.lists(st.integers(), max_size=2))
# Also not an integer: exact rationals and integer literals as strings.
BAD_INT = st.one_of(BAD_VALUE, st.fractions(), st.integers().map(str))
UNKNOWN_TAG = st.text(max_size=8).filter(
    lambda t: t not in IDENTITIES and t not in SUM_FAMILIES)


def _defect(draw, values: dict, params: dict, flags=()) -> None:
    """Give ``values`` one defect, in place."""
    kinds = ["bad value", "missing", "unknown name"] + (["bad flag"] if flags else [])
    kind = draw(st.sampled_from(kinds))
    name = draw(st.sampled_from(sorted(params)))
    if kind == "bad value":
        values[name] = draw(BAD_INT if params[name] is int else BAD_VALUE)
    elif kind == "missing":
        del values[name]
    elif kind == "unknown name":
        extra = draw(st.text(min_size=1, max_size=4).filter(
            lambda t: t not in params and t not in flags and t != "family"))
        values[extra] = draw(st.one_of(st.integers(), st.just(Fraction(1, 2))))
    else:
        values[draw(st.sampled_from(flags))] = draw(
            st.one_of(st.integers(), JUNK_TEXT, st.none(), st.floats()))


@st.composite
def identity_inputs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(UNKNOWN_TAG), {}
    identity = draw(st.sampled_from(sorted(IDENTITIES)))
    spec = IDENTITIES[identity]
    values = random_case(identity, random.Random(draw(st.integers(0, 2**16))))
    _defect(draw, values, spec.params, spec.flags)
    return identity, values


@st.composite
def family_inputs(draw):
    family = draw(st.sampled_from(sorted(SUM_FAMILIES)))
    spec = SUM_FAMILIES[family]
    data = {"family": family}
    for name, kind in spec.params.items():
        data[name] = draw(st.integers(1, 5)) if kind is int else \
            draw(st.sampled_from([Fraction(1, 3), "-2/5", 0]))
    tag = draw(st.integers(0, 9))
    if tag == 0:
        data["family"] = draw(UNKNOWN_TAG)
    elif tag == 1:
        del data["family"]
    else:
        _defect(draw, data, spec.params)
    return data


@given(identity_inputs())
@settings(max_examples=300, deadline=None)
def test_run_case_rejects_every_defect(case):
    identity, values = case
    with pytest.raises(ValueError):
        run_case(identity, values)


@given(family_inputs())
@settings(max_examples=300, deadline=None)
def test_sum_request_rejects_every_defect(data):
    with pytest.raises(ValueError):
        SumRequest.from_json_dict(data)


@st.composite
def family_calls(draw):
    """A valid direct call of one sum family with one argument made inexact."""
    spec = SUM_FAMILIES[draw(st.sampled_from(sorted(SUM_FAMILIES)))]
    args = {name: draw(st.integers(1, 5)) if kind is int else
            draw(st.sampled_from([Fraction(1, 3), Fraction(-2, 5), 0]))
            for name, kind in spec.params.items()}
    args[draw(st.sampled_from(sorted(args)))] = draw(
        st.one_of(st.floats(), st.booleans(), JUNK_TEXT, st.none()))
    return spec.fn, tuple(args.values())


@given(family_calls())
@example((SUM_FAMILIES["classical"].fn, (True, 3)))
@example((SUM_FAMILIES["classical"].fn, (2.5, 3)))
@settings(max_examples=300, deadline=None)
def test_families_reject_every_inexact_argument(call):
    fn, args = call
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("values", [None, [("a", 2), ("b", 3)], "a=2 b=3"])
def test_non_mapping_inputs_are_rejected(values):
    with pytest.raises(ValueError):
        run_case("dedekind", values)
    with pytest.raises(ValueError):
        SumRequest.from_json_dict(values)


# A valid call of each registered analytic check, small enough to run fast.
_ANALYTIC_VALID = {
    "fourier": {"n": 2, "x": Fraction(1, 4), "K": 50},
    "lemma24": {"j": 2, "b": 3, "r": 1, "K": 50},
    "lemma27": {"j": 2, "b": 3, "r": 1, "x": Fraction(1, 5), "K": 50},
    "zeta-even": {"j": 1, "K": 50},
}


@st.composite
def analytic_calls(draw, tags=tuple(sorted(ANALYTIC_TARGETS))):
    tag = draw(st.sampled_from(tags))
    spec = ANALYTIC_TARGETS[tag]
    values = dict(_ANALYTIC_VALID[tag])
    name = draw(st.sampled_from(sorted(spec.params)))
    values[name] = draw(BAD_INT if spec.params[name] is int else BAD_VALUE)
    return spec.fn, values


def test_analytic_valid_calls_run():
    assert sorted(_ANALYTIC_VALID) == sorted(ANALYTIC_TARGETS)
    for tag, values in _ANALYTIC_VALID.items():
        assert ANALYTIC_TARGETS[tag].fn(*values.values()).passed, tag


@given(analytic_calls())
@settings(max_examples=200, deadline=None)
def test_analytic_checks_reject_every_bad_value(call):
    fn, values = call
    with pytest.raises(ValueError):
        fn(*values.values())


@given(analytic_calls(("fourier",)))
@settings(max_examples=100, deadline=None)
def test_fourier_partial_complex_rejects_every_bad_value(call):
    _, values = call
    with pytest.raises(ValueError):
        fourier_partial_complex(*values.values())


def test_fourier_partial_complex_takes_no_float():
    # 0.1 is not 1/10 but its binary value, 3602879701896397/2^55.
    with pytest.raises(ValueError):
        fourier_partial_complex(2, 0.1, 50)
    assert fourier_partial_complex(2, "1/10", 50) == fourier_partial_complex(2, Fraction(1, 10), 50)


# A valid call of each exact lemma, keyed by its declaration's tag.
_EXACT_VALID = {
    "lemma22": (lemma22_exact, {"m": 3, "n": 2, "d": Fraction(1, 10), "x": Fraction(2, 5),
                                "y": Fraction(-1, 3)}),
    "lemma28": (lemma28_exact, {"m": 2, "n": 3}),
}


@st.composite
def exact_lemma_calls(draw):
    tag = draw(st.sampled_from(sorted(_EXACT_VALID)))
    fn, valid = _EXACT_VALID[tag]
    params = analytic._EXACT_PARAMS[tag]
    values = dict(valid)
    name = draw(st.sampled_from(sorted(params)))
    values[name] = draw(BAD_INT if params[name] is int else BAD_VALUE)
    return fn, values


def test_exact_lemmas_valid_calls_hold():
    for fn, values in _EXACT_VALID.values():
        lhs, rhs = fn(*values.values())
        assert lhs == rhs
    # A rational literal is as good as its Fraction.
    assert lemma22_exact(3, 2, "1/10", "2/5", "-1/3") == \
        lemma22_exact(*_EXACT_VALID["lemma22"][1].values())


@given(exact_lemma_calls())
@settings(max_examples=100, deadline=None)
def test_exact_lemmas_reject_every_bad_value(call):
    fn, values = call
    with pytest.raises(ValueError):
        fn(*values.values())


@pytest.mark.parametrize("fn,args", [
    (lemma22_exact, (3, 2, 0.1, Fraction(2, 5), Fraction(-1, 3))),   # binary value of 0.1
    (lemma22_exact, (3, True, "1/10", "2/5", "-1/3")),
    (lemma22_exact, (3, 2, "0.1", "2/5", "-1/3")),
    (lemma28_exact, (True, 2)),                                      # was (1, 1)
    (lemma28_exact, (2.0, 2)),                                       # was TypeError
    (lemma28_exact, (2, "3")),
])
def test_exact_lemmas_take_no_float_bool_or_junk(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


# A valid call of each exact integer helper.
_HELPER_VALID = [(gcd_pos, (12, -18)), (binomial, (5, 2)), (mod_inverse, (3, 7)),
                 (bernoulli_number, (4,)), (bernoulli_poly_coeffs, (3,)),
                 (bernoulli_poly_derivative_coeffs, (3,))]


@given(st.sampled_from(_HELPER_VALID), st.data())
@settings(max_examples=200, deadline=None)
def test_exact_helpers_reject_every_bad_int(call, data):
    fn, args = call
    fn(*args)
    args = list(args)
    args[data.draw(st.integers(0, len(args) - 1))] = data.draw(BAD_INT)
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("fn,args", [
    (gcd_pos, (2.0, 4)),                  # was TypeError
    (binomial, (2.5, 1)),                 # was TypeError
    (bernoulli_number, (2.0,)),           # was TypeError
    (mod_inverse, (True, 3)),             # was 1
    (bernoulli_poly_coeffs, (True,)),     # was the row of B_1
    (binomial, (True, 1)),                # was 1
    (gcd_pos, (Fraction(4), 6)),          # was TypeError
    (bernoulli_poly_derivative_coeffs, (True,)),  # was the derivative row of B_1
    (bernoulli_poly_derivative_coeffs, (2.0,)),   # was TypeError
])
def test_exact_helpers_take_no_float_bool_or_fraction(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


# subcommand -> the registry its parsers are built from
_COMMANDS = {command: registry for command, (_, _, registry, _) in cli._COMMANDS.items()}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    registry = _COMMANDS[command]
    name = draw(st.sampled_from(sorted(registry)))
    spec = registry[name]
    options = {f"-{p}": "1" if kind is int else "1/2" for p, kind in spec.params.items()}
    kinds = ["bad value", "missing", "unknown tag", "flag value"]
    kind = draw(st.sampled_from(kinds if spec.flags else kinds[:3]))
    flags = [f"--{f}" for f in spec.flags]
    if kind == "bad value":
        options[draw(st.sampled_from(sorted(options)))] = draw(JUNK_TEXT)
    elif kind == "missing":
        del options[draw(st.sampled_from(sorted(options)))]
    elif kind == "unknown tag":
        name = draw(UNKNOWN_TAG.filter(lambda t: t not in registry and not t.startswith("-")))
    else:
        flags.append(draw(JUNK_TEXT))
    return [command, name, *(t for pair in options.items() for t in pair), *flags]


@given(cli_argvs())
@settings(max_examples=200, deadline=None)
def test_cli_rejects_every_defect(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("DEDSUMS_WORKERS", None)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 2, (argv, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# The identity checkers called directly
# ---------------------------------------------------------------------------

# Also not a shift a checker takes: rational literals, which run_case parses
# but a direct call does not.
BAD_SHIFT = st.one_of(BAD_VALUE, st.sampled_from(["1/3", "0", "-2"]))


@st.composite
def checker_calls(draw):
    """A valid direct call of one identity checker with one argument made inexact."""
    identity = draw(st.sampled_from(sorted(IDENTITIES)))
    spec = IDENTITIES[identity]
    values = random_case(identity, random.Random(draw(st.integers(0, 2**16))))
    name = draw(st.sampled_from(sorted(spec.params)))
    values[name] = draw(BAD_INT if spec.params[name] is int else BAD_SHIFT)
    return spec.fn, values


@given(checker_calls())
@settings(max_examples=300, deadline=None)
def test_checkers_reject_every_inexact_argument(call):
    fn, values = call
    with pytest.raises(ValueError):
        fn(**values)


@pytest.mark.parametrize("fn,args", [
    (check_rademacher_rad, (2, 3, 0.1, 0)),      # passed on 0.1's binary value
    (check_rademacher_rad, (2, 3, 0.5, "1/3")),  # passed on 1/2 and 1/3
    (check_thm31, (1, 1, 2, "3", 0, 0, 0)),      # raised TypeError
    (check_dedekind, (2.0, 3)),                  # raised TypeError
])
def test_checkers_take_no_float_or_string(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_checkers_take_int_shifts_as_run_case_does(identity):
    # An int shift is the Fraction it equals: a direct call reports the case
    # as run_case, which coerces it, does.
    spec = IDENTITIES[identity]
    values = random_case(identity, random.Random(3))
    values.update({name: int(values[name].numerator // values[name].denominator)
                   for name in spec.shifts})
    direct = spec.fn(**values)
    assert direct.to_json() == run_case(identity, values).to_json()
    assert all(type(v) is Fraction for name, v in direct.case.params if name in spec.shifts)
