"""The one admission layer: one message per rule, read from the declarations.

Every entry of ``IDENTITIES``, ``SUM_FAMILIES`` and ``ANALYTIC_TARGETS``, the
exact lemmas of ``EXACT_LEMMAS``, ``count_ladder`` (``sums.LADDER``) and the
seven public kernels of ``bernoulli`` declare their gates in a
``params.Signature``.  For each entry, built from a
valid call:

* each declared gate, one step past its bound, raises its declared clause,
  and at its bound it holds;
* a value of the wrong type raises the one type message of its kind;
* the same bad value raises the same message by the direct positional call
  and by the keyword path (``run_case``, ``SumRequest``, ``spec.fn(**...)``).

Then every public name of ``dedsums.__all__`` is called with seeded tuples of
odd values, and may only return or raise ``ValueError`` (which
``HypothesisError`` subclasses).
"""

import ast
import inspect
import random
from fractions import Fraction

import pytest

import dedsums
from dedsums import bernoulli, cli, sums
from dedsums.analytic import ANALYTIC_TARGETS, EXACT_LEMMAS
from dedsums.params import RULES, Gate, HypothesisError, Signature, admit, declare
from dedsums.reciprocity import IDENTITIES, random_case, run_case
from dedsums.sums import LADDER, SUM_FAMILIES, SumRequest, count_ladder

# A valid call of each analytic check and exact lemma, small enough to run fast.
_VALID = {
    "fourier": {"n": 2, "x": Fraction(1, 4), "K": 50},
    "lemma24": {"j": 2, "b": 3, "r": 1, "K": 50},
    "lemma27": {"j": 2, "b": 3, "r": 1, "x": Fraction(1, 5), "K": 50},
    "zeta-even": {"j": 1, "K": 50},
    "lemma22": {"m": 3, "n": 2, "d": Fraction(1, 10), "x": Fraction(2, 5), "y": Fraction(-1, 3)},
    "lemma28": {"m": 2, "n": 3},
}


def _family_call(spec) -> dict:
    # Orders at their least value, moduli 2, 3, 5 (nonzero, coprime), shifts 1/3.
    values = dict.fromkeys(spec.orders, spec.minimum)
    values.update(zip(spec.moduli, (2, 3, 5)))
    values.update(dict.fromkeys(spec.shifts, Fraction(1, 3)))
    return values


def _sum_request(tag: str, values: dict):
    # The keyword path of a family: a request read from JSON, then evaluated.
    return SumRequest.from_json_dict({"family": tag, **values}).evaluate()


def _entries():
    """(id, signature, direct call, keyword call, valid values) of every entry."""
    for tag, spec in IDENTITIES.items():
        yield (f"identity:{tag}", spec.signature, spec.fn,
               lambda values, tag=tag: run_case(tag, values), random_case(tag, random.Random(7)))
    for tag, spec in SUM_FAMILIES.items():
        yield (f"family:{tag}", spec.signature, spec.fn,
               lambda values, tag=tag: _sum_request(tag, values), _family_call(spec))
    yield ("ladder", LADDER, count_ladder, lambda values: count_ladder(**values),
           dict(zip(LADDER.params, (2, 3, 5, *[Fraction(1, 3)] * 3))))
    for tag, spec in {**ANALYTIC_TARGETS, **EXACT_LEMMAS}.items():
        yield (f"analytic:{tag}", spec.signature, spec.fn,
               lambda values, fn=spec.fn: fn(**values), dict(_VALID[tag]))
    for name, sig in bernoulli._SIGNATURES.items():
        fn = getattr(bernoulli, name)
        yield (f"kernel:{name}", sig, fn, lambda values, fn=fn: fn(**values),
               {p: Fraction(1, 3) if kind is Fraction else 2 for p, kind in sig.params.items()})


ENTRIES = list(_entries())
IDS = [entry[0] for entry in ENTRIES]


def test_every_entry_is_covered():
    assert len(ENTRIES) == len(IDENTITIES) + len(SUM_FAMILIES) + 1 + len(ANALYTIC_TARGETS) \
        + len(EXACT_LEMMAS) + len(bernoulli.__all__) - 1  # BernoulliCache is no entry
    for _, sig, fn, keyword, values in ENTRIES:
        assert list(values) == list(sig.params)
        admit(sig, tuple(values.values()))
        fn(*values.values())
        keyword(values)


def _violations(sig, values: dict):
    """(name, gate, the values with that gate failed one step past its bound)."""
    names = list(sig.params)
    paired = {names[j] for gates in sig.gates.values() for gate in gates
              if gate.rule == "coprime" for j in gate.bound}
    for name, gates in sig.gates.items():
        for gate in gates:
            bad = dict(values)
            if gate.rule == "least":
                bad[name] = gate.bound - 1
            elif gate.rule == "nonzero":
                bad[name] = 0
            elif gate.rule == "odd":
                bad[name] = values[name] + 1
            elif gate.rule == "below":
                bad[name] = values[names[gate.bound]]
            else:  # coprime: both moduli the same prime, prime to the others
                pair = {names[j] for j in gate.bound}
                prime = next(p for p in (2, 3, 5, 7) if all(values[n] % p for n in paired - pair))
                bad.update(dict.fromkeys(pair, prime))
            yield name, gate, bad


def _message(call):
    with pytest.raises(ValueError) as exc:
        call()
    return exc.value


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_each_gate_raises_its_clause_one_step_past_its_bound(entry):
    _, sig, fn, keyword, values = entry
    gates = [gate for gates in sig.gates.values() for gate in gates]
    assert len(list(_violations(sig, values))) == len(gates)
    for name, gate, bad in _violations(sig, values):
        direct = _message(lambda: fn(*bad.values()))
        if sig.hypotheses:
            assert type(direct) is HypothesisError
            assert (direct.identity, direct.clause) == (sig.owner, gate.clause), (name, bad)
        else:
            assert type(direct) is ValueError
            assert str(direct) == gate.clause, (name, bad)
        assert str(_message(lambda: keyword(bad))) == str(direct)


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_each_gate_holds_at_its_bound(entry):
    _, sig, _, _, values = entry
    args = tuple(values.values())
    for i, gate in ((i, gate) for i, name in enumerate(sig.params) for gate in sig.gates[name]):
        holds = RULES[gate.rule]
        if gate.rule == "least":
            at = (*args[:i], gate.bound, *args[i + 1:])
            assert holds(gate.bound, gate.bound, at)
            try:
                admit(sig, at)
            except ValueError as exc:  # a later gate may fail; this one holds
                assert gate.clause not in str(exc)
        elif gate.rule == "below":
            assert holds(args[gate.bound] - 1, gate.bound, args)
        else:
            assert holds(args[i], gate.bound, args)


# Values no entry admits in place of an integer, and of a rational.  The
# literals "1" and "1/2" are not parsed for an integer, on either path.
BAD_INT = (1.0, True, False, None, Fraction(1, 2), 1j, b"1", "x", "1", "1/2", [2])
BAD_RATIONAL = (0.5, True, None, 1j, b"1", "x", "1.5", [1])


@pytest.mark.parametrize("entry", ENTRIES, ids=IDS)
def test_one_type_message_by_both_paths(entry):
    _, sig, fn, keyword, values = entry
    for name, kind in sig.params.items():
        expected = "an int" if kind is int else "an int or a Fraction"
        for value in BAD_INT if kind is int else BAD_RATIONAL:
            bad = {**values, name: value}
            direct = _message(lambda: fn(*bad.values()))
            assert type(direct) is ValueError
            assert str(direct) == f"{sig.owner}: parameter {name!r} must be {expected}, " \
                                  f"got {value!r}"
            assert str(_message(lambda: keyword(bad))) == str(direct)


def test_type_comes_before_the_gate_and_parameters_go_in_order():
    # A bad type is named before a later value's failed gate, and an earlier
    # value's failed gate before a later value's bad type.
    assert str(_message(lambda: dedsums.classical_s("x", 0))) == \
        "classical: parameter 'a' must be an int, got 'x'"
    assert str(_message(lambda: dedsums.apostol_s(0, 1, 0.0))) == "order n must be >= 1"
    exc = _message(lambda: dedsums.check_cor43(2, None, 1, 1, 1))
    assert type(exc) is HypothesisError and exc.clause == "p odd"
    exc = _message(lambda: dedsums.check_dedekind(2, 4.0))
    assert str(exc) == "dedekind: parameter 'b' must be an int, got 4.0"
    # The keyword paths keep the same order: coerce no longer type-checks
    # every value before the entry's gates run.
    exc = _message(lambda: run_case("dedekind", {"a": 0, "b": 2.0}))
    assert type(exc) is HypothesisError and exc.clause == "a >= 1"
    assert str(_message(lambda: SumRequest.from_json_dict(
        {"family": "apostol", "n": 0, "a": 1, "b": 2.0}))) == "order n must be >= 1"
    assert str(_message(lambda: dedsums.lemma24_check(0, 3, 1.5, 10))) == "power j must be >= 1"


def test_a_gate_of_an_undeclared_parameter_is_refused():
    with pytest.raises(ValueError, match="^t: gates of undeclared parameter\\(s\\): q$"):
        Signature("t", declare(["a"]), {"q": (Gate("nonzero", 0, "q != 0"),)})


def test_keyword_paths_name_a_missing_or_unknown_name():
    assert str(_message(lambda: run_case("dedekind", {"a": 1}))) == \
        "dedekind: missing parameter 'b'"
    assert str(_message(lambda: run_case("dedekind", {"a": 1, "b": 2, "zz": 3}))) == \
        "dedekind: unknown parameter(s): zz"
    assert run_case("rademacher3", {"a": 2, "b": 3, "c": 5, "dieter": True}).passed
    flagged = {"a": 1, "b": 2, "c": 3, "dieter": True, "zz": 0, "yy": 1}
    assert str(_message(lambda: run_case("rademacher3", flagged))) == \
        "rademacher3: unknown parameter(s): zz, yy"
    assert str(_message(lambda: SumRequest.from_json_dict({"family": "classical", "a": 1}))) \
        == "classical: missing parameter 'b'"


def test_only_a_keyword_path_parses_a_rational_literal():
    assert run_case("eq319", {"a": 2, "b": 3, "x": "1/2", "y": 0}).passed
    exc = _message(lambda: dedsums.check_rademacher_rad(2, 3, "1/2", 0))
    assert str(exc) == "eq319: parameter 'x' must be an int or a Fraction, got '1/2'"


def test_sum_request_validate_applies_the_gates():
    for request in (SumRequest("classical", moduli=(2, 0)),
                    SumRequest("apostol", orders=(0,), moduli=(1, 2)),
                    SumRequest("hwz", orders=(1, 1), moduli=(1, 2, 0), shifts=("1/2", 0, 0))):
        validated = _message(request.validate)
        assert str(validated) == str(_message(request.evaluate))


def test_the_sum_command_admits_its_request_once(monkeypatch, capsys):
    owners = []
    monkeypatch.setattr(sums, "admit", lambda sig, args: owners.append(sig.owner) or
                        admit(sig, args))
    argv = ["sum", "hwz", "-m", "1", "-n", "2", "-a", "1", "-b", "2", "-c", "3",
            "-x", "1/2", "-y", "0", "-z", "0", "--format", "json"]
    assert cli.main(argv) == 0
    assert owners == ["hwz"]
    assert capsys.readouterr().out.startswith('{"request": {"family": "hwz", "m": 1,')


def test_an_int_rational_is_admitted_as_its_fraction():
    sig = IDENTITIES["eq319"].signature
    admitted = admit(sig, (2, 3, 1, Fraction(1, 2)))
    assert admitted == (2, 3, Fraction(1), Fraction(1, 2))
    assert [type(v) for v in admitted] == [int, int, Fraction, Fraction]
    flagged = IDENTITIES["rademacher3"].signature
    assert admit(flagged, (1, 2, 3, False)) == (1, 2, 3)
    assert admit(flagged, (1, 2, 3, True)) == (1, 2, 3, True)


# ---------------------------------------------------------------------------
# Every public name, fuzzed
# ---------------------------------------------------------------------------

POOL = (0, -1, 2, 1.0, True, "1", "1/2", None, Fraction(1, 2), 1j, b"1")
FUZZ_SEED = 20221
FUZZ_CALLS = 1000


def _public_callables():
    # ``Rational`` is fractions.Fraction itself, re-exported as a type name;
    # its constructor is the standard library's, with its own TypeErrors.
    return [name for name in dedsums.__all__
            if callable(getattr(dedsums, name)) and name != "Rational"]


def test_all_lists_every_name_the_package_imports():
    tree = ast.parse(inspect.getsource(dedsums))
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.level for alias in node.names]
    assert sorted(dedsums.__all__) == sorted(imported)
    assert len(dedsums.__all__) == 59


@pytest.mark.parametrize("name", _public_callables())
def test_public_names_raise_only_value_errors(name):
    """Seeded tuples of the values of POOL raise nothing but ValueError.

    The pool holds small values only, so every order drawn is at most 2.  An
    order such as 10**400 would not fail fast but stall in
    ``BernoulliCache._grow``, which builds the integer Bernoulli table up to
    the order: a fresh table took 0.05-0.09 s to order 400 and 0.40-0.51 s to
    order 800 (Python 3.11.7, 2-core x86-64 guest), about eight times as long
    for twice the order.
    """
    fn = getattr(dedsums, name)
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.kind is p.POSITIONAL_OR_KEYWORD]
    required = sum(p.default is p.empty for p in params)
    rng = random.Random(f"{FUZZ_SEED}:{name}")
    for _ in range(FUZZ_CALLS):
        args = tuple(rng.choice(POOL) for _ in range(rng.randint(required, len(params))))
        try:
            fn(*args)
        except ValueError:
            pass
        except Exception as exc:  # anything else is a defect of the boundary
            pytest.fail(f"{name}{args!r} raised {type(exc).__name__}: {exc}")
    dedsums.clear_caches()
