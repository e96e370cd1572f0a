"""Declared parameters and gates of the registries, and the one admission layer.

Every registry entry (``reciprocity.IDENTITIES``, ``sums.SUM_FAMILIES``,
``analytic.ANALYTIC_TARGETS`` and ``analytic.EXACT_LEMMAS``, and
``sums.LADDER``) declares one :class:`Signature`: its parameters in order,
each ``int`` or ``Fraction``, the gates of each, and its boolean flags.  The
CLI, the random sampler and rendering read it, and :func:`admit` admits every
call of the entry by it, one parameter at a time: the type, then the gates.
Nothing inexact is approximated.  :func:`coerce` only turns a keyword mapping
into the same call, so a keyword call gets the message a direct call gets.
"""

from __future__ import annotations

import math
from contextlib import suppress
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, NamedTuple

from .exact import parse_rational

__all__ = ["Params", "Gate", "RULES", "Signature", "HypothesisError", "declare", "lookup",
           "coerce", "admit"]

Params = Mapping[str, type]
"""Parameter name -> kind (``int`` or ``Fraction``), in declared order."""


class HypothesisError(ValueError):
    """A parameter tuple violates an identity's hypotheses.

    ``clause`` names the violated hypothesis; this is a validation outcome,
    distinct from a nonzero residual.
    """

    def __init__(self, identity: str, clause: str):
        super().__init__(f"{identity}: hypothesis violated: {clause}")
        self.identity = identity
        self.clause = clause


class Gate(NamedTuple):
    """One hypothesis on an integer parameter, named by ``clause`` when it fails."""

    rule: str  # a key of RULES
    bound: object  # what the rule compares with: a least value, an index, two indices
    clause: str


# rule -> holds(value, bound, args), ``args`` being the call admitted up to the value.
RULES = {
    "least": lambda v, bound, args: v >= bound,
    "nonzero": lambda v, bound, args: v != 0,
    "odd": lambda v, bound, args: v % 2 == 1,
    "below": lambda v, bound, args: v < args[bound],
    "coprime": lambda v, bound, args: math.gcd(args[bound[0]], args[bound[1]]) == 1,
}


def declare(ints: Iterable[str] = (), rationals: Iterable[str] = ()) -> Params:
    """Integer parameters first, then rational ones, each group in the given order."""
    return {**dict.fromkeys(ints, int), **dict.fromkeys(rationals, Fraction)}


class Signature:
    """What one registry entry admits: its parameters, their gates, its flags.

    ``owner`` names the entry in messages.  A failed gate raises
    ``refusal(clause)``: :class:`HypothesisError` when ``hypotheses`` is set
    (an identity), else ``ValueError(clause)``.
    """

    def __init__(self, owner: str, params: Params, gates: Mapping[str, Iterable[Gate]] = {},
                 flags: tuple[str, ...] = (), hypotheses: bool = False):
        if not set(gates) <= set(params):
            raise ValueError(f"{owner}: gates of undeclared parameter(s): "
                             f"{', '.join(sorted(set(gates) - set(params)))}")
        self.owner, self.params, self.flags, self.hypotheses = owner, params, flags, hypotheses
        self.gates = {name: tuple(gates.get(name, ())) for name in params}
        # What admit reads: the kinds, and each gate with its parameter's index, rule resolved.
        self.kinds = tuple(params.values())
        self.checks = tuple((i, RULES[gate.rule], gate.bound, gate.clause)
                            for i, name in enumerate(params) for gate in self.gates[name])
        self.refusal = partial(HypothesisError, owner) if hypotheses else ValueError


def lookup(registry: Mapping, tag, what: str):
    """``registry[tag]``, or ValueError naming the unknown ``what``."""
    try:
        return registry[tag]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what}: {tag!r}") from None


def admit(sig: Signature, args: tuple) -> tuple:
    """``args``, a positional call of ``sig``'s entry, admitted; else ValueError.

    Each parameter in declared order has its type (an integer an ``int``, not
    a ``bool``; a rational an ``int``, made its Fraction, or a ``Fraction``),
    then passes its gates; then each flag is a ``bool``, kept only when set.
    """
    n = bad = len(sig.kinds)  # bad: the index of the first value of a wrong type
    if tuple(map(type, args)) != sig.kinds:
        args = (*(Fraction(v) if kind is Fraction and type(v) is int else v
                  for kind, v in zip(sig.kinds, args)), *args[n:])
        bad = next((i for i, kind in enumerate(sig.kinds) if type(args[i]) is not kind), n)
    # The gates of every parameter before that value, then its type message.
    for i, holds, bound, clause in sig.checks:
        if i >= bad:
            break
        if not holds(args[i], bound, args):
            raise sig.refusal(clause)
    if bad < n:
        expected = "an int" if sig.kinds[bad] is int else "an int or a Fraction"
        raise ValueError(f"{sig.owner}: parameter {list(sig.params)[bad]!r} must be "
                         f"{expected}, got {args[bad]!r}")
    if len(args) == n:
        return args
    for name, flag in zip(sig.flags, args[n:]):
        if type(flag) is not bool:
            raise ValueError(f"{sig.owner}: flag {name!r} must be a bool, got {flag!r}")
    return (*args[:n], *(True for flag in args[n:] if flag))


def coerce(owner: str, params: Params, values: Mapping, flags: tuple[str, ...] = ()) -> dict:
    """The keyword arguments of ``values``: its parameters in declared order, then its flags.

    A rational parameter's literal string (``"-7/3"``) becomes its Fraction;
    every other value, and every flag, is passed as it is, for the entry's
    admission to check.  ``owner`` names the registry entry in error messages.
    """
    if not isinstance(values, Mapping):
        raise ValueError(f"{owner}: parameters must be a mapping, got {values!r}")
    out = {}
    for name, kind in params.items():
        if name not in values:
            raise ValueError(f"{owner}: missing parameter {name!r}")
        out[name] = v = values[name]
        if kind is Fraction and type(v) is str:
            with suppress(ValueError):  # not a literal: admission names the value
                out[name] = parse_rational(v)
    present = [f for f in flags if f in values]
    if len(values) != len(params) + len(present):
        unknown = [str(k) for k in values if k not in out and k not in flags]
        raise ValueError(f"{owner}: unknown parameter(s): {', '.join(unknown)}")
    out.update((flag, values[flag]) for flag in present)
    return out
