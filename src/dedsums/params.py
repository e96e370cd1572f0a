"""Declared parameters of the registries, and the one strict input boundary.

Every entry of ``reciprocity.IDENTITIES``, ``sums.SUM_FAMILIES`` and
``analytic.ANALYTIC_TARGETS`` declares its parameters once (names in order,
each ``int`` or ``Fraction``) plus its boolean flags.  The CLI, the random
sampler and rendering read that description, and :func:`coerce` admits
inputs by it: an integer must be an ``int`` but not a ``bool``; a rational an
``int``, a ``Fraction`` or a literal :func:`dedsums.exact.parse_rational`
accepts; a flag a ``bool``.  Anything else -- a float, a junk string, a
missing or unknown name -- raises ``ValueError``; nothing is approximated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .exact import parse_rational

__all__ = ["Params", "declare", "lookup", "coerce"]

Params = Mapping[str, type]
"""Parameter name -> kind (``int`` or ``Fraction``), in declared order."""


def declare(ints: Iterable[str] = (), rationals: Iterable[str] = ()) -> Params:
    """Integer parameters first, then rational ones, each group in the given order."""
    return {**dict.fromkeys(ints, int), **dict.fromkeys(rationals, Fraction)}


def lookup(registry: Mapping, tag, what: str):
    """``registry[tag]``, or ValueError naming the unknown ``what``."""
    try:
        return registry[tag]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what}: {tag!r}") from None


def _coerce_value(owner: str, name: str, kind: type, value):
    if type(value) is kind:  # an int (not a bool) or a Fraction, as declared
        return value
    if not isinstance(value, bool):
        if isinstance(value, int):
            return value if kind is int else Fraction(value)
        if kind is Fraction and isinstance(value, Fraction):
            return value
        if kind is Fraction and isinstance(value, str):
            return parse_rational(value)
    expected = "an integer" if kind is int else "a rational (int, Fraction or literal)"
    raise ValueError(f"{owner}: parameter {name!r} must be {expected}, got {value!r}")


def coerce(owner: str, params: Params, values: Mapping, flags: tuple[str, ...] = ()) -> dict:
    """The declared parameters of ``values``, exactly typed, in declared order.

    Flags follow the parameters; a flag is kept only when it is ``True``.
    ``owner`` names the registry entry in error messages.
    """
    if not isinstance(values, Mapping):
        raise ValueError(f"{owner}: parameters must be a mapping, got {values!r}")
    out = {}
    for name, kind in params.items():
        if name not in values:
            raise ValueError(f"{owner}: missing parameter {name!r}")
        out[name] = _coerce_value(owner, name, kind, values[name])
    present = [f for f in flags if f in values]
    if len(values) != len(params) + len(present):
        unknown = [str(k) for k in values if k not in out and k not in flags]
        raise ValueError(f"{owner}: unknown parameter(s): {', '.join(unknown)}")
    for flag in present:
        if not isinstance(values[flag], bool):
            raise ValueError(f"{owner}: flag {flag!r} must be a bool, got {values[flag]!r}")
        if values[flag]:
            out[flag] = True
    return out
