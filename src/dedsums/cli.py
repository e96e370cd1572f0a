"""Command-line front end: compute sums, verify identities, run sweeps.

Subcommands
-----------
``sum FAMILY ...``      evaluate one sum exactly; prints a rational literal.
``verify IDENTITY ...`` check one identity instance; prints a report.
``sweep IDENTITY ...``  grid and/or seeded-random verification sweeps.
``analytic TARGET ...`` run one floating-point truncation check.

Exit codes: 0 when everything passed, 1 when any residual or tolerance
check failed, 2 on usage errors or violated hypotheses.

Rational arguments use the exact literal grammar (``-7/3``, ``5``); decimal
points are rejected so no input is silently approximated.  Integer range
arguments for ``sweep`` accept comma-separated items and ``lo..hi`` spans
(``-3..-1,1..3``); rational list arguments are comma-separated literals.

Output is byte-deterministic: identical invocations print identical bytes,
sweep cases are emitted in lexicographic grid order (random cases after the
grid, in generation order) regardless of the worker count.  The worker
count defaults to the ``DEDSUMS_WORKERS`` environment variable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .analytic import ANALYTIC_TARGETS
from .exact import _INTEGER_RE, format_rational, parse_rational
from .reciprocity import (
    IDENTITIES,
    HypothesisError,
    IdentityCase,
    IdentityReport,
    random_case,
    run_case,
)
from .sums import SUM_FAMILIES, SumRequest

__all__ = ["main", "SweepSpec"]


@dataclass(frozen=True)
class SweepSpec:
    """One verification sweep: an identity, its grids, and the random tail.

    ``grids`` maps every declared parameter to its value list (empty when
    the sweep is random-only); grid cases enumerate lexicographically in
    declared parameter order, then ``random_count`` seeded tuples follow.
    The seed fully determines the random sequence.
    """

    identity: str
    grids: dict[str, list] = field(default_factory=dict)
    random_count: int = 0
    seed: int = 0
    flags: tuple[str, ...] = ()

    def cases(self) -> list[dict]:
        if self.random_count < 0:
            raise ValueError(f"sweep random count must be >= 0, got {self.random_count}")
        names = list(IDENTITIES[self.identity].params)
        out: list[dict] = []
        if self.grids:
            missing = [n for n in names if n not in self.grids]
            if missing:
                raise ValueError(
                    f"sweep grid missing parameter(s): {', '.join(missing)}")
            out.extend(dict(zip(names, combo))
                       for combo in itertools.product(*(self.grids[n] for n in names)))
        if self.random_count:
            rng = random.Random(self.seed)
            out.extend(random_case(self.identity, rng)
                       for _ in range(self.random_count))
        if not out:
            raise ValueError("sweep needs a full grid and/or a random count")
        for params in out:
            for flag in self.flags:
                params[flag] = True
        return out


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts negative rational literals as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Stock argparse only lets plain negative numbers through as option
        # values; no option here starts with a digit, so treat every token
        # beginning '-<digit>' as a value ('-7/3', '-3..-1,1..2', ...).
        self._negative_number_matcher = re.compile(r"^-\d")


def _int(text: str) -> int:
    """An integer literal: the whole text is ASCII ``-?[0-9]+``."""
    if _INTEGER_RE.fullmatch(text) is None:
        raise ValueError(f"invalid integer literal: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse's message reads "invalid int value: ..."


def _int_range(text: str) -> list[int]:
    """Parse '1..3', '-3..-1,1..3', '2,5,7' into an integer list."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = _int(lo_s), _int(hi_s)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            values.extend(range(lo, hi + 1))
        elif part:
            values.append(_int(part))
    if not values:
        raise ValueError(f"empty integer range: {text!r}")
    return values


def _rational_list(text: str) -> list[Fraction]:
    values = [parse_rational(part.strip()) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty rational list: {text!r}")
    return values


def _worker_count(option: int | None) -> int:
    """``--workers``, else ``DEDSUMS_WORKERS``, else 1; it must be an integer >= 1."""
    if option is not None:
        source, text = "--workers", str(option)
    else:
        source, text = "DEDSUMS_WORKERS", os.environ.get("DEDSUMS_WORKERS", "1")
    try:
        count = _int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {text!r}")
    return count


# subcommand -> help, registry key name, registry, output formats (default first)
_COMMANDS = {
    "sum": ("evaluate one sum exactly", "family", SUM_FAMILIES, ("plain", "json")),
    "verify": ("verify one identity instance", "identity", IDENTITIES, ("json", "csv", "plain")),
    "sweep": ("verify an identity over a grid", "identity", IDENTITIES, ("json", "csv", "plain")),
    "analytic": ("run one truncation check", "target", ANALYTIC_TARGETS, ("json", "csv", "plain")),
}
# parameter kind -> argparse type of one value, and of a sweep's value list
_VALUE_TYPE = {int: _int, Fraction: parse_rational}
_GRID_TYPE = {int: (_int_range, "RANGE"), Fraction: (_rational_list, "LIST")}


_PARSER: _Parser | None = None


def build_parser() -> _Parser:
    """The one parser of this process, built on the first call.

    argparse does not change a parser while it parses, and help text is
    laid out (``COLUMNS`` read) only when it is printed, so every call of
    :func:`main` can reuse the same tree.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _new_parser()
    return _PARSER


def _new_parser() -> _Parser:
    top = _Parser(prog="dedsums", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (help_text, key, registry, formats) in _COMMANDS.items():
        tree = sub.add_parser(command, help=help_text).add_subparsers(
            dest=key, required=True, metavar=key.upper())
        for name, spec in registry.items():
            p = tree.add_parser(name)
            for pname, kind in spec.params.items():
                if command == "sweep":
                    grid_type, metavar = _GRID_TYPE[kind]
                    p.add_argument(f"-{pname}", type=grid_type, metavar=metavar)
                else:
                    p.add_argument(f"-{pname}", type=_VALUE_TYPE[kind], required=True)
            for flag in spec.flags:
                p.add_argument(f"--{flag}", action="store_true")
            if command == "sweep":
                p.add_argument("--random", type=_int, default=0, metavar="N",
                               help="append N seeded random hypothesis-respecting tuples")
                p.add_argument("--seed", type=_int, default=0)
                p.add_argument("--workers", type=_int, default=None)
            p.add_argument("--format", choices=formats, default=formats[0])
    return top


# ---------------------------------------------------------------------------
# Report rendering: one row renderer per format, for verify and sweep alike
# ---------------------------------------------------------------------------

def _fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return format_rational(v)
    return str(v)


def _given(spec, params: dict) -> list[tuple[str, object]]:
    """The declared parameters and flags present in ``params``, in declared order."""
    return [(n, params[n]) for n in spec.columns if n in params]


def _kv(pairs) -> str:
    return " ".join(f"{n}={_fmt_value(v)}" for n, v in pairs)


def _json_row(spec, params: dict, report: IdentityReport | None, clause: str | None) -> str:
    if report is not None:
        return report.to_json()
    case = IdentityCase(spec.name, tuple(_given(spec, params)))
    return json.dumps({"identity": spec.name, "params": case.to_json_dict(), "error": clause})


def _csv_header(spec) -> str:
    return ",".join(["identity", *spec.columns, "lhs", "rhs", "residual", "pass", "counter"])


def _csv_cell(v) -> str:
    # A bool as JSON spells it: set flags and the pass column alike.
    return str(v).lower() if isinstance(v, bool) else _fmt_value(v)


def _csv_row(spec, params: dict, report: IdentityReport | None, clause: str | None) -> str:
    cells = [spec.name] + [_csv_cell(params[n]) if n in params else "" for n in spec.columns]
    if report is None:
        return ",".join(cells + ["", "", "", "invalid", ""])
    return ",".join(cells + [format_rational(report.lhs), format_rational(report.rhs),
                             format_rational(report.residual), _csv_cell(report.passed),
                             "" if report.counter is None else str(report.counter)])


def _plain_row(spec, params: dict, report: IdentityReport | None, clause: str | None) -> str:
    kv = _kv(_given(spec, params))
    if report is None:
        return f"INVALID {spec.name} {kv} ({clause})"
    line = (f"{'PASS' if report.passed else 'FAIL'} {spec.name} {kv} "
            f"residual={format_rational(report.residual)}")
    if report.counter is not None:
        line += f" counter={report.counter}"
    return line


def _summary_line(counts: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in counts.items())


# format -> (table header or None, row renderer, sweep summary line)
_FORMATS = {
    "json": (None, _json_row, json.dumps),
    "csv": (_csv_header, _csv_row, lambda counts: "# " + _summary_line(counts)),
    "plain": (None, _plain_row, _summary_line),
}


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------

def _args_for(spec, args) -> dict:
    """The parsed values of ``spec``'s parameters, plus its flags that are set."""
    values = {name: getattr(args, name) for name in spec.params}
    values.update((flag, True) for flag in spec.flags if getattr(args, flag))
    return values


def _cmd_sum(args) -> int:
    # The parser has read each value as its kind; evaluate() admits them once.
    spec = SUM_FAMILIES[args.family]
    request = SumRequest(args.family, *(tuple(getattr(args, name) for name in names)
                                        for names in (spec.orders, spec.moduli, spec.shifts)))
    try:
        value = request.evaluate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"request": request.to_json_dict(),
                          "value": format_rational(value)}))
    else:
        print(format_rational(value))
    return 0


def _check_case(case: tuple[str, dict]):
    """(report, None) for one case, or (None, clause) when it is invalid."""
    identity, params = case
    try:
        return run_case(identity, params), None
    except HypothesisError as exc:
        return None, exc.clause


def _cmd_verify(args) -> int:
    spec = IDENTITIES[args.identity]
    params = _args_for(spec, args)
    header, row, _ = _FORMATS[args.format]
    report, clause = _check_case((args.identity, params))
    if header:
        print(header(spec))
    print(row(spec, params, report, clause))
    if report is None:
        return 2
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    spec = IDENTITIES[args.identity]
    grids = {name: getattr(args, name) for name in spec.params
             if getattr(args, name) is not None}
    flags = tuple(f for f in spec.flags if getattr(args, f))
    sweep = SweepSpec(identity=args.identity, grids=grids,
                      random_count=args.random, seed=args.seed, flags=flags)
    try:
        workers = _worker_count(args.workers)
        cases = [(args.identity, params) for params in sweep.cases()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if workers > 1 and len(cases) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep needs it

        chunk = max(1, len(cases) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_check_case, cases, chunksize=chunk))
    else:
        results = [_check_case(c) for c in cases]

    header, row, summary_line = _FORMATS[args.format]
    if header:
        print(header(spec))
    counts = {"cases": len(cases), "passes": 0, "failures": 0, "invalid": 0}
    for (_, params), (report, clause) in zip(cases, results):
        outcome = "invalid" if report is None else "passes" if report.passed else "failures"
        counts[outcome] += 1
        print(row(spec, params, report, clause))
    print(summary_line(counts))
    return 0 if counts["failures"] == 0 and counts["invalid"] == 0 else 1


def _cmd_analytic(args) -> int:
    spec = ANALYTIC_TARGETS[args.target]
    try:
        report = spec.fn(**_args_for(spec, args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "plain":
        print(f"{'PASS' if report.passed else 'FAIL'} {report.target} "
              + _kv(report.params)
              + f" K={report.K} abs_error={report.abs_error!r} "
              + f"tolerance={report.tolerance!r}")
    elif args.format == "csv":
        def cell(v):  # a complex value is its two parts, "re;im"
            return ";".join(map(repr, v)) if isinstance(v, tuple) else repr(v)
        print(",".join(["target", *(n for n, _ in report.params),
                        "K", "approx", "reference", "abs_error", "tolerance", "pass"]))
        print(",".join([report.target, *(_fmt_value(v) for _, v in report.params),
                        str(report.K), cell(report.approx), cell(report.reference),
                        repr(report.abs_error), repr(report.tolerance),
                        str(report.passed).lower()]))
    else:
        print(report.to_json())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    # build_parser and the handlers are looked up as module attributes on
    # every call, so a wrapper set on the module (a tracer) sees each call.
    args = build_parser().parse_args(argv)
    handlers = {"sum": _cmd_sum, "verify": _cmd_verify, "sweep": _cmd_sweep,
                "analytic": _cmd_analytic}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
