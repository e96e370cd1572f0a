"""Golden records: the seeded random cases and the command line's bytes.

``golden/random_cases.json`` holds, for every identity and seeds 0-4, twenty
``random_case`` draws from one ``random.Random(seed)``: names in key order,
value types and values, and 64 bits drawn after the twenty cases, which pins
how much of the stream the draws consumed.  It also holds the
``run_case(...).to_json()`` report of the first four draws of each stream
(320 reports, signed moduli included), which pins every checker's lhs, rhs,
residual and counter bytes.  ``golden/analytic.json`` holds a seeded grid
of truncation reports (the four checks, integer poles and integer points
included) and ``fourier_partial_complex`` values, every float as
``float.hex``.  ``golden/checker_calls.json`` holds, for every identity,
``CHECKER_CALLS`` direct calls ``spec.fn(**values)`` of a seeded
``random_case`` draw with one to three of its arguments replaced by a value
of ``BAD_ARGS``, and each call's outcome: the report JSON, the clause and
message of a ``HypothesisError``, or the message of a ``ValueError``; when
several hypotheses fail at once, it pins which one is named.
``golden/cli.json`` holds the
stdout, stderr and exit code of ``cli.main`` on a fixed command list: every
subcommand in every ``--format``, grid and seeded-random sweeps, invalid
cases, ``--help`` of every parser, and usage errors.

``random_cases.json`` and ``cli.json`` were recorded from the code before
the parameter registries drove the sampler and the command line (the reports
before the product and three-modulus laws shared one binomial-side helper),
``analytic.json`` before Lemmas 2.4 and 2.7 shared one core,
``checker_calls.json`` before the sixteen checkers shared one admission and
reporting driver, and all four must keep matching.  ``analytic.json`` is
checked only under the Python version that recorded it.
The four CSV records with a set ``--dieter`` flag were recorded again when
CSV cells began to spell a set flag ``true``, as the ``pass`` cell does.  To record
them again (only when an output is meant to change), run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

from dedsums import cli
from dedsums.analytic import ANALYTIC_TARGETS, fourier_partial_complex
from dedsums.reciprocity import IDENTITIES, HypothesisError, random_case, run_case

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEEDS = range(5)
DRAWS = 20
REPORTS = 4
COLUMNS = "80"
ANALYTIC_SEED = 11
ANALYTIC_DRAWS = 40
CHECKER_CALLS = 40
# Values put in place of a checker's arguments: valid or not, by position.
BAD_ARGS = (0, -1, 2, 1.0, True, "1", None, Fraction(1, 2), -3)

_FAMILY_ARGS = {
    "classical": "-a 2 -b 3",
    "rademacher": "-a 1 -b -2 -x 0 -y 1/2",
    "berndt3": "-a 2 -b 3 -c 5 -x 1/2 -y 1/3 -z 1/7",
    "apostol": "-n 3 -a 2 -b 5",
    "carlitz": "-n 2 -a 1 -b 2 -x -7/3 -y 1/2",
    "hwz": "-m 2 -n 3 -a 2 -b -3 -c 5 -x 1/3 -y -1/2 -z 2/7",
    "two_term_mn": "-m 2 -n 1 -a 3 -b 4 -x 1/5 -y -2/3",
    "two_term_n": "-n 2 -a 3 -b -4 -x 1/5 -y 2/3",
    "plain_mn": "-m 1 -n 2 -a 2 -b 3 -c 7",
}

_VERIFY = [
    "thm41 -m 2 -n 3 -a 2 -b -3 -c 5 -x 1/3 -y 1/2 -z -2/7",
    "rademacher3 -a 2 -b 3 -c 5 --dieter",
    "berndt -a 2 -b 3 -c 5 -x 0 -y 1/3 -z -1/2",
    "cor43 -p 3 -r 1 -a 2 -b 3 -c 4",
    "apostol -n 2 -a 2 -b 3",
    "rademacher3 -a 2 -b 4 -c 5 --dieter",
]

_SWEEP = [
    "dedekind -a 1..3 -b 1,2",
    "rademacher3 -a 1 -b 2 -c 3,5 --dieter",
    "berndt -a 1,2 -b 3 -c 2 -x 0,1/2 -y -1/3 -z 0",
    "thm31 -m 1 -n 1..2 -a -2..-1,1 -b 2 -x 0,1/2 -y 0 -z 1/3",
    "carlitz --random 4 --seed 97",
    "cor43 --random 4 --seed 3",
    "thm44 --random 3 --seed 1",
    "rademacher3 --random 3 --seed 2 --dieter",
    "dedekind -a 2 -b 3 --random 2 --seed 5",
]

_ANALYTIC = [
    "fourier -n 2 -x 1/4 -K 1000",
    "lemma24 -j 2 -b 3 -r 1 -K 2000",
    "lemma27 -j 1 -b 2 -r 1 -x 1/3 -K 3000",
    "zeta-even -j 2 -K 2000",
]

_ERRORS = [
    "",
    "nope",
    "sum",
    "sum classical -a 1",
    "sum classical -a 1 -b 0",
    "sum rademacher -a 1 -b 2 -x 0.5 -y 0",
    "sum nope -a 1 -b 2",
    "sum classical -a 1 -b 2 --format csv",
    "verify dedekind -a 2",
    "verify dedekind -a x -b 3",
    "verify nope -a 1",
    "verify dedekind -a 2 -b 3 --dieter",
    "sweep dedekind -a 1..3",
    "sweep dedekind",
    "sweep dedekind -a 3..1 -b 1",
    "sweep eq319 -a 1 -b 1 -x 0.5 -y 0",
    "sweep dedekind -a 1 -b 2 --random x",
    "analytic lemma24 -j 2 -b 3 -r 1",
    "analytic fourier -n 1 -x 1/3 -K 100",
    "analytic lemma24 -j 2 -b 0 -r 1 -K 100",
    "analytic nope",
    "analytic zeta-even -j 1 -K 10 --format xml",
]


def command_list() -> list[list[str]]:
    """Every recorded argv, in a fixed order."""
    cmds = []
    for family, args in _FAMILY_ARGS.items():
        for fmt in ("plain", "json"):
            cmds.append(f"sum {family} {args} --format {fmt}")
    for sub, lines in (("verify", _VERIFY), ("sweep", _SWEEP), ("analytic", _ANALYTIC)):
        for line in lines:
            for fmt in ("json", "csv", "plain"):
                cmds.append(f"{sub} {line} --format {fmt}")
    cmds += _ERRORS
    cmds += ["--help", "sum --help", "verify --help", "sweep --help", "analytic --help"]
    cmds += [f"sum {family} --help" for family in _FAMILY_ARGS]
    cmds += [f"{sub} {name} --help" for sub in ("verify", "sweep") for name in IDENTITIES]
    cmds += [f"analytic {target} --help"
             for target in ("fourier", "lemma24", "lemma27", "zeta-even")]
    return [c.split() for c in cmds]


def run_main(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _encode(case: dict) -> str:
    # "name:type:value" per key, in key order.
    return " ".join(f"{name}:{type(v).__name__}:{v}" for name, v in case.items())


def draw_cases() -> dict:
    """{identity: {seed: {"cases": [encoded case, ...], "after": 64 bits,
    "reports": [report JSON of the first REPORTS cases, ...]}}}"""
    out = {}
    for identity in IDENTITIES:
        per_seed = {}
        for seed in SEEDS:
            rng = random.Random(seed)
            cases = [random_case(identity, rng) for _ in range(DRAWS)]
            per_seed[str(seed)] = {
                "cases": [_encode(case) for case in cases],
                "after": rng.getrandbits(64),
                "reports": [run_case(identity, case).to_json() for case in cases[:REPORTS]],
            }
        out[identity] = per_seed
    return out


def _checker_outcome(fn, values: dict) -> dict:
    try:
        return {"report": fn(**values).to_json()}
    except HypothesisError as exc:
        return {"clause": exc.clause, "error": str(exc)}
    except ValueError as exc:
        return {"error": str(exc)}


def checker_calls() -> dict:
    """{identity: [{"call": encoded arguments, outcome}, ...]}, one stream per identity."""
    out = {}
    for identity, spec in IDENTITIES.items():
        rng = random.Random(f"checker:{identity}")
        records = []
        for _ in range(CHECKER_CALLS):
            values = random_case(identity, rng)
            for name in rng.sample(list(values), rng.randint(1, min(3, len(values)))):
                values[name] = rng.choice(BAD_ARGS)
            records.append({"call": _encode(values), **_checker_outcome(spec.fn, values)})
        out[identity] = records
    return out


def _point(rng: random.Random) -> Fraction:
    # An integer one time in four, else a denominator of 1-12.
    den = 1 if rng.random() < 0.25 else rng.randint(1, 12)
    return Fraction(rng.randint(-30, 30), den)


def analytic_calls() -> list:
    """(tag, args) of every pinned analytic call, drawn from one seeded stream."""
    rng = random.Random(ANALYTIC_SEED)
    calls = []
    for _ in range(ANALYTIC_DRAWS):
        j, b = rng.randint(1, 6), rng.choice([*range(-12, 0), *range(1, 13)])
        # An integer alpha = r/b, a pole inside the window, one time in four.
        r = b * rng.randint(-3, 3) if rng.random() < 0.25 else rng.randint(-30, 30)
        gate = 2 * (math.ceil(abs(Fraction(r, b))) + 1)
        K = rng.randint(gate, gate + 300)
        calls += [("lemma24", (j, b, r, K)),
                  ("lemma27", (j, b, r, _point(rng), K)),
                  ("fourier", (rng.randint(2, 6), _point(rng), rng.randint(1, 300))),
                  ("fourier-complex", (rng.randint(2, 6), _point(rng), rng.randint(1, 300))),
                  ("zeta-even", (j, rng.randint(1, 500)))]
    return calls


def _hex(value):
    if isinstance(value, complex):
        value = (value.real, value.imag)
    if isinstance(value, tuple):
        return [v.hex() for v in value]
    return value.hex()


def analytic_reports() -> list:
    """[{"call": [tag, args...], "report" or "value": fields with floats as hex}]"""
    out = []
    for tag, args in analytic_calls():
        record = {"call": [tag, *map(str, args)]}
        if tag == "fourier-complex":
            record["value"] = _hex(fourier_partial_complex(*args))
        else:
            report = ANALYTIC_TARGETS[tag].fn(*args)
            data = report.to_json_dict()
            for field in ("approx", "reference", "abs_error", "tolerance"):
                data[field] = _hex(getattr(report, field))
            record["report"] = data
        out.append(record)
    return out


def _load(name: str):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def test_random_case_streams_match_golden():
    golden = _load("random_cases.json")
    assert list(golden) == list(IDENTITIES)
    assert draw_cases() == golden


def test_direct_checker_calls_match_golden():
    golden = _load("checker_calls.json")
    assert list(golden) == list(IDENTITIES)
    assert checker_calls() == golden


def test_analytic_report_bits_match_golden():
    golden = _load("analytic.json")
    if golden["python"] != list(sys.version_info[:2]):
        pytest.skip(f"float bits recorded under Python {golden['python']}")
    assert analytic_reports() == golden["reports"]


@pytest.fixture
def cli_env(monkeypatch):
    # argparse wraps help and usage at COLUMNS; the worker count must not
    # come from the calling environment.
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.delenv("DEDSUMS_WORKERS", raising=False)


def _argparse_text(record: dict) -> bool:
    # Help and usage errors are argparse's own wording, which differs
    # between Python versions.
    return "--help" in record["argv"] or "usage:" in record["stderr"]


def test_cli_bytes_match_golden(cli_env):
    golden = _load("cli.json")
    records = golden["records"]
    assert [r["argv"] for r in records] == command_list()
    same_python = golden["python"] == list(sys.version_info[:2])
    for record in records:
        if same_python or not _argparse_text(record):
            assert run_main(record["argv"]) == record, " ".join(record["argv"])


def _record() -> None:
    os.environ["COLUMNS"] = COLUMNS
    os.environ.pop("DEDSUMS_WORKERS", None)
    os.makedirs(GOLDEN, exist_ok=True)
    with open(os.path.join(GOLDEN, "random_cases.json"), "w") as fh:
        json.dump(draw_cases(), fh, indent=1)
        fh.write("\n")
    with open(os.path.join(GOLDEN, "checker_calls.json"), "w") as fh:
        json.dump(checker_calls(), fh, indent=1)
        fh.write("\n")
    with open(os.path.join(GOLDEN, "analytic.json"), "w") as fh:
        json.dump({"python": list(sys.version_info[:2]), "reports": analytic_reports()},
                  fh, indent=1)
        fh.write("\n")
    records = [run_main(argv) for argv in command_list()]
    with open(os.path.join(GOLDEN, "cli.json"), "w") as fh:
        json.dump({"python": list(sys.version_info[:2]), "records": records}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    _record()
