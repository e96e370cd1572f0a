"""Mutation census: how many one-token mutants of a module the tests detect.

    python tools/mutation_census.py src/dedsums/params.py \\
        --tests tests/test_admission.py tests/test_boundary.py --seed 0 --timeout 300

Each mutant changes one token of the module: an arithmetic or bitwise
operator (``+`` to ``-``, ``*`` to ``+``, ...), a comparison (``<`` to
``<=``, ``==`` to ``!=``, ``is`` to ``is not``, ``in`` to ``not in``), a
boolean operator (``and`` to ``or``), an integer constant (``n`` to
``n + 1``), a boolean constant, or a ``not`` dropped.  The module is written
back with ``ast.unparse``, so comments and layout go but nothing else
changes; the unmutated module is written the same way and must pass first.

The repository's ``src``, ``tests``, ``perfbench`` and ``pyproject.toml`` are
copied once into a scratch directory, and each mutant runs
``pytest -x -q -p no:cacheprovider --hypothesis-seed=<seed>`` on the given
tests there, one at a time.  A mutant is *killed* when the run fails, and
also when it outlives ``--timeout`` seconds: a hang is detected, not
missed.  It *survives* when the run passes.  A survivor listed in
:data:`EQUIVALENT` (by module and site) changes no behaviour that a test
could observe, for the reason given there, and is reported apart.
``--sample N`` runs N sites drawn with ``--seed``; by default every site
runs, and ``--list`` prints the sites only.  The exit code is 1 when an
unlisted mutant survives.

Only the standard library is used, and pytest with the hypothesis plugin
as the test runner.  The census is slow (a survivor runs its whole test
list), so it is not part of the tier-1 suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

# operator class -> the class it is mutated to
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}

# (module path relative to the repository, site) -> why the mutant is equivalent
_L0 = "order 0 takes the checked call, which returns the same L_0 = 1"
_DEN = "den != 0 by contract, and den == 0 raises ZeroDivisionError either way"
EQUIVALENT: dict[tuple[str, str], str] = {
    ("src/dedsums/bernoulli.py", "148:29 Compare LtE->Lt"): _L0,
    ("src/dedsums/bernoulli.py", "148:29 Constant 0->1"): _L0,
    ("src/dedsums/bernoulli.py", "174:7 Compare Lt->LtE"): _DEN,
    ("src/dedsums/bernoulli.py", "174:13 Constant 0->1"): _DEN,
}


def sites(tree: ast.AST) -> list[tuple[str, ast.AST, str]]:
    """(site, node, field) of every mutable token, in source order.

    ``site`` is ``line:col kind old->new``; ``field`` says what changes.
    """
    found = []
    for node in ast.walk(tree):
        where = f"{getattr(node, 'lineno', 0)}:{getattr(node, 'col_offset', 0)}"
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            found.append((f"{where} {type(node).__name__} {type(node.op).__name__}->"
                          f"{SWAPS[type(node.op)].__name__}", node, "op"))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((f"{where} Compare {type(op).__name__}->"
                                  f"{SWAPS[type(op)].__name__}", node, f"ops.{i}"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, bool):
            new = not node.value if type(node.value) is bool else node.value + 1
            found.append((f"{where} Constant {node.value!r}->{new!r}", node, "value"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((f"{where} UnaryOp Not->dropped", node, "not"))
    found.sort(key=lambda s: tuple(map(int, s[0].split()[0].split(":"))))
    return found


class _DropNot(ast.NodeTransformer):
    def __init__(self, target: ast.AST):
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutant(source: str, index: int) -> tuple[str, str]:
    """(site, mutated source) of the ``index``-th site of ``source``."""
    tree = ast.parse(source)
    site, node, field = sites(tree)[index]
    if field == "op":
        node.op = SWAPS[type(node.op)]()
    elif field.startswith("ops."):
        i = int(field[4:])
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif field == "value":
        node.value = not node.value if type(node.value) is bool else node.value + 1
    else:
        tree = _DropNot(node).visit(tree)
    return site, ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(workdir: str, tests: list[str], seed: int, timeout: float) -> tuple[str, float]:
    """("passed", "failed" or "timeout", seconds) of one pytest run in ``workdir``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           f"--hypothesis-seed={seed}", *tests]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.monotonic() - start
    return ("passed" if code == 0 else "failed"), time.monotonic() - start


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("module", help="module to mutate, relative to the repository root")
    ap.add_argument("--tests", nargs="+", default=["tests"], help="test paths to run")
    ap.add_argument("--seed", type=int, default=0, help="sampling and hypothesis seed")
    ap.add_argument("--sample", type=int, default=None, help="run this many sites only")
    ap.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    ap.add_argument("--workdir", default=None, help="parent of the scratch copy")
    ap.add_argument("--list", action="store_true", help="print the sites and run nothing")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, args.module)) as fh:
        source = fh.read()
    every = sites(ast.parse(source))
    if args.list:
        print("\n".join(site for site, _, _ in every))
        return 0
    chosen = range(len(every))
    if args.sample is not None:
        chosen = sorted(random.Random(args.seed).sample(chosen, min(args.sample, len(every))))
    work = tempfile.mkdtemp(prefix="census-", dir=args.workdir)
    try:
        for name in COPIED:
            src, dst = os.path.join(ROOT, name), os.path.join(work, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", "results"))
            else:
                shutil.copy2(src, dst)
        target = os.path.join(work, args.module)
        with open(target, "w") as fh:
            fh.write(ast.unparse(ast.parse(source)) + "\n")
        outcome, secs = run_tests(work, args.tests, args.seed, args.timeout)
        print(f"baseline {outcome} {secs:.1f}s, {len(every)} sites, {len(chosen)} run", flush=True)
        if outcome != "passed":
            return 2
        tally = {"killed": 0, "survived": 0, "equivalent": 0}
        for index in chosen:
            site, text = mutant(source, index)
            with open(target, "w") as fh:
                fh.write(text)
            outcome, secs = run_tests(work, args.tests, args.seed, args.timeout)
            if outcome != "passed":
                verdict = "killed" if outcome == "failed" else "killed (timeout)"
                tally["killed"] += 1
            elif (args.module, site) in EQUIVALENT:
                verdict = "equivalent"
                tally["equivalent"] += 1
            else:
                verdict = "SURVIVED"
                tally["survived"] += 1
            print(f"{verdict:17} {site} ({secs:.1f}s)", flush=True)
        live = tally["killed"] + tally["survived"]
        print(f"{args.module}: killed {tally['killed']} of {live} non-equivalent mutants "
              f"({tally['killed'] / max(live, 1):.1%}); {tally['equivalent']} equivalent, "
              f"{tally['survived']} survived")
        return 1 if tally["survived"] else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
