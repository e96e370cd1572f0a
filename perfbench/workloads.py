"""The four seeded workloads: inputs, one timed pass, and the output checks.

Inputs come from ``random.Random`` seeded with ``"<workload>:<seed>"`` and
never from the program's own samplers, so a rewrite of those samplers leaves
every workload unchanged.  Each draw is stratified (orders, modulus sizes and
shift denominators are spread evenly; large moduli and the truncation levels
of zeta_even come in pairs with a fixed sum), so that every seed asks for
nearly the same amount of work and the throughput of one seed is comparable
with another's.

A workload is an object with

* ``make(seed)`` -> inputs, a list of ops;
* ``op_cases(inputs)`` -> the cases each op checks (one, or a sweep's grid);
* ``run(ops)`` -> one output per op of a slice of the inputs (a timed pass
  runs the inputs in slices of ``SEGMENT`` ops; an exception an op raises is
  its output);
* ``reference(inputs)`` -> whatever ``check`` needs, computed once outside
  the timed passes;
* ``check(inputs, ref, outputs)`` -> one status per case: ``OK``, ``ERROR``
  (the op raised) or ``WRONG`` (the output disagrees with the reference);
* ``kernel_args(inputs)`` -> ``(kernel, degree, x)`` triples whose direct
  kernel calls time the Bernoulli layer in the traced run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import oracle

OK, ERROR, WRONG = "ok", "error", "wrong"

# Filled by ``bind`` with the imported ``dedsums`` modules; calls go through
# module attributes so the traced run can wrap them.
dd = None


def bind(modules) -> None:
    global dd
    dd = modules


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _balanced(rng, count: int, values) -> list:
    """``count`` draws in which every value appears equally often, shuffled."""
    values = list(values)
    out = (values * (count // len(values) + 1))[:count]
    rng.shuffle(out)
    return out


def _literal(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return exc


def _report_ok(out, identity: str, params: dict) -> str:
    if isinstance(out, Exception):
        return ERROR
    if out.case.identity != identity or out.case.params_dict() != params:
        return WRONG
    if not out.passed or out.residual != 0 or out.lhs - out.rhs != 0:
        return WRONG
    return OK


class Workload:
    SEGMENT = 1

    def op_cases(self, inputs) -> list[int]:
        """Cases each op of a pass checks."""
        return [1] * len(inputs)

    def cases(self, inputs) -> int:
        return sum(self.op_cases(inputs))

    def kernel_args(self, inputs) -> list:
        return []


# ---------------------------------------------------------------------------
# identity-grid
# ---------------------------------------------------------------------------

class IdentityGrid(Workload):
    """Seeded run_case checks of the product formulas and three-modulus laws."""

    name = "identity-grid"
    IDENTITIES = ("thm31", "thm33", "cor32", "cor34", "thm41", "thm44")
    PER_IDENTITY = 576          # divisible by 16 and by 9, the order pairs per base
    SAMPLE_EVERY = 4            # LHS recomputed from scratch on every 4th case
    SEGMENT = 576               # cases timed between two probes

    def make(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        # As in acceptance criteria 7-10, each base tuple of moduli and shifts
        # runs every order pair under both laws of its group, so lattice sums
        # recur between cases.  Modulus sizes and shift denominators are
        # spread evenly over the bases, which keeps the work per pass alike
        # across seeds.
        blocks = []
        for group in (("thm31", "thm33"), ("cor32", "cor34"), ("thm41", "thm44")):
            three = group[0] == "thm41"
            orders = list(itertools.product(range(1, 4 if three else 5), repeat=2))
            bases = self.PER_IDENTITY // len(orders)
            moduli = ("a", "b", "c") if three else ("a", "b")
            shifts = ("x", "y") if group[0] == "cor32" else ("x", "y", "z")
            mags = {name: _balanced(rng, bases, range(1, 10)) for name in moduli}
            dens = {name: _balanced(rng, bases, range(1, 10)) for name in shifts}
            for i in range(bases):
                base = {name: rng.choice((-1, 1)) * mags[name][i] for name in moduli}
                for name in shifts:
                    d = dens[name][i]
                    base[name] = Fraction(rng.choice([v for v in range(1 - d, d)
                                                      if math.gcd(v, d) == 1]), d)
                for ident in group:
                    blocks.append([(ident, {"m": m, "n": n, **base}) for m, n in orders])
        rng.shuffle(blocks)
        return [case for block in blocks for case in block]

    def run(self, inputs) -> list:
        run_case = dd.reciprocity.run_case
        return [_call(run_case, ident, params) for ident, params in inputs]

    def reference(self, inputs) -> dict:
        ref = {}
        for i, (ident, p) in enumerate(inputs):
            lhs = oracle.lhs(ident, p) if i % self.SAMPLE_EVERY == 0 else None
            counter = None
            if ident in ("thm41", "thm44"):
                counter = oracle.ladder_count(p["a"], p["b"], p["c"], p["x"], p["y"], p["z"])
            ref[i] = (lhs, counter)
        return ref

    def check(self, inputs, ref, outputs) -> list:
        status = []
        for i, ((ident, params), out) in enumerate(zip(inputs, outputs)):
            s = _report_ok(out, ident, params)
            lhs, counter = ref[i]
            if s == OK and ((lhs is not None and out.lhs != lhs) or out.counter != counter):
                s = WRONG
            status.append(s)
        return status

    def kernel_args(self, inputs) -> list:
        args = []
        for ident, p in inputs[::self.SAMPLE_EVERY]:
            m, n, a, b, x, y = p["m"], p["n"], p["a"], p["b"], p["x"], p["y"]
            if ident in ("thm31", "thm33"):
                args += [("periodic", m, a * x + y), ("periodic", n, b * x + p["z"])]
            elif ident in ("cor32", "cor34"):
                for r in range(1, abs(b) + 1):
                    u = (r + y) / b
                    args += [("periodic", m, a * u + x), ("periodic", n, u)]
            else:
                c, z = p["c"], p["z"]
                for r in range(1, abs(c) + 1):
                    u = (r + z) / c
                    args += [("periodic", m, a * u - x), ("periodic", n, b * u - y)]
        return args


# ---------------------------------------------------------------------------
# big-modulus
# ---------------------------------------------------------------------------

class BigModulus(Workload):
    """Direct sums and identity checks with one modulus in [10^4, 1.4*10^4]."""

    name = "big-modulus"
    LOW = 10_000
    PAIR_SUM = 24_000           # the two large moduli of a pair always add up to this

    def _pair(self, rng, a1: int, a2: int) -> tuple[int, int]:
        """Large moduli coprime to a1 and a2, so every kernel argument is distinct."""
        m1 = self.LOW + rng.randrange(self.PAIR_SUM - 2 * self.LOW + 1)
        m2 = self.PAIR_SUM - m1
        step = -1 if m1 > m2 else 1
        while math.gcd(m1, a1) != 1 or math.gcd(m2, a2) != 1:
            m1, m2 = m1 + step, m2 - step
        return m1, m2

    def make(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        small = [rng.randint(2, 9) for _ in range(4)]
        signed = [rng.choice((-1, 1)) * rng.randint(2, 9) for _ in range(4)]
        sh = [_rational(rng) for _ in range(10)]
        m1, m2 = self._pair(rng, small[0], small[1])
        m3, m4 = self._pair(rng, small[2], small[3])
        m5, m6 = self._pair(rng, signed[0] * signed[1], signed[2] * signed[3])
        # Each pair runs the same kernel degrees, so its cost depends on the
        # fixed pair sum only.
        return [
            ("classical_s", (small[0], m1)),
            ("dedekind", {"a": small[1], "b": m2}),
            ("carlitz_s", (3, small[2], m3, sh[0], sh[1])),
            ("carlitz", {"n": 3, "a": small[3], "b": m4, "x": sh[2], "y": sh[3]}),
            ("hwz_s", (2, 3, signed[0], signed[1], m5, sh[4], sh[5], sh[6])),
            ("thm41", {"m": 2, "n": 3, "a": signed[2], "b": signed[3], "c": m6,
                       "x": sh[7], "y": sh[8], "z": sh[9]}),
        ]

    def run(self, inputs) -> list:
        out = []
        for op, args in inputs:
            if isinstance(args, dict):
                out.append(_call(dd.reciprocity.run_case, op, args))
            else:
                out.append(_call(getattr(dd.sums, op), *args))
        return out

    def reference(self, inputs) -> list:
        ref = []
        for op, args in inputs:
            if op == "classical_s":
                ref.append(oracle.dedekind_sum(*args))
            elif op == "carlitz_s":
                ref.append(oracle.carlitz(*args))
            elif op == "hwz_s":
                ref.append(oracle.hwz(*args))
            elif op == "thm41":
                p = args
                ref.append(oracle.ladder_count(p["a"], p["b"], p["c"], p["x"], p["y"], p["z"]))
            else:
                ref.append(None)
        return ref

    def check(self, inputs, ref, outputs) -> list:
        status = []
        for (op, args), expected, out in zip(inputs, ref, outputs):
            if isinstance(out, Exception):
                status.append(ERROR)
            elif isinstance(args, dict):
                # The other side of each law sums over moduli below 10 only,
                # so a zero residual certifies the large-modulus sum.
                s = _report_ok(out, op, args)
                if s == OK and op == "thm41" and out.counter != expected:
                    s = WRONG
                status.append(s)
            else:
                status.append(OK if out == expected else WRONG)
        return status

    def kernel_args(self, inputs) -> list:
        args = []
        for op, a in inputs:
            if op == "hwz_s":
                m, n, ta, tb, c, x, y, z = a
                for r in range(1, abs(c) + 1):
                    u = (r + z) / c
                    args += [("periodic", m, ta * u - x), ("periodic", n, tb * u - y)]
            elif op == "carlitz_s":
                n, ta, b, x, y = a
                for r in range(1, abs(b) + 1):
                    u = (r + y) / b
                    args += [("raw", 1, u), ("raw", n, ta * u + x)]
        return args


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------

class CliSweep(Workload):
    """In-process ``dedsums sweep`` over explicit grids of cheap identities."""

    name = "cli-sweep"
    SEGMENT = 2
    # Declared parameter order of each swept identity (the grid order).
    ORDER = {
        "dedekind": ("a", "b"),
        "eq319": ("a", "b", "x", "y"),
        "cor42": ("n", "a", "b", "x", "y"),
        "berndt": ("a", "b", "c", "x", "y", "z"),
        "apostol": ("n", "a", "b"),
        "cor43": ("p", "r", "a", "b", "c"),
    }

    @staticmethod
    def _moduli(rng, k: int) -> list[int]:
        # Pairs (v, 10 - v), plus 5 for odd k: the list always sums to 5k.
        half = rng.sample([1, 2, 3, 4], k // 2)
        vals = half + [10 - v for v in half] + ([5] if k % 2 else [])
        rng.shuffle(vals)
        return vals

    @staticmethod
    def _shifts(rng, k: int) -> list[Fraction]:
        vals: list[Fraction] = []
        while len(vals) < k:
            v = _rational(rng)
            if v not in vals:
                vals.append(v)
        return vals

    @staticmethod
    def _coprime(rng, a: int, k: int, top: int) -> list[int]:
        return rng.sample([v for v in range(1, top + 1) if math.gcd(v, a) == 1], k)

    def make(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        grids = []
        for _ in range(2):
            a0 = rng.randint(2, 9)
            grids.append(("dedekind", {"a": [a0], "b": self._coprime(rng, a0, 8, 29)}))
            grids.append(("eq319", {"a": self._moduli(rng, 4), "b": self._moduli(rng, 4),
                                    "x": self._shifts(rng, 3), "y": self._shifts(rng, 3)}))
            grids.append(("cor42", {"n": [0, 1, 2, 3], "a": self._moduli(rng, 3),
                                    "b": self._moduli(rng, 3),
                                    "x": self._shifts(rng, 2), "y": self._shifts(rng, 2)}))
            grids.append(("berndt", {"a": self._moduli(rng, 3), "b": self._moduli(rng, 3),
                                     "c": self._moduli(rng, 3), "x": self._shifts(rng, 2),
                                     "y": self._shifts(rng, 2), "z": self._shifts(rng, 2)}))
            a0 = rng.randint(2, 9)
            grids.append(("apostol", {"n": [1, 3, 5], "a": [a0],
                                      "b": self._coprime(rng, a0, 8, 29)}))
        for p in (3, 5):
            grids.append(("cor43", {"p": [p], "r": list(range(p)), "a": self._moduli(rng, 3),
                                    "b": self._moduli(rng, 3), "c": self._moduli(rng, 3)}))
        calls = []
        for ident, grid in grids:
            names = self.ORDER[ident]
            argv = ["sweep", ident]
            for name in names:
                argv += [f"-{name}", ",".join(_literal(v) for v in grid[name])]
            expected = [dict(zip(names, combo))
                        for combo in itertools.product(*(grid[n] for n in names))]
            calls.append((ident, argv, expected))
        return calls

    def op_cases(self, inputs) -> list[int]:
        return [len(expected) for _, _, expected in inputs]

    def run(self, inputs, workers: int = 1) -> list:
        out = []
        for _, argv, _ in inputs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = _call(dd.cli.main, argv + ["--workers", str(workers)])
            out.append((rc, buf.getvalue()))
        return out

    def reference(self, inputs) -> None:
        return None

    def check(self, inputs, ref, outputs) -> list:
        status = []
        for (ident, _, expected), (rc, text) in zip(inputs, outputs):
            if isinstance(rc, Exception):
                status += [ERROR] * len(expected)
                continue
            lines = text.splitlines()
            summary = {"cases": len(expected), "passes": len(expected),
                       "failures": 0, "invalid": 0}
            if rc != 0 or len(lines) != len(expected) + 1 or \
                    json.loads(lines[-1]) != summary:
                status += [WRONG] * len(expected)
                continue
            for line, params in zip(lines, expected):
                rec = json.loads(line)
                want = {k: (v if isinstance(v, int) else _literal(v)) for k, v in params.items()}
                ok = (rec.get("identity") == ident and rec.get("params") == want
                      and rec.get("pass") is True and rec.get("residual") == "0")
                status.append(OK if ok else WRONG)
        return status



# ---------------------------------------------------------------------------
# analytic-tails
# ---------------------------------------------------------------------------

class AnalyticTails(Workload):
    """Floating-point truncation checks with K from 10^4 to 10^6.

    Orders stay where the reported tolerance exceeds float rounding on every
    input: zeta_even at j = 1, fourier at n <= 3, lemma24/lemma27 at j = 2.
    Above those, a check can fail on rounding alone for some seeds (see the
    README), so it cannot be part of a workload whose failures must repeat.
    """

    name = "analytic-tails"
    LOW = 10_000
    # zeta_even sums through a generator, so its seeded K pair (always adding
    # up to ZETA_PAIR_SUM) leaves memory alone.  The other checks hold lists
    # of 2K+1 terms, so their K are fixed: the peak memory is then the same
    # for every seed, and so is the work.
    ZETA_PAIR_SUM = 1_010_000
    FIXED_K = {"fourier": (10_000, 200_000), "lemma24": (20_000, 200_000),
               "lemma27": (50_000, 250_000)}

    def make(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")

        def ratio():
            b = rng.randint(2, 9)
            r = rng.choice([v for v in range(-9, 10) if v % b])
            return b, r

        def phase():
            q = rng.randint(2, 9)
            return Fraction(rng.choice([v for v in range(-9, 10) if v % q]), q)

        k1 = self.LOW + rng.randrange(self.ZETA_PAIR_SUM - 2 * self.LOW + 1)
        ops = [("zeta_even", (1, k1)), ("zeta_even", (1, self.ZETA_PAIR_SUM - k1))]
        ops += [("fourier", (rng.randint(2, 3), phase(), K)) for K in self.FIXED_K["fourier"]]
        ops += [("lemma24", (2, *ratio(), K)) for K in self.FIXED_K["lemma24"]]
        ops += [("lemma27", (2, *ratio(), phase(), K)) for K in self.FIXED_K["lemma27"]]
        return ops

    FUNCTIONS = {"zeta_even": "zeta_even_check", "fourier": "fourier_partial",
                 "lemma24": "lemma24_check", "lemma27": "lemma27_check"}

    def run(self, inputs) -> list:
        an = dd.analytic
        return [_call(getattr(an, self.FUNCTIONS[op]), *args) for op, args in inputs]

    @staticmethod
    def terms(op: str, args) -> int:
        """Series terms one check adds up."""
        K = args[-1]
        return K if op in ("zeta_even", "fourier") else 2 * K + 1

    def reference(self, inputs) -> list:
        """(reference, tail, rounding allowance) per check, all from mpmath."""
        ref = []
        for op, args in inputs:
            if op == "zeta_even":
                j, K = args
                ref.append((oracle.zeta_even(j), oracle.zeta_tail(2 * j, K), 1e-13))
            elif op == "fourier":
                n, x, K = args
                ref.append((oracle.bernoulli_float(n, x), oracle.fourier_tail(n, x, K), 1e-13))
            else:
                j, b, r = args[:3]
                x = args[3] if op == "lemma27" else Fraction(0)
                K = args[-1]
                alpha = Fraction(r, b)
                full = oracle.bilateral_full(j, alpha, x)
                tail = oracle.bilateral_tail(j, alpha, x, K)
                # Float rounding of the partial sum scales with its largest
                # terms, those of the two d nearest the pole at -alpha.
                t = alpha - (alpha.numerator // alpha.denominator)
                size = float(min(t, 1 - t)) ** -j + 2.0 ** j + 4.0
                if op == "lemma24":
                    ref.append((full.real, tail.real, 1e-13 * size))
                else:
                    ref.append((full, tail, 1e-13 * size))
        return ref

    def check(self, inputs, ref, outputs) -> list:
        status = []
        for (op, _), (want, tail, slack), out in zip(inputs, ref, outputs):
            if isinstance(out, Exception):
                status.append(ERROR)
                continue
            if isinstance(want, complex):
                got = complex(*out.reference)
                ref_err = max(abs(got.real - want.real), abs(got.imag - want.imag))
                true_err = max(abs(tail.real), abs(tail.imag))
            else:
                ref_err = abs(out.reference - want)
                true_err = abs(tail)
            ok = (out.passed and ref_err <= 1e-12 * max(1.0, abs(want))
                  and abs(out.abs_error - true_err) <= slack)
            status.append(OK if ok else WRONG)
        return status


WORKLOADS = {w.name: w for w in (IdentityGrid(), BigModulus(), CliSweep(), AnalyticTails())}
