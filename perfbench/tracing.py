"""Spans around the calls into each layer, recorded from the benchmark's side.

The traced run replaces the program's entry points, as the calling module
sees them, with wrappers that record a span (name, start, end, parent span,
case id, pass, lattice terms) in memory:

* the sum families in ``reciprocity``'s namespace (and in ``sums``, for the
  benchmark's own direct calls) -> layer ``sums``;
* ``run_case`` and every checker in ``IDENTITIES`` -> layer ``reciprocity``;
* ``cli.main``, ``cli.build_parser``, ``cli._cmd_sweep`` and
  ``SweepSpec.cases`` -> layer ``cli``;
* the four analytic checks -> layer ``analytic``.

The kernels (``bernoulli``) and ``exact`` are not wrapped: a wrapper on the
innermost loop would swamp what it measures, so their time counts in the
self time of the layer that calls them, and the kernel cost is timed apart
with direct calls.  A layer's self time is the time of its spans minus the
time their child spans cover.
"""

from __future__ import annotations

import dataclasses
import json
import time

FAMILIES = {
    # family -> index of the argument that sets the summation range
    "classical_s": 1, "rademacher_s": 1, "berndt_s": 2, "apostol_s": 2,
    "carlitz_s": 2, "hwz_s": 4, "s_mn_two": 3, "s_n_two": 2, "s_mn_plain": 4,
    "count_ladder": 2,
}
ANALYTIC = {"zeta_even_check": "zeta_even", "fourier_partial": "fourier",
            "lemma24_check": "lemma24", "lemma27_check": "lemma27"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.case = -1
        self.pass_index = -1
        self._patches: list = []

    def _record(self, name: str, fn, range_arg=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        cache_info = getattr(fn, "cache_info", None) if range_arg is not None else None

        def traced(*args, **kwargs):
            if not stack:
                self.case += 1
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                # A sum walks its range only when its memo misses.
                terms = 0
                if range_arg is not None and (not cache_info or cache_info().misses > misses):
                    terms = abs(args[range_arg])
                spans[idx] = (name, t0, t1, parent, self.case, self.pass_index, terms)

        traced.__wrapped__ = fn
        # The program's clear functions call cache_clear on these names.
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, dd) -> None:
        for fam, pos in FAMILIES.items():
            for module in (dd.reciprocity, dd.sums):
                self._patch(module, fam, self._record(f"sums.{fam}", getattr(module, fam), pos))
        wrapped_run_case = self._record("reciprocity.run_case", dd.reciprocity.run_case)
        self._patch(dd.reciprocity, "run_case", wrapped_run_case)
        self._patch(dd.cli, "run_case", wrapped_run_case)
        for name, spec in list(dd.reciprocity.IDENTITIES.items()):
            new = dataclasses.replace(spec, fn=self._record(f"reciprocity.{name}", spec.fn))
            self._patches.append((dd.reciprocity.IDENTITIES, name, spec))
            dd.reciprocity.IDENTITIES[name] = new
        self._patch(dd.cli, "main", self._record("cli.main", dd.cli.main))
        self._patch(dd.cli, "build_parser", self._record("cli.build_parser", dd.cli.build_parser))
        self._patch(dd.cli, "_cmd_sweep", self._record("cli.sweep", dd.cli._cmd_sweep))
        self._patch(dd.cli.SweepSpec, "cases",
                    self._record("cli.enumerate", dd.cli.SweepSpec.cases))
        for fn, target in ANALYTIC.items():
            self._patch(dd.analytic, fn, self._record(f"analytic.{target}",
                                                      getattr(dd.analytic, fn)))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end (s), parent, case, pass, terms."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_times(spans, passes) -> tuple[dict, dict]:
    """Per pass: {span name: self seconds} and {span name: [(seconds, terms)]}."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    self_s = {p: {} for p in passes}
    durations = {p: {} for p in passes}
    for i, s in enumerate(spans):
        if s[5] not in self_s:
            continue
        self_s[s[5]][s[0]] = self_s[s[5]].get(s[0], 0.0) + (s[2] - s[1] - child_time[i])
        durations[s[5]].setdefault(s[0], []).append((s[2] - s[1], s[6]))
    return self_s, durations
