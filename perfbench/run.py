"""Benchmark command for dedsums.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the ``dedsums`` sources under ``src/`` of the
checkout this file sits in, checks every output against a computation made
apart from the program, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Spans of a traced run are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
HASH_SEED = "0"
SETUP_STARTS = 16           # fresh interpreters timed for setup_s before and after the passes
MIN_PASSES = 3              # the first pass of a run is discarded

E2E_UNITS = {"setup_s": "s", "ref_cases_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "bernoulli.kernel_warm_ns": "ns/call", "bernoulli.kernel_cold_ns": "ns/call",
    "bernoulli.memo_entries": "count", "bernoulli.memo_hit_ratio": "ratio",
    "sums.busy_s": "s/pass", "sums.terms_per_s": "1/s", "sums.calls": "count",
    "sums.hit_ratio": "ratio", "reciprocity.self_s": "s/pass",
    **{f"reciprocity.{i}.case_us": "us"
       for i in ("thm31", "thm33", "cor32", "cor34", "thm41", "thm44")},
    "reciprocity.inner_pair_hit_ratio": "ratio",
    "cli.build_parser_s": "s", "cli.enumerate_us": "us/case", "cli.render_us": "us/case",
    "cli.pool_w2_cases_per_s": "1/s", "analytic.terms_per_s": "1/s",
}
# The workload a per-layer metric comes from when the named one never reaches it.
OWNER = {name: "identity-grid" for name in LAYER_UNITS}
OWNER.update({"bernoulli.kernel_cold_ns": "big-modulus", "bernoulli.memo_entries": "big-modulus",
              "sums.terms_per_s": "big-modulus", "analytic.terms_per_s": "analytic-tails",
              **{n: "cli-sweep" for n in LAYER_UNITS if n.startswith("cli.")}})


def timed_pass(wl, inputs) -> tuple[list, dict]:
    """One pass, timed in segments of ``wl.SEGMENT`` ops with the probe around each.

    The machine's speed drifts on a scale of a second, so each segment's
    time is scaled by the probe times just before and just after it.
    """
    out: list = []
    seconds = nominal = 0.0
    probes = []
    before = probe.probe()
    for i in range(0, len(inputs), wl.SEGMENT):
        t0 = time.perf_counter()
        out += wl.run(inputs[i:i + wl.SEGMENT])
        dt = time.perf_counter() - t0
        after = probe.probe()
        speed = (before + after) / 2
        seconds += dt
        nominal += dt * probe.NOMINAL_S / speed
        probes.append(speed)
        before = after
    return out, {"seconds": seconds, "nominal_s": nominal, "probe_s": statistics.median(probes)}


def setup_starts(workload: str, starts: int) -> list[dict]:
    """``starts`` fresh interpreters, each timing its own import and the probe.

    The starts keep their bytecode in a cache of the benchmark's own, written
    even where the environment turns bytecode writing off, so that after one
    warming start every start reads the same cached bytecode.
    """
    script = os.path.join(HERE, "setup_probe.py")
    cmd = [sys.executable, "-X", f"pycache_prefix={os.path.join(RESULTS, 'pycache')}",
           script, SRC, workload]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = []
    for _ in range(starts):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=False,
                              env=env)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed: {done.stderr.strip()}")
        out.append(json.loads(done.stdout))
    return out


def load():
    sys.path.insert(0, SRC)
    import dedsums  # noqa: F401
    from dedsums import analytic, bernoulli, cli, reciprocity, sums
    if not os.path.abspath(dedsums.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: dedsums imported from {dedsums.__file__}, not {SRC}")
    return types.SimpleNamespace(analytic=analytic, bernoulli=bernoulli, cli=cli,
                                 reciprocity=reciprocity, sums=sums)


def clear_caches(dd) -> None:
    dd.sums.clear_caches()
    dd.reciprocity.clear_caches()
    dd.bernoulli.clear_eval_cache()


class Tally:
    def __init__(self) -> None:
        self.attempted = self.errors = self.wrong = 0

    def add(self, status: list) -> None:
        self.attempted += len(status)
        self.errors += status.count(workloads.ERROR)
        self.wrong += status.count(workloads.WRONG)

    def counts(self) -> dict:
        return {"attempted": self.attempted, "failed": self.errors + self.wrong}


def same_as_first(wl, inputs, status, out, first) -> list:
    """Mark WRONG every case of an op whose output differs from the first pass."""
    same = []
    for n, o, f in zip(wl.op_cases(inputs), out, first):
        same += [o == f] * n
    return [workloads.WRONG if s == workloads.OK and not ok else s
            for s, ok in zip(status, same)]


def run_passes(dd, wl, inputs, ref, tally, seconds, min_passes=MIN_PASSES,
               max_passes=None, after_pass=None, first=None):
    """Whole passes from cleared caches until ``seconds`` would be overrun.

    Returns one record per pass and the outputs of the first pass; every
    later pass must reproduce them exactly.
    """
    records = []
    start = time.perf_counter()
    while True:
        clear_caches(dd)
        gc.collect()
        out, record = timed_pass(wl, inputs)
        if after_pass:
            after_pass()
        status = wl.check(inputs, ref, out)
        if first is None:
            first = out
        else:
            status = same_as_first(wl, inputs, status, out, first)
        tally.add(status)
        records.append(record)
        if len(records) >= min_passes and (
                time.perf_counter() - start + record["seconds"] > seconds
                or (max_passes and len(records) >= max_passes)):
            return records, first


def throughput(cases: int, records: list) -> dict:
    raw = [cases / r["seconds"] for r in records]
    scaled = [cases / r["nominal_s"] for r in records]
    return {"cases_per_s": statistics.median(raw), "ref_cases_per_s": statistics.median(scaled),
            "probe_s": statistics.median(r["probe_s"] for r in records)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _ratio(info) -> float | None:
    total = info.hits + info.misses
    return info.hits / total if total else None


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def kernel_ns(dd, wl, inputs) -> tuple[float | None, float | None]:
    """Cold and warm ns per direct kernel call over the workload's own arguments."""
    args = list(dict.fromkeys(wl.kernel_args(inputs)))
    if not args:
        return None, None
    fns = {"periodic": dd.bernoulli.bernoulli_function, "raw": dd.bernoulli.carlitz_kernel}
    calls = [(fns[kind], n, x) for kind, n, x in args]
    clear_caches(dd)
    t0 = time.perf_counter()
    for fn, n, x in calls:
        fn(n, x)
    cold = (time.perf_counter() - t0) / len(calls)
    warm = []
    for _ in range(3):
        t0 = time.perf_counter()
        for fn, n, x in calls:
            fn(n, x)
        warm.append((time.perf_counter() - t0) / len(calls))
    clear_caches(dd)
    return cold * 1e9, statistics.median(warm) * 1e9


def cache_probes(dd) -> dict:
    """``cache_info`` of the memos the per-layer ratios read; a missing one is absent."""
    def info(owner, name):
        return getattr(getattr(owner, name, None), "cache_info", None)
    families = [info(dd.sums, f) for f in tracing.FAMILIES]
    return {"memo": info(dd.bernoulli, "_poly_at_pair"),
            "inner": info(dd.reciprocity, "_inner_pair_sum"),
            "families": [f for f in families if f is not None]}


def traced_layers(dd, wl, inputs, ref, tally, seconds, label: str) -> tuple[dict, float]:
    """Per-layer metrics of one workload, and its tracing overhead in s/pass."""
    cases = wl.cases(inputs)
    base, first = run_passes(dd, wl, inputs, ref, tally, seconds * 0.3, min_passes=2)
    handles = cache_probes(dd)
    stats = []
    tracer = tracing.Tracer()
    tracer.pass_index = 0

    def after_pass():
        memo = handles["memo"]() if handles["memo"] else None
        inner = handles["inner"]() if handles["inner"] else None
        fams = [f() for f in handles["families"]]
        stats.append({
            "memo_entries": memo.currsize if memo else None,
            "memo_hit_ratio": _ratio(memo) if memo else None,
            "inner_ratio": _ratio(inner) if inner else None,
            "sums_hits": sum(f.hits for f in fams),
            "sums_lookups": sum(f.hits + f.misses for f in fams),
        })
        tracer.pass_index += 1

    tracer.install(dd)
    try:
        traced, _ = run_passes(dd, wl, inputs, ref, tally, seconds * 0.6, min_passes=1,
                               max_passes=6, after_pass=after_pass, first=first)
    finally:
        tracer.uninstall()
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"trace-{label}.jsonl"))

    passes = range(len(traced))
    self_by_name, durations = tracing.layer_times(tracer.spans, passes)
    m: dict = {}
    sums_busy = [sum(d for name, ds in durations[p].items() if name.startswith("sums.")
                     for d, _ in ds) for p in passes]
    sums_terms = [sum(t for name, ds in durations[p].items() if name.startswith("sums.")
                      for _, t in ds) for p in passes]
    sums_calls = [sum(len(ds) for name, ds in durations[p].items() if name.startswith("sums."))
                  for p in passes]
    if any(sums_calls):
        m["sums.busy_s"] = statistics.median(sums_busy)
        m["sums.calls"] = statistics.median(sums_calls)
        m["sums.terms_per_s"] = _median(t / b if b else None
                                        for t, b in zip(sums_terms, sums_busy))
        m["sums.hit_ratio"] = _median(s["sums_hits"] / s["sums_lookups"]
                                      if s["sums_lookups"] else None for s in stats)
    recip = [sum(v for k, v in self_by_name[p].items() if k.startswith("reciprocity."))
             for p in passes]
    if any(recip):
        m["reciprocity.self_s"] = statistics.median(recip)
    for ident in ("thm31", "thm33", "cor32", "cor34", "thm41", "thm44"):
        ds = [d for p in passes for d, _ in durations[p].get(f"reciprocity.{ident}", [])]
        if ds:
            m[f"reciprocity.{ident}.case_us"] = statistics.fmean(ds) * 1e6
    m["reciprocity.inner_pair_hit_ratio"] = _median(s["inner_ratio"] for s in stats)
    m["bernoulli.memo_entries"] = max((s["memo_entries"] for s in stats
                                       if s["memo_entries"]), default=None)
    m["bernoulli.memo_hit_ratio"] = _median(s["memo_hit_ratio"] for s in stats)
    parser = [d for p in passes for d, _ in durations[p].get("cli.build_parser", [])]
    if parser:
        total = cases * len(traced)
        m["cli.build_parser_s"] = statistics.median(parser)
        m["cli.enumerate_us"] = sum(d for p in passes for d, _ in
                                    durations[p].get("cli.enumerate", [])) / total * 1e6
        m["cli.render_us"] = sum(self_by_name[p].get("cli.sweep", 0.0)
                                 for p in passes) / total * 1e6
    an = sum(d for p in passes for name, ds in durations[p].items()
             if name.startswith("analytic.") for d, _ in ds)
    if an:
        terms = sum(wl.terms(op, args) for op, args in inputs) * len(traced)
        m["analytic.terms_per_s"] = terms / an
    m["bernoulli.kernel_cold_ns"], m["bernoulli.kernel_warm_ns"] = kernel_ns(dd, wl, inputs)
    if wl.name == "cli-sweep":
        t0 = time.perf_counter()
        out = wl.run(inputs, workers=2)
        dt = time.perf_counter() - t0
        tally.add(same_as_first(wl, inputs, wl.check(inputs, ref, out), out, first))
        m["cli.pool_w2_cases_per_s"] = cases / dt
    overhead = statistics.median(r["seconds"] for r in traced) \
        - statistics.median(r["seconds"] for r in base[1:])
    return {k: v for k, v in m.items() if v is not None}, overhead


# ---------------------------------------------------------------------------

def prepare(dd, name: str, seed: int):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make(seed)
    return wl, inputs, wl.reference(inputs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dedsums", "__init__.py")):
        print(f"perfbench: no dedsums sources under {SRC}", file=sys.stderr)
        return 2
    tally = Tally()
    if args.trace:
        dd = load()
        workloads.bind(dd)
        wl, inputs, ref = prepare(dd, args.workload, args.seed)
        label = f"{args.workload}-s{args.seed}"
        layers, overhead = traced_layers(dd, wl, inputs, ref, tally, args.seconds, label)
        sources = {n: args.workload for n in layers}
        missing = [n for n in LAYER_UNITS if n not in layers and OWNER[n] != args.workload]
        # The owners' passes keep tallies of their own, so the named
        # workload's attempted and failed count only its own cases.
        borrowed = {}
        for owner in dict.fromkeys(OWNER[n] for n in missing):
            owl, oin, oref = prepare(dd, owner, args.seed)
            owner_tally = Tally()
            got, _ = traced_layers(dd, owl, oin, oref, owner_tally, 0.0, f"{label}-{owner}")
            borrowed[owner] = owner_tally.counts()
            for n in missing:
                if OWNER[n] == owner and n in got:
                    layers[n], sources[n] = got[n], owner
        print(f"tracing overhead on {args.workload}: {overhead:+.6f} s/pass "
              "(median traced pass minus median untraced pass)")
        print("perfbench-detail " + json.dumps({"sources": sources, "borrowed": borrowed}))
        metrics = {n: ({"value": layers[n], "unit": u} if n in layers
                       else {"value": None, "unit": u, "absent": True})
                   for n, u in LAYER_UNITS.items()}
    else:
        # One discarded start warms the bytecode cache; the timed starts sit
        # before and after the passes, so they sample the machine at two times.
        # Each start is scaled by its own probe (see setup_probe.py).
        setup_starts(args.workload, 1)
        setup = setup_starts(args.workload, SETUP_STARTS)
        dd = load()
        workloads.bind(dd)
        wl, inputs, ref = prepare(dd, args.workload, args.seed)
        records, _ = run_passes(dd, wl, inputs, ref, tally, args.seconds)
        setup += setup_starts(args.workload, SETUP_STARTS)
        rates = throughput(wl.cases(inputs), records[1:])
        values = {"setup_s": statistics.median(x["scaled_s"] for x in setup),
                  "ref_cases_per_s": rates["ref_cases_per_s"],
                  "peak_rss_mb": peak_rss_mb()}
        # Raw throughput drifts with the machine's speed between runs far more
        # than the probe-scaled one, so it is reported here and not bounded.
        print("perfbench-detail " + json.dumps({
            "workload": args.workload, "seed": args.seed, "cases_per_pass": wl.cases(inputs),
            "cases_per_s": rates["cases_per_s"], "probe_s": rates["probe_s"],
            "probe_nominal_s": probe.NOMINAL_S, "pass_s": [r["seconds"] for r in records],
            "setup_raw_s": statistics.median(x["setup_s"] for x in setup),
            "setup_probe_s": statistics.median(x["probe_s"] for x in setup)}))
        metrics = {n: {"value": values[n], "unit": u} for n, u in E2E_UNITS.items()}
    # An op that raised is as much a fault as one whose output is wrong.
    counts = tally.counts()
    print(json.dumps({"correct": counts["failed"] == 0, **counts, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Every run starts in a fresh interpreter with a fixed hash seed.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, HERE)
    import probe
    import tracing
    import workloads
    sys.exit(main())
