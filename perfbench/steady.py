"""Steadiness mode: run each workload several times in fresh interpreters.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--save FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

Each run is ``perfbench/run.py --trace 0`` with its own seed, on every
workload of ``BENCHMARK.json`` for its ``run_seconds``.  For every
workload and end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  ``cases_per_s`` is the
raw throughput and ``ref_cases_per_s`` the probe-scaled one; ``probe_s`` is
the reference probe's own time.  ``setup_raw_s`` is the raw set-up time and
``setup_s`` the probe-scaled one; ``setup_probe_s`` is the set-up probe's time.  ``--compare`` sets two saved summaries side
by side and shows by how much the second median is worse than the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def spec() -> dict:
    return load(os.path.join(ROOT, "BENCHMARK.json"))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False, cwd=ROOT)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("perfbench-detail "))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    values["cases_per_s"], units["cases_per_s"] = detail["cases_per_s"], "1/s"
    for name in ("probe_s", "setup_raw_s", "setup_probe_s"):
        values[name], units[name] = detail[name], "s"
    return {"seed": seed, "wall_s": wall, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"], "values": values,
            "units": units}


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", default=None, help="write the summary as JSON here")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    bench = spec()
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    if args.compare:
        first, second = (load(path) for path in args.compare)
        print(f"{'workload':16} {'metric':16} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
        for wl, metrics in first["summary"].items():
            for name, a in metrics.items():
                b = second["summary"][wl][name]
                lower = bounds.get(name, {}).get("better", "lower") == "lower"
                worse = (b["median"] - a["median"]) / a["median"] * (1 if lower else -1)
                bound = bounds.get(name, {}).get("bound")
                print(f"{wl:16} {name:16} {a['median']:12.5g} {b['median']:12.5g} "
                      f"{worse:+9.3%} {'' if bound is None else bound:>6}")
        return 0

    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs, summary = {}, {}
    for wl in names:
        runs[wl] = [one_run(wl, args.first_seed + i, seconds) for i in range(args.runs)]
        metrics = runs[wl][0]["values"]
        summary[wl] = {m: summarise([r["values"][m] for r in runs[wl]]) for m in metrics}
        attempted = sum(r["attempted"] for r in runs[wl])
        failed = sum(r["failed"] for r in runs[wl])
        shares = sorted({r["failed"] / r["attempted"] for r in runs[wl]})
        print(f"{wl}: {args.runs} runs, attempted {attempted}, failed {failed} "
              f"(share per run {shares}), correct {all(r['correct'] for r in runs[wl])}, "
              f"wall {statistics.median(r['wall_s'] for r in runs[wl]):.1f} s/run")
        units = runs[wl][0]["units"]
        for m, s in summary[wl].items():
            bound = bounds.get(m, {}).get("bound")
            flag = "" if bound is None else ("ok" if s["spread"] <= bound / 3 else
                                             "within bound" if s["spread"] <= bound else "WIDE")
            print(f"  {m:16} {units[m]:4} median {s['median']:12.5g}  q1 {s['q1']:12.5g}"
                  f"  q3 {s['q3']:12.5g}  spread {s['spread']:7.2%}  {flag}")
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"python": sys.version.split()[0], "nproc": os.cpu_count(),
                       "seconds": seconds, "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
