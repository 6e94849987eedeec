#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, started apart in time.

Usage, from the root of a checkout:

    python3 bench/steadiness.py

Each of two sets runs every workload of BENCHMARK.json RUNS times, one run
at a time, seed-major (seed 1 of every workload, then seed 2, ...), so each
workload samples the whole set.  The first set uses seeds 1..RUNS, the
second RUNS+1..2*RUNS, after GAP_S seconds of idle.  For each workload
and end-to-end metric it prints both medians, their quartiles, the spread
(interquartile distance over the median), the shift of the second median
in the worse direction, and the metric's bound; and the failed share of
each set.  All results are also written to ``.bench_out/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 10
GAP_S = 300


def run_set(bench, seeds):
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.time()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["wall_s"] = time.time() - start
            results[w].append(res)
            print(f"  {w} seed {seed}: {res['wall_s']:.0f} s, correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
    return results


def summarize(bench, sets):
    rows = []
    for w in sets[0]:
        shares = [sorted({r["failed"] / r["attempted"] for r in s[w]}) for s in sets]
        correct = all(r["correct"] for s in sets for r in s[w])
        print(f"{w}: correct={correct} failed share per set {shares}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s[w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                stats.append({"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med})
            line = f"  {name:18s} bound {bound:.2f}"
            for st in stats:
                line += (f" | median {st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}]"
                         f" spread {st['spread']:.3f}")
            a, b = stats[0]["median"], stats[1]["median"]
            shift = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            line += f" | worse by {shift:+.3f}"
            print(line)
            rows.append({"workload": w, "metric": name, "bound": bound, "sets": stats,
                         "shift": shift, "failed_shares": shares, "correct": correct})
    return rows


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    sets = []
    for k in range(2):
        if k:
            print(f"idle for {GAP_S} s", flush=True)
            time.sleep(GAP_S)
        print(f"set {k + 1} started {time.strftime('%H:%M:%S')}", flush=True)
        sets.append(run_set(bench, range(k * RUNS + 1, (k + 1) * RUNS + 1)))
    rows = summarize(bench, sets)
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps({"rows": rows, "sets": sets}, indent=1),
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
