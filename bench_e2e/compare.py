#!/usr/bin/env python3
"""Compare two sets of bench_e2e result files, or check one set's spread.

    # Is set B (a change) a regression or a gain against set A (parent)?
    python3 bench_e2e/compare.py A_DIR B_DIR

    # How steady is one set (e.g. ten seeds of one commit)?
    python3 bench_e2e/compare.py --spread DIR

A set is a directory of untraced result files written by run.py (one
per workload and seed). For each workload x end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles
(statistics.quantiles(values, n=4)) and a verdict:

  regression   B's median is worse than A's by more than the bound
  unresolved   a side's spread (IQR / median) is wider than the bound,
               unless every B run beats every A run
  gain         B wins at least 9 of 10 pairs (runs paired in seed
               order, ties count for neither) and the medians differ
               by more than A's IQR
  same         none of the above

--spread marks a metric "ok" when IQR / median is below a third of its
bound, "wide" when below the bound, and "TOO WIDE" otherwise (setup_s
is listed but exempt). It also checks that every modeled (dram.*)
value of a deterministic workload repeats exactly. The exit code is 1
on any regression, unresolved metric, or spread over its bound.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    """Returns {workload: [result, ...]} of the untraced runs in path."""
    files = sorted(glob.glob(os.path.join(path, "*.json")))
    runs = {}
    for f in files:
        if f.endswith(".trace.json"):
            continue
        with open(f) as fh:
            r = json.load(fh)
        if r.get("schema") != "simdram-bench-e2e-v1" or r["trace"]:
            continue
        runs.setdefault(r["workload"], []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def worse(b, a, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a, b, m):
    bound, better = m["bound"], m["better"]
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    if worse(mb, ma, better) > bound:
        return "regression"
    beats = (lambda x, y: x < y) if better == "lower" else \
        (lambda x, y: x > y)
    if all(beats(x, y) for x in b for y in a):
        return "gain"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if beats(y, x))
    q1a, _, q3a = quartiles(a)
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > q3a - q1a:
        return "gain"
    return "same"


def fmt(vals):
    q1, med, q3 = quartiles(vals)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}]"


def compare(bench, a_runs, b_runs):
    bad = 0
    print(f"{'workload':14} {'metric':18} {'A median [q1, q3]':>38} "
          f"{'B median [q1, q3]':>38} {'B vs A':>8}  verdict")
    for w in sorted(set(a_runs) | set(b_runs)):
        for m in bench["end_to_end"]:
            a = values(a_runs.get(w, []), m["name"])
            b = values(b_runs.get(w, []), m["name"])
            if not a or not b:
                print(f"{w:14} {m['name']:18} missing on one side")
                bad += 1
                continue
            v = verdict(a, b, m)
            d = -worse(quartiles(b)[1], quartiles(a)[1], m["better"])
            print(f"{w:14} {m['name']:18} {fmt(a):>38} {fmt(b):>38} "
                  f"{100 * d:+7.1f}%  {v}")
            bad += v in ("regression", "unresolved")
    return bad


def check_spread(bench, runs):
    bad = 0
    print(f"{'workload':14} {'metric':18} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'IQR/med':>8} {'bound':>6}  status")
    for w in sorted(runs):
        for m in bench["end_to_end"]:
            vals = values(runs[w], m["name"])
            if not vals:
                print(f"{w:14} {m['name']:18} missing")
                bad += 1
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            if m["name"] == "setup_s":
                status = "exempt"
            elif s < m["bound"] / 3:
                status = "ok"
            elif s <= m["bound"]:
                status = "wide"
            else:
                status = "TOO WIDE"
                bad += 1
            print(f"{w:14} {m['name']:18} {len(vals):3} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {100 * s:7.2f}% "
                  f"{100 * m['bound']:5.0f}%  {status}")
        # Modeled numbers of a closed-loop workload repeat exactly.
        dram = sorted(k for k in runs[w][0]["metrics"]
                      if k.startswith("dram.") and k != "dram.jobs_differing")
        if w.startswith("apps"):
            varying = [k for k in dram
                       if len(set(values(runs[w], k))) != 1]
            print(f"{w:14} dram.* identical across {len(runs[w])} runs: "
                  f"{'yes' if not varying else 'NO ' + str(varying)}")
            bad += bool(varying)
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("sets", nargs="+", help="A_DIR B_DIR, or one DIR "
                   "with --spread")
    p.add_argument("--spread", action="store_true")
    p.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    if args.spread:
        if len(args.sets) != 1:
            p.error("--spread takes one set")
        bad = check_spread(bench, load_set(args.sets[0]))
    else:
        if len(args.sets) != 2:
            p.error("give two sets: A_DIR B_DIR")
        bad = compare(bench, load_set(args.sets[0]),
                      load_set(args.sets[1]))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
