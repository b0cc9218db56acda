#!/usr/bin/env python3
"""Compare two result files written by bench/run_all.py.

    python3 bench/compare.py A.json B.json [--same-code]

A is the parent (or the first set of runs), B the change (or the second
set). Prints one row per workload and end-to-end metric: both medians,
the relative change, and a verdict against the metric's bound from
BENCHMARK.json:

    ok          B is not worse than A by more than the bound
    REGRESSION  B is worse than A by more than the bound
    unresolved  the runs of one side spread wider than the bound, so the
                row shows neither a change nor its absence

Exits 1 on a regression or when B fails a larger share of its ops than
A. With --same-code (two sets of runs of one commit) the check is
two-sided - a large change in either direction means the benchmark does
not repeat - and every simulated value must be identical run for run.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Run-to-run spread as a share of the median: the interquartile
    range with four or more runs, the full range with fewer."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(med)
    return (max(values) - min(values)) / abs(med)


def failed_share(entry):
    runs = entry["runs"] + ([entry["traced"]] if "traced" in entry else [])
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def host_dependent(name):
    """Metrics measured on the host clock or the host's memory; every
    other metric is a function of the seed alone."""
    return (
        name in ("setup_s", "host_ns_per_op", "host_peak_rss_mb", "bench.trace_overhead_pct")
        or name.endswith(".host_ns")
        or name.endswith(".host_ns_per_op")
    )


def simulated_differences(name, a, b):
    """(run, metric, value in A, value in B) wherever two sets of runs
    of one commit disagree on a simulated value."""
    out = []
    runs = [(f"seed {r['seed']}", r, s) for r, s in zip(a["runs"], b["runs"])
            if r["seed"] == s["seed"]]
    if "traced" in a and "traced" in b and a["traced"]["seed"] == b["traced"]["seed"]:
        runs.append(("traced", a["traced"], b["traced"]))
    for label, r, s in runs:
        for metric, value in r["metrics"].items():
            if not host_dependent(metric) and s["metrics"].get(metric) != value:
                out.append((f"{name} {label}", metric, value, s["metrics"].get(metric)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--same-code", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(args.a) as f:
        a = json.load(f)["workloads"]
    with open(args.b) as f:
        b = json.load(f)["workloads"]

    bad = 0
    print(f"{'workload':<13} {'metric':<19} {'A median':>14} {'B median':>14} "
          f"{'change':>8} {'bound':>6} {'spread A':>8} {'spread B':>8}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            print(f"{name:<13} missing from one side")
            bad += 1
            continue
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a[name]["runs"]]
            vb = [r["metrics"][m["name"]] for r in b[name]["runs"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            sa, sb = spread(va), spread(vb)
            if max(sa, sb) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"] or (args.same_code and abs(change) > m["bound"]):
                verdict = "REGRESSION" if not args.same_code else "DOES NOT REPEAT"
                bad += 1
            else:
                verdict = "ok"
            print(f"{name:<13} {m['name']:<19} {ma:>14.6g} {mb:>14.6g} "
                  f"{change:>+8.2%} {m['bound']:>6.1%} {sa:>8.2%} {sb:>8.2%}  {verdict}")
        fa, fb = failed_share(a[name]), failed_share(b[name])
        if fb > fa:
            print(f"{name:<13} failed-op share rose from {fa:.6f} to {fb:.6f}")
            bad += 1

    if args.same_code:
        diffs = [d for n in a if n in b for d in simulated_differences(n, a[n], b[n])]
        for where, metric, x, y in diffs:
            print(f"not identical: {where} {metric}: {x} vs {y}")
        print(f"{len(diffs)} simulated values differ between the two sets")
        bad += len(diffs)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
