#!/usr/bin/env python3
"""Run the whole benchmark and collect the result lines into one file.

    python3 bench/run_all.py OUT.json [--seeds 1,2,3] [--seconds N] [--no-trace]

Runs the command from BENCHMARK.json, from the repo root, once per
workload and seed untraced (`--trace 0`, the end-to-end metrics) and
once per workload traced (`--trace 1`, first seed, the per-layer
metrics). `bench/compare.py` compares two such files.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The pinned machine, recorded beside every result (bench/src/workload.rs).
MACHINE = (
    "paper hardware / 8: EPC 11.625 MiB, LLC 1 MiB 16-way, EPC++ 7.5 MiB, "
    "headroom 2 MiB, CAT on for the SUVM workloads, 8 simulated cores, 1 RPC worker"
)


def one_run(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wall_s": round(time.time() - started, 2),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def tool_version(argv):
    try:
        return subprocess.run(argv, stdout=subprocess.PIPE, text=True).stdout.strip()
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--seeds", default="1", help="comma-separated, default 1")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or bench["run_seconds"]
    doc = {
        "meta": {
            "machine": MACHINE,
            "nproc": os.cpu_count(),
            "rustc": tool_version(["rustc", "--version"]),
            "command": bench["command"],
            "seeds": seeds,
            "seconds": seconds,
        },
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        entry = {"runs": []}
        for seed in seeds:
            run = one_run(bench["command"], name, seed, seconds, 0)
            entry["runs"].append(run)
            print(f"{name} seed {seed}: {run['failed']}/{run['attempted']} failed, "
                  f"{run['wall_s']} s", file=sys.stderr)
        if not args.no_trace:
            entry["traced"] = one_run(bench["command"], name, seeds[0], seconds, 1)
            print(f"{name} traced: {entry['traced']['wall_s']} s", file=sys.stderr)
        doc["workloads"][name] = entry
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
