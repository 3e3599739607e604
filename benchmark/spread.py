#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the acceptance
harness measures it: N runs per workload, each with another --seed; the
spread of a metric is (Q3 - Q1) / median over its N values, with
statistics.quantiles(values, n=4).

    python3 benchmark/spread.py [--runs 10] [--first-seed 100] [--binary PATH]

Reads BENCHMARK.json for the workloads, metrics, bounds and run length.
Prints one row per workload x metric and exits 1 if a spread (setup_s
excepted) reaches a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--binary", help="a built layerbench; default: BENCHMARK.json's command")
    ap.add_argument("--workload", action="append", help="only these workloads")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = [args.binary] if args.binary else spec["command"]
    bad = False
    for w in spec["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            cmd = command + [
                "--workload", name, "--seed", str(args.first_seed + i),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{name}: exit {out.returncode}\n{out.stderr}")
            line = json.loads(out.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{name} seed {args.first_seed + i}: {line}")
            for k in values:
                values[k].append(line["metrics"][k]["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            flag = ""
            if spread >= limit and m["name"] != "setup_s":
                flag = "  <-- above a third of the bound"
                bad = True
            print(f"{name:12} {m['name']:12} median {med:16.6f} {m['unit']:4} "
                  f"spread {100 * spread:6.2f} %  (bound {100 * m['bound']:.0f} %){flag}",
                  flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
