#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 crates/bench/perfbench/spread.py --workload failover --seeds 1-10

For every metric it prints the median and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the bound BENCHMARK.json gives it. Runs one seed at a time
from the repository root, with the same command line the benchmark
declares.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="also print every value")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    # Build where the benchmark's own runs build, unless told otherwise.
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        began = time.monotonic()
        out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        took = time.monotonic() - began
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, v in result["metrics"].items():
            values.setdefault(name, []).append(v["value"])
        print(f"seed {seed}: ok in {took:.1f} s", file=sys.stderr)

    print(f"{'metric':<26} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:<26} {med:>14.4f} {spread:>11.4f} {bound if bound is not None else '-':>6}{flag}")
        if args.values:
            print("    " + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main()
