#!/usr/bin/env python3
"""Steadiness check: repeats each workload N times, seeds 1..N, and
prints for every metric the median, the quartiles and the quartile
spread ((q3 - q1) / median) next to the metric's bound.

Run from the repository root:

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads serve-point
    python3 perfbench/steady.py --trace 1 --runs 3    # per-layer metrics

The command, run length (run_seconds), workloads and bounds come from
BENCHMARK.json. Exits 1 if a run fails, is incorrect, or any end-to-end
spread exceeds its bound; spreads above a third of the bound are flagged
as not yet steady.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    specs = bench["per_layer" if args.trace else "end_to_end"]

    steady = True
    for workload in names:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(bench["command"], workload, seed, seconds, args.trace))
            r = results[-1]
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"  {workload} seed {seed}: correct={r['correct']} "
                  f"failed {r['failed']}/{r['attempted']} {values}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n== {workload}: {args.runs} runs, {seconds} s each, correct={correct}, "
              f"failed shares {sorted(shares)} ==")
        print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}  verdict")
        steady &= correct and len(shares) == 1
        for spec in specs:
            name = spec["name"]
            values = [r["metrics"][name]["value"] for r in results]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, 0, mid)
            spread = (q3 - q1) / mid if mid else 0.0
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                if spread > bound:
                    verdict = "OVER BOUND"
                    steady = False
                elif spread > bound / 3:
                    verdict = "above a third of the bound"
                else:
                    verdict = "steady"
            print(f"{name:<34} {mid:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '':>6}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
