#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, alternated.

    python3 perfbench/steady.py --workload trace_stream --runs 10
    python3 perfbench/steady.py --workload all

For each seed 1..runs it runs the workload once for set A and once for set
B, alternating which set goes first, with run_seconds from BENCHMARK.json.
It prints each run's operations attempted and failed, then for every
end-to-end metric each set's median, quartiles and spread (interquartile
distance over the median, as statistics.quantiles(values, n=4) gives
them). The sets agree when every spread is within its metric's bound, the
two medians differ by at most the bound (either way), and every run has
the same share of failed operations. Exit status 0 when they agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = ("A", "B")


def run_once(spec, workload, seed):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def check_workload(spec, workload, runs):
    results = {s: [] for s in SETS}
    for i, seed in enumerate(range(1, runs + 1)):
        for s in SETS if i % 2 == 0 else reversed(SETS):
            result = run_once(spec, workload, seed)
            results[s].append(result)
            print(f"{workload} set {s} seed {seed}: attempted "
                  f"{result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}", flush=True)
    everything = results["A"] + results["B"]
    shares = {r["failed"] / r["attempted"] for r in everything}
    ok = len(shares) == 1 and all(r["correct"] for r in everything)
    if not ok:
        print(f"  failed shares {sorted(shares)} or an incorrect run")
    print(f"{'metric':18} {'set':3} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = {}
        for s in SETS:
            values = [r["metrics"][name]["value"] for r in results[s]]
            q1, q2, q3, spread = summary(values)
            medians[s] = q2
            if spread > bound:
                verdict, ok = "SPREAD", False
            elif spread > bound / 3:
                verdict = "ok (spread above a third of the bound)"
            else:
                verdict = "ok"
            print(f"{name:18} {s:3} {q1:12.5g} {q2:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound:6.3f}  {verdict}")
        a, b = medians["A"], medians["B"]
        change = (b - a) / a
        agree = abs(change) <= bound
        ok &= agree
        print(f"{name:18} B vs A: {100 * change:+.2f}% "
              f"({'ok' if agree else 'DISAGREE'})")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per set (default 10)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        ok &= check_workload(spec, workload, args.runs)
    print("sets agree within the bounds" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
