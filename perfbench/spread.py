#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S]

Runs one workload once per seed (first-seed, first-seed+1, ...) and
prints, per end-to-end metric, the median, the quartiles and the
interquartile range as a share of the median (statistics.quantiles,
n=4) next to the metric's regression bound from BENCHMARK.json.

A spread above its bound fails (exit 1): the bound could not tell a
regression from run-to-run noise. A spread above a third of its bound
passes but is marked "thin": the margin is small, and a busier machine
may push it over. setup_s is reported but has no spread requirement.
"""

import argparse
import json
import os
import statistics
import sys

import run

SPREAD_EXEMPT = {"setup_s"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    binary = run.build()
    commit = run.revision()
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        code, stdout = run.run_once(binary, args.workload, seed, seconds, 0,
                                    commit)
        result = run.result_of(stdout)
        if code != 0 or result is None:
            print(f"seed {seed}: FAILED (exit {code})")
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={values[n][-1]:.4g}" for n in bounds), flush=True)

    status = 0
    print(f"\n{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if name in SPREAD_EXEMPT:
            pass
        elif spread > bounds[name]:
            flag = "  WIDE"
            status = 1
        elif spread > bounds[name] / 3:
            flag = "  thin"
        print(f"{name:18s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.4f} {bounds[name]:6.3f}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
