#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and print each metric's spread.

Run from the root of a repro checkout::

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --workload serve-mix --runs 5 --first-seed 100

Each run uses another seed.  For every end-to-end metric the tool
prints the median, the quartiles and the spread — the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median — against the metric's bound in
BENCHMARK.json.  A metric is flagged ``OVER`` when its spread exceeds
its bound, and ``NOISY`` when it does not repeat within a tenth.  The exit code is 1 if any run failed or any metric is
``OVER``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}"
        )
    return json.loads(lines[-1])


def spread(values: list) -> tuple[float, float, float, float]:
    """``(median, first quartile, third quartile, IQR / median)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / abs(middle) if middle else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open("BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = args.workload or [entry["name"] for entry in benchmark["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}

    status = 0
    for workload in workloads:
        results = []
        for index in range(args.runs):
            seed = args.first_seed + index
            result = run_once(workload, seed, seconds)
            results.append(result)
            if not result["correct"] or result["failed"]:
                status = 1
            print(f"{workload} seed {seed}: failed {result['failed']} of "
                  f"{result['attempted']}", flush=True)
        print(f"\n{workload}: {args.runs} runs of {seconds:g} s")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in results]
            middle, q1, q3, share = spread(values)
            flag = ""
            if share > bound:
                flag, status = "OVER", 1
            elif share > 0.1:
                flag = "NOISY"
            elif share > bound / 3:
                flag = "above a third of bound"
            print(f"  {name:<34} {middle:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{100 * share:7.2f}% {bound:>6g} {flag}")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
