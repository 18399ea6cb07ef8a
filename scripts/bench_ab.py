#!/usr/bin/env python3
"""Paired A/B of the benchmark: the merge base against this checkout.

Runs ``perfbench/run.py`` alternately in a checkout of the merge base
(the *base*) and in this checkout (the *change*), ``--pairs`` times per
workload, and judges every end-to-end metric of ``BENCHMARK.json``
(stdlib only, so it runs before anything is installed)::

    python3 scripts/bench_ab.py --workload table1-simd --workload table1-mimd \\
        --pairs 3 --seconds 5
    python3 scripts/bench_ab.py --base-checkout ../parent --workload table1-simd

perfbench imports ``src/repro`` from the checkout it runs in, so an A/B
needs two checkouts.  By default the base is ``git merge-base HEAD
<--base-ref>`` checked out into a temporary ``git worktree`` (removed
at exit); ``--base-checkout DIR`` uses an existing checkout instead.
Each pair runs both sides on the same seed, and the side that runs
first alternates from pair to pair, so a drift of the host's speed
falls on both sides alike.

A workload fails when

* ``correct`` is false, or an operation failed, in any run of either
  side; or
* for some metric, the change's median is worse than the base's by
  more than the metric's ``BENCHMARK.json`` bound *and* the change lost
  most pairs on it (a single noisy pair cannot fail the job, a real
  regression loses nearly every pair).

The exit code is 1 when any workload fails, 2 on a usage or set-up
error.  ``--json FILE`` writes every run and verdict.

Defaults (3 pairs, 5 s windows) keep all four workloads under 15
minutes on a 2-vCPU runner: the four at 3 pairs took 464 s of wall
time on a 2-vCPU container, against an existing base checkout.
With them, unchanged code passed its A/A runs and a VM planted 30 %
slower failed (see CHANGES.md for the runs).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--base-ref", default="origin/main",
                        help="the base is the merge base of HEAD and this ref")
    parser.add_argument("--base-checkout", help="use this checkout as the base")
    parser.add_argument("--json", help="write runs and verdicts to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run; its final JSON line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines:
        return {"correct": False, "failed": -1, "metrics": {},
                "error": (proc.stderr or proc.stdout)[-2000:]}
    return json.loads(lines[-1])


def value(run: dict, metric: str):
    entry = run.get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def judge(metric: dict, base_runs: list, change_runs: list) -> dict:
    """Verdict on one end-to-end metric over paired runs."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [
        (value(b, name), value(c, name)) for b, c in zip(base_runs, change_runs)
    ]
    pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
    if not pairs:
        return {"metric": name, "skipped": "not reported"}
    base = statistics.median(b for b, _ in pairs)
    change = statistics.median(c for _, c in pairs)
    worse = (change - base) if lower else (base - change)
    relative = worse / abs(base) if base else 0.0
    lost = sum(1 for b, c in pairs if (c > b if lower else c < b))
    failed = relative > metric["bound"] and lost * 2 > len(pairs)
    return {
        "metric": name, "base": base, "change": change,
        "worse_by": relative, "bound": metric["bound"],
        "lost": lost, "pairs": len(pairs), "fail": failed,
    }


def ab(workload: str, base_dir: str, args, metrics: list) -> dict:
    base_runs, change_runs = [], []
    for pair in range(args.pairs):
        seed = pair + 1
        sides = [("base", base_dir, base_runs), ("change", ROOT, change_runs)]
        if pair % 2:
            sides.reverse()
        for label, checkout, runs in sides:
            runs.append(run_once(checkout, workload, seed, args.seconds))
            print(f"  {workload} pair {pair + 1}/{args.pairs} {label}: "
                  f"correct={runs[-1].get('correct')}", flush=True)
    broken = [
        side for side, runs in (("base", base_runs), ("change", change_runs))
        if any(not r.get("correct") or r.get("failed", 0) != 0 for r in runs)
    ]
    verdicts = [judge(metric, base_runs, change_runs) for metric in metrics]
    return {
        "workload": workload,
        "broken": broken,
        "verdicts": verdicts,
        "fail": bool(broken) or any(v.get("fail") for v in verdicts),
        "runs": {"base": base_runs, "change": change_runs},
    }


def report(result: dict) -> None:
    status = "FAIL" if result["fail"] else "ok"
    print(f"{result['workload']}: {status}")
    for side in result["broken"]:
        print(f"  {side}: incorrect output or failed operations")
    for v in result["verdicts"]:
        if "skipped" in v:
            continue
        flag = "  FAIL" if v["fail"] else ""
        print(f"  {v['metric']:16s} base {v['base']:.6g}  change {v['change']:.6g}  "
              f"worse by {100 * v['worse_by']:+.1f}% (bound {100 * v['bound']:.0f}%)  "
              f"lost {v['lost']}/{v['pairs']}{flag}")


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    known = {w["name"] for w in spec["workloads"]}
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    worktree = None
    if args.base_checkout:
        base_dir = os.path.abspath(args.base_checkout)
    else:
        try:
            base = git("merge-base", "HEAD", args.base_ref)
        except subprocess.CalledProcessError as error:
            print(f"no merge base with {args.base_ref}: {error.stderr}", file=sys.stderr)
            return 2
        worktree = tempfile.mkdtemp(prefix="bench-ab-base-")
        os.rmdir(worktree)
        git("worktree", "add", "--detach", worktree, base)
        base_dir = worktree
    try:
        results = []
        for workload in args.workload:
            print(f"{workload}: {args.pairs} pairs, {args.seconds:g} s windows", flush=True)
            results.append(ab(workload, base_dir, args, spec["end_to_end"]))
            report(results[-1])
    finally:
        if worktree is not None:
            git("worktree", "remove", "--force", worktree)
            shutil.rmtree(worktree, ignore_errors=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)
    return 1 if any(r["fail"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
