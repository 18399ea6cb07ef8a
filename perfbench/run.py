#!/usr/bin/env python3
"""The repro benchmark: one workload, checked, timed, one JSON line.

Run from the root of a repro checkout::

    python3 perfbench/run.py --workload table1-simd --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the
traced run, which reports the per-layer metrics (see README.md here).
Human-readable lines come first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed and no operation failed.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-ups measured per run, each in a fresh process from its start;
#: ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Longest a set-up-only process may take.
SETUP_TIMEOUT = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up, print {"setup_s": ...} and exit (see fresh_setup_s).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def say(text: str = "") -> None:
    print(text, flush=True)


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    })


def report_errors(attempted: int, failed: int, errors: list) -> None:
    rate = failed / attempted if attempted else 0.0
    say(f"  error_rate          {rate:.6g}  ({failed} of {attempted} operations failed)")
    for message in errors[:10]:
        say(f"    failure: {message}")


def setup_from_start(workload) -> float:
    """Set the workload up; seconds from the start of this process to
    the end of set-up (imports, first-call initialisation and all),
    scaled to nominal machine speed like every other time (see
    pbench/speed.py)."""
    from pbench.speed import SpeedProbe

    probe = SpeedProbe()
    probe.sample()
    workload.setup()
    end = time.perf_counter()
    probe.sample()
    return (end - PROCESS_START) / probe.slowdown(PROCESS_START, end)


def fresh_setup_s(args) -> float:
    """:func:`setup_from_start` in a fresh process of this script."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--setup-only",
    ]
    # A session of its own, so that on a timeout the whole group goes,
    # a repro serve the set-up booted included.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=SETUP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"set-up process exited {child.returncode}:\n{stdout}{stderr}")
    return json.loads(lines[-1])["setup_s"]


def untraced(workload, args, tracing):
    setups = [setup_from_start(workload)]
    say(f"  inputs: {json.dumps(workload.inputs())}")
    out = workload.run(args.seconds, tracing.NullTracer())
    rss = workload.peak_rss_mb()
    for problem in workload.close():
        out.attempted += 1
        out.fail(problem)
    # The other set-ups run after the window, so they cannot disturb it.
    setups += [fresh_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
    from pbench.metrics import END_TO_END

    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "throughput": workload.throughput(out),
        "latency_p50_ms": workload.p50_ms(out),
    }
    metrics = {name: (values[name], END_TO_END[name][0]) for name in END_TO_END}
    say(f"  set-up from process start: median of {', '.join(f'{s:.4f}' for s in setups)} s")
    for name, (value, unit) in metrics.items():
        say(f"  {name:<19} {value:.6g} {unit}")
    for name, (value, unit) in out.extra.items():
        say(f"  {name:<19} {value:.6g} {unit}")
    say(f"  samples             {len(out.latencies)} operations in {out.wall:.3f} s")
    say(f"  machine slowdown    {out.slowdown:.3f} x nominal (times above are scaled by it)")
    report_errors(out.attempted, out.failed, out.errors)
    return out.failed == 0, out.attempted, out.failed, metrics


def report_breakdown(out, layers) -> None:
    wall = layers["wall"]

    def row(name, seconds, calls=None):
        line = f"    {name:<26} {seconds:10.4f} s  {100 * seconds / wall:6.2f} %"
        say(line + (f"  {calls} calls" if calls is not None else ""))

    say(f"  layers by self time ({out.attempted} operations, {wall:.4f} s wall):")
    for name, seconds in layers["layers"].items():
        row(name, seconds, layers["calls"][name])
    row("unattributed", layers["unattributed"])
    row("  inside operations", layers["inside_ops"])
    for name, seconds in layers["bench"].items():
        row("  " + name, seconds, layers["calls"][name])
    row("  outside any span", layers["outside"])
    say(f"  consistency: layers + unattributed = wall time {wall:.4f} s; "
        f"{layers['outside']:.4f} s of it is outside any span -> "
        f"{'ok' if layers['consistent'] else 'MISMATCH'}")


def traced(workload, args, tracing, root):
    from pbench.common import SCRATCH
    from pbench.layers import instrument
    from pbench.metrics import PER_LAYER
    from pbench.workloads import SLICE_LIMIT, WORKLOADS

    # The untraced window gives the overhead baseline; each window gets
    # a fresh set-up so both see the same state (cold stores, unseen
    # programs).
    workload.setup()
    say(f"  inputs: {json.dumps(workload.inputs())}")
    plain = workload.run(args.seconds, tracing.NullTracer())
    problems = workload.close()
    workload.setup()
    tracer = tracing.Tracer()
    with instrument(tracer):
        out = workload.run(args.seconds, tracer)
    layers = tracing.breakdown(tracer, out.wall)
    values = workload.layer_metrics(out, tracer, layers)
    values["trace.unattributed_share"] = layers["unattributed"] / layers["wall"]
    problems += workload.close()
    attempted = plain.attempted + out.attempted + len(problems)
    failed = plain.failed + out.failed + len(problems)
    errors = plain.errors + out.errors + problems
    consistent = layers["consistent"]

    report_breakdown(out, layers)
    for label, untraced_value, traced_value in (
        ("throughput", workload.throughput(plain), workload.throughput(out)),
        ("latency_p50_ms", workload.p50_ms(plain), workload.p50_ms(out)),
    ):
        say(f"  tracing overhead on {label}: untraced {untraced_value:.6g}, "
            f"traced {traced_value:.6g} ({100 * (traced_value / untraced_value - 1):+.2f} %)")

    # Layers only another workload reaches are measured on a small
    # traced slice of that workload.
    for name, cls in WORKLOADS.items():
        if cls is type(workload):
            continue
        other = cls(root, args.seed, small=True, seconds=args.seconds)
        other.setup()
        slice_tracer = tracing.Tracer()
        try:
            with instrument(slice_tracer):
                part = other.run(0.0, slice_tracer, limit=SLICE_LIMIT[name])
        finally:
            problems = other.close()
        part_layers = tracing.breakdown(slice_tracer, part.wall)
        values.update(other.layer_metrics(part, slice_tracer, part_layers))
        attempted += part.attempted + len(problems)
        failed += part.failed + len(problems)
        errors += part.errors + problems
        consistent = consistent and part_layers["consistent"]
        say(f"  slice {name} (small): {part.attempted} operations, "
            f"{part.failed} failed, layers consistent: {part_layers['consistent']}")

    trace_dir = os.path.join(root, SCRATCH, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(trace_path)
    say(f"  spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, root)}")
    metrics = {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
    for name, (value, unit) in metrics.items():
        say(f"  {name:<32} {value:.6g} {unit}")
    report_errors(attempted, failed, errors)
    return failed == 0 and consistent, attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found under the working directory; "
            "run from the root of a repro checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [src, HERE]
    from pbench.common import SCRATCH, stop_children

    # Temporary files of the benchmark, the program and its workers
    # stay inside the checkout.
    scratch = os.path.join(root, SCRATCH, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    import pbench.trace as tracing
    from pbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](root, args.seed, seconds=args.seconds)
    try:
        if args.setup_only:
            setup_s = setup_from_start(workload)
            say(json.dumps({"setup_s": setup_s}))
            return 0
        say(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace}")
        say(f"  why: {workload.why}")
        if args.trace:
            correct, attempted, failed, metrics = traced(workload, args, tracing, root)
        else:
            correct, attempted, failed, metrics = untraced(workload, args, tracing)
    finally:
        workload.close()
        stop_children()
    say(result_line(correct, attempted, failed, metrics))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
