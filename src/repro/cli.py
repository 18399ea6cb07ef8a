"""Command-line driver for the loop-flattening toolchain.

Usage::

    python -m repro check FILE            # parse + semantic check
    python -m repro lint FILE ...         # static analysis diagnostics
    python -m repro report FILE           # Section 6 verdicts per nest
    python -m repro flatten FILE          # print the flattened program
    python -m repro simdize FILE -p 8     # naive SIMDization baseline
    python -m repro run FILE -p 8 --bind l=4,1,2,1  # execute, show counters
    python -m repro fuzz --seed 0 -n 500  # differential fuzz the transforms
    python -m repro paper traces          # regenerate a paper exhibit

Array bindings are comma-separated numbers; scalars are plain numbers.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .analysis import evaluate_flattening
from .lang import check_source, format_source, parse_source
from .lang.errors import MiniFError
from .reliability import BACKENDS
from .runtime.engine import default_engine
from .transform import find_nest_sites, simplify_program, structurize_program


def _load(path: str):
    with open(path) as handle:
        return parse_source(handle.read(), filename=path)


def _parse_binding(text: str):
    name, _, value = text.partition("=")
    if not name or not value:
        raise argparse.ArgumentTypeError(
            f"binding must look like name=1,2,3 — got {text!r}"
        )
    parts = value.split(",")

    def number(token: str):
        token = token.strip()
        return float(token) if ("." in token or "e" in token.lower()) else int(token)

    if len(parts) == 1:
        return name.lower(), number(parts[0])
    return name.lower(), np.array([number(p) for p in parts])


def cmd_check(args) -> int:
    tree = _load(args.file)
    check_source(tree, externals=set(args.external or []))
    print(f"{args.file}: OK ({len(tree.units)} unit(s))")
    return 0


def _iter_minif_sources(path: str):
    """Yield ``(label, text)`` MiniF sources found in ``path``.

    A ``.py`` file contributes every module-level string constant that
    contains a PROGRAM or SUBROUTINE header — the convention the
    bundled kernels (:mod:`repro.kernels`) use to embed their MiniF
    texts — labelled ``path:NAME``.  Any other file is one MiniF
    source.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if not path.endswith(".py"):
        yield path, text
        return
    import ast as pyast

    module = pyast.parse(text, filename=path)
    for node in module.body:
        if not isinstance(node, pyast.Assign):
            continue
        value = node.value
        if not (isinstance(value, pyast.Constant) and isinstance(value.value, str)):
            continue
        upper = value.value.upper()
        if "PROGRAM" not in upper and "SUBROUTINE" not in upper:
            continue
        for target in node.targets:
            if isinstance(target, pyast.Name):
                yield f"{path}:{target.id}", value.value
                break


def cmd_lint(args) -> int:
    from .diag import DiagnosticReport, Severity, lint_source
    from .lang.errors import TransformError
    from .vm.compiler import compile_program
    from .vm.verify import verify_code

    report = DiagnosticReport()
    sources = 0
    dependence: dict[str, list] = {}
    for path in args.files:
        for label, text in _iter_minif_sources(path):
            sources += 1
            report.extend(lint_source(text, filename=label))
            if args.explain_deps:
                from .analysis.dep import explain_source

                dependence[label] = explain_source(text)
            if not args.no_verify:
                try:
                    code = compile_program(parse_source(text, filename=label))
                except (MiniFError, TransformError):
                    continue  # frontend findings already reported
                report.extend(verify_code(code))
    report = report.sorted()
    if args.format == "json":
        import json

        payload = {"sources": sources, **report.to_dict()}
        if args.explain_deps:
            payload["dependence"] = dependence
        print(json.dumps(payload, indent=2))
    else:
        if report:
            for diag in report:
                print(diag.render())
        if args.explain_deps:
            from .analysis.dep import render_explanations

            for label, nests in dependence.items():
                print(f"== dependence graphs: {label}")
                lines = render_explanations(nests)
                for line in lines:
                    print(line)
                if not lines:
                    print("  no counted loops")
        print(f"{sources} source(s): {report.summary()}")
    threshold = Severity.ERROR if args.fail_on == "error" else Severity.WARNING
    return 1 if report.at_least(threshold) else 0


def cmd_report(args) -> int:
    tree = structurize_program(_load(args.file))
    sites = find_nest_sites(tree)
    if not sites:
        print("no flattenable loop nests found")
        return 1
    for index, site in enumerate(sites):
        report = evaluate_flattening(
            site.stmt,
            assume_parallel=args.assume_parallel,
            assume_min_trips=args.assume_min_trips,
        )
        print(f"nest #{index} in {site.routine}:")
        for reason in report.reasons:
            print("  *", reason)
        print(f"  => flatten? {report.recommended}  (cost: {report.cost})")
    return 0


def _print_program(tree, simplify: bool) -> int:
    if simplify:
        tree = simplify_program(tree)
    print(format_source(tree), end="")
    return 0


def cmd_flatten(args) -> int:
    options = dict(
        variant=args.variant,
        assume_min_trips=args.assume_min_trips,
        simd=not args.no_simd,
        nest_index=args.nest,
    )
    if args.nproc:
        options.update(transform="spmd", width=args.nproc, layout=args.layout)
    else:
        options.update(transform="flatten")
    program = default_engine().compile(_load(args.file), **options)
    return _print_program(program.tree, args.simplify)


def cmd_simdize(args) -> int:
    program = default_engine().compile(
        _load(args.file),
        transform="simdize",
        width=args.nproc,
        layout=args.layout,
        nest_index=args.nest,
    )
    return _print_program(program.tree, args.simplify)


def _parse_chain(text: str) -> tuple[str, ...]:
    """``--fallback`` value: a comma-separated chain of backend names."""
    from .reliability import FallbackPolicy

    chain = tuple(b.strip() for b in text.split(",") if b.strip())
    if not chain:
        return ()
    try:
        return FallbackPolicy(chain=chain).chain
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _run_guards(args):
    """Build the Budget / FallbackPolicy requested on the command line."""
    from .reliability import Budget, FallbackPolicy

    budget = None
    if args.max_steps is not None or args.deadline is not None:
        spec = {}
        if args.max_steps is not None:
            spec["max_steps"] = args.max_steps
        if args.deadline is not None:
            spec["deadline_seconds"] = args.deadline
        budget = Budget(**spec)
    policy = None
    if args.fallback:
        policy = FallbackPolicy(chain=args.fallback)
    return budget, policy


def _write_crash_dump(path: str, error) -> None:
    import json

    from .reliability import crash_dump_for

    with open(path, "w") as handle:
        json.dump(crash_dump_for(error), handle, indent=2, default=str)
    print(f"crash dump written to {path}", file=sys.stderr)


def _print_attempts(result) -> None:
    """Surface the fallback/retry story of a run on stdout."""
    attempts = getattr(result, "attempts", []) or []
    if not attempts:
        return
    print(f"attempts       : {len(attempts)}")
    for index, attempt in enumerate(attempts, 1):
        if attempt.ok:
            status = f"ok ({attempt.wall_seconds:.3f}s)"
        else:
            status = f"failed [{attempt.fault_kind or 'error'}]"
        print(f"  {index}. {attempt.backend:<12} {status}")
        if not attempt.ok and attempt.error:
            print(f"     {attempt.error}")


def _print_supervision(result) -> None:
    """One-line recovery summary for supervised (pmimd) runs."""
    events = getattr(result, "events", []) or []
    if not events:
        return
    recoveries = sum(
        1
        for e in events
        if e.get("event") in ("worker-dead", "worker-wedged", "shard-deadline")
    )
    retries = sum(1 for e in events if e.get("event") == "retry")
    speculations = sum(1 for e in events if e.get("event") == "speculate")
    print(
        f"supervision    : {len(events)} events, {recoveries} recoveries, "
        f"{retries} retries, {speculations} speculative replays"
    )


def cmd_run(args) -> int:
    from .lang.errors import InterpreterError
    from .runtime import BackendConfig, default_engine

    program = default_engine().compile(_load(args.file))
    bindings = dict(args.bind or [])
    budget, policy = _run_guards(args)
    backend = args.backend or ("auto" if args.nproc and args.nproc > 0 else "scalar")
    config = None
    if args.workers is not None:
        config = BackendConfig(workers=args.workers)
    resume_from = None
    if args.resume:
        if not args.checkpoint_dir:
            print("error: --resume needs --checkpoint-dir DIR", file=sys.stderr)
            return 2
        if args.fallback:
            print(
                "error: --resume cannot be combined with --fallback "
                "(a resumed run continues the checkpoint's backend)",
                file=sys.stderr,
            )
            return 2
        from .reliability import CheckpointStore

        resume_from = CheckpointStore(args.checkpoint_dir).load_latest("run")
        if resume_from is None:
            print(
                f"no usable checkpoint under {args.checkpoint_dir}; "
                f"starting a clean run",
                file=sys.stderr,
            )
        else:
            print(
                f"resuming from checkpoint at step {resume_from.step} "
                f"({resume_from.backend} backend)",
                file=sys.stderr,
            )
            backend = "auto"
    ckpt_kwargs = dict(
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume_from=resume_from,
    )
    try:
        if backend == "scalar":
            result = program.run(
                bindings, backend="scalar", budget=budget, policy=policy,
                **ckpt_kwargs,
            )
            print("ran sequentially")
        else:
            result = program.run(
                bindings,
                nproc=args.nproc,
                backend=backend,
                budget=budget,
                policy=policy,
                config=config,
                **ckpt_kwargs,
            )
            if result.backend in ("mimd", "pmimd"):
                flavor = (
                    "worker processes"
                    if result.backend == "pmimd"
                    else "simulated processors"
                )
                print(
                    f"ran on {args.nproc} SPMD processors "
                    f"({result.backend}: {flavor})"
                )
            elif result.backend == "scalar":
                print("ran sequentially")
            else:
                print(f"ran on {args.nproc} lockstep PEs (bytecode VM)")
    except InterpreterError as exc:
        if args.crash_dump:
            _write_crash_dump(args.crash_dump, exc)
        for attempt in getattr(exc, "attempts", []) or []:
            status = (
                "ok"
                if attempt.ok
                else f"failed [{attempt.fault_kind or 'error'}]"
            )
            print(f"attempt[{attempt.backend}]: {status}", file=sys.stderr)
        raise
    _print_attempts(result)
    _print_supervision(result)
    env, counters = result.env, result.counters
    if isinstance(counters, list):
        # Per-processor accumulators (mimd/pmimd): Eq. 1 aggregates.
        print(f"processors     : {len(counters)}")
        print(f"parallel steps : {result.time_steps()} (max over processors)")
        total_calls = {}
        for c in counters:
            for name, count in c.calls.items():
                total_calls[name] = total_calls.get(name, 0) + count
        if total_calls:
            print(f"external calls : {total_calls}")
        env = env[0] if env else {}
    else:
        summary = counters.summary()
        print(f"lockstep steps : {summary['total_steps']}")
        print(f"vector instrs  : {summary['vector_instructions']}")
        if summary["calls"]:
            print(f"external calls : {summary['calls']}")
        print(f"mean utilization: {summary['mean_utilization']:.1%}")
    if args.show:
        from .exec.values import FArray

        for name in args.show:
            value = env.get(name.lower())
            data = value.data if isinstance(value, FArray) else value
            print(f"{name} = {data}")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import run_fuzz
    from .fuzz.corpus import iter_corpus, replay_entry

    if args.replay:
        if not args.corpus:
            print("error: --replay needs --corpus DIR", file=sys.stderr)
            return 2
        failures = 0
        entries = 0
        for entry in iter_corpus(args.corpus):
            entries += 1
            divergence = replay_entry(entry, nproc=args.nproc)
            if divergence is None:
                print(f"{entry.name}: no longer reproduces")
            else:
                failures += 1
                print(
                    f"{entry.name}: still fails [{divergence.kind}] on "
                    f"{divergence.config}: {divergence.detail}"
                )
        print(f"replayed {entries} corpus entr{'y' if entries == 1 else 'ies'}")
        return 1 if failures else 0

    report = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        nproc=args.nproc,
        corpus_dir=args.corpus,
        shrink=args.shrink,
        max_failures=args.max_failures,
        start=args.start,
        pmimd=args.pmimd,
        pmimd_chaos=args.pmimd_chaos,
    )
    print(report.summary())
    for path in report.saved_paths:
        print(f"  saved {path}")
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    import json

    from .bench import (
        check_trajectory,
        empty_report,
        run_smoke_sweep,
        run_table1_sweep,
        validate_report,
    )

    if args.validate or args.check:
        path = args.validate or args.check
        try:
            with open(path) as handle:
                report = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        errors = validate_report(report)
        for error in errors:
            print(f"schema: {error}", file=sys.stderr)
        if errors:
            return 1
        print(f"{path}: schema ok ({len(report['points'])} point(s))")
        if args.check:
            problems = check_trajectory(report, threshold=args.threshold)
            for problem in problems:
                print(f"regression: {problem}", file=sys.stderr)
            if problems:
                return 1
            print(f"{path}: no regression beyond {args.threshold:.0%}")
        return 0

    def progress(cell):
        print(
            f"  cutoff {cell['cutoff']:4.1f} {cell['kernel']:4s}: "
            f"{cell['wall_seconds']:8.3f}s  steps={cell['steps']}",
            flush=True,
        )

    label = args.label or ("smoke" if args.smoke else "local")
    print(f"running {'reduced' if args.smoke else 'full Table-1'} sweep "
          f"(backend={args.backend})...", flush=True)
    if args.smoke:
        point = run_smoke_sweep(label, backend=args.backend, progress=progress)
    else:
        point = run_table1_sweep(label, backend=args.backend, progress=progress)
    print(f"total {point['total_seconds']:.3f}s over {len(point['cells'])} cells")

    if args.output:
        try:
            with open(args.output) as handle:
                report = json.load(handle)
        except FileNotFoundError:
            report = empty_report()
        except ValueError as exc:
            print(f"error: cannot parse {args.output}: {exc}", file=sys.stderr)
            return 2
        report.setdefault("points", []).append(point)
        errors = validate_report(report)
        if errors:
            for error in errors:
                print(f"schema: {error}", file=sys.stderr)
            return 1
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"appended point {label!r} to {args.output}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .serve import ServeConfig, TenantPolicy, serve

    tenants = []
    if args.max_steps is not None or args.deadline is not None or args.fallback:
        tenants.append(
            TenantPolicy(
                name="default",
                max_steps=args.max_steps,
                deadline_seconds=args.deadline,
                fallback=args.fallback or (),
            )
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        store_max_entries=args.store_max_entries,
        store_max_bytes=args.store_max_bytes,
        cache_size=args.cache_size,
        max_inflight=args.max_inflight,
        pool_workers=args.pool_workers,
        tenants=tuple(tenants),
    )

    def ready(app):
        store = args.store_dir or "<memory only>"
        print(
            f"repro serve listening on http://{args.host}:{app.port} "
            f"(store: {store})",
            flush=True,
        )

    try:
        asyncio.run(serve(config, ready=ready))
    except KeyboardInterrupt:
        pass
    print("repro serve: shutdown complete", flush=True)
    return 0


def cmd_paper(args) -> int:
    from . import eval as evaluation

    exhibit = args.exhibit
    if exhibit == "traces":
        traces = evaluation.example_traces()
        print("Figure 4 (MIMD):")
        print(traces.mimd.format())
        print("\nFigure 6 (naive SIMD):")
        print(traces.naive_simd.format())
        print("\nFlattened SIMD:")
        print(traces.flattened_simd.format())
    elif exhibit == "fig18":
        print(evaluation.format_figure18(evaluation.figure18()))
    elif exhibit == "table1":
        print(evaluation.format_table1(evaluation.table1()))
    elif exhibit == "table2":
        print(evaluation.format_table2(evaluation.table2()))
    elif exhibit == "fig19":
        print(evaluation.format_figure19(evaluation.figure19_series()))
    elif exhibit == "sparc":
        for row in evaluation.sparc_reference():
            print(f"Sparc 2 at {row['cutoff']:.0f}A: {row['seconds']:.2f}s")
    else:
        print(f"unknown exhibit '{exhibit}'", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Loop flattening for SIMD control flow (PLDI '92 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and semantically check a MiniF file")
    p.add_argument("file")
    p.add_argument("--external", action="append", help="known external subroutine")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "lint",
        help="static analysis: divergence races, provable bounds "
             "violations, SIMD blowup warnings, bytecode verification",
    )
    p.add_argument("files", nargs="+", metavar="FILE",
                   help="MiniF source file, or a .py module whose "
                        "string constants embed MiniF programs")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--fail-on", default="error", choices=["error", "warning"],
                   help="exit nonzero when findings at/above this "
                        "severity exist (default: error)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip bytecode verification of compiled programs")
    p.add_argument("--explain-deps", action="store_true",
                   help="also print each loop nest's dependence graph "
                        "(direction/distance vectors, parallel / fission "
                        "/ interchange verdicts)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("report", help="Section 6 applicability report per nest")
    p.add_argument("file")
    p.add_argument("--assume-parallel", action="store_true")
    p.add_argument("--assume-min-trips", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("flatten", help="flatten a loop nest and print the program")
    p.add_argument("file")
    p.add_argument("--variant", default="auto",
                   choices=["auto", "general", "optimized", "done"])
    p.add_argument("--assume-min-trips", action="store_true")
    p.add_argument("--no-simd", action="store_true",
                   help="emit the F77 form instead of the F90simd form")
    p.add_argument("--nest", type=int, default=0, help="which nest (default first)")
    p.add_argument("-p", "--nproc", type=int, default=0,
                   help="also partition the outer loop over P PEs")
    p.add_argument("--layout", default="cyclic", choices=["block", "cyclic"])
    p.add_argument("--simplify", action="store_true",
                   help="constant-fold and clean up the generated code")
    p.set_defaults(fn=cmd_flatten)

    p = sub.add_parser("simdize", help="naive SIMDization (the Section 3 baseline)")
    p.add_argument("file")
    p.add_argument("-p", "--nproc", type=int, required=True)
    p.add_argument("--layout", default="block", choices=["block", "cyclic"])
    p.add_argument("--nest", type=int, default=0)
    p.add_argument("--simplify", action="store_true",
                   help="constant-fold and clean up the generated code")
    p.set_defaults(fn=cmd_simdize)

    p = sub.add_parser("run", help="execute a MiniF program")
    p.add_argument("file")
    p.add_argument("-p", "--nproc", type=int, default=0,
                   help="run on a lockstep SIMD machine with P PEs "
                        "(omit for sequential execution)")
    p.add_argument("--bind", action="append", type=_parse_binding,
                   metavar="NAME=V[,V...]", help="initial variable binding")
    p.add_argument("--show", action="append", metavar="NAME",
                   help="print a variable after the run")
    p.add_argument("--backend", default=None, choices=BACKENDS,
                   help="execution backend: the lockstep SIMD bytecode VM "
                        "(vm), sequential scalar, the in-process MIMD "
                        "simulator, or the process-parallel pmimd pool with "
                        "worker supervision (default: auto — vm with -p N, "
                        "scalar without)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker process count for --backend pmimd "
                        "(default: min(nproc, cpu count))")
    p.add_argument("--max-steps", type=int, default=None,
                   help="abort with a budget fault after this many "
                        "executed instructions/statements")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget for the run")
    p.add_argument("--crash-dump", metavar="PATH",
                   help="on failure, write the postmortem (pc, mask stack, "
                        "per-PE environment, last opcodes) as JSON")
    p.add_argument("--fallback", metavar="CHAIN", type=_parse_chain,
                   help="comma-separated backend fallback chain, e.g. "
                        "'pmimd,mimd'; retryable faults degrade along it")
    p.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                   help="durable execution: capture a restorable checkpoint "
                        "every N executed steps (vm/scalar save under "
                        "--checkpoint-dir; pmimd workers checkpoint per "
                        "processor so shard replays resume, not rerun)")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="crash-safe on-disk checkpoint store root "
                        "(atomic writes, digest-verified loads)")
    p.add_argument("--resume", action="store_true",
                   help="continue from the latest good checkpoint in "
                        "--checkpoint-dir; the final state is bit-identical "
                        "to an uninterrupted run (clean start if none)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the transform pipeline "
             "(every legal variant x backend must agree)",
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument("-n", "--iterations", type=int, default=500,
                   help="number of generated programs (default 500)")
    p.add_argument("-p", "--nproc", type=int, default=4,
                   help="lockstep PE count for the SIMD/SPMD/MIMD legs")
    p.add_argument("--corpus", metavar="DIR",
                   help="persist failures (program, bindings, divergence, "
                        "crash dump) as replayable JSON under DIR")
    p.add_argument("--shrink", action="store_true",
                   help="delta-debug each failure to a minimal reproducer")
    p.add_argument("--max-failures", type=int, default=10,
                   help="stop the campaign after this many failing programs")
    p.add_argument("--start", type=int, default=0,
                   help="first program index (for sharding campaigns)")
    p.add_argument("--pmimd", action="store_true",
                   help="also run the process-parallel pmimd leg on "
                        "every program (forks worker processes)")
    p.add_argument("--pmimd-chaos", action="store_true",
                   help="run the pmimd leg under seeded worker "
                        "kill/hang/slow injection with a pmimd->mimd "
                        "fallback chain")
    p.add_argument("--replay", action="store_true",
                   help="re-run the stored corpus instead of generating "
                        "new programs")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "bench",
        help="NBFORCE Table-1 performance sweep, trajectory schema "
             "validation, and the regression gate",
    )
    p.add_argument("--smoke", action="store_true",
                   help="reduced sweep (small SOD, narrow machine) for CI")
    p.add_argument("--backend", default="vm",
                   choices=["vm", "pmimd"],
                   help="engine to measure (default: vm); 'pmimd' sweeps "
                        "the MIMD column (sequential kernel per "
                        "asynchronous processor) instead of the "
                        "lockstep kernels")
    p.add_argument("--label", default=None,
                   help="label recorded on the measured point")
    p.add_argument("--output", metavar="FILE",
                   help="append the measured point to this trajectory "
                        "file (created if missing)")
    p.add_argument("--validate", metavar="FILE",
                   help="schema-validate a trajectory file and exit")
    p.add_argument("--check", metavar="FILE",
                   help="validate FILE, then fail if its newest point "
                        "regresses beyond --threshold vs the best "
                        "earlier comparable point")
    p.add_argument("--threshold", type=float, default=0.20,
                   help="relative regression tolerance (default: 0.20)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "serve",
        help="async compile-and-run HTTP service with a persistent "
             "sharded artifact cache (POST /v1/compile, /v1/run, "
             "/v1/lint; GET /healthz, /metrics)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8642,
                   help="bind port (0 picks a free port, printed on boot)")
    p.add_argument("--store-dir", metavar="DIR",
                   help="persistent artifact-store root shared across "
                        "processes; omit for in-memory caching only")
    p.add_argument("--store-max-entries", type=int, default=None,
                   help="LRU eviction ceiling on stored artifacts")
    p.add_argument("--store-max-bytes", type=int, default=None,
                   help="LRU eviction ceiling on stored bytes")
    p.add_argument("--cache-size", type=int, default=128,
                   help="in-memory compile-cache entries (default 128)")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="global concurrent-request ceiling; beyond it "
                        "requests are rejected with 429 (default 64)")
    p.add_argument("--pool-workers", type=int, default=4,
                   help="execution thread-pool size (default 4)")
    p.add_argument("--max-steps", type=int, default=None,
                   help="per-run step budget applied to every tenant")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="per-run wall-clock budget applied to every tenant")
    p.add_argument("--fallback", metavar="CHAIN", type=_parse_chain,
                   help="backend fallback chain for served runs, e.g. "
                        "'pmimd,mimd'")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("paper", help="regenerate a paper exhibit")
    p.add_argument("exhibit",
                   choices=["traces", "fig18", "table1", "table2", "fig19", "sparc"])
    p.set_defaults(fn=cmd_paper)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MiniFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
