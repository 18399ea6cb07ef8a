"""compile-mix: cold and disk-tier compiles of generated loop nests.

A seeded :class:`~repro.fuzz.ProgramGenerator` stream, kept to the
nest shapes the paper targets (ragged ``l(i)``, triangular and
indirect inner bounds).  Request ``i`` applies transform
``TRANSFORMS[i % 7]``.  One operation is what ``repro lint`` and
``/v1/compile`` pay: ``compile`` + ``bytecode()`` + ``diagnostics()``.

The window alternates two phases over batches of requests: a cold
phase on one ``Engine`` whose fresh ``ArtifactStore`` it writes, then
the same requests from a brand-new ``Engine`` on that store, which
reads it.  Nothing is executed.  A ``TransformError`` is the
transform's legitimate refusal (a verdict), not a failure.
"""

from __future__ import annotations

import time

from repro.fuzz.generator import ProgramGenerator
from repro.lang import format_source
from repro.lang.errors import TransformError
from repro.runtime.engine import Engine
from repro.runtime.store import ArtifactStore

from .common import Outcome, median_ms, peak_rss_mb, remove, scratch_dir, tail
from .speed import SpeedProbe

TRANSFORMS = ("none", "flatten", "spmd", "simdize", "fission", "coalesce", "interchange")

#: Inner-bound shapes kept from the generator (see TRIP_SHAPES there).
SHAPES = ("shape-array", "shape-triangular", "shape-triangular2", "shape-indirect")

#: PE count baked into the spmd and simdize texts.
WIDTH = 4

#: Requests per cold/disk batch.
BATCH = 70

#: Requests generated in set-up per second of window (about the rate a
#: window uses; more are generated on demand).
PER_SECOND = 120


def compile_options(index: int) -> dict:
    transform = TRANSFORMS[index % len(TRANSFORMS)]
    options = {"transform": transform}
    if transform in ("spmd", "simdize"):
        options["width"] = WIDTH
    return options


def generate_sources(seed: int, count: int, start: int = 0) -> tuple[list, int]:
    """``count`` program texts of the kept shapes, and the generator
    index to continue from."""
    generator = ProgramGenerator(seed=seed)
    sources = []
    index = start
    while len(sources) < count:
        program = generator.generate(index)
        index += 1
        if any(feature in SHAPES for feature in program.features):
            sources.append(program.source)
    return sources, index


def compile_request(engine: Engine, source: str, options: dict):
    """One operation: ``(verdict, program or None)``."""
    try:
        program = engine.compile(source, **options)
    except TransformError:
        return "rejected", None
    program.bytecode()
    program.diagnostics()
    return ("none" if options["transform"] == "none" else "applied"), program


def printed(program) -> str | None:
    return None if program is None else format_source(program.tree)


class CompileMix:
    name = "compile-mix"
    why = "the library/CLI caller: cold compile+lint of seeded ragged, triangular and indirect nests under 7 transforms, then disk-tier hits"
    owns = (
        "lang.parse_ms", "lang.nodes", "transform.apply_ms", "transform.applied",
        "transform.rejected", "transform.apply_ratio", "analysis.dep.graph_ms",
        "analysis.abstract.fixpoint_ms", "diag.lint_ms", "diag.findings",
        "vm.compiler.lower_ms", "vm.compiler.instructions", "vm.verify.verify_ms",
        "runtime.store.save_ms", "runtime.store.load_ms", "runtime.store.bytes",
    )

    def __init__(self, root: str, seed: int, small: bool = False, seconds: float = 10.0):
        self.root = root
        self.seed = seed
        self.small = small
        self.seconds = seconds
        self.store_dir = None

    def setup(self) -> None:
        self.sources, self.next_index = generate_sources(
            self.seed, 2 * BATCH if self.small else int(PER_SECOND * self.seconds)
        )

    def inputs(self) -> dict:
        lines = [source.count("\n") for source in self.sources]
        return {
            "programs_generated": len(self.sources),
            "mean_lines": round(sum(lines) / len(lines), 2),
            "transforms": list(TRANSFORMS),
            "batch": BATCH,
        }

    def _request(self, index: int) -> tuple[str, dict]:
        while index >= len(self.sources):
            more, self.next_index = generate_sources(self.seed, BATCH, self.next_index)
            self.sources.extend(more)
        return self.sources[index], compile_options(index)

    def run(self, seconds: float, tracer, limit: int | None = None) -> Outcome:
        out = Outcome()
        remove(self.store_dir)
        self.store_dir = scratch_dir(self.root, "compile-mix-")
        store = ArtifactStore(self.store_dir)
        cold_engine = Engine(store=store)
        probe = SpeedProbe()
        cold_ops, disk_ops, done_ops = [], [], []
        verdicts = {"none": 0, "applied": 0, "rejected": 0}
        batches = 0
        start = time.perf_counter()
        while True:
            batch = [
                (i, *self._request(i))
                for i in range(batches * BATCH, (batches + 1) * BATCH)
            ]
            batches += 1
            cold = {}
            for index, source, options in batch:
                out.attempted += 1
                probe.maybe_sample()
                cold_ops.append(len(out.latencies))
                began = time.perf_counter()
                try:
                    with tracer.op("compile.cold"):
                        verdict, program = compile_request(cold_engine, source, options)
                except Exception as error:  # noqa: BLE001 — counted, not fatal
                    out.timed(began)
                    out.fail(f"request {index} {options}: {error!r}")
                    continue
                out.timed(began)
                done_ops.append(len(out.latencies) - 1)
                cold[index] = (verdict, printed(program))
                verdicts[verdict] += 1
            # The repeat: a fresh Engine on the same store, as a new
            # process would be.  Accepted requests are disk hits;
            # rejected ones were never stored and are refused again.
            warm_engine = Engine(store=store)
            for index, source, options in batch:
                if index not in cold:
                    continue
                out.attempted += 1
                probe.maybe_sample()
                began = time.perf_counter()
                try:
                    with tracer.op("compile.repeat"):
                        verdict, program = compile_request(warm_engine, source, options)
                except Exception as error:  # noqa: BLE001 — counted, not fatal
                    out.timed(began)
                    out.fail(f"request {index} {options} repeated: {error!r}")
                    continue
                if program is not None and program.cache_tier == "disk":
                    disk_ops.append(len(out.latencies))
                out.timed(began)
                if (verdict, printed(program)) != cold[index]:
                    out.fail(
                        f"request {index} {options}: cold verdict {cold[index][0]}, "
                        f"repeat verdict {verdict}, or the printed trees differ"
                    )
                else:
                    done_ops.append(len(out.latencies) - 1)
            if (limit is not None and batches >= limit) or (
                limit is None and out.busy >= seconds
            ):
                break
        probe.sample()
        out.wall = time.perf_counter() - start
        out.work = sum(verdicts.values())
        out.scaled = probe.scale(out.starts, out.latencies)
        out.slowdown = probe.median_slowdown()
        cold = [out.scaled[i] for i in cold_ops]
        raw_cold = [out.latencies[i] for i in cold_ops]
        done = [out.scaled[i] for i in done_ops]
        out.extra = {
            # Both halves of the window: cold compiles and their repeats.
            "requests_per_s": (len(done) / sum(done), "1/s"),
            "programs_per_s": (out.work / sum(cold), "1/s"),
            "compile_p50_ms": (median_ms(cold), "ms"),
        }
        cold_tail = tail(cold)
        if cold_tail is not None:
            level, value = cold_tail
            out.extra[f"compile_p{level:g}_ms"] = (value, "ms")
        out.extra["disk_hit_p50_ms"] = (median_ms([out.scaled[i] for i in disk_ops]), "ms")
        raw_done = [out.latencies[i] for i in done_ops]
        out.extra["raw requests_per_s"] = (len(raw_done) / sum(raw_done), "1/s")
        out.extra["raw programs_per_s"] = (out.work / sum(raw_cold), "1/s")
        out.extra["raw compile_p50_ms"] = (median_ms(raw_cold), "ms")
        out.layers = {"store_bytes": store.total_bytes()}
        return out

    def layer_metrics(self, out: Outcome, tracer, layers: dict) -> dict:
        own = layers["layers"]
        calls = layers["calls"]
        counts = tracer.counts

        def per_call(span: str) -> float:
            return 1e3 * own.get(span, 0.0) / max(1, calls.get(span, 0))

        applied = counts["transform.applied"]
        rejected = counts["transform.rejected"]
        return {
            "lang.parse_ms": per_call("lang"),
            "lang.nodes": counts["lang.nodes"] / max(1, calls.get("lang", 0)),
            "transform.apply_ms": per_call("transform"),
            "transform.applied": applied,
            "transform.rejected": rejected,
            "transform.apply_ratio": applied / max(1, applied + rejected),
            "analysis.dep.graph_ms": per_call("analysis.dep"),
            "analysis.abstract.fixpoint_ms": per_call("analysis.abstract"),
            "diag.lint_ms": per_call("diag"),
            "diag.findings": counts["diag.findings"] / max(1, calls.get("diag", 0)),
            "vm.compiler.lower_ms": per_call("vm.compiler"),
            "vm.compiler.instructions": counts["vm.compiler.instructions"]
            / max(1, calls.get("vm.compiler", 0)),
            "vm.verify.verify_ms": per_call("vm.verify"),
            "runtime.store.save_ms": per_call("runtime.store.save"),
            "runtime.store.load_ms": per_call("runtime.store.load"),
            "runtime.store.bytes": out.layers["store_bytes"],
        }

    def throughput(self, out: Outcome) -> float:
        return out.extra["requests_per_s"][0]

    def p50_ms(self, out: Outcome) -> float:
        return out.extra["compile_p50_ms"][0]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> list:
        remove(self.store_dir)
        self.store_dir = None
        return []
