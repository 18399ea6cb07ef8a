"""The metrics the benchmark reports: name → (unit, better, bound).

BENCHMARK.json lists the same names; ``tests/test_perfbench.py``
keeps the two in step.  End-to-end metrics are reported by every
workload, each over the workload's own unit of work:

===============  ==============================  ===========================
workload         throughput (1/s)                latency_p50_ms
===============  ==============================  ===========================
table1-simd      pair interactions per second    one Table-1 pass
table1-mimd      pair interactions per second    one pmimd run
compile-mix      compiles per second, cold+disk  one cold compile
serve-mix        2xx requests per second         one request (client side)
===============  ==============================  ===========================
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "throughput": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
}

PER_LAYER = {
    "md.forces.external_s": ("s", "lower"),
    "md.forces.calls": ("count", "lower"),
    "md.forces.active_lane_ratio": ("ratio", "higher"),
    "vm.machine.run_s": ("s", "lower"),
    "exec.counters.steps": ("count", "lower"),
    "exec.counters.utilization": ("ratio", "higher"),
    "exec.counters.gathers": ("count", "lower"),
    "exec.counters.scatters": ("count", "lower"),
    "lang.parse_ms": ("ms", "lower"),
    "lang.nodes": ("count", "lower"),
    "transform.apply_ms": ("ms", "lower"),
    "transform.applied": ("count", "higher"),
    "transform.rejected": ("count", "lower"),
    "transform.apply_ratio": ("ratio", "higher"),
    "analysis.dep.graph_ms": ("ms", "lower"),
    "analysis.abstract.fixpoint_ms": ("ms", "lower"),
    "diag.lint_ms": ("ms", "lower"),
    "diag.findings": ("count", "lower"),
    "vm.compiler.lower_ms": ("ms", "lower"),
    "vm.compiler.instructions": ("count", "lower"),
    "vm.fuse.fuse_ms": ("ms", "lower"),
    "vm.fuse.fused_blocks": ("count", "higher"),
    "vm.verify.verify_ms": ("ms", "lower"),
    "runtime.store.save_ms": ("ms", "lower"),
    "runtime.store.load_ms": ("ms", "lower"),
    "runtime.store.bytes": ("bytes", "lower"),
    "runtime.engine.memory_hit_ratio": ("ratio", "higher"),
    "serve.server_p50_ms": ("ms", "lower"),
    "serve.http_overhead_ms": ("ms", "lower"),
    "serve.cache_memory": ("count", "higher"),
    "serve.cache_miss": ("count", "lower"),
    "serve.deduped": ("count", "higher"),
    "serve.rejected": ("count", "lower"),
    "exec.pmimd.start_s": ("s", "lower"),
    "exec.pmimd.run_s": ("s", "lower"),
    "exec.pmimd.steps": ("count", "lower"),
    "reliability.supervisor.events": ("count", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}
