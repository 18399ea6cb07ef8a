"""The workload registry, in the order the benchmark lists them."""

from __future__ import annotations

from .compile_mix import CompileMix
from .mimd import Table1MIMD
from .serve_mix import ServeMix
from .table1 import Table1SIMD

WORKLOADS = {
    cls.name: cls for cls in (Table1SIMD, CompileMix, ServeMix, Table1MIMD)
}

#: Operation budget of each workload's small traced slice, which the
#: traced run of another workload uses to measure the layers only this
#: one reaches: whole passes, batches, operations or runs.  serve-mix
#: needs enough compiles to refill the server's 512-sample latency
#: ring past its warm-up.
SLICE_LIMIT = {"table1-simd": 1, "compile-mix": 2, "serve-mix": 700, "table1-mimd": 2}
