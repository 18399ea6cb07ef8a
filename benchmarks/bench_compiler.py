"""Compiler-throughput micro-benchmarks.

Not a paper exhibit — engineering numbers for the implementation
itself: parsing, flattening, and SIMD interpretation rates, so
regressions in the toolchain show up in benchmark history.
"""

import numpy as np

from repro.lang import parse_source
from repro.runtime import Engine
from repro.transform.parallel import flatten_spmd
from repro.lang import ast

SOURCE = """
PROGRAM bench
  INTEGER i, j, k, l(64), x(64, 8)
  k = 64
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = i * j + i - j
    ENDDO
  ENDDO
END
"""


def test_bench_parse(benchmark):
    tree = benchmark(parse_source, SOURCE)
    assert tree.main.name == "bench"


def test_bench_flatten(benchmark):
    tree = parse_source(SOURCE)

    def flatten():
        # fresh engine each call: every compile is cold, so the timing
        # covers the flattening pipeline and not an LRU hit
        return Engine(cache_size=1).compile(
            tree, transform="flatten", variant="done",
            assume_min_trips=True, simd=True,
        ).tree

    flat = benchmark(flatten)
    assert flat is not tree


def test_bench_simd_interpretation(benchmark):
    rng = np.random.default_rng(0)
    trips = rng.integers(1, 9, 64)
    tree = parse_source(SOURCE)
    loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
    flat = flatten_spmd(
        loop, nproc=16, layout="cyclic", variant="done", assume_min_trips=True
    )
    index = tree.main.body.index(loop)
    body = tree.main.body[:index] + flat + tree.main.body[index + 1:]
    prog = ast.SourceFile([ast.Routine("program", "p", [], body)])
    compiled = Engine().compile(prog)

    def run():
        return compiled.run({"l": trips.copy()}, nproc=16, backend="interpreter")

    counters = benchmark(run).counters
    assert counters.events["scatter"] > 0


def test_bench_vm_execution(benchmark):
    """The bytecode VM on the same flattened program (engines must
    agree on step counts; their relative speed is tracked here)."""
    from repro.vm import SIMDVirtualMachine, compile_program

    rng = np.random.default_rng(0)
    trips = rng.integers(1, 9, 64)
    tree = parse_source(SOURCE)
    loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
    flat = flatten_spmd(
        loop, nproc=16, layout="cyclic", variant="done", assume_min_trips=True
    )
    index = tree.main.body.index(loop)
    body = tree.main.body[:index] + flat + tree.main.body[index + 1:]
    prog = ast.SourceFile([ast.Routine("program", "p", [], body)])
    code = compile_program(prog)

    def run():
        vm = SIMDVirtualMachine(16)
        vm.run(code, bindings={"l": trips.copy()})
        return vm.counters

    counters = benchmark(run)
    interp_counters = Engine().compile(prog).run(
        {"l": trips.copy()}, nproc=16, backend="interpreter"
    ).counters
    assert counters.events["scatter"] == interp_counters.events["scatter"]
