"""VM dispatch ablation: block closures against per-instruction stepping.

Measures the same engine-execution-only protocol as ``repro bench``
(see :mod:`repro.bench.runner`) on one mid-size NBFORCE cell, with the
VM's compiled block closures and with per-instruction dispatch, in
alternating pairs (the mode that runs first alternates, so a drift of
the host's speed falls on both alike), and asserts the fast path pays:
the median block-compiled run must beat the median per-instruction run
— and, the invariant everything rests on, both modes must retire
identical lockstep step counts.
"""

import statistics
import time

import pytest
from conftest import once

from repro.kernels.nbforce import flat_kernel_setup
from repro.md.gromos import sod_workload
from repro.runtime import BackendConfig, Engine

#: Alternating pairs of runs per mode.
PAIRS = 7


def measure(cutoff=8.0, nproc=2048, nmax=2048, n_atoms=2000, pairs=PAIRS):
    workload = sod_workload(cutoff, n_atoms=n_atoms, nmax=nmax)
    dist = workload.distribution(nproc)
    text, bindings, externals = flat_kernel_setup(
        workload.molecule, workload.pairlist, dist
    )
    engine = Engine()
    modes = {"blocks": True, "per-instruction": False}
    out = {label: {"seconds": [], "steps": set()} for label in modes}
    # warm compile cache, block closures, allocator and numpy pools:
    # time pure execution
    for fuse in modes.values():
        engine.compile(text).run(
            dict(bindings), nproc=dist.gran, backend="vm", externals=externals,
            config=BackendConfig(vm_fuse=fuse),
        )
    for pair in range(pairs):
        order = list(modes.items())
        if pair % 2:
            order.reverse()
        for label, fuse in order:
            start = time.perf_counter()
            result = engine.compile(text).run(
                dict(bindings), nproc=dist.gran, backend="vm",
                externals=externals, config=BackendConfig(vm_fuse=fuse),
            )
            out[label]["seconds"].append(time.perf_counter() - start)
            out[label]["steps"].add(result.steps)
    return out


@pytest.mark.slow
def test_bench_vm_dispatch(benchmark, write_result):
    data = once(benchmark, measure)

    blocks, plain = data["blocks"], data["per-instruction"]
    # block compilation is observationally invisible...
    assert len(blocks["steps"]) == 1
    assert blocks["steps"] == plain["steps"]
    # ...and must buy wall clock: the median block-compiled run wins
    fast = statistics.median(blocks["seconds"])
    slow = statistics.median(plain["seconds"])
    assert fast < slow

    (steps,) = blocks["steps"]
    write_result(
        "vm_dispatch",
        f"VM dispatch ablation (NBFORCE L_f, 8A, nproc=2048, median of {PAIRS} "
        "alternating pairs):\n"
        f"  per-instruction: {slow:8.3f}s  steps={steps}\n"
        f"  blocks:          {fast:8.3f}s  steps={steps}\n"
        f"  speedup: {slow / fast:.2f}x",
    )
