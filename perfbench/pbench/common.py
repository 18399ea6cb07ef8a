"""Shared pieces: the run outcome, percentiles, memory and scratch space."""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker

#: Scratch space for stores and server output, inside the checkout.
SCRATCH = ".perfbench"


@dataclass
class Outcome:
    """What one timed window did.

    Attributes:
        attempted: Operations started.
        failed: Operations that raised, answered non-2xx or gave a
            wrong output.
        errors: One line per failure (the first few are printed).
        latencies: Seconds per operation (the workload's own timer).
        starts: ``perf_counter`` at the start of each operation.
        scaled: ``latencies`` at nominal machine speed (see
            :mod:`pbench.speed`).
        slowdown: The machine's median slowdown during the window.
        busy: Sum of ``latencies`` — time inside operations, summed
            over callers when several run at once.
        wall: Wall time of the window.
        work: Units of work completed (pairs, compiles or requests).
        extra: Named end-to-end figures of this workload.
        layers: Per-layer figures the workload computes itself.
    """

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    slowdown: float = 1.0
    wall: float = 0.0
    work: float = 0.0
    extra: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def timed(self, start: float) -> float:
        """Record an operation that started at ``start``; its seconds."""
        took = time.perf_counter() - start
        self.starts.append(start)
        self.latencies.append(took)
        return took

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def median_ms(seconds: list) -> float:
    return 1e3 * statistics.median(seconds)


def tail(seconds: list) -> tuple[float, float] | None:
    """``(percentile, ms)`` at the highest percentile, capped at 99,
    that has at least ten samples beyond it; None below 20 samples."""
    n = len(seconds)
    if n < 20:
        return None
    level = min(99.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)
    ordered = sorted(seconds)
    rank = min(n - 1, max(0, math.ceil(level / 100.0 * n) - 1))
    return level, 1e3 * ordered[rank]


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident memory in MiB: of ``pid`` (read from /proc) or of
    this process and the children it has waited for."""
    if pid is not None:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {pid}")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def scratch_dir(root: str, prefix: str) -> str:
    base = os.path.join(root, SCRATCH)
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def remove(path: str | None) -> None:
    if path:
        shutil.rmtree(path, ignore_errors=True)


def stop_children() -> None:
    """Stop and reap every process this one started through
    ``multiprocessing``: leftover pmimd workers and the resource
    tracker that the first shared-memory segment starts.  Left alone,
    the tracker outlives the run until its pipe closes, and nobody
    reaps it afterwards."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # Closing the tracker's pipe ends it; _stop() then waits for it.
    resource_tracker._resource_tracker._stop()
