"""Execution engines: sequential (F77), MIMD, lockstep SIMD, and SPMD.

The interpreters implement the execution levels of the paper's
Section 2 language family and share one value model, one intrinsic
registry, and one event-accounting scheme.  The MIMD level exists
twice: :class:`MIMDSimulator` models Eq. 1 in-process, while
:class:`PMIMDExecutor` runs the same per-processor programs across a
supervised pool of real worker processes.
"""

from .counters import EVENT_KINDS, ExecutionCounters
from .intrinsics import call_intrinsic
from .mimd import MIMDResult, MIMDSimulator
from .pmimd import (
    PMIMDExecutor,
    PMIMDResult,
    Shard,
    plan_shards,
    replicate_bindings,
)
from .scalar import ScalarInterpreter
from .shm import SharedArraySpec, ShmArena
from .simd import SIMDInterpreter
from .values import FArray

__all__ = [
    "ExecutionCounters",
    "EVENT_KINDS",
    "FArray",
    "call_intrinsic",
    "ScalarInterpreter",
    "SIMDInterpreter",
    "MIMDSimulator",
    "MIMDResult",
    "PMIMDExecutor",
    "PMIMDResult",
    "Shard",
    "SharedArraySpec",
    "ShmArena",
    "plan_shards",
    "replicate_bindings",
]
