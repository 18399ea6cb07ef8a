"""Execution guardrails, fault taxonomy, fallback chain, fault injection.

The cross-cutting robustness layer of the runtime:

* :class:`Budget` / :class:`BudgetMeter` — step and wall-clock guards
  threaded into every backend, so runaway flattened loops raise a
  structured :class:`BudgetExceeded` instead of hanging;
* the :class:`ReliabilityError` taxonomy (:class:`BudgetExceeded`,
  :class:`BackendFault`, :class:`DivergenceFault`,
  :class:`OutOfBoundsFault`) carrying source locations and
  :class:`MachineSnapshot` crash dumps;
* :class:`FallbackPolicy` — the Engine's degrading backend chain with
  per-attempt records (:class:`Attempt`) and optional cross-backend
  agreement checking;
* :class:`FaultPlan` — seeded, deterministic fault injection (PE
  dropout, transient op faults, forced backend failure, worker
  kill/hang/slow) for chaos tests;
* :class:`WorkerSupervisor` / :class:`SupervisionPolicy` — the
  process-pool failure model behind the pmimd backend (heartbeats,
  straggler speculation, bounded retries with backoff, cross-process
  crash-dump reconstruction via :func:`error_from_dump`);
* :class:`Checkpoint` / :class:`CheckpointStore` — durable execution:
  restorable machine state captured at bounded intervals plus the
  crash-safe on-disk store (atomic writes, digest-verified loads,
  generation fallback) that resume-from-checkpoint recovery reads.
"""

from .budget import BEAT_TICKS, DEFAULT_MAX_STEPS, Budget, BudgetMeter
from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)
from .errors import (
    BackendFault,
    BudgetExceeded,
    DivergenceFault,
    OutOfBoundsFault,
    ReliabilityError,
    attach_snapshot,
    crash_dump_for,
    locate,
)
from .faults import FaultPlan
from .policy import BACKENDS, Attempt, FallbackPolicy, check_agreement
from .snapshot import MachineSnapshot, TRACE_DEPTH, render_mask, snapshot_env
from .supervisor import (
    SupervisionOutcome,
    SupervisionPolicy,
    WorkerSupervisor,
    error_from_dump,
    snapshot_from_dump,
)

__all__ = [
    "BACKENDS",
    "Attempt",
    "BackendFault",
    "Budget",
    "BudgetExceeded",
    "BudgetMeter",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "DEFAULT_MAX_STEPS",
    "BEAT_TICKS",
    "DivergenceFault",
    "FallbackPolicy",
    "FaultPlan",
    "MachineSnapshot",
    "OutOfBoundsFault",
    "ReliabilityError",
    "SupervisionOutcome",
    "SupervisionPolicy",
    "TRACE_DEPTH",
    "WorkerSupervisor",
    "attach_snapshot",
    "check_agreement",
    "crash_dump_for",
    "error_from_dump",
    "locate",
    "render_mask",
    "snapshot_env",
    "snapshot_from_dump",
]
