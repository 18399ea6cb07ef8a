"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` describes, up front and reproducibly, what is
going to go wrong: which PEs are dead, at which step indices a
transient fault fires, which backends refuse to run at all.  Any
machine (VM, scalar interpreter, MIMD simulator) accepts a plan
and consults it during execution, so chaos tests can *prove* that the
fallback chain and the crash dumps work — the same plan always
produces the same failure.

Injected faults surface as
:class:`~repro.reliability.errors.BackendFault` (retryable).  With
``transient=True`` (the default) each op fault fires exactly once per
plan instance, so a retry — on the same backend or the next one in
the chain — succeeds; a plan is therefore *stateful* and should be
built fresh per experiment.

The process-parallel backend (:mod:`repro.exec.pmimd`) adds a *pool
level* of injection: whole workers can be killed mid-shard
(``worker_kill``), wedged so their heartbeat goes silent
(``worker_hang``), or artificially delayed so the straggler detector
has something to catch (``worker_slow``) — either by explicit shard
index or at a seeded ``worker_fault_rate``.  Worker faults are
deterministic in ``(seed, shard)`` and fire only on a shard's *first*
attempt, so the supervisor's replay of the shard on a healthy worker
always succeeds; state never has to be shared across processes for
the transient semantics to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BackendFault


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of injected failures.

    Attributes:
        seed: RNG seed for the random components (PE dropout).
        dropout_pes: Explicit 0-based PE indices to kill.
        dropout_rate: Additionally kill each PE with this probability
            (drawn deterministically from ``seed``).
        op_faults: Step indices (1-based executed-step counts) at
            which a transient fault fires.
        fail_backends: Backends that fail outright at run start.
        backends: Restrict dropout and op faults to these backends
            (empty = apply on every backend).
        transient: Each op fault fires once per plan instance; a
            retry proceeds past it.
        worker_kill: Shard indices whose first execution attempt dies
            abruptly (the worker process ``_exit``\\ s mid-shard).
        worker_hang: Shard indices whose first attempt wedges: the
            worker stops heartbeating for :attr:`hang_seconds` before
            proceeding — the supervisor should kill it well before.
        worker_slow: Shard indices whose first attempt is delayed by
            :attr:`slow_seconds` (heartbeats keep flowing — the shard
            is a *straggler*, not a corpse).
        worker_fault_rate: Additionally fault each shard's first
            attempt with this probability, drawing the kind from
            :attr:`worker_fault_kinds` (deterministic in
            ``(seed, shard)``).
        worker_fault_kinds: Kinds the random component draws from.
        slow_seconds: Delay injected for a ``slow`` worker fault.
        hang_seconds: Heartbeat silence injected for a ``hang`` fault.
        kill_after_steps: When set, a ``kill`` worker fault fires not
            on task receipt but after this many interpreted statements
            into the shard attempt (summed across its processors) —
            the worker dies *between* checkpoints, which is what
            checkpoint-recovery chaos tests need to prove bounded-loss
            replay.
    """

    seed: int = 0
    dropout_pes: tuple[int, ...] = ()
    dropout_rate: float = 0.0
    op_faults: tuple[int, ...] = ()
    fail_backends: tuple[str, ...] = ()
    backends: tuple[str, ...] = ()
    transient: bool = True
    worker_kill: tuple[int, ...] = ()
    worker_hang: tuple[int, ...] = ()
    worker_slow: tuple[int, ...] = ()
    worker_fault_rate: float = 0.0
    worker_fault_kinds: tuple[str, ...] = ("kill", "hang", "slow")
    slow_seconds: float = 0.25
    hang_seconds: float = 60.0
    kill_after_steps: int | None = None
    _fired: set = field(default_factory=set, repr=False, compare=False)

    def targets(self, backend: str) -> bool:
        """Whether dropout / op faults apply on this backend."""
        return not self.backends or backend in self.backends

    def check_backend(self, backend: str) -> None:
        """Raise the forced failure for a backend listed in ``fail_backends``."""
        if backend in self.fail_backends:
            raise BackendFault(f"injected backend failure on '{backend}'")

    def dropout_mask(self, nproc: int, backend: str) -> np.ndarray:
        """Alive-lanes mask (True = alive), deterministic in ``seed``."""
        alive = np.ones(nproc, dtype=bool)
        if not self.targets(backend):
            return alive
        for pe in self.dropout_pes:
            if 0 <= pe < nproc:
                alive[pe] = False
        if self.dropout_rate > 0.0:
            rng = np.random.default_rng(self.seed)
            alive &= rng.random(nproc) >= self.dropout_rate
        return alive

    def op_fault(self, step: int, backend: str) -> bool:
        """Whether an injected fault fires at this executed-step count."""
        if not self.targets(backend) or step not in self.op_faults:
            return False
        if self.transient:
            if step in self._fired:
                return False
            self._fired.add(step)
        return True

    def raise_op_fault(self, step: int, backend: str) -> None:
        """Consult :meth:`op_fault` and raise the injected fault."""
        if self.op_fault(step, backend):
            raise BackendFault(
                f"injected transient fault at step {step} on '{backend}'"
            )

    def worker_fault(
        self, shard: int, attempt: int, backend: str = "pmimd"
    ) -> str | None:
        """Pool-level fault for one shard attempt (or None).

        Returns ``"kill"``, ``"hang"`` or ``"slow"``.  Worker faults
        are always transient: only a shard's first attempt
        (``attempt == 0``) can fault, so a supervisor replay succeeds
        without any cross-process plan state.  Deterministic in
        ``(seed, shard)`` — the same plan injects the same failures
        into every run of the same shard schedule.
        """
        if attempt != 0 or not self.targets(backend):
            return None
        if shard in self.worker_kill:
            return "kill"
        if shard in self.worker_hang:
            return "hang"
        if shard in self.worker_slow:
            return "slow"
        if self.worker_fault_rate > 0.0 and self.worker_fault_kinds:
            rng = np.random.default_rng((self.seed, 0x7A17, shard))
            if rng.random() < self.worker_fault_rate:
                kinds = self.worker_fault_kinds
                return kinds[int(rng.integers(len(kinds)))]
        return None
