"""Run settings: :class:`BackendConfig` and the folded :class:`RunSpec`.

The four execution backends historically grew four different
constructor signatures (the scalar interpreter has no ``nproc``, the
MIMD simulator takes no ``counters``, the VM adds ``fuse``...).
:class:`BackendConfig` is the one bag of settings every backend knows
how to consume via its ``from_config`` classmethod.

:meth:`CompiledProgram.run` folds its keywords over the caller's
config exactly once, into a frozen :class:`RunSpec`, refusing every
contradictory argument combination before any backend runs.
Resolution, execution and the fallback loop all read that one spec.

Fields a backend does not support are simply ignored by its
``from_config`` (e.g. ``vm_fuse`` outside the VM), so one config can
drive a whole fallback chain.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BackendConfig:
    """Constructor settings shared by all execution backends.

    Attributes:
        nproc: PE/processor count (0 = sequential-only contexts).
        externals: External subroutine registry (name → callable).
        counters: An :class:`~repro.exec.counters.ExecutionCounters`
            to accumulate into, or None for a fresh accumulator.
        budget: Execution guard (:class:`~repro.reliability.Budget`),
            or None for the default step cap
            (:data:`~repro.reliability.budget.DEFAULT_MAX_STEPS`).
        fault_plan: Deterministic fault injection plan, or None.
        vm_fuse: Run straight-line blocks as compiled closures (VM only;
            False steps per instruction, the reference mode).
        workers: Worker-process pool size (pmimd only; None picks a
            per-core default).
        shards: Shard count for the processor partition (pmimd only;
            None picks ``min(nproc, 2 × workers)``).
        shard_layout: ``"block"`` or ``"cyclic"`` processor-to-shard
            distribution (pmimd only).
        supervision: A
            :class:`~repro.reliability.supervisor.SupervisionPolicy`
            for the worker pool (pmimd only; None uses the defaults).
        checkpoint_every: Capture a restorable
            :class:`~repro.reliability.checkpoint.Checkpoint` every
            this many executed steps/statements (vm, scalar and pmimd
            backends; None disables durable execution).
        checkpoint_dir: Root of the on-disk
            :class:`~repro.reliability.checkpoint.CheckpointStore`.
            For vm/scalar runs the Engine saves each capture there
            (key ``"run"``); for pmimd the workers keep per-processor
            keys so shard replays resume instead of rerunning.
    """

    nproc: int = 0
    externals: dict | None = None
    counters: object | None = None
    budget: object | None = None
    fault_plan: object | None = None
    vm_fuse: bool = True
    workers: int | None = None
    shards: int | None = None
    shard_layout: str = "block"
    supervision: object | None = None
    checkpoint_every: int | None = None
    checkpoint_dir: str | None = None


@dataclass(frozen=True)
class RunSpec:
    """One run request, folded and validated once by
    :meth:`CompiledProgram.run`.

    Attributes:
        config: The merged :class:`BackendConfig` every backend of the
            run is built from.
        backend: Canonical requested backend; for a resumed run, the
            checkpoint's own backend (``"vm"`` or ``"scalar"``).
        policy: The caller's :class:`~repro.reliability.FallbackPolicy`,
            or None for a plain run — the one-backend chain
            ``(backend,)`` with no retries and no attempt log.
        routine_name: The routine to run, case-folded.
        bindings, statement_hook, bindings_for, statement_hook_for,
        checkpoint_sink, resume_from: The per-call pieces of
            :meth:`CompiledProgram.run`, unchanged.
    """

    config: BackendConfig
    backend: str
    policy: object | None
    bindings: dict | None
    statement_hook: object
    routine_name: str | None
    bindings_for: object
    statement_hook_for: object
    checkpoint_sink: object
    resume_from: object


__all__ = ["BackendConfig", "RunSpec"]
