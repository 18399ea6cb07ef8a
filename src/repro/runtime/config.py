"""Run settings: :class:`BackendConfig` and the folded :class:`RunSpec`.

Every run setting has one spelling.  The settings every backend reads
(``nproc``, ``externals``, ``budget``, ``fault_plan``,
``checkpoint_every``, ``checkpoint_dir``) are
:meth:`CompiledProgram.run` keywords; :class:`BackendConfig` holds
only the backend tuning that ``run()`` has no keyword for and that
callers need different values of: ``vm_fuse``, ``workers`` and
``supervision``.  Tuning no caller sets is a constant of the module
that reads it (the pmimd shard plan in :mod:`repro.exec.pmimd`, the
retry, backoff, straggler and respawn constants in
:mod:`repro.reliability.supervisor`).

:meth:`CompiledProgram.run` folds its keywords and the config exactly
once, into a frozen :class:`RunSpec`, refusing every bad value and
every contradictory argument combination with an
:class:`~repro.lang.errors.InterpreterError` before any backend runs.
Resolution, execution and the fallback loop all read that one spec,
and each backend is built from the spec fields it reads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BackendConfig:
    """Backend tuning a run carries beside its ``run()`` keywords.

    Attributes:
        vm_fuse: Run straight-line blocks as compiled closures (VM only;
            False steps per instruction, the reference mode).
        workers: Worker-process pool size (pmimd only; None picks a
            per-core default).  The pool runs ``min(nproc, 2 ×
            workers)`` contiguous shards of processors.
        supervision: A
            :class:`~repro.reliability.supervisor.SupervisionPolicy`
            for the worker pool (pmimd only; None uses the defaults).
    """

    vm_fuse: bool = True
    workers: int | None = None
    supervision: object | None = None


#: The config of a run that passes none.
DEFAULT_CONFIG = BackendConfig()


@dataclass(frozen=True)
class RunSpec:
    """One run request, folded and validated once by
    :meth:`CompiledProgram.run`.

    Attributes:
        backend: Canonical requested backend; for a resumed run, the
            checkpoint's own backend (``"vm"`` or ``"scalar"``).
        policy: The caller's :class:`~repro.reliability.FallbackPolicy`,
            or None for a plain run — the one-backend chain
            ``(backend,)`` with no retries and no attempt log.
        nproc: Machine width; for a vm resume without one, the
            checkpoint's.
        config: The caller's :class:`BackendConfig` (or the default).
        routine_name: The routine to run, case-folded.
        externals, budget, fault_plan, checkpoint_every,
        checkpoint_dir, bindings, statement_hook, bindings_for,
        statement_hook_for, checkpoint_sink, resume_from: The
            per-call pieces of :meth:`CompiledProgram.run`, unchanged.
    """

    backend: str
    policy: object | None
    nproc: int
    config: BackendConfig
    externals: dict | None
    budget: object | None
    fault_plan: object | None
    checkpoint_every: int | None
    checkpoint_dir: str | None
    bindings: dict | None
    statement_hook: object
    routine_name: str | None
    bindings_for: object
    statement_hook_for: object
    checkpoint_sink: object
    resume_from: object


__all__ = ["BackendConfig", "RunSpec"]
