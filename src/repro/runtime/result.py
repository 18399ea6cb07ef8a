"""Structured results for Engine-driven runs.

Every execution backend (scalar tree-walker, SIMD tree-walker,
bytecode VM, MIMD simulator) historically returned its own shape —
``(env, counters)`` tuples here, a :class:`~repro.exec.mimd.MIMDResult`
there.  :class:`RunResult` unifies them: one dataclass carrying the
final environment, the :class:`~repro.exec.counters.ExecutionCounters`,
and the provenance of the run (backend used, cache hit/miss, wall
time, per-stage timings).

Read the outcome by name::

    result = program.run(bindings, nproc=8)
    env, counters = result.env, result.counters

A result is not a tuple and does not unpack.  When produced by the
MIMD backends (where ``env`` and ``counters`` hold per-processor
lists), it answers the :class:`MIMDResult` aggregate queries
(``envs``, ``time_steps``, ``call_counts``, ``time_calls``) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunResult:
    """Outcome of one :meth:`CompiledProgram.run`.

    Attributes:
        env: Final environment — a dict, or a per-processor list of
            dicts for the MIMD backend.
        counters: Execution counters — one accumulator, or a
            per-processor list for the MIMD backend.
        backend: Backend that actually ran (``"vm"``,
            ``"interpreter"``, ``"scalar"``, ``"mimd"``).
        nproc: PE/processor count of the run (0 = sequential).
        cache_hit: Whether the compiled artifact came from the
            Engine's cache rather than a fresh compile.
        wall_seconds: End-to-end execution wall time.
        steps: Lockstep step count of the run
            (``counters.total_steps``; for MIMD the parallel
            completion time, i.e. the max over processors).  Together
            with ``wall_seconds`` this is what the benchmark
            trajectory (``repro bench``) records per cell.
        stage_seconds: Per-stage timings (``parse``, ``transform``,
            ``bytecode`` from the compile that produced the artifact,
            plus ``run``).
        statements: Backend work metric — statements executed by the
            tree-walkers, instructions retired by the VM, or a
            per-processor statement list for MIMD.
        attempts: Execution attempts made under a
            :class:`~repro.reliability.FallbackPolicy`, in order
            (empty for plain single-backend runs).  Each is an
            :class:`~repro.reliability.Attempt`; failed ones carry a
            crash dump.
        events: Supervision event log of the run — recovery decisions
            (dispatch, worker-dead, retry, speculate, ...) recorded by
            the pmimd backend's
            :class:`~repro.reliability.supervisor.WorkerSupervisor`;
            empty for single-process backends.
        resumed_from_step: When the run continued from a
            :class:`~repro.reliability.checkpoint.Checkpoint`, the
            step it resumed at; None for runs started from step 0.
    """

    env: object
    counters: object
    backend: str
    nproc: int
    cache_hit: bool = False
    wall_seconds: float = 0.0
    steps: int = 0
    stage_seconds: dict = field(default_factory=dict)
    statements: object = None
    attempts: list = field(default_factory=list)
    events: list = field(default_factory=list)
    resumed_from_step: int | None = None

    # -- MIMD aggregate queries (mirror MIMDResult) -------------------------

    @property
    def envs(self) -> list:
        """Per-processor environments (MIMD); ``[env]`` otherwise."""
        return self.env if isinstance(self.env, list) else [self.env]

    def _counter_list(self) -> list:
        return self.counters if isinstance(self.counters, list) else [self.counters]

    def time_steps(self, kind: str | None = None) -> int:
        """Parallel completion time: max over processors (Eq. 1)."""
        counters = self._counter_list()
        if kind is None:
            return max((c.total_steps for c in counters), default=0)
        return max((c.layer_steps.get(kind, 0) for c in counters), default=0)

    def call_counts(self, name: str) -> list[int]:
        """Per-processor number of calls to an external routine."""
        return [c.calls.get(name, 0) for c in self._counter_list()]

    def time_calls(self, name: str) -> int:
        """Parallel time measured in calls to ``name``."""
        return max(self.call_counts(name), default=0)
