"""MIMD simulator: P independent sequential interpreters.

Models the paper's F77mimd execution level (Figure 3): each processor
has a *separate name space* and runs the same program text on its own
data.  The simulated parallel time is the maximum over processors of
the per-processor work — Equation 1's ``max_p Σ_i L_i^p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..reliability import Budget
from .counters import ExecutionCounters
from .scalar import ScalarInterpreter


@dataclass
class MIMDResult:
    """Outcome of a MIMD run.

    Attributes:
        envs: Final environment of each processor.
        counters: Per-processor execution counters.
    """

    envs: list[dict]
    counters: list[ExecutionCounters]
    statements: list[int] = field(default_factory=list)

    @property
    def nproc(self) -> int:
        return len(self.envs)

    def time_steps(self, kind: str | None = None) -> int:
        """Parallel completion time: max over processors.

        Args:
            kind: Restrict to one event kind (e.g. ``"call"``); by
                default all lockstep-equivalent steps count.
        """
        if kind is None:
            return max((c.total_steps for c in self.counters), default=0)
        return max((c.layer_steps.get(kind, 0) for c in self.counters), default=0)

    def call_counts(self, name: str) -> list[int]:
        """Per-processor number of calls to an external routine."""
        return [c.calls.get(name, 0) for c in self.counters]

    def time_calls(self, name: str) -> int:
        """Parallel time measured in calls to ``name`` (Eq. 1 with unit cost)."""
        return max(self.call_counts(name), default=0)


class MIMDSimulator:
    """Runs the same routine on P processors with private name spaces.

    Args:
        source: Parsed program (SPMD text, same for every processor).
        nproc: Number of processors.
        externals: External subroutine registry shared by all
            processors (called with each processor's interpreter).
        budget: Per-processor execution guard
            (:class:`~repro.reliability.Budget`).
        fault_plan: Deterministic fault injection shared by all
            processors (:class:`~repro.reliability.FaultPlan`).
    """

    def __init__(
        self,
        source: ast.SourceFile,
        nproc: int,
        externals: dict | None = None,
        budget: Budget | None = None,
        fault_plan=None,
    ):
        self.source = source
        self.nproc = nproc
        self.externals = externals or {}
        self.budget = budget
        self.fault_plan = fault_plan

    @classmethod
    def from_config(cls, source: ast.SourceFile, config) -> "MIMDSimulator":
        """Construct from a :class:`~repro.runtime.BackendConfig`.

        ``config.budget`` guards each processor, as on the scalar
        backend.  Per-processor interpreters each get fresh counters;
        ``config.counters``/``vm_fuse`` do not apply to this backend
        and are ignored.
        """
        return cls(
            source,
            config.nproc,
            externals=config.externals,
            budget=config.budget,
            fault_plan=config.fault_plan,
        )

    def run(
        self,
        bindings_for=None,
        routine_name: str | None = None,
        statement_hook_for=None,
    ) -> MIMDResult:
        """Execute the program on every processor.

        Args:
            bindings_for: Callable ``p -> dict`` giving processor ``p``
                (1-based) its initial environment; every environment
                automatically receives ``myproc`` and ``nproc``.
            routine_name: Routine to run (main program by default).
            statement_hook_for: Optional callable ``p -> hook`` giving
                each processor its own statement hook.

        Returns:
            A :class:`MIMDResult` with per-processor envs and counters.
        """
        if self.fault_plan is not None:
            self.fault_plan.check_backend("mimd")
        envs: list[dict] = []
        counters: list[ExecutionCounters] = []
        statements: list[int] = []
        for p in range(1, self.nproc + 1):
            bindings = dict(bindings_for(p)) if bindings_for is not None else {}
            bindings.setdefault("myproc", p)
            bindings.setdefault("nproc", self.nproc)
            hook = statement_hook_for(p) if statement_hook_for is not None else None
            interp = ScalarInterpreter(
                self.source,
                self.externals,
                statement_hook=hook,
                budget=self.budget,
                fault_plan=self.fault_plan,
            )
            env = interp.run(routine_name=routine_name, bindings=bindings)
            envs.append(env)
            counters.append(interp.counters)
            statements.append(interp.executed_statements)
        return MIMDResult(envs, counters, statements)
