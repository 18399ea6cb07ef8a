"""Execution-trace recording (the paper's Figures 4 and 6).

The figures tabulate, per lockstep time step, which (outer, inner)
iteration each processor is executing — empty cells mean the processor
idles.  Recorders plug into the interpreters' statement hooks and
capture the values of chosen variables whenever a designated *body*
statement executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lang import ast


def _match_body(stmt: ast.Stmt, label: int | None, predicate) -> bool:
    if predicate is not None:
        return bool(predicate(stmt))
    if label is not None:
        return stmt.label == label
    return False


@dataclass
class TraceTable:
    """A Figures-4/6 style trace: per (variable, processor) rows over time.

    ``rows[(var, p)]`` is a list over time steps; ``None`` marks an
    idle processor ("no entry" in the paper's figures).
    """

    variables: tuple[str, ...]
    nproc: int
    rows: dict[tuple[str, int], list[int | None]] = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return max((len(v) for v in self.rows.values()), default=0)

    def row(self, var: str, proc: int) -> list[int | None]:
        return self.rows.get((var, proc), [])

    def busy_steps(self, proc: int) -> int:
        """Steps in which processor ``proc`` did useful work."""
        reference = self.rows.get((self.variables[0], proc), [])
        return sum(1 for cell in reference if cell is not None)

    def format(self) -> str:
        """Render the trace like the paper's figures."""
        width = max(3, len(str(self.steps)))
        header = "Time |" + "".join(f"{t:>{width}}" for t in range(1, self.steps + 1))
        lines = [header, "-" * len(header)]
        for var in self.variables:
            for proc in range(1, self.nproc + 1):
                cells = self.rows.get((var, proc), [])
                cells = cells + [None] * (self.steps - len(cells))
                body = "".join(
                    f"{'' if cell is None else cell:>{width}}" for cell in cells
                )
                lines.append(f"{var}_{proc:<2}|" + body)
        return "\n".join(lines)


class SIMDTraceRecorder:
    """Records a lockstep trace from a VM run.

    Args:
        variables: Environment variables to tabulate (e.g. ``("i", "j")``).
        nproc: Lane count.
        body_label: Statement label marking BODY, or
        body_predicate: Callable ``stmt -> bool`` selecting BODY.

    Pass :attr:`hook` as the interpreter's ``statement_hook``.
    """

    def __init__(
        self,
        variables: tuple[str, ...],
        nproc: int,
        body_label: int | None = None,
        body_predicate=None,
    ):
        self.table = TraceTable(tuple(variables), nproc)
        self._label = body_label
        self._predicate = body_predicate
        for var in variables:
            for proc in range(1, nproc + 1):
                self.table.rows[(var, proc)] = []

    def hook(self, stmt: ast.Stmt, env: dict, mask) -> None:
        if not _match_body(stmt, self._label, self._predicate):
            return
        lanes = np.asarray(mask)
        if lanes.ndim > 1:
            lanes = lanes.any(axis=tuple(range(1, lanes.ndim)))
        for var in self.table.variables:
            value = env.get(var)
            if hasattr(value, "data"):  # FArray
                value = value.data
            values = (
                np.asarray(value)
                if isinstance(value, np.ndarray)
                else np.full(self.table.nproc, value)
            )
            for proc in range(1, self.table.nproc + 1):
                cell = int(values[proc - 1]) if lanes[proc - 1] else None
                self.table.rows[(var, proc)].append(cell)


class MIMDTraceRecorder:
    """Records per-processor traces from MIMD runs (Figure 4).

    Each processor has its own time axis (its body-execution count);
    use :meth:`hook_for` to get processor ``p``'s statement hook.
    """

    def __init__(
        self,
        variables: tuple[str, ...],
        nproc: int,
        body_label: int | None = None,
        body_predicate=None,
    ):
        self.table = TraceTable(tuple(variables), nproc)
        self._label = body_label
        self._predicate = body_predicate
        for var in variables:
            for proc in range(1, nproc + 1):
                self.table.rows[(var, proc)] = []

    def hook_for(self, proc: int):
        def hook(stmt: ast.Stmt, env: dict) -> None:
            if not _match_body(stmt, self._label, self._predicate):
                return
            for var in self.table.variables:
                value = env.get(var)
                self.table.rows[(var, proc)].append(
                    int(value) if value is not None else None
                )

        return hook
