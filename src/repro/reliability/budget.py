"""Execution guards: step budgets and wall-clock deadlines.

A :class:`Budget` is an immutable spec — *how much* work a run may
do.  Each backend derives a private :class:`BudgetMeter` from it and
ticks the meter once per VM instruction / interpreter statement; when
the budget is exhausted the meter raises
:class:`~repro.reliability.errors.BudgetExceeded` instead of letting a
malformed flattened loop (zero-progress ``next``/``done`` flag logic,
a ``DO`` stride bug) spin forever.

Deadlines are polled every :attr:`Budget.check_every` ticks so the
guard costs one integer compare on the hot path.  The VM accounts a
compiled block in one :meth:`BudgetMeter.advance`, and runs a block
only when all its steps fit in what remains, so a budget trips on the
exact step whether or not blocks run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..lang.errors import UNKNOWN_LOCATION
from .errors import BudgetExceeded

#: Default step ceiling of every backend: what ``Budget()`` and a run
#: without a budget enforce.
DEFAULT_MAX_STEPS = 20_000_000


@dataclass(frozen=True)
class Budget:
    """Bounds on one execution attempt.

    Attributes:
        max_steps: Maximum VM instructions / interpreter statements
            (None = unbounded).
        deadline_seconds: Wall-clock ceiling per attempt
            (None = unbounded).
        check_every: How many ticks between deadline polls.
    """

    max_steps: int | None = DEFAULT_MAX_STEPS
    deadline_seconds: float | None = None
    check_every: int = 256

    def meter(self) -> "BudgetMeter":
        """A fresh meter enforcing this budget for one attempt."""
        return BudgetMeter(self)


class BudgetMeter:
    """Counts execution steps against a :class:`Budget`.

    Attributes:
        budget: The spec being enforced.
        steps: Steps ticked so far.
    """

    __slots__ = ("budget", "steps", "_deadline")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.steps = 0
        self._deadline = (
            time.monotonic() + budget.deadline_seconds
            if budget.deadline_seconds is not None
            else None
        )

    def tick(self, location=UNKNOWN_LOCATION) -> None:
        """Account one step; raise :class:`BudgetExceeded` past the limit."""
        self.steps += 1
        max_steps = self.budget.max_steps
        if max_steps is not None and self.steps > max_steps:
            raise BudgetExceeded(
                f"step budget exceeded ({max_steps} steps); "
                "suspected runaway loop",
                location if location is not None else UNKNOWN_LOCATION,
            )
        if (
            self._deadline is not None
            and self.steps % self.budget.check_every == 0
            and time.monotonic() > self._deadline
        ):
            raise BudgetExceeded(
                f"deadline exceeded ({self.budget.deadline_seconds}s "
                f"after {self.steps} steps)",
                location if location is not None else UNKNOWN_LOCATION,
            )

    def advance(self, count: int, location=UNKNOWN_LOCATION) -> None:
        """Account ``count`` retired steps that fit in the step budget.

        The VM's block closures call this once per block; the machine
        runs a block only when its steps fit, so only the deadline is
        checked here, polled once per block (blocks are rarer than
        ``check_every`` single ticks).
        """
        self.steps += count
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(
                f"deadline exceeded ({self.budget.deadline_seconds}s "
                f"after {self.steps} steps)",
                location if location is not None else UNKNOWN_LOCATION,
            )

    def remaining(self) -> int | None:
        """Steps left before the next tick trips (None = unbounded)."""
        max_steps = self.budget.max_steps
        return None if max_steps is None else max_steps - self.steps

    def add_silent(self, count: int) -> None:
        """Account steps without raising (error paths already unwinding)."""
        self.steps += count
