"""Execution guards: step budgets and wall-clock deadlines.

A :class:`Budget` is an immutable spec — *how much* work a run may
do.  Each backend derives a private :class:`BudgetMeter` from it and
ticks the meter once per VM instruction / interpreter statement; when
the budget is exhausted the meter raises
:class:`~repro.reliability.errors.BudgetExceeded` instead of letting a
malformed flattened loop (zero-progress ``next``/``done`` flag logic,
a ``DO`` stride bug) spin forever.

Deadlines are polled every :attr:`Budget.check_every` ticks, and a
meter given a ``beat`` publishes liveness at the same poll (a forked
pmimd worker's heartbeat), at least every :data:`BEAT_TICKS` ticks
whatever ``check_every`` says.  A tick costs one integer compare: the
meter keeps the step of its next poll or step-limit check.  The VM
accounts a compiled block in one :meth:`BudgetMeter.advance`, and runs
a block only when all its steps fit in what remains, so a budget trips
on the exact step whether or not blocks run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..lang.errors import UNKNOWN_LOCATION
from .errors import BudgetExceeded

#: Default step ceiling of every backend: what ``Budget()`` and a run
#: without a budget enforce.
DEFAULT_MAX_STEPS = 20_000_000

#: Longest run of ticks between two beats of a meter with a ``beat``:
#: a ``check_every`` above it polls this often instead, so a worker's
#: heartbeat never waits on a caller's deadline cadence.
BEAT_TICKS = 256

#: ``_due`` of a meter with neither a step limit nor anything to poll.
_NEVER = 1 << 62


@dataclass(frozen=True)
class Budget:
    """Bounds on one execution attempt.

    Attributes:
        max_steps: Maximum VM instructions / interpreter statements
            (None = unbounded).
        deadline_seconds: Wall-clock ceiling per attempt
            (None = unbounded).
        check_every: How many ticks between deadline polls (an int
            >= 1; a meter with a beat polls at least every
            :data:`BEAT_TICKS` ticks).
    """

    max_steps: int | None = DEFAULT_MAX_STEPS
    deadline_seconds: float | None = None
    check_every: int = 256

    def __post_init__(self):
        every = self.check_every
        if type(every) is not int or every < 1:
            raise ValueError(f"check_every must be an int >= 1, got {every!r}")

    def meter(self, beat=None) -> "BudgetMeter":
        """A fresh meter enforcing this budget for one attempt.

        ``beat(now, steps)``, when given, is called at every poll with
        the monotonic clock and the steps so far.
        """
        return BudgetMeter(self, beat)


class BudgetMeter:
    """Counts execution steps against a :class:`Budget`.

    Attributes:
        budget: The spec being enforced.
        steps: Steps ticked so far.
    """

    __slots__ = ("budget", "steps", "_deadline", "_beat", "_every", "_due")

    def __init__(self, budget: Budget, beat=None):
        self.budget = budget
        self.steps = 0
        self._deadline = (
            time.monotonic() + budget.deadline_seconds
            if budget.deadline_seconds is not None
            else None
        )
        self._beat = beat
        # Ticks between polls (None: nothing to poll).  A beat polls at
        # least every BEAT_TICKS ticks, and the deadline rides along.
        if beat is not None:
            self._every = min(budget.check_every, BEAT_TICKS)
        elif self._deadline is not None:
            self._every = budget.check_every
        else:
            self._every = None
        self._schedule()

    def _schedule(self) -> None:
        """Set ``_due``, the step of the next poll or step-limit check."""
        due = self.budget.max_steps
        due = _NEVER if due is None else due + 1
        every = self._every
        if every is not None:
            due = min(due, (self.steps // every + 1) * every)
        self._due = due

    def tick(self, location=UNKNOWN_LOCATION) -> None:
        """Account one step; raise :class:`BudgetExceeded` past the limit."""
        self.steps += 1
        if self.steps >= self._due:
            self._check(location)

    def _check(self, location) -> None:
        """The slow half of :meth:`tick`: the step limit, then — on a
        multiple of the poll interval — the deadline and the beat."""
        steps = self.steps
        max_steps = self.budget.max_steps
        if max_steps is not None and steps > max_steps:
            raise BudgetExceeded(
                f"step budget exceeded ({max_steps} steps); "
                "suspected runaway loop",
                location if location is not None else UNKNOWN_LOCATION,
            )
        every = self._every
        if every is not None and steps % every == 0:
            now = time.monotonic()
            if self._deadline is not None and now > self._deadline:
                raise BudgetExceeded(
                    f"deadline exceeded ({self.budget.deadline_seconds}s "
                    f"after {steps} steps)",
                    location if location is not None else UNKNOWN_LOCATION,
                )
            if self._beat is not None:
                self._beat(now, steps)
        self._schedule()

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
