"""The degrading backend-fallback chain.

A :class:`FallbackPolicy` tells the Engine what to do when an
execution attempt dies with a *retryable* fault (see
:mod:`repro.reliability.errors`): retry the same backend up to
``retries`` more times (transient faults clear themselves), then
degrade to the next backend in ``chain`` — typically from the fast
bytecode VM down to the tree-walking interpreter, mirroring the
guarded-execution / safe-fallback pattern of speculative loop
optimizers.  Every attempt — failed or not — is recorded as an
:class:`Attempt` in ``RunResult.attempts`` with its crash dump.

With ``verify=True`` the remaining backends of the chain run even
after a success and their final environments and counters are checked
for agreement, turning the chain into an online differential test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BackendFault, ReliabilityError

#: The execution backends, each under its one accepted name.
BACKENDS = ("auto", "vm", "interpreter", "scalar", "mimd", "pmimd")


def canonical_backend(name) -> str | None:
    """``name`` as a member of :data:`BACKENDS` (case and surrounding
    blanks ignored), or None when it names no backend."""
    if not isinstance(name, str):
        return None
    name = name.strip().lower()
    return name if name in BACKENDS else None


@dataclass
class Attempt:
    """One execution attempt made under a :class:`FallbackPolicy`.

    Attributes:
        backend: Backend the attempt ran on.
        ok: Whether it produced a result.
        wall_seconds: Attempt wall time.
        steps: Steps executed (instructions/statements), if known.
        error: ``"ClassName: message"`` for a failed attempt.
        fault_kind: Taxonomy class name of the failure
            (``"BackendFault"``...), None for successful attempts.
        crash_dump: Postmortem dict for a failed attempt
            (see :func:`~repro.reliability.errors.crash_dump_for`).
    """

    backend: str
    ok: bool
    wall_seconds: float = 0.0
    steps: object = None
    error: str | None = None
    fault_kind: str | None = None
    crash_dump: dict | None = None

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "ok": self.ok,
            "wall_seconds": self.wall_seconds,
            "steps": self.steps,
            "error": self.error,
            "fault_kind": self.fault_kind,
            "crash_dump": self.crash_dump,
        }


@dataclass(frozen=True)
class FallbackPolicy:
    """Retry/degrade strategy for one run.

    Attributes:
        chain: Backends to try, in degrading order.
        retries: Extra same-backend attempts allowed per backend when
            the fault is retryable (transient faults clear on retry).
        verify: Run every backend of the chain even after a success
            and assert env/counter agreement between the survivors.
    """

    chain: tuple[str, ...] = ("vm", "interpreter")
    retries: int = 1
    verify: bool = False

    def __post_init__(self):
        if not self.chain:
            raise ValueError("FallbackPolicy needs a non-empty chain")
        chain = tuple(canonical_backend(name) for name in self.chain)
        if None in chain:
            bad = self.chain[chain.index(None)]
            choices = ", ".join(BACKENDS)
            raise ValueError(
                f"unknown backend {bad!r} in fallback chain (choose from {choices})"
            )
        object.__setattr__(self, "chain", chain)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    def is_retryable(self, error: Exception) -> bool:
        """Whether this fault may trigger a retry / fallback."""
        return isinstance(error, ReliabilityError) and error.retryable


def _values_agree(a, b) -> bool:
    a = getattr(a, "data", a)
    b = getattr(b, "data", b)
    arr_a, arr_b = np.asarray(a), np.asarray(b)
    if arr_a.shape != arr_b.shape:
        return False
    if arr_a.dtype.kind in "fc" or arr_b.dtype.kind in "fc":
        return bool(np.allclose(arr_a, arr_b, equal_nan=True))
    return bool(np.array_equal(arr_a, arr_b))


def _visible(env: dict) -> dict:
    return {
        name: value
        for name, value in env.items()
        if not (isinstance(name, str) and name.startswith("__"))
    }


def check_agreement(env_a, counters_a, env_b, counters_b, backends=("a", "b")) -> None:
    """Assert two successful runs observed the same program.

    Compares the visible (non-``__``) environments value by value and
    the counters' lockstep step totals and event breakdowns; raises a
    non-retryable :class:`BackendFault` naming the first disagreement.
    """
    label = f"backends {backends[0]!r} and {backends[1]!r} disagree"
    if isinstance(env_a, list) or isinstance(env_b, list):
        envs_a = env_a if isinstance(env_a, list) else [env_a]
        envs_b = env_b if isinstance(env_b, list) else [env_b]
        if len(envs_a) != len(envs_b):
            raise BackendFault(
                f"{label}: {len(envs_a)} vs {len(envs_b)} processor envs",
                retryable=False,
            )
        pairs = list(zip(envs_a, envs_b))
    else:
        pairs = [(env_a, env_b)]
    for proc, (one, two) in enumerate(pairs):
        one, two = _visible(one), _visible(two)
        if set(one) != set(two):
            missing = set(one) ^ set(two)
            raise BackendFault(
                f"{label}: environment keys differ ({sorted(missing)})",
                retryable=False,
            )
        for name in one:
            if not _values_agree(one[name], two[name]):
                raise BackendFault(
                    f"{label} on variable '{name}'", retryable=False
                )
    list_a = counters_a if isinstance(counters_a, list) else [counters_a]
    list_b = counters_b if isinstance(counters_b, list) else [counters_b]
    for ca, cb in zip(list_a, list_b):
        if ca is None or cb is None:
            continue
        if ca.total_steps != cb.total_steps or dict(ca.events) != dict(cb.events):
            raise BackendFault(
                f"{label}: counters differ "
                f"({ca.total_steps} vs {cb.total_steps} steps)",
                retryable=False,
            )
