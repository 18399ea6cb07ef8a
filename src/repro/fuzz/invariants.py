"""Per-run translation validation for flattened programs.

Three invariant families (the VM checks mask-stack balance natively —
a WHERE may only narrow lane activity and every pushed mask scope must
be popped by HALT; see :mod:`repro.vm.machine`):

* **Guard-flag monotonicity** — in the conservative (Fig. 10) form the
  outer-continue flag ``t1`` latches "this lane still has work"; once
  a lane's flag drops it must never rise again.  A False->True
  transition means the flattened control resurrected an exhausted
  lane.
* **Per-lane work (Eq. 1)** — in a partitioned (SPMD) run, the number
  of useful inner iterations each lane executes must equal the trip
  counts of exactly the outer iterations its layout assigns to it —
  the per-processor work ``Σ_i L_i^p`` of the paper's Equation 1.
* **Total-work conservation** — every legal variant must execute each
  useful inner iteration exactly once: the planted per-iteration
  marker ``w(i) = w(i) + 1`` must sum to the generator-predicted
  total.  The oracle checks the sequential reference run; every leg
  then compares ``w`` with the reference exactly.
"""

from __future__ import annotations

import numpy as np

from ..lang import ast


def _lane_bools(value, nproc: int) -> np.ndarray:
    """Broadcast a mask/flag value to a per-lane boolean vector."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(nproc, bool(arr))
    if arr.ndim > 1:
        arr = arr.all(axis=tuple(range(1, arr.ndim)))
    return arr.astype(bool)


class ValidatingHook:
    """A statement hook that watches translation invariants live.

    Attach to a VM run (``statement_hook=hook``); after
    the run, :attr:`violations` holds every observed invariant break
    and :attr:`lane_work` the per-lane count of useful inner
    iterations (executions of the ``marker`` assignment under the
    activity mask).

    Args:
        nproc: Lane count of the machine under test.
        flag: Name of the latched outer-continue flag to watch
            (``"t1"`` in the conservative variant; None disables).
        marker: Array name whose increment marks one useful inner
            iteration (None disables work counting).
    """

    def __init__(
        self, nproc: int, flag: str | None = "t1", marker: str | None = "w"
    ):
        self.nproc = nproc
        self.flag = flag
        self.marker = marker
        self.lane_work = np.zeros(nproc, dtype=np.int64)
        self.violations: list[str] = []
        self._prev_flag: np.ndarray | None = None

    def __call__(self, stmt, env: dict, mask) -> None:
        if self.marker is not None and self._is_marker(stmt):
            self.lane_work += _lane_bools(mask, self.nproc).astype(np.int64)
        if self.flag is not None:
            value = env.get(self.flag)
            if value is not None:
                now = _lane_bools(value, self.nproc)
                prev = self._prev_flag
                if prev is not None and bool(np.any(~prev & now)):
                    lanes = np.flatnonzero(~prev & now).tolist()
                    self.violations.append(
                        f"flag '{self.flag}' rose on exhausted lane(s) "
                        f"{lanes} (monotonicity violated)"
                    )
                self._prev_flag = now

    def _is_marker(self, stmt) -> bool:
        return (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.target, ast.ArrayRef)
            and stmt.target.name == self.marker
        )


def predicted_lane_work(
    trips: tuple[int, ...], nproc: int, layout: str
) -> list[int]:
    """Eq. 1 per-processor work for a partitioned outer loop.

    Args:
        trips: Inner trip count of outer iteration ``i`` (1-based).
        nproc: PE count.
        layout: ``"block"`` or ``"cyclic"`` (the layouts of
            :func:`repro.transform.parallel.partition_outer`).
    """
    k = len(trips)
    loads = [0] * nproc
    if layout == "block":
        chunk = (k + nproc - 1) // nproc if k > 0 else 0
        for p in range(1, nproc + 1):
            start = 1 + (p - 1) * chunk
            last = min(k, start + chunk - 1)
            loads[p - 1] = sum(trips[i - 1] for i in range(start, last + 1))
    elif layout == "cyclic":
        for p in range(1, nproc + 1):
            loads[p - 1] = sum(trips[i - 1] for i in range(p, k + 1, nproc))
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return loads


def check_work_conservation(env: dict, expected_total: int) -> str | None:
    """Total useful iterations executed == generator-predicted total.

    Reads the planted marker array ``w`` from a final environment;
    returns a violation message or None.
    """
    w = env.get("w")
    data = getattr(w, "data", None)
    if data is None:
        return "marker array 'w' missing from final environment"
    total = int(np.asarray(data).sum())
    if total != expected_total:
        return (
            f"work not conserved: {total} useful iterations executed, "
            f"expected {expected_total}"
        )
    return None
