"""Operation accounting shared by the interpreters.

Interpreters do not know about machines; they record *events*
(vector instructions, broken down by kind, lane width, serial memory
layers and activity mask).  Machine cost models
(:mod:`repro.simd.cost`) later price the events into cycles and
seconds.

Event kinds:

===========  ================================================================
``int_op``   elementwise integer arithmetic / comparison
``real_op``  elementwise floating-point arithmetic / comparison
``logical``  elementwise boolean operation
``store``    assignment store
``gather``   indirect load (vector-subscripted read)
``scatter``  indirect store (vector-subscripted write)
``reduce``   cross-processor reduction (ANY, MAXVAL, ...)
``mask``     WHERE mask manipulation
``acu``      scalar control work on the front end / array control unit
``call``     subroutine call overhead
===========  ================================================================
"""

from __future__ import annotations

import numpy as np

#: All event kinds an interpreter may record.
EVENT_KINDS = (
    "int_op",
    "real_op",
    "logical",
    "store",
    "gather",
    "scatter",
    "reduce",
    "mask",
    "acu",
    "call",
)


#: The per-key tallies of :class:`ExecutionCounters`, in
#: :meth:`~ExecutionCounters.state_dict` order.  The first four are
#: keyed by event kind and always hold the same kinds; the two section
#: tallies hold the kinds with a multi-layer event, the two call
#: tallies the routines called.
TALLIES = (
    "events",
    "layer_steps",
    "element_ops",
    "active_elements",
    "calls",
    "call_layer_steps",
    "section_events",
    "section_layer_steps",
)


#: Per-kind sums of the event batches :meth:`ExecutionCounters.record_block`
#: has seen, keyed by the batch, cleared when it fills.  An entry is
#: about 0.5 KiB, so the bound caps the cache near 2 MiB; the Table-1
#: kernels produce 10 distinct batches, serve-mix's run programs 60.
_BLOCK_PLANS: dict = {}
_MAX_BLOCK_PLANS = 4096


def _block_plan(events: tuple) -> tuple:
    """``(kind rows, section rows, lane layers)`` of one event batch.

    Kind rows are ``(kind, events, layers)`` in order of each kind's
    first event, section rows the same over the multi-layer events in
    order of each kind's first multi-layer event: the orders in which
    per-event :meth:`ExecutionCounters.record` calls insert the keys.
    """
    kinds: dict = {}
    sections: dict = {}
    total_layers = 0
    for kind, layers in events:
        row = kinds.setdefault(kind, [0, 0])
        row[0] += 1
        row[1] += layers
        if layers > 1:
            row = sections.setdefault(kind, [0, 0])
            row[0] += 1
            row[1] += layers
        if kind != "acu":
            total_layers += layers
    plan = (
        tuple((kind, *row) for kind, row in kinds.items()),
        tuple((kind, *row) for kind, row in sections.items()),
        total_layers,
    )
    if len(_BLOCK_PLANS) >= _MAX_BLOCK_PLANS:
        _BLOCK_PLANS.clear()
    _BLOCK_PLANS[events] = plan
    return plan


class ExecutionCounters:
    """Accumulates execution events for one program run.

    The tallies are plain dicts.  A dict subclass such as ``Counter``
    misses CPython's specialised subscript paths: its ``c[k] += 1``
    costs about three times a plain dict's.  A key is inserted by the
    first event that names it, so a kind never recorded is absent:
    read with ``.get(kind, 0)``.

    Attributes:
        nproc: Lane count (1 for the sequential interpreter).
        events: vector-instruction count per kind.
        layer_steps: vector instructions weighted by serial layers —
            the lockstep *step* count of the run.
        element_ops: total scalar elements processed per kind.
        active_elements: elements on *active* lanes per kind (useful work).
        calls: per external-routine vector call count.
        call_layer_steps: per-routine calls weighted by layers.
        lane_active_steps: per-lane count of steps in which the lane
            was active (for utilization plots).
    """

    def __init__(self, nproc: int = 1):
        self.nproc = nproc
        self.events: dict[str, int] = {}
        self.layer_steps: dict[str, int] = {}
        self.element_ops: dict[str, int] = {}
        self.active_elements: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.call_layer_steps: dict[str, int] = {}
        self.section_events: dict[str, int] = {}
        self.section_layer_steps: dict[str, int] = {}
        self.lane_active_steps = np.zeros(nproc, dtype=np.int64)
        # Width-1 events (and calls) tallied once per kind, not yet
        # folded into the tallies above: see :meth:`tally`.
        self.pending: dict[str, int] = {}
        self.pending_calls: dict[str, int] = {}

    # -- recording -------------------------------------------------------------

    def record(
        self,
        kind: str,
        width: int = 1,
        layers: int = 1,
        mask=None,
        active: int | None = None,
        defer_lanes: bool = False,
    ) -> int:
        """Record one vector instruction.

        Args:
            kind: One of :data:`EVENT_KINDS`.
            width: Lane width of the instruction (P for vector ops, 1
                for front-end scalar work).
            layers: Serial memory layers the instruction sweeps; a
                section op over ``k`` layers counts as ``k`` lockstep steps.
            mask: Current activity mask (bool array of ``nproc``), or
                None when all lanes are active / activity is unknown.
            active: Precomputed active-lane count; skips the
                ``count_nonzero`` reduction when the caller caches it
                per mask epoch.
            defer_lanes: Skip the per-lane activity update; the caller
                accumulates the returned layer count and applies it via
                :meth:`add_lane_steps` when the mask changes.

        Returns:
            The layers this event contributes to per-lane activity
            (0 for front-end ``acu`` work) — the amount a deferring
            caller must accumulate.
        """
        if active is None:
            active = width if mask is None else int(np.count_nonzero(mask))
        events = self.events
        if kind in events:
            events[kind] += 1
            self.layer_steps[kind] += layers
            self.element_ops[kind] += width * layers
            self.active_elements[kind] += active * layers
        else:
            events[kind] = 1
            self.layer_steps[kind] = layers
            self.element_ops[kind] = width * layers
            self.active_elements[kind] = active * layers
        if layers > 1:
            section_events = self.section_events
            section_events[kind] = section_events.get(kind, 0) + 1
            section_layer_steps = self.section_layer_steps
            section_layer_steps[kind] = section_layer_steps.get(kind, 0) + layers
        if kind == "acu":
            return 0
        if not defer_lanes and mask is not None:
            self.lane_active_steps += np.asarray(mask, dtype=np.int64) * layers
        return layers

    def record_scalar(self, kind: str) -> None:
        """Record one width-1, single-layer, unmasked instruction.

        Exactly what ``record(kind)`` does, at once: four dict adds
        once the kind has been seen (:meth:`tally` defers them).
        """
        events = self.events
        if kind in events:
            events[kind] += 1
            self.layer_steps[kind] += 1
            self.element_ops[kind] += 1
            self.active_elements[kind] += 1
        else:
            self.record(kind)

    def tally(self, kind: str) -> None:
        """Count one width-1, single-layer, unmasked instruction, to be
        folded into the four kind tallies by :meth:`fold`.

        Those four stay equal under such events, so the scalar
        interpreter adds to one count per kind and lets :meth:`fold`
        copy the sums over.  The first event of a kind goes through
        :meth:`first`, so every kind takes its place in the key order
        when it happens, exactly as with per-event :meth:`record_scalar`.
        """
        try:
            self.pending[kind] += 1
        except KeyError:
            self.first(kind)

    def first(self, kind: str) -> None:
        """:meth:`tally`'s first event of ``kind``: recorded at once."""
        self.record_scalar(kind)
        self.pending[kind] = 0

    def first_call(self, name: str) -> None:
        """The first width-1 call of ``name`` tallied into
        :attr:`pending_calls`: recorded at once, as :meth:`first` does."""
        calls = self.calls
        if name in calls:
            calls[name] += 1
            self.call_layer_steps[name] += 1
        else:
            calls[name] = 1
            self.call_layer_steps[name] = 1
        self.pending_calls[name] = 0

    def fold(self) -> None:
        """Add the pending width-1 counts into the tallies, leaving
        nothing pending.  The scalar interpreter folds on every way out
        of a run and before each checkpoint or snapshot;
        :meth:`state_dict` folds too."""
        for kind, count in self.pending.items():
            if count:
                self.events[kind] += count
                self.layer_steps[kind] += count
                self.element_ops[kind] += count
                self.active_elements[kind] += count
                self.pending[kind] = 0
        for name, count in self.pending_calls.items():
            if count:
                self.calls[name] += count
                self.call_layer_steps[name] += count
                self.pending_calls[name] = 0

    def record_block(
        self,
        events,
        width: int = 1,
        mask=None,
        active: int | None = None,
        defer_lanes: bool = False,
    ) -> int:
        """Record a batch of vector instructions that share one mask.

        ``events`` is a sequence of ``(kind, layers)`` pairs.  The VM's
        block closures collect one pair per event of a straight-line
        block — the activity mask cannot change inside a block, so the
        mask reduction (``count_nonzero``) and the per-lane activity
        update are paid **once per block** instead of once per
        instruction, and each event kind's totals are added once (the
        batch's per-kind sums are computed once per distinct batch and
        cached).  The resulting totals, and the order in which kinds
        first appear, are exactly what per-event :meth:`record` calls
        would have produced.  ``active``/``defer_lanes`` behave as in
        :meth:`record`; the return value is the batch's per-lane
        activity contribution.
        """
        if not events:
            return 0
        if active is None:
            active = width if mask is None else int(np.count_nonzero(mask))
        key = tuple(events)
        plan = _BLOCK_PLANS.get(key)
        if plan is None:
            plan = _block_plan(key)
        kinds, sections, total_layers = plan
        events_c = self.events
        layer_steps = self.layer_steps
        element_ops = self.element_ops
        active_elements = self.active_elements
        for kind, count, layers in kinds:
            if kind in events_c:
                events_c[kind] += count
                layer_steps[kind] += layers
                element_ops[kind] += width * layers
                active_elements[kind] += active * layers
            else:
                events_c[kind] = count
                layer_steps[kind] = layers
                element_ops[kind] = width * layers
                active_elements[kind] = active * layers
        if sections:
            section_events = self.section_events
            section_layer_steps = self.section_layer_steps
            for kind, count, layers in sections:
                section_events[kind] = section_events.get(kind, 0) + count
                section_layer_steps[kind] = section_layer_steps.get(kind, 0) + layers
        if not defer_lanes and mask is not None and total_layers:
            self.lane_active_steps += np.asarray(mask, dtype=np.int64) * total_layers
        return total_layers

    def add_lane_steps(self, mask, layers: int) -> None:
        """Apply deferred per-lane activity for a whole mask epoch.

        Counterpart of ``defer_lanes=True``: a caller that runs many
        instructions under one unchanged mask accumulates their layer
        counts and applies them in a single vector update here.  The
        totals are exactly what per-event updates would have produced.
        ``mask=None`` means every lane was active: a scalar add.
        """
        if not layers:
            return
        if mask is None:
            self.lane_active_steps += layers
        elif getattr(mask, "dtype", None) == bool:
            # one pass over the lanes: bool * int is already int64
            self.lane_active_steps += mask if layers == 1 else mask * layers
        else:
            self.lane_active_steps += np.asarray(mask, dtype=np.int64) * layers

    def record_call(
        self,
        name: str,
        layers: int = 1,
        mask=None,
        active: int | None = None,
        defer_lanes: bool = False,
    ) -> int:
        """Record one (vector) call of an external routine such as Force.

        ``mask``/``active``/``defer_lanes`` and the return value behave
        as in :meth:`record`, so a caller on the mask-epoch path pays no
        per-call lane reduction or per-lane update.
        """
        calls = self.calls
        if name in calls:
            calls[name] += 1
            self.call_layer_steps[name] += layers
        else:
            calls[name] = 1
            self.call_layer_steps[name] = layers
        if layers == 1 and mask is None and active is None and self.nproc == 1:
            # A scalar interpreter's call: ``record``'s width-1 case.
            self.record_scalar("call")
            return 1
        return self.record(
            "call",
            width=self.nproc,
            layers=layers,
            mask=mask,
            active=active,
            defer_lanes=defer_lanes,
        )

    def call_sections(self, name: str) -> tuple[int, int]:
        """(section call count, section layer steps) for routine ``name``.

        A call is a *section* call when it swept more than one memory
        layer; the pair mirrors :attr:`section_events` /
        :attr:`section_layer_steps` for the ``call`` kind but broken
        down by routine.
        """
        calls = self.calls.get(name, 0)
        layer_steps = self.call_layer_steps.get(name, 0)
        if layer_steps > calls:
            return calls, layer_steps
        return 0, 0

    # -- queries ---------------------------------------------------------------

    @property
    def total_steps(self) -> int:
        """Total lockstep steps (vector instructions × layers)."""
        return sum(self.layer_steps.values())

    @property
    def total_vector_instructions(self) -> int:
        return sum(self.events.values())

    def utilization(self) -> np.ndarray:
        """Fraction of steps each lane was active (zeros if nothing ran)."""
        steps = self.total_steps
        if steps == 0:
            return np.zeros(self.nproc)
        return self.lane_active_steps / steps

    def mean_utilization(self) -> float:
        """Average activity fraction across lanes."""
        return float(self.utilization().mean())

    def merge(self, other: "ExecutionCounters") -> None:
        """Fold another counter set into this one (same lane count).

        Adds per key (``dict.update`` would replace); kinds new to this
        set are appended in ``other``'s order.
        """
        for name in TALLIES:
            mine = getattr(self, name)
            for key, value in getattr(other, name).items():
                mine[key] = mine.get(key, 0) + value
        if other.nproc == self.nproc:
            self.lane_active_steps += other.lane_active_steps

    def state_dict(self) -> dict:
        """Complete, detached accumulator state for checkpointing.

        Everything :meth:`load_state` needs to make another instance
        bit-identical to this one — unlike :meth:`summary`, which is a
        human-facing digest.
        """
        self.fold()
        state: dict = {"nproc": self.nproc}
        for name in TALLIES:
            state[name] = dict(getattr(self, name))
        state["lane_active_steps"] = self.lane_active_steps.copy()
        return state

    def load_state(self, state: dict) -> None:
        """Replace this accumulator's contents with a state dict's.

        Inverse of :meth:`state_dict`; used by checkpoint resume so a
        resumed run's counters continue from exactly the captured
        totals.
        """
        self.nproc = int(state["nproc"])
        # In place: the scalar interpreter's generated code holds the
        # pending dicts themselves.
        for name in TALLIES:
            tally = getattr(self, name)
            tally.clear()
            tally.update(state[name])
        self.pending.clear()
        self.pending_calls.clear()
        self.lane_active_steps = np.array(
            state["lane_active_steps"], dtype=np.int64
        )

    def summary(self) -> dict:
        """A plain-dict snapshot (handy for reports and tests)."""
        return {
            "total_steps": self.total_steps,
            "vector_instructions": self.total_vector_instructions,
            "events": dict(self.events),
            "layer_steps": dict(self.layer_steps),
            "calls": dict(self.calls),
            "call_layer_steps": dict(self.call_layer_steps),
            "mean_utilization": self.mean_utilization(),
        }
