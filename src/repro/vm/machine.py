"""The SIMD bytecode virtual machine: the lockstep SIMD backend.

Executes :class:`~repro.vm.isa.CodeObject`\\ s with the paper's
lockstep semantics — one program counter, a mask stack, per-PE
replicated values, masked stores, gather/scatter indirect addressing —
and records into :class:`~repro.exec.counters.ExecutionCounters`, so a
run can be priced by the machine models of :mod:`repro.simd`.

MiniF subroutine calls run in frames (``ENTER``/``RET``), and a
``statement_hook`` sees every executed statement.  The test-only
tree-walking twin (:mod:`repro.fuzz.twin`) implements the same
semantics independently; the fuzz oracle and the differential suite
hold the two to identical environments and counters.

Execution model (see DESIGN.md §10):

* **threaded dispatch** — a per-code handler table is bound when a
  code object is loaded for a run, so the hot loop is one indexed
  call per instruction instead of an ``if/elif`` opcode scan;
* **block closures** — unless ``fuse=False`` (or a fault plan or a
  statement hook demands per-instruction stepping), each straight-line
  block is compiled once by :func:`repro.vm.fuse.fuse_code` into one
  specialised closure that keeps the operand stack in locals and
  charges its steps, trace and counter events in one batched update
  (the activity mask is constant inside a block by construction).  A
  block runs only when the step budget and the next checkpoint
  boundary both lie at or beyond its end; otherwise the machine steps
  its instructions one by one, so budget trips, checkpoint captures
  and crash dumps are step-exact and identical in both modes.  The
  per-instruction mode is the reference the fuzz oracle holds the
  block mode to;
* **mask pool and per-scope epochs** — WHERE/ELSEWHERE mask narrowing
  writes into preallocated per-depth buffers instead of allocating.
  Each mask is reduced once when it is installed (one
  ``count_nonzero`` gives the active count and the all/any flags) and
  the result is kept as the scope's *epoch* together with its pending
  per-lane layers.  A WHERE saves the enclosing epoch on a stack that
  runs parallel to the mask stack and END WHERE resumes it as it was,
  so entering and leaving a scope never re-reduces or re-flushes the
  enclosing mask.
"""

from __future__ import annotations

import copy
import operator
import sys
from collections import deque

import numpy as np

from ..exec.counters import ExecutionCounters
from ..exec.intrinsics import call_intrinsic, coerce, is_reduction_call
from ..exec.ops import apply_binop, apply_unop, op_event_kind
from ..exec.values import FArray, align_mask
from ..lang import ast
from ..lang.errors import InterpreterError, MiniFError
from ..reliability import (
    Budget,
    BudgetExceeded,
    DivergenceFault,
    MachineSnapshot,
    OutOfBoundsFault,
    TRACE_DEPTH,
    attach_snapshot,
    locate,
    render_mask,
    snapshot_env,
)
from ..reliability.checkpoint import Checkpoint
from .fuse import fuse_code
from .compiler import compile_subscripts
from .isa import BYTECODE_LAYOUT, CodeObject, Instr, Op

#: Sentinel next-pc returned by HALT (terminates the dispatch loop).
_HALT_PC = -1

#: Deepest MiniF call chain a run may open (runaway recursion guard).
MAX_CALL_DEPTH = 1000

#: A full-extent section subscript (``:``).
_FULL = slice(None, None)

_REDUCE_EVENT = ("reduce", 1)
_STORE_EVENT = ("store", 1)
_GATHER_EVENT = ("gather", 1)
_SCATTER_EVENT = ("scatter", 1)
_INT_EVENT = ("int_op", 1)
_REAL_EVENT = ("real_op", 1)


def _unset(name: str) -> InterpreterError:
    return InterpreterError(f"'{name}' used before assignment")


def _layers(value) -> int:
    """Serial memory layers a value sweeps: the product of its extents
    past the lane axis."""
    value = coerce(value)
    if isinstance(value, np.ndarray) and value.ndim >= 2:
        layers = 1
        for extent in value.shape[1:]:
            layers *= extent
        return layers
    return 1


def _specialise(op: str, ufunc, host):
    """The block helper of one arithmetic or comparison BINOP:
    ``apply_binop`` and ``op_event_kind`` with the operator resolved."""

    def binop(left, right, events):
        if isinstance(left, FArray):
            left = left.data
        if isinstance(right, FArray):
            right = right.data
        try:
            if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
                result = ufunc(left, right)
            else:
                result = host(left, right)
        except FloatingPointError as exc:
            raise InterpreterError(f"arithmetic fault in '{op}': {exc}") from exc
        if isinstance(result, np.ndarray):
            if result.ndim >= 2:
                events.append((op_event_kind(op, result), _layers(result)))
            elif result.dtype.kind in "iub":
                events.append(_INT_EVENT)
            else:
                events.append(_REAL_EVENT)
        elif isinstance(result, (int, np.integer)):
            events.append(_INT_EVENT)
        else:
            events.append(_REAL_EVENT)
        return result

    return binop


_BINOPS = {
    f"binop_{name}": _specialise(op, ufunc, host)
    for op, name, ufunc, host in (
        ("+", "add", np.add, operator.add),
        ("-", "sub", np.subtract, operator.sub),
        ("*", "mul", np.multiply, operator.mul),
        ("==", "eq", np.equal, operator.eq),
        ("/=", "ne", np.not_equal, operator.ne),
        ("<", "lt", np.less, operator.lt),
        ("<=", "le", np.less_equal, operator.le),
        (">", "gt", np.greater, operator.gt),
        (">=", "ge", np.greater_equal, operator.ge),
    )
}


def _binop(op: str, left, right, events: list):
    """Any other BINOP (``/``, ``**``, ``.AND.``, ``.OR.``)."""
    result = apply_binop(op, left, right)
    events.append((op_event_kind(op, result), _layers(result)))
    return result


def _unop(op: str, operand, events: list):
    result = apply_unop(op, operand)
    events.append((op_event_kind(op, result), _layers(result)))
    return result


def _elemental(name: str, args: list, events: list):
    events.append(_REAL_EVENT)
    return call_intrinsic(name, args)


class _Epoch:
    """One installed activity mask: its reductions, computed once, and
    the per-lane layers charged to it but not yet applied.

    Vector events add their layer count to ``pending`` of the epoch
    they ran under; :meth:`flush` applies it to
    ``counters.lane_active_steps`` before the mask's pooled buffer can
    be reused.  Integer adds commute, so totals are exact.
    """

    __slots__ = (
        "mask", "lanes", "active", "any_active", "all_active", "pending", "_where",
    )

    def __init__(self, mask: np.ndarray, nproc: int):
        if mask.ndim == 1:
            lanes = mask
        elif mask.size == nproc:
            lanes = mask.reshape(nproc)  # (P, 1, ...): a view, no reduction
        else:
            lanes = mask.any(axis=tuple(range(1, mask.ndim)))
        active = int(np.count_nonzero(lanes))
        self.mask = mask
        self.lanes = lanes
        self.active = active
        self.any_active = active > 0
        self.all_active = active == nproc and (mask.size == nproc or bool(mask.all()))
        self.pending = 0
        self._where = None

    def where(self) -> np.ndarray:
        """Indices of the active lanes (computed once per epoch)."""
        where = self._where
        if where is None:
            where = self._where = np.flatnonzero(self.lanes)
        return where

    def flush(self, counters: ExecutionCounters) -> None:
        layers = self.pending
        if layers:
            self.pending = 0
            if self.active == self.lanes.size:
                counters.add_lane_steps(None, layers)
            elif self.active:
                counters.add_lane_steps(self.lanes, layers)


class SIMDVirtualMachine:
    """Executes SIMD bytecode on ``nproc`` lockstep lanes.

    Events are recorded into the machine's own ``counters`` (a fresh
    ``nproc``-lane :class:`~repro.exec.counters.ExecutionCounters`,
    restored from the checkpoint on a resume), read back after
    :meth:`run`.

    Args:
        nproc: Processing-element count.
        externals: Mapping name -> callable with the interpreter
            external convention ``fn(vm, arg_exprs, args, env, mask)``.
        budget: Runaway-loop guard (None = ``Budget()``, the default
            step cap).
        fault_plan: Deterministic fault injection
            (:class:`~repro.reliability.FaultPlan`).  Forces
            per-instruction stepping (no blocks) so op faults fire at
            the planned step.
        fuse: Run straight-line blocks as compiled closures (the fast
            path).  ``False`` retires one instruction per dispatch —
            the reference mode the fuzz oracle runs differentially
            against the block mode.  Both modes meter the budget and
            capture checkpoints on the exact step.
        checkpoint_every: Capture a restorable
            :class:`~repro.reliability.checkpoint.Checkpoint` every
            this many executed instructions.  ``None`` disables capture.
        checkpoint_sink: Callable receiving each captured checkpoint
            (e.g. ``CheckpointStore.save`` bound to a key).
        statement_hook: Optional ``hook(stmt, env, mask)`` called before
            each executed statement (trace recording, translation
            validation); a hooked run steps per instruction.
    """

    def __init__(
        self,
        nproc: int,
        externals: dict | None = None,
        budget: Budget | None = None,
        fault_plan=None,
        fuse: bool = True,
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
        statement_hook=None,
    ):
        if nproc < 1:
            raise InterpreterError(f"need at least one PE, got {nproc}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise InterpreterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.nproc = nproc
        self.externals = externals or {}
        self.counters = ExecutionCounters(nproc)
        self.budget = budget if budget is not None else Budget()
        self.fault_plan = fault_plan
        self.fuse = fuse
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.statement_hook = statement_hook
        self.executed = 0
        # Blocks run only while ``executed + count <= stop_at``: the
        # next checkpoint boundary or the end of the step budget.
        self.stop_at = sys.maxsize
        self._meter = self.budget.meter()
        self._trace: deque = deque(maxlen=TRACE_DEPTH)
        self._env: dict = {}
        self._last_pc = 0
        self._last_loc = None
        self._mask_pool: dict = {}
        self._reset_mask()
        # (return pc, caller env, caller mask depth, writeback targets,
        # location of the CALL)
        self._frames: list[tuple] = []
        self._hook_skip = False
        # id(target) -> (target, subscript spec, subscript code)
        self._targets: dict[int, tuple] = {}
        self._dispatch = {
            Op.PUSH_CONST: self._op_push_const,
            Op.LOAD: self._op_load,
            Op.STORE: self._op_store,
            Op.ALLOC: self._op_alloc,
            Op.LOAD_INDEXED: self._op_load_indexed,
            Op.STORE_INDEXED: self._op_store_indexed,
            Op.BINOP: self._op_binop,
            Op.UNOP: self._op_unop,
            Op.INTRINSIC: self._op_intrinsic,
            Op.IOTA: self._op_iota,
            Op.VECTOR: self._op_vector,
            Op.CALL: self._op_call,
            Op.ENTER: self._op_enter,
            Op.RET: self._op_ret,
            Op.PUSH_MASK: self._op_push_mask,
            Op.ELSE_MASK: self._op_else_mask,
            Op.POP_MASK: self._op_pop_mask,
            Op.JUMP: self._op_jump,
            Op.JUMP_IF_FALSE: self._op_jump_if_false,
            Op.CTL_STORE: self._op_ctl_store,
            Op.FOR: self._op_for,
            Op.FOR_INCR: self._op_for_incr,
            Op.NOP: self._op_nop,
            Op.HALT: self._op_halt,
        }

    def snapshot(self) -> MachineSnapshot:
        """The machine's state right now (for crash dumps)."""
        self._flush_open_epochs()
        return MachineSnapshot(
            backend="vm",
            pc=self._last_pc,
            steps=self.executed,
            mask=render_mask(self._epoch.mask),
            mask_stack=[render_mask(outer) for outer, _ in self._mask_stack],
            env=snapshot_env(self._env),
            last_ops=[
                {"pc": pc, "op": op, "line": line} for pc, op, line in self._trace
            ],
            location=self._last_loc,
        )

    # -- mask helpers --------------------------------------------------------------

    @property
    def mask(self) -> np.ndarray:
        return self._epoch.mask

    # The current epoch is ``_epoch``; each open WHERE scope's enclosing
    # epoch waits on ``_epochs`` (parallel to ``_mask_stack``) with its
    # pending layers until END WHERE resumes it.

    def _reset_mask(self) -> None:
        """All lanes active, no WHERE scope open."""
        self._mask_stack: list[tuple[np.ndarray, np.ndarray]] = []
        self._epochs: list[_Epoch] = []
        self._epoch = _Epoch(np.ones(self.nproc, dtype=bool), self.nproc)

    def _flush_open_epochs(self) -> None:
        """Flush the current epoch and every saved one (exit paths)."""
        self._epoch.flush(self.counters)
        for epoch in self._epochs:
            epoch.flush(self.counters)

    def _record(self, kind: str, layers: int = 1) -> None:
        """Record one vector event under the current mask epoch."""
        epoch = self._epoch
        epoch.pending += self.counters.record(
            kind, width=self.nproc, layers=layers, active=epoch.active, defer_lanes=True
        )

    def _buffer(self, key, shape) -> np.ndarray:
        """A reusable boolean buffer from the per-depth mask pool."""
        buf = self._mask_pool.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=bool)
            self._mask_pool[key] = buf
        return buf

    def _narrow(self, outer, cond: np.ndarray, depth: int, negate: bool) -> np.ndarray:
        """``outer ∧ cond`` (or ``outer ∧ ¬cond``) into a pooled buffer.

        This is where the mask discipline's narrowing invariant holds:
        a WHERE scope's lanes are a subset of its enclosing scope's,
        since the result is an AND with ``outer`` written into the
        buffers of ``depth``, never into the enclosing scope's.
        """
        if cond.ndim == 0:
            cond = np.full(self.nproc, bool(cond))
        if cond.dtype.kind != "b":
            raise InterpreterError("mask expression is not logical")
        base = np.asarray(outer)
        if base.ndim < cond.ndim:
            base = align_mask(base, cond.ndim)
        elif cond.ndim < base.ndim:
            cond = align_mask(cond, base.ndim)
        if negate:
            nbuf = self._buffer((depth, 2), cond.shape)
            np.logical_not(cond, out=nbuf)
            cond = nbuf
        shape = base.shape
        if shape != cond.shape:
            shape = np.broadcast_shapes(shape, cond.shape)
        buf = self._buffer((depth, 1 if negate else 0), shape)
        np.logical_and(base, cond, out=buf)
        return buf

    def _uniform_bool(self, value) -> bool:
        value = coerce(value)
        if isinstance(value, np.ndarray) and value.ndim >= 1:
            lanes = self._epoch.lanes
            selected = value[lanes] if value.shape[0] == self.nproc else value.ravel()
            if selected.size == 0:
                return False
            first = selected.flat[0]
            if not np.all(selected == first):
                raise DivergenceFault(
                    "branch condition diverges across active PEs — the "
                    "single program counter cannot follow; use WHERE"
                )
            return bool(first)
        return bool(value)

    def _uniform_int(self, value, what: str) -> int:
        value = coerce(value)
        if isinstance(value, np.ndarray) and value.ndim >= 1:
            lanes = self._epoch.lanes
            selected = value[lanes] if value.shape[0] == self.nproc else value.ravel()
            if selected.size == 0:
                raise InterpreterError(f"{what}: no active PEs")
            first = selected.flat[0]
            if not np.all(selected == first):
                raise DivergenceFault(f"{what} diverges across active PEs")
            return int(first)
        return int(value)

    # -- execution -------------------------------------------------------------------

    def run(
        self,
        code: CodeObject,
        bindings: dict | None = None,
        resume_from: Checkpoint | None = None,
        routine_name: str | None = None,
    ) -> dict:
        """Execute a code object; returns the final environment.

        Execution starts at the main program, or at the entry of
        ``routine_name`` (a routine of ``code.entries``).  Every error
        raised mid-run is stamped with the current instruction's
        source location and a :meth:`snapshot` of the machine before
        propagating.

        With ``resume_from``, ``bindings`` are ignored and execution
        continues from the checkpoint's state; the resumed run's final
        environment, counters and crash dumps are bit-identical to the
        uninterrupted run's (the checkpoint itself is not mutated, so
        it may be resumed again).  Wall-clock deadlines restart; the
        consumed *step* budget resumes exactly.
        """
        start = 0 if routine_name is None else code.entries[routine_name]
        every = self.checkpoint_every
        sink = self.checkpoint_sink
        if every and sink is not None and any(
            instr.op is Op.ENTER for instr in code.instructions
        ):
            raise InterpreterError(
                "checkpoint capture does not cover MiniF subroutine calls "
                "(the program CALLs a subroutine); run without "
                "checkpoint_every"
            )
        env: dict = dict(bindings or {})
        self._env = env
        self._meter = self.budget.meter()
        self._frames = []
        self._hook_skip = False
        stack: list = []
        if resume_from is None:
            self._reset_mask()
        if self.fault_plan is not None:
            try:
                self.fault_plan.check_backend("vm")
            except MiniFError as error:
                raise attach_snapshot(error, self.snapshot())
            self._epoch = _Epoch(
                self._epoch.mask & self.fault_plan.dropout_mask(self.nproc, "vm"),
                self.nproc,
            )
            blocks = False  # op faults need per-instruction stepping
        else:
            blocks = self.fuse and self.statement_hook is None
        run_code = fuse_code(code) if blocks else code
        instructions = run_code.instructions
        dispatch = self._dispatch
        handlers = [dispatch.get(i.op, self._op_unknown) for i in instructions]
        if blocks:
            helpers = self._block_helpers()
            for pc, instr in enumerate(instructions):
                if instr.op is Op.FUSED:
                    handlers[pc] = instr.arg.bind(self, helpers)
        if self.statement_hook is not None:
            self._hook_handlers(handlers, run_code)
        size = len(instructions)
        pc = start
        if resume_from is not None:
            pc, env, stack = self._restore(resume_from)
            self._env = env
        next_at = None
        if every and sink is not None:
            next_at = (self.executed // every + 1) * every
        self._set_stop(next_at)
        try:
            while 0 <= pc < size:
                if next_at is not None and self.executed >= next_at:
                    sink(self._capture(pc, env, stack))
                    next_at = (self.executed // every + 1) * every
                    self._set_stop(next_at)
                self._last_pc = pc
                instr = instructions[pc]
                if instr.loc is not None:
                    self._last_loc = instr.loc
                try:
                    pc = handlers[pc](instr, pc, env, stack)
                except MiniFError as error:
                    locate(error, instr.loc)
                    attach_snapshot(error, self.snapshot())
                    raise
        finally:
            # Deferred per-lane accounting settles on every exit path
            # (snapshot() also flushes, so crash dumps are exact).
            self._flush_open_epochs()
        if self._frames:
            # STOP inside a subroutine: the run ends with the main
            # program's environment, no writeback, every scope closed.
            main_env = self._frames[0][1]
            self._frames = []
            env.clear()
            env.update(main_env)
            self._pop_scopes(0)
        if self._mask_stack:
            # Translation invariant: every PUSH_MASK is matched by a
            # POP_MASK on all paths — an unbalanced stack means the
            # compiler emitted broken mask structure.
            error = InterpreterError(
                f"mask stack not drained at HALT: "
                f"{len(self._mask_stack)} WHERE scope(s) still open"
            )
            raise attach_snapshot(error, self.snapshot())
        return env

    # -- checkpoint capture / resume -----------------------------------------------

    def _set_stop(self, next_at: int | None) -> None:
        """Bound block execution by the next capture and the budget."""
        stop = sys.maxsize if next_at is None else next_at
        remaining = self._meter.remaining()
        if remaining is not None:
            stop = min(stop, self.executed + remaining)
        self.stop_at = stop

    def _capture(self, pc: int, env: dict, stack: list) -> Checkpoint:
        """Full restorable state at an instruction boundary (a block
        never straddles one, see :meth:`_set_stop`)."""
        self._flush_open_epochs()
        return Checkpoint(
            backend="vm",
            step=self.executed,
            pc=pc,
            env=env,
            stack=list(stack),
            mask=self._epoch.mask,
            mask_stack=list(self._mask_stack),
            counters=self.counters.state_dict(),
            meter_steps=self._meter.steps,
            trace=list(self._trace),
            last_pc=self._last_pc,
            last_loc=self._last_loc,
            nproc=self.nproc,
            meta={"bytecode": BYTECODE_LAYOUT},
        ).detach()

    def _restore(self, ckpt: Checkpoint):
        """Install a checkpoint's state; returns ``(pc, env, stack)``.

        The checkpoint's mutable state is deep-copied in, so the same
        checkpoint object can seed any number of resumed runs.
        """
        if ckpt.backend != "vm":
            raise InterpreterError(
                f"cannot resume a {ckpt.backend!r} checkpoint on the vm backend"
            )
        if ckpt.nproc != self.nproc:
            raise InterpreterError(
                f"checkpoint was captured on {ckpt.nproc} PEs, "
                f"this machine has {self.nproc}"
            )
        layout = ckpt.meta.get("bytecode", 1)
        if layout != BYTECODE_LAYOUT:
            raise InterpreterError(
                f"checkpoint was captured against bytecode layout {layout}, "
                f"this build runs layout {BYTECODE_LAYOUT}"
            )
        env, stack, mask, mask_stack = copy.deepcopy(
            (ckpt.env, ckpt.stack, ckpt.mask, ckpt.mask_stack)
        )
        # Each open scope's saved epoch is its enclosing mask with
        # nothing pending (capture flushed every epoch).
        self._mask_stack = list(mask_stack)
        self._epochs = [
            _Epoch(np.asarray(outer), self.nproc) for outer, _ in mask_stack
        ]
        self._epoch = _Epoch(np.asarray(mask), self.nproc)
        self.executed = ckpt.step
        self.counters.load_state(ckpt.counters)
        self._meter.steps = ckpt.meter_steps
        self._trace = deque(ckpt.trace, maxlen=TRACE_DEPTH)
        self._last_pc = ckpt.last_pc
        self._last_loc = ckpt.last_loc
        return ckpt.pc, env, stack

    def _tick1(self, instr: Instr, pc: int) -> None:
        """Per-instruction accounting for unfused dispatch."""
        self.executed += 1
        self._meter.tick(instr.loc)
        if self.fault_plan is not None:
            self.fault_plan.raise_op_fault(self.executed, "vm")
        loc = instr.loc
        self._trace.append((pc, instr.op.name, loc.line if loc is not None else None))

    def _account(self, kind: str, layers: int, events) -> None:
        """Record one event now, or defer it to a fused run's batch."""
        if events is None:
            self._record(kind, layers)
        else:
            events.append((kind, layers))

    # -- single-instruction handlers ---------------------------------------------

    def _op_unknown(self, instr, pc, env, stack):  # pragma: no cover - exhaustive
        raise InterpreterError(f"unknown opcode {instr.op}")

    def _op_push_const(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        stack.append(instr.arg)
        return pc + 1

    def _op_load(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        name = instr.arg
        try:
            stack.append(env[name])
        except KeyError:
            raise InterpreterError(f"'{name}' used before assignment") from None
        return pc + 1

    def _op_store(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        self._store(env, instr.arg, stack.pop(), None)
        return pc + 1

    def _op_alloc(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        rank = instr.arg[1]
        extents = stack[len(stack) - rank:]
        del stack[len(stack) - rank:]
        self._alloc(env, extents, instr.arg)
        return pc + 1

    def _op_load_indexed(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        name, spec = instr.arg
        subs = self._decode_subscripts(stack, spec)
        stack.append(self._load_indexed(env, name, subs, None))
        return pc + 1

    def _op_store_indexed(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        name, spec = instr.arg
        subs = self._decode_subscripts(stack, spec)
        self._store_resolved(env, name, subs, stack.pop(), None)
        return pc + 1

    def _op_binop(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        right = stack.pop()
        left = stack.pop()
        result = apply_binop(instr.arg, left, right)
        self._record(op_event_kind(instr.arg, result), _layers(result))
        stack.append(result)
        return pc + 1

    def _op_unop(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        result = apply_unop(instr.arg, stack.pop())
        self._record(op_event_kind(instr.arg, result), _layers(result))
        stack.append(result)
        return pc + 1

    def _op_intrinsic(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        name, argc = instr.arg
        args = stack[-argc:] if argc else []
        del stack[len(stack) - argc:]
        if is_reduction_call(name, argc):
            self._record("reduce")
            stack.append(call_intrinsic(name, args, mask=self._reduce_mask()))
        else:
            self._record("real_op")
            stack.append(call_intrinsic(name, args))
        return pc + 1

    def _op_iota(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        hi = stack.pop()
        stack.append(self._iota(stack.pop(), hi))
        return pc + 1

    def _iota(self, lo, hi):
        hi = self._uniform_int(hi, "range upper bound")
        lo = self._uniform_int(lo, "range lower bound")
        vec = np.arange(lo, hi + 1, dtype=np.int64)
        if vec.shape[0] != self.nproc:
            raise InterpreterError(
                f"range vector [{lo} : {hi}] has {vec.shape[0]} "
                f"elements, machine has {self.nproc} PEs"
            )
        return vec

    def _op_vector(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        count = instr.arg
        items = stack[-count:]
        del stack[len(stack) - count:]
        stack.append(self._vector(items))
        return pc + 1

    def _vector(self, items: list):
        vec = np.array([coerce(v) for v in items])
        if vec.shape[0] != self.nproc:
            raise InterpreterError(
                f"vector literal has {vec.shape[0]} elements, "
                f"machine has {self.nproc} PEs"
            )
        return vec

    def _op_call(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        name, arg_exprs = instr.arg
        values = stack[len(stack) - len(arg_exprs):]
        del stack[len(stack) - len(arg_exprs):]
        # Var arguments were compiled as lazy placeholders.
        resolved = [
            env.get(expr.name) if isinstance(expr, ast.Var) else value
            for expr, value in zip(arg_exprs, values)
        ]
        self._call_external(name, arg_exprs, resolved, env)
        return pc + 1

    def _op_enter(self, instr, pc, env, stack):
        """CALL of a MiniF subroutine: open a frame, jump to its entry.

        The caller's environment is parked in the frame and ``env``
        becomes the callee's (the dict object is reused, so the
        dispatch loop and every handler keep one reference)."""
        self._tick1(instr, pc)
        name, params, arg_exprs, entry = instr.arg
        count = len(arg_exprs)
        values = stack[len(stack) - count:]
        del stack[len(stack) - count:]
        if name in self.externals:  # an external shadows the subroutine
            self._call_external(name, arg_exprs, values, env)
            return pc + 1
        if len(params) != count:
            raise InterpreterError(f"CALL {name}: arity mismatch")
        if len(self._frames) >= MAX_CALL_DEPTH:
            raise BudgetExceeded(
                f"call depth exceeded ({MAX_CALL_DEPTH} frames); "
                "suspected runaway recursion"
            )
        self.counters.record("acu")
        writeback = [
            (param, arg)
            for param, arg, value in zip(params, arg_exprs, values)
            if not isinstance(value, FArray)
            and isinstance(arg, (ast.Var, ast.ArrayRef))
        ]
        frame = (pc + 1, dict(env), len(self._mask_stack), writeback, instr.loc)
        self._frames.append(frame)
        env.clear()
        env.update(zip(params, values))
        return entry

    def _op_ret(self, instr, pc, env, stack):
        """RETURN: close the callee's open scopes, restore the caller's
        environment and write scalar arguments back (halts when no
        frame is open)."""
        self._tick1(instr, pc)
        if not self._frames:
            self._pop_scopes(0)
            return _HALT_PC
        return_pc, caller, depth, writeback, call_loc = self._frames.pop()
        self._pop_scopes(depth)
        results = [(target, env[param]) for param, target in writeback]
        env.clear()
        env.update(caller)
        try:
            for target, value in results:
                self.assign_to(target, value, env)
        except MiniFError as error:
            raise locate(error, call_loc)  # the writeback is the CALL's
        return return_pc

    def _pop_scopes(self, depth: int) -> None:
        """Close WHERE scopes until ``depth`` remain open."""
        while len(self._mask_stack) > depth:
            self._mask_stack.pop()
            self._epoch.flush(self.counters)
            self._epoch = self._epochs.pop()

    def _hook_handlers(self, handlers: list, code: CodeObject) -> None:
        """Wrap the first instruction of every statement so it calls
        the statement hook, and the WHILE re-entry jumps so the loop
        head does not count as a new execution of the WHILE."""
        hook = self.statement_hook

        def starts(handler, stmts):
            def run_hooked(instr, pc, env, stack):
                if self._hook_skip:
                    self._hook_skip = False
                else:
                    mask = self._epoch.mask
                    for stmt in stmts:
                        hook(stmt, env, mask)
                return handler(instr, pc, env, stack)

            return run_hooked

        def reenters(handler):
            def run_reentry(instr, pc, env, stack):
                target = handler(instr, pc, env, stack)
                self._hook_skip = True
                return target

            return run_reentry

        for pc in code.reentries:
            handlers[pc] = reenters(handlers[pc])
        for pc, stmts in code.statements.items():
            handlers[pc] = starts(handlers[pc], stmts)

    def _op_push_mask(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        cond = stack.pop()
        # Recorded under the *enclosing* mask, whose epoch is saved with
        # its pending layers (no flush) and resumed by POP_MASK.
        self._record("mask")
        outer = self._epoch
        cond_arr = np.asarray(coerce(cond))
        self._mask_stack.append((outer.mask, cond_arr))
        self._epochs.append(outer)
        self._epoch = _Epoch(self._combine(outer.mask, cond_arr), self.nproc)
        return pc + 1

    def _combine(self, outer, cond):
        """``outer ∧ cond`` for a freshly pushed WHERE scope (pooled)."""
        return self._narrow(outer, cond, len(self._mask_stack) - 1, negate=False)

    def _op_else_mask(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        if not self._mask_stack:
            raise InterpreterError("ELSE_MASK with empty mask stack")
        outer, cond = self._mask_stack[-1]
        # The ELSEWHERE mask op runs under the *enclosing* mask: charge
        # it to the enclosing scope's saved epoch.
        enclosing = self._epochs[-1]
        enclosing.pending += self.counters.record(
            "mask", width=self.nproc, active=enclosing.active, defer_lanes=True
        )
        self._epoch.flush(self.counters)
        self._epoch = _Epoch(
            self._narrow(outer, cond, len(self._mask_stack) - 1, negate=True),
            self.nproc,
        )
        return pc + 1

    def _op_pop_mask(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        if not self._mask_stack:
            raise InterpreterError("POP_MASK with empty mask stack")
        self._mask_stack.pop()
        self._epoch.flush(self.counters)
        self._epoch = self._epochs.pop()
        return pc + 1

    def _op_jump(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        if instr.acu:
            self.counters.record("acu")
        return instr.arg

    def _op_jump_if_false(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        self.counters.record("acu")
        if not self._uniform_bool(stack.pop()):
            return instr.arg
        return pc + 1

    def _op_ctl_store(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        name, mode = instr.arg
        value = stack.pop()
        if mode == "int":
            env[name] = self._uniform_int(value, f"loop control '{name}'")
        else:
            env[name] = value
        return pc + 1

    def _op_for(self, instr, pc, env, stack):
        """DO loop head: the trip counter, not the loop variable, is
        tested, so a body that assigns the variable does not change the
        trip count; each trip (and the exit) sets the variable from it."""
        self._tick1(instr, pc)
        var, counter, limit, stride_name, exit_index = instr.arg
        current = env[counter]
        stride = env[stride_name]
        if stride == 0:
            raise InterpreterError("DO stride is zero")
        env[var] = current
        if (stride > 0 and current <= env[limit]) or (
            stride < 0 and current >= env[limit]
        ):
            self.counters.record("acu")
            return pc + 1
        return exit_index

    def _op_for_incr(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        counter, stride_name = instr.arg
        env[counter] = env[counter] + env[stride_name]
        return pc + 1

    def _op_nop(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        return pc + 1

    def _op_halt(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        return _HALT_PC

    # -- block closures -------------------------------------------------------------

    def _block_helpers(self) -> dict:
        """What a block closure calls, bound to this machine (see
        :mod:`repro.vm.fuse`)."""
        return {
            "dispatch": self._dispatch,
            "retire": self._retire_block,
            "fault": self._block_fault,
            "unset": _unset,
            "store": self._store,
            "load_indexed": self._load_indexed,
            "store_indexed": self._store_resolved,
            "sub_e": self._sub_e,
            "sub_l": self._sub_l,
            "sub_u": self._sub_u,
            "sub_b": self._sub_b,
            "FULL": _FULL,
            "binop": _binop,
            "unop": _unop,
            "reduce": self._reduce,
            "elemental": _elemental,
            "iota": self._iota,
            "vector": self._vector,
            "alloc": self._alloc,
            "uniform_int": self._uniform_int,
            **_BINOPS,
        }

    def _retire_block(self, run, events: list) -> None:
        """Charge a retired block's steps, trace and events at once.

        The deadline poll comes last, so a deadline dump holds the
        whole block: its steps, trace, events and pc.
        """
        count = run.count
        self.executed += count
        self._trace.extend(run.tail)
        if events:
            epoch = self._epoch
            epoch.pending += self.counters.record_block(
                events, width=self.nproc, active=epoch.active, defer_lanes=True
            )
        self._last_pc = run.start + count - 1
        if run.last_loc is not None:
            self._last_loc = run.last_loc
        self._meter.advance(count, run.last_loc)

    def _block_fault(self, run, index: int, events: list, error):
        """Crash accounting when instruction ``index`` of a block faults.

        Steps, the trace ring and the collected counter events are
        charged up to and including the faulting instruction, and the
        snapshot is pinned to its pc, so the crash dump is the one
        per-instruction execution produces.  Returns ``error``.
        """
        count = index + 1
        self.executed += count
        self._meter.add_silent(count)
        self._trace.extend(run.trace[:count])
        if events:
            epoch = self._epoch
            epoch.pending += self.counters.record_block(
                events, width=self.nproc, active=epoch.active, defer_lanes=True
            )
        self._last_pc = run.start + index
        for instr in reversed(run.instrs[:count]):
            if instr.loc is not None:
                self._last_loc = instr.loc
                break
        locate(error, run.instrs[index].loc)
        return attach_snapshot(error, self.snapshot())

    def _reduce_mask(self):
        """The lane mask a reduction selects with (None: every lane)."""
        epoch = self._epoch
        return None if epoch.all_active else epoch.lanes

    def _reduce(self, name: str, args: list, events: list):
        events.append(_REDUCE_EVENT)
        return call_intrinsic(name, args, mask=self._reduce_mask())

    # -- helpers -------------------------------------------------------------------

    def _store(self, env: dict, name: str, value, events) -> None:
        """Masked store of ``value`` into variable ``name``.

        Semantics mirror the tree-walking twin's ``_assign_var``
        exactly (the differential suite holds the two to the same
        environments and counters).
        """
        if isinstance(value, FArray):
            value = value.data
        existing = env.get(name)
        epoch = self._epoch
        nproc = self.nproc
        if isinstance(existing, FArray):
            data = existing.data
            layers = max(1, data.size // nproc)
            if events is None:
                self._record("store", layers)
            else:
                events.append(("store", layers))
            if epoch.all_active:
                data[...] = value
                return
            if data.shape[0] != nproc:
                raise InterpreterError(
                    f"masked whole-array assignment to '{name}' needs a "
                    f"leading dimension of {nproc}"
                )
            mask = epoch.mask
            if mask.ndim < data.ndim:
                mask = align_mask(mask, data.ndim)
            data[...] = np.where(mask, value, data)
            return
        if events is None:
            self._record("store", _layers(value))
        else:
            events.append(
                _STORE_EVENT
                if not isinstance(value, np.ndarray) or value.ndim < 2
                else ("store", _layers(value))
            )
        if epoch.all_active:
            env[name] = value
            return
        new = value if isinstance(value, np.ndarray) else np.asarray(value)
        if existing is None:
            # First write happens under a partial mask: the masked-out
            # lanes' memory is simply uninitialized on a real machine;
            # model it as zero (of the stored value's type).
            old = np.zeros(nproc, dtype=new.dtype)
        else:
            old = existing if isinstance(existing, np.ndarray) else np.asarray(existing)
            if old.ndim == 0:
                old = np.full(nproc, old.item())
        if new.ndim > old.ndim:
            old = np.broadcast_to(old[..., None], new.shape).copy()
        mask = epoch.lanes
        ndim = max(old.ndim, new.ndim)
        if ndim > 1:
            mask = align_mask(mask, ndim)
        env[name] = np.where(mask, new, old)

    def _alloc(self, env: dict, values: list, arg) -> None:
        """ALLOC of ``arg = (name, rank, base)``; ``values`` are the
        extents in push order (checked last to first)."""
        name, _rank, base = arg
        extents = [
            self._uniform_int(value, f"extent of {name}") for value in reversed(values)
        ]
        extents.reverse()
        existing = env.get(name)
        if isinstance(existing, FArray):
            return
        # A binding overwrites every element, so skip the zero fill —
        # large pairlist bindings would otherwise be touched twice.
        array = FArray(name, tuple(extents), base, fill=existing is None)
        if isinstance(existing, np.ndarray):
            if existing.size != array.size:
                raise InterpreterError(
                    f"binding for '{name}' has {existing.size} elements, "
                    f"declared {array.size}"
                )
            array.data[...] = existing.reshape(array.shape)
        elif existing is not None:
            array.data[...] = existing
        env[name] = array

    def _decode_subscripts(self, stack: list, spec: str) -> list:
        """Pop subscript operands per the spec (rightmost dim on top)
        and resolve them, leftmost dimension first."""
        operands: list = []
        for code in reversed(spec):
            if code == "b":
                hi = stack.pop()
                operands.append((stack.pop(), hi))
            elif code == "f":
                operands.append(None)
            elif code in "elu":
                operands.append(stack.pop())
            else:  # pragma: no cover - compiler emits valid specs
                raise InterpreterError(f"bad subscript spec '{code}'")
        operands.reverse()
        resolved = []
        for code, value in zip(spec, operands):
            if code == "e":
                resolved.append(self._sub_e(value))
            elif code == "f":
                resolved.append(_FULL)
            elif code == "l":
                resolved.append(self._sub_l(value))
            elif code == "u":
                resolved.append(self._sub_u(value))
            else:
                resolved.append(self._sub_b(*value))
        return resolved

    def _sub_e(self, value):
        """An expression subscript: a lane vector, or a uniform int."""
        value = coerce(value)
        if isinstance(value, np.ndarray) and value.ndim >= 1:
            return value
        return self._uniform_int(value, "subscript")

    def _sub_l(self, lo):
        return slice(self._uniform_int(lo, "section bound") - 1, None)

    def _sub_u(self, hi):
        return slice(0, self._uniform_int(hi, "section bound"))

    def _sub_b(self, lo, hi):
        return slice(
            self._uniform_int(lo, "section bound") - 1,
            self._uniform_int(hi, "section bound"),
        )

    def _load_indexed(self, env: dict, name: str, subs: list, events):
        """Load of ``name`` at resolved subscripts (gather when a
        subscript is a lane vector)."""
        array = env.get(name)
        if isinstance(array, FArray):
            if any(isinstance(s, np.ndarray) for s in subs):
                return self._gather(array, subs, events)
            # No active lane consumes this load; clamp instead of trap.
            index = array.np_index(subs, clamp=not self._epoch.any_active)
            result = array.data[index]
            return result.copy() if isinstance(result, np.ndarray) else result
        if isinstance(array, np.ndarray) and array.ndim == 1 and len(subs) == 1:
            sub = subs[0]
            lanes = self._epoch.lanes
            if isinstance(sub, slice):
                return array[sub].copy()
            arr = np.asarray(sub)
            if arr.ndim == 0:
                arr = np.full(self.nproc, int(arr))
            if self._epoch.all_active:
                if np.any((arr < 1) | (arr > array.shape[0])):
                    raise OutOfBoundsFault(f"subscript out of bounds for '{name}'")
                self._account("gather", 1, events)
                return array[arr - 1]
            if self._epoch.any_active:
                active = arr[lanes]
                if np.any((active < 1) | (active > array.shape[0])):
                    raise OutOfBoundsFault(f"subscript out of bounds for '{name}'")
            clamped = np.clip(arr, 1, array.shape[0])
            self._account("gather", 1, events)
            return array[clamped - 1]
        raise InterpreterError(f"'{name}' is not an array")

    def _gather(self, array: FArray, subs: list, events):
        lanes = self._epoch.lanes
        nproc = self.nproc
        all_active = self._epoch.all_active
        any_active = self._epoch.any_active
        index = []
        for dim, sub in enumerate(subs):
            if isinstance(sub, slice):
                raise InterpreterError(
                    f"cannot mix sections and vector subscripts on '{array.name}'"
                )
            arr = np.asarray(sub)
            if arr.ndim == 0:
                arr = np.full(nproc, int(arr))
            if arr.shape[0] != nproc:
                raise InterpreterError(
                    f"vector subscript of '{array.name}' has length "
                    f"{arr.shape[0]}, expected {nproc}"
                )
            if all_active:
                # every lane was bounds-checked; the clamp would be a no-op
                array.check_subscript(dim, arr)
                index.append(arr - 1)
                continue
            # MiniF integers are already int64; bound-in arrays of other
            # dtypes (bool False is subscript 0) cast once.
            offset = arr.astype(np.int64, copy=False) - 1
            if any_active:
                # one unsigned compare: negative offsets wrap high
                bad = offset.view(np.uint64) >= array.shape[dim]
                if bad.ndim > 1:
                    bad = bad.any(axis=tuple(range(1, bad.ndim)))
                np.logical_and(bad, lanes, out=bad)
                if bad.any():
                    array.check_subscript(dim, arr[lanes])
            index.append(offset)
        if events is None:
            self._record("gather")
        else:
            events.append(_GATHER_EVENT)
        data = array.data
        rank = len(index)
        if 0 in data.shape[:rank]:
            # A zero extent has nothing to clamp into: index as given, so
            # an all-inactive gather fails like the interpreter's.
            return data[tuple(index)]
        if rank == 1:
            if all_active:
                return data.take(index[0], axis=0)
            # "clip" clamps each offset into its extent, so inactive
            # lanes read the clamped element exactly as an eager clamp
            # would.
            return data.take(index[0], axis=0, mode="clip")
        # One flat index into the leading ``rank`` axes.  Partial masks
        # clamp each (fresh) offset array in place first, as
        # ``ravel_multi_index(mode="clip")`` would, at a third its cost.
        flat = None
        for extent, offset in zip(data.shape, index):
            if not all_active:
                np.maximum(offset, 0, out=offset)
                np.minimum(offset, extent - 1, out=offset)
            if flat is None:
                flat = offset
            elif flat.shape == offset.shape:
                flat *= extent
                flat += offset
            else:
                flat = flat * extent + offset
        return data.reshape((-1,) + data.shape[rank:]).take(flat, axis=0)

    def _store_resolved(self, env: dict, name: str, subs: list, value, events) -> None:
        """Masked indexed store with already-resolved subscripts."""
        array = env.get(name)
        if not isinstance(array, FArray):
            raise InterpreterError(f"'{name}' is not an array")
        if any(isinstance(s, np.ndarray) for s in subs):
            self._scatter(array, subs, value, events)
            return
        # Issued with no active lane: the store writes nothing, so the
        # (possibly garbage) address must not trap — clamp, don't check.
        index = array.np_index(subs, clamp=not self._epoch.any_active)
        region = array.data[index]
        layers = _layers(region)
        self._account("store", layers, events)
        if not (isinstance(region, np.ndarray) and region.ndim >= 1):
            # All lanes address the same element.  A per-lane value is
            # legal lockstep only when the active lanes agree (they all
            # write the same thing); otherwise the store is a race.
            varr = np.asarray(value)
            if varr.ndim >= 1:
                if varr.ndim != 1 or varr.shape[0] != self.nproc:
                    raise InterpreterError(
                        f"cannot store an array value into element of '{name}'"
                    )
                lanes = self._epoch.lanes
                active = varr[lanes] if self._epoch.any_active else varr
                if not np.all(active == active.flat[0]):
                    # The static R001 lint rule catches this at compile
                    # time; classify as a divergence fault either way.
                    raise DivergenceFault(
                        f"divergent lanes race on scalar element store to "
                        f"'{name}'"
                    )
                value = active.flat[0].item()
        if self._epoch.all_active:
            array.data[index] = coerce(value)
            return
        if isinstance(region, np.ndarray) and region.ndim >= 1:
            if region.shape[0] != self.nproc:
                raise InterpreterError(
                    f"masked section assignment to '{name}' needs the "
                    f"leading extent to be {self.nproc}"
                )
            mask = align_mask(self._epoch.mask, region.ndim)
            array.data[index] = np.where(mask, coerce(value), region)
            return
        if self._uniform_bool(self._epoch.mask):
            array.data[index] = coerce(value)

    def _scatter(self, array: FArray, subs: list, value, events) -> None:
        nproc = self.nproc
        all_active = self._epoch.all_active
        index = []
        for dim, sub in enumerate(subs):
            if isinstance(sub, slice):
                raise InterpreterError(
                    f"cannot mix sections and vector subscripts on '{array.name}'"
                )
            arr = np.asarray(sub)
            if arr.ndim == 0:
                arr = np.full(nproc, int(arr))
            if all_active:
                array.check_subscript(dim, arr)
                index.append(arr - 1)
                continue
            picked = arr.take(self._epoch.where(), axis=0)
            if self._epoch.any_active:
                array.check_subscript(dim, picked)
            index.append(picked - 1)
        if events is None:
            self._record("scatter")
        else:
            events.append(_SCATTER_EVENT)
        new = np.asarray(coerce(value))
        if new.ndim == 0:
            new = np.full(nproc, new.item())
        array.data[tuple(index)] = (
            new if all_active else new.take(self._epoch.where(), axis=0)
        )

    def _call_external(self, name: str, arg_exprs, args: list, env: dict) -> None:
        external = self.externals.get(name)
        if external is None:
            raise InterpreterError(f"CALL to unknown external '{name}'")
        layers = max((_layers(v) for v in args if v is not None), default=1)
        epoch = self._epoch
        epoch.pending += self.counters.record_call(
            name, layers=layers, active=epoch.active, defer_lanes=True
        )
        external(self, list(arg_exprs), args, env, epoch.mask)

    # -- writeback -----------------------------------------------------------------

    def assign_to(self, target, value, env: dict) -> None:
        """Masked store into a Var or ArrayRef target.

        The writeback of a subroutine's scalar arguments at ``RET``,
        and of an external routine's outputs.  An ``ArrayRef``'s
        subscripts are compiled once per target node and evaluated
        here, in ``env``, like any other instructions of the run.
        """
        value = coerce(value)
        if isinstance(target, ast.Var):
            self._store(env, target.name, value, None)
            return
        if not isinstance(target, ast.ArrayRef):
            raise InterpreterError("invalid assignment target")
        compiled = self._targets.get(id(target))
        if compiled is None:
            # the node rides along so its id cannot be reused
            compiled = self._targets[id(target)] = (
                target, *compile_subscripts(target)
            )
        _target, spec, code = compiled
        stack: list = []
        pc = self._last_pc
        dispatch = self._dispatch
        for instr in code:
            dispatch[instr.op](instr, pc, env, stack)
        subs = self._decode_subscripts(stack, spec)
        self._store_resolved(env, target.name, subs, value, None)


def run_bytecode(
    source: ast.SourceFile,
    nproc: int,
    bindings: dict | None = None,
    externals: dict | None = None,
) -> tuple[dict, ExecutionCounters]:
    """Compile the main program and run it on the VM."""
    from .compiler import compile_program

    code = compile_program(source)
    vm = SIMDVirtualMachine(nproc, externals)
    env = vm.run(code, bindings=bindings)
    return env, vm.counters
