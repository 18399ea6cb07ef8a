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
* **superinstructions** — unless ``fuse=False`` (or a fault plan
  demands exact per-instruction stepping), straight-line runs are
  fused by :func:`repro.vm.fuse.fuse_code` and executed in a tight
  loop with one budget tick, one trace extension and one batched
  counter flush per run (the activity mask is constant inside a run
  by construction);
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
from .fuse import (
    S_ALLOC,
    S_BINOP,
    S_CTL_STORE,
    S_FOR_INCR,
    S_INTRINSIC_ELEM,
    S_INTRINSIC_REDUCE,
    S_IOTA,
    S_LOAD,
    S_LOAD_INDEXED,
    S_PUSH_CONST,
    S_STORE,
    S_STORE_INDEXED,
    S_UNOP,
    S_VECTOR,
    fuse_code,
)
from .compiler import compile_subscripts
from .isa import CodeObject, Instr, Op

#: Sentinel next-pc returned by HALT (terminates the dispatch loop).
_HALT_PC = -1

#: Deepest MiniF call chain a run may open (runaway recursion guard).
MAX_CALL_DEPTH = 1000


class _Epoch:
    """One installed activity mask: its reductions, computed once, and
    the per-lane layers charged to it but not yet applied.

    Vector events add their layer count to ``pending`` of the epoch
    they ran under; :meth:`flush` applies it to
    ``counters.lane_active_steps`` before the mask's pooled buffer can
    be reused.  Integer adds commute, so totals are exact.
    """

    __slots__ = ("mask", "lanes", "active", "any_active", "all_active", "pending")

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

    Args:
        nproc: Processing-element count.
        externals: Mapping name -> callable with the interpreter
            external convention ``fn(vm, arg_exprs, args, env, mask)``.
        counters: Event accumulator (fresh when omitted).
        budget: Runaway-loop guard (None = ``Budget()``, the default
            step cap).
        fault_plan: Deterministic fault injection
            (:class:`~repro.reliability.FaultPlan`).  Forces exact
            per-instruction stepping (no fusion) so op faults fire at
            precisely the planned step.
        fuse: Execute superinstruction-fused code (the fast path).
            ``False`` retires one instruction per dispatch with exact
            per-instruction budget metering — the reference mode the
            fuzz oracle runs differentially against the fused mode.
        checkpoint_every: Capture a restorable
            :class:`~repro.reliability.checkpoint.Checkpoint` every
            this many executed instructions (checked between dispatch
            iterations, so fused runs stretch the interval by at most
            ``MAX_FUSE_LEN - 1`` steps).  ``None`` disables capture.
        checkpoint_sink: Callable receiving each captured checkpoint
            (e.g. ``CheckpointStore.save`` bound to a key).
        statement_hook: Optional ``hook(stmt, env, mask)`` called before
            each executed statement (trace recording, translation
            validation); a hooked run executes unfused.
    """

    def __init__(
        self,
        nproc: int,
        externals: dict | None = None,
        counters: ExecutionCounters | None = None,
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
        self.counters = counters if counters is not None else ExecutionCounters(nproc)
        self.budget = budget if budget is not None else Budget()
        self.fault_plan = fault_plan
        self.fuse = fuse
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.statement_hook = statement_hook
        self.executed = 0
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
            Op.FUSED: self._op_fused,
        }

    @classmethod
    def from_config(cls, config) -> "SIMDVirtualMachine":
        """Construct from a :class:`~repro.runtime.BackendConfig`."""
        kwargs = dict(
            externals=config.externals,
            counters=config.counters,
            budget=config.budget,
            fault_plan=config.fault_plan,
            fuse=config.vm_fuse,
            checkpoint_every=config.checkpoint_every,
        )
        return cls(config.nproc, **kwargs)

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
        """``outer ∧ cond`` (or ``outer ∧ ¬cond``) into a pooled buffer."""
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

    @staticmethod
    def _layers_of(value) -> int:
        value = coerce(value)
        if isinstance(value, np.ndarray) and value.ndim >= 2:
            layers = 1
            for extent in value.shape[1:]:
                layers *= extent
            return layers
        return 1

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
            run_code = code  # op faults need exact per-instruction stepping
            fused = False
        elif self.fuse and self.statement_hook is None:
            run_code = fuse_code(code)
            fused = True
        else:
            run_code = code
            fused = False
        instructions = run_code.instructions
        dispatch = self._dispatch
        handlers = [dispatch.get(i.op, self._op_unknown) for i in instructions]
        if self.statement_hook is not None:
            self._hook_handlers(handlers, run_code)
        size = len(instructions)
        pc = start
        if resume_from is not None:
            pc, env, stack = self._restore(resume_from, fused)
            self._env = env
        next_at = None
        if every and sink is not None:
            next_at = (self.executed // every + 1) * every
        try:
            while 0 <= pc < size:
                if next_at is not None and self.executed >= next_at:
                    sink(self._capture(pc, env, stack, fused))
                    next_at = (self.executed // every + 1) * every
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

    def _capture(self, pc: int, env: dict, stack: list, fused: bool) -> Checkpoint:
        """Full restorable state at an instruction boundary.

        Runs between dispatch iterations only, so a capture can never
        land inside a fused superinstruction — the restored machine is
        always in a state the unfused VM could also have reached.
        """
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
            meta={"fuse": fused},
        ).detach()

    def _restore(self, ckpt: Checkpoint, fused: bool):
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
        if ckpt.meta.get("fuse", fused) != fused:
            # pc indexes fused and unfused code identically *between*
            # runs of straight-line code, but a mid-padding pc from one
            # mode is a NOP in the other — refuse the silent skip.
            raise InterpreterError(
                "checkpoint was captured with "
                f"fuse={ckpt.meta.get('fuse')}, this run has fuse={fused}"
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
        self._alloc(env, stack, instr.arg)
        return pc + 1

    def _op_load_indexed(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        stack.append(self._load_indexed(env, stack, instr.arg, None))
        return pc + 1

    def _op_store_indexed(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        self._store_indexed(env, stack, instr.arg, None)
        return pc + 1

    def _op_binop(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        right = stack.pop()
        left = stack.pop()
        result = apply_binop(instr.arg, left, right)
        self._record(op_event_kind(instr.arg, result), self._layers_of(result))
        stack.append(result)
        return pc + 1

    def _op_unop(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        result = apply_unop(instr.arg, stack.pop())
        self._record(op_event_kind(instr.arg, result), self._layers_of(result))
        stack.append(result)
        return pc + 1

    def _op_intrinsic(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        name, argc = instr.arg
        args = stack[-argc:] if argc else []
        del stack[len(stack) - argc:]
        if is_reduction_call(name, argc):
            self._record("reduce")
            stack.append(call_intrinsic(name, args, mask=self._epoch.lanes))
        else:
            self._record("real_op")
            stack.append(call_intrinsic(name, args))
        return pc + 1

    def _op_iota(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        stack.append(self._iota(stack))
        return pc + 1

    def _iota(self, stack):
        hi = self._uniform_int(stack.pop(), "range upper bound")
        lo = self._uniform_int(stack.pop(), "range lower bound")
        vec = np.arange(lo, hi + 1, dtype=np.int64)
        if vec.shape[0] != self.nproc:
            raise InterpreterError(
                f"range vector [{lo} : {hi}] has {vec.shape[0]} "
                f"elements, machine has {self.nproc} PEs"
            )
        return vec

    def _op_vector(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        stack.append(self._vector(stack, instr.arg))
        return pc + 1

    def _vector(self, stack, count: int):
        items = [coerce(v) for v in stack[-count:]]
        del stack[len(stack) - count:]
        vec = np.array(items)
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
        inner = self._epoch = _Epoch(
            np.asarray(self._combine(outer.mask, cond_arr)), self.nproc
        )
        # Translation invariant: a WHERE can only narrow activity, i.e.
        # every active lane is active in the enclosing mask (cannot fire
        # when every enclosing lane is active).
        if (
            outer.active != self.nproc
            and inner.any_active
            and np.count_nonzero(inner.lanes & outer.lanes) != inner.active
        ):
            raise InterpreterError(
                "WHERE mask activates a lane outside the enclosing mask "
                "(translation invariant violated)"
            )
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
        self._tick1(instr, pc)
        var, limit, stride_name, exit_index = instr.arg
        current = env[var]
        stride = env[stride_name]
        if stride == 0:
            raise InterpreterError("DO stride is zero")
        if (stride > 0 and current <= env[limit]) or (
            stride < 0 and current >= env[limit]
        ):
            self.counters.record("acu")
            return pc + 1
        return exit_index

    def _op_for_incr(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        var, stride_name = instr.arg
        env[var] = env[var] + env[stride_name]
        return pc + 1

    def _op_nop(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        return pc + 1

    def _op_halt(self, instr, pc, env, stack):
        self._tick1(instr, pc)
        return _HALT_PC

    # -- superinstruction execution ------------------------------------------------

    def _op_fused(self, instr, pc, env, stack):
        """Execute one fused straight-line run.

        The activity mask is constant inside the run (mask opcodes
        terminate runs at fuse time), so counter events are collected
        as ``(kind, layers)`` pairs and flushed in one
        :meth:`~repro.exec.counters.ExecutionCounters.record_block`,
        and the budget meter is ticked once for the whole run after it
        retires (slack contract in :mod:`repro.reliability.budget`).
        """
        run = instr.arg
        events: list = []
        append = stack.append
        pop = stack.pop
        index = 0
        try:
            for code, a, comp in run.steps:
                if code == S_LOAD:
                    try:
                        append(env[a])
                    except KeyError:
                        raise InterpreterError(
                            f"'{a}' used before assignment"
                        ) from None
                elif code == S_BINOP:
                    right = pop()
                    left = pop()
                    result = apply_binop(a, left, right)
                    events.append(
                        (op_event_kind(a, result), self._layers_of(result))
                    )
                    append(result)
                elif code == S_PUSH_CONST:
                    append(a)
                elif code == S_STORE:
                    self._store(env, a, pop(), events)
                elif code == S_LOAD_INDEXED:
                    append(self._load_indexed(env, stack, a, events))
                elif code == S_STORE_INDEXED:
                    self._store_indexed(env, stack, a, events)
                elif code == S_UNOP:
                    result = apply_unop(a, pop())
                    events.append(
                        (op_event_kind(a, result), self._layers_of(result))
                    )
                    append(result)
                elif code == S_INTRINSIC_REDUCE:
                    name, argc = a
                    args = stack[-argc:] if argc else []
                    if argc:
                        del stack[len(stack) - argc:]
                    events.append(("reduce", 1))
                    append(call_intrinsic(name, args, mask=self._epoch.lanes))
                elif code == S_INTRINSIC_ELEM:
                    name, argc = a
                    args = stack[-argc:] if argc else []
                    if argc:
                        del stack[len(stack) - argc:]
                    events.append(("real_op", 1))
                    append(call_intrinsic(name, args))
                elif code == S_CTL_STORE:
                    name, mode = a
                    value = pop()
                    if mode == "int":
                        env[name] = self._uniform_int(
                            value, f"loop control '{name}'"
                        )
                    else:
                        env[name] = value
                elif code == S_FOR_INCR:
                    var, stride_name = a
                    env[var] = env[var] + env[stride_name]
                elif code == S_IOTA:
                    append(self._iota(stack))
                elif code == S_VECTOR:
                    append(self._vector(stack, a))
                elif code == S_ALLOC:
                    self._alloc(env, stack, a)
                # else: S_NOP — label placeholder, nothing to do
                index += 1
        except MiniFError as error:
            self._fused_fault(run, pc, index, events, error)
            raise
        count = run.count
        self.executed += count
        self._trace.extend(run.trace)
        if events:
            epoch = self._epoch
            epoch.pending += self.counters.record_block(
                events, width=self.nproc, active=epoch.active, defer_lanes=True
            )
        if run.last_loc is not None:
            self._last_loc = run.last_loc
        self._last_pc = pc + count - 1
        self._meter.tick_block(count, run.last_loc)
        return pc + count

    def _fused_fault(self, run, pc: int, index: int, events: list, error) -> None:
        """Exact crash accounting when a component of a fused run faults.

        Retired steps, the trace ring and the collected counter events
        are flushed up to and including the faulting component, and the
        snapshot is pinned to the component's original pc (fusion
        preserves instruction indices), so crash dumps are identical to
        what unfused execution would have produced.
        """
        count = min(index + 1, run.count)
        self.executed += count
        self._meter.add_silent(count)
        self._trace.extend(run.trace[:count])
        if events:
            epoch = self._epoch
            epoch.pending += self.counters.record_block(
                events, width=self.nproc, active=epoch.active, defer_lanes=True
            )
        self._last_pc = pc + count - 1
        for comp in reversed(run.instrs[:count]):
            if comp.loc is not None:
                self._last_loc = comp.loc
                break
        locate(error, run.instrs[count - 1].loc)
        attach_snapshot(error, self.snapshot())

    # -- helpers -------------------------------------------------------------------

    def _store(self, env: dict, name: str, value, events) -> None:
        """Masked store of ``value`` into variable ``name``.

        Semantics mirror the tree-walking twin's ``_assign_var``
        exactly (the differential suite holds the two to the same
        environments and counters).
        """
        value = coerce(value)
        existing = env.get(name)
        nproc = self.nproc
        if isinstance(existing, FArray):
            layers = max(1, existing.size // max(1, nproc))
            self._account("store", layers, events)
            if self._epoch.all_active:
                existing.data[...] = value
                return
            if existing.shape[0] != nproc:
                raise InterpreterError(
                    f"masked whole-array assignment to '{name}' needs a "
                    f"leading dimension of {nproc}"
                )
            mask = align_mask(self._epoch.mask, existing.data.ndim)
            existing.data[...] = np.where(mask, value, existing.data)
            return
        self._account("store", self._layers_of(value), events)
        if self._epoch.all_active:
            env[name] = value
            return
        if existing is None:
            # First write happens under a partial mask: the masked-out
            # lanes' memory is simply uninitialized on a real machine;
            # model it as zero (of the stored value's type).
            sample = np.asarray(value)
            existing = np.zeros(nproc, dtype=sample.dtype)
        old = np.asarray(coerce(existing))
        new = np.asarray(value)
        if old.ndim == 0:
            old = np.full(nproc, old.item())
        if new.ndim > old.ndim:
            old = np.broadcast_to(old[..., None], new.shape).copy()
        mask = align_mask(self._epoch.lanes, max(old.ndim, new.ndim))
        env[name] = np.where(mask, new, old)

    def _alloc(self, env: dict, stack: list, arg) -> None:
        name, rank, base = arg
        extents = [
            self._uniform_int(stack.pop(), f"extent of {name}") for _ in range(rank)
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
        """Pop subscript operands per the spec (rightmost dim on top)."""
        subs: list = []
        for code in reversed(spec):
            if code == "e":
                subs.append(("e", stack.pop()))
            elif code == "f":
                subs.append(("f", None))
            elif code == "l":
                subs.append(("l", stack.pop()))
            elif code == "u":
                subs.append(("u", stack.pop()))
            elif code == "b":
                hi = stack.pop()
                lo = stack.pop()
                subs.append(("b", (lo, hi)))
            else:  # pragma: no cover - compiler emits valid specs
                raise InterpreterError(f"bad subscript spec '{code}'")
        subs.reverse()
        resolved = []
        for code, value in subs:
            if code == "e":
                value = coerce(value)
                if isinstance(value, np.ndarray) and value.ndim >= 1:
                    resolved.append(value)
                else:
                    resolved.append(self._uniform_int(value, "subscript"))
            elif code == "f":
                resolved.append(slice(None, None))
            elif code == "l":
                resolved.append(
                    slice(self._uniform_int(value, "section bound") - 1, None)
                )
            elif code == "u":
                resolved.append(slice(0, self._uniform_int(value, "section bound")))
            else:
                lo, hi = value
                resolved.append(
                    slice(
                        self._uniform_int(lo, "section bound") - 1,
                        self._uniform_int(hi, "section bound"),
                    )
                )
        return resolved

    def _pop_subs_vector(self, stack: list, count: int) -> list:
        """Fast path of :meth:`_decode_subscripts` for all-'e' specs."""
        raw = stack[-count:]
        del stack[len(stack) - count:]
        resolved = []
        for value in raw:
            value = coerce(value)
            if isinstance(value, np.ndarray) and value.ndim >= 1:
                resolved.append(value)
            else:
                resolved.append(self._uniform_int(value, "subscript"))
        return resolved

    def _load_indexed(self, env: dict, stack: list, arg, events):
        if len(arg) == 3:
            name, spec, all_vector = arg
        else:
            name, spec = arg
            all_vector = False
        if all_vector:
            subs = self._pop_subs_vector(stack, len(spec))
        else:
            subs = self._decode_subscripts(stack, spec)
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
        self._account("gather", 1, events)
        data = array.data
        rank = len(index)
        if all_active or 0 in data.shape[:rank]:
            # A zero extent has nothing to clamp into: index as given, so
            # an all-inactive gather fails like the interpreter's.
            return data[tuple(index)]
        # "clip" clamps each offset into its extent, so inactive lanes
        # read the clamped element exactly as an eager clamp would.
        if rank == 1:
            return data.take(index[0], axis=0, mode="clip")
        flat = np.ravel_multi_index(tuple(index), data.shape[:rank], mode="clip")
        return data.reshape((-1,) + data.shape[rank:]).take(flat, axis=0)

    def _store_indexed(self, env: dict, stack: list, arg, events) -> None:
        name, spec = arg
        subs = self._decode_subscripts(stack, spec)
        value = stack.pop()
        self._store_resolved(env, name, subs, value, events)

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
        layers = self._layers_of(region)
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
        lanes = self._epoch.lanes
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
            picked = arr[lanes]
            if self._epoch.any_active:
                array.check_subscript(dim, picked)
            index.append(picked - 1)
        self._account("scatter", 1, events)
        new = np.asarray(coerce(value))
        if new.ndim == 0:
            new = np.full(nproc, new.item())
        array.data[tuple(index)] = new if all_active else new[lanes]

    def _call_external(self, name: str, arg_exprs, args: list, env: dict) -> None:
        external = self.externals.get(name)
        if external is None:
            raise InterpreterError(f"CALL to unknown external '{name}'")
        layers = max((self._layers_of(v) for v in args if v is not None), default=1)
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
