"""Sequential (F77) interpreter for MiniF.

Executes a program the way the paper's Sparc 2 reference runs: one
thread of control, ordinary loop semantics.  Execution events are
recorded into :class:`~repro.exec.counters.ExecutionCounters` so a
scalar machine model can price the run.

The interpreter is dynamically typed (ints, floats, bools,
:class:`~repro.exec.values.FArray`); whole-array assignments and array
sections are supported Fortran-90 style.
"""

from __future__ import annotations

import copy
from collections import deque

import numpy as np

from ..lang import ast
from ..lang.errors import InterpreterError, MiniFError
from ..lang.symbols import implicit_type
from ..reliability import (
    Budget,
    MachineSnapshot,
    OutOfBoundsFault,
    TRACE_DEPTH,
    attach_snapshot,
    locate,
    snapshot_env,
)
from ..reliability.checkpoint import Checkpoint
from .counters import ExecutionCounters
from .intrinsics import call_intrinsic, coerce
from .ops import apply_binop, apply_unop, op_event_kind, value_event_kind
from .signals import (
    GotoSignal,
    LoopCycle,
    LoopExit,
    ReturnSignal,
    StopSignal,
)
from .values import FArray, as_bool_scalar, as_int_scalar, check_bounds

#: ``_exec_<type>`` handler name per statement class, built on first use.
_HANDLER_NAMES: dict[type, str] = {}

#: Sentinel for an unbound variable (``None`` is a valid env value).
_UNSET = object()


class ScalarInterpreter:
    """Tree-walking sequential interpreter.

    Args:
        source: Parsed program (may contain subroutines).
        externals: Mapping from subroutine name to a Python callable
            ``fn(interp, arg_exprs, arg_values, env)`` implementing it.
        counters: Event accumulator (created fresh when omitted).
        statement_hook: Optional callable ``hook(stmt, env)`` invoked
            before each executed statement — used by trace recorders.
        max_statements: Safety bound on executed statements (shorthand
            for a ``Budget(max_steps=...)``).
        budget: Execution guard; overrides ``max_statements``.
        fault_plan: Deterministic fault injection
            (:class:`~repro.reliability.FaultPlan`).
        checkpoint_every: Capture a restorable
            :class:`~repro.reliability.checkpoint.Checkpoint` every
            this many executed statements, checked before each
            top-level statement.  Captures are deferred while a CALL
            into MiniF code is on the stack — the interval may stretch
            by one call's duration.  ``None`` disables capture.
        checkpoint_sink: Callable receiving each captured checkpoint.
    """

    def __init__(
        self,
        source: ast.SourceFile,
        externals: dict | None = None,
        counters: ExecutionCounters | None = None,
        statement_hook=None,
        max_statements: int = 20_000_000,
        budget: Budget | None = None,
        fault_plan=None,
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise InterpreterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.source = source
        self.externals = externals or {}
        self.counters = counters if counters is not None else ExecutionCounters(1)
        self.statement_hook = statement_hook
        self.max_statements = max_statements
        self.budget = budget if budget is not None else Budget(max_steps=max_statements)
        self.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.executed_statements = 0
        self._meter = self.budget.meter()
        self._trace: deque = deque(maxlen=TRACE_DEPTH)
        self._env: dict = {}
        self._routines = {unit.name: unit for unit in source.units}
        # Checkpoint machinery: the control-path frame stack is only
        # maintained when capture or resume is active (``_frames`` is
        # None otherwise and every compound statement takes its
        # original fast path).
        self._frames: list | None = None
        self._resume: list | None = None
        self._call_depth = 0
        self._ckpt_next: int | None = None

    @classmethod
    def from_config(cls, source: ast.SourceFile, config) -> "ScalarInterpreter":
        """Construct from a :class:`~repro.runtime.BackendConfig`.

        The scalar interpreter has no machine width; ``config.nproc``
        is ignored.
        """
        kwargs = dict(
            externals=config.externals,
            counters=config.counters,
            budget=config.budget,
            fault_plan=config.fault_plan,
            checkpoint_every=config.checkpoint_every,
        )
        if config.max_instructions is not None:
            kwargs["max_statements"] = config.max_instructions
        return cls(source, **kwargs)

    def snapshot(self) -> MachineSnapshot:
        """The interpreter's state right now (for crash dumps)."""
        return MachineSnapshot(
            backend="scalar",
            pc=self.executed_statements,
            steps=self.executed_statements,
            mask=[True],
            mask_stack=[],
            env=snapshot_env(self._env),
            last_ops=list(self._trace),
        )

    # -- entry points -----------------------------------------------------------

    def run(
        self,
        routine_name: str | None = None,
        bindings: dict | None = None,
        resume_from: Checkpoint | None = None,
    ) -> dict:
        """Execute a routine (the main PROGRAM by default); return its env.

        Errors raised mid-run carry a :meth:`snapshot` of the machine.

        With ``resume_from``, ``bindings`` are ignored and execution
        continues from the checkpoint's statement: the resumed run's
        final environment, counters and crash dumps are bit-identical
        to an uninterrupted run's.  The checkpoint is not mutated and
        may seed any number of resumes.
        """
        routine = (
            self.source.main if routine_name is None else self._routines[routine_name]
        )
        env: dict = dict(bindings or {})
        self._env = env
        self._meter = self.budget.meter()
        if self.fault_plan is not None:
            try:
                self.fault_plan.check_backend("scalar")
            except MiniFError as error:
                raise attach_snapshot(error, self.snapshot())
        if resume_from is not None:
            env = self._restore(resume_from)
            self._env = env
        capturing = bool(self.checkpoint_every) and self.checkpoint_sink is not None
        if capturing:
            every = self.checkpoint_every
            self._ckpt_next = (self.executed_statements // every + 1) * every
        else:
            self._ckpt_next = None
        self._frames = [] if (capturing or resume_from is not None) else None
        try:
            self.exec_body(routine.body, env)
        except (ReturnSignal, StopSignal):
            pass
        except MiniFError as error:
            raise attach_snapshot(error, self.snapshot())
        finally:
            self._resume = None
            self._frames = None
            self._ckpt_next = None
        return env

    # -- checkpoint capture / resume ----------------------------------------------

    def _emit_checkpoint(self, env: dict) -> None:
        """Capture full state before the next top-level statement runs."""
        self.checkpoint_sink(
            Checkpoint(
                backend="scalar",
                step=self.executed_statements,
                pc=self.executed_statements,
                env=env,
                frames=[list(frame) for frame in self._frames],
                counters=self.counters.state_dict(),
                meter_steps=self._meter.steps,
                trace=list(self._trace),
                nproc=1,
            ).detach()
        )

    def _restore(self, ckpt: Checkpoint) -> dict:
        """Install a checkpoint's state; returns the restored env.

        The checkpoint's mutable state is deep-copied in, so the same
        checkpoint object can seed any number of resumed runs.
        """
        if ckpt.backend != "scalar":
            raise InterpreterError(
                f"cannot resume a {ckpt.backend!r} checkpoint on the "
                "scalar backend"
            )
        env, frames, trace = copy.deepcopy((ckpt.env, ckpt.frames, ckpt.trace))
        self.executed_statements = ckpt.step
        self.counters.load_state(ckpt.counters)
        self._meter.steps = ckpt.meter_steps
        self._trace = deque(trace, maxlen=TRACE_DEPTH)
        self._resume = [list(frame) for frame in frames]
        return env

    # -- statements --------------------------------------------------------------

    def exec_body(self, body: list[ast.Stmt], env: dict) -> None:
        """Execute a statement list, honoring GOTO to labels it contains."""
        labels = {
            stmt.label: index
            for index, stmt in enumerate(body)
            if stmt.label is not None
        }
        frames = self._frames
        if frames is None:
            pc = 0
            while pc < len(body):
                try:
                    self.exec_stmt(body[pc], env)
                except GotoSignal as signal:
                    if signal.target in labels:
                        pc = labels[signal.target]
                        continue
                    raise
                pc += 1
            return
        # Checkpoint-tracking path: maintain a ["body", pc] frame so a
        # capture inside any statement knows its position here, and
        # honor a pending resume path by descending into the recorded
        # statement instead of starting at pc 0.
        pc = 0
        reenter = False
        resume = self._resume
        if resume:
            head = resume.pop(0)
            if not (isinstance(head, (list, tuple)) and head and head[0] == "body"):
                raise InterpreterError(
                    "corrupt checkpoint control path (expected a body frame)"
                )
            pc = int(head[1])
            if not (0 <= pc < len(body)):
                raise InterpreterError(
                    "checkpoint control path does not fit this program"
                )
            reenter = bool(resume)
            if not reenter:
                self._resume = None  # innermost position reached
        frame = ["body", pc]
        frames.append(frame)
        try:
            while pc < len(body):
                frame[1] = pc
                try:
                    if reenter:
                        reenter = False
                        self._reenter_stmt(body[pc], env)
                    else:
                        self.exec_stmt(body[pc], env)
                except GotoSignal as signal:
                    if signal.target in labels:
                        pc = labels[signal.target]
                        continue
                    raise
                pc += 1
        finally:
            frames.pop()

    def _reenter_stmt(self, stmt: ast.Stmt, env: dict) -> None:
        """Continue a compound statement mid-flight from a resume frame.

        The statement's own accounting (its trace entry, budget tick,
        condition evaluation for the in-progress iteration) happened
        before the checkpoint was captured and lives in the restored
        counters — only the *remaining* work runs here.
        """
        head = self._resume.pop(0)
        kind = head[0] if isinstance(head, (list, tuple)) and head else None
        if kind == "do" and isinstance(stmt, ast.Do):
            self._run_do(
                stmt, env, int(head[1]), int(head[2]), int(head[3]), fresh=False
            )
        elif kind == "while" and isinstance(stmt, (ast.While, ast.DoWhile)):
            self._run_while(stmt, env, fresh=False)
        elif kind == "if" and isinstance(stmt, ast.If):
            self._run_branch(
                stmt.then_body if head[1] else stmt.else_body, env, "if", head[1]
            )
        elif kind == "where" and isinstance(stmt, ast.Where):
            self._run_branch(
                stmt.then_body if head[1] else stmt.else_body, env, "where", head[1]
            )
        elif kind == "forall" and isinstance(stmt, ast.Forall):
            self._run_forall(stmt, env, int(head[1]), int(head[2]), fresh=False)
        else:
            raise InterpreterError(
                f"checkpoint control path frame {kind!r} does not match "
                f"statement {type(stmt).__name__}"
            )

    def exec_stmt(self, stmt: ast.Stmt, env: dict) -> None:
        next_at = self._ckpt_next
        if (
            next_at is not None
            and self.executed_statements >= next_at
            and not self._call_depth
        ):
            self._emit_checkpoint(env)
            every = self.checkpoint_every
            self._ckpt_next = (self.executed_statements // every + 1) * every
        self.executed_statements += 1
        self._env = env
        self._meter.tick(stmt.loc)
        if self.fault_plan is not None:
            self.fault_plan.raise_op_fault(self.executed_statements, "scalar")
        self._trace.append(
            {
                "pc": self.executed_statements,
                "op": type(stmt).__name__,
                "line": stmt.loc.line or None,
            }
        )
        if self.statement_hook is not None:
            self.statement_hook(stmt, env)
        kind = type(stmt)
        name = _HANDLER_NAMES.get(kind)
        if name is None:
            name = _HANDLER_NAMES[kind] = f"_exec_{kind.__name__.lower()}"
        method = getattr(self, name, None)
        if method is None:
            raise InterpreterError(
                f"statement {kind.__name__} not supported here", stmt.loc
            )
        try:
            method(stmt, env)
        except MiniFError as error:
            # The innermost statement wins; outer re-wraps are no-ops.
            if not error.location.line:
                locate(error, stmt.loc)
            raise

    # individual statements ------------------------------------------------------

    def _exec_decl(self, stmt: ast.Decl, env: dict) -> None:
        for entity in stmt.entities:
            base = (
                stmt.base_type
                if stmt.base_type != "dimension"
                else implicit_type(entity.name)
            )
            if entity.dims:
                existing = env.get(entity.name)
                if isinstance(existing, FArray):
                    continue
                shape = tuple(
                    as_int_scalar(self.eval(d, env), f"extent of {entity.name}")
                    for d in entity.dims
                )
                array = FArray(entity.name, shape, base, fill=existing is None)
                if isinstance(existing, np.ndarray):
                    if existing.size != array.size:
                        raise InterpreterError(
                            f"binding for '{entity.name}' has {existing.size} "
                            f"elements, declared {array.size}",
                            stmt.loc,
                        )
                    array.data[...] = existing.reshape(array.shape)
                elif existing is not None:
                    array.data[...] = existing
                env[entity.name] = array

    def _exec_paramdecl(self, stmt: ast.ParamDecl, env: dict) -> None:
        for name, value in zip(stmt.names, stmt.values):
            env[name] = self.eval(value, env)

    def _exec_decomposition(self, stmt, env) -> None:
        pass

    def _exec_align(self, stmt, env) -> None:
        pass

    def _exec_distribute(self, stmt, env) -> None:
        pass

    def _exec_assign(self, stmt: ast.Assign, env: dict) -> None:
        value = self.eval(stmt.value, env)
        self.assign_to(stmt.target, value, env)

    def _exec_do(self, stmt: ast.Do, env: dict) -> None:
        lo = as_int_scalar(self.eval(stmt.lo, env), "DO lower bound")
        hi = as_int_scalar(self.eval(stmt.hi, env), "DO upper bound")
        stride = (
            as_int_scalar(self.eval(stmt.stride, env), "DO stride")
            if stmt.stride is not None
            else 1
        )
        if stride == 0:
            raise InterpreterError("DO stride is zero", stmt.loc)
        trips = max(0, (hi - lo + stride) // stride)
        env[stmt.var] = lo
        value = lo
        if self._frames is not None:
            self._run_do(stmt, env, value, trips, stride, fresh=True)
            return
        for _ in range(trips):
            env[stmt.var] = value
            self.counters.record("acu")
            try:
                self.exec_body(stmt.body, env)
            except LoopExit:
                break
            except LoopCycle:
                pass
            value += stride
        else:
            env[stmt.var] = value

    def _run_do(
        self, stmt: ast.Do, env: dict, value: int, trips_left: int,
        stride: int, fresh: bool,
    ) -> None:
        """Checkpoint-tracking DO loop: same semantics, explicit frame.

        ``fresh=False`` resumes the loop mid-flight: the current trip's
        control-variable store and ``acu`` event are already in the
        restored state, so only its (partially executed) body runs.
        """
        frames = self._frames
        frame = ["do", value, trips_left, stride]
        frames.append(frame)
        broke = False
        resumed = not fresh
        try:
            while trips_left > 0:
                frame[1] = value
                frame[2] = trips_left
                if resumed:
                    resumed = False
                else:
                    env[stmt.var] = value
                    self.counters.record("acu")
                try:
                    self.exec_body(stmt.body, env)
                except LoopExit:
                    broke = True
                    break
                except LoopCycle:
                    pass
                value += stride
                trips_left -= 1
        finally:
            frames.pop()
        if not broke:
            env[stmt.var] = value

    def _exec_dowhile(self, stmt: ast.DoWhile, env: dict) -> None:
        if self._frames is not None:
            self._run_while(stmt, env, fresh=True)
            return
        while True:
            cond = as_bool_scalar(self.eval(stmt.cond, env), "DO WHILE condition")
            self.counters.record("acu")
            if not cond:
                return
            try:
                self.exec_body(stmt.body, env)
            except LoopExit:
                return
            except LoopCycle:
                continue

    def _exec_while(self, stmt: ast.While, env: dict) -> None:
        if self._frames is not None:
            self._run_while(stmt, env, fresh=True)
            return
        while True:
            cond = as_bool_scalar(self.eval(stmt.cond, env), "WHILE condition")
            self.counters.record("acu")
            if not cond:
                return
            try:
                self.exec_body(stmt.body, env)
            except LoopExit:
                return
            except LoopCycle:
                continue

    def _run_while(self, stmt, env: dict, fresh: bool) -> None:
        """Checkpoint-tracking WHILE / DO WHILE loop (identical semantics).

        The frame carries no state: resuming re-enters the in-progress
        body (its condition was evaluated and recorded before capture),
        then falls back into the normal test-first iteration.
        """
        label = (
            "DO WHILE condition"
            if isinstance(stmt, ast.DoWhile)
            else "WHILE condition"
        )
        frames = self._frames
        frames.append(["while"])
        resumed = not fresh
        try:
            while True:
                if not resumed:
                    cond = as_bool_scalar(self.eval(stmt.cond, env), label)
                    self.counters.record("acu")
                    if not cond:
                        return
                resumed = False
                try:
                    self.exec_body(stmt.body, env)
                except LoopExit:
                    return
                except LoopCycle:
                    continue
        finally:
            frames.pop()

    def _exec_if(self, stmt: ast.If, env: dict) -> None:
        cond = as_bool_scalar(self.eval(stmt.cond, env), "IF condition")
        self.counters.record("acu")
        if self._frames is not None:
            self._run_branch(
                stmt.then_body if cond else stmt.else_body, env, "if", cond
            )
            return
        if cond:
            self.exec_body(stmt.then_body, env)
        else:
            self.exec_body(stmt.else_body, env)

    def _exec_where(self, stmt: ast.Where, env: dict) -> None:
        # In sequential execution a WHERE behaves like an IF over the
        # (scalar or uniform) mask.
        mask = self.eval(stmt.mask, env)
        self.counters.record("mask")
        taken = as_bool_scalar(mask, "WHERE mask")
        if self._frames is not None:
            self._run_branch(
                stmt.then_body if taken else stmt.else_body, env, "where", taken
            )
            return
        if taken:
            self.exec_body(stmt.then_body, env)
        else:
            self.exec_body(stmt.else_body, env)

    def _run_branch(self, body: list, env: dict, kind: str, taken) -> None:
        """Checkpoint-tracking IF/WHERE arm: record which way we went."""
        frames = self._frames
        frames.append([kind, bool(taken)])
        try:
            self.exec_body(body, env)
        finally:
            frames.pop()

    def _exec_forall(self, stmt: ast.Forall, env: dict) -> None:
        lo = as_int_scalar(self.eval(stmt.lo, env), "FORALL lower bound")
        hi = as_int_scalar(self.eval(stmt.hi, env), "FORALL upper bound")
        if self._frames is not None:
            self._run_forall(stmt, env, lo, hi, fresh=True)
            return
        for value in range(lo, hi + 1):
            env[stmt.var] = value
            if stmt.mask is not None and not as_bool_scalar(
                self.eval(stmt.mask, env), "FORALL mask"
            ):
                continue
            self.exec_body(stmt.body, env)

    def _run_forall(
        self, stmt: ast.Forall, env: dict, value: int, hi: int, fresh: bool
    ) -> None:
        """Checkpoint-tracking FORALL: same semantics, explicit frame."""
        frames = self._frames
        frame = ["forall", value, hi]
        frames.append(frame)
        resumed = not fresh
        try:
            while value <= hi:
                frame[1] = value
                if resumed:
                    resumed = False
                else:
                    env[stmt.var] = value
                    if stmt.mask is not None and not as_bool_scalar(
                        self.eval(stmt.mask, env), "FORALL mask"
                    ):
                        value += 1
                        continue
                self.exec_body(stmt.body, env)
                value += 1
        finally:
            frames.pop()

    def _exec_goto(self, stmt: ast.Goto, env: dict) -> None:
        self.counters.record("acu")
        raise GotoSignal(stmt.target)

    def _exec_continue(self, stmt, env) -> None:
        pass

    def _exec_exitstmt(self, stmt, env) -> None:
        raise LoopExit()

    def _exec_cyclestmt(self, stmt, env) -> None:
        raise LoopCycle()

    def _exec_return(self, stmt, env) -> None:
        raise ReturnSignal()

    def _exec_stop(self, stmt, env) -> None:
        raise StopSignal()

    def _exec_callstmt(self, stmt: ast.CallStmt, env: dict) -> None:
        external = self.externals.get(stmt.name)
        if external is not None:
            # Output arguments may be unset before the call — pass None.
            args = [
                env.get(arg.name)
                if isinstance(arg, ast.Var) and arg.name not in env
                else self.eval(arg, env)
                for arg in stmt.args
            ]
            self.counters.record_call(stmt.name)
            self._call_depth += 1
            try:
                external(self, stmt.args, args, env)
            finally:
                self._call_depth -= 1
            return
        routine = self._routines.get(stmt.name)
        if routine is None:
            raise InterpreterError(f"CALL to unknown subroutine '{stmt.name}'", stmt.loc)
        if len(routine.params) != len(stmt.args):
            raise InterpreterError(
                f"CALL {stmt.name}: arity mismatch", stmt.loc
            )
        self.counters.record("acu")
        callee_env: dict = {}
        writeback: list[tuple[str, ast.Expr]] = []
        for param, arg in zip(routine.params, stmt.args):
            value = self.eval(arg, env)
            callee_env[param] = value
            if not isinstance(value, FArray) and isinstance(
                arg, (ast.Var, ast.ArrayRef)
            ):
                writeback.append((param, arg))
        self._call_depth += 1
        try:
            self.exec_body(routine.body, callee_env)
        except ReturnSignal:
            pass
        finally:
            self._call_depth -= 1
        for param, arg in writeback:
            self.assign_to(arg, callee_env[param], env)

    # -- assignment ----------------------------------------------------------------

    def assign_to(self, target: ast.Expr, value, env: dict) -> None:
        """Store ``value`` into a Var or ArrayRef target."""
        self.counters.record("store")
        if isinstance(target, ast.Var):
            existing = env.get(target.name)
            if isinstance(existing, FArray):
                existing.data[...] = coerce(value)
            else:
                env[target.name] = self._scalarize(value)
            return
        if isinstance(target, ast.ArrayRef):
            array = env.get(target.name)
            if not isinstance(array, FArray):
                raise InterpreterError(
                    f"'{target.name}' is not an array", target.loc
                )
            index = array.np_index([self._eval_subscript(s, env) for s in target.subs])
            array.data[index] = coerce(value)
            return
        raise InterpreterError("invalid assignment target", target.loc)

    @staticmethod
    def _scalarize(value):
        if isinstance(value, np.ndarray) and value.ndim == 0:
            return value.item()
        if isinstance(value, np.generic):
            return value.item()
        return value

    # -- expressions -----------------------------------------------------------------

    def eval(self, expr: ast.Expr, env: dict):
        """Evaluate an expression to a runtime value."""
        # The two commonest leaves first, by exact type (the AST has no
        # subclasses of either).
        kind = type(expr)
        if kind is ast.Var:
            value = env.get(expr.name, _UNSET)
            if value is _UNSET:
                raise InterpreterError(f"'{expr.name}' used before assignment", expr.loc)
            return value
        if kind is ast.IntLit:
            return expr.value
        if isinstance(expr, ast.RealLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.StringLit):
            return expr.value
        if isinstance(expr, ast.ArrayRef):
            return self._eval_arrayref(expr, env)
        if isinstance(expr, ast.Call):
            args = [self.eval(arg, env) for arg in expr.args]
            self.counters.record("reduce" if len(args) == 1 else "int_op")
            return call_intrinsic(expr.name, args)
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            result = apply_binop(expr.op, left, right)
            self.counters.record(op_event_kind(expr.op, result))
            return self._scalarize(result)
        if isinstance(expr, ast.UnOp):
            operand = self.eval(expr.operand, env)
            result = apply_unop(expr.op, operand)
            self.counters.record(op_event_kind(expr.op, result))
            return self._scalarize(result)
        if isinstance(expr, ast.VectorLit):
            return np.array([self.eval(item, env) for item in expr.items])
        if isinstance(expr, ast.RangeVec):
            lo = as_int_scalar(self.eval(expr.lo, env), "range lower bound")
            hi = as_int_scalar(self.eval(expr.hi, env), "range upper bound")
            return np.arange(lo, hi + 1, dtype=np.int64)
        raise InterpreterError(
            f"cannot evaluate {type(expr).__name__} here", expr.loc
        )

    def _eval_subscript(self, sub: ast.Expr, env: dict):
        if isinstance(sub, ast.Slice):
            lo = (
                as_int_scalar(self.eval(sub.lo, env), "section lower bound")
                if sub.lo is not None
                else 1
            )
            hi = self.eval(sub.hi, env) if sub.hi is not None else None
            hi_int = as_int_scalar(hi, "section upper bound") if hi is not None else None
            return slice(lo - 1, hi_int)
        value = self.eval(sub, env)
        if type(value) is int:
            return value
        if isinstance(value, np.ndarray):
            return value
        return as_int_scalar(value, "subscript")

    def _eval_arrayref(self, expr: ast.ArrayRef, env: dict):
        array = env.get(expr.name)
        if isinstance(array, FArray):
            index = array.np_index([self._eval_subscript(s, env) for s in expr.subs])
            result = array.data[index]
            if isinstance(result, np.ndarray):
                return result.copy()
            return self._scalarize(result)
        if isinstance(array, np.ndarray):
            subs = [self._eval_subscript(s, env) for s in expr.subs]
            if len(subs) != array.ndim:
                raise InterpreterError(
                    f"'{expr.name}' subscript rank mismatch", expr.loc
                )
            # An undeclared binding has no FArray to check it, so check
            # here: numpy would wrap 0 and negatives to the far end.
            try:
                for dim, s in enumerate(subs):
                    if not isinstance(s, slice):
                        check_bounds(expr.name, array.shape[dim], dim, s)
            except OutOfBoundsFault as fault:
                raise locate(fault, expr.loc)
            index = tuple(
                s if isinstance(s, slice) else np.asarray(s) - 1 for s in subs
            )
            result = array[index]
            if isinstance(result, np.ndarray) and result.ndim == 0:
                return result.item()
            return result
        raise InterpreterError(f"'{expr.name}' is not an array", expr.loc)


def run_program(
    source: ast.SourceFile,
    bindings: dict | None = None,
    externals: dict | None = None,
    statement_hook=None,
):
    """Run a program sequentially; unpacks as ``(final env, counters)``.

    .. deprecated::
        Use :func:`repro.run` (``repro.run(source, backend="scalar")``)
        or an explicit :class:`repro.Engine`.  This shim will be
        removed in version 2.0.
    """
    import warnings

    warnings.warn(
        "run_program() is deprecated; use repro.run(source, backend='scalar') "
        "or Engine.compile(...).run(...) — removal planned for 2.0",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..runtime.engine import default_engine

    return default_engine().compile(source).run(
        bindings,
        backend="scalar",
        externals=externals,
        statement_hook=statement_hook,
    )
