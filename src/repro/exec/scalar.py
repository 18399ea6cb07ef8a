"""Sequential (F77) interpreter for MiniF.

Executes a program the way the paper's Sparc 2 reference runs: one
thread of control, ordinary loop semantics.  Execution events are
recorded into :class:`~repro.exec.counters.ExecutionCounters` so a
scalar machine model can price the run.

The interpreter is dynamically typed (ints, floats, bools,
:class:`~repro.exec.values.FArray`); whole-array assignments and array
sections are supported Fortran-90 style.

Execution is by *closure compilation*: the first time a statement list
runs, it is lowered once into nested Python closures, one per node,
each specialised at compile time by node type, operator, assignment
target and subscript rank.  Running a statement is then a call to its
closure — nothing re-dispatches on AST node types per statement.  The
hot leaves take host-scalar fast paths (rank-1/rank-2 element loads
and rank-1 element stores with Python-int subscripts, ``+ - *`` on two
host ints or two host floats); every other case falls back to the
generic helpers, so results, counter events and fault texts are the
same either way.  Compiled closures are cached per interpreter, keyed
by the AST node (or statement list) they came from.
"""

from __future__ import annotations

import copy
import operator
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
from .intrinsics import call_intrinsic, coerce, is_reduction_call
from .ops import apply_binop, apply_unop, op_event_kind
from .signals import (
    GotoSignal,
    LoopCycle,
    LoopExit,
    ReturnSignal,
    StopSignal,
)
from .values import FArray, as_bool_scalar, as_int_scalar, check_bounds

#: Arithmetic with a host-scalar fast path: on two Python ints the
#: result is an ``int_op``, on two Python floats a ``real_op``.
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _scalarize(value):
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value.item()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _subscript_value(value):
    """A non-section subscript as ``np_index`` takes it."""
    if type(value) is int or isinstance(value, np.ndarray):
        return value
    return as_int_scalar(value, "subscript")


def _read(array: FArray, subs: list):
    """Load ``array`` at evaluated subscripts (the generic path)."""
    result = array.data[array.np_index(subs)]
    if isinstance(result, np.ndarray):
        return result.copy()
    return _scalarize(result)


def _load(expr: ast.ArrayRef, array, subs: list, env: dict):
    """Load ``expr`` from ``array`` at compiled subscripts ``subs``
    (the generic path)."""
    if isinstance(array, FArray):
        return _read(array, [sub(env) for sub in subs])
    if isinstance(array, np.ndarray):
        values = [sub(env) for sub in subs]
        if len(values) != array.ndim:
            raise InterpreterError(
                f"'{expr.name}' subscript rank mismatch", expr.loc
            )
        # An undeclared binding has no FArray to check it, so check
        # here: numpy would wrap 0 and negatives to the far end.
        try:
            for dim, s in enumerate(values):
                if not isinstance(s, slice):
                    check_bounds(expr.name, array.shape[dim], dim, s)
        except OutOfBoundsFault as fault:
            raise locate(fault, expr.loc)
        index = tuple(
            s if isinstance(s, slice) else np.asarray(s) - 1 for s in values
        )
        result = array[index]
        if isinstance(result, np.ndarray) and result.ndim == 0:
            return result.item()
        return result
    raise InterpreterError(f"'{expr.name}' is not an array", expr.loc)


def _nothing(env) -> None:
    pass


def _raising(error_type, *args):
    """A closure that raises ``error_type(*args)`` each time it runs."""

    def action(env):
        raise error_type(*args)

    return action


class ScalarInterpreter:
    """Sequential interpreter over closure-compiled MiniF.

    Args:
        source: Parsed program (may contain subroutines).
        externals: Mapping from subroutine name to a Python callable
            ``fn(interp, arg_exprs, arg_values, env)`` implementing it.
        counters: Event accumulator (created fresh when omitted).
        statement_hook: Optional callable ``hook(stmt, env)`` invoked
            before each executed statement — used by trace recorders.
        budget: Execution guard (None = ``Budget()``, the default step
            cap).
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
        self.budget = budget if budget is not None else Budget()
        self.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.executed_statements = 0
        self._meter = self.budget.meter()
        # The ring holds the executed statements themselves (pcs are
        # counted back from ``executed_statements``) or, once restored
        # from a checkpoint, ``{"pc", "op", "line"}`` dicts.
        self._trace: deque = deque(maxlen=TRACE_DEPTH)
        self._env: dict = {}
        self._routines = {unit.name: unit for unit in source.units}
        # Checkpoint machinery: the control-path frame stack is only
        # maintained when capture or resume is active (``_frames`` is
        # None otherwise and no frame bookkeeping runs).
        self._frames: list | None = None
        self._resume: list | None = None
        self._call_depth = 0
        self._ckpt_next: int | None = None
        # Compiled closures by id of the statement list / node they came
        # from; each entry keeps its node alive so the id stays unique.
        self._bodies: dict[int, tuple] = {}
        self._exprs: dict[int, tuple] = {}
        self._stores: dict[int, tuple] = {}
        self._arm_prologue()

    def snapshot(self) -> MachineSnapshot:
        """The interpreter's state right now (for crash dumps)."""
        return MachineSnapshot(
            backend="scalar",
            pc=self.executed_statements,
            steps=self.executed_statements,
            mask=[True],
            mask_stack=[],
            env=snapshot_env(self._env),
            last_ops=self._trace_tail(self.executed_statements),
        )

    def _trace_tail(self, newest: int) -> list[dict]:
        """The trace ring as ``{"pc", "op", "line"}`` dicts, oldest
        first; the ring's newest entry ran as statement ``newest``."""
        tail = []
        pc = newest - len(self._trace) + 1
        for entry in self._trace:
            if type(entry) is dict:
                tail.append(dict(entry))
            else:
                tail.append(
                    {"pc": pc, "op": type(entry).__name__, "line": entry.loc.line or None}
                )
            pc += 1
        return tail

    def _settle_trace(self, newest: int) -> None:
        """Freeze the ring's pcs: a statement was counted but not traced."""
        tail = self._trace_tail(newest)
        self._trace.clear()
        self._trace.extend(tail)

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
        self._arm_prologue()
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

    def _arm_prologue(self) -> None:
        """Bind the statement prologue's ``tick`` and ``trace`` steps.

        A plain run ticks the budget meter and appends to the trace
        ring.  The optional parts wrap these steps only when the
        interpreter has them: the injected-fault check follows the tick
        (inside the tick's error handling, as a budget trip), the
        statement hook follows the trace entry (outside the statement's
        location stamping).  Re-armed by every :meth:`run`, after the
        meter and the ring are replaced.
        """
        tick = self._meter.tick
        plan = self.fault_plan
        if plan is not None:
            meter_tick = tick
            raise_op_fault = plan.raise_op_fault

            def tick(loc):
                meter_tick(loc)
                raise_op_fault(self.executed_statements, "scalar")

        trace = self._trace.append
        hook = self.statement_hook
        if hook is not None:
            append = trace

            def trace(stmt):
                append(stmt)
                hook(stmt, self._env)

        self._tick = tick
        self._trace_stmt = trace

    # -- checkpoint capture / resume ----------------------------------------------

    def _emit_checkpoint(self, env: dict) -> None:
        """Capture full state before the next top-level statement runs,
        then arm the next capture."""
        self.checkpoint_sink(
            Checkpoint(
                backend="scalar",
                step=self.executed_statements,
                pc=self.executed_statements,
                env=env,
                frames=[list(frame) for frame in self._frames],
                counters=self.counters.state_dict(),
                meter_steps=self._meter.steps,
                trace=self._trace_tail(self.executed_statements),
                nproc=1,
            ).detach()
        )
        every = self.checkpoint_every
        self._ckpt_next = (self.executed_statements // every + 1) * every

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

    def _resume_position(self, length: int) -> tuple[int, bool]:
        """Where a statement list of ``length`` starts on this run:
        ``(pc, reenter)``, consuming a pending resume path's body frame."""
        resume = self._resume
        if not resume:
            return 0, False
        head = resume.pop(0)
        if not (isinstance(head, (list, tuple)) and head and head[0] == "body"):
            raise InterpreterError(
                "corrupt checkpoint control path (expected a body frame)"
            )
        pc = int(head[1])
        if not (0 <= pc < length):
            raise InterpreterError(
                "checkpoint control path does not fit this program"
            )
        if not resume:
            self._resume = None  # innermost position reached
        return pc, bool(resume)

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

    # -- compiled-closure caches -------------------------------------------------

    def exec_body(self, body: list[ast.Stmt], env: dict) -> None:
        """Execute a statement list, honoring GOTO to labels it contains."""
        self._body(body)(env)

    def eval(self, expr: ast.Expr, env: dict):
        """Evaluate an expression to a runtime value."""
        return self._expr(expr)(env)

    def assign_to(self, target: ast.Expr, value, env: dict) -> None:
        """Store ``value`` into a Var or ArrayRef target."""
        self._store(target)(value, env)

    def _body(self, body: list):
        entry = self._bodies.get(id(body))
        if entry is None:
            entry = self._bodies[id(body)] = (body, self._compile_body(body))
        return entry[1]

    def _expr(self, expr: ast.Expr):
        entry = self._exprs.get(id(expr))
        if entry is None:
            entry = self._exprs[id(expr)] = (expr, self._compile_expr(expr))
        return entry[1]

    def _store(self, target: ast.Expr):
        entry = self._stores.get(id(target))
        if entry is None:
            entry = self._stores[id(target)] = (target, self._compile_store(target))
        return entry[1]

    # -- statements --------------------------------------------------------------

    def _compile_body(self, body: list[ast.Stmt]):
        """Lower a statement list into one ``run(env)`` closure.

        Each statement runs one prologue here — statement count,
        budget tick, trace entry — then its compiled action; a
        ``MiniFError`` the action raises is stamped with the
        statement's location unless a more deeply nested statement
        already stamped it.  An injected fault plan and a statement
        hook ride on the tick and the trace (:meth:`_arm_prologue`).
        Only a run that captures or resumes checkpoints keeps a
        control-path frame, and does its frame bookkeeping and
        checkpoint due-check before the count.
        """
        steps = [(stmt, stmt.loc, self._compile_stmt(stmt)) for stmt in body]
        labels = {
            stmt.label: index
            for index, stmt in enumerate(body)
            if stmt.label is not None
        }
        count = len(steps)

        def run(env):
            frames = self._frames
            if frames is None:
                frame = None
                pc, reenter = 0, False
            else:
                # Checkpoint-tracking: keep a ["body", pc] frame so a
                # capture inside any statement knows its position here,
                # and honor a pending resume path.
                pc, reenter = self._resume_position(count)
                frame = ["body", pc]
                frames.append(frame)
            tick = self._tick
            trace = self._trace_stmt
            try:
                while pc < count:
                    stmt, loc, action = steps[pc]
                    try:
                        if frame is not None:
                            frame[1] = pc
                            if reenter:
                                reenter = False
                                self._reenter_stmt(stmt, env)
                                pc += 1
                                continue
                            next_at = self._ckpt_next
                            if (
                                next_at is not None
                                and self.executed_statements >= next_at
                                and not self._call_depth
                            ):
                                self._emit_checkpoint(env)
                        self.executed_statements += 1
                        self._env = env
                        try:
                            tick(loc)
                        except MiniFError:
                            self._settle_trace(self.executed_statements - 1)
                            raise
                        trace(stmt)
                        try:
                            action(env)
                        except MiniFError as error:
                            # The innermost statement wins.
                            if not error.location.line:
                                locate(error, loc)
                            raise
                    except GotoSignal as signal:
                        if signal.target in labels:
                            pc = labels[signal.target]
                            continue
                        raise
                    pc += 1
            finally:
                if frame is not None:
                    frames.pop()

        return run

    def _compile_stmt(self, stmt: ast.Stmt):
        """The action closure ``action(env)`` of one statement."""
        compiler = _STMT_COMPILERS.get(type(stmt))
        if compiler is None:
            return _raising(
                InterpreterError,
                f"statement {type(stmt).__name__} not supported here",
                stmt.loc,
            )
        return compiler(self, stmt)

    def _compile_assign(self, stmt: ast.Assign):
        value = self._expr(stmt.value)
        store = self._store(stmt.target)

        def assign(env):
            store(value(env), env)

        return assign

    def _compile_do(self, stmt: ast.Do):
        lo = self._expr(stmt.lo)
        hi = self._expr(stmt.hi)
        stride = self._expr(stmt.stride) if stmt.stride is not None else None

        def do(env):
            first = lo(env)
            if type(first) is not int:
                first = as_int_scalar(first, "DO lower bound")
            last = hi(env)
            if type(last) is not int:
                last = as_int_scalar(last, "DO upper bound")
            step = 1
            if stride is not None:
                step = stride(env)
                if type(step) is not int:
                    step = as_int_scalar(step, "DO stride")
            if step == 0:
                raise InterpreterError("DO stride is zero", stmt.loc)
            env[stmt.var] = first
            trips = max(0, (last - first + step) // step)
            self._run_do(stmt, env, first, trips, step, fresh=True)

        return do

    def _run_do(
        self, stmt: ast.Do, env: dict, value: int, trips_left: int,
        stride: int, fresh: bool,
    ) -> None:
        """The trips of a DO loop, in a ``["do", value, trips_left,
        stride]`` frame while checkpointing.

        ``fresh=False`` resumes the loop mid-flight: the current trip's
        control-variable store and ``acu`` event are already in the
        restored state, so only its (partially executed) body runs.
        """
        body = self._body(stmt.body)
        record = self.counters.record_scalar
        var = stmt.var
        frames = self._frames
        frame = ["do", value, trips_left, stride]
        if frames is not None:
            frames.append(frame)
        resumed = not fresh
        try:
            while trips_left > 0:
                frame[1] = value
                frame[2] = trips_left
                if resumed:
                    resumed = False
                else:
                    env[var] = value
                    record("acu")
                try:
                    body(env)
                except LoopExit:
                    return
                except LoopCycle:
                    pass
                value += stride
                trips_left -= 1
        finally:
            if frames is not None:
                frames.pop()
        env[var] = value

    def _compile_while(self, stmt):
        return lambda env: self._run_while(stmt, env, fresh=True)

    def _run_while(self, stmt, env: dict, fresh: bool) -> None:
        """WHILE / DO WHILE loop, in a ``["while"]`` frame while
        checkpointing.

        The frame carries no state: resuming (``fresh=False``)
        re-enters the in-progress body (its condition was evaluated
        and recorded before capture), then falls back into the normal
        test-first iteration.
        """
        cond = self._expr(stmt.cond)
        body = self._body(stmt.body)
        what = (
            "DO WHILE condition" if isinstance(stmt, ast.DoWhile) else "WHILE condition"
        )
        frames = self._frames
        if frames is not None:
            frames.append(["while"])
        resumed = not fresh
        try:
            while True:
                if not resumed:
                    flag = as_bool_scalar(cond(env), what)
                    self.counters.record_scalar("acu")
                    if not flag:
                        return
                resumed = False
                try:
                    body(env)
                except LoopExit:
                    return
                except LoopCycle:
                    continue
        finally:
            if frames is not None:
                frames.pop()

    def _compile_if(self, stmt: ast.If):
        cond = self._expr(stmt.cond)
        record = self.counters.record_scalar

        def test(env):
            taken = as_bool_scalar(cond(env), "IF condition")
            record("acu")
            return taken

        return self._compile_branch(stmt, test, "if")

    def _compile_where(self, stmt: ast.Where):
        # In sequential execution a WHERE behaves like an IF over the
        # (scalar or uniform) mask.
        mask = self._expr(stmt.mask)
        record = self.counters.record_scalar

        def test(env):
            value = mask(env)
            record("mask")
            return as_bool_scalar(value, "WHERE mask")

        return self._compile_branch(stmt, test, "where")

    def _compile_branch(self, stmt, test, kind: str):
        then_body = self._body(stmt.then_body)
        else_body = self._body(stmt.else_body)

        def branch(env):
            taken = test(env)
            if self._frames is not None:
                self._run_branch(
                    stmt.then_body if taken else stmt.else_body, env, kind, taken
                )
            elif taken:
                then_body(env)
            else:
                else_body(env)

        return branch

    def _run_branch(self, body: list, env: dict, kind: str, taken) -> None:
        """Checkpoint-tracking IF/WHERE arm: record which way we went."""
        frames = self._frames
        frames.append([kind, bool(taken)])
        try:
            self._body(body)(env)
        finally:
            frames.pop()

    def _compile_forall(self, stmt: ast.Forall):
        lo = self._expr(stmt.lo)
        hi = self._expr(stmt.hi)

        def forall(env):
            first = as_int_scalar(lo(env), "FORALL lower bound")
            last = as_int_scalar(hi(env), "FORALL upper bound")
            self._run_forall(stmt, env, first, last, fresh=True)

        return forall

    def _run_forall(
        self, stmt: ast.Forall, env: dict, value: int, hi: int, fresh: bool
    ) -> None:
        """FORALL, run sequentially, in a ``["forall", value, hi]`` frame
        while checkpointing."""
        mask = self._expr(stmt.mask) if stmt.mask is not None else None
        body = self._body(stmt.body)
        frames = self._frames
        frame = ["forall", value, hi]
        if frames is not None:
            frames.append(frame)
        resumed = not fresh
        try:
            while value <= hi:
                frame[1] = value
                if resumed:
                    resumed = False
                else:
                    env[stmt.var] = value
                    if mask is not None and not as_bool_scalar(
                        mask(env), "FORALL mask"
                    ):
                        value += 1
                        continue
                body(env)
                value += 1
        finally:
            if frames is not None:
                frames.pop()

    def _compile_goto(self, stmt: ast.Goto):
        record = self.counters.record_scalar
        target = stmt.target

        def goto(env):
            record("acu")
            raise GotoSignal(target)

        return goto

    def _compile_callstmt(self, stmt: ast.CallStmt):
        external = self.externals.get(stmt.name)
        if external is None:
            return lambda env: self._call_routine(stmt, env)
        name = stmt.name
        arg_exprs = stmt.args
        args = []
        for arg in arg_exprs:
            if isinstance(arg, ast.Var):
                # Output arguments may be unset before the call — pass None.
                args.append(lambda env, _name=arg.name: env.get(_name))
            else:
                args.append(self._expr(arg))
        counters = self.counters

        def call(env):
            values = [arg(env) for arg in args]
            counters.record_call(name)
            self._call_depth += 1
            try:
                external(self, arg_exprs, values, env)
            finally:
                self._call_depth -= 1

        return call

    def _call_routine(self, stmt: ast.CallStmt, env: dict) -> None:
        """CALL into a MiniF subroutine: by-value in, write-back out."""
        routine = self._routines.get(stmt.name)
        if routine is None:
            raise InterpreterError(f"CALL to unknown subroutine '{stmt.name}'", stmt.loc)
        if len(routine.params) != len(stmt.args):
            raise InterpreterError(
                f"CALL {stmt.name}: arity mismatch", stmt.loc
            )
        self.counters.record_scalar("acu")
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
            self._store(arg)(callee_env[param], env)

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

    # -- assignment ----------------------------------------------------------------

    def _compile_store(self, target: ast.Expr):
        """The closure ``store(value, env)`` assigning to ``target``."""
        record = self.counters.record_scalar
        if isinstance(target, ast.Var):
            name = target.name

            def store_var(value, env):
                record("store")
                existing = env.get(name)
                if isinstance(existing, FArray):
                    existing.data[...] = coerce(value)
                elif type(value) is float or type(value) is int:
                    env[name] = value
                else:
                    env[name] = _scalarize(value)

            return store_var
        if not isinstance(target, ast.ArrayRef):

            def store_invalid(value, env):
                record("store")
                raise InterpreterError("invalid assignment target", target.loc)

            return store_invalid
        name = target.name
        subs = [self._subscript(s) for s in target.subs]

        def not_an_array():
            return InterpreterError(f"'{name}' is not an array", target.loc)

        # Rank-1 element stores get a host-int fast path.
        if len(subs) == 1 and not isinstance(target.subs[0], ast.Slice):
            sub = subs[0]

            def store_1(value, env):
                record("store")
                array = env.get(name)
                if not isinstance(array, FArray):
                    raise not_an_array()
                i = sub(env)
                shape = array.shape
                if type(i) is int and len(shape) == 1 and 0 < i <= shape[0]:
                    array.data[i - 1] = coerce(value)
                else:
                    array.data[array.np_index([i])] = coerce(value)

            return store_1

        def store_elements(value, env):
            record("store")
            array = env.get(name)
            if not isinstance(array, FArray):
                raise not_an_array()
            index = array.np_index([sub(env) for sub in subs])
            array.data[index] = coerce(value)

        return store_elements

    # -- expressions -----------------------------------------------------------------

    def _compile_expr(self, expr: ast.Expr):
        """The closure ``value(env)`` evaluating ``expr``."""
        for kind in type(expr).__mro__:
            compiler = _EXPR_COMPILERS.get(kind)
            if compiler is not None:
                return compiler(self, expr)
        return _raising(
            InterpreterError, f"cannot evaluate {type(expr).__name__} here", expr.loc
        )

    def _compile_var(self, expr: ast.Var):
        name = expr.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise InterpreterError(
                    f"'{name}' used before assignment", expr.loc
                ) from None

        return var

    def _compile_literal(self, expr):
        value = expr.value
        return lambda env: value

    def _subscript(self, sub: ast.Expr):
        """The closure evaluating one subscript as ``np_index`` takes it."""
        if isinstance(sub, ast.Slice):
            lo = self._expr(sub.lo) if sub.lo is not None else None
            hi = self._expr(sub.hi) if sub.hi is not None else None

            def section(env):
                first = (
                    as_int_scalar(lo(env), "section lower bound")
                    if lo is not None
                    else 1
                )
                last = (
                    as_int_scalar(hi(env), "section upper bound")
                    if hi is not None
                    else None
                )
                return slice(first - 1, last)

            return section
        value = self._expr(sub)

        def subscript(env):
            result = value(env)
            if type(result) is int:
                return result
            return _subscript_value(result)

        return subscript

    def _compile_arrayref(self, expr: ast.ArrayRef):
        name = expr.name
        subs = [self._subscript(s) for s in expr.subs]
        # Element loads of rank 1 and 2 get a host-int fast path.
        rank = 0 if any(isinstance(s, ast.Slice) for s in expr.subs) else len(subs)
        if rank == 1:
            sub = subs[0]

            def load_1(env):
                array = env.get(name)
                if type(array) is not FArray:
                    return _load(expr, array, subs, env)
                i = sub(env)
                shape = array.shape
                if type(i) is int and len(shape) == 1 and 0 < i <= shape[0]:
                    return array.data.item(i - 1)
                return _read(array, [i])

            return load_1
        if rank == 2:
            sub0, sub1 = subs

            def load_2(env):
                array = env.get(name)
                if type(array) is not FArray:
                    return _load(expr, array, subs, env)
                i = sub0(env)
                j = sub1(env)
                shape = array.shape
                if (
                    type(i) is int
                    and type(j) is int
                    and len(shape) == 2
                    and 0 < i <= shape[0]
                    and 0 < j <= shape[1]
                ):
                    return array.data.item(i - 1, j - 1)
                return _read(array, [i, j])

            return load_2
        return lambda env: _load(expr, env.get(name), subs, env)

    def _compile_binop(self, expr: ast.BinOp):
        op = expr.op
        left = self._expr(expr.left)
        right = self._expr(expr.right)
        record = self.counters.record_scalar

        def generic(a, b):
            result = apply_binop(op, a, b)
            record(op_event_kind(op, result))
            return _scalarize(result)

        if op in _ARITH:
            fn = _ARITH[op]

            def arith(env):
                a = left(env)
                b = right(env)
                kind = type(a)
                if kind is type(b):
                    if kind is float:
                        result = fn(a, b)
                        record("real_op")
                        return result
                    if kind is int:
                        result = fn(a, b)
                        record("int_op")
                        return result
                return generic(a, b)

            return arith
        return lambda env: generic(left(env), right(env))

    def _compile_unop(self, expr: ast.UnOp):
        op = expr.op
        operand = self._expr(expr.operand)
        record = self.counters.record_scalar

        def unop(env):
            result = apply_unop(op, operand(env))
            record(op_event_kind(op, result))
            return _scalarize(result)

        return unop

    def _compile_call(self, expr: ast.Call):
        name = expr.name
        args = [self._expr(arg) for arg in expr.args]
        # The same event kind the lockstep backends record.
        kind = "reduce" if is_reduction_call(name, len(args)) else "real_op"
        record = self.counters.record_scalar

        def call(env):
            values = [arg(env) for arg in args]
            record(kind)
            return call_intrinsic(name, values)

        return call

    def _compile_vectorlit(self, expr: ast.VectorLit):
        items = [self._expr(item) for item in expr.items]
        return lambda env: np.array([item(env) for item in items])

    def _compile_rangevec(self, expr: ast.RangeVec):
        lo = self._expr(expr.lo)
        hi = self._expr(expr.hi)

        def rangevec(env):
            first = as_int_scalar(lo(env), "range lower bound")
            last = as_int_scalar(hi(env), "range upper bound")
            return np.arange(first, last + 1, dtype=np.int64)

        return rangevec


def _call_helper(helper):
    """Compile a rare statement kind to a closure calling its helper."""
    return lambda interp, stmt: lambda env: helper(interp, stmt, env)


def _const_action(action):
    return lambda interp, stmt: action


#: Statement compiler per statement class (exact type).
_STMT_COMPILERS = {
    ast.Assign: ScalarInterpreter._compile_assign,
    ast.Do: ScalarInterpreter._compile_do,
    ast.DoWhile: ScalarInterpreter._compile_while,
    ast.While: ScalarInterpreter._compile_while,
    ast.If: ScalarInterpreter._compile_if,
    ast.Where: ScalarInterpreter._compile_where,
    ast.Forall: ScalarInterpreter._compile_forall,
    ast.Goto: ScalarInterpreter._compile_goto,
    ast.CallStmt: ScalarInterpreter._compile_callstmt,
    ast.Decl: _call_helper(ScalarInterpreter._exec_decl),
    ast.ParamDecl: _call_helper(ScalarInterpreter._exec_paramdecl),
    ast.Continue: _const_action(_nothing),
    ast.Decomposition: _const_action(_nothing),
    ast.Align: _const_action(_nothing),
    ast.Distribute: _const_action(_nothing),
    ast.ExitStmt: _const_action(_raising(LoopExit)),
    ast.CycleStmt: _const_action(_raising(LoopCycle)),
    ast.Return: _const_action(_raising(ReturnSignal)),
    ast.Stop: _const_action(_raising(StopSignal)),
}

#: Expression compiler per expression class (matched along the MRO).
_EXPR_COMPILERS = {
    ast.Var: ScalarInterpreter._compile_var,
    ast.IntLit: ScalarInterpreter._compile_literal,
    ast.RealLit: ScalarInterpreter._compile_literal,
    ast.BoolLit: ScalarInterpreter._compile_literal,
    ast.StringLit: ScalarInterpreter._compile_literal,
    ast.ArrayRef: ScalarInterpreter._compile_arrayref,
    ast.Call: ScalarInterpreter._compile_call,
    ast.BinOp: ScalarInterpreter._compile_binop,
    ast.UnOp: ScalarInterpreter._compile_unop,
    ast.VectorLit: ScalarInterpreter._compile_vectorlit,
    ast.RangeVec: ScalarInterpreter._compile_rangevec,
}
