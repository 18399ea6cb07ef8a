"""Sequential (F77) interpreter for MiniF.

Executes a program the way the paper's Sparc 2 reference runs: one
thread of control, ordinary loop semantics.  Execution events are
recorded into :class:`~repro.exec.counters.ExecutionCounters` so a
scalar machine model can price the run.

The interpreter is dynamically typed (ints, floats, bools,
:class:`~repro.exec.values.FArray`); whole-array assignments and array
sections are supported Fortran-90 style.

Execution is compiled: the first time a statement list runs, it is
lowered once into a closure per statement, chosen by statement type,
and nothing re-dispatches on AST node types per statement.  Each
assignment (its value and its target store), and each other
expression a statement evaluates, becomes one *generated* Python
function (:class:`_Emitter`), in the manner of the VM's block closures
(:mod:`repro.vm.fuse`): every node leaves its value in a local, and
names, constants and source locations are closure variables, so
same-shape statements share one code object.  The hot leaves take
host-scalar fast paths (rank-1/rank-2 element loads and rank-1 element
stores with Python-int subscripts, ``+ - *`` on two host ints or two
host floats); every other case calls the generic helpers, so results,
counter events and fault texts are the same either way.  Compiled
code is cached per interpreter, keyed by the AST node (or statement
list) it came from.
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
_ARITH = frozenset({"+", "-", "*"})


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


def _load(expr: ast.ArrayRef, array, subs: list):
    """Load ``expr`` from ``array`` (an ``FArray`` or a bound ndarray)
    at evaluated subscripts (the generic path)."""
    if isinstance(array, FArray):
        return _read(array, subs)
    if len(subs) != array.ndim:
        raise InterpreterError(f"'{expr.name}' subscript rank mismatch", expr.loc)
    # An undeclared binding has no FArray to check it, so check
    # here: numpy would wrap 0 and negatives to the far end.
    try:
        for dim, s in enumerate(subs):
            if not isinstance(s, slice):
                check_bounds(expr.name, array.shape[dim], dim, s)
    except OutOfBoundsFault as fault:
        raise locate(fault, expr.loc)
    index = tuple(s if isinstance(s, slice) else np.asarray(s) - 1 for s in subs)
    result = array[index]
    if isinstance(result, np.ndarray) and result.ndim == 0:
        return result.item()
    return result


def _not_an_array(expr: ast.ArrayRef) -> InterpreterError:
    return InterpreterError(f"'{expr.name}' is not an array", expr.loc)


def _binop(op: str, left, right, record):
    """A binary operation off the host-scalar paths."""
    result = apply_binop(op, left, right)
    record(op_event_kind(op, result))
    return _scalarize(result)


def _unop(op: str, operand, record):
    result = apply_unop(op, operand)
    record(op_event_kind(op, result))
    return _scalarize(result)


def _nothing(env) -> None:
    pass


def _raising(error_type, *args):
    """A closure that raises ``error_type(*args)`` each time it runs."""

    def action(env):
        raise error_type(*args)

    return action


class ScalarInterpreter:
    """Sequential interpreter over compiled MiniF.

    Events are recorded into the interpreter's own ``counters`` (a
    fresh :class:`~repro.exec.counters.ExecutionCounters`, restored
    from the checkpoint on a resume), read back after :meth:`run`.

    Args:
        source: Parsed program (may contain subroutines).
        externals: Mapping from subroutine name to a Python callable
            ``fn(interp, arg_exprs, arg_values, env)`` implementing it.
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
        beat: Optional callable ``beat(now, steps)`` the budget meter
            calls at its polls (:meth:`~repro.reliability.Budget.meter`):
            a pmimd worker's liveness, published with no statement hook.
    """

    def __init__(
        self,
        source: ast.SourceFile,
        externals: dict | None = None,
        statement_hook=None,
        budget: Budget | None = None,
        fault_plan=None,
        checkpoint_every: int | None = None,
        checkpoint_sink=None,
        beat=None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise InterpreterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.source = source
        self.externals = externals or {}
        self.counters = ExecutionCounters(1)
        self.statement_hook = statement_hook
        self.budget = budget if budget is not None else Budget()
        self.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.beat = beat
        self.executed_statements = 0
        self._meter = self.budget.meter(beat)
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
        self._meter = self.budget.meter(self.beat)
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

    def precompile(self) -> None:
        """Compile every statement list of every routine now, generating
        its code into the shared source cache, so that processes forked
        afterwards (pmimd workers) start with that cache warm."""
        stack = [unit.body for unit in self.source.units]
        while stack:
            body = stack.pop()
            self._body(body)
            for stmt in body:
                stack.extend(ast.sub_bodies(stmt))

    def exec_body(self, body: list[ast.Stmt], env: dict) -> None:
        """Execute a statement list, honoring GOTO to labels it contains."""
        self._body(body)(env)

    def eval(self, expr: ast.Expr, env: dict):
        """Evaluate an expression to a runtime value."""
        return self._expr(expr)(env)

    def assign_to(self, target: ast.Expr, value, env: dict) -> None:
        """Store ``value`` into a Var or ArrayRef target."""
        entry = self._stores.get(id(target))
        store = self._store(target) if entry is None else entry[1]
        store(value, env)

    def _body(self, body: list):
        entry = self._bodies.get(id(body))
        if entry is None:
            entry = self._bodies[id(body)] = (body, self._compile_body(body))
        return entry[1]

    def _expr(self, expr: ast.Expr):
        entry = self._exprs.get(id(expr))
        if entry is None:
            function = self._generate("env", lambda out: out.value(expr))
            entry = self._exprs[id(expr)] = (expr, function)
        return entry[1]

    def _store(self, target: ast.Expr):
        entry = self._stores.get(id(target))
        if entry is None:
            function = self._generate(
                "value, env", lambda out: out.store(target, "value")
            )
            entry = self._stores[id(target)] = (target, function)
        return entry[1]

    def _generate(self, params: str, emit):
        """The generated function ``run(<params>)`` whose body ``emit``
        writes (:func:`_make_function`), recording into this interpreter's
        counters."""
        return _make_function(params, emit, self.counters)

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
        return self._generate(
            "env", lambda out: out.store(stmt.target, out.value(stmt.value))
        )

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
        self._expr(stmt.cond)  # generated with the statement, for precompile
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
        if stmt.mask is not None:
            self._expr(stmt.mask)  # generated with the statement, for precompile

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

        def emit(out):
            # Output arguments may be unset before the call — pass None.
            items = [
                f"env.get({out.const(arg.name)})"
                if isinstance(arg, ast.Var)
                else out.value(arg)
                for arg in arg_exprs
            ]
            return f"[{', '.join(items)}]"

        arguments = self._generate("env", emit)
        counters = self.counters

        def call(env):
            values = arguments(env)
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


# -- generated code for expressions and assignments ---------------------------


class _Emitter:
    """Source text of one generated function.

    Each expression node becomes a few statements that leave its value
    in a fresh local, in the order the tree evaluates.  Names,
    constants, error messages and source locations are closure
    variables (``c0, c1, ...``), so the source depends only on the
    shape of the tree and same-shape statements share one code object.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.consts: list = []
        self.fresh = 0

    def const(self, value) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def temp(self) -> str:
        self.fresh += 1
        return f"t{self.fresh}"

    def line(self, text: str) -> None:
        self.lines.append("        " + text)

    def record(self, kind: str, indent: str = "") -> None:
        """Emit ``record_scalar(kind)``, with its dict adds inline once
        the kind has been seen."""
        self.line(f"{indent}if {kind!r} in events:")
        for tally in _SCALAR_TALLIES:
            self.line(f"{indent}    {tally}[{kind!r}] += 1")
        self.line(f"{indent}else:")
        self.line(f"{indent}    record({kind!r})")

    def fail(self, message: str, loc) -> None:
        self.line(f"raise InterpreterError({self.const(message)}, {self.const(loc)})")

    def value(self, expr: ast.Expr) -> str:
        """Emit ``expr``; the local or closure variable holding its value."""
        for kind in type(expr).__mro__:
            emit = _EMIT.get(kind)
            if emit is not None:
                return emit(self, expr)
        self.fail(f"cannot evaluate {type(expr).__name__} here", expr.loc)
        return "None"

    def var(self, expr: ast.Var) -> str:
        value = self.temp()
        message = self.const(f"'{expr.name}' used before assignment")
        self.line("try:")
        self.line(f"    {value} = env[{self.const(expr.name)}]")
        self.line("except KeyError:")
        self.line(f"    raise InterpreterError({message}, {self.const(expr.loc)}) from None")
        return value

    def literal(self, expr) -> str:
        return self.const(expr.value)

    def binop(self, expr: ast.BinOp) -> str:
        left = self.value(expr.left)
        right = self.value(expr.right)
        result = self.temp()
        generic = f"{result} = binop({self.const(expr.op)}, {left}, {right}, record)"
        if expr.op not in _ARITH:
            self.line(generic)
            return result
        for test, kind, event in (("if", "float", "real_op"), ("elif", "int", "int_op")):
            self.line(f"{test} type({left}) is {kind} and type({right}) is {kind}:")
            self.line(f"    {result} = {left} {expr.op} {right}")
            self.record(event, "    ")
        self.line("else:")
        self.line("    " + generic)
        return result

    def unop(self, expr: ast.UnOp) -> str:
        operand = self.value(expr.operand)
        result = self.temp()
        self.line(f"{result} = unop({self.const(expr.op)}, {operand}, record)")
        return result

    def call(self, expr: ast.Call) -> str:
        args = [self.value(arg) for arg in expr.args]
        # The same event kind the lockstep backends record.
        kind = "reduce" if is_reduction_call(expr.name, len(args)) else "real_op"
        result = self.temp()
        self.record(kind)
        self.line(f"{result} = call_intrinsic({self.const(expr.name)}, [{', '.join(args)}])")
        return result

    def vectorlit(self, expr: ast.VectorLit) -> str:
        items = [self.value(item) for item in expr.items]
        result = self.temp()
        self.line(f"{result} = np.array([{', '.join(items)}])")
        return result

    def rangevec(self, expr: ast.RangeVec) -> str:
        first = self.integer(expr.lo, "range lower bound")
        last = self.integer(expr.hi, "range upper bound")
        result = self.temp()
        self.line(f"{result} = np.arange({first}, {last} + 1, dtype=np.int64)")
        return result

    def integer(self, expr: ast.Expr, what: str) -> str:
        value = self.value(expr)
        result = self.temp()
        self.line(f"{result} = as_int_scalar({value}, {what!r})")
        return result

    def subscripts(self, subs: list) -> list[str]:
        """Emit each subscript as ``np_index`` takes it, in order."""
        names = []
        for sub in subs:
            if isinstance(sub, ast.Slice):
                first = "1" if sub.lo is None else self.integer(sub.lo, "section lower bound")
                last = "None" if sub.hi is None else self.integer(sub.hi, "section upper bound")
                name = self.temp()
                self.line(f"{name} = slice({first} - 1, {last})")
            else:
                value = self.value(sub)
                name = self.temp()
                self.line(f"{name} = {value} if type({value}) is int else subscript({value})")
            names.append(name)
        return names

    def element(self, array: str, subs: list[str], rank: int) -> tuple[str, str]:
        """The host-int element test of ``array`` at ``subs``, and the
        element's index arguments (each subscript minus one)."""
        shape = self.temp()
        tests = [f"type({s}) is int" for s in subs]
        tests.append(f"len({shape} := {array}.shape) == {rank}")
        tests += [f"0 < {s} <= {shape}[{dim}]" for dim, s in enumerate(subs)]
        return " and ".join(tests), ", ".join(f"{s} - 1" for s in subs)

    def arrayref(self, expr: ast.ArrayRef) -> str:
        node = self.const(expr)
        array = self.temp()
        self.line(f"{array} = env.get({self.const(expr.name)})")
        self.line(f"if type({array}) is not FArray and not isinstance({array}, ARRAYS):")
        self.line(f"    raise not_an_array({node})")
        subs = self.subscripts(expr.subs)
        result = self.temp()
        generic = f"{result} = load({node}, {array}, [{', '.join(subs)}])"
        # Element loads of rank 1 and 2 get a host-int fast path.
        rank = 0 if any(isinstance(s, ast.Slice) for s in expr.subs) else len(subs)
        if rank not in (1, 2):
            self.line(generic)
            return result
        test, index = self.element(array, subs, rank)
        self.line(f"if type({array}) is FArray and {test}:")
        self.line(f"    {result} = {array}.data.item({index})")
        self.line("else:")
        self.line("    " + generic)
        return result

    def store(self, target: ast.Expr, value: str) -> None:
        """Emit the store of ``value`` into ``target``."""
        self.record("store")
        if isinstance(target, ast.Var):
            name = self.const(target.name)
            existing = self.temp()
            self.line(f"{existing} = env.get({name})")
            self.line(f"if isinstance({existing}, FArray):")
            self.line(f"    {existing}.data[...] = coerce({value})")
            self.line(f"elif type({value}) is float or type({value}) is int:")
            self.line(f"    env[{name}] = {value}")
            self.line("else:")
            self.line(f"    env[{name}] = scalarize({value})")
            return
        if not isinstance(target, ast.ArrayRef):
            self.fail("invalid assignment target", target.loc)
            return
        array = self.temp()
        self.line(f"{array} = env.get({self.const(target.name)})")
        self.line(f"if not isinstance({array}, FArray):")
        self.line(f"    raise not_an_array({self.const(target)})")
        subs = self.subscripts(target.subs)
        generic = f"{array}.data[{array}.np_index([{', '.join(subs)}])] = coerce({value})"
        # Rank-1 element stores get a host-int fast path.
        if len(subs) != 1 or isinstance(target.subs[0], ast.Slice):
            self.line(generic)
            return
        test, index = self.element(array, subs, 1)
        self.line(f"if {test}:")
        self.line(f"    {array}.data[{index}] = coerce({value})")
        self.line("else:")
        self.line("    " + generic)


#: Emitter per expression class (matched along the MRO).
_EMIT = {
    ast.Var: _Emitter.var,
    ast.IntLit: _Emitter.literal,
    ast.RealLit: _Emitter.literal,
    ast.BoolLit: _Emitter.literal,
    ast.StringLit: _Emitter.literal,
    ast.ArrayRef: _Emitter.arrayref,
    ast.Call: _Emitter.call,
    ast.BinOp: _Emitter.binop,
    ast.UnOp: _Emitter.unop,
    ast.VectorLit: _Emitter.vectorlit,
    ast.RangeVec: _Emitter.rangevec,
}

#: What generated code reads as globals.
_HELPERS = {
    "ARRAYS": (FArray, np.ndarray),
    "FArray": FArray,
    "InterpreterError": InterpreterError,
    "as_int_scalar": as_int_scalar,
    "binop": _binop,
    "call_intrinsic": call_intrinsic,
    "coerce": coerce,
    "load": _load,
    "not_an_array": _not_an_array,
    "np": np,
    "scalarize": _scalarize,
    "subscript": _subscript_value,
    "unop": _unop,
}

#: Function factories by generated source, cleared when it fills.
#: Names and constants are closure variables, so the source depends
#: only on a statement's shape and programs share it.
_FACTORIES: dict = {}
_MAX_FACTORIES = 512


#: The tallies a width-1 event adds one to (``record_scalar``).
_SCALAR_TALLIES = ("events", "layer_steps", "element_ops", "active_elements")


def _make_function(params: str, emit, counters: ExecutionCounters):
    """Generate ``run(<params>)``: ``emit(out)`` writes its body into an
    :class:`_Emitter` and returns the expression it returns, or None.
    The function records its events into ``counters``."""
    out = _Emitter()
    result = emit(out)
    if result is not None:
        out.line(f"return {result}")
    consts = "".join(f"c{i}, " for i in range(len(out.consts)))
    source = "\n".join(
        [
            "def bind(record, tallies, consts):",
            f"    ({', '.join(_SCALAR_TALLIES)}) = tallies",
            f"    ({consts}) = consts",
            f"    def run({params}):",
            *(out.lines or ["        pass"]),
            "    return run",
        ]
    )
    factory = _FACTORIES.get(source)
    if factory is None:
        if len(_FACTORIES) >= _MAX_FACTORIES:
            _FACTORIES.clear()
        namespace = dict(_HELPERS)
        exec(compile(source, "<minif>", "exec"), namespace)
        factory = _FACTORIES[source] = namespace["bind"]
    tallies = tuple(getattr(counters, name) for name in _SCALAR_TALLIES)
    return factory(counters.record_scalar, tallies, tuple(out.consts))
