"""Sequential (F77) interpreter for MiniF.

Executes a program the way the paper's Sparc 2 reference runs: one
thread of control, ordinary loop semantics.  Execution events are
recorded into :class:`~repro.exec.counters.ExecutionCounters` so a
scalar machine model can price the run.

The interpreter is dynamically typed (ints, floats, bools,
:class:`~repro.exec.values.FArray`); whole-array assignments and array
sections are supported Fortran-90 style.

Execution is compiled: the first time a statement list runs, it is
lowered once into one *generated* Python function (:class:`_Emitter`),
in the manner of the VM's block closures (:mod:`repro.vm.fuse`).  Each
statement's prologue — statement count, budget compare, trace entry —
is inline; so are assignments, external CALLs and DO loops, whose
bodies are inline too when they hold no label.  Every other statement
(WHILE, IF, WHERE, FORALL, declarations, MiniF CALLs) calls a closure
compiled for it, which runs its own statement lists through their own
generated functions.  Every expression node leaves its value in a
local, and names, constants, statements and source locations are
closure variables, so same-shape statement lists share one code
object.  The hot leaves take host-scalar fast paths (rank-1/rank-2
element loads and rank-1 element stores with Python-int subscripts,
``+ - *`` on two host ints or two host floats); every other case calls
the generic helpers, so results, counter events and fault texts are the
same either way.  Compiled code is cached per interpreter, keyed by the
AST node (or statement list) it came from.
"""

from __future__ import annotations

import contextlib
import copy
import weakref
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


def _literal_type(expr: ast.Expr):
    """``int`` or ``float`` for an integer or real literal (the host
    type of its value), else None."""
    if isinstance(expr, (ast.IntLit, ast.RealLit)) and type(expr.value) in (int, float):
        return type(expr.value)
    return None


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
    Width-1 events are tallied once per kind while the run goes and
    folded into the counters on every way out of it
    (:meth:`~repro.exec.counters.ExecutionCounters.tally`).

    A generated statement list keeps its statement count in a local and
    adds it to ``executed_statements`` and the budget meter's steps
    before anything that may read them or run statements of its own:
    the meter's poll, an injected fault, a statement hook, a checkpoint
    capture, a call out of the list, and on leaving the list.

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
        # Compiled code by id of the statement list / node it came
        # from; each entry keeps its node alive so the id stays unique.
        # Statement lists are compiled for one mode (:meth:`_set_mode`).
        self._mode = self._run_mode()
        self._bodies: dict[int, tuple] = {}
        self._exprs: dict[int, tuple] = {}
        self._stores: dict[int, tuple] = {}

    def snapshot(self) -> MachineSnapshot:
        """The interpreter's state right now (for crash dumps)."""
        self.counters.fold()
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
        self._set_mode()
        try:
            self.exec_body(routine.body, env)
        except (ReturnSignal, StopSignal):
            pass
        except MiniFError as error:
            raise attach_snapshot(error, self.snapshot())
        finally:
            self.counters.fold()
            self._resume = None
            self._frames = None
            self._ckpt_next = None
        return env

    def _run_mode(self) -> tuple[bool, bool, bool]:
        """What the statement prologue carries on this run: an injected
        fault check, a statement hook call, checkpoint frames."""
        return (
            self.fault_plan is not None,
            self.statement_hook is not None,
            self._frames is not None,
        )

    def _set_mode(self) -> None:
        """Drop the compiled statement lists if this run needs another
        prologue than the one they were generated with, so that a plain
        run pays nothing for the optional parts."""
        mode = self._run_mode()
        if mode != self._mode:
            self._mode = mode
            self._bodies = {}

    def _poll(self, location) -> int:
        """The slow half of the inline budget compare: the meter's
        check, with the steps already added.  Returns how many more
        statements run before the next check."""
        meter = self._meter
        try:
            meter._check(location)
        except MiniFError:
            self._settle_trace(self.executed_statements - 1)
            raise
        return meter._due - meter.steps

    def _fault(self, pending: int) -> None:
        """Raise the injected fault planned for the statement just
        counted (``pending`` statements not yet added to the count)."""
        step = self.executed_statements + pending
        try:
            self.fault_plan.raise_op_fault(step, "scalar")
        except MiniFError:
            self._settle_trace(step - 1)
            raise

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
            self._resume_do(stmt, env, int(head[1]), int(head[2]), int(head[3]))
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

    def _resume_do(
        self, stmt: ast.Do, env: dict, value: int, trips_left: int, stride: int
    ) -> None:
        """The rest of a DO loop captured mid-trip, in its ``["do",
        value, trips_left, stride]`` frame: the current trip's
        control-variable store and ``acu`` event are already in the
        restored state, so only its (partially executed) body runs
        before the remaining trips, which run as the generated loop
        runs them."""
        body = self._body(stmt.body)
        var = stmt.var
        frame = ["do", value, trips_left, stride]
        self._frames.append(frame)
        resumed = True
        try:
            while trips_left > 0:
                frame[1] = value
                frame[2] = trips_left
                if not resumed:
                    env[var] = value
                    self.counters.tally("acu")
                resumed = False
                try:
                    body(env)
                except LoopExit:
                    return
                except LoopCycle:
                    pass
                value += stride
                trips_left -= 1
        finally:
            self._frames.pop()
        env[var] = value

    # -- compiled-code caches ----------------------------------------------------

    def precompile(self) -> None:
        """Compile every routine's statement lists for the runs this
        interpreter's settings make (a fault plan, a statement hook,
        checkpoint capture) now, generating their code into the shared
        caches, so that processes forked afterwards (pmimd workers)
        start with those caches warm."""
        capturing = bool(self.checkpoint_every) and self.checkpoint_sink is not None
        self._frames = [] if capturing else None
        self._set_mode()
        self._frames = None
        for unit in self.source.units:
            self._body(unit.body)

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
            function = _make_function(expr, "env", lambda out: out.value(expr), self)
            entry = self._exprs[id(expr)] = (expr, function)
        return entry[1]

    def _store(self, target: ast.Expr):
        entry = self._stores.get(id(target))
        if entry is None:
            function = _make_function(
                target, "value, env", lambda out: out.store(target, "value"), self
            )
            entry = self._stores[id(target)] = (target, function)
        return entry[1]

    # -- statements --------------------------------------------------------------

    def _compile_body(self, body: list[ast.Stmt]):
        """Lower a statement list into one generated ``run(env)``
        (:meth:`_Emitter.statement_list`), for this run's mode."""
        return _make_function(
            body,
            "env",
            lambda out: out.statement_list(body, self),
            self,
            (self._mode, frozenset(self.externals)),
        )

    def _compile_stmt(self, stmt: ast.Stmt):
        """The action closure ``action(env)`` of a statement the
        generated code does not lower itself."""
        compiler = _STMT_COMPILERS.get(type(stmt))
        if compiler is None:
            return _raising(
                InterpreterError,
                f"statement {type(stmt).__name__} not supported here",
                stmt.loc,
            )
        return compiler(self, stmt)

    def _compile_while(self, stmt):
        self._expr(stmt.cond)  # generated with the statement, for precompile
        self._body(stmt.body)
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
                    self.counters.tally("acu")
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
        record = self.counters.tally

        def test(env):
            taken = as_bool_scalar(cond(env), "IF condition")
            record("acu")
            return taken

        return self._compile_branch(stmt, test, "if")

    def _compile_where(self, stmt: ast.Where):
        # In sequential execution a WHERE behaves like an IF over the
        # (scalar or uniform) mask.
        mask = self._expr(stmt.mask)
        record = self.counters.tally

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
        self._body(stmt.body)

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

    def _compile_callstmt(self, stmt: ast.CallStmt):
        """A CALL into a MiniF subroutine (external CALLs are inline)."""
        return lambda env: self._call_routine(stmt, env)

    def _call_routine(self, stmt: ast.CallStmt, env: dict) -> None:
        """CALL into a MiniF subroutine: by-value in, write-back out."""
        routine = self._routines.get(stmt.name)
        if routine is None:
            raise InterpreterError(f"CALL to unknown subroutine '{stmt.name}'", stmt.loc)
        if len(routine.params) != len(stmt.args):
            raise InterpreterError(
                f"CALL {stmt.name}: arity mismatch", stmt.loc
            )
        self.counters.tally("acu")
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


#: Closure compiler per statement class (exact type) the generated code
#: calls out to.
_STMT_COMPILERS = {
    ast.DoWhile: ScalarInterpreter._compile_while,
    ast.While: ScalarInterpreter._compile_while,
    ast.If: ScalarInterpreter._compile_if,
    ast.Where: ScalarInterpreter._compile_where,
    ast.Forall: ScalarInterpreter._compile_forall,
    ast.CallStmt: ScalarInterpreter._compile_callstmt,
    ast.Decl: _call_helper(ScalarInterpreter._exec_decl),
    ast.ParamDecl: _call_helper(ScalarInterpreter._exec_paramdecl),
}

#: Statements with no action: the prologue is all they run.
_NO_ACTION = (ast.Continue, ast.Decomposition, ast.Align, ast.Distribute)

#: Statements whose action is raising a control signal.
_SIGNALS = {
    ast.ExitStmt: "LoopExit",
    ast.CycleStmt: "LoopCycle",
    ast.Return: "ReturnSignal",
    ast.Stop: "StopSignal",
}

#: Loops nested deeper than this in one generated function call their
#: body's own function (Python allows 20 nested blocks per function).
_MAX_INLINE_LOOPS = 4


# -- generated code ---------------------------------------------------------------


class _Emitter:
    """Source text of one generated function.

    Each expression node becomes a few statements that leave its value
    in a fresh local, in the order the tree evaluates.  Names,
    constants, error messages, statements and source locations are
    closure variables (``c0, c1, ...``), so the source depends only on
    the shape of the tree and same-shape statement lists share one code
    object.

    A statement list (:meth:`statement_list`) becomes the whole
    function.  Its statement count lives in the local ``k`` (the
    statements not yet added to the interpreter's count) and its budget
    headroom in ``room``; :meth:`flush` adds ``k`` to the count and the
    meter, :meth:`reload` re-reads the headroom after a call out.  One
    ``try`` around the list stamps an error that carries no location
    with the statement whose code raised it: every line records the
    location of the innermost statement it belongs to (``self.loc``),
    and the handler looks up the line the error passed through.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.consts: list = []
        self.fresh = 0
        self.indent = ""
        # The location an error raised by the next lines is stamped
        # with, one entry per line.
        self.loc = None
        self.locs: list = []
        self.line_locs: str | None = None

    def const(self, value) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def temp(self) -> str:
        self.fresh += 1
        return f"t{self.fresh}"

    def line(self, text: str) -> None:
        self.lines.append("        " + self.indent + text)
        self.locs.append(self.loc)

    @contextlib.contextmanager
    def block(self, head: str):
        """Emit ``head`` and indent what the ``with`` body emits."""
        self.line(head)
        self.indent += "    "
        try:
            yield
        finally:
            self.indent = self.indent[:-4]

    def record(self, kind: str) -> None:
        """Emit the width-1 event ``kind``: one add to its pending count
        (:meth:`~repro.exec.counters.ExecutionCounters.tally`)."""
        with self.block("try:"):
            self.line(f"pending[{kind!r}] += 1")
        with self.block("except KeyError:"):
            self.line(f"first({kind!r})")

    def fail(self, message: str, loc) -> None:
        self.line(f"raise InterpreterError({self.const(message)}, {self.const(loc)})")

    # -- expressions -------------------------------------------------------------

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
        # A literal operand's type is known here: its test is dropped,
        # and a branch it rules out is not emitted.
        known = (_literal_type(expr.left), _literal_type(expr.right))
        test = "if"
        for kind, event in ((float, "real_op"), (int, "int_op")):
            if any(static not in (None, kind) for static in known):
                continue
            checks = [
                f"type({operand}) is {kind.__name__}"
                for operand, static in zip((left, right), known)
                if static is None
            ]
            if not checks:  # both literals: no other branch can run
                self.line(f"{result} = {left} {expr.op} {right}")
                self.record(event)
                return result
            with self.block(f"{test} {' and '.join(checks)}:"):
                self.line(f"{result} = {left} {expr.op} {right}")
                self.record(event)
            test = "elif"
        if test == "if":
            self.line(generic)
            return result
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

    def store(self, target: ast.Expr, value: str, known=None) -> None:
        """Emit the store of ``value`` (of host type ``known``, when
        that is known) into ``target``."""
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
        if known is None:
            # ``coerce`` passes a host number through unchanged.
            value = f"{value} if type({value}) is float or type({value}) is int else coerce({value})"
        self.line(f"if {test}:")
        self.line(f"    {array}.data[{index}] = {value}")
        self.line("else:")
        self.line("    " + generic)

    # -- statements --------------------------------------------------------------

    def statement_list(self, body: list, interp: ScalarInterpreter) -> None:
        """Emit ``body`` as the whole function, for ``interp``'s mode.

        The function adds its statements to the interpreter's count and
        meter on the way out, stamps located errors, re-enters itself
        at a label's index on a GOTO the list holds, and — in a run that
        captures or resumes checkpoints — keeps a ``["body", pc]`` frame
        and starts at a resume path's position.
        """
        self.interp = interp
        self.faults, self.hook, self.frames = interp._mode
        self.loops = 0
        self.line_locs = self.const(None)  # filled in by _make_function
        self.line("meter = interp._meter")
        self.line("room = meter._due - meter.steps")
        self.line("k = 0")
        self.line("trace = interp._trace.append")
        if body:
            self.line("interp._env = env")
        labels = {
            stmt.label: index for index, stmt in enumerate(body) if stmt.label is not None
        }
        if self.frames:
            self.line("frames = interp._frames")
            self.line(f"pc, reenter = interp._resume_position({len(body)})")
            self.line("frame = ['body', pc]")
            self.line("frames.append(frame)")
        elif labels:
            self.line("pc = 0")
        with self.block("try:"):
            if labels:
                with self.block("while True:"):
                    with self.block("try:"):
                        self.entries(body, set(labels.values()))
                        self.line("break")
                    with self.block("except GotoSignal as signal:"):
                        self.reload()
                        self.line(f"pc = {self.const(labels)}.get(signal.target, -1)")
                        self.line("if pc < 0:")
                        self.line("    raise")
            elif self.frames:
                self.entries(body, set())
            else:
                for stmt in body:
                    self.statement(stmt)
            if not body:
                self.line("pass")
        with self.block("except MiniFError as error:"):
            self.line("if not error.location.line:")
            self.line(
                f"    locate(error, {self.line_locs}.get(error.__traceback__.tb_lineno))"
            )
            self.line("raise")
        with self.block("finally:"):
            if self.frames:
                self.line("frames.pop()")
            self.line("interp.executed_statements += k")
            self.line("meter.steps += k")

    def entries(self, body: list, starts: set) -> None:
        """Emit ``body`` so that the function may start at any index in
        ``starts`` (every index while checkpointing): ``pc`` holds the
        index to start at."""
        if self.frames:
            for index, stmt in enumerate(body):
                with self.block(f"if pc <= {index}:"):
                    self.line(f"frame[1] = {index}")
                    with self.block("if reenter:"):
                        self.line("reenter = False")
                        self.flush()
                        self.line(f"interp._reenter_stmt({self.const(stmt)}, env)")
                        self.reload()
                    with self.block("else:"):
                        self.checkpoint_due()
                        self.statement(stmt)
            return
        bounds = sorted(starts | {0}) + [len(body)]
        for first, end in zip(bounds, bounds[1:]):
            with self.block(f"if pc <= {first}:"):
                for stmt in body[first:end]:
                    self.statement(stmt)

    def flush(self) -> None:
        """Emit: add the pending statements to the count and the meter."""
        self.line("interp.executed_statements += k")
        self.line("meter.steps += k")
        self.line("k = 0")

    def reload(self) -> None:
        """Emit: re-read the budget headroom and the current env after
        code that may have run statements of its own."""
        self.line("room = meter._due - meter.steps")
        self.line("interp._env = env")

    def checkpoint_due(self) -> None:
        """Emit the capture of a due checkpoint (deferred inside a CALL)."""
        with self.block(
            "if interp._ckpt_next is not None and interp.executed_statements + k"
            " >= interp._ckpt_next and not interp._call_depth:"
        ):
            self.flush()
            self.line("interp._emit_checkpoint(env)")

    def call_out(self, call: str) -> None:
        """Emit ``call``, which may run statements of its own."""
        self.flush()
        self.line(call)
        self.reload()

    def statement(self, stmt: ast.Stmt) -> None:
        """Emit one statement: its prologue, then its action.

        The prologue's lines belong to the enclosing statement (an
        injected fault is stamped with the loop around it); the
        action's to the statement itself.
        """
        node = self.const(stmt)
        self.line("k += 1")
        with self.block("if k >= room:"):
            self.flush()
            self.line(f"room = poll({self.const(stmt.loc)})")
        if self.faults:
            self.line("interp._fault(k)")
        self.line(f"trace({node})")
        if self.hook:
            self.call_out(f"interp.statement_hook({node}, env)")
        outer, self.loc = self.loc, stmt.loc
        if isinstance(stmt, ast.Assign):
            self.store(stmt.target, self.value(stmt.value), _literal_type(stmt.value))
        elif isinstance(stmt, ast.Do):
            self.do(stmt)
        elif isinstance(stmt, ast.CallStmt) and stmt.name in self.interp.externals:
            self.external(stmt)
        elif isinstance(stmt, ast.Goto):
            self.record("acu")
            self.line(f"raise GotoSignal({self.const(stmt.target)})")
        elif type(stmt) in _SIGNALS:
            self.line(f"raise {_SIGNALS[type(stmt)]}")
        elif not isinstance(stmt, _NO_ACTION):
            action = self.const(_Late(ScalarInterpreter._compile_stmt, stmt))
            self.call_out(f"{action}(env)")
        self.loc = outer

    def bound(self, expr: ast.Expr, what: str) -> str:
        """Emit a DO bound: a local holding it as a host int."""
        value = self.value(expr)
        result = self.temp()
        self.line(f"{result} = {value}")
        if _literal_type(expr) is not int:
            self.line(f"if type({result}) is not int:")
            self.line(f"    {result} = as_int_scalar({result}, {what!r})")
        return result

    def do(self, stmt: ast.Do) -> None:
        """A DO loop as a ``while`` over its trips: the control-variable
        store and the ``acu`` event per trip, then the body — inline
        when it holds no label, else a call of its own function.  While
        checkpointing the loop keeps a ``["do", value, trips_left,
        stride]`` frame and always calls the body's function, which
        keeps its own body frame."""
        value = self.bound(stmt.lo, "DO lower bound")
        last = self.bound(stmt.hi, "DO upper bound")
        step = "1"
        if stmt.stride is not None:
            step = self.bound(stmt.stride, "DO stride")
            self.line(f"if {step} == 0:")
            self.line(f"    raise InterpreterError('DO stride is zero', {self.const(stmt.loc)})")
        var = self.const(stmt.var)
        trips = self.temp()
        self.line(f"env[{var}] = {value}")
        if stmt.stride is None:
            self.line(f"{trips} = {last} - {value} + 1")
        else:
            self.line(f"{trips} = ({last} - {value} + {step}) // {step}")
        inline = (
            not self.frames
            and self.loops < _MAX_INLINE_LOOPS
            and all(inner.label is None for inner in stmt.body)
        )
        frame = None
        if self.frames:
            frame = self.temp()
            self.line(f"{frame} = ['do', {value}, {trips}, {step}]")
            self.line(f"frames.append({frame})")
        with self.block("try:") if frame else contextlib.nullcontext():
            with self.block(f"while {trips} > 0:"):
                if frame is not None:
                    self.line(f"{frame}[1] = {value}")
                    self.line(f"{frame}[2] = {trips}")
                self.line(f"env[{var}] = {value}")
                self.record("acu")
                with self.block("try:"):
                    if inline:
                        self.loops += 1
                        for inner in stmt.body:
                            self.statement(inner)
                        self.loops -= 1
                    else:
                        body = self.const(_Late(ScalarInterpreter._body, stmt.body))
                        self.call_out(f"{body}(env)")
                    if not stmt.body:
                        self.line("pass")
                with self.block("except LoopExit:"):
                    self.reload()
                    self.line("break")
                with self.block("except LoopCycle:"):
                    self.reload()
                self.line(f"{value} += {step}")
                self.line(f"{trips} -= 1")
            with self.block("else:"):
                self.line(f"env[{var}] = {value}")
        if frame is not None:
            with self.block("finally:"):
                self.line("frames.pop()")

    def external(self, stmt: ast.CallStmt) -> None:
        """An external CALL: the argument list and the call's events
        inline, then ``fn(interp, arg_exprs, args, env)``."""
        # Output arguments may be unset before the call — pass None.
        items = [
            f"env.get({self.const(arg.name)})" if isinstance(arg, ast.Var) else self.value(arg)
            for arg in stmt.args
        ]
        args = self.temp()
        self.line(f"{args} = [{', '.join(items)}]")
        name = self.const(stmt.name)
        with self.block("try:"):
            self.line(f"pending_calls[{name}] += 1")
        with self.block("except KeyError:"):
            self.line(f"first_call({name})")
        self.record("call")
        external = self.const(_Late(_external, stmt.name))
        call = f"{external}(interp, {self.const(stmt.args)}, {args}, env)"
        if not self.frames:
            self.call_out(call)
            return
        # Checkpoint captures wait while a CALL is on the stack.
        self.flush()
        self.line("interp._call_depth += 1")
        with self.block("try:"):
            self.line(call)
        with self.block("finally:"):
            self.line("interp._call_depth -= 1")
        self.reload()


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
    "GotoSignal": GotoSignal,
    "InterpreterError": InterpreterError,
    "LoopCycle": LoopCycle,
    "LoopExit": LoopExit,
    "MiniFError": MiniFError,
    "ReturnSignal": ReturnSignal,
    "StopSignal": StopSignal,
    "as_int_scalar": as_int_scalar,
    "binop": _binop,
    "call_intrinsic": call_intrinsic,
    "coerce": coerce,
    "load": _load,
    "locate": locate,
    "not_an_array": _not_an_array,
    "np": np,
    "scalarize": _scalarize,
    "subscript": _subscript_value,
    "unop": _unop,
}

#: Function factories by generated source, cleared when it fills.
#: Names, constants and statements are closure variables, so the source
#: depends only on a statement list's shape and programs share it.
_FACTORIES: dict = {}
_MAX_FACTORIES = 512

#: Per program, by id of its ``SourceFile`` (an entry goes when the
#: program does): ``(node, factory, constants)`` by the id of the node a
#: function was generated from, its parameters and, for a statement
#: list, the run mode and the external names.  Another interpreter of
#: the same program binds the same code without emitting it again.
_TEMPLATES: dict = {}

#: The generated source above the function's own lines.
_HEADER = (
    "def bind(interp, consts):",
    "    counters = interp.counters",
    "    pending, pending_calls = counters.pending, counters.pending_calls",
    "    first, first_call, record = counters.first, counters.first_call, counters.tally",
    "    poll = interp._poll",
)


class _Late:
    """A constant of generated code that each interpreter supplies:
    ``function(interp, arg)`` when the function is bound."""

    __slots__ = ("function", "arg")

    def __init__(self, function, arg):
        self.function = function
        self.arg = arg


def _external(interp: ScalarInterpreter, name: str):
    return interp.externals[name]


def _make_function(node, params: str, emit, interp: ScalarInterpreter, mode=None):
    """Generate ``run(<params>)`` for ``node``, bound to ``interp``:
    ``emit(out)`` writes its body into an :class:`_Emitter` and returns
    the expression it returns, or None.  The function records its
    events into ``interp``'s counters."""
    source = interp.source
    templates = _TEMPLATES.get(id(source))
    if templates is None:
        templates = _TEMPLATES[id(source)] = {}
        weakref.finalize(source, _TEMPLATES.pop, id(source), None)
    key = (id(node), params, mode)
    template = templates.get(key)
    if template is None:
        # The entry keeps its node alive, so the id stays unique.
        template = templates[key] = (node, *_generate(params, emit))
    _, factory, consts = template
    return factory(
        interp,
        tuple(
            const.function(interp, const.arg) if type(const) is _Late else const
            for const in consts
        ),
    )


def _generate(params: str, emit) -> tuple:
    """``(factory, constants)`` of the function ``emit`` writes."""
    out = _Emitter()
    result = emit(out)
    if result is not None:
        out.line(f"return {result}")
    consts = "".join(f"c{i}, " for i in range(len(out.consts)))
    header = [*_HEADER, f"    ({consts}) = consts", f"    def run({params}):"]
    if out.line_locs is not None:
        # Line numbers of the function's lines start after the header.
        first = len(header) + 1
        out.consts[int(out.line_locs[1:])] = {
            first + index: loc for index, loc in enumerate(out.locs) if loc is not None
        }
    source = "\n".join([*header, *(out.lines or ["        pass"]), "    return run"])
    factory = _FACTORIES.get(source)
    if factory is None:
        if len(_FACTORIES) >= _MAX_FACTORIES:
            _FACTORIES.clear()
        namespace = dict(_HELPERS)
        exec(compile(source, "<minif>", "exec"), namespace)
        factory = _FACTORIES[source] = namespace["bind"]
    return factory, tuple(out.consts)
