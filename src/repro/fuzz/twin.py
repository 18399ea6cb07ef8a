"""The VM's test-only twin: a tree-walking lockstep SIMD interpreter.

The product runs lockstep SIMD programs on one backend, the bytecode
VM of :mod:`repro.vm.machine`.  This module is a second, independent
implementation of the same F90simd semantics, kept only as the VM's
oracle: the fuzz oracle's lockstep legs and the differential suite run
both and demand identical environments and counters
(:func:`repro.reliability.check_agreement`).  No run path of the
package selects it.  It keeps a step budget, so a runaway program
stops, and externals, so the paper's kernels run on it.

Models the paper's machine class — one program counter shared by ``P``
processing elements:

* scalars are *replicated*: a per-PE vector of length ``P`` (the
  F90simd convention of Section 2);
* ``WHERE``/``ELSEWHERE`` push activity masks; statements in both
  branches are *issued to all PEs* and cost full lockstep steps, with
  masked-out PEs idling — exactly the inefficiency of Equation 2;
* ``IF`` conditions and ``DO`` bounds must be uniform across the
  active PEs (they execute on the front end / array control unit);
  per-PE divergence requires a WHERE — the interpreter *rejects*
  non-SIMDizable control flow rather than silently serializing it;
* ``WHILE`` accepts a scalar condition (usually ``ANY(...)``) or a
  vector condition whose active elements agree (the paper's
  array-controlled WHILE);
* vector subscripts perform per-PE indirect addressing (gather /
  scatter), bounds-checked on active lanes only and charged separately
  — indirect addressing is priced differently on both machines;
* arrays whose trailing dimensions are laid out serially in PE memory
  ("memory layers") charge one lockstep step per layer touched.

All events land in :class:`~repro.exec.counters.ExecutionCounters`.
"""

from __future__ import annotations

import numpy as np

from ..exec.counters import ExecutionCounters
from ..exec.intrinsics import call_intrinsic, coerce, is_reduction_call
from ..exec.ops import apply_binop, apply_unop, op_event_kind
from ..exec.signals import (
    GotoSignal,
    LoopCycle,
    LoopExit,
    ReturnSignal,
    StopSignal,
)
from ..exec.values import FArray, align_mask
from ..lang import ast
from ..lang.errors import InterpreterError, MiniFError
from ..lang.parser import parse_source
from ..lang.symbols import implicit_type
from ..reliability import Budget, DivergenceFault, OutOfBoundsFault, locate


def _lane_mask(mask, nproc: int) -> np.ndarray:
    """Project a mask onto lanes: (P,) bool array of 'lane has activity'."""
    if mask is None or isinstance(mask, bool):
        return np.full(nproc, mask if isinstance(mask, bool) else True)
    mask = np.asarray(mask)
    if mask.ndim == 1:
        return mask
    return mask.any(axis=tuple(range(1, mask.ndim)))


class SIMDInterpreter:
    """Tree-walking interpreter with lockstep SIMD semantics.

    Args:
        source: Parsed program.
        nproc: Number of processing elements ``P``.
        externals: Mapping from subroutine name to a Python callable
            ``fn(interp, arg_exprs, arg_values, env, mask)``.
        counters: Event accumulator (fresh one when omitted).
        budget: Execution guard (None = ``Budget()``, the default step
            cap).
    """

    def __init__(
        self,
        source: ast.SourceFile,
        nproc: int,
        externals: dict | None = None,
        counters: ExecutionCounters | None = None,
        budget: Budget | None = None,
    ):
        if nproc < 1:
            raise InterpreterError(f"need at least one PE, got {nproc}")
        self.source = source
        self.nproc = nproc
        self.externals = externals or {}
        self.counters = counters if counters is not None else ExecutionCounters(nproc)
        self.budget = budget if budget is not None else Budget()

        self._meter = self.budget.meter()
        self._routines = {unit.name: unit for unit in source.units}
        self._mask = np.ones(nproc, dtype=bool)

    # -- entry point -----------------------------------------------------------

    def run(self, routine_name: str | None = None, bindings: dict | None = None) -> dict:
        """Execute a routine on the full PE array; return its env."""
        routine = (
            self.source.main if routine_name is None else self._routines[routine_name]
        )
        env: dict = dict(bindings or {})
        self._meter = self.budget.meter()
        try:
            self.exec_body(routine.body, env)
        except (ReturnSignal, StopSignal):
            pass
        return env

    # -- mask helpers -----------------------------------------------------------

    @property
    def lanes_active(self) -> np.ndarray:
        return _lane_mask(self._mask, self.nproc)

    def _combine(self, mask, cond):
        cond = np.asarray(coerce(cond))
        if cond.ndim == 0:
            cond = np.full(self.nproc, bool(cond))
        if cond.dtype.kind != "b":
            raise InterpreterError("mask expression is not logical")
        base = np.asarray(mask)
        if base.ndim < cond.ndim:
            base = align_mask(base, cond.ndim)
        elif cond.ndim < base.ndim:
            cond = align_mask(cond, base.ndim)
        return base & cond

    def _uniform_int(self, value, what: str) -> int:
        """Coerce to a host int; per-PE values must agree on active lanes."""
        if isinstance(value, np.ndarray) and value.ndim >= 1:
            lanes = _lane_mask(self._mask, self.nproc)
            selected = value[lanes] if value.shape[0] == self.nproc else value.ravel()
            if selected.size == 0:
                raise InterpreterError(f"{what}: no active processors")
            first = selected.flat[0]
            if not np.all(selected == first):
                raise DivergenceFault(
                    f"{what} diverges across active processors — "
                    "a SIMD machine needs a uniform value here "
                    "(use MAXVAL/WHERE, i.e. SIMDize the loop)"
                )
            return int(first)
        if isinstance(value, float) and not value.is_integer():
            raise InterpreterError(f"{what} is not an integer: {value}")
        return int(value)

    def _uniform_bool(self, value, what: str) -> bool:
        if isinstance(value, np.ndarray) and value.ndim >= 1:
            lanes = _lane_mask(self._mask, self.nproc)
            selected = value[lanes] if value.shape[0] == self.nproc else value.ravel()
            if selected.size == 0:
                return False
            first = selected.flat[0]
            if not np.all(selected == first):
                raise DivergenceFault(
                    f"{what} diverges across active processors — "
                    "use WHERE for per-PE control flow"
                )
            return bool(first)
        return bool(value)

    # -- statements ---------------------------------------------------------------

    def exec_body(self, body: list[ast.Stmt], env: dict) -> None:
        labels = {
            stmt.label: index
            for index, stmt in enumerate(body)
            if stmt.label is not None
        }
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

    def exec_stmt(self, stmt: ast.Stmt, env: dict) -> None:
        self._meter.tick(stmt.loc)
        method = getattr(self, f"_exec_{type(stmt).__name__.lower()}", None)
        if method is None:
            raise InterpreterError(
                f"statement {type(stmt).__name__} not supported on SIMD", stmt.loc
            )
        try:
            method(stmt, env)
        except MiniFError as error:
            # The innermost statement wins; outer re-wraps are no-ops.
            if not error.location.line:
                locate(error, stmt.loc)
            raise

    # declarations ------------------------------------------------------------------

    def _exec_decl(self, stmt: ast.Decl, env: dict) -> None:
        for entity in stmt.entities:
            base = (
                stmt.base_type
                if stmt.base_type != "dimension"
                else implicit_type(entity.name)
            )
            if not entity.dims:
                continue
            existing = env.get(entity.name)
            if isinstance(existing, FArray):
                continue
            shape = tuple(
                self._uniform_int(self.eval(d, env), f"extent of {entity.name}")
                for d in entity.dims
            )
            array = FArray(entity.name, shape, base, fill=existing is None)
            if isinstance(existing, np.ndarray):
                if existing.size != array.size:
                    raise InterpreterError(
                        f"binding for '{entity.name}' has {existing.size} elements, "
                        f"declared {array.size}",
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

    # assignment -----------------------------------------------------------------------

    def _exec_assign(self, stmt: ast.Assign, env: dict) -> None:
        value = self.eval(stmt.value, env)
        self.assign_to(stmt.target, value, env)

    def assign_to(self, target: ast.Expr, value, env: dict) -> None:
        """Masked store of ``value`` into a Var or ArrayRef target."""
        value = coerce(value)
        if isinstance(target, ast.Var):
            self._assign_var(target, value, env)
            return
        if isinstance(target, ast.ArrayRef):
            self._assign_arrayref(target, value, env)
            return
        raise InterpreterError("invalid assignment target", target.loc)

    def _assign_var(self, target: ast.Var, value, env: dict) -> None:
        existing = env.get(target.name)
        if isinstance(existing, FArray):
            layers = max(1, existing.size // max(1, self.nproc))
            self.counters.record(
                "store", width=self.nproc, layers=layers, mask=self.lanes_active
            )
            if bool(np.all(self._mask)):
                existing.data[...] = value
                return
            if existing.shape[0] != self.nproc:
                raise InterpreterError(
                    f"masked whole-array assignment to '{target.name}' needs a "
                    f"leading dimension of {self.nproc}",
                    target.loc,
                )
            mask = align_mask(self._mask, existing.data.ndim)
            existing.data[...] = np.where(mask, value, existing.data)
            return
        self.counters.record(
            "store",
            width=self.nproc,
            layers=self._layers_of(value),
            mask=self.lanes_active,
        )
        if bool(np.all(self._mask)):
            env[target.name] = value
            return
        if existing is None:
            # First write happens under a partial mask: the masked-out
            # lanes' memory is simply uninitialized on a real machine;
            # model it as zero (of the stored value's type).
            sample = np.asarray(value)
            existing = np.zeros(self.nproc, dtype=sample.dtype)
        old = np.asarray(coerce(existing))
        new = np.asarray(value)
        if old.ndim == 0:
            old = np.full(self.nproc, old.item())
        mask = self._mask
        if new.ndim > old.ndim:
            old = np.broadcast_to(old[..., None], new.shape).copy()
        mask = align_mask(_lane_mask(mask, self.nproc), max(old.ndim, new.ndim))
        env[target.name] = np.where(mask, new, old)

    def _assign_arrayref(self, target: ast.ArrayRef, value, env: dict) -> None:
        array = env.get(target.name)
        if not isinstance(array, FArray):
            raise InterpreterError(f"'{target.name}' is not an array", target.loc)
        subs = [self._eval_subscript(s, env) for s in target.subs]
        if any(isinstance(s, np.ndarray) and s.ndim >= 1 for s in subs):
            self._scatter(array, subs, value, target)
            return
        # Issued with no active lane: the store writes nothing, so the
        # (possibly garbage) address must not trap — clamp, don't check.
        index = array.np_index(subs, clamp=not self.lanes_active.any())
        region = array.data[index]
        layers = self._layers_of(region)
        self.counters.record(
            "store", width=self.nproc, layers=layers, mask=self.lanes_active
        )
        if not (isinstance(region, np.ndarray) and region.ndim >= 1):
            # All lanes address the same element.  A per-lane value is
            # legal lockstep only when the active lanes agree (they all
            # write the same thing); otherwise the store is a race.
            varr = np.asarray(value)
            if varr.ndim >= 1:
                if varr.ndim != 1 or varr.shape[0] != self.nproc:
                    raise InterpreterError(
                        f"cannot store an array value into element of "
                        f"'{target.name}'",
                        target.loc,
                    )
                lanes = _lane_mask(self._mask, self.nproc)
                active = varr[lanes] if lanes.any() else varr
                if not np.all(active == active.flat[0]):
                    # The static R001 lint rule catches this at compile
                    # time; classify as a divergence fault either way.
                    raise DivergenceFault(
                        f"divergent lanes race on scalar element store to "
                        f"'{target.name}'",
                        target.loc,
                    )
                value = active.flat[0].item()
        if bool(np.all(self._mask)):
            array.data[index] = value
            return
        if isinstance(region, np.ndarray) and region.ndim >= 1:
            if region.shape[0] != self.nproc:
                raise InterpreterError(
                    f"masked section assignment to '{target.name}' needs the "
                    f"leading extent to be {self.nproc}",
                    target.loc,
                )
            mask = align_mask(self._mask, region.ndim)
            array.data[index] = np.where(mask, value, region)
            return
        # Scalar element under a partial mask: legal only when uniform.
        if self._uniform_bool(self._mask, "mask for scalar element store"):
            array.data[index] = value

    def _scatter(self, array: FArray, subs: list, value, target: ast.ArrayRef) -> None:
        """Per-PE indirect store ``a(v1, v2, ...) = value`` on active lanes."""
        lanes = _lane_mask(self._mask, self.nproc)
        index = []
        for dim, sub in enumerate(subs):
            if isinstance(sub, slice):
                raise InterpreterError(
                    f"cannot mix sections and vector subscripts on '{array.name}'",
                    target.loc,
                )
            arr = np.asarray(sub)
            if arr.ndim == 0:
                arr = np.full(self.nproc, int(arr))
            if arr.shape[0] != self.nproc:
                raise InterpreterError(
                    f"vector subscript of '{array.name}' has length "
                    f"{arr.shape[0]}, expected {self.nproc}",
                    target.loc,
                )
            active_vals = arr[lanes]
            array.check_subscript(dim, active_vals) if active_vals.size else None
            index.append(arr[lanes] - 1)
        self.counters.record("scatter", width=self.nproc, layers=1, mask=lanes)
        new = np.asarray(coerce(value))
        if new.ndim == 0:
            new = np.full(self.nproc, new.item())
        mask2d = self._mask
        if isinstance(mask2d, np.ndarray) and mask2d.ndim > 1:
            raise InterpreterError(
                "vector-subscripted store under a layered mask is not supported",
                target.loc,
            )
        array.data[tuple(index)] = new[lanes]

    # control flow ----------------------------------------------------------------------

    def _exec_do(self, stmt: ast.Do, env: dict) -> None:
        lo = self._uniform_int(self.eval(stmt.lo, env), "DO lower bound")
        hi = self._uniform_int(self.eval(stmt.hi, env), "DO upper bound")
        stride = (
            self._uniform_int(self.eval(stmt.stride, env), "DO stride")
            if stmt.stride is not None
            else 1
        )
        if stride == 0:
            raise InterpreterError("DO stride is zero", stmt.loc)
        trips = max(0, (hi - lo + stride) // stride)
        env[stmt.var] = lo
        value = lo
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

    def _exec_dowhile(self, stmt: ast.DoWhile, env: dict) -> None:
        self._run_while(stmt.cond, stmt.body, env, "DO WHILE condition")

    def _exec_while(self, stmt: ast.While, env: dict) -> None:
        self._run_while(stmt.cond, stmt.body, env, "WHILE condition")

    def _run_while(self, cond_expr: ast.Expr, body, env: dict, what: str) -> None:
        while True:
            cond = self.eval(cond_expr, env)
            self.counters.record("acu")
            if not self._uniform_bool(cond, what):
                return
            try:
                self.exec_body(body, env)
            except LoopExit:
                return
            except LoopCycle:
                continue

    def _exec_if(self, stmt: ast.If, env: dict) -> None:
        cond = self.eval(stmt.cond, env)
        self.counters.record("acu")
        if self._uniform_bool(cond, "IF condition"):
            self.exec_body(stmt.then_body, env)
        else:
            self.exec_body(stmt.else_body, env)

    def _exec_where(self, stmt: ast.Where, env: dict) -> None:
        cond = self.eval(stmt.mask, env)
        self.counters.record("mask", width=self.nproc, mask=self.lanes_active)
        outer = self._mask
        self._mask = self._combine(outer, cond)
        try:
            self.exec_body(stmt.then_body, env)
        finally:
            self._mask = outer
        if stmt.else_body:
            self.counters.record("mask", width=self.nproc, mask=self.lanes_active)
            self._mask = self._combine(outer, apply_unop(".NOT.", cond))
            try:
                self.exec_body(stmt.else_body, env)
            finally:
                self._mask = outer

    def _exec_forall(self, stmt: ast.Forall, env: dict) -> None:
        lo = self._uniform_int(self.eval(stmt.lo, env), "FORALL lower bound")
        hi = self._uniform_int(self.eval(stmt.hi, env), "FORALL upper bound")
        extent = hi - lo + 1
        if extent == self.nproc:
            # Lane-parallel FORALL: the index becomes the PE iota vector.
            saved = env.get(stmt.var)
            env[stmt.var] = np.arange(lo, hi + 1, dtype=np.int64)
            outer = self._mask
            if stmt.mask is not None:
                cond = self.eval(stmt.mask, env)
                self.counters.record("mask", width=self.nproc, mask=self.lanes_active)
                self._mask = self._combine(outer, cond)
            try:
                self.exec_body(stmt.body, env)
            finally:
                self._mask = outer
                if saved is not None:
                    env[stmt.var] = saved
            return
        for value in range(lo, hi + 1):
            env[stmt.var] = value
            self.counters.record("acu")
            if stmt.mask is not None and not self._uniform_bool(
                self.eval(stmt.mask, env), "FORALL mask"
            ):
                continue
            self.exec_body(stmt.body, env)

    def _exec_goto(self, stmt: ast.Goto, env: dict) -> None:
        if not bool(np.all(self._mask)):
            raise InterpreterError(
                "GOTO under a partial mask would diverge the single SIMD "
                "program counter",
                stmt.loc,
            )
        self.counters.record("acu")
        raise GotoSignal(stmt.target)

    def _exec_continue(self, stmt, env) -> None:
        pass

    def _exec_exitstmt(self, stmt, env) -> None:
        if not bool(np.all(self._mask)):
            raise InterpreterError("EXIT under a partial mask", stmt.loc)
        raise LoopExit()

    def _exec_cyclestmt(self, stmt, env) -> None:
        if not bool(np.all(self._mask)):
            raise InterpreterError("CYCLE under a partial mask", stmt.loc)
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
            layers = max((self._layers_of(a) for a in args), default=1)
            self.counters.record_call(stmt.name, layers=layers, mask=self.lanes_active)
            external(self, stmt.args, args, env, self._mask)
            return
        routine = self._routines.get(stmt.name)
        if routine is None:
            raise InterpreterError(f"CALL to unknown subroutine '{stmt.name}'", stmt.loc)
        if len(routine.params) != len(stmt.args):
            raise InterpreterError(f"CALL {stmt.name}: arity mismatch", stmt.loc)
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
        try:
            self.exec_body(routine.body, callee_env)
        except ReturnSignal:
            pass
        for param, arg in writeback:
            self.assign_to(arg, callee_env[param], env)

    # expressions --------------------------------------------------------------------------

    def eval(self, expr: ast.Expr, env: dict):
        """Evaluate an expression; results are valid on active lanes."""
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.RealLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.Var):
            if expr.name not in env:
                raise InterpreterError(
                    f"'{expr.name}' used before assignment", expr.loc
                )
            return env[expr.name]
        if isinstance(expr, ast.ArrayRef):
            return self._eval_arrayref(expr, env)
        if isinstance(expr, ast.Call):
            args = [self.eval(arg, env) for arg in expr.args]
            if is_reduction_call(expr.name, len(args)):
                self.counters.record("reduce", width=self.nproc, mask=self.lanes_active)
                return call_intrinsic(expr.name, args, mask=self.lanes_active)
            layers = max((self._layers_of(a) for a in args), default=1)
            self.counters.record(
                "real_op", width=self.nproc, layers=layers, mask=self.lanes_active
            )
            return call_intrinsic(expr.name, args)
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            result = apply_binop(expr.op, left, right)
            self.counters.record(
                op_event_kind(expr.op, result),
                width=self.nproc,
                layers=self._layers_of(result),
                mask=self.lanes_active,
            )
            return result
        if isinstance(expr, ast.UnOp):
            operand = self.eval(expr.operand, env)
            result = apply_unop(expr.op, operand)
            self.counters.record(
                op_event_kind(expr.op, result),
                width=self.nproc,
                layers=self._layers_of(result),
                mask=self.lanes_active,
            )
            return result
        if isinstance(expr, ast.VectorLit):
            items = [self.eval(item, env) for item in expr.items]
            vec = np.array([coerce(i) for i in items])
            if vec.shape[0] != self.nproc:
                raise InterpreterError(
                    f"vector literal has {vec.shape[0]} elements, "
                    f"machine has {self.nproc} PEs",
                    expr.loc,
                )
            return vec
        if isinstance(expr, ast.RangeVec):
            lo = self._uniform_int(self.eval(expr.lo, env), "range lower bound")
            hi = self._uniform_int(self.eval(expr.hi, env), "range upper bound")
            vec = np.arange(lo, hi + 1, dtype=np.int64)
            if vec.shape[0] != self.nproc:
                raise InterpreterError(
                    f"range vector [{lo} : {hi}] has {vec.shape[0]} elements, "
                    f"machine has {self.nproc} PEs",
                    expr.loc,
                )
            return vec
        raise InterpreterError(f"cannot evaluate {type(expr).__name__} here", expr.loc)

    def _eval_subscript(self, sub: ast.Expr, env: dict):
        if isinstance(sub, ast.Slice):
            lo = (
                self._uniform_int(self.eval(sub.lo, env), "section lower bound")
                if sub.lo is not None
                else 1
            )
            hi = (
                self._uniform_int(self.eval(sub.hi, env), "section upper bound")
                if sub.hi is not None
                else None
            )
            return slice(lo - 1, hi)
        value = self.eval(sub, env)
        value = coerce(value)
        if isinstance(value, np.ndarray) and value.ndim >= 1:
            return value
        return self._uniform_int(value, "subscript")

    def _eval_arrayref(self, expr: ast.ArrayRef, env: dict):
        array = env.get(expr.name)
        subs = [self._eval_subscript(s, env) for s in expr.subs]
        if isinstance(array, FArray):
            if any(isinstance(s, np.ndarray) and s.ndim >= 1 for s in subs):
                return self._gather(array, subs, expr)
            # No active lane consumes this load; clamp instead of trap.
            index = array.np_index(subs, clamp=not self.lanes_active.any())
            result = array.data[index]
            if isinstance(result, np.ndarray):
                return result.copy()
            return result
        if isinstance(array, np.ndarray):
            # Subscripting a replicated per-PE value: a(i) with vector i
            # means lane p reads element i_p of its own copy — but a
            # replicated scalar has no extent; treat 1-D values as a
            # distributed vector of length P.
            if array.ndim == 1 and len(subs) == 1:
                sub = subs[0]
                if isinstance(sub, slice):
                    return array[sub].copy()
                return self._gather_plain(array, sub, expr)
            raise InterpreterError(
                f"'{expr.name}' is replicated, not an array", expr.loc
            )
        raise InterpreterError(f"'{expr.name}' is not an array", expr.loc)

    def _gather(self, array: FArray, subs: list, expr: ast.ArrayRef):
        """Per-PE indirect load; inactive lanes produce clamped garbage."""
        lanes = _lane_mask(self._mask, self.nproc)
        index = []
        for dim, sub in enumerate(subs):
            if isinstance(sub, slice):
                raise InterpreterError(
                    f"cannot mix sections and vector subscripts on '{array.name}'",
                    expr.loc,
                )
            arr = np.asarray(sub)
            if arr.ndim == 0:
                arr = np.full(self.nproc, int(arr))
            if arr.shape[0] != self.nproc:
                raise InterpreterError(
                    f"vector subscript of '{array.name}' has length "
                    f"{arr.shape[0]}, expected {self.nproc}",
                    expr.loc,
                )
            if lanes.any():
                array.check_subscript(dim, arr[lanes])
            clamped = np.clip(arr, 1, max(1, array.shape[dim]))
            index.append(clamped - 1)
        self.counters.record("gather", width=self.nproc, layers=1, mask=lanes)
        return array.data[tuple(index)]

    def _gather_plain(self, array: np.ndarray, sub, expr: ast.ArrayRef):
        lanes = _lane_mask(self._mask, self.nproc)
        arr = np.asarray(sub)
        if arr.ndim == 0:
            self.counters.record("gather", width=self.nproc, layers=1, mask=lanes)
            idx = int(arr)
            if not 1 <= idx <= array.shape[0]:
                if lanes.any():
                    raise OutOfBoundsFault(
                        f"subscript {idx} out of bounds for '{expr.name}'", expr.loc
                    )
                idx = min(max(idx, 1), array.shape[0])
            return array[idx - 1]
        if lanes.any():
            active = arr[lanes]
            if np.any((active < 1) | (active > array.shape[0])):
                raise OutOfBoundsFault(
                    f"subscript out of bounds for '{expr.name}'", expr.loc
                )
        clamped = np.clip(arr, 1, array.shape[0])
        self.counters.record("gather", width=self.nproc, layers=1, mask=lanes)
        return array[clamped - 1]

    def _layers_of(self, value) -> int:
        value = coerce(value)
        if isinstance(value, np.ndarray) and value.ndim >= 2:
            return int(np.prod(value.shape[1:]))
        if isinstance(value, FArray):
            return max(1, value.size // max(1, self.nproc))
        return 1


def run_twin(source, nproc: int, bindings=None, externals=None, budget=None):
    """Run the main program of ``source`` (text or a parsed tree) on
    the twin; ``(env, counters)`` like :func:`repro.vm.run_bytecode`."""
    if isinstance(source, str):
        source = parse_source(source)
    twin = SIMDInterpreter(source, nproc, externals=externals, budget=budget)
    return twin.run(bindings=bindings), twin.counters
