"""Abstract interpretation of MiniF routines.

The lint engine (:mod:`repro.diag`) needs two facts about every value a
program manipulates, *before* the program runs:

* a range — an **integer interval** with ±∞ bounds, so subscripts can
  be checked against declared extents and loop trip counts can be
  bounded for the paper's Eq.1/Eq.2 divergence gap;
* a **lane-uniformity** — whether the value is provably identical on
  every processing element (``UNIFORM``) or may differ per lane
  (``VARYING``), which is what decides whether a WHERE mask diverges
  and whether a scalar-element store races.

Both live in a product lattice (:class:`AbstractValue`), propagated to
a fixpoint over the statement-level CFG from :mod:`repro.analysis.cfg`
with interval widening at loop heads.  The analysis is a sound
over-approximation: rules that claim something *provably* holds
(out-of-bounds, dead mask) only fire when the abstract value leaves no
alternative, so widening can cost precision but never soundness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from ..lang import ast
from ..lang.symbols import SymbolTable, build_symbol_table
from .cfg import ControlFlowGraph, build_cfg

__all__ = [
    "Interval",
    "Uniformity",
    "AbstractValue",
    "AbstractInterpreter",
    "analyze_routine",
    "TOP",
    "BOTTOM",
]

_INF = math.inf


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A numeric interval ``[lo, hi]`` with ±∞ bounds.

    ``lo > hi`` encodes ⊥ (no value).  Arithmetic over-approximates:
    division and exponentiation fall back to ⊤ rather than model
    Fortran truncation precisely.
    """

    lo: float = -_INF
    hi: float = _INF

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_constant(self) -> bool:
        """A single known value (degenerate interval)."""
        return self.lo == self.hi and not math.isinf(self.lo)

    @property
    def width(self) -> float:
        """hi − lo; 0 for constants, ∞ when unbounded, −∞ for ⊥."""
        if self.is_bottom:
            return -_INF
        return self.hi - self.lo

    def __str__(self) -> str:
        if self.is_bottom:
            return "⊥"

        def b(v: float) -> str:
            if math.isinf(v):
                return "-inf" if v < 0 else "+inf"
            return str(int(v)) if float(v).is_integer() else str(v)

        return f"[{b(self.lo)}, {b(self.hi)}]"

    # -- lattice ---------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Standard interval widening: unstable bounds jump to ±∞."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        lo = self.lo if other.lo >= self.lo else -_INF
        hi = self.hi if other.hi <= self.hi else _INF
        return Interval(lo, hi)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def disjoint(self, other: "Interval") -> bool:
        """True when the two intervals provably share no value."""
        if self.is_bottom or other.is_bottom:
            return True
        return self.hi < other.lo or other.hi < self.lo

    # -- arithmetic ------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return BOTTOM_INTERVAL
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return BOTTOM_INTERVAL
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "Interval":
        if self.is_bottom:
            return self
        return Interval(-self.hi, -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return BOTTOM_INTERVAL
        products = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                if (math.isinf(a) and b == 0) or (math.isinf(b) and a == 0):
                    products.append(0.0)
                else:
                    products.append(a * b)
        return Interval(min(products), max(products))


TOP_INTERVAL = Interval()
BOTTOM_INTERVAL = Interval(1.0, 0.0)
BOOL_INTERVAL = Interval(0.0, 1.0)


def const_interval(value: float) -> Interval:
    return Interval(float(value), float(value))


# ---------------------------------------------------------------------------
# Uniformity domain
# ---------------------------------------------------------------------------


class Uniformity(IntEnum):
    """Lane-uniformity lattice: ``BOTTOM < UNIFORM < VARYING``.

    ``UNIFORM`` — every active PE provably holds the same value.
    ``VARYING`` — lanes may disagree (vector literals, iota ranges,
    whole-array reads, gathers with varying subscripts, or any scalar
    assigned under a divergent WHERE mask).
    """

    BOTTOM = 0
    UNIFORM = 1
    VARYING = 2

    def join(self, other: "Uniformity") -> "Uniformity":
        return Uniformity(max(self, other))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.name.lower()


# ---------------------------------------------------------------------------
# Product lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractValue:
    """One point of the product lattice: interval × uniformity."""

    interval: Interval = TOP_INTERVAL
    uniformity: Uniformity = Uniformity.VARYING

    @property
    def is_uniform(self) -> bool:
        return self.uniformity is Uniformity.UNIFORM

    @property
    def lanes_provably_agree(self) -> bool:
        """Uniform, or varying-but-constant (all lanes hold one value)."""
        return self.is_uniform or self.interval.is_constant

    def __str__(self) -> str:
        return f"{self.interval}·{self.uniformity.name.lower()}"

    def join(self, other: "AbstractValue") -> "AbstractValue":
        return AbstractValue(
            self.interval.join(other.interval),
            self.uniformity.join(other.uniformity),
        )

    def widen(self, other: "AbstractValue") -> "AbstractValue":
        return AbstractValue(
            self.interval.widen(other.interval),
            self.uniformity.join(other.uniformity),
        )


TOP = AbstractValue(TOP_INTERVAL, Uniformity.VARYING)
BOTTOM = AbstractValue(BOTTOM_INTERVAL, Uniformity.BOTTOM)


def uniform(interval: Interval = TOP_INTERVAL) -> AbstractValue:
    return AbstractValue(interval, Uniformity.UNIFORM)


def varying(interval: Interval = TOP_INTERVAL) -> AbstractValue:
    return AbstractValue(interval, Uniformity.VARYING)


# ---------------------------------------------------------------------------
# Abstract states
# ---------------------------------------------------------------------------

#: A state maps variable names to abstract values.  Array names map to
#: a *content summary*: the join of everything ever stored into any
#: element.  A missing name means ⊤ (unknown — Fortran variables need
#: no initialization and bindings arrive at run time), so the map only
#: ever adds precision.
State = dict


def _join_states(a: State, b: State) -> State:
    out: State = {}
    for name in a.keys() & b.keys():
        out[name] = a[name].join(b[name])
    return out


def _widen_states(old: State, new: State) -> State:
    out: State = {}
    for name in old.keys() & new.keys():
        out[name] = old[name].widen(new[name])
    return out


def _states_equal(a: State, b: State) -> bool:
    return a == b


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

#: Intrinsics whose result is a cross-PE reduction (hence uniform).
_REDUCTIONS = frozenset({"any", "all", "count", "sum", "maxval", "minval"})

#: Iteration backstop: widening guarantees termination, this guards
#: against a bug in the transfer functions ever looping the worklist.
_MAX_VISITS_PER_NODE = 64


class AbstractInterpreter:
    """Fixpoint abstract interpretation of one routine.

    Usage::

        analysis = analyze_routine(routine)
        value = analysis.eval(expr, analysis.state_before(stmt))

    Attributes:
        routine: The analyzed routine.
        symbols: Its symbol table (implicit typing allowed).
        cfg: The statement-level CFG the fixpoint ran over.
    """

    def __init__(self, routine: ast.Routine):
        self.routine = routine
        self.symbols: SymbolTable = build_symbol_table(routine)
        self.cfg: ControlFlowGraph = build_cfg(routine.body)
        self._node_of: dict[int, int] = {}
        for node in self.cfg.statements():
            if node.stmt is not None:
                self._node_of[id(node.stmt)] = node.index
        self._in: dict[int, State] = {}
        self._out: dict[int, State] = {}
        self._enclosing_wheres: dict[int, tuple[ast.Where, ...]] = {}
        self._collect_where_context(routine.body, ())
        self._analyzed = False

    # -- public API ------------------------------------------------------

    def analyze(self) -> "AbstractInterpreter":
        """Run the worklist to fixpoint (idempotent)."""
        if not self._analyzed:
            self._fixpoint()
            self._analyzed = True
        return self

    def state_before(self, stmt: ast.Stmt) -> State:
        """The abstract state on entry to ``stmt`` (⊤-everything if unreached)."""
        self.analyze()
        index = self._node_of.get(id(stmt))
        if index is None:
            return {}
        return self._in.get(index, {})

    def is_reachable(self, stmt: ast.Stmt) -> bool:
        """Whether the fixpoint ever propagated a state into ``stmt``."""
        self.analyze()
        index = self._node_of.get(id(stmt))
        return index is not None and index in self._in

    def enclosing_wheres(self, stmt: ast.Stmt) -> tuple[ast.Where, ...]:
        """The WHERE constructs lexically enclosing ``stmt``, outermost first."""
        return self._enclosing_wheres.get(id(stmt), ())

    def divergent_context(self, stmt: ast.Stmt) -> bool:
        """True when ``stmt`` executes under a possibly lane-varying mask."""
        for where in self.enclosing_wheres(stmt):
            mask = self.eval(where.mask, self.state_before(where))
            if not mask.lanes_provably_agree:
                return True
        return False

    def do_trip_interval(self, stmt: ast.Stmt, state: State | None = None) -> Interval:
        """Trip-count interval of a loop statement.

        DO loops get ``(hi − lo + stride) / stride`` clamped at zero
        (evaluated with interval arithmetic, unit stride assumed when
        the stride interval is not a positive constant); condition
        loops (``DO WHILE`` / ``WHILE``) are unbounded: ``[0, +∞]``.
        """
        if state is None:
            state = self.state_before(stmt)
        if isinstance(stmt, (ast.Do, ast.Forall)):
            lo = self.eval(stmt.lo, state).interval
            hi = self.eval(stmt.hi, state).interval
            stride = const_interval(1)
            if isinstance(stmt, ast.Do) and stmt.stride is not None:
                stride = self.eval(stmt.stride, state).interval
            if lo.is_bottom or hi.is_bottom:
                return BOTTOM_INTERVAL
            span = hi.sub(lo).add(stride)
            if stride.is_constant and stride.lo > 0:
                trips = Interval(span.lo / stride.lo, span.hi / stride.lo)
            elif stride.lo >= 1:
                trips = Interval(
                    span.lo / stride.hi if stride.hi and not math.isinf(stride.hi) else 0.0,
                    span.hi / stride.lo,
                )
            else:
                trips = TOP_INTERVAL
            lo = trips.lo if math.isinf(trips.lo) else math.floor(trips.lo)
            return Interval(max(0.0, lo), max(0.0, trips.hi))
        if isinstance(stmt, (ast.DoWhile, ast.While)):
            return Interval(0.0, _INF)
        return BOTTOM_INTERVAL

    def declared_extent(self, name: str, dim: int) -> Interval:
        """Interval of an array's declared extent in dimension ``dim`` (0-based)."""
        symbol = self.symbols.get(name)
        if symbol is None or dim >= len(symbol.dims):
            return TOP_INTERVAL
        return self.eval(symbol.dims[dim], self._entry_state()).interval

    # -- expression evaluation -------------------------------------------

    def eval(self, expr: ast.Expr, state: State) -> AbstractValue:
        """Evaluate an expression in an abstract state."""
        if isinstance(expr, ast.IntLit):
            return uniform(const_interval(expr.value))
        if isinstance(expr, ast.RealLit):
            return uniform(const_interval(expr.value))
        if isinstance(expr, ast.BoolLit):
            return uniform(const_interval(1 if expr.value else 0))
        if isinstance(expr, ast.StringLit):
            return uniform(TOP_INTERVAL)
        if isinstance(expr, ast.Var):
            return self._eval_var(expr.name, state)
        if isinstance(expr, ast.ArrayRef):
            return self._eval_arrayref(expr, state)
        if isinstance(expr, ast.VectorLit):
            value = BOTTOM
            for item in expr.items:
                value = value.join(self.eval(item, state))
            return varying(value.interval)
        if isinstance(expr, ast.RangeVec):
            lo = self.eval(expr.lo, state).interval
            hi = self.eval(expr.hi, state).interval
            return varying(lo.join(hi))
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, state)
        if isinstance(expr, ast.UnOp):
            operand = self.eval(expr.operand, state)
            if expr.op == "-":
                return AbstractValue(operand.interval.neg(), operand.uniformity)
            if expr.op == ".NOT.":
                return AbstractValue(BOOL_INTERVAL, operand.uniformity)
            return AbstractValue(TOP_INTERVAL, operand.uniformity)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.Slice):
            return TOP
        return TOP

    # -- internals -------------------------------------------------------

    def _entry_state(self) -> State:
        """Initial state: PARAMETER constants, everything else ⊤."""
        state: State = {}
        for symbol in self.symbols:
            if symbol.is_parameter and symbol.value is not None:
                state[symbol.name] = self.eval(symbol.value, {})
        return state

    def _eval_var(self, name: str, state: State) -> AbstractValue:
        symbol = self.symbols.get(name)
        if symbol is not None and symbol.is_array:
            # Whole-array read (F90 style): per-element values, hence
            # lane-varying; the interval is the content summary.
            content = state.get(name, TOP)
            return varying(content.interval)
        # An unknown scalar is range-⊤ but *uniform*: SIMD scalars are
        # replicated and bindings broadcast one value to every PE.
        # Lane-variance only enters through vector literals, iota
        # ranges, gathers and divergent-masked stores — all of which
        # the transfer functions track explicitly.
        return state.get(name, uniform(TOP_INTERVAL))

    def _eval_arrayref(self, expr: ast.ArrayRef, state: State) -> AbstractValue:
        content = state.get(expr.name, TOP)
        sub_uniformity = Uniformity.UNIFORM
        sectioned = False
        for sub in expr.subs:
            if isinstance(sub, ast.Slice):
                sectioned = True
                continue
            sub_uniformity = sub_uniformity.join(self.eval(sub, state).uniformity)
        if sectioned or sub_uniformity is Uniformity.VARYING:
            # A section reads many elements; a gather with varying
            # subscripts reads a different element per lane.
            return varying(content.interval)
        # All-uniform scalar subscripts: one shared memory cell, so
        # every lane observes the same element value.
        return uniform(content.interval)

    def _eval_binop(self, expr: ast.BinOp, state: State) -> AbstractValue:
        left = self.eval(expr.left, state)
        right = self.eval(expr.right, state)
        u = left.uniformity.join(right.uniformity)
        op = expr.op
        if op == "+":
            return AbstractValue(left.interval.add(right.interval), u)
        if op == "-":
            return AbstractValue(left.interval.sub(right.interval), u)
        if op == "*":
            return AbstractValue(left.interval.mul(right.interval), u)
        if op in (".AND.", ".OR.") or op in ("==", "/=", "<", "<=", ">", ">="):
            return AbstractValue(BOOL_INTERVAL, u)
        # '/' and '**': over-approximate rather than model truncation.
        return AbstractValue(TOP_INTERVAL, u)

    def _eval_call(self, expr: ast.Call, state: State) -> AbstractValue:
        name = expr.name
        args = [self.eval(arg, state) for arg in expr.args]
        arg_interval = BOTTOM_INTERVAL
        arg_uniformity = Uniformity.BOTTOM
        for value in args:
            arg_interval = arg_interval.join(value.interval)
            arg_uniformity = arg_uniformity.join(value.uniformity)
        if name in _REDUCTIONS or (name in ("max", "min") and len(args) == 1):
            # Cross-PE reductions broadcast one result to every lane.
            if name in ("any", "all"):
                return uniform(BOOL_INTERVAL)
            if name == "count":
                return uniform(Interval(0.0, _INF))
            if name in ("maxval", "minval", "max", "min"):
                return uniform(arg_interval)
            return uniform(TOP_INTERVAL)
        if name in ("max", "min"):
            return AbstractValue(arg_interval, arg_uniformity)
        if name == "abs" and len(args) == 1:
            iv = args[0].interval
            if not iv.is_bottom:
                lo = 0.0 if iv.contains(0.0) else min(abs(iv.lo), abs(iv.hi))
                return AbstractValue(Interval(lo, max(abs(iv.lo), abs(iv.hi))), args[0].uniformity)
        if name == "mod" and len(args) == 2:
            divisor = args[1].interval
            if not divisor.is_bottom and not math.isinf(divisor.hi):
                bound = max(abs(divisor.lo), abs(divisor.hi))
                return AbstractValue(Interval(-bound, bound), arg_uniformity)
        # Unknown function: result range unknown, uniformity follows
        # the arguments (elemental intrinsics are lane-wise).
        if arg_uniformity is Uniformity.BOTTOM:
            arg_uniformity = Uniformity.UNIFORM
        return AbstractValue(TOP_INTERVAL, arg_uniformity)

    # -- transfer functions ----------------------------------------------

    def _transfer(self, node_index: int, state: State) -> State:
        stmt = self.cfg.nodes[node_index].stmt
        if stmt is None:
            return state
        if isinstance(stmt, ast.Assign):
            return self._transfer_assign(stmt, state)
        if isinstance(stmt, (ast.Do, ast.Forall)):
            state = dict(state)
            lo = self.eval(stmt.lo, state)
            hi = self.eval(stmt.hi, state)
            stride = const_interval(1)
            if isinstance(stmt, ast.Do) and stmt.stride is not None:
                stride = self.eval(stmt.stride, state).interval
            # Over-approximate the loop variable over every value it
            # takes, including the final overshooting increment.
            span = lo.interval.join(hi.interval).join(
                hi.interval.add(stride)
            ).join(lo.interval.add(stride))
            state[stmt.var] = AbstractValue(span, lo.uniformity.join(hi.uniformity))
            return state
        if isinstance(stmt, ast.CallStmt):
            # A subroutine may mutate any variable it can reach.
            state = dict(state)
            for arg in stmt.args:
                if isinstance(arg, (ast.Var, ast.ArrayRef)):
                    state.pop(arg.name, None)
            return state
        return state

    def _transfer_assign(self, stmt: ast.Assign, state: State) -> State:
        state = dict(state)
        value = self.eval(stmt.value, state)
        divergent = self.divergent_context(stmt) if self._analyzed else (
            self._divergent_context_prefix(stmt, state)
        )
        target = stmt.target
        if isinstance(target, ast.Var):
            symbol = self.symbols.get(target.name)
            if symbol is not None and symbol.is_array:
                # Whole-array assignment: weak update of the summary.
                old = state.get(target.name, BOTTOM)
                state[target.name] = old.join(AbstractValue(value.interval, Uniformity.VARYING))
                return state
            if divergent:
                # Replicated scalar assigned under a divergent mask:
                # masked-off lanes keep the old value, so lanes split.
                old = state.get(target.name, TOP)
                state[target.name] = AbstractValue(
                    old.interval.join(value.interval), Uniformity.VARYING
                )
            else:
                state[target.name] = value
            return state
        if isinstance(target, ast.ArrayRef):
            old = state.get(target.name, BOTTOM)
            state[target.name] = old.join(value)
            return state
        return state

    def _divergent_context_prefix(self, stmt: ast.Stmt, state: State) -> bool:
        """Divergence check usable mid-fixpoint (uses the current state)."""
        for where in self.enclosing_wheres(stmt):
            if not self.eval(where.mask, state).lanes_provably_agree:
                return True
        return False

    def _collect_where_context(
        self, body: list, enclosing: tuple[ast.Where, ...]
    ) -> None:
        for stmt in body:
            self._enclosing_wheres[id(stmt)] = enclosing
            if isinstance(stmt, ast.Where):
                inner = enclosing + (stmt,)
                self._collect_where_context(stmt.then_body, inner)
                self._collect_where_context(stmt.else_body, inner)
            else:
                for sub in ast.sub_bodies(stmt):
                    self._collect_where_context(sub, enclosing)

    # -- fixpoint --------------------------------------------------------

    def _widening_points(self) -> set[int]:
        """Nodes with a back edge: loop headers and GOTO targets."""
        points: set[int] = set()
        for node in self.cfg.nodes:
            if any(pred >= node.index for pred in node.preds):
                points.add(node.index)
        return points

    def _fixpoint(self) -> None:
        cfg = self.cfg
        widen_at = self._widening_points()
        self._out[cfg.ENTRY] = self._entry_state()
        worklist = list(cfg.nodes[cfg.ENTRY].succs)
        visits: dict[int, int] = {}
        while worklist:
            index = worklist.pop(0)
            if index == cfg.EXIT:
                continue
            node = cfg.nodes[index]
            incoming = [
                self._out[pred] for pred in node.preds if pred in self._out
            ]
            if not incoming:
                continue
            joined = incoming[0]
            for state in incoming[1:]:
                joined = _join_states(joined, state)
            old_in = self._in.get(index)
            if old_in is not None:
                if index in widen_at or visits.get(index, 0) >= _MAX_VISITS_PER_NODE:
                    joined = _widen_states(old_in, joined)
                else:
                    joined = _join_states(old_in, joined)
                if _states_equal(joined, old_in) and index in self._out:
                    continue
            visits[index] = visits.get(index, 0) + 1
            self._in[index] = joined
            out = self._transfer(index, joined)
            if index in self._out and _states_equal(out, self._out[index]):
                continue
            self._out[index] = out
            for succ in node.succs:
                if succ not in worklist:
                    worklist.append(succ)


def analyze_routine(routine: ast.Routine) -> AbstractInterpreter:
    """Build and run an :class:`AbstractInterpreter` for ``routine``."""
    return AbstractInterpreter(routine).analyze()
