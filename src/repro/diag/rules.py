"""The lint rule registry.

Each rule is a generator over one routine, driven by the abstract
interpretation in :mod:`repro.analysis.abstract`; it yields
:class:`~repro.diag.diagnostics.Diagnostic` findings.  Codes are
stable; severities are fixed per rule:

======  ========  ====================================================
R001    error     lane-varying value stored to a scalar array element
                  (the runtime ``DivergenceFault`` race, caught early)
R002    error     subscript provably outside the declared extent
R003    error     transform applied despite carried dependence — a
                  FORALL asserts parallel iterations but the dependence
                  graph proves a loop-carried flow/anti/output edge
W101    warning   SIMD divergence blowup — the Eq.2−Eq.1 gap of an
                  unflattened nest, bounded from the inner trip-count
                  interval
W102    warning   WHERE mask provably uniform (the construct never
                  diverges — an IF would do)
W103    warning   optimized-flattening preconditions not established
                  (side effects / inner trip count may be 0): only the
                  Fig. 10 general form applies
W104    warning   loop serial only due to unknown indirect subscripts —
                  every blocking dependence edge is an unanalyzable
                  ``a(b(i))`` pattern: an ``assume_parallel`` candidate
======  ========  ====================================================

Frontend failures surface as ``P001`` (parse) / ``P002`` (semantic)
error diagnostics rather than exceptions, so ``lint_source`` always
returns a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..analysis.abstract import AbstractInterpreter, Uniformity, analyze_routine
from ..analysis.applicability import FlatteningReport, evaluate_flattening
from ..analysis.dep import DependenceGraph, build_dependence_graph
from ..analysis.dep.explain import outer_loops
from ..analysis.sideeffects import stmts_have_side_effects
from ..lang import ast, parse_source
from ..lang.errors import LexError, ParseError, SemanticError, UNKNOWN_LOCATION
from ..lang.semantic import check_source
from .diagnostics import Diagnostic, DiagnosticReport, Severity

__all__ = [
    "LintContext",
    "RULES",
    "rule",
    "lint_routine",
    "lint_file",
    "lint_source",
]


_LOOPS = (ast.Do, ast.DoWhile, ast.While, ast.Forall)


@dataclass
class LintContext:
    """What a rule sees: one routine plus its abstract interpretation.

    The context also holds what several rules ask of the same routine,
    each computed once on first use: the statement list, and per loop
    one dependence graph and one flattening report.  Rules must not
    mutate what it hands out.
    """

    routine: ast.Routine
    analysis: AbstractInterpreter
    _statements: list[ast.Stmt] | None = field(default=None, init=False, repr=False)
    _graphs: dict = field(default_factory=dict, init=False, repr=False)
    _flattening: dict = field(default_factory=dict, init=False, repr=False)

    def statements(self) -> list[ast.Stmt]:
        """Every statement of the routine, preorder."""
        if self._statements is None:
            # Statements nest only in statement bodies, so the walk
            # skips expressions.
            found = []
            stack = self.routine.body[::-1]
            while stack:
                stmt = stack.pop()
                found.append(stmt)
                for body in reversed(ast.sub_bodies(stmt)):
                    stack.extend(reversed(body))
            self._statements = found
        return self._statements

    def dependence_graph(self, loop: ast.Do | ast.Forall) -> DependenceGraph | None:
        """The loop's dependence graph, or None when building it failed."""
        key = id(loop)
        if key not in self._graphs:
            try:
                graph = build_dependence_graph(loop)
            except Exception:  # the graph must never kill the lint
                graph = None
            self._graphs[key] = graph
        return self._graphs[key]

    def flattening(self, loop: ast.Stmt) -> FlatteningReport | None:
        """:func:`evaluate_flattening` of the loop, or None when it failed.

        A DO loop's parallelism test reads :meth:`dependence_graph`, so
        a DO loop whose graph failed gets no report either.
        """
        key = id(loop)
        if key not in self._flattening:
            is_do = isinstance(loop, ast.Do)
            graph = self.dependence_graph(loop) if is_do else None
            report = None
            if graph is not None or not is_do:
                try:
                    report = evaluate_flattening(loop, graph=graph)
                except Exception:  # applicability must never kill the lint
                    pass
            self._flattening[key] = report
        return self._flattening[key]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    severity: Severity
    title: str
    check: Callable[[LintContext], Iterator[Diagnostic]]


#: Registry of all rules, keyed by code.
RULES: dict[str, Rule] = {}


def rule(code: str, severity: Severity, title: str):
    """Register a rule function under a stable code."""

    def decorate(func: Callable[[LintContext], Iterator[Diagnostic]]):
        RULES[code] = Rule(code, severity, title, func)
        return func

    return decorate


def _diag(
    ctx: LintContext,
    code: str,
    message: str,
    loc,
    notes: tuple[str, ...] = (),
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=RULES[code].severity,
        message=message,
        location=loc if loc is not None else UNKNOWN_LOCATION,
        routine=ctx.routine.name,
        notes=notes,
    )


def _fmt_bound(value: float) -> str:
    if math.isinf(value):
        return "∞" if value > 0 else "-∞"
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


# ---------------------------------------------------------------------------
# R001 — divergent scalar-element store race
# ---------------------------------------------------------------------------


@rule("R001", Severity.ERROR, "lane-varying value stored to scalar element")
def _r001(ctx: LintContext) -> Iterator[Diagnostic]:
    an = ctx.analysis
    for stmt in ctx.statements():
        if not isinstance(stmt, ast.Assign):
            continue
        target = stmt.target
        if not isinstance(target, ast.ArrayRef):
            continue
        if not an.is_reachable(stmt):
            continue
        state = an.state_before(stmt)
        # A store addresses *one* memory cell exactly when every
        # subscript is a lane-uniform scalar expression.
        subs_scalar = True
        for sub in target.subs:
            if isinstance(sub, ast.Slice):
                subs_scalar = False
                break
            if not an.eval(sub, state).lanes_provably_agree:
                subs_scalar = False
                break
        if not subs_scalar:
            continue
        value = an.eval(stmt.value, state)
        if value.uniformity is Uniformity.VARYING and not value.lanes_provably_agree:
            yield _diag(
                ctx,
                "R001",
                f"lane-varying value stored to scalar element of '{target.name}' "
                "— divergent lanes race on one memory cell",
                stmt.loc,
                notes=(
                    f"stored value has abstract range {value.interval}, "
                    "per-PE lanes may disagree",
                    "the SIMD backends raise a DivergenceFault here at run time; "
                    "store per-lane results to a lane-indexed element instead",
                ),
            )


# ---------------------------------------------------------------------------
# R002 — subscript provably out of declared bounds
# ---------------------------------------------------------------------------


@rule("R002", Severity.ERROR, "subscript provably out of declared bounds")
def _r002(ctx: LintContext) -> Iterator[Diagnostic]:
    an = ctx.analysis
    for stmt in ctx.statements():
        if isinstance(stmt, ast.Decl):
            continue
        if not an.is_reachable(stmt):
            continue
        state = an.state_before(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Stmt) and node is not stmt:
                break  # nested statements get their own visit
            if not isinstance(node, ast.ArrayRef):
                continue
            symbol = an.symbols.get(node.name)
            if symbol is None or not symbol.is_array:
                continue
            for dim, sub in enumerate(node.subs):
                if isinstance(sub, ast.Slice):
                    continue
                sub_iv = an.eval(sub, state).interval
                if sub_iv.is_bottom:
                    continue
                extent = an.declared_extent(node.name, dim)
                valid_hi = extent.hi if not extent.is_bottom else math.inf
                if sub_iv.hi < 1 or sub_iv.lo > valid_hi:
                    declared = (
                        _fmt_bound(extent.lo)
                        if extent.is_constant
                        else f"{extent}"
                    )
                    yield _diag(
                        ctx,
                        "R002",
                        f"subscript {dim + 1} of '{node.name}' is provably out "
                        f"of bounds: range {sub_iv} vs declared extent "
                        f"1..{declared}",
                        node.loc if node.loc.line else stmt.loc,
                    )


# ---------------------------------------------------------------------------
# R003 / W104 — dependence-graph rules
# ---------------------------------------------------------------------------


def _at_line(access) -> str:
    loc = access.loc
    line = getattr(loc, "line", 0) if loc is not None else 0
    where = f" at line {line}" if line else ""
    return f"{access.describe()}{where}"


@rule("R003", Severity.ERROR, "transform applied despite carried dependence")
def _r003(ctx: LintContext) -> Iterator[Diagnostic]:
    for stmt in ctx.statements():
        if not isinstance(stmt, ast.Forall):
            continue
        graph = ctx.dependence_graph(stmt)
        if graph is None:
            continue
        for edge in graph.carried_edges(1):
            if edge.scalar or edge.unknown or edge.ignorable:
                continue
            if edge.vector[0] != "<":
                continue  # '*' is a may-dependence, not a proof
            dist = ", ".join(
                "?" if d is None else str(d) for d in edge.distance
            )
            yield _diag(
                ctx,
                "R003",
                f"FORALL asserts parallel iterations of '{stmt.var}' but "
                f"'{edge.src.name}' carries a {edge.kind} dependence with "
                f"distance vector ({dist})",
                stmt.loc,
                notes=(
                    f"source: {_at_line(edge.src)}; "
                    f"sink: {_at_line(edge.dst)}; "
                    f"direction ({', '.join(edge.vector)})",
                    "iterations of the FORALL race on these elements — "
                    "use a DO loop, or restructure so iterations are "
                    "independent",
                ),
            )
            break  # one finding per FORALL is enough


@rule(
    "W104",
    Severity.WARNING,
    "loop serial only due to unknown indirect subscripts",
)
def _w104(ctx: LintContext) -> Iterator[Diagnostic]:
    for stmt in outer_loops(ctx.routine.body):
        if not isinstance(stmt, ast.Do):
            continue
        graph = ctx.dependence_graph(stmt)
        if graph is None:
            continue
        if graph.irregular or graph.call_touched:
            continue
        if graph.is_parallel(1):
            continue
        blocking = [e for e in graph.carried_edges(1) if not e.ignorable]
        if not blocking:
            continue
        if any(e.scalar or not e.unknown for e in blocking):
            continue  # a genuine (or scalar) dependence serializes it
        if not all(e.src.indirect or e.dst.indirect for e in blocking):
            continue  # some other unknown shape, not indirection
        edge = blocking[0]
        arrays = sorted({e.src.name for e in blocking} | {e.dst.name for e in blocking})
        yield _diag(
            ctx,
            "W104",
            f"DO loop over '{stmt.var}' is serial only because subscripts "
            f"of {', '.join(repr(a) for a in arrays)} are indirect — the "
            "dependence tests cannot analyze a(b(i)) patterns",
            stmt.loc,
            notes=(
                f"first blocking edge: {_at_line(edge.src)} -> "
                f"{_at_line(edge.dst)}, direction "
                f"({', '.join(edge.vector)})",
                "if the index map is known to be a permutation, this loop "
                "is an assume_parallel candidate (FORALL, or "
                "spmd_program(..., assume_parallel=True))",
            ),
        )


# ---------------------------------------------------------------------------
# W101 — SIMD divergence blowup (the Eq.2 − Eq.1 gap)
# ---------------------------------------------------------------------------


def _first_inner_loop(body: list) -> ast.Stmt | None:
    for inner in body:
        if isinstance(inner, _LOOPS):
            return inner
    return None


@rule("W101", Severity.WARNING, "SIMD divergence blowup: flattening profitable but not applied")
def _w101(ctx: LintContext) -> Iterator[Diagnostic]:
    an = ctx.analysis
    for stmt in ctx.statements():
        if not isinstance(stmt, _LOOPS):
            continue
        inner = _first_inner_loop(stmt.body)
        if inner is None:
            continue
        report = ctx.flattening(stmt)
        if report is None or not report.recommended:
            continue
        trips = an.do_trip_interval(inner, an.state_before(inner))
        gap = trips.width
        if gap <= 0:
            continue  # rectangular in the abstract: no divergence gap
        outer_trips = an.do_trip_interval(stmt, an.state_before(stmt))
        per_step = (
            f"up to {_fmt_bound(gap)} wasted inner iterations per outer step"
            if not math.isinf(gap)
            else "an unbounded number of wasted inner iterations per outer step"
        )
        total_note = ""
        if not math.isinf(gap) and not math.isinf(outer_trips.hi):
            total_note = (
                f"total SIMD gap ≤ {_fmt_bound(gap * outer_trips.hi)} iterations "
                f"over ≤ {_fmt_bound(outer_trips.hi)} outer steps"
            )
        notes = [
            f"inner trip count spans {trips}: Eq.2 (sum of per-step maxima) "
            f"exceeds Eq.1 (max of per-PE sums) by {per_step}",
        ]
        if total_note:
            notes.append(total_note)
        notes.append(
            f"loop flattening is applicable and profitable here "
            f"(strongest variant: {report.variant}); apply "
            "repro.transform.flatten_loop_nest to close the gap"
        )
        yield _diag(
            ctx,
            "W101",
            "divergent inner loop bounds — SIMD executes the maximum trip "
            "count every outer step, but the nest is not flattened",
            stmt.loc,
            notes=tuple(notes),
        )


# ---------------------------------------------------------------------------
# W102 — WHERE mask provably uniform (dead mask)
# ---------------------------------------------------------------------------


@rule("W102", Severity.WARNING, "WHERE mask provably uniform")
def _w102(ctx: LintContext) -> Iterator[Diagnostic]:
    an = ctx.analysis
    for stmt in ctx.statements():
        if not isinstance(stmt, ast.Where):
            continue
        if not an.is_reachable(stmt):
            continue
        mask = an.eval(stmt.mask, an.state_before(stmt))
        if mask.lanes_provably_agree:
            why = (
                "the mask is a cross-PE reduction or scalar expression"
                if mask.is_uniform
                else f"the mask value is the constant {mask.interval}"
            )
            yield _diag(
                ctx,
                "W102",
                "WHERE mask is provably uniform across the processors — "
                "the construct never diverges",
                stmt.loc,
                notes=(
                    why,
                    "an IF statement expresses the same control flow without "
                    "mask-stack overhead",
                ),
            )


# ---------------------------------------------------------------------------
# W103 — optimized-flattening preconditions not established
# ---------------------------------------------------------------------------


@rule("W103", Severity.WARNING, "optimized-flattening preconditions not established")
def _w103(ctx: LintContext) -> Iterator[Diagnostic]:
    an = ctx.analysis
    for stmt in ctx.statements():
        if not isinstance(stmt, _LOOPS):
            continue
        inner = _first_inner_loop(stmt.body)
        if inner is None:
            continue
        report = ctx.flattening(stmt)
        if report is None or not report.recommended or report.variant != "general":
            continue
        trips = an.do_trip_interval(inner, an.state_before(inner))
        side_effects = any(
            stmts_have_side_effects(b) for b in ast.sub_bodies(inner)
        ) or stmts_have_side_effects([inner])
        reasons = []
        if side_effects:
            reasons.append("the inner loop contains CALL/STOP side effects")
        if trips.lo < 1:
            reasons.append(
                f"the inner trip count {trips} may be zero, so the first "
                "inner test cannot be hoisted"
            )
        notes = [
            "; ".join(reasons)
            if reasons
            else "the preconditions of Figs. 11/12 are not syntactically established",
        ]
        if trips.lo >= 1 and not side_effects:
            notes.append(
                f"interval analysis proves the inner trip count ≥ "
                f"{_fmt_bound(trips.lo)}: pass assume_min_trips=True to "
                "flatten_loop_nest to use the optimized variant (Fig. 11)"
            )
        yield _diag(
            ctx,
            "W103",
            "only the general flattening form (Fig. 10) applies to this nest "
            "— the optimized variants' preconditions are not established",
            stmt.loc,
            notes=tuple(notes),
        )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def lint_routine(
    routine: ast.Routine, codes: set[str] | None = None
) -> DiagnosticReport:
    """Run the registered rules over one routine."""
    report = DiagnosticReport()
    ctx = LintContext(routine, analyze_routine(routine))
    for code in sorted(RULES):
        if codes is not None and code not in codes:
            continue
        report.extend(RULES[code].check(ctx))
    return report


def lint_source(
    text: str, filename: str = "<string>", codes: set[str] | None = None
) -> DiagnosticReport:
    """Lint MiniF source text; frontend failures become P-diagnostics."""
    report = DiagnosticReport()
    try:
        source = parse_source(text, filename=filename)
    except (LexError, ParseError) as exc:
        report.add(
            Diagnostic("P001", Severity.ERROR, exc.message, exc.location)
        )
        return report
    try:
        # The linter cannot know the runtime's external-subroutine
        # registry, so every CALLed name is accepted as external.
        called = {
            node.name
            for unit in source.units
            for node in ast.walk_body(unit.body)
            if isinstance(node, ast.CallStmt)
        }
        check_source(source, externals=called)
    except SemanticError as exc:
        report.add(
            Diagnostic("P002", Severity.ERROR, exc.message, exc.location)
        )
        return report
    for routine in source.units:
        report.extend(lint_routine(routine, codes))
    return report.sorted()


def lint_file(path: str, codes: set[str] | None = None) -> DiagnosticReport:
    """Lint a MiniF source file."""
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), filename=path, codes=codes)
