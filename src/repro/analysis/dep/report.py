"""Outer-loop parallelism verdicts on top of the dependence graph.

:func:`analyze_outer_parallelism` keeps the legacy contract of the
old single-variable analyser — the same :class:`ParallelismReport`
shape, the same verdicts on every pattern the old single-variable SIV
test decided, the same scalar privatization / reduction / CALL
classification — but the array side now consults the full
distance/direction-vector framework, so the reasons carry the
offending vectors and patterns the old test could not express (inner
induction variables, symbolic invariants, ``k = k + 1`` scalars) are
decided instead of pessimized.

The refinement-only guarantee: a loop the old test called parallel is
still called parallel (an owner-computes dimension refutes every
``'<'`` vector at level 1 under Banerjee), and a loop the framework
newly proves independent must pass a *stronger* test (GCD/Banerjee
refutation of every candidate vector), never a weaker one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...lang import ast
from ..cfg import build_cfg
from ..dataflow import live_variables, stmt_defs
from .graph import Access, DependenceEdge, DependenceGraph, build_dependence_graph


@dataclass
class ParallelismReport:
    """Outcome of the outer-loop dependence test.

    Attributes:
        parallel: True when no dependence blocks parallel execution.
        unknown: True when indirect addressing defeated the analysis
            (the paper's "heroic dependence analysis" case) — the loop
            may still be parallel if the user asserts it.
        reductions: Scalars recognized as reduction accumulators.
        reasons: Human-readable findings.
    """

    parallel: bool
    unknown: bool = False
    reductions: set[str] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)


def _is_reduction(stmt: ast.Assign, name: str) -> bool:
    value = stmt.value
    if isinstance(value, ast.BinOp) and value.op in ("+", "*"):
        for side in (value.left, value.right):
            if isinstance(side, ast.Var) and side.name == name:
                return True
    return False


def _fmt_vector(vector: tuple[str, ...]) -> str:
    return "(" + ", ".join(vector) + ")"


def _fmt_distance(distance: tuple[int | None, ...]) -> str:
    return "(" + ", ".join(
        "?" if d is None else str(d) for d in distance
    ) + ")"


def describe_carried_edge(edge: DependenceEdge) -> str:
    """One-line description of a loop-carried dependence edge."""
    return (
        f"{edge.kind} dependence {edge.src.describe()} -> "
        f"{edge.dst.describe()}, direction {_fmt_vector(edge.vector)}, "
        f"distance {_fmt_distance(edge.distance)}"
    )


def _array_findings(
    graph, var: str, report: ParallelismReport
) -> None:
    by_name: dict[str, list[Access]] = {}
    for access in graph.accesses:
        if not access.is_scalar:
            by_name.setdefault(access.name, []).append(access)
    carried_by_name: dict[str, list[DependenceEdge]] = {}
    for edge in graph.edges:
        if not edge.scalar and edge.may_carry(1):
            carried_by_name.setdefault(edge.src.name, []).append(edge)
    for name in sorted(by_name):
        group = by_name[name]
        if not any(a.is_write for a in group):
            continue
        if any(a.indirect for a in group):
            report.unknown = True
            report.parallel = False
            report.reasons.append(
                f"'{name}': indirect addressing defeats the dependence test"
            )
            continue
        ranks = {len(a.subs) for a in group}
        if len(ranks) != 1:
            report.parallel = False
            report.reasons.append(
                f"'{name}': inconsistent subscript ranks"
            )
            continue
        carried = carried_by_name.get(name, ())
        if not carried:
            continue
        report.parallel = False
        concrete = [e for e in carried if not e.unknown]
        if concrete:
            edge = min(
                concrete, key=lambda e: (e.src.seq, e.dst.seq)
            )
            report.reasons.append(
                f"'{name}': loop-carried {describe_carried_edge(edge)}"
            )
        else:
            report.reasons.append(
                f"'{name}': no dimension indexes all accesses "
                f"identically by '{var}' — possible cross-iteration "
                "dependence"
            )


def analyze_outer_parallelism(
    loop: ast.Do | ast.Forall,
    graph: DependenceGraph | None = None,
) -> ParallelismReport:
    """Test whether an outer counted loop is parallelizable.

    FORALL loops are parallel by user assertion (their report still
    notes indirect addressing, for diagnostics).  ``graph`` is the
    loop's :func:`build_dependence_graph`, when the caller already has
    it; without it the test builds one.
    """
    var = loop.var
    body = loop.body
    report = ParallelismReport(parallel=True)
    if isinstance(loop, ast.Forall):
        report.reasons.append(
            "FORALL header: parallelism asserted by the user"
        )
        return report

    # --- array dependence: distance/direction-vector framework -------------
    if graph is None:
        graph = build_dependence_graph(loop)
    _array_findings(graph, var, report)

    # --- scalar dependence: liveness-based privatization argument ----------
    array_names = {
        access.name for access in graph.accesses if not access.is_scalar
    }
    cfg = build_cfg(body)
    liveness = live_variables(cfg)
    assigned: set[str] = set()
    for node in cfg.statements():
        assigned |= stmt_defs(node.stmt)
    live_at_entry: set[str] = set()
    for succ in cfg.nodes[cfg.ENTRY].succs:
        live_at_entry |= liveness.live_in[succ]
    call_touched: set[str] = set()
    for node in ast.walk_body(body):
        if isinstance(node, ast.CallStmt):
            for arg in node.args:
                if isinstance(arg, ast.Var):
                    call_touched.add(arg.name)
    carried = (assigned & live_at_entry) - array_names - {var}
    for name in sorted(carried):
        reduction = any(
            isinstance(node, ast.Assign)
            and isinstance(node.target, ast.Var)
            and node.target.name == name
            and _is_reduction(node, name)
            for node in ast.walk_body(body)
        )
        if reduction:
            report.reductions.add(name)
            report.reasons.append(
                f"scalar '{name}' is a reduction accumulator "
                "(parallelizable with reduction support)"
            )
        elif name in call_touched:
            # The only evidence is a CALL argument: without the callee's
            # interface we cannot tell an output argument (private, e.g.
            # the force routine's result) from a genuine carried value.
            report.unknown = True
            report.parallel = False
            report.reasons.append(
                f"scalar '{name}' is passed to a CALL — needs "
                "interprocedural analysis or user assertion"
            )
        else:
            report.parallel = False
            report.reasons.append(
                f"scalar '{name}' is carried across iterations"
            )
    return report
