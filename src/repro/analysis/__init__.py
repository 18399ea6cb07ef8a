"""Program analyses backing the transformation decisions of Section 6."""

from .abstract import (
    AbstractInterpreter,
    AbstractValue,
    Interval,
    Uniformity,
    analyze_routine,
)
from .applicability import FlatteningCost, FlatteningReport, evaluate_flattening
from .cfg import CFGNode, ControlFlowGraph, build_cfg
from .dataflow import (
    Liveness,
    live_variables,
    stmt_defs,
    stmt_uses,
)
from .dep import (
    AffineExpr,
    AffineTerm,
    DependenceEdge,
    DependenceGraph,
    ParallelismReport,
    analyze_outer_parallelism,
    build_dependence_graph,
    parse_affine,
    parse_affine_expr,
)
from .sideeffects import (
    assigned_names,
    referenced_names,
    stmts_have_side_effects,
    subscripts_depending_on,
)

__all__ = [
    "analyze_routine",
    "AbstractInterpreter",
    "AbstractValue",
    "Interval",
    "Uniformity",
    "build_cfg",
    "ControlFlowGraph",
    "CFGNode",
    "live_variables",
    "Liveness",
    "stmt_defs",
    "stmt_uses",
    "analyze_outer_parallelism",
    "ParallelismReport",
    "parse_affine",
    "parse_affine_expr",
    "AffineTerm",
    "AffineExpr",
    "build_dependence_graph",
    "DependenceGraph",
    "DependenceEdge",
    "evaluate_flattening",
    "FlatteningReport",
    "FlatteningCost",
    "stmts_have_side_effects",
    "assigned_names",
    "referenced_names",
    "subscripts_depending_on",
]
