"""Loop-nest dependence framework.

The real replacement for the legacy single-variable SIV test (the
removed ``dependence`` module):

* :mod:`~repro.analysis.dep.affine` — subscripts as affine forms over
  all enclosing induction variables plus free symbols;
* :mod:`~repro.analysis.dep.tests` — the ZIV/SIV/GCD/Banerjee test
  ladder producing distance/direction vectors per access pair;
* :mod:`~repro.analysis.dep.graph` — the symbolic nest walk (with
  induction-variable recognition) and the queryable
  :class:`DependenceGraph` (``is_parallel``, ``can_interchange``,
  ``fission_partitions``);
* :mod:`~repro.analysis.dep.report` — the legacy-compatible
  :func:`analyze_outer_parallelism` verdict on top of the graph;
* :mod:`~repro.analysis.dep.explain` — text/JSON dumps behind
  ``repro lint --explain-deps``.
"""

from .affine import AffineExpr, AffineTerm, parse_affine, parse_affine_expr
from .explain import explain_routine, explain_source, render_explanations
from .graph import (
    Access,
    DependenceEdge,
    DependenceGraph,
    build_dependence_graph,
)
from .report import (
    ParallelismReport,
    analyze_outer_parallelism,
    describe_carried_edge,
)
from .tests import LevelInfo, solve_pair

__all__ = [
    "Access",
    "AffineExpr",
    "AffineTerm",
    "DependenceEdge",
    "DependenceGraph",
    "LevelInfo",
    "ParallelismReport",
    "analyze_outer_parallelism",
    "build_dependence_graph",
    "describe_carried_edge",
    "explain_routine",
    "explain_source",
    "parse_affine",
    "parse_affine_expr",
    "render_explanations",
    "solve_pair",
]
