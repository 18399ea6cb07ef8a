"""Loop flattening from the compiler's perspective (Section 6).

Answers, for a candidate nest, the paper's four questions:

* **applicability** — is the nest structurally flattenable (loops
  fully contained in each other, normal form derivable)?
* **cost** — the worst-case added overhead ("to manipulate two flags
  and to perform two conditional jumps");
* **profitability** — may the inner loop bounds vary across the
  processors?  ("we can relatively safely assume profitability
  whenever the inner loop bounds may vary across the processors");
* **safety** — can the outer loop be parallelized (dependence test),
  or must the user assert it (FORALL header / "heroic dependence
  analysis")?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..lang.errors import TransformError
from ..transform.flatten import (
    LoopNest,
    extract_nest,
    flatten_done,
    flatten_optimized,
)
from .dep import DependenceGraph, ParallelismReport, analyze_outer_parallelism
from .sideeffects import referenced_names


@dataclass
class FlatteningCost:
    """The paper's worst-case overhead accounting."""

    flags: int = 2
    conditional_jumps: int = 2

    def __str__(self) -> str:
        return (
            f"{self.flags} flag manipulations + "
            f"{self.conditional_jumps} conditional jumps per step"
        )


@dataclass
class FlatteningReport:
    """Verdict of :func:`evaluate_flattening` for one loop nest.

    Attributes:
        applicable: Nest is structurally flattenable.
        profitable: Inner bounds may vary across processors.
        safe: True / False from the dependence test; None when the
            analysis could not decide (indirect addressing).
        variant: Strongest flattening variant whose preconditions hold
            (given the assumption flags), or None if not applicable.
        cost: Worst-case overhead estimate.
        reasons: Diagnostics explaining each verdict.
        parallelism: Full dependence report for the outer loop.
    """

    applicable: bool
    profitable: bool
    safe: bool | None
    variant: str | None
    cost: FlatteningCost = field(default_factory=FlatteningCost)
    reasons: list[str] = field(default_factory=list)
    parallelism: ParallelismReport | None = None

    @property
    def recommended(self) -> bool:
        """Flatten when applicable, profitable and not proven unsafe."""
        return self.applicable and self.profitable and self.safe is not False


def _inner_bounds_vary(nest: LoopNest) -> bool:
    """Does the inner trip count depend on the outer iteration?"""
    outer_names = {nest.outer.var} if nest.outer.var else set()
    for stmt in nest.outer.increment:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Var):
            outer_names.add(stmt.target.name)
    # Scalars computed per outer iteration (pre statements) carry the
    # outer iteration into the bound as well.
    from .sideeffects import assigned_names

    outer_names |= assigned_names(nest.pre)
    test_names = referenced_names(nest.inner.test)
    if test_names & outer_names:
        return True
    # The test may depend on the outer iteration through any array
    # (e.g. j <= L(i)): treat a subscripted bound as potentially varying.
    for node in ast.walk(nest.inner.test):
        if isinstance(node, ast.ArrayRef):
            return True
    return False


def evaluate_flattening(
    stmt: ast.Stmt,
    assume_parallel: bool = False,
    assume_min_trips: bool = False,
    graph: DependenceGraph | None = None,
) -> FlatteningReport:
    """Evaluate loop flattening for an outer loop statement.

    Args:
        stmt: Candidate outer loop.
        assume_parallel: User asserts the outer loop is parallel
            (e.g. it came from a FORALL).
        assume_min_trips: User asserts the inner loop body runs at
            least once per outer iteration.
        graph: ``stmt``'s dependence graph, when the caller has
            already built it (see :func:`analyze_outer_parallelism`).
    """
    try:
        nest = extract_nest(stmt)
    except TransformError as exc:
        return FlatteningReport(
            applicable=False,
            profitable=False,
            safe=None,
            variant=None,
            reasons=[f"not applicable: {exc.message}"],
        )

    reasons: list[str] = []
    profitable = _inner_bounds_vary(nest)
    if profitable:
        reasons.append(
            "profitable: the inner loop bounds may vary across the processors"
        )
    else:
        reasons.append(
            "not profitable: the inner trip count is invariant across outer "
            "iterations (a rectangular nest — consider loop coalescing instead)"
        )

    parallelism: ParallelismReport | None = None
    if assume_parallel or isinstance(stmt, ast.Forall):
        safe: bool | None = True
        reasons.append("safe: parallelism asserted by the user")
    elif isinstance(stmt, ast.Do):
        parallelism = analyze_outer_parallelism(stmt, graph=graph)
        if parallelism.parallel:
            safe = True
            reasons.append("safe: the outer loop passes the dependence test")
        elif parallelism.unknown:
            safe = None
            reasons.append(
                "safety unknown: "
                + "; ".join(parallelism.reasons)
                + " — needs user information or heroic dependence analysis"
            )
        else:
            safe = False
            reasons.append("unsafe: " + "; ".join(parallelism.reasons))
    else:
        safe = None
        reasons.append("safety unknown for this loop form")

    variant: str | None
    try:
        flatten_done(nest, assume_min_trips)
        variant = "done"
    except TransformError:
        try:
            flatten_optimized(nest, assume_min_trips)
            variant = "optimized"
        except TransformError:
            variant = "general"
    reasons.append(f"strongest applicable variant: {variant}")

    return FlatteningReport(
        applicable=True,
        profitable=profitable,
        safe=safe,
        variant=variant,
        reasons=reasons,
        parallelism=parallelism,
    )
