"""Live variables over the statement-level CFG.

A classic backward worklist analysis, plus the per-statement
:func:`stmt_defs` / :func:`stmt_uses` it is built from.  Its one user
is the dependence test's scalar reasoning (:mod:`repro.analysis.dep`):
a scalar live into the loop body and redefined in it is carried
across outer iterations, which blocks parallelization and hence
flattening safety.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast
from .cfg import ControlFlowGraph


def stmt_defs(stmt: ast.Stmt | None) -> set[str]:
    """Names the statement itself defines (not nested bodies)."""
    if stmt is None:
        return set()
    if isinstance(stmt, ast.Assign):
        target = stmt.target
        if isinstance(target, (ast.Var, ast.ArrayRef)):
            return {target.name}
        return set()
    if isinstance(stmt, (ast.Do, ast.Forall)):
        return {stmt.var}
    if isinstance(stmt, ast.CallStmt):
        return {
            arg.name for arg in stmt.args if isinstance(arg, (ast.Var, ast.ArrayRef))
        }
    return set()


def _expr_uses(expr: ast.Expr | None) -> set[str]:
    if expr is None:
        return set()
    return {
        node.name
        for node in ast.walk(expr)
        if isinstance(node, (ast.Var, ast.ArrayRef))
    }


def stmt_uses(stmt: ast.Stmt | None) -> set[str]:
    """Names the statement itself reads (headers only, not bodies)."""
    if stmt is None:
        return set()
    if isinstance(stmt, ast.Assign):
        uses = _expr_uses(stmt.value)
        if isinstance(stmt.target, ast.ArrayRef):
            for sub in stmt.target.subs:
                uses |= _expr_uses(sub)
            uses.add(stmt.target.name)  # partial update reads the array
        return uses
    if isinstance(stmt, ast.Do):
        uses = _expr_uses(stmt.lo) | _expr_uses(stmt.hi)
        if stmt.stride is not None:
            uses |= _expr_uses(stmt.stride)
        return uses
    if isinstance(stmt, (ast.DoWhile, ast.While)):
        return _expr_uses(stmt.cond)
    if isinstance(stmt, ast.If):
        return _expr_uses(stmt.cond)
    if isinstance(stmt, ast.Where):
        return _expr_uses(stmt.mask)
    if isinstance(stmt, ast.Forall):
        uses = _expr_uses(stmt.lo) | _expr_uses(stmt.hi)
        if stmt.mask is not None:
            uses |= _expr_uses(stmt.mask)
        return uses
    if isinstance(stmt, ast.CallStmt):
        out: set[str] = set()
        for arg in stmt.args:
            out |= _expr_uses(arg)
        return out
    return set()


@dataclass
class Liveness:
    """Result of live-variables analysis (names live at node entry/exit)."""

    cfg: ControlFlowGraph
    live_in: list[set[str]]
    live_out: list[set[str]]


def live_variables(cfg: ControlFlowGraph) -> Liveness:
    """Backward may-analysis: which names are live at each node."""
    count = len(cfg.nodes)
    uses = [stmt_uses(node.stmt) for node in cfg.nodes]
    defs = [stmt_defs(node.stmt) for node in cfg.nodes]
    live_in: list[set[str]] = [set() for _ in range(count)]
    live_out: list[set[str]] = [set() for _ in range(count)]
    worklist = list(range(count))
    while worklist:
        index = worklist.pop()
        node = cfg.nodes[index]
        new_out: set[str] = set()
        for succ in node.succs:
            new_out |= live_in[succ]
        new_in = uses[index] | (new_out - defs[index])
        if new_in != live_in[index] or new_out != live_out[index]:
            live_in[index] = new_in
            live_out[index] = new_out
            worklist.extend(node.preds)
    return Liveness(cfg, live_in, live_out)
