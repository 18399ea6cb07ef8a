"""Side-effect and reference analysis for transformation preconditions.

The paper's optimized flattening variants (Figs. 11 and 12) require
that ``test1``, ``test2`` and ``init2`` have no side effects; the
general variant (Fig. 10) stores every guard in a flag precisely
because it cannot assume this.  In MiniF, expressions are pure except
that evaluating them can *fault* (out-of-bounds subscripts), so the
analysis distinguishes:

* side effects proper — CALL statements (externals may do anything);
* evaluation hazards — array subscripts that depend on given
  variables, which may be out of range once a loop counter has run
  past its bound.
"""

from __future__ import annotations

from ..lang import ast


def stmts_have_side_effects(stmts: list[ast.Stmt]) -> bool:
    """True when a statement list may have side effects beyond its
    obvious assignments — i.e. it contains a CALL or a STOP."""
    for node in ast.walk_body(stmts):
        if isinstance(node, (ast.CallStmt, ast.Stop)):
            return True
    return False


def assigned_names(stmts: list[ast.Stmt]) -> set[str]:
    """Names assigned anywhere in a statement list (incl. loop vars)."""
    names: set[str] = set()
    for node in ast.walk_body(stmts):
        if isinstance(node, ast.Assign):
            target = node.target
            if isinstance(target, ast.Var):
                names.add(target.name)
            elif isinstance(target, ast.ArrayRef):
                names.add(target.name)
        elif isinstance(node, (ast.Do, ast.Forall)):
            names.add(node.var)
        elif isinstance(node, ast.CallStmt):
            # Conservatively: any argument that is a name may be written.
            for arg in node.args:
                if isinstance(arg, ast.Var):
                    names.add(arg.name)
                elif isinstance(arg, ast.ArrayRef):
                    names.add(arg.name)
    return names


def referenced_names(node) -> set[str]:
    """All names read or written in an expression / statement (list)."""
    names: set[str] = set()
    nodes = ast.walk_body(node) if isinstance(node, list) else ast.walk(node)
    for item in nodes:
        if isinstance(item, ast.Var):
            names.add(item.name)
        elif isinstance(item, ast.ArrayRef):
            names.add(item.name)
        elif isinstance(item, (ast.Do, ast.Forall)):
            names.add(item.var)
    return names


def subscripts_depending_on(node, vars: set[str]) -> bool:
    """True when some array subscript references one of ``vars``.

    Used as the *evaluation hazard* test: once a counter in ``vars``
    has been incremented past its bound, such a subscript may fault,
    so the transformed code must keep a guard around the evaluation.
    """
    nodes = ast.walk_body(node) if isinstance(node, list) else ast.walk(node)
    for item in nodes:
        if isinstance(item, ast.ArrayRef):
            for sub in item.subs:
                if referenced_names(sub) & vars:
                    return True
    return False
