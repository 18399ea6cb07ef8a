"""Statement-level control-flow graph construction.

The CFG drives the dataflow analyses that back the safety reasoning of
Section 6.  Nodes are individual statements; block statements (loops,
IF, WHERE, FORALL) contribute their headers as nodes with edges into
and around their bodies.  GOTO edges are resolved against the routine's
labels, which also lets the flattening front end reason about
GOTO-built loops after structurization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..lang.errors import TransformError


@dataclass
class CFGNode:
    """One CFG node: a statement plus its successor edge list."""

    index: int
    stmt: ast.Stmt | None
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    def __repr__(self) -> str:
        kind = type(self.stmt).__name__ if self.stmt is not None else "ENTRY/EXIT"
        return f"CFGNode({self.index}, {kind}, succs={self.succs})"


class ControlFlowGraph:
    """CFG of one routine body.

    Node 0 is the synthetic entry, node 1 the synthetic exit; statement
    nodes follow.  Use :meth:`statements` to iterate real nodes.
    """

    ENTRY = 0
    EXIT = 1

    def __init__(self):
        self.nodes: list[CFGNode] = [CFGNode(0, None), CFGNode(1, None)]
        self._labels: dict[int, int] = {}
        self._pending_gotos: list[tuple[int, int]] = []

    def new_node(self, stmt: ast.Stmt) -> int:
        node = CFGNode(len(self.nodes), stmt)
        self.nodes.append(node)
        if stmt.label is not None:
            self._labels[stmt.label] = node.index
        return node.index

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def statements(self):
        """Iterate over real statement nodes."""
        return (node for node in self.nodes[2:])

    def resolve_gotos(self) -> None:
        for src, label in self._pending_gotos:
            target = self._labels.get(label)
            if target is None:
                raise TransformError(f"GOTO {label}: label not found")
            self.add_edge(src, target)
        self._pending_gotos.clear()


def build_cfg(body: list[ast.Stmt]) -> ControlFlowGraph:
    """Build the CFG of a statement list."""
    cfg = ControlFlowGraph()
    exits = _build_block(cfg, body, [cfg.ENTRY], loop_stack=[])
    for src in exits:
        cfg.add_edge(src, cfg.EXIT)
    cfg.resolve_gotos()
    return cfg


def _build_block(
    cfg: ControlFlowGraph,
    body: list[ast.Stmt],
    incoming: list[int],
    loop_stack: list[tuple[int, list[int]]],
) -> list[int]:
    """Wire a statement list; returns the dangling exit nodes."""
    current = list(incoming)
    for stmt in body:
        current = _build_stmt(cfg, stmt, current, loop_stack)
    return current


def _build_stmt(
    cfg: ControlFlowGraph,
    stmt: ast.Stmt,
    incoming: list[int],
    loop_stack: list[tuple[int, list[int]]],
) -> list[int]:
    node = cfg.new_node(stmt)
    for src in incoming:
        cfg.add_edge(src, node)
    if isinstance(stmt, (ast.Do, ast.DoWhile, ast.While, ast.Forall)):
        breaks: list[int] = []
        loop_stack.append((node, breaks))
        body_exits = _build_block(cfg, stmt.body, [node], loop_stack)
        loop_stack.pop()
        for src in body_exits:
            cfg.add_edge(src, node)
        return [node] + breaks
    if isinstance(stmt, (ast.If, ast.Where)):
        then_body = stmt.then_body
        else_body = stmt.else_body
        then_exits = _build_block(cfg, then_body, [node], loop_stack)
        if else_body:
            else_exits = _build_block(cfg, else_body, [node], loop_stack)
        else:
            else_exits = [node]
        return then_exits + else_exits
    if isinstance(stmt, ast.Goto):
        cfg._pending_gotos.append((node, stmt.target))
        return []
    if isinstance(stmt, ast.ExitStmt):
        if not loop_stack:
            raise TransformError("EXIT outside of a loop", stmt.loc)
        loop_stack[-1][1].append(node)
        return []
    if isinstance(stmt, ast.CycleStmt):
        if not loop_stack:
            raise TransformError("CYCLE outside of a loop", stmt.loc)
        cfg.add_edge(node, loop_stack[-1][0])
        return []
    if isinstance(stmt, (ast.Return, ast.Stop)):
        cfg.add_edge(node, cfg.EXIT)
        return []
    return [node]
