"""CFG and dataflow edge cases: degenerate shapes the builders must
survive — empty loop bodies, nested WHERE, and unreachable blocks."""

import pytest

from repro.analysis import build_cfg
from repro.analysis.dataflow import live_variables
from repro.lang import ast, parse_statements
from repro.lang.errors import TransformError


def cfg_of(text):
    return build_cfg(parse_statements(text))


def node_for(cfg, predicate):
    for node in cfg.statements():
        if node.stmt is not None and predicate(node.stmt):
            return node
    raise AssertionError("no node matched")


def reachable(cfg):
    seen = {cfg.ENTRY}
    stack = [cfg.ENTRY]
    while stack:
        for succ in cfg.nodes[stack.pop()].succs:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


# -- empty loop bodies --------------------------------------------------------


def test_empty_do_body_self_loop():
    cfg = cfg_of("DO i = 1, 3\nENDDO\nb = 1")
    header = node_for(cfg, lambda s: isinstance(s, ast.Do))
    # The empty body collapses to a header self-loop plus the exit edge.
    assert header.index in header.succs
    after = node_for(cfg, lambda s: isinstance(s, ast.Assign))
    assert after.index in header.succs


def test_empty_while_body_self_loop():
    cfg = cfg_of("WHILE (c)\nENDWHILE")
    header = node_for(cfg, lambda s: isinstance(s, ast.While))
    assert header.index in header.succs
    assert cfg.EXIT in header.succs


def test_empty_where_falls_through():
    cfg = cfg_of("WHERE (m .GT. 0)\nENDWHERE\nb = 1")
    guard = node_for(cfg, lambda s: isinstance(s, ast.Where))
    after = node_for(cfg, lambda s: isinstance(s, ast.Assign))
    assert after.index in guard.succs
    assert guard.index in after.preds


def test_empty_nested_loops_terminate():
    cfg = cfg_of("DO i = 1, 3\n  DO j = 1, 3\n  ENDDO\nENDDO")
    outer = node_for(cfg, lambda s: isinstance(s, ast.Do) and s.var == "i")
    inner = node_for(cfg, lambda s: isinstance(s, ast.Do) and s.var == "j")
    assert inner.index in outer.succs
    assert outer.index in inner.succs  # back edge from the inner header


# -- nested WHERE -------------------------------------------------------------


def test_nested_where_edges():
    cfg = cfg_of(
        "WHERE (m .GT. 0)\n"
        "  WHERE (n .GT. 0)\n"
        "    a = 1\n"
        "  ELSEWHERE\n"
        "    a = 2\n"
        "  ENDWHERE\n"
        "ENDWHERE\n"
        "b = 3"
    )
    outer = node_for(cfg, lambda s: isinstance(s, ast.Where) and s.mask.left.name == "m")
    inner = node_for(cfg, lambda s: isinstance(s, ast.Where) and s.mask.left.name == "n")
    join = node_for(cfg, lambda s: isinstance(s, ast.Assign) and s.target.name == "b")
    assert inner.index in outer.succs
    # Fall-through around the outer WHERE plus both inner arms converge.
    assert outer.index in join.preds
    assert len(join.preds) == 3


def test_nested_where_liveness_joins_arms():
    cfg = cfg_of(
        "WHERE (m .GT. 0)\n"
        "  WHERE (n .GT. 0)\n"
        "    a = x\n"
        "  ELSEWHERE\n"
        "    a = y\n"
        "  ENDWHERE\n"
        "ENDWHERE\n"
        "b = a"
    )
    live = live_variables(cfg)
    # Both arm sources and the guard masks are live on routine entry.
    assert {"m", "n", "x", "y", "a"} <= live.live_in[cfg.ENTRY]
    use = node_for(cfg, lambda s: isinstance(s, ast.Assign) and s.target.name == "b")
    assert "a" in live.live_in[use.index]


# -- unreachable blocks -------------------------------------------------------


def test_code_after_goto_is_unreachable():
    cfg = cfg_of("GOTO 10\na = 1\n10 b = 2")
    dead = node_for(cfg, lambda s: isinstance(s, ast.Assign) and s.target.name == "a")
    assert dead.index not in reachable(cfg)
    live = node_for(cfg, lambda s: isinstance(s, ast.Assign) and s.target.name == "b")
    assert live.index in reachable(cfg)


def test_code_after_return_is_unreachable():
    cfg = cfg_of("RETURN\na = 1")
    dead = node_for(cfg, lambda s: isinstance(s, ast.Assign))
    assert dead.index not in reachable(cfg)
    assert cfg.EXIT in reachable(cfg)


def test_loop_only_exit_via_exit_stmt():
    # The DO header still has its normal-termination edge, but the body
    # EXIT must be wired to the statement after the loop.
    cfg = cfg_of("DO i = 1, 3\n  IF (c) THEN\n    EXIT\n  ENDIF\nENDDO\nb = 1")
    exit_node = node_for(cfg, lambda s: isinstance(s, ast.ExitStmt))
    after = node_for(cfg, lambda s: isinstance(s, ast.Assign))
    assert after.index in exit_node.succs
    assert after.index in reachable(cfg)


def test_goto_into_loop_body_resolves():
    # GOTO targeting a labelled statement inside a loop body must
    # resolve (structurization relies on this to see GOTO-built loops).
    cfg = cfg_of("GOTO 10\nDO i = 1, 3\n10 a = i\nENDDO")
    target = node_for(cfg, lambda s: isinstance(s, ast.Assign))
    goto = node_for(cfg, lambda s: isinstance(s, ast.Goto))
    assert target.index in goto.succs


def test_goto_unknown_label_raises():
    with pytest.raises(TransformError):
        cfg_of("GOTO 99\na = 1")


def test_exit_outside_loop_raises():
    with pytest.raises(TransformError):
        cfg_of("EXIT")


def test_cycle_outside_loop_raises():
    with pytest.raises(TransformError):
        cfg_of("CYCLE")


def test_dataflow_ignores_unreachable_cycle():
    # An unreachable GOTO self-loop must not prevent the worklists from
    # terminating or pollute results of the reachable region.
    cfg = cfg_of("b = 1\nGOTO 20\n10 a = a + 1\nGOTO 10\n20 c = b")
    live = live_variables(cfg)
    use = node_for(cfg, lambda s: isinstance(s, ast.Assign) and s.target.name == "c")
    assert "b" in live.live_in[use.index]
    # `a` only feeds the dead cycle; it must not leak into the entry.
    first = node_for(cfg, lambda s: isinstance(s, ast.Assign) and s.target.name == "b")
    assert "a" not in live.live_in[first.index]
