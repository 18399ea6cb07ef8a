"""Dataflow analysis tests: per-statement defs/uses and liveness."""

from repro.analysis import (
    build_cfg,
    live_variables,
    stmt_defs,
    stmt_uses,
)
from repro.lang import ast, parse_statements


def cfg_of(text):
    return build_cfg(parse_statements(text))


def node_for(cfg, predicate):
    for node in cfg.statements():
        if node.stmt is not None and predicate(node.stmt):
            return node
    raise AssertionError("no node matched")


class TestDefsUses:
    def test_assign(self):
        [stmt] = parse_statements("x = y + z")
        assert stmt_defs(stmt) == {"x"}
        assert stmt_uses(stmt) == {"y", "z"}

    def test_array_assign_reads_subscripts_and_array(self):
        [stmt] = parse_statements("a(i) = b(j)")
        assert stmt_defs(stmt) == {"a"}
        assert stmt_uses(stmt) == {"a", "i", "b", "j"}

    def test_do_header(self):
        [stmt] = parse_statements("DO i = lo, hi\nENDDO")
        assert stmt_defs(stmt) == {"i"}
        assert stmt_uses(stmt) == {"lo", "hi"}

    def test_while_header(self):
        [stmt] = parse_statements("WHILE (x < n)\nENDWHILE")
        assert stmt_uses(stmt) == {"x", "n"}

    def test_call_conservative(self):
        [stmt] = parse_statements("CALL f(a, b + c)")
        assert "a" in stmt_defs(stmt)
        assert stmt_uses(stmt) >= {"a", "b", "c"}


class TestLiveness:
    def test_dead_variable(self):
        cfg = cfg_of("x = 1\ny = 2\nz = y")
        lv = live_variables(cfg)
        first = node_for(cfg, lambda s: isinstance(s, ast.Assign) and s.target.name == "x")
        assert "x" not in lv.live_out[first.index]

    def test_live_through_branch(self):
        cfg = cfg_of("x = 1\nIF (c) THEN\n  y = x\nENDIF")
        lv = live_variables(cfg)
        first = node_for(cfg, lambda s: isinstance(s, ast.Assign) and s.target.name == "x")
        assert "x" in lv.live_out[first.index]

    def test_loop_carried_liveness(self):
        cfg = cfg_of("DO i = 1, 3\n  s = s + i\nENDDO")
        lv = live_variables(cfg)
        update = node_for(cfg, lambda s: isinstance(s, ast.Assign))
        assert "s" in lv.live_in[update.index]

    def test_entry_liveness_reports_inputs(self):
        cfg = cfg_of("y = x + 1")
        lv = live_variables(cfg)
        [entry_succ] = cfg.nodes[cfg.ENTRY].succs
        assert "x" in lv.live_in[entry_succ]
        assert "y" not in lv.live_in[entry_succ]
