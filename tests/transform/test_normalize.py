"""Loop normalization tests (Figure 8)."""

import numpy as np
import pytest

import repro
from repro.lang import ast, parse_source, parse_statements
from repro.lang.errors import TransformError
from repro.transform import normalize_loop, raise_goto_loops
from repro.transform.normalize import normalize_do, normalize_while


def loop_of(text):
    [stmt] = parse_statements(text)
    return stmt


class TestNormalizeDo:
    def test_phases_of_simple_do(self):
        norm = normalize_do(loop_of("DO i = 1, n\n  x = i\nENDDO"))
        assert norm.kind == "do"
        assert norm.var == "i"
        assert norm.init == [ast.Assign(ast.Var("i"), ast.IntLit(1))]
        assert norm.test == ast.BinOp("<=", ast.Var("i"), ast.Var("n"))
        assert norm.increment == [
            ast.Assign(ast.Var("i"), ast.BinOp("+", ast.Var("i"), ast.IntLit(1)))
        ]
        assert len(norm.body) == 1

    def test_done_test_unit_stride(self):
        norm = normalize_do(loop_of("DO i = 1, n\nENDDO"))
        assert norm.done == ast.BinOp(">=", ast.Var("i"), ast.Var("n"))

    def test_negative_stride(self):
        norm = normalize_do(loop_of("DO i = n, 1, -1\nENDDO"))
        assert norm.test.op == ">="
        assert norm.done == ast.BinOp("<=", ast.Var("i"), ast.IntLit(1))

    def test_wide_stride_done_test(self):
        norm = normalize_do(loop_of("DO i = 1, n, 3\nENDDO"))
        # done = (i + 3 > n)
        assert norm.done.op == ">"

    def test_symbolic_stride_rejected(self):
        with pytest.raises(TransformError):
            normalize_do(loop_of("DO i = 1, n, k\nENDDO"))

    def test_zero_stride_rejected(self):
        with pytest.raises(TransformError):
            normalize_do(loop_of("DO i = 1, n, 0\nENDDO"))

    def test_min_trips_known_for_literal_bounds(self):
        assert normalize_do(loop_of("DO i = 1, 4\nENDDO")).min_trips_known
        assert not normalize_do(loop_of("DO i = 1, n\nENDDO")).min_trips_known
        assert not normalize_do(loop_of("DO i = 5, 4\nENDDO")).min_trips_known

    def test_materialize_runs_like_original(self):
        text = "s = 0\nDO i = 1, 5\n  s = s + i\nENDDO"
        stmts = parse_statements(text)
        norm = normalize_loop(stmts[1])
        rebuilt = [stmts[0]] + norm.materialize()
        prog = ast.SourceFile([ast.Routine("program", "p", [], rebuilt)])
        env = repro.run(prog, backend="scalar").env
        assert env["s"] == 15


class TestNormalizeWhile:
    def test_while_phases(self):
        norm = normalize_while(loop_of("WHILE (i < n)\n  i = i + 1\nENDWHILE"))
        assert norm.kind == "while"
        assert norm.init == []
        assert norm.increment == []
        assert norm.done is None

    def test_do_while(self):
        norm = normalize_while(loop_of("DO WHILE (i < n)\n  i = i + 1\nENDDO"))
        assert norm.kind == "dowhile"

    def test_normalize_loop_dispatch(self):
        assert normalize_loop(loop_of("DO i = 1, 2\nENDDO")).kind == "do"
        with pytest.raises(TransformError):
            normalize_loop(parse_statements("x = 1")[0])


class TestGotoStructurization:
    def test_pretest_goto_loop(self):
        body = parse_statements(
            "i = 1\n"
            "10 IF (i > n) GOTO 20\n"
            "  s = s + i\n"
            "  i = i + 1\n"
            "  GOTO 10\n"
            "20 CONTINUE\n"
        )
        out = raise_goto_loops(body)
        loops = [s for s in out if isinstance(s, ast.DoWhile)]
        assert len(loops) == 1
        # guard is the negation of the exit condition
        assert loops[0].cond == ast.UnOp(
            ".NOT.", ast.BinOp(">", ast.Var("i"), ast.Var("n"))
        )
        assert not any(isinstance(s, ast.Goto) for s in ast.walk_body(out))

    def test_pretest_loop_runs_correctly(self):
        text = (
            "PROGRAM p\n  n = 4\n  s = 0\n  i = 1\n"
            "10 IF (i > n) GOTO 20\n  s = s + i\n  i = i + 1\n  GOTO 10\n"
            "20 CONTINUE\nEND"
        )
        tree = parse_source(text)
        body = raise_goto_loops(tree.main.body)
        prog = ast.SourceFile([ast.Routine("program", "p", [], body)])
        env = repro.run(prog, backend="scalar").env
        assert env["s"] == 10

    def test_posttest_goto_loop_peeled(self):
        body = parse_statements(
            "10 CONTINUE\n  s = s + i\n  i = i + 1\nIF (i <= n) GOTO 10\n"
        )
        out = raise_goto_loops(body)
        loops = [s for s in out if isinstance(s, ast.DoWhile)]
        assert len(loops) == 1
        # peeled copy before the loop
        assert isinstance(out[0], ast.Assign)

    def test_posttest_loop_runs_correctly(self):
        text = (
            "PROGRAM p\n  n = 4\n  s = 0\n  i = 1\n"
            "10 CONTINUE\n  s = s + i\n  i = i + 1\n  IF (i <= n) GOTO 10\nEND"
        )
        tree = parse_source(text)
        body = raise_goto_loops(tree.main.body)
        prog = ast.SourceFile([ast.Routine("program", "p", [], body)])
        env = repro.run(prog, backend="scalar").env
        assert env["s"] == 10

    def test_nested_goto_loops(self):
        # The paper's dusty-deck EXAMPLE built from GOTOs.
        from repro.kernels.example import P1_GOTO, example_bindings, expected_x

        tree = parse_source(P1_GOTO)
        body = raise_goto_loops(tree.main.body)
        assert not any(isinstance(s, ast.Goto) for s in ast.walk_body(body))
        prog = ast.SourceFile([ast.Routine("program", "p", [], body)])
        env = repro.run(prog, bindings=example_bindings(), backend="scalar").env
        assert (env["x"].data == expected_x()).all()

    def test_unrelated_gotos_left_alone(self):
        body = parse_statements("GOTO 10\nx = 1\n10 CONTINUE")
        out = raise_goto_loops(body)
        assert any(isinstance(s, ast.Goto) for s in out)
