"""Algebraic simplification tests, including semantics preservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.lang import ast, format_expr, parse_expression, parse_source, parse_statements
from repro.transform.simplify import simplify_expr, simplify_program, simplify_stmts


def simp(text):
    return format_expr(simplify_expr(parse_expression(text)))


class TestConstantFolding:
    def test_arithmetic(self):
        assert simp("1 + 2 * 3") == "7"
        assert simp("(8 - 1 + 1 + (2 - 1)) / 2") == "4"

    def test_integer_division_truncates(self):
        assert simp("7 / 2") == "3"
        assert simp("-7 / 2") == "-3"

    def test_division_by_literal_zero_left_alone(self):
        assert simp("1 / 0") == "1 / 0"

    def test_comparisons(self):
        assert simp("2 < 3") == ".TRUE."
        assert simp("2 >= 3") == ".FALSE."

    def test_logicals(self):
        assert simp(".TRUE. .AND. .FALSE.") == ".FALSE."

    def test_negative_literals(self):
        assert simp("-(3)") == "-3"
        assert simp("-(-x)") == "x"


class TestIdentities:
    def test_additive(self):
        assert simp("x + 0") == "x"
        assert simp("0 + x") == "x"
        assert simp("x - 0") == "x"

    def test_multiplicative(self):
        assert simp("x * 1") == "x"
        assert simp("1 * x") == "x"
        assert simp("x / 1") == "x"
        assert simp("x ** 1") == "x"

    def test_logical(self):
        # note: the variable is "flag", not "c" — a line-initial "c "
        # is an F77 comment, which the lexer honors
        assert simp("flag .AND. .TRUE.") == "flag"
        assert simp("flag .OR. .FALSE.") == "flag"
        assert simp("flag .AND. .FALSE.") == ".FALSE."
        assert simp("flag .OR. .TRUE.") == ".TRUE."

    def test_double_negation(self):
        assert simp(".NOT. .NOT. flag") == "flag"

    def test_comparison_negation(self):
        assert simp(".NOT. a < b") == "a >= b"
        assert simp(".NOT. a == b") == "a /= b"

    def test_nested_cleanup(self):
        # the SPMD partitioner's chunk expression with literal K and P
        assert simp("(8 - 1 + 1 + (2 - 1)) / 2 * 1 + 0") == "4"

    def test_integer_reassociation(self):
        assert simp("k - 1 + 1") == "k"
        assert simp("k - 1 + 1 + 1") == "k + 1"
        assert simp("k + 3 - 5") == "k - 2"

    def test_float_reassociation_not_applied(self):
        # float addition is not associative under rounding
        assert simp("x + 0.1 + 0.2") == "x + 0.1 + 0.2"

    def test_zero_times_variable_not_folded(self):
        # x might be a vector; 0 * x keeps its shape
        assert simp("0 * x") == "0 * x"


class TestStatements:
    def test_dead_if_pruned(self):
        [stmt] = parse_statements("IF (1 < 2) THEN\n  x = 1\nELSE\n  x = 2\nENDIF")
        out = simplify_stmts([stmt])
        assert out == parse_statements("x = 1")

    def test_dead_while_removed(self):
        stmts = parse_statements("WHILE (.FALSE.)\n  x = 1\nENDWHILE\ny = 2")
        out = simplify_stmts(stmts)
        assert out == parse_statements("y = 2")

    def test_labeled_statements_never_pruned(self):
        stmts = parse_statements("10 IF (1 > 2) THEN\n  x = 1\nENDIF")
        out = simplify_stmts(stmts)
        assert out[0].label == 10

    def test_recurses_into_loops(self):
        [stmt] = parse_statements("DO i = 1, 2 + 3\n  x = i * 1\nENDDO")
        [out] = simplify_stmts([stmt])
        assert out.hi == ast.IntLit(5)
        assert out.body == parse_statements("x = i")

    def test_where_masks_simplified(self):
        [stmt] = parse_statements("WHERE (.NOT. .NOT. m) x = 1")
        [out] = simplify_stmts([stmt])
        assert out.mask == ast.Var("m")


class TestPipelineCleanup:
    def test_spmd_output_gets_cleaner(self):
        """The partition setup folds to a literal when K and P are literal."""
        from repro.transform.parallel import flatten_spmd

        src = parse_source(
            "PROGRAM p\n  INTEGER l(8), x(8, 4)\n"
            "  DO i = 1, 8\n    DO j = 1, l(i)\n      x(i, j) = i\n"
            "    ENDDO\n  ENDDO\nEND"
        )
        loop = next(s for s in src.main.body if isinstance(s, ast.Do))
        flat = flatten_spmd(
            loop, nproc=2, layout="block", variant="done", assume_min_trips=True
        )
        simplified = simplify_stmts(flat)
        chunk_assign = simplified[0]
        assert isinstance(chunk_assign, ast.Assign)
        assert chunk_assign.value == ast.IntLit(4)  # (8+1)/2 folded


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-5, 5),
    b=st.integers(-5, 5),
    trips=st.lists(st.integers(0, 4), min_size=1, max_size=6),
)
def test_simplification_preserves_semantics(a, b, trips):
    k = len(trips)
    text = f"""
PROGRAM p
  INTEGER i, j, k, l({k}), x({k}, 5)
  k = {k} * 1 + 0
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = (i + 0) * ({a} - 0) + j * 1 + ({b} + 0 * 7)
    ENDDO
  ENDDO
END
"""
    tree = parse_source(text)
    bindings = {"l": np.array(trips, dtype=np.int64)}
    env_plain = repro.run(tree, bindings=dict(bindings), backend="scalar").env
    env_simple = repro.run(
        simplify_program(tree), bindings=dict(bindings), backend="scalar"
    ).env
    assert (env_plain["x"].data == env_simple["x"].data).all()
