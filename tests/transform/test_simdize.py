"""SIMDizing transformation tests (Section 3)."""

import numpy as np
import pytest

import repro
from repro.lang import ast, parse_source, parse_statements
from repro.lang.errors import TransformError
from repro.transform import naive_simd_program, simdize_nest, simdize_structured

L = np.array([4, 1, 2, 1, 1, 3, 1, 3])

P1 = """
PROGRAM example
  INTEGER i, j, k, l(8), x(8, 4)
  k = 8
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = i * j
    ENDDO
  ENDDO
END
"""


def expected_x():
    out = np.zeros((8, 4), dtype=np.int64)
    for i in range(8):
        for j in range(L[i]):
            out[i, j] = (i + 1) * (j + 1)
    return out


class TestSimdizeStructured:
    def test_while_becomes_while_any(self):
        [stmt] = simdize_structured(
            parse_statements("WHILE (i <= k)\n  i = i + 1\nENDWHILE")
        )
        assert isinstance(stmt, ast.While)
        assert stmt.cond == ast.Call("any", [ast.BinOp("<=", ast.Var("i"), ast.Var("k"))])
        assert isinstance(stmt.body[0], ast.Where)

    def test_if_becomes_where(self):
        [stmt] = simdize_structured(parse_statements("IF (a > b) THEN\n  x = 1\nENDIF"))
        assert isinstance(stmt, ast.Where)

    def test_nested_ifs_become_nested_wheres(self):
        [stmt] = simdize_structured(
            parse_statements("IF (a) THEN\n  IF (b) THEN\n    x = 1\n  ENDIF\nENDIF")
        )
        assert isinstance(stmt.then_body[0], ast.Where)

    def test_do_body_recursed(self):
        [stmt] = simdize_structured(
            parse_statements("DO i = 1, 4\n  IF (a) x = 1\nENDDO")
        )
        assert isinstance(stmt, ast.Do)
        assert isinstance(stmt.body[0], ast.Where)

    def test_goto_rejected(self):
        with pytest.raises(TransformError):
            simdize_structured(parse_statements("GOTO 10\n10 CONTINUE"))

    def test_assignments_untouched(self):
        stmts = parse_statements("x = 1\ny = x + 2")
        assert simdize_structured(stmts) == stmts


class TestSimdizeNest:
    @pytest.mark.parametrize("layout", ["block", "cyclic"])
    @pytest.mark.parametrize("nproc", [1, 2, 4, 8])
    def test_naive_simd_matches_sequential(self, layout, nproc):
        tree = parse_source(P1)
        env0 = repro.run(tree, bindings={"l": L}, backend="scalar").env
        naive = naive_simd_program(tree, nproc=nproc, layout=layout)
        env = repro.run(
            naive, nproc=nproc, bindings={"l": L}, backend="vm"
        ).env
        assert (env["x"].data == env0["x"].data).all()

    def test_step_count_is_sum_of_maxima(self):
        """Equation 2: the naive SIMD body runs Σ_i max_p L times."""
        tree = parse_source(P1)
        naive = naive_simd_program(tree, nproc=2, layout="block")
        counters = repro.run(
            naive, nproc=2, bindings={"l": L}, backend="vm"
        ).counters
        # block partition: procs get L[0:4], L[4:8]
        expected = sum(max(L[i], L[i + 4]) for i in range(4))
        assert counters.events["scatter"] == expected == 12

    def test_inner_bound_maxed_and_guarded(self):
        [stmt] = parse_statements(
            "DO i = 1, k\n  DO j = 1, l(i)\n    x(i, j) = i * j\n  ENDDO\nENDDO"
        )
        out = simdize_nest(stmt, nproc=ast.Var("p"), layout="block")
        inner_dos = [s for s in ast.walk_body(out) if isinstance(s, ast.Do) and s.var == "j"]
        assert len(inner_dos) == 1
        assert isinstance(inner_dos[0].hi, ast.Call) and inner_dos[0].hi.name == "max"
        assert isinstance(inner_dos[0].body[0], ast.Where)

    def test_inner_while_becomes_while_any(self):
        [stmt] = parse_statements(
            "DO i = 1, k\n  DO WHILE (x(i, 1) < i)\n    x(i, 1) = x(i, 1) + 1\n  ENDDO\nENDDO"
        )
        out = simdize_nest(stmt, nproc=2, layout="cyclic")
        whiles = [s for s in ast.walk_body(out) if isinstance(s, ast.While)]
        assert len(whiles) == 1
        assert whiles[0].cond.name == "any"

    def test_forall_accepted(self):
        [stmt] = parse_statements("FORALL (i = 1 : k)\n  x(i, 1) = i\nENDFORALL")
        out = simdize_nest(stmt, nproc=2, layout="block")
        assert any(isinstance(s, ast.Do) for s in out)

    def test_non_unit_stride_rejected(self):
        [stmt] = parse_statements("DO i = 1, k, 2\n  x(i, 1) = i\nENDDO")
        with pytest.raises(TransformError):
            simdize_nest(stmt, nproc=2)

    def test_bad_layout_rejected(self):
        [stmt] = parse_statements("DO i = 1, k\n  x(i, 1) = i\nENDDO")
        with pytest.raises(TransformError):
            simdize_nest(stmt, nproc=2, layout="diagonal")

    def test_uneven_iteration_count(self):
        """K not divisible by P: the guard must mask excess lanes."""
        src = parse_source(
            "PROGRAM p\n  INTEGER x(5, 2), l(5)\n"
            "  DO i = 1, 5\n    DO j = 1, l(i)\n      x(i, j) = i\n    ENDDO\n  ENDDO\nEND"
        )
        trips = np.array([2, 1, 2, 1, 1])
        env0 = repro.run(src, bindings={"l": trips}, backend="scalar").env
        naive = naive_simd_program(src, nproc=3, layout="cyclic")
        env = repro.run(
            naive, nproc=3, bindings={"l": trips}, backend="vm"
        ).env
        assert (env["x"].data == env0["x"].data).all()
