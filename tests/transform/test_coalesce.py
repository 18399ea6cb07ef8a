"""Loop coalescing baseline tests (Section 7 comparison)."""

import numpy as np
import pytest

import repro
from repro.lang import ast, parse_statements
from repro.lang.errors import TransformError
from repro.transform import coalesce_nest


def run_body(stmts, bindings=None):
    prog = ast.SourceFile(
        [
            ast.Routine(
                "program",
                "p",
                [],
                parse_statements("INTEGER x(6, 4)") + stmts,
            )
        ]
    )
    result = repro.run(prog, bindings=bindings or {}, backend="scalar")
    env, counters = result.env, result.counters
    return env, counters


def test_rectangular_nest_coalesces_correctly():
    [stmt] = parse_statements(
        "DO i = 1, 6\n  DO j = 1, 4\n    x(i, j) = i * 10 + j\n  ENDDO\nENDDO"
    )
    out = coalesce_nest(stmt)
    loops = [s for s in out if isinstance(s, ast.Do)]
    assert len(loops) == 1
    env, _ = run_body(out)
    expected = np.array([[i * 10 + j for j in range(1, 5)] for i in range(1, 7)])
    assert (env["x"].data == expected).all()


def test_single_loop_after_coalescing():
    [stmt] = parse_statements(
        "DO i = 1, 6\n  DO j = 1, 4\n    x(i, j) = 1\n  ENDDO\nENDDO"
    )
    [loop] = coalesce_nest(stmt)
    inner = [s for s in ast.walk_body(loop.body) if isinstance(s, ast.Do)]
    assert inner == []


def test_symbolic_bounds_coalesce():
    [stmt] = parse_statements(
        "DO i = 1, n\n  DO j = 1, m\n    x(i, j) = i + j\n  ENDDO\nENDDO"
    )
    out = coalesce_nest(stmt)
    env, _ = run_body(out, bindings={"n": 6, "m": 4})
    expected = np.array([[i + j for j in range(1, 5)] for i in range(1, 7)])
    assert (env["x"].data == expected).all()


def test_irregular_nest_rejected():
    """The paper's Section 7 point: coalescing needs a rectangular
    iteration space, which the flattening workloads violate."""
    [stmt] = parse_statements(
        "DO i = 1, 6\n  DO j = 1, l(i)\n    x(i, j) = 1\n  ENDDO\nENDDO"
    )
    with pytest.raises(TransformError, match="not rectangular"):
        coalesce_nest(stmt)


def test_imperfect_nest_rejected():
    [stmt] = parse_statements(
        "DO i = 1, 6\n  x(i, 1) = 0\n  DO j = 1, 4\n    x(i, j) = 1\n  ENDDO\nENDDO"
    )
    with pytest.raises(TransformError, match="perfectly nested"):
        coalesce_nest(stmt)


def test_nonunit_stride_rejected():
    [stmt] = parse_statements(
        "DO i = 1, 6, 2\n  DO j = 1, 4\n    x(i, j) = 1\n  ENDDO\nENDDO"
    )
    with pytest.raises(TransformError):
        coalesce_nest(stmt)


def test_lower_bound_not_one_rejected():
    [stmt] = parse_statements(
        "DO i = 2, 6\n  DO j = 1, 4\n    x(i, j) = 1\n  ENDDO\nENDDO"
    )
    with pytest.raises(TransformError):
        coalesce_nest(stmt)


def test_non_do_rejected():
    [stmt] = parse_statements("WHILE (a)\n  x(1, 1) = 1\nENDWHILE")
    with pytest.raises(TransformError):
        coalesce_nest(stmt)
