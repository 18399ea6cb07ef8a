"""Legality-checked loop interchange (`repro.transform.interchange`)."""

import numpy as np
import pytest

import repro
from repro.lang import ast, parse_statements
from repro.lang.errors import TransformError
from repro.transform import interchange_loops


def loop_of(text):
    [stmt] = parse_statements(text)
    return stmt


def run_both(source):
    transformed = repro.compile(source, transform="interchange")
    got = transformed.run({}, nproc=4).env
    ref = repro.run(source, nproc=4).env
    return transformed, got, ref


class TestLegalInterchange:
    def test_independent_nest_swaps_and_matches(self):
        source = (
            "PROGRAM p\nINTEGER i, j, n\nINTEGER x(10, 10)\nn = 10\n"
            "DO i = 1, n\n  DO j = 1, 10\n"
            "    x(i, j) = i * 100 + j\n  ENDDO\nENDDO\nEND\n"
        )
        transformed, got, ref = run_both(source)
        [outer] = [
            s for s in transformed.tree.units[0].body if isinstance(s, ast.Do)
        ]
        assert outer.var == "j"
        [inner] = outer.body
        assert isinstance(inner, ast.Do) and inner.var == "i"
        a = np.asarray(ref["x"].data)
        b = np.asarray(got["x"].data)
        assert np.array_equal(a, b)

    def test_lt_lt_recurrence_is_legal(self):
        source = (
            "PROGRAM p\nINTEGER i, j\nINTEGER x(12, 12)\n"
            "DO i = 2, 11\n  DO j = 2, 11\n"
            "    x(i, j) = x(i - 1, j - 1) + 1\n  ENDDO\nENDDO\nEND\n"
        )
        _, got, ref = run_both(source)
        assert np.array_equal(
            np.asarray(ref["x"].data), np.asarray(got["x"].data)
        )


class TestRejections:
    def test_lt_gt_direction_vector_rejected(self):
        loop = loop_of(
            "DO i = 2, 11\n  DO j = 1, 11\n"
            "    x(i, j) = x(i - 1, j + 1) + 1\n  ENDDO\nENDDO"
        )
        with pytest.raises(TransformError, match=r"\(<, >\)"):
            interchange_loops(loop)

    def test_imperfect_nest_rejected(self):
        loop = loop_of(
            "DO i = 1, 9\n  s = i\n  DO j = 1, 9\n"
            "    x(i, j) = s\n  ENDDO\nENDDO"
        )
        with pytest.raises(TransformError):
            interchange_loops(loop)

    def test_triangular_bounds_rejected(self):
        loop = loop_of(
            "DO i = 1, 9\n  DO j = 1, i\n    x(i, j) = 1\n  ENDDO\nENDDO"
        )
        with pytest.raises(TransformError):
            interchange_loops(loop)

    def test_non_unit_stride_rejected(self):
        loop = loop_of(
            "DO i = 1, 9, 2\n  DO j = 1, 9\n    x(i, j) = 1\n  ENDDO\nENDDO"
        )
        with pytest.raises(TransformError):
            interchange_loops(loop)

    def test_single_loop_rejected(self):
        loop = loop_of("DO i = 1, 9\n  x(i) = i\nENDDO")
        with pytest.raises(TransformError):
            interchange_loops(loop)

    def test_fully_indirect_subscripts_rejected(self):
        # '*' entries at both levels forbid the swap: the index maps
        # could hide a (<, >) dependence.  (One indirect dimension is
        # not enough — x(idx(i), j) vs x(i, j) still pins level 2 to
        # '=' through the j dimension, and ('<', '=') swaps legally.)
        loop = loop_of(
            "DO i = 1, 9\n  DO j = 1, 9\n"
            "    x(idx(i), idx(j)) = x(i, j) + 1\n  ENDDO\nENDDO"
        )
        with pytest.raises(TransformError):
            interchange_loops(loop)

    def test_single_indirect_dimension_swaps_legally(self):
        loop = loop_of(
            "DO i = 1, 9\n  DO j = 1, 9\n"
            "    x(idx(i), j) = x(i, j) + 1\n  ENDDO\nENDDO"
        )
        [outer] = interchange_loops(loop)
        assert outer.var == "j"
