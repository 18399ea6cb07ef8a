"""Legality-checked loop fission (`repro.transform.fission`)."""

import numpy as np
import pytest

import repro
from repro.lang import ast, parse_source, parse_statements
from repro.lang.errors import TransformError
from repro.transform import fission_loop, fission_program


def loop_of(text):
    [stmt] = parse_statements(text)
    return stmt


def run_both(source, **kwargs):
    transformed = repro.compile(source, transform="fission", **kwargs)
    got = transformed.run({}, nproc=4).env
    ref = repro.run(source, nproc=4).env
    return transformed, got, ref


def arrays_equal(got, ref, names):
    for name in names:
        a = np.asarray(getattr(ref[name], "data", ref[name]))
        b = np.asarray(getattr(got[name], "data", got[name]))
        assert np.array_equal(a, b), name


CHAIN = """
PROGRAM chain
INTEGER n, i
INTEGER a(20), b(20), c(20)
n = 20
DO i = 1, n
  a(i) = i * 2
  c(i) = a(i) + 1
  b(i) = c(i) * 3
ENDDO
END
"""


class TestLegalFission:
    def test_chain_splits_into_three_loops(self):
        transformed, got, ref = run_both(CHAIN)
        loops = [
            s for s in transformed.tree.units[0].body if isinstance(s, ast.Do)
        ]
        assert len(loops) == 3
        assert [len(l.body) for l in loops] == [1, 1, 1]
        arrays_equal(got, ref, ("a", "b", "c"))

    def test_forward_recurrence_keeps_order(self):
        source = (
            "PROGRAM rec\nINTEGER i\nINTEGER x(20), y(20)\n"
            "DO i = 2, 19\n  x(i) = i\n  y(i) = x(i - 1) * 2\nENDDO\nEND\n"
        )
        transformed, got, ref = run_both(source)
        loops = [
            s for s in transformed.tree.units[0].body if isinstance(s, ast.Do)
        ]
        assert len(loops) == 2
        # the x-producing loop must come first
        assert isinstance(loops[0].body[0], ast.Assign)
        assert loops[0].body[0].target.name == "x"
        arrays_equal(got, ref, ("x", "y"))

    def test_anti_dependence_respected(self):
        # x(i) reads y(i + 1) before the second statement overwrites it.
        source = (
            "PROGRAM anti\nINTEGER i\nINTEGER x(20), y(20)\n"
            "DO i = 1, 19\n  y(i) = i * 7\nENDDO\n"
            "DO i = 1, 18\n  x(i) = y(i + 1)\n  y(i) = i\nENDDO\nEND\n"
        )
        transformed, got, ref = run_both(source, nest_index=1)
        arrays_equal(got, ref, ("x", "y"))


class TestRejections:
    def test_dependence_cycle_rejected(self):
        loop = loop_of(
            "DO i = 2, 19\n  x(i) = y(i - 1) + 1\n  y(i) = x(i - 1) + 2\nENDDO"
        )
        with pytest.raises(TransformError, match="cycle"):
            fission_loop(loop)

    def test_single_statement_rejected(self):
        loop = loop_of("DO i = 1, 9\n  x(i) = i\nENDDO")
        with pytest.raises(TransformError):
            fission_loop(loop)

    def test_call_rejected(self):
        loop = loop_of("DO i = 1, 9\n  x(i) = i\n  CALL f(s)\nENDDO")
        with pytest.raises(TransformError, match="CALL"):
            fission_loop(loop)

    def test_exit_at_loop_level_rejected(self):
        loop = loop_of(
            "DO i = 1, 9\n  x(i) = i\n  y(i) = i\n"
            "  IF (x(i) .GT. 5) THEN\n    EXIT\n  ENDIF\nENDDO"
        )
        with pytest.raises(TransformError):
            fission_loop(loop)

    def test_loop_var_assignment_rejected(self):
        loop = loop_of("DO i = 1, 9\n  x(i) = i\n  i = i + 1\nENDDO")
        with pytest.raises(TransformError):
            fission_loop(loop)

    def test_no_loop_in_program(self):
        tree = parse_source("PROGRAM p\nINTEGER s\ns = 1\nEND\n")
        with pytest.raises(TransformError, match="no distributable loop"):
            fission_program(tree)
