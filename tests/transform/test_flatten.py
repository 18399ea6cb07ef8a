"""Loop flattening unit tests (Figures 9-12)."""

import numpy as np
import pytest

import repro
from repro.lang import ast, parse_source, parse_statements
from repro.lang.errors import TransformError
from repro.transform import (
    extract_nest,
    flatten_done,
    flatten_general,
    flatten_loop_nest,
    flatten_optimized,
    introduce_guards,
)

NEST = """DO i = 1, k
  DO j = 1, l(i)
    x(i, j) = i * j
  ENDDO
ENDDO"""

IMPERFECT_NEST = """DO i = 1, k
  f(i) = 0
  DO j = 1, l(i)
    f(i) = f(i) + i * j
  ENDDO
  g(i) = f(i) * 2
ENDDO"""


def nest_of(text):
    [stmt] = parse_statements(text)
    return extract_nest(stmt)


def run_body(stmts, bindings):
    prog = ast.SourceFile(
        [
            ast.Routine(
                "program",
                "p",
                [],
                parse_statements("INTEGER l(8), x(8, 4)\nREAL f(8), g(8)\nk = 8")
                + stmts,
            )
        ]
    )
    result = repro.run(prog, bindings=bindings, backend="scalar")
    env, counters = result.env, result.counters
    return env, counters


L = np.array([4, 1, 2, 1, 1, 3, 1, 3])


def expected_x():
    out = np.zeros((8, 4), dtype=np.int64)
    for i in range(8):
        for j in range(L[i]):
            out[i, j] = (i + 1) * (j + 1)
    return out


class TestExtractNest:
    def test_perfect_nest(self):
        nest = nest_of(NEST)
        assert nest.outer.var == "i"
        assert nest.inner.var == "j"
        assert nest.pre == [] and nest.post == []

    def test_imperfect_nest_pre_post(self):
        nest = nest_of(IMPERFECT_NEST)
        assert len(nest.pre) == 1
        assert len(nest.post) == 1

    def test_no_inner_loop_rejected(self):
        with pytest.raises(TransformError, match="no inner loop"):
            nest_of("DO i = 1, k\n  x(i, 1) = i\nENDDO")

    def test_sibling_loops_rejected(self):
        text = (
            "DO i = 1, k\n  DO j = 1, 2\n  ENDDO\n  DO j = 1, 3\n  ENDDO\nENDDO"
        )
        with pytest.raises(TransformError, match="several loops"):
            nest_of(text)

    def test_non_loop_rejected(self):
        with pytest.raises(TransformError):
            extract_nest(parse_statements("x = 1")[0])


class TestGuards:
    def test_guard_flags_preserve_semantics(self):
        guarded = introduce_guards(nest_of(NEST))
        env, _ = run_body(guarded, {"l": L})
        assert (env["x"].data == expected_x()).all()

    def test_fresh_flag_names_avoid_collisions(self):
        text = "DO i = 1, k\n  t1 = 0\n  DO j = 1, l(i)\n    x(i, j) = t1\n  ENDDO\nENDDO"
        guarded = introduce_guards(nest_of(text))
        names = {
            n.name for n in ast.walk_body(guarded) if isinstance(n, ast.Var)
        }
        assert "t12" in names or "t1_2" in names or any(
            name.startswith("t1") and name != "t1" for name in names
        )


class TestVariants:
    @pytest.mark.parametrize(
        "flatten",
        [
            flatten_general,
            lambda nest: flatten_optimized(nest, assume_min_trips=True),
            lambda nest: flatten_done(nest, assume_min_trips=True),
        ],
        ids=["general", "optimized", "done"],
    )
    def test_semantics_preserved(self, flatten):
        flat = flatten(nest_of(NEST))
        env, _ = run_body(flat, {"l": L})
        assert (env["x"].data == expected_x()).all()

    @pytest.mark.parametrize(
        "flatten",
        [
            flatten_general,
            lambda nest: flatten_optimized(nest, assume_min_trips=True),
            lambda nest: flatten_done(nest, assume_min_trips=True),
        ],
        ids=["general", "optimized", "done"],
    )
    def test_imperfect_nest_pre_post_preserved(self, flatten):
        flat = flatten(nest_of(IMPERFECT_NEST))
        env, _ = run_body(flat, {"l": L})
        f = env["f"].data
        g = env["g"].data
        expected_f = expected_x().sum(axis=1)
        assert np.allclose(f, expected_f)
        assert np.allclose(g, 2 * expected_f)

    def test_general_handles_zero_trip_inner(self):
        trips = np.array([2, 0, 0, 3, 0, 1, 0, 0])
        flat = flatten_general(nest_of(NEST))
        env, _ = run_body(flat, {"l": trips})
        expected = np.zeros((8, 4), dtype=np.int64)
        for i in range(8):
            for j in range(trips[i]):
                expected[i, j] = (i + 1) * (j + 1)
        assert (env["x"].data == expected).all()

    def test_single_loop_structure(self):
        """Flattened code has exactly one WHILE at top level (Figs 11/12)."""
        flat = flatten_done(nest_of(NEST), assume_min_trips=True)
        whiles = [s for s in flat if isinstance(s, ast.While)]
        assert len(whiles) == 1
        # and no loop nested inside its body
        inner_loops = [
            s
            for s in ast.walk_body(whiles[0].body)
            if isinstance(s, (ast.Do, ast.While, ast.DoWhile))
        ]
        assert inner_loops == []

    def test_optimized_requires_min_trips(self):
        with pytest.raises(TransformError, match="at least once"):
            flatten_optimized(nest_of(NEST))

    def test_optimized_on_literal_bounds_needs_no_assumption(self):
        text = "DO i = 1, 8\n  DO j = 1, 4\n    x(i, j) = i * j\n  ENDDO\nENDDO"
        flat = flatten_optimized(nest_of(text))
        env, _ = run_body(flat, {"l": L})
        assert env["x"].data[7, 3] == 32

    def test_done_requires_done_test(self):
        text = "DO i = 1, k\n  DO WHILE (x(i, 1) < i)\n    x(i, 1) = x(i, 1) + 1\n  ENDDO\nENDDO"
        with pytest.raises(TransformError, match="done"):
            flatten_done(nest_of(text), assume_min_trips=True)

    def test_while_inner_loop_flattens_via_optimized(self):
        text = (
            "DO i = 1, k\n  j = 1\n  DO WHILE (j <= l(i))\n"
            "    x(i, j) = i * j\n    j = j + 1\n  ENDDO\nENDDO"
        )
        flat = flatten_optimized(nest_of(text), assume_min_trips=True)
        env, _ = run_body(flat, {"l": L})
        assert (env["x"].data == expected_x()).all()


class TestDriver:
    def test_auto_picks_done_for_counted_inner(self):
        [stmt] = parse_statements(NEST)
        flat = flatten_loop_nest(stmt, variant="auto", assume_min_trips=True)
        env, _ = run_body(flat, {"l": L})
        assert (env["x"].data == expected_x()).all()

    def test_auto_falls_back_to_general(self):
        [stmt] = parse_statements(NEST)
        flat = flatten_loop_nest(stmt, variant="auto")
        # without the min-trips assertion auto must use the general form:
        # recognizable by its latched guard flags
        names = {n.name for n in ast.walk_body(flat) if isinstance(n, ast.Var)}
        assert "t1" in names and "t2" in names

    def test_unknown_variant_rejected(self):
        [stmt] = parse_statements(NEST)
        with pytest.raises(TransformError):
            flatten_loop_nest(stmt, variant="turbo")

    def test_explicit_variants(self):
        [stmt] = parse_statements(NEST)
        for variant in ("general", "optimized", "done"):
            flat = flatten_loop_nest(
                stmt, variant=variant, assume_min_trips=True
            )
            env, _ = run_body(flat, {"l": L})
            assert (env["x"].data == expected_x()).all()

    def test_exact_figure7_shape(self):
        """flatten done + SIMDize must produce the paper's Figure 7."""
        from repro.transform import simdize_structured

        [stmt] = parse_statements(NEST)
        flat = simdize_structured(
            flatten_loop_nest(stmt, variant="done", assume_min_trips=True)
        )
        expected = parse_statements(
            """i = 1
j = 1
WHILE (ANY(i <= k))
  WHERE (i <= k)
    x(i, j) = i * j
    WHERE (j >= l(i))
      i = i + 1
      j = 1
    ELSEWHERE
      j = j + 1
    ENDWHERE
  ENDWHERE
ENDWHILE"""
        )
        assert flat == expected
