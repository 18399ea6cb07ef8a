"""Tests of the tree-walking lockstep interpreter, the VM's test-only
twin (:mod:`repro.fuzz.twin`)."""

import numpy as np
import pytest

from repro.fuzz.twin import run_twin
from repro.lang.errors import InterpreterError


def run(text, nproc, bindings=None, externals=None):
    return run_twin(text, nproc, bindings, externals)


class TestReplication:
    def test_scalar_assignment_visible_everywhere(self):
        env, _ = run("PROGRAM p\n  x = 3\n  y = x + 1\nEND", 4)
        assert env["y"] == 4

    def test_vector_literal_must_match_pe_count(self):
        with pytest.raises(InterpreterError):
            run("PROGRAM p\n  v = [1, 2, 3]\nEND", 2)

    def test_range_vector(self):
        env, _ = run("PROGRAM p\n  v = [1 : 4]\nEND", 4)
        assert env["v"].tolist() == [1, 2, 3, 4]

    def test_vector_arithmetic(self):
        env, _ = run("PROGRAM p\n  v = [1 : 3] * 2 + 1\nEND", 3)
        assert env["v"].tolist() == [3, 5, 7]


class TestWhere:
    def test_masked_scalar_update(self):
        env, _ = run(
            "PROGRAM p\n  v = [1 : 4]\n  WHERE (v > 2) v = 0\nEND", 4
        )
        assert env["v"].tolist() == [1, 2, 0, 0]

    def test_elsewhere(self):
        env, _ = run(
            "PROGRAM p\n  v = [1 : 4]\n  WHERE (v > 2)\n    v = 0\n"
            "  ELSEWHERE\n    v = 9\n  ENDWHERE\nEND",
            4,
        )
        assert env["v"].tolist() == [9, 9, 0, 0]

    def test_nested_where_intersects_masks(self):
        env, _ = run(
            "PROGRAM p\n  v = [1 : 4]\n  WHERE (v > 1)\n"
            "    WHERE (v < 4) v = 0\n  ENDWHERE\nEND",
            4,
        )
        assert env["v"].tolist() == [1, 0, 0, 4]

    def test_partial_mask_first_write_zero_fills_idle_lanes(self):
        # Uninitialized per-PE memory reads as zero on masked lanes.
        env, _ = run("PROGRAM p\n  v = [1 : 2]\n  WHERE (v > 1) w = 1\nEND", 2)
        assert env["w"].tolist() == [0, 1]

    def test_where_with_empty_mask_still_executes_safely(self):
        env, _ = run(
            "PROGRAM p\n  v = [1 : 2]\n  WHERE (v > 99) v = 0\nEND", 2
        )
        assert env["v"].tolist() == [1, 2]

    def test_replicated_scalar_becomes_vector_under_mask(self):
        env, _ = run(
            "PROGRAM p\n  x = 10\n  v = [1 : 3]\n  WHERE (v == 2) x = 99\nEND", 3
        )
        assert env["x"].tolist() == [10, 99, 10]


class TestControlUniformity:
    def test_if_with_divergent_condition_raises(self):
        with pytest.raises(InterpreterError, match="diverges"):
            run("PROGRAM p\n  v = [1 : 2]\n  IF (v > 1) THEN\n    x = 1\n  ENDIF\nEND", 2)

    def test_if_with_uniform_vector_condition_ok(self):
        env, _ = run(
            "PROGRAM p\n  v = [1 : 2] * 0\n  IF (v == 0) THEN\n    x = 1\n  ENDIF\nEND", 2
        )
        assert env["x"] == 1

    def test_do_bound_must_be_uniform(self):
        with pytest.raises(InterpreterError, match="SIMDize"):
            run("PROGRAM p\n  v = [1 : 2]\n  DO i = 1, v\n  ENDDO\nEND", 2)

    def test_do_bound_uniform_over_active_lanes_ok(self):
        # Divergent bound but only one active lane: legal on SIMD.
        env, _ = run(
            "PROGRAM p\n  v = [1 : 2]\n  s = 0\n  WHERE (v == 2)\n"
            "    DO i = 1, v\n      s = s + 1\n    ENDDO\n  ENDWHERE\nEND",
            2,
        )
        assert env["s"].tolist() == [0, 2]

    def test_while_any_loop(self):
        env, _ = run(
            "PROGRAM p\n  v = [1 : 3]\n  WHILE (ANY(v < 3))\n"
            "    WHERE (v < 3) v = v + 1\n  ENDWHILE\nEND",
            3,
        )
        assert env["v"].tolist() == [3, 3, 3]

    def test_while_divergent_vector_condition_raises(self):
        with pytest.raises(InterpreterError):
            run(
                "PROGRAM p\n  v = [1 : 2]\n  WHILE (v < 2)\n    v = v + 1\n  ENDWHILE\nEND",
                2,
            )

    def test_goto_under_partial_mask_raises(self):
        with pytest.raises(InterpreterError, match="GOTO"):
            run(
                "PROGRAM p\n  v = [1 : 2]\n  WHERE (v > 1)\n    GOTO 10\n  ENDWHERE\n"
                "10 CONTINUE\nEND",
                2,
            )


class TestGatherScatter:
    def test_gather(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(4)\n  a = 0\n  a(2) = 7\n  a(4) = 9\n"
            "  idx = [2, 4]\n  v = a(idx)\nEND",
            2,
        )
        assert env["v"].tolist() == [7, 9]

    def test_scatter(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(4)\n  idx = [2, 4]\n  a(idx) = [10, 20]\nEND", 2
        )
        assert env["a"].data.tolist() == [0, 10, 0, 20]

    def test_masked_scatter_only_writes_active_lanes(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(4)\n  idx = [2, 4]\n  m = [1, 2]\n"
            "  WHERE (m == 1) a(idx) = 5\nEND",
            2,
        )
        assert env["a"].data.tolist() == [0, 5, 0, 0]

    def test_gather_out_of_bounds_on_active_lane_raises(self):
        with pytest.raises(InterpreterError):
            run("PROGRAM p\n  INTEGER a(4)\n  idx = [2, 9]\n  v = a(idx)\nEND", 2)

    def test_gather_out_of_bounds_on_inactive_lane_is_clamped(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(4)\n  a = 1\n  idx = [2, 9]\n  v = 0\n"
            "  WHERE (idx <= 4) v = a(idx)\nEND",
            2,
        )
        assert env["v"].tolist() == [1, 0]

    def test_scatter_out_of_bounds_on_active_lane_raises(self):
        with pytest.raises(InterpreterError):
            run("PROGRAM p\n  INTEGER a(4)\n  idx = [0, 1]\n  a(idx) = 1\nEND", 2)

    def test_two_dim_gather(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(2, 3)\n  a(1, 3) = 5\n  a(2, 1) = 6\n"
            "  r = [1, 2]\n  c = [3, 1]\n  v = a(r, c)\nEND",
            2,
        )
        assert env["v"].tolist() == [5, 6]

    def test_gather_counts_event(self):
        _, counters = run(
            "PROGRAM p\n  INTEGER a(4)\n  idx = [1, 2]\n  v = a(idx)\nEND", 2
        )
        assert counters.events["gather"] == 1


class TestSections:
    def test_section_copy(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(2, 3), b(2, 3)\n  a = 4\n  b(:, 1:2) = a(:, 1:2)\nEND",
            2,
        )
        assert env["b"].data.tolist() == [[4, 4, 0], [4, 4, 0]]

    def test_section_op_records_layers(self):
        _, counters = run(
            "PROGRAM p\n  INTEGER a(2, 3), b(2, 3)\n  a = 1\n  b = a + 1\nEND", 2
        )
        assert counters.section_layer_steps["int_op"] == 3

    def test_layered_where_mask(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(2, 2), m(2, 2)\n  m(1, 1) = 1\n  m(2, 2) = 1\n"
            "  WHERE (m == 1) a = 9\nEND",
            2,
        )
        assert env["a"].data.tolist() == [[9, 0], [0, 9]]

    def test_whole_array_assign_under_lane_mask(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(2, 2)\n  v = [1 : 2]\n  WHERE (v == 1) a = 7\nEND",
            2,
        )
        assert env["a"].data.tolist() == [[7, 7], [0, 0]]


class TestUtilization:
    def test_full_activity_utilization_is_one(self):
        _, counters = run("PROGRAM p\n  v = [1 : 2] + 1\nEND", 2)
        assert counters.mean_utilization() == pytest.approx(1.0)

    def test_masked_run_shows_idle_lanes(self):
        _, counters = run(
            "PROGRAM p\n  v = [1 : 4]\n  x = 0\n  y = 0\n"
            "  WHERE (v == 1)\n    x = v + 1\n    y = x * 2\n  ENDWHERE\nEND",
            4,
        )
        utilization = counters.utilization()
        assert utilization[0] > utilization[1]
