"""EXAMPLE kernel tests: the paper's P1-P5 programs."""

import numpy as np
import pytest

import repro
from repro.kernels import example as ex
from repro.lang import check_source


@pytest.fixture(scope="module")
def expected():
    return ex.expected_x()


class TestPrograms:
    def test_all_programs_parse_and_check(self):
        for text in (
            ex.P1_SEQUENTIAL,
            ex.P2_FORTRAN_D,
            ex.P3_MIMD,
            ex.P4_NAIVE_SIMD,
            ex.P5_FLATTENED_SIMD,
            ex.P1_GOTO,
        ):
            tree = ex.parse_example(text)
            check_source(tree)

    def test_p1_sequential(self, expected):
        env = repro.run(
            ex.parse_example(ex.P1_SEQUENTIAL),
            bindings=ex.example_bindings(),
            backend="scalar",
        ).env
        assert (env["x"].data == expected).all()

    def test_p2_fortran_d_runs_sequentially(self, expected):
        env = repro.run(
            ex.parse_example(ex.P2_FORTRAN_D),
            bindings=ex.example_bindings(),
            backend="scalar",
        ).env
        assert (env["x"].data == expected).all()

    def test_p3_mimd(self, expected):
        result = repro.run(
            ex.parse_example(ex.P3_MIMD),
            nproc=ex.EXAMPLE_P,
            bindings_for=ex.mimd_bindings,
            backend="mimd",
        )
        stacked = np.vstack([env["xloc"].data for env in result.envs])
        assert (stacked == expected).all()

    def test_p4_naive_simd(self, expected):
        result = repro.run(
            ex.parse_example(ex.P4_NAIVE_SIMD),
            nproc=ex.EXAMPLE_P,
            bindings=ex.example_bindings(),
            backend="interpreter",
        )
        env, counters = result.env, result.counters
        assert (env["x"].data == expected).all()
        assert counters.events["scatter"] == 12  # Equation 2

    def test_p5_flattened_simd(self, expected):
        result = repro.run(
            ex.parse_example(ex.P5_FLATTENED_SIMD),
            nproc=ex.EXAMPLE_P,
            bindings=ex.example_bindings(),
            backend="interpreter",
        )
        env, counters = result.env, result.counters
        assert (env["x"].data == expected).all()
        assert counters.events["scatter"] == 8  # Equation 1

    def test_p1_goto_variant(self, expected):
        env = repro.run(
            ex.parse_example(ex.P1_GOTO),
            bindings=ex.example_bindings(),
            backend="scalar",
        ).env
        assert (env["x"].data == expected).all()


class TestWorkload:
    def test_paper_workload_constants(self):
        assert ex.EXAMPLE_K == 8
        assert ex.EXAMPLE_L == (4, 1, 2, 1, 1, 3, 1, 3)
        assert ex.EXAMPLE_P == 2

    def test_mimd_bindings_partition(self):
        first = ex.mimd_bindings(1)["lloc"]
        second = ex.mimd_bindings(2)["lloc"]
        assert first.tolist() == [4, 1, 2, 1]
        assert second.tolist() == [1, 3, 1, 3]

    def test_expected_x_spot_values(self, expected):
        assert expected[0, 3] == 4  # i=1, j=4
        assert expected[7, 2] == 24  # i=8, j=3
        assert expected[1, 1] == 0  # l(2)=1, j=2 never runs

    def test_body_predicate(self):
        tree = ex.parse_example(ex.P1_SEQUENTIAL)
        from repro.lang import ast

        matches = [
            s for s in ast.walk_body(tree.main.body) if isinstance(s, ast.Stmt)
            and ex.is_body_statement(s)
        ]
        assert len(matches) == 1
