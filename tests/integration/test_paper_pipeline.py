"""End-to-end integration: the paper's full story on the EXAMPLE nest.

From the single sequential source P1, the compiler pipeline must
*derive* every other version of Section 3 — and the derived programs
must behave exactly like the paper's hand-written ones (P4, P5),
including their lockstep step counts.
"""

import numpy as np
import pytest

import repro
from repro.analysis import evaluate_flattening
from repro.eval.timing import time_mimd, time_simd_naive
from repro.kernels import example as ex
from repro.lang import ast
from repro.transform import naive_simd_program
from repro.transform.parallel import flatten_spmd


@pytest.fixture(scope="module")
def p1():
    return ex.parse_example(ex.P1_SEQUENTIAL)


@pytest.fixture(scope="module")
def expected():
    return ex.expected_x()


def splice(tree, replacement):
    unit = tree.main
    index = next(i for i, s in enumerate(unit.body) if isinstance(s, ast.Do))
    body = unit.body[:index] + replacement + unit.body[index + 1:]
    return ast.SourceFile([ast.Routine("program", "p", [], body)])


class TestDerivedVersions:
    def test_compiler_report_recommends_flattening(self, p1):
        loop = next(s for s in p1.main.body if isinstance(s, ast.Do))
        report = evaluate_flattening(loop, assume_min_trips=True)
        assert report.recommended
        assert report.variant == "done"

    def test_derived_naive_simd_equals_handwritten_p4(self, p1, expected):
        derived = naive_simd_program(p1, nproc=2, layout="block")
        result = repro.run(
            derived, nproc=2, bindings=ex.example_bindings(), backend="interpreter"
        )
        env_d, counters_d = result.env, result.counters
        result = repro.run(
            ex.parse_example(ex.P4_NAIVE_SIMD),
            nproc=2,
            bindings=ex.example_bindings(),
            backend="interpreter",
        )
        env_h, counters_h = result.env, result.counters
        assert (env_d["x"].data == expected).all()
        assert (env_h["x"].data == expected).all()
        # identical useful-work step counts (Eq. 2's 12 steps)
        assert counters_d.events["scatter"] == counters_h.events["scatter"] == 12

    def test_derived_flattened_equals_handwritten_p5(self, p1, expected):
        loop = next(s for s in p1.main.body if isinstance(s, ast.Do))
        flat = flatten_spmd(
            loop, nproc=2, layout="block", variant="done", assume_min_trips=True
        )
        derived = splice(p1, flat)
        result = repro.run(
            derived, nproc=2, bindings=ex.example_bindings(), backend="interpreter"
        )
        env_d, counters_d = result.env, result.counters
        result = repro.run(
            ex.parse_example(ex.P5_FLATTENED_SIMD),
            nproc=2,
            bindings=ex.example_bindings(),
            backend="interpreter",
        )
        env_h, counters_h = result.env, result.counters
        assert (env_d["x"].data == expected).all()
        assert (env_h["x"].data == expected).all()
        assert counters_d.events["scatter"] == counters_h.events["scatter"] == 8

    def test_equations_match_simulators(self):
        trips = [[4, 1, 2, 1], [1, 3, 1, 3]]  # block partition of L
        assert time_mimd(trips) == 8
        assert time_simd_naive(trips) == 12

    def test_mimd_simulation_matches_equation_1(self, expected):
        result = repro.run(
            ex.parse_example(ex.P3_MIMD),
            nproc=2,
            bindings_for=ex.mimd_bindings,
            backend="mimd",
        )
        assert result.time_calls("force") == 0  # no calls in EXAMPLE
        per_proc_stores = [c.events["store"] for c in result.counters]
        # each processor stores once per body execution: 8 each
        assert per_proc_stores == [8, 8]


class TestDustyDeck:
    def test_goto_source_flattens_end_to_end(self, expected):
        """dusty-deck F77 -> structurize (GOTO loops raised, counted
        WHILEs recognized as DOs) -> partition -> flatten -> SIMDize."""
        from repro.transform import structurize_program

        tree = structurize_program(ex.parse_example(ex.P1_GOTO))
        loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
        flat = flatten_spmd(
            loop, nproc=2, layout="block", variant="general", simd=True
        )
        index = tree.main.body.index(loop)
        body = tree.main.body[:index] + flat + tree.main.body[index + 1:]
        prog = ast.SourceFile([ast.Routine("program", "p", [], body)])
        env = repro.run(
            prog, nproc=2, bindings=ex.example_bindings(), backend="interpreter"
        ).env
        assert (env["x"].data == expected).all()

    def test_structurized_goto_nest_becomes_counted_dos(self):
        from repro.transform import structurize_program

        tree = structurize_program(ex.parse_example(ex.P1_GOTO))
        dos = [s for s in ast.walk_body(tree.main.body) if isinstance(s, ast.Do)]
        assert len(dos) == 2
        assert {d.var for d in dos} == {"i", "j"}
