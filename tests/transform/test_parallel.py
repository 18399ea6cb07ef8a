"""SPMD partitioning + flattening pipeline tests."""

import numpy as np
import pytest

import repro
from repro.lang import ast, parse_source, parse_statements
from repro.lang.errors import TransformError
from repro.transform.parallel import flatten_spmd, partition_outer

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


def build_program(tree, replacement):
    unit = tree.main
    index = next(i for i, s in enumerate(unit.body) if isinstance(s, ast.Do))
    body = unit.body[:index] + replacement + unit.body[index + 1:]
    return ast.SourceFile([ast.Routine("program", "flat", [], body)])


def reference_x():
    tree = parse_source(P1)
    env = repro.run(tree, bindings={"l": L}, backend="scalar").env
    return env["x"].data.copy()


class TestPartitionOuter:
    def test_cyclic_init_is_iota(self):
        [stmt] = parse_statements("DO i = 1, n\n  x(i, 1) = i\nENDDO")
        setup, outer = partition_outer(stmt, nproc=ast.Var("p"), layout="cyclic")
        assert setup == []
        assert isinstance(outer.init[0].value, ast.BinOp)
        assert outer.done is not None

    def test_block_setup_computes_chunk(self):
        [stmt] = parse_statements("DO i = 1, n\n  x(i, 1) = i\nENDDO")
        setup, outer = partition_outer(stmt, nproc=4, layout="block")
        assert len(setup) == 1  # chunk computation
        assert len(outer.init) == 2  # start and per-PE last

    def test_non_unit_stride_rejected(self):
        [stmt] = parse_statements("DO i = 1, n, 2\n  x(i, 1) = i\nENDDO")
        with pytest.raises(TransformError):
            partition_outer(stmt, nproc=2)

    def test_bad_layout_rejected(self):
        [stmt] = parse_statements("DO i = 1, n\n  x(i, 1) = i\nENDDO")
        with pytest.raises(TransformError):
            partition_outer(stmt, nproc=2, layout="nope")


class TestFlattenSPMD:
    @pytest.mark.parametrize("layout", ["block", "cyclic"])
    @pytest.mark.parametrize("variant", ["general", "optimized", "done"])
    @pytest.mark.parametrize("nproc", [1, 2, 3, 8])
    def test_all_combinations_correct(self, layout, variant, nproc):
        tree = parse_source(P1)
        loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
        flat = flatten_spmd(
            loop, nproc=nproc, layout=layout, variant=variant, assume_min_trips=True
        )
        prog = build_program(tree, flat)
        env = repro.run(prog, nproc=nproc, bindings={"l": L}, backend="interpreter").env
        assert (env["x"].data == reference_x()).all(), (layout, variant, nproc)

    def test_flattened_step_count_reaches_mimd_bound(self):
        """Equation 1: flattened SIMD needs max_p Σ L steps (8 here)."""
        tree = parse_source(P1)
        loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
        for layout, expected in (("block", 8), ("cyclic", 8)):
            flat = flatten_spmd(
                loop, nproc=2, layout=layout, variant="done", assume_min_trips=True
            )
            prog = build_program(tree, flat)
            counters = repro.run(
                prog, nproc=2, bindings={"l": L}, backend="interpreter"
            ).counters
            assert counters.events["scatter"] == expected

    def test_more_lanes_than_iterations(self):
        """Gran > K: excess lanes idle from the start (guarded init)."""
        tree = parse_source(P1)
        loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
        flat = flatten_spmd(
            loop, nproc=16, layout="cyclic", variant="done", assume_min_trips=True
        )
        prog = build_program(tree, flat)
        env = repro.run(prog, nproc=16, bindings={"l": L}, backend="interpreter").env
        assert (env["x"].data == reference_x()).all()

    def test_imperfect_nest_with_pre_statement(self):
        src = parse_source(
            "PROGRAM p\n  INTEGER l(8)\n  REAL f(8)\n"
            "  DO i = 1, 8\n    f(i) = 0.0\n"
            "    DO j = 1, l(i)\n      f(i) = f(i) + j\n    ENDDO\n  ENDDO\nEND"
        )
        loop = next(s for s in src.main.body if isinstance(s, ast.Do))
        flat = flatten_spmd(
            loop, nproc=3, layout="cyclic", variant="done", assume_min_trips=True
        )
        prog = build_program(src, flat)
        env = repro.run(prog, nproc=3, bindings={"l": L}, backend="interpreter").env
        expected = np.array([l * (l + 1) / 2 for l in L], dtype=float)
        assert np.allclose(env["f"].data, expected)

    def test_f77_output_when_simd_false(self):
        tree = parse_source(P1)
        loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
        flat = flatten_spmd(
            loop, nproc=1, layout="cyclic", variant="done",
            assume_min_trips=True, simd=False,
        )
        assert not any(isinstance(s, ast.Where) for s in ast.walk_body(flat))
        prog = build_program(tree, flat)
        env = repro.run(prog, bindings={"l": L}, backend="scalar").env
        assert (env["x"].data == reference_x()).all()

    def test_unknown_variant_rejected(self):
        tree = parse_source(P1)
        loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
        with pytest.raises(TransformError):
            flatten_spmd(loop, nproc=2, variant="bogus")
