"""Backend autoselection and VM-vs-interpreter observational agreement."""

import numpy as np
import pytest

from repro.kernels.example import (
    P4_NAIVE_SIMD,
    P5_FLATTENED_SIMD,
    example_bindings,
)
from repro.kernels.nbforce import NBFORCE_FLAT
from repro.lang.errors import InterpreterError, TransformError
from repro.md.distribution import flat_kernel_bindings
from repro.md.forces import make_simd_force_external
from repro.runtime import Engine
from repro.simd.layout import DataDistribution

COUNTER_FIELDS = (
    "events",
    "layer_steps",
    "element_ops",
    "active_elements",
    "calls",
    "call_layer_steps",
    "section_events",
    "section_layer_steps",
)


def assert_same_counters(a, b):
    assert a.nproc == b.nproc
    for name in COUNTER_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert (a.lane_active_steps == b.lane_active_steps).all()


def assert_same_env(a, b):
    assert set(a) == set(b)
    for key in a:
        da = getattr(a[key], "data", a[key])
        db = getattr(b[key], "data", b[key])
        if isinstance(da, np.ndarray) or isinstance(db, np.ndarray):
            da, db = np.asarray(da), np.asarray(db)
            assert da.dtype == db.dtype, key
            assert np.array_equal(da, db), key
        else:
            assert da == db, key


@pytest.fixture()
def engine():
    return Engine()


class TestDifferential:
    @pytest.mark.parametrize("text", [P4_NAIVE_SIMD, P5_FLATTENED_SIMD],
                             ids=["naive", "flattened"])
    def test_example_kernels_agree(self, engine, text):
        program = engine.compile(text)
        auto = program.run(example_bindings(), nproc=2)
        interp = program.run(example_bindings(), nproc=2,
                             backend="interpreter")
        assert auto.backend == "vm" and interp.backend == "interpreter"
        assert_same_env(auto.env, interp.env)
        assert_same_counters(auto.counters, interp.counters)

    def test_nbforce_flat_agrees(self, engine, small_molecule, small_pairlist):
        dist = DataDistribution(n=small_pairlist.n_atoms, gran=8,
                                scheme="cyclic")
        program = engine.compile(NBFORCE_FLAT)
        runs = [
            program.run(
                flat_kernel_bindings(small_pairlist, dist),
                nproc=dist.gran,
                backend=backend,
                externals={"force": make_simd_force_external(small_molecule)},
            )
            for backend in ("auto", "interpreter")
        ]
        assert runs[0].backend == "vm"
        assert_same_env(runs[0].env, runs[1].env)
        assert_same_counters(runs[0].counters, runs[1].counters)


class TestSelection:
    def test_auto_prefers_vm(self, engine):
        result = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), nproc=2
        )
        assert result.backend == "vm"

    def test_statement_hook_forces_tree_walker(self, engine):
        seen = []
        result = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), nproc=2,
            statement_hook=lambda *a, **k: seen.append(a),
        )
        assert result.backend == "interpreter"
        assert seen

    def test_nproc_zero_selects_scalar(self, engine):
        from repro.kernels.example import P1_SEQUENTIAL

        result = engine.compile(P1_SEQUENTIAL).run(example_bindings())
        assert result.backend == "scalar" and result.nproc == 0

    def test_unknown_backend_rejected(self, engine):
        with pytest.raises(InterpreterError, match="unknown backend"):
            engine.compile(P5_FLATTENED_SIMD).run(
                example_bindings(), nproc=2, backend="gpu"
            )

    def test_vector_backend_needs_nproc(self, engine):
        with pytest.raises(InterpreterError, match="nproc"):
            engine.compile(P5_FLATTENED_SIMD).run(
                example_bindings(), backend="vm"
            )

    def test_scalar_backend_rejects_nproc(self, engine):
        with pytest.raises(InterpreterError, match="nproc=0"):
            engine.compile(P5_FLATTENED_SIMD).run(
                example_bindings(), nproc=2, backend="scalar"
            )

    def test_explicit_vm_reports_compile_failure(self, engine):
        # user subroutines do not lower to the linear ISA yet
        program = engine.compile(
            "PROGRAM p\n  INTEGER x\n  CALL f(x)\nEND\n"
            "SUBROUTINE f(a)\n  INTEGER a\n  a = 1\nEND"
        )
        assert program.bytecode() is None
        assert "subroutine" in program.bytecode_error
        with pytest.raises(TransformError, match="bytecode"):
            program.run({"x": 0}, nproc=2, backend="vm")
        # ...but auto quietly falls back to the tree-walker
        assert program.run({"x": 0}, nproc=2).backend == "interpreter"
