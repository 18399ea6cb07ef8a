"""VM error paths: classification, location, snapshot.

Each failure mode must (a) raise the right member of the taxonomy,
(b) point at the offending source line, and (c) carry a machine
snapshot usable as a crash dump.  The ``interpreter`` cases hold the
VM's tree-walking twin (:mod:`repro.fuzz.twin`) to (a) and (b); it
takes no snapshots.
"""

import numpy as np
import pytest

from repro.fuzz.twin import run_twin
from repro.lang.errors import InterpreterError
from repro.reliability import DivergenceFault, OutOfBoundsFault, crash_dump_for
from repro.runtime import Engine
from repro.vm.isa import CodeObject, Instr, Op
from repro.vm.machine import SIMDVirtualMachine, _Epoch

BOTH = pytest.mark.parametrize("backend", ["vm", "interpreter"])


@pytest.fixture()
def engine():
    return Engine()


def run(engine, text, bindings=None, *, nproc, backend):
    if backend == "interpreter":
        return run_twin(text, nproc, bindings)
    return engine.run(text, bindings, nproc=nproc, backend=backend)


def assert_snapshot(error, backend):
    if backend == "vm":
        assert error.snapshot is not None


ZERO_STRIDE = """
PROGRAM p
  INTEGER i, s
  DO i = 1, 4, s
    x = i
  ENDDO
END
"""

UNKNOWN_CALL = """
PROGRAM p
  x = 1
  CALL frob(x)
END
"""

DIVERGENT_IF = """
PROGRAM p
  v = [1 : 4]
  IF (v > 2) THEN
    x = 1
  ENDIF
END
"""

OOB_READ = """
PROGRAM p
  REAL a(8)
  i = 9
  x = a(i)
END
"""


class TestZeroStrideDo:
    @BOTH
    def test_raises_located_interpreter_error(self, engine, backend):
        with pytest.raises(InterpreterError, match="stride is zero") as excinfo:
            run(engine, ZERO_STRIDE, {"s": 0}, nproc=2, backend=backend)
        error = excinfo.value
        assert error.location.line == 4  # the DO statement
        assert_snapshot(error, backend)
        dump = crash_dump_for(error)
        assert dump["error"] == "InterpreterError"
        assert ":4:" in dump["location"]


class TestUnknownExternalCall:
    @BOTH
    def test_raises_located_error(self, engine, backend):
        with pytest.raises(InterpreterError, match="unknown") as excinfo:
            run(engine, UNKNOWN_CALL, nproc=2, backend=backend)
        assert excinfo.value.location.line == 4
        assert_snapshot(excinfo.value, backend)


class TestDivergentControlFlow:
    @BOTH
    def test_divergent_if_is_a_divergence_fault(self, engine, backend):
        with pytest.raises(DivergenceFault, match="diverges") as excinfo:
            run(engine, DIVERGENT_IF, nproc=4, backend=backend)
        assert excinfo.value.location.line == 4
        assert excinfo.value.retryable is False

    def test_no_active_pes_reduction(self):
        vm = SIMDVirtualMachine(4)
        vm._epoch = _Epoch(np.zeros(4, dtype=bool), 4)
        with pytest.raises(InterpreterError, match="no active PEs"):
            vm._uniform_int(np.arange(4), "limit")


class TestSubscriptBounds:
    @BOTH
    def test_oob_read_is_classified_and_located(self, engine, backend):
        with pytest.raises(OutOfBoundsFault, match="out of bounds") as excinfo:
            run(engine, OOB_READ, nproc=2, backend=backend)
        error = excinfo.value
        assert error.location.line == 5
        assert_snapshot(error, backend)
        assert "extent 8" in str(error)

    def test_scalar_backend_locates_too(self, engine):
        with pytest.raises(OutOfBoundsFault) as excinfo:
            engine.run(OOB_READ, backend="scalar")
        assert excinfo.value.location.line == 5


class TestBareMaskOpcodes:
    """Hand-built bytecode hitting the VM's mask-stack guards."""

    def _run(self, *instrs):
        code = CodeObject("p", tuple(instrs) + (Instr(Op.HALT),))
        SIMDVirtualMachine(2).run(code)

    def test_else_mask_with_empty_stack(self):
        with pytest.raises(InterpreterError, match="ELSE_MASK with empty"):
            self._run(Instr(Op.ELSE_MASK))

    def test_pop_mask_with_empty_stack(self):
        with pytest.raises(InterpreterError, match="POP_MASK with empty"):
            self._run(Instr(Op.POP_MASK))

    def test_guard_errors_carry_snapshot(self):
        with pytest.raises(InterpreterError) as excinfo:
            self._run(Instr(Op.POP_MASK))
        snap = excinfo.value.snapshot
        assert snap is not None and snap.backend == "vm"
        assert snap.pc == 0


class TestWholeArraySubscript:
    """P4 subscripts ``l`` with the whole array ``iprime``: a located
    interpreter error with a crash dump, never a bare ``TypeError``
    (nor, on pmimd, a worker crash that burns replays)."""

    @pytest.mark.parametrize("backend", ["scalar", "mimd", "pmimd"])
    def test_is_a_located_non_retryable_error(self, engine, backend):
        from repro.kernels.example import P4_NAIVE_SIMD, example_bindings

        nproc = {} if backend == "scalar" else {"nproc": 2}
        with pytest.raises(InterpreterError) as excinfo:
            engine.run(P4_NAIVE_SIMD, example_bindings(), backend=backend, **nproc)
        error = excinfo.value
        assert "subscript is the whole array 'iprime'" in str(error)
        assert error.location.line == 7
        assert error.snapshot is not None
        dump = crash_dump_for(error)
        assert dump["retryable"] is False and "env" in dump
        if backend == "pmimd":
            attempts = {
                (event["shard"], event["attempt"])
                for event in error.supervision_events
                if event["event"] == "dispatch"
            }
            assert {attempt for _shard, attempt in attempts} == {0}
