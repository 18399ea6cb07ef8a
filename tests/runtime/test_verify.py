"""The VM checked against its tree-walking twin.

The package runs lockstep SIMD programs on one backend, the bytecode
VM.  Its independent check is the test-only twin of
:mod:`repro.fuzz.twin`: the same agreement oracle the fuzzer's
``none/simd`` leg uses (:func:`repro.reliability.check_agreement`)
demands that the twin reproduce the VM's answer bit-for-bit, env and
counters both.
"""

import numpy as np
import pytest

from repro.fuzz.twin import SIMDInterpreter, run_twin
from repro.lang import parse_source
from repro.lang.errors import InterpreterError
from repro.reliability import BackendFault, check_agreement
from repro.runtime import Engine

PROGRAM = """
PROGRAM p
  INTEGER y(4)
  v = [1 : 4]
  WHERE (v > 2) y(1) = 9 + v - v
END
"""


@pytest.fixture
def engine():
    return Engine(cache_size=8)


def _bindings():
    return {"y": np.zeros(4, dtype=np.int64)}


class TestVerifyFlag:
    def test_both_lockstep_backends_run_and_agree(self, engine):
        result = engine.run(PROGRAM, _bindings(), nproc=4)
        assert result.backend == "vm"
        env, counters = run_twin(PROGRAM, 4, _bindings())
        check_agreement(result.env, result.counters, env, counters)
        assert result.env["y"].data.tolist() == [9, 0, 0, 0]

    def test_nproc_zero_rejected(self, engine):
        with pytest.raises(InterpreterError, match="nproc >= 1"):
            engine.run(PROGRAM, {}, nproc=0, backend="vm")
        with pytest.raises(InterpreterError, match="at least one PE"):
            SIMDInterpreter(parse_source(PROGRAM), 0)

    def test_disagreement_raises_backend_fault(self, engine):
        # corrupt the twin's answer so the two genuinely disagree, and
        # assert the oracle refuses it
        result = engine.run(PROGRAM, _bindings(), nproc=4)
        env, counters = run_twin(PROGRAM, 4, _bindings())
        env["y"].data[0] += 1
        with pytest.raises(BackendFault, match="disagree"):
            check_agreement(result.env, result.counters, env, counters)
