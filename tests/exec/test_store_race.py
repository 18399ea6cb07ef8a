"""Scalar-element stores of lane-varying values (the VM and its twin).

A store like ``y(1) = v`` with a *scalar* index and a *vector* value
is a single memory cell written by every active lane at once.  That is
legal exactly when the active lanes agree (the value is uniform — the
common case after a zero-active-lane blend promotes a scalar to a
replicated vector); otherwise it is a write race and must be reported
as a language error, not crash the backend with a raw numpy error.
"""

import numpy as np
import pytest

from repro.fuzz.twin import run_twin
from repro.lang import parse_source
from repro.lang.errors import InterpreterError
from repro.vm import run_bytecode

BACKENDS = [
    pytest.param(run_twin, id="interpreter"),
    pytest.param(run_bytecode, id="vm"),
]


def _bindings():
    return {"y": np.zeros(4, dtype=np.int64)}


@pytest.mark.parametrize("runner", BACKENDS)
class TestUniformValueStores:
    def test_replicated_vector_reduces_to_scalar(self, runner):
        env, _ = runner(
            parse_source("PROGRAM p\n  INTEGER y(4)\n  v = [1 : 4]\n  y(1) = v - v + 7\nEND"),
            4,
            bindings=_bindings(),
        )
        assert env["y"].data.tolist() == [7, 0, 0, 0]

    def test_inactive_lanes_may_disagree(self, runner):
        # only lane 4 is active; the other lanes' values are ignored
        env, _ = runner(
            parse_source(
                "PROGRAM p\n  INTEGER y(4)\n  v = [1 : 4]\n  WHERE (v > 3) y(1) = v\nEND"
            ),
            4,
            bindings=_bindings(),
        )
        assert env["y"].data.tolist() == [4, 0, 0, 0]


@pytest.mark.parametrize("runner", BACKENDS)
class TestDivergentValueRaces:
    def test_full_mask_divergent_value_raises(self, runner):
        with pytest.raises(InterpreterError, match="divergent lanes race"):
            runner(
                parse_source("PROGRAM p\n  INTEGER y(4)\n  v = [1 : 4]\n  y(1) = v\nEND"),
                4,
                bindings=_bindings(),
            )

    def test_partial_mask_divergent_active_lanes_raise(self, runner):
        with pytest.raises(InterpreterError, match="divergent lanes race"):
            runner(
                parse_source(
                    "PROGRAM p\n  INTEGER y(4)\n  v = [1 : 4]\n  WHERE (v > 2) y(1) = v\nEND"
                ),
                4,
                bindings=_bindings(),
            )
