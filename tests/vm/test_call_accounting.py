"""External-call and lane accounting on the VM's mask-epoch path.

``SIMDVirtualMachine._call`` records each ``CALL`` with the epoch's
cached active-lane count and defers the per-lane activity update to
the next mask transition, like every other VM event.  The counters it
produces must be exactly those of the per-call ``mask=`` path: pinned
below from the small Table-1 sweep as that path recorded it, and
compared field by field against the VM's tree-walking twin
(:mod:`repro.fuzz.twin`), which still takes the per-call path.

Host time cannot gate on shared runners, so the number of full-width
lane updates the VM pays on the same cells is pinned as a count.
"""

import numpy as np
import pytest

from repro.exec.counters import ExecutionCounters
from repro.fuzz.twin import run_twin
from repro.kernels import nbforce
from repro.lang import parse_source
from repro.md.molecule import synthetic_sod
from repro.md.pairlist import build_pairlist
from repro.runtime.engine import Engine
from repro.simd.layout import DataDistribution
from repro.vm import run_bytecode

N_ATOMS, NPROC, NMAX = 400, 256, 512

#: Per cell: (total steps, force calls, force call layer steps,
#: active call elements, Σ lane_active_steps, Σ p·lane_active_steps[p]),
#: recorded with per-call ``count_nonzero`` + full-width lane updates.
PINNED = {
    ("L_f", 3.0): (405, 19, 19, 1772, 44172, 5202768),
    ("Lu_l", 3.0): (268, 19, 38, 9728, 49796, 6371296),
    ("Lu_2", 3.0): (268, 19, 38, 9728, 49796, 6371296),
    ("L_f", 5.0): (1476, 70, 70, 6969, 163957, 19326815),
    ("Lu_l", 5.0): (856, 61, 122, 31232, 163356, 20928076),
    ("Lu_2", 5.0): (856, 61, 122, 31232, 163356, 20928076),
}


@pytest.fixture(scope="module")
def molecule():
    return synthetic_sod(n_atoms=N_ATOMS, seed=1992)


def _run(molecule, kernel, cutoff, backend):
    pairlist = build_pairlist(molecule, cutoff)
    dist = DataDistribution(n=N_ATOMS, gran=NPROC, nmax=NMAX, scheme="cyclic")
    if kernel == "L_f":
        text, bindings, externals = nbforce.flat_kernel_setup(molecule, pairlist, dist)
    else:
        text, bindings, externals = nbforce.unflat_kernel_setup(
            molecule, pairlist, dist, select_layers=kernel == "Lu_l"
        )
    if backend == "twin":
        return run_twin(text, NPROC, bindings, externals)[1]
    result = Engine().compile(text).run(
        bindings, nproc=NPROC, backend=backend, externals=externals
    )
    return result.counters


def _assert_same_state(a, b):
    """Every accumulator of two counter sets, field by field."""
    b = b.state_dict()
    for field, value in a.state_dict().items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, b[field]), field
        else:
            assert value == b[field], field


@pytest.mark.parametrize("kernel, cutoff", sorted(PINNED))
def test_vm_call_counters_match_per_call_path(molecule, kernel, cutoff):
    vm = _run(molecule, kernel, cutoff, "vm")
    lanes = vm.lane_active_steps
    weights = np.arange(1, lanes.size + 1)
    assert (
        vm.total_steps,
        vm.calls["force"],
        vm.call_layer_steps["force"],
        vm.active_elements["call"],
        int(lanes.sum()),
        int((lanes * weights).sum()),
    ) == PINNED[(kernel, cutoff)]

    _assert_same_state(vm, _run(molecule, kernel, cutoff, "twin"))


def test_vm_records_calls_on_the_epoch_path(molecule, monkeypatch):
    seen = []
    original = ExecutionCounters.record_call

    def spy(self, name, layers=1, mask=None, active=None, defer_lanes=False):
        seen.append((mask, active, defer_lanes))
        return original(
            self, name, layers=layers, mask=mask, active=active, defer_lanes=defer_lanes
        )

    monkeypatch.setattr(ExecutionCounters, "record_call", spy)
    _run(molecule, "L_f", 3.0, "vm")
    assert len(seen) == PINNED[("L_f", 3.0)][1]
    assert all(mask is None and active is not None and defer for mask, active, defer in seen)


def test_record_call_deferred_matches_immediate():
    mask = np.array([True, False, True, True])
    immediate = ExecutionCounters(nproc=4)
    immediate.record_call("force", layers=3, mask=mask)
    deferred = ExecutionCounters(nproc=4)
    layers = deferred.record_call("force", layers=3, active=3, defer_lanes=True)
    assert layers == 3
    assert not deferred.lane_active_steps.any()
    deferred.add_lane_steps(mask, layers)
    _assert_same_state(immediate, deferred)


#: Full-width lane updates per cell as ``(vector, scalar)``: vector
#: updates are ``add_lane_steps`` with a mask plus any immediate
#: ``record(..., mask=)``; scalar ones are all-active epoch flushes.
LANE_UPDATES = {"L_f": (53, 2), "Lu_l": (18, 2)}

#: Upper bound on vector lane updates per loop iteration: one flush
#: per WHERE/ELSEWHERE part that has an active lane.
UPDATES_PER_ITERATION = {"L_f": 3, "Lu_l": 1}


def _spy_lane_updates(monkeypatch):
    updates = {"vector": 0, "scalar": 0}
    add = ExecutionCounters.add_lane_steps
    record = ExecutionCounters.record

    def add_spy(self, mask, layers):
        updates["scalar" if mask is None else "vector"] += 1
        return add(self, mask, layers)

    def record_spy(
        self, kind, width=1, layers=1, mask=None, active=None, defer_lanes=False
    ):
        if mask is not None and not defer_lanes and kind != "acu":
            updates["vector"] += 1
        return record(
            self, kind, width=width, layers=layers, mask=mask, active=active,
            defer_lanes=defer_lanes,
        )

    monkeypatch.setattr(ExecutionCounters, "add_lane_steps", add_spy)
    monkeypatch.setattr(ExecutionCounters, "record", record_spy)
    return updates


@pytest.mark.parametrize("kernel", sorted(LANE_UPDATES))
def test_vm_lane_updates_per_iteration(molecule, monkeypatch, kernel):
    updates = _spy_lane_updates(monkeypatch)
    counters = _run(molecule, kernel, 3.0, "vm")
    assert (updates["vector"], updates["scalar"]) == LANE_UPDATES[kernel]
    iterations = counters.calls["force"]  # one force call per iteration
    assert updates["vector"] <= UPDATES_PER_ITERATION[kernel] * iterations


def test_all_active_epoch_flushes_as_a_scalar_add(monkeypatch):
    updates = _spy_lane_updates(monkeypatch)
    _, counters = run_bytecode(
        parse_source("PROGRAM p\n  v = [1 : 4]\n  w = v * 2 + v\nEND"), 4
    )
    assert updates == {"vector": 0, "scalar": 1}
    steps = counters.total_steps - counters.layer_steps.get("acu", 0)
    assert counters.lane_active_steps.tolist() == [steps] * 4
