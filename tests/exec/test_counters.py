"""Execution-counter accounting tests."""

import pickle

import numpy as np
import pytest

from repro.exec.counters import TALLIES, ExecutionCounters


def test_record_basic():
    c = ExecutionCounters(4)
    c.record("int_op", width=4)
    assert c.events["int_op"] == 1
    assert c.layer_steps["int_op"] == 1
    assert c.element_ops["int_op"] == 4


def test_layers_multiply_steps():
    c = ExecutionCounters(4)
    c.record("store", width=4, layers=3)
    assert c.layer_steps["store"] == 3
    assert c.element_ops["store"] == 12
    assert c.total_steps == 3


def test_section_tracking_only_for_multilayer():
    c = ExecutionCounters(2)
    c.record("store", width=2, layers=1)
    c.record("store", width=2, layers=5)
    assert c.section_events["store"] == 1
    assert c.section_layer_steps["store"] == 5


def test_mask_reduces_active_elements():
    c = ExecutionCounters(4)
    c.record("real_op", width=4, mask=np.array([True, False, True, False]))
    assert c.active_elements["real_op"] == 2
    assert c.element_ops["real_op"] == 4


def test_lane_active_steps_accumulate():
    c = ExecutionCounters(2)
    c.record("int_op", width=2, mask=np.array([True, False]))
    c.record("int_op", width=2, mask=np.array([True, True]))
    assert c.lane_active_steps.tolist() == [2, 1]
    assert c.utilization().tolist() == [1.0, 0.5]


def test_acu_not_counted_in_lane_activity():
    c = ExecutionCounters(2)
    c.record("acu", mask=np.array([True, True]))
    assert c.lane_active_steps.tolist() == [0, 0]


def test_record_call():
    c = ExecutionCounters(2)
    c.record_call("force", layers=3)
    assert c.calls["force"] == 1
    assert c.call_layer_steps["force"] == 3
    assert c.events["call"] == 1


def test_call_sections():
    c = ExecutionCounters(2)
    c.record_call("force", layers=1)
    assert c.call_sections("force") == (0, 0)
    c.record_call("force", layers=4)
    calls, steps = c.call_sections("force")
    assert calls == 2 and steps == 5


def test_merge():
    a = ExecutionCounters(2)
    b = ExecutionCounters(2)
    a.record("int_op", width=2)
    b.record("int_op", width=2, layers=2)
    b.record_call("f")
    a.merge(b)
    assert a.events["int_op"] == 2
    assert a.layer_steps["int_op"] == 3
    assert a.calls["f"] == 1


def test_empty_utilization():
    c = ExecutionCounters(3)
    assert c.mean_utilization() == 0.0


def test_summary_keys():
    c = ExecutionCounters(1)
    c.record("store")
    summary = c.summary()
    assert summary["total_steps"] == 1
    assert "events" in summary and "calls" in summary


def test_tallies_are_plain_dicts():
    c = ExecutionCounters(2)
    c.record("int_op", width=2, layers=3)
    c.record_call("f")
    c.record_block([("store", 1)], width=2)
    c.load_state(c.state_dict())
    for name in TALLIES:
        assert type(getattr(c, name)) is dict, name


def test_merge_adds_into_present_and_absent_kinds():
    a = ExecutionCounters(2)
    b = ExecutionCounters(2)
    a.record("int_op", width=2)
    a.record_call("f")
    b.record("store", width=2, layers=3)
    b.record("int_op", width=2, layers=2)
    b.record_call("f", layers=4)
    b.record_call("g")
    a.merge(b)
    assert a.events == {"int_op": 2, "call": 3, "store": 1}
    assert a.layer_steps == {"int_op": 3, "call": 6, "store": 3}
    assert a.element_ops == {"int_op": 6, "call": 12, "store": 6}
    assert a.calls == {"f": 2, "g": 1}
    assert a.call_layer_steps == {"f": 5, "g": 1}
    assert a.section_events == {"store": 1, "int_op": 1, "call": 1}
    assert a.section_layer_steps == {"store": 3, "int_op": 2, "call": 4}
    assert b.events == {"store": 1, "int_op": 1, "call": 2}  # not consumed


#: A batch whose kinds first appear single-layer, then multi-layer, in
#: another order: the section tallies insert "gather" before "store".
BATCH = [("store", 1), ("gather", 3), ("real_op", 1), ("store", 2), ("acu", 1)]


def test_record_block_matches_per_event_records():
    mask = np.array([True, False, True, False])
    per_event, batched = ExecutionCounters(4), ExecutionCounters(4)
    for _ in range(2):
        for kind, layers in BATCH:
            per_event.record(kind, width=4, layers=layers, mask=mask)
        batched.record_block(BATCH, width=4, mask=mask)
    assert repr(batched.state_dict()) == repr(per_event.state_dict())


def test_record_scalar_matches_per_event_records():
    kinds = ["acu", "store", "acu", "int_op", "store", "gather", "acu"]
    per_event, scalar = ExecutionCounters(1), ExecutionCounters(1)
    for kind in kinds:
        per_event.record(kind)
        scalar.record_scalar(kind)
    assert repr(scalar.state_dict()) == repr(per_event.state_dict())


def test_pickled_counters_round_trip():
    # pmimd workers ship their counters to the parent by pickle
    c = ExecutionCounters(1)
    for kind in ("acu", "store", "acu", "gather"):
        c.record_scalar(kind)
    c.record_call("force", layers=2)
    clone = pickle.loads(pickle.dumps(c))
    assert repr(clone.state_dict()) == repr(c.state_dict())
    clone.record_scalar("store")
    assert clone.events["store"] == c.events["store"] + 1
