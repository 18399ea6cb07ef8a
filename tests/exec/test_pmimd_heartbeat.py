"""pmimd worker liveness: beats come from the budget meter's poll, and a
worker runs a statement hook only when a fault plan arms its kill
switch."""

import pytest

from repro.exec import pmimd
from repro.exec.scalar import ScalarInterpreter
from repro.lang.parser import parse_source
from repro.reliability import BEAT_TICKS, Budget, FaultPlan
from repro.reliability import supervisor as supervisor_mod
from repro.reliability.supervisor import SupervisionPolicy
from repro.runtime import BackendConfig, Engine

LOOP = """PROGRAM spin
  INTEGER i, n, s
  s = 0
  DO i = 1, n
    s = s + i
  ENDDO
END
"""


class Slots(list):
    """Heartbeat slots that remember every step count a beat published."""

    def __init__(self):
        super().__init__([0.0, 0.0, 0.0])
        self.steps = []

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        if index == 1:
            self.steps.append(value)


class Conn:
    """A worker pipe end fed from a task list (``stop`` when drained)."""

    def __init__(self, tasks):
        self.tasks = list(tasks)
        self.sent = []

    def recv(self):
        return self.tasks.pop(0) if self.tasks else {"cmd": "stop"}

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


def serve(monkeypatch, tasks, budget=None, fault_plan=None):
    """Run ``_worker_loop`` in this process over ``tasks``; return the
    slots, the messages sent and the statement hook of each interpreter."""
    hooks = []

    class Recording(ScalarInterpreter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            hooks.append(self.statement_hook)

    monkeypatch.setattr(pmimd, "ScalarInterpreter", Recording)
    slots, conn = Slots(), Conn(tasks)
    pmimd._worker_loop(
        conn, slots, parse_source(LOOP), 2, {}, budget, fault_plan,
        {"n": 2000}, None, None, (),
    )
    return slots, conn.sent, hooks


def task(shard, procs, attempt=0):
    return {"shard": shard, "procs": procs, "attempt": attempt}


class TestWorkerHooks:
    def test_a_plain_worker_runs_without_a_statement_hook(self, monkeypatch):
        _, sent, hooks = serve(monkeypatch, [task(0, (1,)), task(1, (2,))])
        assert hooks == [None, None]
        assert [m["type"] for m in sent] == ["proc", "done", "proc", "done"]

    def test_an_armed_kill_switch_is_the_only_hook(self, monkeypatch):
        # Armed on shard 0's first attempt, never reached.
        plan = FaultPlan(
            worker_kill=(0,), kill_after_steps=10**9, backends=("pmimd",)
        )
        _, sent, hooks = serve(
            monkeypatch,
            [task(0, (1,)), task(1, (2,)), task(0, (1,), attempt=1)],
            fault_plan=plan,
        )
        assert callable(hooks[0])
        assert hooks[1:] == [None, None]
        assert [m["payload"]["env"]["s"] for m in sent if m["type"] == "proc"] == [
            2001000
        ] * 3


class TestBeats:
    @pytest.mark.parametrize("check_every", [1, 100, 256, 10**9])
    def test_the_beat_slot_advances_through_a_long_run(
        self, monkeypatch, check_every
    ):
        slots, _, _ = serve(
            monkeypatch, [task(0, (1, 2))], budget=Budget(check_every=check_every)
        )
        every = min(check_every, BEAT_TICKS)
        # Two processors of 2003 statements each, each beating from its
        # own meter's step 0.
        per_proc = [float(step) for step in range(every, 2004, every)]
        assert slots.steps == per_proc + per_proc

    def test_a_huge_check_every_still_beats_inside_the_wedge_timeout(
        self, monkeypatch
    ):
        """A run far longer than the wedge timeout, with a deadline
        cadence that never polls, is not declared wedged."""
        monkeypatch.setattr(supervisor_mod, "MIN_STRAGGLER_SAMPLES", 1000)
        program = Engine().compile(LOOP)
        result = program.run(
            {"n": 200_000},
            backend="pmimd",
            nproc=2,
            budget=Budget(check_every=10**9),
            config=BackendConfig(
                workers=2,
                supervision=SupervisionPolicy(wedge_timeout=0.25),
            ),
        )
        assert [env["s"] for env in result.env] == [20_000_100_000] * 2
        kinds = {event["event"] for event in result.events}
        assert "worker-wedged" not in kinds


def test_a_hang_is_still_reported_as_worker_wedged(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "MIN_STRAGGLER_SAMPLES", 1000)
    program = Engine().compile(LOOP)
    plan = FaultPlan(
        seed=1, worker_hang=(0,), hang_seconds=3.0, backends=("pmimd",)
    )
    result = program.run(
        {"n": 50},
        backend="pmimd",
        nproc=2,
        fault_plan=plan,
        config=BackendConfig(
            workers=2,
            supervision=SupervisionPolicy(
                wedge_timeout=0.3, backoff_base_seconds=0.01
            ),
        ),
    )
    assert [env["s"] for env in result.env] == [1275] * 2
    wedged = [e for e in result.events if e["event"] == "worker-wedged"]
    assert wedged and "no heartbeat" in wedged[0]["detail"]
