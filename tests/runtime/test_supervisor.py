"""WorkerSupervisor unit tests driven by in-process fake workers.

The supervisor sees workers through a small handle interface, so these
tests script every failure mode deterministically — no real processes,
no real clocks — and assert the exact recovery path taken.
"""

from collections import deque

import pytest

from repro.exec.pmimd import Shard
from repro.lang.errors import UNKNOWN_LOCATION, SourceLocation
from repro.reliability.errors import (
    BackendFault,
    BudgetExceeded,
    DivergenceFault,
    OutOfBoundsFault,
    ReliabilityError,
)
from repro.reliability.supervisor import (
    SupervisionPolicy,
    WorkerSupervisor,
    error_from_dump,
    snapshot_from_dump,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def wait(self, waitables, timeout):
        """``multiprocessing.connection.wait`` on fake workers: return
        the ready ones at once, else let the timeout pass."""
        ready = [worker for worker in waitables if worker.ready()]
        if not ready:
            self.now += timeout
        return ready


class FakeWorker:
    """Scripted worker: ``behavior(worker, task)`` yields pipe messages."""

    def __init__(self, worker_id, behavior):
        self.worker_id = worker_id
        self.behavior = behavior
        self.inbox = deque()
        self.alive = True
        self.beat = 0.0
        self.steps = 0
        self.tasks = []

    def send(self, task):
        if task.get("cmd") != "run":
            return
        self.tasks.append(task)
        for message in self.behavior(self, task):
            self.inbox.append(message)

    def poll(self):
        return bool(self.inbox)

    def recv(self):
        if not self.inbox:
            raise EOFError
        return self.inbox.popleft()

    def waitables(self):
        return (self,)

    def ready(self):
        return bool(self.inbox) or not self.alive

    def is_alive(self):
        return self.alive

    def heartbeat(self):
        return (self.beat, self.steps)

    def kill(self):
        self.alive = False

    def close(self):
        pass


class LateDoneWorker(FakeWorker):
    """A worker whose ``done`` becomes visible only on the poll after
    its last ``proc`` (the message is still in flight on the pipe)."""

    def __init__(self, worker_id, behavior):
        super().__init__(worker_id, behavior)
        self.held = False

    def poll(self):
        if self.inbox and self.inbox[0]["type"] == "done" and not self.held:
            self.held = True
            return False
        return bool(self.inbox)

    def recv(self):
        self.held = False
        return super().recv()


def succeed(worker, task):
    shard, attempt = task["shard"], task["attempt"]
    for proc in task["procs"]:
        yield {
            "type": "proc",
            "shard": shard,
            "attempt": attempt,
            "proc": proc,
            "payload": {"proc": proc, "worker": worker.worker_id},
        }
    yield {"type": "done", "shard": shard, "attempt": attempt}


def fail_with(dump):
    def behavior(worker, task):
        yield {
            "type": "fail",
            "shard": task["shard"],
            "attempt": task["attempt"],
            "dump": dump,
        }

    return behavior


def make_supervisor(behaviors, nworkers=2, policy=None, worker=FakeWorker):
    """Supervisor over fake workers; ``behaviors`` feeds the factory.

    ``behaviors`` may be a single behavior (every worker) or a list
    consumed per spawn (last entry reused when exhausted).
    """
    clock = FakeClock()
    scripted = behaviors if isinstance(behaviors, list) else [behaviors]
    spawned = []

    def factory(worker_id):
        behavior = scripted[min(len(spawned), len(scripted) - 1)]
        handle = worker(worker_id, behavior)
        spawned.append(handle)
        return handle

    supervisor = WorkerSupervisor(
        factory,
        nworkers,
        policy if policy is not None else SupervisionPolicy(),
        clock=clock,
        wait=clock.wait,
    )
    return supervisor, clock, spawned


SHARDS = [Shard(0, (1, 2)), Shard(1, (3, 4)), Shard(2, (5,))]


class TestHappyPath:
    def test_all_procs_collected(self):
        supervisor, _, _ = make_supervisor(succeed)
        outcome = supervisor.run(SHARDS)
        assert sorted(outcome.results) == [1, 2, 3, 4, 5]
        assert outcome.recoveries == 0
        assert outcome.speculations == 0

    def test_late_done_of_the_last_shard_is_collected(self):
        supervisor, _, _ = make_supervisor(succeed, worker=LateDoneWorker)
        outcome = supervisor.run(SHARDS)
        assert sorted(outcome.results) == [1, 2, 3, 4, 5]
        completed = [e for e in outcome.events if e["event"] == "shard-complete"]
        assert len(completed) == len(SHARDS) == 3
        assert outcome.recoveries == 0

    def test_event_log_tells_the_story(self):
        supervisor, _, _ = make_supervisor(succeed)
        outcome = supervisor.run(SHARDS)
        kinds = [e["event"] for e in outcome.events]
        assert kinds.count("dispatch") == 3
        assert kinds.count("proc-complete") == 5
        assert kinds.count("shard-complete") == 3

    def test_work_spreads_across_the_pool(self):
        supervisor, _, spawned = make_supervisor(succeed, nworkers=3)
        supervisor.run(SHARDS)
        assert sum(len(w.tasks) for w in spawned) == 3


class InTransitWorker(FakeWorker):
    """A worker whose messages are still on the pipe when the
    supervisor goes idle; they land 1 ms into its wait."""

    def __init__(self, worker_id, behavior):
        super().__init__(worker_id, behavior)
        self.in_transit = deque()

    def send(self, task):
        super().send(task)
        self.in_transit.extend(self.inbox)
        self.inbox.clear()


class TestIdleWait:
    def test_a_queued_message_ends_the_wait(self):
        clock = FakeClock()
        waits = []

        def wait(waitables, timeout):
            waits.append((timeout, [w.worker_id for w in waitables]))
            landing = [w for w in waitables if w.in_transit]
            for worker in landing:
                worker.inbox.extend(worker.in_transit)
                worker.in_transit.clear()
            if landing:
                clock.now += 0.001
                return landing
            return clock.wait(waitables, timeout)

        supervisor = WorkerSupervisor(
            lambda worker_id: InTransitWorker(worker_id, succeed),
            2,
            SupervisionPolicy(poll_interval=5.0),
            clock=clock,
            wait=wait,
        )
        outcome = supervisor.run(SHARDS)
        assert sorted(outcome.results) == [1, 2, 3, 4, 5]
        # One wait over both live workers per idle pass, none run out.
        assert waits and all(wait == (5.0, [0, 1]) for wait in waits)
        assert clock.now < 0.01


class TestRetryAndBackoff:
    def test_transient_fault_retried_with_backoff(self):
        flaky_dump = {
            "error": "BackendFault",
            "message": "transient",
            "retryable": True,
        }

        def flaky(worker, task):
            if task["attempt"] == 0:
                yield from fail_with(flaky_dump)(worker, task)
            else:
                yield from succeed(worker, task)

        supervisor, _, _ = make_supervisor(flaky, nworkers=1)
        outcome = supervisor.run([Shard(0, (1, 2))])
        assert sorted(outcome.results) == [1, 2]
        kinds = [e["event"] for e in outcome.events]
        assert "fault" in kinds and "backoff" in kinds and "retry" in kinds

    def test_backoff_delays_redispatch(self):
        policy = SupervisionPolicy(
            backoff_base_seconds=1.0, backoff_factor=2.0,
            backoff_max_seconds=10.0, max_retries=2,
        )

        def flaky(worker, task):
            if task["attempt"] == 0:
                yield from fail_with(
                    {"error": "BackendFault", "retryable": True}
                )(worker, task)
            else:
                yield from succeed(worker, task)

        supervisor, clock, _ = make_supervisor(flaky, nworkers=1, policy=policy)
        outcome = supervisor.run([Shard(0, (1,))])
        dispatches = [
            e for e in outcome.events if e["event"] == "dispatch"
        ]
        assert len(dispatches) == 2
        assert dispatches[1]["t"] - dispatches[0]["t"] >= 1.0

    def test_backoff_schedule(self):
        policy = SupervisionPolicy(
            backoff_base_seconds=0.1, backoff_factor=3.0,
            backoff_max_seconds=0.5,
        )
        assert policy.backoff_seconds(0) == 0.0
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.3)
        assert policy.backoff_seconds(3) == 0.5  # capped

    def test_retries_exhausted_is_unrecoverable(self):
        dump = {"error": "BackendFault", "message": "x", "retryable": True}
        policy = SupervisionPolicy(max_retries=1, backoff_base_seconds=0.0)
        supervisor, _, _ = make_supervisor(fail_with(dump), policy=policy)
        with pytest.raises(BackendFault, match="unrecoverable") as excinfo:
            supervisor.run([Shard(0, (1,))])
        assert excinfo.value.retryable  # FallbackPolicy may degrade
        events = excinfo.value.supervision_events
        assert any(e["event"] == "unrecoverable" for e in events)

    def test_non_retryable_fault_aborts_immediately(self):
        dump = {
            "error": "BudgetExceeded",
            "message": "step budget exhausted",
            "retryable": False,
        }
        supervisor, _, spawned = make_supervisor(fail_with(dump))
        with pytest.raises(BudgetExceeded, match="budget"):
            supervisor.run([Shard(0, (1,)), Shard(1, (2,))])
        # No replay was attempted for the program-level fault.
        attempts = [t["attempt"] for w in spawned for t in w.tasks]
        assert all(a == 0 for a in attempts)


class TestCrashRecovery:
    def test_dead_worker_shard_replayed_elsewhere(self):
        def die_silently(worker, task):
            worker.alive = False
            return iter(())

        supervisor, _, spawned = make_supervisor(
            [die_silently, succeed], nworkers=1
        )
        outcome = supervisor.run([Shard(0, (1, 2))])
        assert sorted(outcome.results) == [1, 2]
        assert outcome.recoveries == 1
        kinds = [e["event"] for e in outcome.events]
        assert "worker-dead" in kinds and "respawn" in kinds
        assert len(spawned) == 2

    def test_partial_results_salvaged_from_dead_worker(self):
        def die_after_first_proc(worker, task):
            proc = task["procs"][0]
            worker.alive = False
            yield {
                "type": "proc",
                "shard": task["shard"],
                "attempt": task["attempt"],
                "proc": proc,
                "payload": {"proc": proc, "worker": worker.worker_id},
            }

        supervisor, _, spawned = make_supervisor(
            [die_after_first_proc, succeed], nworkers=1
        )
        outcome = supervisor.run([Shard(0, (1, 2, 3))])
        assert sorted(outcome.results) == [1, 2, 3]
        # Proc 1 was checkpointed by the dying worker; the replay only
        # re-executed the remainder.
        assert outcome.results[1]["worker"] == spawned[0].worker_id
        replay = spawned[1].tasks[0]
        assert replay["procs"] == [2, 3]

    def test_wedged_worker_detected_and_replaced(self):
        def hang(worker, task):
            return iter(())  # accept the task, never answer, stay alive

        policy = SupervisionPolicy(wedge_timeout=1.0, poll_interval=0.2)
        supervisor, _, _ = make_supervisor([hang, succeed], nworkers=1,
                                           policy=policy)
        outcome = supervisor.run([Shard(0, (1,))])
        assert sorted(outcome.results) == [1]
        assert outcome.recoveries == 1
        wedged = [e for e in outcome.events if e["event"] == "worker-wedged"]
        assert len(wedged) == 1

    def test_heartbeat_defers_wedge_verdict(self):
        calls = {"n": 0}

        def slow_but_alive(worker, task):
            calls["n"] += 1
            if calls["n"] == 1:
                worker.beat = 10.0  # "recent" beat far in the fake future
                return iter(())
            return succeed(worker, task)

        policy = SupervisionPolicy(wedge_timeout=1.0, poll_interval=0.2)
        supervisor, clock, spawned = make_supervisor(
            [slow_but_alive], nworkers=1, policy=policy
        )
        # The flight never answers but keeps a fresh beat until t=11;
        # wedge must fire only after the beat goes stale.
        outcome = supervisor.run([Shard(0, (1,))])
        wedged = [e for e in outcome.events if e["event"] == "worker-wedged"]
        assert len(wedged) == 1
        assert wedged[0]["t"] > 11.0

    def test_shard_deadline_enforced(self):
        def hang(worker, task):
            worker.beat = 1e9  # heartbeating forever, still stuck
            return iter(())

        policy = SupervisionPolicy(
            wedge_timeout=1e9, shard_deadline_seconds=2.0, poll_interval=0.5
        )
        supervisor, _, _ = make_supervisor([hang, succeed], nworkers=1,
                                           policy=policy)
        outcome = supervisor.run([Shard(0, (1,))])
        assert sorted(outcome.results) == [1]
        assert any(e["event"] == "shard-deadline" for e in outcome.events)

    def test_pool_exhaustion_raises_retryable(self):
        def die_silently(worker, task):
            worker.alive = False
            return iter(())

        policy = SupervisionPolicy(max_respawns=1, max_retries=5,
                                   backoff_base_seconds=0.0)
        supervisor, _, spawned = make_supervisor(
            die_silently, nworkers=1, policy=policy
        )
        with pytest.raises(BackendFault, match="unrecoverable") as excinfo:
            supervisor.run([Shard(0, (1,))])
        assert excinfo.value.retryable
        assert len(spawned) == 2  # original + the one respawn


class TestSpeculation:
    def test_straggler_gets_a_duplicate(self):
        def slow_on_shard_3(worker, task):
            if task["shard"] == 3 and task["attempt"] == 0:
                return iter(())  # never answers; duplicate must win
            return succeed(worker, task)

        policy = SupervisionPolicy(
            min_straggler_samples=3,
            straggler_factor=2.0,
            straggler_floor_seconds=0.0,
            wedge_timeout=1e9,
            poll_interval=0.05,
        )
        supervisor, _, _ = make_supervisor(
            slow_on_shard_3, nworkers=2, policy=policy
        )
        shards = [Shard(i, (i + 1,)) for i in range(4)]
        outcome = supervisor.run(shards)
        assert sorted(outcome.results) == [1, 2, 3, 4]
        assert outcome.speculations == 1
        speculate = [e for e in outcome.events if e["event"] == "speculate"]
        assert speculate[0]["shard"] == 3

    def test_speculative_copy_runs_as_replay(self):
        """The duplicate must carry attempt+1 so first-attempt-only
        transient injections cannot re-fire on it."""
        seen = []

        def slow_first(worker, task):
            seen.append((task["shard"], task["attempt"]))
            if task["shard"] == 3 and task["attempt"] == 0:
                return iter(())
            return succeed(worker, task)

        policy = SupervisionPolicy(
            min_straggler_samples=3,
            straggler_factor=2.0,
            straggler_floor_seconds=0.0,
            wedge_timeout=1e9,
            poll_interval=0.05,
        )
        supervisor, _, _ = make_supervisor(
            slow_first, nworkers=2, policy=policy
        )
        supervisor.run([Shard(i, (i + 1,)) for i in range(4)])
        assert (3, 1) in seen  # the duplicate was a replay

    def test_duplicate_results_are_idempotent(self):
        def duplicate_procs(worker, task):
            for _ in range(2):
                for proc in task["procs"]:
                    yield {
                        "type": "proc",
                        "shard": task["shard"],
                        "attempt": task["attempt"],
                        "proc": proc,
                        "payload": {"copy": worker.worker_id},
                    }
            yield {
                "type": "done",
                "shard": task["shard"],
                "attempt": task["attempt"],
            }

        supervisor, _, _ = make_supervisor(duplicate_procs)
        outcome = supervisor.run([Shard(0, (1, 2))])
        assert sorted(outcome.results) == [1, 2]


class TestDumpReconstruction:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("BudgetExceeded", BudgetExceeded),
            ("BackendFault", BackendFault),
            ("DivergenceFault", DivergenceFault),
            ("OutOfBoundsFault", OutOfBoundsFault),
            ("ReliabilityError", ReliabilityError),
        ],
    )
    def test_taxonomy_classes_round_trip(self, name, cls):
        error = error_from_dump(
            {"error": name, "message": "boom", "retryable": False}
        )
        assert type(error) is cls
        assert error.retryable is False
        assert "boom" in str(error)

    def test_unknown_class_becomes_retryable_backend_fault(self):
        error = error_from_dump({"error": "SegfaultFromMars", "message": "?"})
        assert type(error) is BackendFault
        assert error.retryable  # infrastructure, not semantics

    def test_default_retryability_honoured(self):
        # No explicit retryable flag: the class default applies.
        assert error_from_dump({"error": "BackendFault"}).retryable is True
        assert (
            error_from_dump({"error": "BudgetExceeded"}).retryable is False
        )

    def test_snapshot_reattached(self):
        dump = {
            "error": "DivergenceFault",
            "message": "lane drift",
            "retryable": False,
            "backend": "scalar",
            "pc": 17,
            "steps": 420,
            "mask": [1, 0, 1],
            "mask_stack": [[1, 1, 1], [1, 0, 1]],
            "env": {"s": 3.5},
            "last_ops": ["ADD", "STORE"],
        }
        error = error_from_dump(dump)
        snap = error.snapshot
        assert snap is not None
        assert snap.pc == 17 and snap.steps == 420
        assert snap.mask_stack == [[1, 1, 1], [1, 0, 1]]

    def test_location_round_trips(self):
        location = SourceLocation(filename="k:1.f", line=4, column=5)
        error = BudgetExceeded("step budget exhausted", location)
        assert error_from_dump(error.crash_dump()).location == location
        assert str(error_from_dump(error.crash_dump())) == str(error)

    @pytest.mark.parametrize("text", [None, "", "4:5", "<string>:x:5", 12])
    def test_unparsable_location_is_unknown(self, text):
        error = error_from_dump({"error": "BackendFault", "location": text})
        assert error.location == UNKNOWN_LOCATION

    def test_dump_without_state_has_no_snapshot(self):
        assert snapshot_from_dump({"error": "BackendFault"}) is None
        assert error_from_dump({"error": "BackendFault"}).snapshot is None


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisionPolicy(straggler_factor=1.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(wedge_timeout=0.0)

    def test_supervisor_needs_a_worker(self):
        with pytest.raises(ValueError, match="worker"):
            WorkerSupervisor(lambda wid: None, 0)

    def test_spawn_failure_of_whole_pool(self):
        def broken_factory(worker_id):
            raise OSError("fork failed")

        supervisor = WorkerSupervisor(broken_factory, 2)
        with pytest.raises(BackendFault, match="spawn"):
            supervisor.run([Shard(0, (1,))])


class TestBackoffJitter:
    """Decorrelated jitter on retry backoff (thundering-herd control)."""

    POLICY = SupervisionPolicy(
        backoff_base_seconds=0.1, backoff_factor=3.0, backoff_max_seconds=0.5
    )

    def test_no_rng_is_the_pure_schedule(self):
        # rng=None must keep the exact capped-exponential values that
        # FakeClock-driven tests (and operators reading logs) rely on.
        assert self.POLICY.backoff_seconds(1, rng=None) == pytest.approx(0.1)
        assert self.POLICY.backoff_seconds(2, rng=None) == pytest.approx(0.3)
        assert self.POLICY.backoff_seconds(3, rng=None) == 0.5

    def test_deterministic_given_seed(self):
        import random

        a = [self.POLICY.backoff_seconds(k, rng=random.Random(7)) for k in (1, 2, 3)]
        b = [self.POLICY.backoff_seconds(k, rng=random.Random(7)) for k in (1, 2, 3)]
        assert a == b

    def test_floor_and_ceiling(self):
        import random

        rng = random.Random(0)
        for attempt in range(1, 8):
            for _ in range(50):
                delay = self.POLICY.backoff_seconds(attempt, rng=rng)
                # never below the base (a retry storm still spreads out,
                # but a single retry is never faster than the schedule's
                # first step) and never above the cap
                assert 0.1 <= delay <= 0.5

    def test_attempt_zero_is_immediate(self):
        import random

        assert self.POLICY.backoff_seconds(0, rng=random.Random(1)) == 0.0

    def test_supervisor_jitter_is_seeded(self):
        policy = SupervisionPolicy(jitter_seed=42)
        sup_a = make_supervisor([succeed, succeed], policy=policy)[0]
        sup_b = make_supervisor([succeed, succeed], policy=policy)[0]
        a = [sup_a.policy.backoff_seconds(k, rng=sup_a._backoff_rng) for k in (1, 2)]
        b = [sup_b.policy.backoff_seconds(k, rng=sup_b._backoff_rng) for k in (1, 2)]
        assert a == b

    def test_jitter_seed_none_disables(self):
        policy = SupervisionPolicy(jitter_seed=None)
        supervisor = make_supervisor([succeed, succeed], policy=policy)[0]
        assert supervisor._backoff_rng is None


class TestDumpHardening:
    """Malformed / forward-version dumps degrade, never KeyError."""

    def test_empty_dump(self):
        error = error_from_dump({})
        assert isinstance(error, BackendFault)
        assert error.retryable is True

    def test_non_dict_dump(self):
        error = error_from_dump(None)
        assert isinstance(error, BackendFault)
        assert error.retryable is True

    def test_unhashable_error_key(self):
        error = error_from_dump({"error": ["BackendFault"], "message": "x"})
        assert isinstance(error, BackendFault)
        assert error.retryable is True

    def test_wrong_typed_snapshot_fields(self):
        # mask_stack of non-iterables would TypeError inside the
        # snapshot rebuild; the dump must still classify.
        dump = {
            "error": "DivergenceFault",
            "message": "lanes disagree",
            "backend": "vm",
            "pc": 3,
            "mask_stack": [1, 2],
        }
        error = error_from_dump(dump)
        assert isinstance(error, DivergenceFault)
        assert error.snapshot is None

    def test_forward_version_layout(self):
        # A future worker build ships fields this parent has never
        # seen, with shapes it cannot parse — degrade, don't crash.
        dump = {
            "error": "HologramFault",
            "message": 0xBEEF,
            "retryable": "maybe",
            "backend": {"kind": "quantum"},
            "pc": "entangled",
            "schema": 99,
        }
        error = error_from_dump(dump)
        assert isinstance(error, BackendFault)

    def test_snapshot_from_malformed_dump_is_none(self):
        assert snapshot_from_dump({"backend": "vm", "pc": 0, "env": 7}) is None
        assert snapshot_from_dump("not a dict") is None
        assert snapshot_from_dump({"backend": "vm", "pc": 0, "mask_stack": 3}) is None
