"""Chaos-hardening tests for the pmimd worker pool.

Fast recovery paths (worker kill, forced degradation) stay in tier-1;
the full kill/hang/slow injection matrix — including rate-based
injection at 10% of shards — carries the ``chaos`` marker and runs in
the CI ``chaos-smoke`` job under a hard timeout.

Every test asserts the same contract: whatever the injection, the
final environments and counters are identical to the in-process MIMD
simulator's (itself differentially tested against the scalar
reference), and the recovery taken is visible in the event log.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.reliability import supervisor as supervisor_mod
from repro.reliability.supervisor import SupervisionPolicy
from repro.runtime import (
    BackendConfig,
    Engine,
    FallbackPolicy,
    FaultPlan,
)

SOURCE = """PROGRAM chaos
  INTEGER i, n, myproc, nproc
  REAL s, x(64)
  s = 0.0
  DO i = myproc, n, nproc
    x(i) = i * 1.5
    s = s + x(i)
  ENDDO
END
"""

NPROC = 8

#: Aggressive supervision so injected hangs cost < 1 s of test time.
FAST = SupervisionPolicy(
    wedge_timeout=0.6,
    backoff_base_seconds=0.01,
    backoff_max_seconds=0.05,
    straggler_floor_seconds=0.2,
)


@pytest.fixture
def speculate(monkeypatch):
    """Set the supervisor's straggler constants: speculate past
    ``factor`` × the median of ``samples`` completed shards."""

    def set_constants(factor=3.0, samples=2):
        monkeypatch.setattr(supervisor_mod, "STRAGGLER_FACTOR", factor)
        monkeypatch.setattr(supervisor_mod, "MIN_STRAGGLER_SAMPLES", samples)

    return set_constants


@pytest.fixture(scope="module")
def engine():
    return Engine()


@pytest.fixture(scope="module")
def reference(engine):
    """The trusted twin: mimd envs/counters for the same inputs."""
    result = engine.run(
        SOURCE, nproc=NPROC, backend="mimd",
        bindings_for=lambda p: {"n": 48},
    )
    return result


def run_pmimd(engine, plan=None, policy=None, config=None, **settings):
    return engine.run(
        SOURCE,
        nproc=NPROC,
        backend="pmimd",
        bindings_for=lambda p: {"n": 48},
        fault_plan=plan,
        policy=policy,
        config=config
        or BackendConfig(workers=2, supervision=FAST),
        **settings,
    )


def assert_matches_reference(result, reference):
    for env, ref_env in zip(result.env, reference.env):
        assert env["s"] == ref_env["s"]
        assert np.array_equal(env["x"].data, ref_env["x"].data)
    for c, ref_c in zip(result.counters, reference.counters):
        assert c.total_steps == ref_c.total_steps
        assert dict(c.events) == dict(ref_c.events)


class TestFastRecovery:
    """Tier-1: recoveries that settle in well under a second."""

    def test_worker_kill_recovered(self, engine, reference, speculate):
        speculate()
        plan = FaultPlan(seed=1, worker_kill=(0,), backends=("pmimd",))
        result = run_pmimd(engine, plan=plan)
        assert_matches_reference(result, reference)
        kinds = [e["event"] for e in result.events]
        assert "worker-dead" in kinds
        assert "respawn" in kinds
        assert "retry" in kinds

    def test_unrecoverable_pool_degrades_to_mimd(
        self, engine, reference, speculate
    ):
        speculate()
        plan = FaultPlan(seed=2, fail_backends=("pmimd",))
        policy = FallbackPolicy(chain=("pmimd", "mimd"), retries=0)
        result = run_pmimd(engine, plan=plan, policy=policy)
        assert result.backend == "mimd"
        assert_matches_reference(result, reference)
        trail = [(a.backend, a.ok, a.fault_kind) for a in result.attempts]
        assert trail == [
            ("pmimd", False, "BackendFault"),
            ("mimd", True, None),
        ]
        # The failed attempt carries the classified dump.
        assert result.attempts[0].crash_dump["error"] == "BackendFault"

    def test_retries_exhausted_then_degrades(
        self, engine, reference, monkeypatch
    ):
        """Kill injection with zero retry budget: the supervisor gives
        up, and the FallbackPolicy still lands on the right answer."""
        monkeypatch.setattr(supervisor_mod, "MAX_RETRIES", 0)
        monkeypatch.setattr(supervisor_mod, "MAX_RESPAWNS", 2)
        plan = FaultPlan(seed=3, worker_kill=(0, 1, 2, 3),
                         backends=("pmimd",))
        policy = FallbackPolicy(chain=("pmimd", "mimd"), retries=0)
        config = BackendConfig(
            workers=2,
            supervision=SupervisionPolicy(
                wedge_timeout=0.6, backoff_base_seconds=0.01
            ),
        )
        result = run_pmimd(engine, plan=plan, policy=policy, config=config)
        assert result.backend == "mimd"
        assert_matches_reference(result, reference)
        dump = result.attempts[0].crash_dump
        assert "supervision_events" in dump
        assert any(
            e["event"] == "unrecoverable"
            for e in dump["supervision_events"]
        )


@pytest.mark.chaos
class TestInjectionMatrix:
    """The kill/hang/slow matrix the CI chaos-smoke job runs."""

    @pytest.mark.parametrize("kind", ["kill", "hang", "slow"])
    def test_explicit_injection(self, engine, reference, speculate, kind):
        speculate()
        plan = FaultPlan(
            seed=10,
            backends=("pmimd",),
            hang_seconds=5.0,
            slow_seconds=0.8,
            **{f"worker_{kind}": (1,)},
        )
        result = run_pmimd(engine, plan=plan)
        assert_matches_reference(result, reference)
        kinds = {e["event"] for e in result.events}
        if kind == "kill":
            assert "worker-dead" in kinds
        elif kind == "hang":
            # Straggler speculation may outrun the wedge verdict — both
            # are legitimate recoveries for a silent worker.
            assert kinds & {"worker-wedged", "speculate"}
        else:
            assert "speculate" in kinds

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_rate_based_injection(self, engine, reference, speculate, seed):
        """Seeded 10%-of-shards random kill/hang/slow: every recovery
        path must still produce the exact reference answer."""
        speculate()
        plan = FaultPlan(
            seed=seed,
            worker_fault_rate=0.10,
            hang_seconds=5.0,
            slow_seconds=0.3,
            backends=("pmimd",),
        )
        policy = FallbackPolicy(chain=("pmimd", "mimd"), retries=1)
        result = run_pmimd(engine, plan=plan, policy=policy)
        assert_matches_reference(result, reference)
        for attempt in result.attempts:
            if not attempt.ok:
                assert attempt.fault_kind  # classified, never anonymous

    def test_slow_worker_speculated(self, engine, reference, speculate):
        speculate(factor=2.0, samples=2)
        plan = FaultPlan(
            seed=11, worker_slow=(2,), slow_seconds=1.0,
            backends=("pmimd",),
        )
        config = BackendConfig(
            workers=2,
            supervision=SupervisionPolicy(
                wedge_timeout=5.0, straggler_floor_seconds=0.05
            ),
        )
        result = run_pmimd(engine, plan=plan, config=config)
        assert_matches_reference(result, reference)
        assert result.events  # supervision story present

    def test_hang_recovery_classified(self, engine, reference, speculate):
        plan = FaultPlan(
            seed=12, worker_hang=(0,), hang_seconds=5.0,
            backends=("pmimd",),
        )
        # Speculation off (absurd sample requirement) so the hang must
        # be recovered through the wedge path, deterministically.
        speculate(factor=4.0, samples=1000)
        config = BackendConfig(
            workers=2,
            supervision=SupervisionPolicy(
                wedge_timeout=0.6, backoff_base_seconds=0.01
            ),
        )
        result = run_pmimd(engine, plan=plan, config=config)
        assert_matches_reference(result, reference)
        wedged = [
            e for e in result.events if e["event"] == "worker-wedged"
        ]
        assert wedged and "no heartbeat" in wedged[0]["detail"]

@pytest.mark.chaos
class TestCheckpointChaos:
    """Durable execution under injection: a worker dies *between*
    checkpoint boundaries and the replay must resume from the stored
    per-processor checkpoint — lost work bounded by one interval, final
    answer still exactly the reference's.  CI's chaos-smoke job runs
    this matrix as its own step."""

    EVERY = 5

    @pytest.fixture(autouse=True)
    def fast_speculation(self, speculate):
        speculate()

    def run_with_checkpoints(self, engine, tmp_path, kill_after):
        plan = FaultPlan(
            seed=20,
            worker_kill=(0,),
            kill_after_steps=kill_after,
            backends=("pmimd",),
        )
        return run_pmimd(
            engine,
            plan=plan,
            checkpoint_every=self.EVERY,
            checkpoint_dir=str(tmp_path),
        )

    def test_kill_between_checkpoints_resumes_from_store(
        self, engine, reference, tmp_path
    ):
        # 12 statements in: the first processor of the shard is past
        # its step-10 capture but short of step 15 when the worker dies.
        result = self.run_with_checkpoints(engine, tmp_path, kill_after=12)
        assert_matches_reference(result, reference)
        kinds = [e["event"] for e in result.events]
        assert "worker-dead" in kinds
        resumes = [
            e for e in result.events if e["event"] == "checkpoint-resume"
        ]
        assert resumes, "replay reran from statement 0, not the store"
        for event in resumes:
            # Resumed at a capture boundary past step 0: the work lost
            # to the kill is less than one checkpoint interval.
            assert event["step"] > 0
            assert event["step"] % self.EVERY == 0

    def test_store_cleared_after_completion(
        self, engine, reference, tmp_path
    ):
        from repro.reliability import CheckpointStore

        result = self.run_with_checkpoints(engine, tmp_path, kill_after=12)
        assert_matches_reference(result, reference)
        # Completed processors clear their keys — nothing stale left to
        # leak into an unrelated later run.
        assert CheckpointStore(str(tmp_path)).keys() == []

    def test_corrupt_proc_generation_falls_back(
        self, engine, reference, tmp_path
    ):
        """A corrupted newest per-processor generation is skipped by
        the digest check; the replay still lands on the exact answer
        (from an older generation or a clean rerun — never garbage)."""
        from repro.reliability import Checkpoint, CheckpointStore

        store = CheckpointStore(str(tmp_path))
        # Hostile seed: a plausible-looking but corrupt newest
        # generation for proc 1, plus an alien-backend checkpoint for
        # proc 2 that the worker must ignore.
        path = store.save(
            "proc-1",
            Checkpoint(backend="scalar", step=5, pc=0, env={}),
        )
        blob = bytearray(Path(path).read_bytes())
        blob[-1] ^= 0x01
        Path(path).write_bytes(bytes(blob))
        store.save(
            "proc-2", Checkpoint(backend="vm", step=5, pc=0, env={})
        )
        result = self.run_with_checkpoints(engine, tmp_path, kill_after=17)
        assert_matches_reference(result, reference)
