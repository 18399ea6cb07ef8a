"""Process-parallel SPMD backend tests (fork-based worker pool)."""

import numpy as np
import pytest

from repro.exec.mimd import MIMDSimulator
from repro.exec.pmimd import (
    PMIMDExecutor,
    Shard,
    plan_shards,
    replicate_bindings,
)
from repro.exec.values import FArray
from repro.lang.parser import parse_source
from repro.reliability.supervisor import SupervisionPolicy

SPMD_SOURCE = """PROGRAM spmd
  INTEGER i, n, myproc, nproc
  REAL s, x(64)
  s = 0.0
  DO i = myproc, n, nproc
    x(i) = i * 2.0
    s = s + x(i)
  ENDDO
END
"""


class TestPlanShards:
    def test_block_contiguous(self):
        shards = plan_shards(8, 3, "block")
        assert [s.procs for s in shards] == [(1, 2, 3), (4, 5, 6), (7, 8)]
        assert [s.index for s in shards] == [0, 1, 2]

    def test_cyclic_round_robin(self):
        shards = plan_shards(8, 3, "cyclic")
        assert [s.procs for s in shards] == [(1, 4, 7), (2, 5, 8), (3, 6)]

    def test_every_proc_exactly_once(self):
        for layout in ("block", "cyclic"):
            for nshards in (1, 2, 5, 7, 12):
                shards = plan_shards(7, nshards, layout)
                procs = sorted(p for s in shards for p in s.procs)
                assert procs == list(range(1, 8))

    def test_clamps_to_nproc(self):
        shards = plan_shards(3, 10, "block")
        assert len(shards) == 3
        assert all(len(s.procs) == 1 for s in shards)

    def test_at_least_one_shard(self):
        shards = plan_shards(4, 0, "block")
        assert len(shards) == 1
        assert shards[0].procs == (1, 2, 3, 4)

    def test_unknown_layout(self):
        with pytest.raises(ValueError, match="layout"):
            plan_shards(4, 2, "diagonal")


class TestReplicateBindings:
    def test_ndarray_deep_copied(self):
        x = np.arange(8.0)
        copy = replicate_bindings({"x": x})
        copy["x"][0] = -1.0
        assert x[0] == 0.0

    def test_farray_stays_farray(self):
        farr = FArray.wrap("x", np.arange(8.0))
        copy = replicate_bindings({"x": farr})
        assert isinstance(copy["x"], FArray)
        copy["x"].data[0] = -1.0
        assert farr.data[0] == 0.0

    def test_scalars_pass_through(self):
        assert replicate_bindings({"k": 3, "t": 2.5}) == {"k": 3, "t": 2.5}


@pytest.fixture(scope="module")
def tree():
    return parse_source(SPMD_SOURCE)


def _run_pair(tree, nproc, **kwargs):
    """Run the same program on mimd and pmimd with identical inputs."""
    bindings_for = lambda p: {"n": 32}
    mimd = MIMDSimulator(tree, nproc).run(bindings_for=bindings_for)
    pmimd = PMIMDExecutor(tree, nproc, **kwargs).run(bindings_for=bindings_for)
    return mimd, pmimd


class TestParityWithMIMD:
    def test_envs_and_counters_agree(self, tree):
        mimd, pmimd = _run_pair(tree, 4, workers=2)
        assert pmimd.nproc == 4
        for ref_env, env in zip(mimd.envs, pmimd.envs):
            assert env["s"] == ref_env["s"]
            assert np.array_equal(env["x"].data, ref_env["x"].data)
        for ref_c, c in zip(mimd.counters, pmimd.counters):
            assert c.total_steps == ref_c.total_steps
            assert dict(c.events) == dict(ref_c.events)
        assert pmimd.statements == mimd.statements
        assert pmimd.time_steps() == mimd.time_steps()

    def test_single_worker(self, tree):
        mimd, pmimd = _run_pair(tree, 3, workers=1)
        assert [env["s"] for env in pmimd.envs] == [
            env["s"] for env in mimd.envs
        ]

    def test_more_workers_than_shards(self, tree):
        _, pmimd = _run_pair(tree, 2, workers=16)
        assert pmimd.workers <= 16
        assert len(pmimd.envs) == 2

    def test_cyclic_shards_same_answer(self, tree):
        mimd, pmimd = _run_pair(
            tree, 5, workers=2, shards=3, shard_layout="cyclic"
        )
        assert [env["s"] for env in pmimd.envs] == [
            env["s"] for env in mimd.envs
        ]

    def test_event_log_covers_all_shards(self, tree):
        _, pmimd = _run_pair(tree, 4, workers=2, shards=4)
        dispatched = {
            e["shard"] for e in pmimd.events if e["event"] == "dispatch"
        }
        assert dispatched == {0, 1, 2, 3}
        done = {
            e["proc"] for e in pmimd.events if e["event"] == "proc-complete"
        }
        assert done == {1, 2, 3, 4}
        assert pmimd.recoveries == 0
        assert pmimd.speculations == 0


class TestSharedMemoryBindings:
    def test_large_binding_rides_shm(self, tree):
        # 64 float64 = 512B; shrink the program's array instead: use a
        # big external input that every processor reads.
        source = parse_source(
            "PROGRAM p\n"
            "  INTEGER i, myproc\n"
            "  REAL big(2048), s\n"
            "  s = 0.0\n"
            "  DO i = 1, 2048\n"
            "    s = s + big(i)\n"
            "  ENDDO\n"
            "  s = s + myproc\n"
            "END\n"
        )
        big = np.arange(2048, dtype=np.float64)
        result = PMIMDExecutor(source, 3, workers=2).run(
            bindings={"big": big}
        )
        expected = float(big.sum())
        assert [env["s"] for env in result.envs] == [
            expected + 1.0,
            expected + 2.0,
            expected + 3.0,
        ]
        # The parent's array was never mutated by the workers.
        assert np.array_equal(big, np.arange(2048, dtype=np.float64))

    def test_plain_bindings_are_private_per_proc(self, tree):
        result = PMIMDExecutor(tree, 3, workers=2).run(bindings={"n": 32})
        totals = [env["s"] for env in result.envs]
        ref = MIMDSimulator(tree, 3).run(
            bindings_for=lambda p: {"n": 32}
        )
        assert totals == [env["s"] for env in ref.envs]


class TestConfigPlumbing:
    def test_run_builds_the_executor_from_its_settings(self, tree, monkeypatch):
        from repro.runtime import BackendConfig, Engine

        built = []
        init = PMIMDExecutor.__init__

        def recording(executor, *args, **kwargs):
            init(executor, *args, **kwargs)
            built.append(executor)

        monkeypatch.setattr(PMIMDExecutor, "__init__", recording)
        policy = SupervisionPolicy(wedge_timeout=9.0)
        config = BackendConfig(
            workers=2, shards=3, shard_layout="cyclic", supervision=policy,
        )
        Engine().compile(tree).run(
            {"n": 16}, nproc=4, backend="pmimd", config=config, checkpoint_every=7
        )
        (executor,) = built
        assert executor.nproc == 4
        assert executor.workers == 2
        assert executor.shards == 3
        assert executor.shard_layout == "cyclic"
        assert executor.supervision.wedge_timeout == 9.0
        assert executor.checkpoint_every == 7

    def test_nproc_validation(self, tree):
        with pytest.raises(ValueError, match="nproc"):
            PMIMDExecutor(tree, 0)

    def test_shard_dataclass_frozen(self):
        shard = Shard(0, (1, 2))
        with pytest.raises(Exception):
            shard.index = 1


def test_the_parent_generates_the_code_workers_inherit(tree, monkeypatch):
    """Workers are forked per run; the parent fills the generated-code
    cache first, so no worker compiles the program's sources itself."""
    from repro.exec import scalar

    monkeypatch.setattr(scalar, "_FACTORIES", {})
    result = PMIMDExecutor(tree, 2, workers=1).run(bindings_for=lambda p: {"n": 8})
    assert [env["s"] for env in result.envs] == [32.0, 40.0]
    assert scalar._FACTORIES
