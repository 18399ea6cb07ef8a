"""Process-parallel SPMD backend tests (fork-based worker pool)."""

import numpy as np
import pytest

from repro.exec.mimd import MIMDSimulator
from repro.exec.pmimd import (
    PMIMDExecutor,
    Shard,
    UnchangedInput,
    mark_unchanged,
    plan_shards,
    replicate_bindings,
    restore_unchanged,
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


def test_default_workers_follows_the_affinity_mask(monkeypatch):
    """Sized from the CPUs this process may run on, not the host's
    count, floored at 2 and capped at nproc."""
    from repro.exec import pmimd

    monkeypatch.setattr(pmimd.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(pmimd.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pmimd.default_workers(8) == 2
    monkeypatch.setattr(
        pmimd.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4}, raising=False
    )
    assert pmimd.default_workers(8) == 5
    assert pmimd.default_workers(3) == 3
    assert pmimd.default_workers(1) == 1
    monkeypatch.delattr(pmimd.os, "sched_getaffinity", raising=False)
    assert pmimd.default_workers(8) == 8  # no affinity call: cpu_count


N = 1024  # 8 KiB of float64: above the shared-memory threshold

READS = """PROGRAM reads
  INTEGER i, myproc
  REAL x(1024), s
  s = 0.0
  DO i = myproc, 1024, 7
    s = s + x(i)
  ENDDO
END
"""

WRITES = """PROGRAM writes
  INTEGER myproc
  REAL x(1024)
  x(myproc) = 0.0
  x(myproc + 3) = x(myproc + 3) * 2.0
END
"""


def _signature(value):
    """Everything that makes two env values bit-identical."""
    if isinstance(value, FArray):
        return ("FArray", value.name) + _signature(value.data)
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        ints = data.reshape(-1).view(np.uint8).tolist()
        return (value.dtype.str, value.shape, ints)
    return (type(value).__name__, np.asarray(value).tobytes())


def _assert_bit_identical(envs, reference):
    assert len(envs) == len(reference)
    for env, ref in zip(envs, reference):
        assert sorted(env) == sorted(ref)
        for name in ref:
            assert _signature(env[name]) == _signature(ref[name]), name


def _arrays(value):
    if isinstance(value, FArray):
        return [value.data]
    return [value] if isinstance(value, np.ndarray) else []


def _assert_private(envs, bindings):
    """No array of one env shares memory with another env's or with the
    caller's bindings, and writing one changes nothing elsewhere."""
    caller = [a for value in bindings.values() for a in _arrays(value)]
    owned = [
        (p, a) for p, env in enumerate(envs) for value in env.values()
        for a in _arrays(value)
    ]
    for i, (p, array) in enumerate(owned):
        assert not any(np.shares_memory(array, other) for other in caller)
        for q, other in owned[i + 1 :]:
            assert p == q or not np.shares_memory(array, other)
    before = [_signature(v) for v in bindings.values()]
    others = [_signature(v) for env in envs[1:] for v in env.values()]
    for array in (a for value in envs[0].values() for a in _arrays(value)):
        array.reshape(-1)[0] = 99
    assert [_signature(v) for v in bindings.values()] == before
    assert [_signature(v) for env in envs[1:] for v in env.values()] == others


def _both(source, bindings=None, bindings_for=None, nproc=3):
    from repro.runtime import Engine

    program = Engine().compile(source)
    runs = [
        program.run(
            bindings, nproc=nproc, backend=backend, bindings_for=bindings_for
        )
        for backend in ("mimd", "pmimd")
    ]
    assert runs[1].backend == "pmimd"
    assert [c.state_dict() for c in runs[1].counters] == [
        c.state_dict() for c in runs[0].counters
    ]
    return runs[0].env, runs[1].env


class TestShippedEnvs:
    """pmimd envs are bit-identical to mimd's whether a shared input
    ships in full or as an UnchangedInput marker, and each is private."""

    def _check(self, source, bindings):
        mimd, pmimd = _both(source, bindings)
        _assert_bit_identical(pmimd, mimd)
        _assert_private(pmimd, bindings)
        return pmimd

    def test_untouched_shared_input(self):
        x = np.linspace(-1.0, 1.0, N)
        envs = self._check(READS, {"x": x})
        assert isinstance(envs[0]["x"], FArray)

    def test_written_shared_input(self):
        x = np.linspace(-1.0, 1.0, N)
        envs = self._check(WRITES, {"x": x})
        assert envs[1]["x"].data[1] == 0.0 and envs[1]["x"].data[0] == x[0]

    def test_real_declaration_over_int64_binding(self):
        envs = self._check(READS, {"x": np.arange(N, dtype=np.int64)})
        assert envs[0]["x"].data.dtype == np.float64

    def test_negative_zero_and_nan(self):
        x = np.full(N, np.nan)
        x[::2] = -0.0
        envs = self._check(READS, {"x": x})
        assert np.signbit(envs[2]["x"].data[0])
        # Writing 0.0 over -0.0 is a change, though ``==`` calls it equal.
        envs = self._check(WRITES, {"x": x})
        assert not np.signbit(envs[0]["x"].data[0])
        assert np.signbit(envs[1]["x"].data[0])

    def test_farray_wrap_binding(self):
        self._check(READS, {"x": FArray.wrap("x", np.linspace(0.0, 3.0, N))})

    def test_undeclared_shared_input(self):
        source = "PROGRAM u\n  INTEGER myproc\n  REAL s\n  s = myproc\nEND\n"
        envs = self._check(source, {"y": np.arange(N, dtype=np.float64)})
        assert type(envs[0]["y"]) is np.ndarray

    def test_bindings_for(self):
        x = np.linspace(-1.0, 1.0, N)
        mimd, pmimd = _both(
            WRITES, bindings_for=lambda p: {"x": x * p}
        )
        _assert_bit_identical(pmimd, mimd)
        _assert_private(pmimd, {"x": x})


class TestMarkUnchanged:
    def test_bytes_decide(self):
        segment = np.array([-0.0, np.nan] * 4)
        same = FArray.wrap("x", segment.copy())
        flipped = FArray.wrap("x", np.array([0.0, np.nan] * 4))
        shipped = mark_unchanged({"x": same, "s": 1.0}, {"x": segment})
        assert shipped["x"] == UnchangedInput("x", (8,), "<f8", True)
        assert shipped["s"] == 1.0
        assert mark_unchanged({"x": flipped}, {"x": segment})["x"] is flipped
        other = FArray.wrap("x", segment.astype(np.float32))
        assert mark_unchanged({"x": other}, {"x": segment})["x"] is other

    @pytest.mark.parametrize("dtype", ["<f8", "<i4", "|b1", "<c16"])
    def test_every_element_width(self, dtype):
        segment = (np.arange(6) % 3).astype(dtype)
        flipped = segment.copy()
        flipped.reshape(-1).view(np.uint8)[-1] ^= 1  # one bit of the last byte
        same = mark_unchanged({"a": segment.copy()}, {"a": segment})["a"]
        assert isinstance(same, UnchangedInput)
        assert mark_unchanged({"a": flipped}, {"a": segment})["a"] is flipped

    def test_reshaped_declaration_keeps_its_shape(self):
        binding = np.arange(12, dtype=np.int64)
        env = {"a": FArray.wrap("a", binding.reshape(3, 4).copy())}
        shipped = mark_unchanged(env, {"a": binding})
        restore_unchanged(shipped, {"a": binding})
        assert shipped["a"].shape == (3, 4)
        assert _signature(shipped["a"]) == _signature(env["a"])
        assert not np.shares_memory(shipped["a"].data, binding)


#: The table1-mimd kernel: one block of the shared pairlist per processor.
NBFORCE = """PROGRAM nbforce
  INTEGER natoms, nbounds, maxpcnt, at1, at2, prc
  INTEGER pcnt(natoms), partners(natoms, maxpcnt), bounds(nbounds)
  REAL f(natoms), fpair
  DO at1 = bounds(myproc) + 1, bounds(myproc + 1)
    f(at1) = 0.0
    DO prc = 1, pcnt(at1)
      at2 = partners(at1, prc)
      CALL force(fpair, at1, at2)
      f(at1) = f(at1) + fpair
    ENDDO
  ENDDO
END
"""


def test_proc_messages_of_the_md_kernel_stay_small():
    """Every ``proc`` message of the 600-atom, 6 Å pairlist run pickles
    to at most 16 KiB: the pairlist goes back as a marker."""
    import pickle

    from repro.exec import pmimd
    from repro.exec.shm import ShmArena
    from repro.kernels.nbforce import make_scalar_force_external
    from repro.md.molecule import synthetic_sod
    from repro.md.pairlist import build_pairlist

    molecule = synthetic_sod(n_atoms=600, seed=1)
    pairlist = build_pairlist(molecule, 6.0)
    blocks = np.array_split(np.arange(600), 8)
    bounds = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    bindings = {
        "natoms": 600,
        "nbounds": len(bounds),
        "maxpcnt": int(pairlist.partners.shape[1]),
        "pcnt": pairlist.pcnt.astype(np.int64),
        "partners": pairlist.partners.astype(np.int64),
        "bounds": bounds.astype(np.int64),
    }
    assert bindings["partners"].nbytes > 400_000

    class Spy:
        def __init__(self):
            self.tasks = [{"shard": 0, "procs": tuple(range(1, 9))}]
            self.sizes = {}

        def recv(self):
            return self.tasks.pop() if self.tasks else {"cmd": "stop"}

        def send(self, message):
            if message["type"] == "proc":
                self.sizes[message["proc"]] = len(pickle.dumps(message))

        def close(self):
            pass

    spy = Spy()
    with ShmArena() as arena:
        light, specs = arena.share_bindings(bindings)
        assert {spec.name for spec in specs} == {"pcnt", "partners"}
        pmimd._worker_loop(
            spy, [0.0] * 3, parse_source(NBFORCE), 8,
            {"force": make_scalar_force_external(molecule)}, None, None,
            light, None, None, tuple(specs),
        )
    assert sorted(spy.sizes) == list(range(1, 9))
    assert max(spy.sizes.values()) <= 16 * 1024, spy.sizes


def test_an_idle_supervisor_wakes_on_the_first_message():
    """With a 2 s poll interval, a tiny run still finishes in well
    under 2 s: worker messages end every idle wait."""
    import time

    policy = SupervisionPolicy(poll_interval=2.0)
    source = parse_source("PROGRAM t\n  INTEGER myproc, s\n  s = myproc\nEND\n")
    began = time.monotonic()
    result = PMIMDExecutor(source, 4, workers=2, supervision=policy).run()
    elapsed = time.monotonic() - began
    assert [env["s"] for env in result.envs] == [1, 2, 3, 4]
    assert elapsed < 1.0, elapsed
