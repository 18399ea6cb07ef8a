"""Shared-memory arena tests: the pmimd backend's 1-copy data path."""

import numpy as np
import pytest

from repro.exec.shm import SHM_THRESHOLD_BYTES, ShmArena, attach
from repro.exec.values import FArray


class TestShareArray:
    def test_round_trip(self):
        data = np.arange(4096, dtype=np.float64)
        with ShmArena() as arena:
            spec = arena.share_array("x", data)
            view, segment = attach(spec)
            try:
                assert view.shape == data.shape
                assert view.dtype == data.dtype
                assert np.array_equal(view, data)
            finally:
                segment.close()

    def test_copy_not_alias(self):
        data = np.arange(1024, dtype=np.float64)
        with ShmArena() as arena:
            spec = arena.share_array("x", data)
            data[0] = -1.0  # mutate the original after sharing
            view, segment = attach(spec)
            try:
                assert view[0] == 0.0
            finally:
                segment.close()

    def test_non_contiguous_source(self):
        data = np.arange(2048, dtype=np.float64)[::2]
        assert not data.flags["C_CONTIGUOUS"]
        with ShmArena() as arena:
            spec = arena.share_array("x", data)
            view, segment = attach(spec)
            try:
                assert np.array_equal(view, data)
            finally:
                segment.close()


class TestShareBindings:
    def _big(self):
        n = SHM_THRESHOLD_BYTES // 8 + 1
        return np.arange(n, dtype=np.float64)

    def test_large_arrays_move_to_shm(self):
        with ShmArena() as arena:
            light, specs = arena.share_bindings({"x": self._big(), "k": 3})
            assert [spec.name for spec in specs] == ["x"]
            assert "x" not in light
            assert light["k"] == 3

    def test_small_arrays_stay_inline(self):
        small = np.arange(4, dtype=np.float64)
        with ShmArena() as arena:
            light, specs = arena.share_bindings({"x": small})
            assert specs == []
            assert np.array_equal(light["x"], small)

    def test_farray_payload_is_shared(self):
        farr = FArray.wrap("x", self._big())
        with ShmArena() as arena:
            light, specs = arena.share_bindings({"x": farr})
            assert [spec.name for spec in specs] == ["x"]
            view, segment = attach(specs[0])
            try:
                assert np.array_equal(view, farr.data)
            finally:
                segment.close()

    def test_scalars_pass_through(self):
        with ShmArena() as arena:
            light, specs = arena.share_bindings({"k": 7, "cut": 2.5})
            assert light == {"k": 7, "cut": 2.5}
            assert specs == []


class TestLifecycle:
    def test_close_is_idempotent(self):
        arena = ShmArena()
        arena.share_array("x", np.zeros(1024))
        arena.close()
        arena.close()  # second close must not raise

    def test_attach_after_close_fails(self):
        arena = ShmArena()
        spec = arena.share_array("x", np.zeros(1024))
        arena.close()
        with pytest.raises(Exception):
            attach(spec)


class TestAbnormalTeardown:
    """Arena hygiene when a pmimd run dies instead of finishing.

    The arena lives in ``PMIMDExecutor.run``'s finally block, so a
    supervisor abort (non-retryable program fault) and a mid-run worker
    kill must both unlink every segment — leaked POSIX shm survives the
    process and eats /dev/shm until reboot.
    """

    SOURCE = """
SUBROUTINE MAIN()
  INTEGER I, N
  REAL BIG(600)
  N = 600
  DO 10 I = 1, N
    BIG(I) = BIG(I) + I
10 CONTINUE
END
"""

    BAD_SOURCE = """
SUBROUTINE MAIN()
  INTEGER I
  REAL BIG(600)
  I = 700
  BIG(I) = 1.0
END
"""

    @pytest.fixture()
    def recording_arena(self, monkeypatch):
        from repro.exec import pmimd as pmimd_mod

        instances = []
        segment_names = []

        class RecordingArena(ShmArena):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                instances.append(self)

            def share_array(self, name, array):
                spec = super().share_array(name, array)
                segment_names.append(spec.segment)
                return spec

        monkeypatch.setattr(pmimd_mod, "ShmArena", RecordingArena)
        return instances, segment_names

    def _run(self, source, plan=None):
        from repro.reliability.supervisor import SupervisionPolicy
        from repro.runtime import BackendConfig, Engine

        config = BackendConfig(
            workers=2,
            supervision=SupervisionPolicy(
                wedge_timeout=0.75,
                backoff_base_seconds=0.01,
                backoff_max_seconds=0.05,
                straggler_floor_seconds=0.2,
            ),
        )
        # 4800 bytes >= the shm threshold: the binding must travel
        # through the arena, not the pickle.
        bindings = {"big": np.zeros(600, dtype=np.float64)}
        return Engine().run(
            source,
            bindings,
            nproc=4,
            backend="pmimd",
            config=config,
            fault_plan=plan,
        )

    def _assert_unlinked(self, instances, segment_names):
        assert instances, "pmimd run never built an arena"
        assert segment_names, "large binding never moved to shared memory"
        assert all(arena._closed for arena in instances)
        for name in segment_names:
            with pytest.raises(FileNotFoundError):
                attach(
                    type(
                        "Spec",
                        (),
                        {
                            "segment": name,
                            "name": "big",
                            "shape": (600,),
                            "dtype": "<f8",
                        },
                    )()
                )

    def test_supervisor_abort_unlinks_all_segments(self, recording_arena):
        from repro.reliability.errors import ReliabilityError

        instances, segment_names = recording_arena
        with pytest.raises(ReliabilityError):
            self._run(self.BAD_SOURCE)
        self._assert_unlinked(instances, segment_names)

    def test_worker_kill_recovery_unlinks_all_segments(self, recording_arena):
        from repro.reliability.faults import FaultPlan

        instances, segment_names = recording_arena
        result = self._run(
            self.SOURCE, plan=FaultPlan(worker_kill=(0,), backends=("pmimd",))
        )
        assert any(e.get("event") == "worker-dead" for e in result.events)
        expected = np.zeros(600) + np.arange(1, 601)
        for env in result.envs:
            assert np.array_equal(np.asarray(env["big"].data), expected)
        self._assert_unlinked(instances, segment_names)


class TestResourceTracker:
    """Forked workers share the parent's resource tracker.

    A worker that unregistered a segment it attached would drop the
    arena's own registration, and the arena's ``unlink`` would then make
    the tracker print a ``KeyError`` traceback on stderr per segment.
    The tracker writes to the stderr of the process that started it, so
    the run happens in a fresh interpreter whose stderr the test owns.
    """

    SCRIPT = """
import numpy as np
from repro.exec import pmimd
from repro.exec.shm import ShmArena
from repro.runtime import BackendConfig, Engine

names = []

class RecordingArena(ShmArena):
    def share_array(self, name, array):
        spec = super().share_array(name, array)
        names.append(spec.segment)
        return spec

pmimd.ShmArena = RecordingArena
SOURCE = '''PROGRAM spmd
  INTEGER i, n, myproc, nproc
  REAL s, big(600), other(600)
  s = 0.0
  DO i = myproc, n, nproc
    s = s + big(i) + other(i)
  ENDDO
END
'''
bindings = {"n": 600, "big": np.arange(600.0), "other": np.ones(600)}
result = Engine().run(
    SOURCE, bindings, nproc=4, backend="pmimd", config=BackendConfig(workers=2)
)
total = sum(env["s"] for env in result.envs)
assert total == np.arange(600.0).sum() + 600, total
print(" ".join(names))
"""

    def test_pmimd_shared_bindings_leave_tracker_quiet(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names = proc.stdout.split()
        assert len(names) == 2
        assert "KeyError" not in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        for name in names:
            spec = type(
                "Spec", (), {"segment": name, "name": "x", "shape": (600,), "dtype": "<f8"}
            )()
            with pytest.raises(FileNotFoundError):
                attach(spec)
