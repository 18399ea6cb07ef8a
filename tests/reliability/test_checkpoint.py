"""Durable execution: restorable checkpoints and the crash-safe store.

Three layers of contract:

* :class:`TestStore` — the on-disk ``CheckpointStore``: atomic
  publishes, digest verification *before* unpickling, the generation
  fallback ladder (corrupt newest → previous → ``None``/clean rerun).
  CI's chaos-smoke job runs the corruption subset as a named step.
* :class:`TestExactResume` — interrupt a run mid-flight, resume from
  the last capture, demand bit-identical envs and counters versus the
  uninterrupted run, on both checkpointing backends (vm, scalar).
* :class:`TestRefusals` — every way a checkpoint can be replayed into
  the *wrong* machine (other backend, other program, other PE width,
  a fallback chain) must raise, never silently skew.  A VM checkpoint
  is not tied to a dispatch mode: captures are step-exact with and
  without block closures and resume in either.
"""

import copy
import os
import pickle

import numpy as np
import pytest

from repro.lang.errors import InterpreterError
from repro.reliability import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)
from repro.reliability.budget import Budget
from repro.reliability.errors import BudgetExceeded
from repro.runtime import BackendConfig, Engine, FallbackPolicy
from repro.vm import Op, fuse_code
from repro.vm.isa import BYTECODE_LAYOUT

SOURCE = """PROGRAM ckpt
  INTEGER i, n
  REAL s, x(64)
  s = 0.0
  DO i = 1, n
    x(i) = i * 1.5
    s = s + x(i)
  ENDDO
END
"""

OTHER_SOURCE = """PROGRAM other
  INTEGER i
  REAL y(8)
  DO i = 1, 8
    y(i) = i * 2.0
  ENDDO
END
"""

NPROC = 4
BINDINGS = {"n": 48}


@pytest.fixture(scope="module")
def engine():
    return Engine()


@pytest.fixture(scope="module")
def program(engine):
    return engine.compile(SOURCE)


def make_checkpoint(step=10, backend="scalar", **overrides):
    fields = dict(
        backend=backend,
        step=step,
        pc=3,
        env={"a": 1, "x": np.arange(4.0)},
        counters={},
        nproc=1,
    )
    fields.update(overrides)
    return Checkpoint(**fields)


def assert_env_equal(env, ref_env):
    """Exact env equality on the program's outputs (vm and scalar
    lockstep runs both yield one env dict; values may be per-PE)."""
    for name in ("s", "x"):
        value = env[name]
        ref = ref_env[name]
        value = np.asarray(getattr(value, "data", value))
        ref = np.asarray(getattr(ref, "data", ref))
        assert np.array_equal(value, ref), name


def assert_counters_equal(a, b):
    """Exact ExecutionCounters equality through state_dict."""
    sa, sb = a.state_dict(), b.state_dict()
    assert sa.keys() == sb.keys()
    for key in sa:
        va, vb = sa[key], sb[key]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            assert np.array_equal(va, vb), key
        elif isinstance(va, dict):
            assert va == vb, key
        else:
            assert va == vb, key


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("run", make_checkpoint(step=7))
        loaded = store.load_latest("run")
        assert loaded.step == 7
        assert loaded.backend == "scalar"
        assert loaded.env["a"] == 1
        assert np.array_equal(loaded.env["x"], np.arange(4.0))

    def test_publish_is_atomic_no_temp_left(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("run", make_checkpoint())
        names = os.listdir(tmp_path / "run")
        assert names == ["gen-1.ckpt"]

    def test_keep_prunes_old_generations(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=2)
        for step in (1, 2, 3, 4):
            store.save("run", make_checkpoint(step=step))
        assert sorted(os.listdir(tmp_path / "run")) == [
            "gen-3.ckpt",
            "gen-4.ckpt",
        ]
        assert store.latest_generation("run") == 4
        assert store.load_latest("run").step == 4

    def test_truncated_newest_falls_back_a_generation(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("run", make_checkpoint(step=5))
        newest = store.save("run", make_checkpoint(step=9))
        blob = open(newest, "rb").read()
        with open(newest, "wb") as handle:
            handle.write(blob[: len(blob) // 2])  # torn write
        with pytest.raises(CheckpointError, match="truncated"):
            store.load_file(newest)
        assert store.load_latest("run").step == 5

    def test_bitflip_detected_by_digest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("run", make_checkpoint(step=5))
        newest = store.save("run", make_checkpoint(step=9))
        blob = bytearray(open(newest, "rb").read())
        blob[-10] ^= 0xFF  # flip one payload byte; length unchanged
        with open(newest, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            store.load_file(newest)
        assert store.load_latest("run").step == 5

    def test_hostile_payload_never_reaches_the_unpickler(self, tmp_path):
        """A swapped payload fails the digest check before pickle.loads
        ever runs — the store does not execute attacker bytes."""
        fired = []

        class Boom:
            def __reduce__(self):
                return (fired.append, ("unpickled",))

        store = CheckpointStore(str(tmp_path))
        path = store.save("run", make_checkpoint())
        blob = open(path, "rb").read()
        header, _, _ = blob.partition(b"\n")
        hostile = pickle.dumps(Boom())
        # Forge the length so only the digest stands between the
        # hostile bytes and the unpickler.
        import json

        doc = json.loads(header)
        doc["payload_bytes"] = len(hostile)
        with open(path, "wb") as handle:
            handle.write(json.dumps(doc).encode() + b"\n" + hostile)
        with pytest.raises(CheckpointError, match="digest mismatch"):
            store.load_file(path)
        assert fired == []
        assert store.load_latest("run") is None

    def test_forward_version_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.save(
            "run", make_checkpoint(version=CHECKPOINT_VERSION + 1)
        )
        with pytest.raises(CheckpointError, match="forward version"):
            store.load_file(path)
        assert store.load_latest("run") is None

    def test_non_checkpoint_payload_rejected(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.save("run", make_checkpoint())
        payload = pickle.dumps({"not": "a checkpoint"})
        import hashlib
        import json

        header = json.dumps(
            {
                "format": "repro.checkpoint/v1",
                "key": "run",
                "generation": 1,
                "step": 0,
                "backend": "scalar",
                "sha256": hashlib.sha256(payload).hexdigest(),
                "payload_bytes": len(payload),
            }
        ).encode()
        with open(path, "wb") as handle:
            handle.write(header + b"\n" + payload)
        with pytest.raises(CheckpointError, match="not a Checkpoint"):
            store.load_file(path)

    def test_alien_junk_file_skipped(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        os.makedirs(tmp_path / "run")
        (tmp_path / "run" / "gen-1.ckpt").write_bytes(b"junk, no header")
        assert store.load_latest("run") is None

    def test_all_generations_corrupt_means_clean_rerun(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for step in (1, 2):
            path = store.save("run", make_checkpoint(step=step))
            (tmp_path / "run" / os.path.basename(path)).write_bytes(b"x")
        assert store.load_latest("run") is None

    def test_missing_key_is_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).load_latest("nothing") is None

    def test_clear_and_keys(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("proc-1", make_checkpoint())
        store.save("proc-2", make_checkpoint())
        assert store.keys() == ["proc-1", "proc-2"]
        store.clear("proc-1")
        store.clear("proc-1")  # idempotent
        assert store.keys() == ["proc-2"]

    def test_detach_is_a_deep_copy(self):
        env = {"x": np.zeros(4)}
        ckpt = Checkpoint(
            backend="scalar", step=1, pc=0, env=env
        ).detach()
        env["x"][0] = 99.0
        assert ckpt.env["x"][0] == 0.0


def interrupted_then_resumed(program, backend, cut, every=7):
    """Run to ``cut`` steps with capture on, then resume to the end."""
    nproc = NPROC if backend == "vm" else 0
    captured = []
    with pytest.raises(BudgetExceeded):
        program.run(
            dict(BINDINGS),
            backend=backend,
            nproc=nproc,
            budget=Budget(max_steps=cut),
            checkpoint_every=every,
            checkpoint_sink=captured.append,
        )
    assert captured, "no checkpoint captured before the interrupt"
    return captured, program.run(
        dict(BINDINGS),
        backend="auto",
        nproc=nproc,
        resume_from=captured[-1],
    )


class TestExactResume:
    @pytest.fixture(scope="class")
    def references(self, program):
        return {
            "vm": program.run(dict(BINDINGS), backend="vm", nproc=NPROC),
            "scalar": program.run(dict(BINDINGS), backend="scalar"),
        }

    @pytest.mark.parametrize("backend", ["vm", "scalar"])
    def test_resume_is_bit_identical(self, program, references, backend):
        ref = references[backend]
        # The budget meters executed statements/instructions — the same
        # unit checkpoint steps use — so halve that, not total_steps.
        captured, resumed = interrupted_then_resumed(
            program, backend, cut=int(ref.statements) // 2
        )
        assert resumed.backend == backend
        assert resumed.resumed_from_step == captured[-1].step
        assert_env_equal(resumed.env, ref.env)
        assert_counters_equal(resumed.counters, ref.counters)

    @pytest.mark.parametrize("backend", ["vm", "scalar"])
    def test_resume_cadence_is_transparent(self, program, backend):
        """A resumed run re-arms capture at the *same* step boundaries,
        so it emits the same later checkpoints an uninterrupted
        capturing run would."""
        nproc = NPROC if backend == "vm" else 0
        full = []
        program.run(
            dict(BINDINGS),
            backend=backend,
            nproc=nproc,
            checkpoint_every=11,
            checkpoint_sink=full.append,
        )
        full_steps = [c.step for c in full]
        assert full_steps, "program too short to capture"
        tail = []
        program.run(
            dict(BINDINGS),
            backend="auto",
            nproc=nproc,
            resume_from=full[0],
            checkpoint_every=11,
            checkpoint_sink=tail.append,
        )
        assert [c.step for c in tail] == full_steps[1:]

    def test_vm_capture_respects_fused_slack(self, program):
        """The slack is zero: captures land exactly on every boundary,
        at the same pc, with and without block closures."""
        every = 13
        runs = {}
        for fuse in (True, False):
            captured = []
            program.run(
                dict(BINDINGS),
                backend="vm",
                nproc=NPROC,
                checkpoint_every=every,
                checkpoint_sink=captured.append,
                config=BackendConfig(vm_fuse=fuse),
            )
            assert [c.step for c in captured] == [
                every * k for k in range(1, len(captured) + 1)
            ]
            runs[fuse] = [(c.step, c.pc, c.meter_steps) for c in captured]
        assert runs[True] == runs[False]

    @pytest.mark.parametrize("fuse", [True, False])
    def test_cross_mode_resume_matches_uninterrupted(self, program, fuse):
        """A checkpoint captured in one dispatch mode resumes in the
        other to the uninterrupted run's env and counter state — also
        when the capture landed in the middle of a block."""
        reference = program.run(
            dict(BINDINGS), backend="vm", nproc=NPROC,
            config=BackendConfig(vm_fuse=not fuse),
        )
        captured = []
        program.run(
            dict(BINDINGS),
            backend="vm",
            nproc=NPROC,
            checkpoint_every=5,
            checkpoint_sink=captured.append,
            config=BackendConfig(vm_fuse=fuse),
        )
        blocks = fuse_code(program.bytecode())
        inside = {
            pc + offset
            for pc, instr in enumerate(blocks.instructions)
            if instr.op is Op.FUSED
            for offset in range(1, instr.arg.count)
        }
        assert any(c.pc in inside for c in captured), "no mid-block capture"
        for ckpt in captured:
            resumed = program.run(
                resume_from=ckpt, config=BackendConfig(vm_fuse=not fuse)
            )
            assert_env_equal(resumed.env, reference.env)
            assert (
                repr(resumed.counters.state_dict())
                == repr(reference.counters.state_dict())
            )

    def test_store_plumbing_end_to_end(self, program, tmp_path):
        """checkpoint_dir wiring: interrupted run persists generations
        under key "run"; a later process resumes exactly."""
        ref = program.run(dict(BINDINGS), backend="vm", nproc=NPROC)
        with pytest.raises(BudgetExceeded):
            program.run(
                dict(BINDINGS),
                backend="vm",
                nproc=NPROC,
                budget=Budget(max_steps=int(ref.statements) // 2),
                checkpoint_every=9,
                checkpoint_dir=str(tmp_path),
            )
        store = CheckpointStore(str(tmp_path))
        assert store.keys() == ["run"]
        ckpt = store.load_latest("run")
        assert ckpt.meta["source_sha"] == program.source_sha
        resumed = program.run(
            dict(BINDINGS), nproc=NPROC, resume_from=ckpt
        )
        assert_env_equal(resumed.env, ref.env)
        assert_counters_equal(resumed.counters, ref.counters)

    def test_corrupted_store_resume_falls_back_a_generation(
        self, program, tmp_path
    ):
        """The acceptance scenario: newest generation corrupted on disk
        → resume continues from the previous one and still lands on the
        exact answer (never a wrong one)."""
        ref = program.run(dict(BINDINGS), backend="vm", nproc=NPROC)
        with pytest.raises(BudgetExceeded):
            program.run(
                dict(BINDINGS),
                backend="vm",
                nproc=NPROC,
                budget=Budget(max_steps=int(ref.statements) // 2),
                checkpoint_every=5,
                checkpoint_dir=str(tmp_path),
            )
        directory = tmp_path / "run"
        gens = sorted(os.listdir(directory))
        assert len(gens) == 2  # keep=2 ladder in place
        blob = bytearray((directory / gens[-1]).read_bytes())
        blob[-1] ^= 0x01
        (directory / gens[-1]).write_bytes(bytes(blob))
        store = CheckpointStore(str(tmp_path))
        ckpt = store.load_latest("run")
        assert ckpt is not None  # the previous generation
        assert f"gen-{store.latest_generation('run')}.ckpt" == gens[-1]
        resumed = program.run(
            dict(BINDINGS), nproc=NPROC, resume_from=ckpt
        )
        assert_env_equal(resumed.env, ref.env)
        assert_counters_equal(resumed.counters, ref.counters)


MASKED_SOURCE = """PROGRAM masked
  INTEGER p, k, t
  INTEGER v(p), w(p), idx(p)
  REAL q(p, k), acc(p, k)
  v = [1 : p]
  idx = p + 1 - v
  w = 0
  q = 0.0
  q(:, 2) = 1.0
  acc = 0.0
  DO t = 1, lim
    WHERE (MOD(v + t, 3) == 0)
      w = w + v(idx) * t
      WHERE (v > t)
        w = w * 2
        q = q + 1.5
      ELSEWHERE
        w = w - idx(v + bad)
      ENDWHERE
    ELSEWHERE
      WHERE (q > 2.0)
        acc = acc + q
      ELSEWHERE
        acc = acc - 1.0
      ENDWHERE
    ENDWHERE
  ENDDO
END
"""

MASKED_NPROC = 6
MASKED_BINDINGS = {"p": MASKED_NPROC, "k": 3, "lim": 6, "bad": 0}


class TestResumeInsideWhere:
    """Captures inside open WHERE scopes (mask-stack depth 1 and 2, a
    (P, k) section mask at depth 2) resume to the uninterrupted run's
    env and counters, per-lane activity included."""

    @pytest.fixture(scope="class")
    def code(self):
        from repro.lang import parse_source
        from repro.vm import compile_program

        return compile_program(parse_source(MASKED_SOURCE))

    @pytest.mark.parametrize("fuse", [True, False])
    def test_resume_at_every_open_depth(self, code, fuse):
        from repro.vm import SIMDVirtualMachine

        captured = []
        full = SIMDVirtualMachine(
            MASKED_NPROC, fuse=fuse, checkpoint_every=3,
            checkpoint_sink=captured.append,
        )
        ref_env = full.run(code, bindings=dict(MASKED_BINDINGS))
        depths = {len(c.mask_stack) for c in captured}
        assert {1, 2} <= depths
        assert any(np.asarray(c.mask).ndim == 2 for c in captured)
        for ckpt in captured:
            if not ckpt.mask_stack:
                continue
            vm = SIMDVirtualMachine(MASKED_NPROC, fuse=fuse)
            env = vm.run(code, resume_from=ckpt)
            for name in ("w", "acc", "q"):
                assert np.array_equal(
                    np.asarray(getattr(env[name], "data", env[name])),
                    np.asarray(getattr(ref_env[name], "data", ref_env[name])),
                ), (ckpt.step, name)
            assert_counters_equal(vm.counters, full.counters)

    def test_fault_in_inner_scope_counts_alike_on_every_backend(self, code):
        from repro.fuzz.twin import SIMDInterpreter
        from repro.lang import parse_source
        from repro.reliability import OutOfBoundsFault
        from repro.vm import SIMDVirtualMachine

        bindings = dict(MASKED_BINDINGS, bad=MASKED_NPROC)
        machines = [
            SIMDVirtualMachine(MASKED_NPROC, fuse=True),
            SIMDVirtualMachine(MASKED_NPROC, fuse=False),
        ]
        messages = []
        for vm in machines:
            with pytest.raises(OutOfBoundsFault) as excinfo:
                vm.run(code, bindings=dict(bindings))
            messages.append(str(excinfo.value))
            assert len(excinfo.value.snapshot.mask_stack) == 2
        walker = SIMDInterpreter(parse_source(MASKED_SOURCE), MASKED_NPROC)
        with pytest.raises(OutOfBoundsFault):
            walker.run(bindings=dict(bindings))
        assert messages[0] == messages[1]
        assert machines[0].counters.total_steps > 0
        for vm in machines:
            assert_counters_equal(vm.counters, walker.counters)


class TestRefusals:
    @pytest.fixture(scope="class")
    def vm_checkpoint(self, program):
        captured = []
        program.run(
            dict(BINDINGS),
            backend="vm",
            nproc=NPROC,
            checkpoint_every=7,
            checkpoint_sink=captured.append,
        )
        return captured[0]

    def test_other_backend_refused(self, program, vm_checkpoint):
        with pytest.raises(InterpreterError, match="backend"):
            program.run(
                dict(BINDINGS),
                backend="scalar",
                nproc=NPROC,
                resume_from=vm_checkpoint,
            )

    def test_other_program_refused(self, engine, program):
        captured = []
        program.run(
            dict(BINDINGS),
            backend="vm",
            nproc=NPROC,
            checkpoint_every=7,
            checkpoint_sink=captured.append,
        )
        ckpt = captured[0]
        ckpt.meta["source_sha"] = program.source_sha
        other = engine.compile(OTHER_SOURCE)
        with pytest.raises(InterpreterError, match="SHA mismatch"):
            other.run({}, nproc=NPROC, resume_from=ckpt)

    def test_other_width_refused(self, program, vm_checkpoint):
        with pytest.raises(InterpreterError, match="PEs"):
            program.run(
                dict(BINDINGS),
                nproc=NPROC * 2,
                resume_from=vm_checkpoint,
            )

    def test_other_bytecode_layout_refused(self, program, vm_checkpoint, tmp_path):
        # What the VM wrote before DO loops had a hidden trip counter: no
        # layout stamp, and a dispatch-mode stamp.  Its pc and env do
        # not fit today's code, so resuming must refuse, not KeyError.
        assert vm_checkpoint.meta["bytecode"] == BYTECODE_LAYOUT
        old = copy.deepcopy(vm_checkpoint)
        old.meta = {"fuse": True, "source_sha": program.source_sha}
        store = CheckpointStore(tmp_path)
        store.save("run", old)
        loaded = store.load_latest("run")
        for fuse in (True, False):
            with pytest.raises(InterpreterError, match="bytecode layout 1"):
                program.run(
                    dict(BINDINGS),
                    nproc=NPROC,
                    resume_from=loaded,
                    config=BackendConfig(vm_fuse=fuse),
                )

    def test_policy_chain_refused(self, program, vm_checkpoint):
        with pytest.raises(InterpreterError, match="FallbackPolicy"):
            program.run(
                dict(BINDINGS),
                nproc=NPROC,
                resume_from=vm_checkpoint,
                policy=FallbackPolicy(chain=("vm",)),
            )

    def test_lockstep_tree_walker_refused(self, program):
        # the tree-walker is the VM's test oracle, not a backend
        with pytest.raises(InterpreterError, match="unknown backend 'interpreter'"):
            program.run(
                dict(BINDINGS),
                backend="interpreter",
                nproc=NPROC,
                checkpoint_every=5,
                checkpoint_sink=[].append,
            )

    @pytest.mark.parametrize("backend", ["auto", "vm"])
    def test_subroutine_calls_refused(self, engine, backend):
        caller = engine.compile(
            "PROGRAM p\n  INTEGER x\n  x = 1\n  CALL bump(x)\nEND\n"
            "SUBROUTINE bump(y)\n  y = y + 1\nEND"
        )
        with pytest.raises(InterpreterError, match="subroutine"):
            caller.run(
                {},
                backend=backend,
                nproc=NPROC,
                checkpoint_every=5,
                checkpoint_sink=[].append,
            )

    def test_scalar_checkpoint_stays_on_scalar(self, program):
        captured = []
        program.run(
            dict(BINDINGS),
            backend="scalar",
            checkpoint_every=7,
            checkpoint_sink=captured.append,
        )
        with pytest.raises(InterpreterError, match="scalar"):
            program.run(
                dict(BINDINGS),
                backend="vm",
                nproc=NPROC,
                resume_from=captured[0],
            )
