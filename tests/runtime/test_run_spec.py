"""One run path: ``run()``'s folded settings and the shared attempt loop.

A plain run and a :class:`FallbackPolicy` run both execute through
the same resolve → execute → result loop, so a setting honoured on one
of them is honoured on the other.  The durable
``checkpoint_dir`` sink is the case that used to drift: only the plain
path wired it, and every chained run silently dropped its captures.
"""

import numpy as np
import pytest

from repro.lang.errors import InterpreterError
from repro.reliability import CheckpointStore, FaultPlan
from repro.reliability.budget import Budget
from repro.reliability.errors import BudgetExceeded
from repro.runtime import BackendConfig, Engine, FallbackPolicy
from repro.runtime.engine import CompiledProgram

SOURCE = """PROGRAM ckpt
  INTEGER i
  REAL s, x(64)
  s = 0.0
  DO i = 1, 48
    x(i) = i * 1.5
    s = s + x(i)
  ENDDO
END
"""


@pytest.fixture(scope="module")
def program():
    return Engine().compile(SOURCE)


def _values(env):
    return {
        name: np.asarray(getattr(value, "data", value)).tolist()
        for name, value in env.items()
    }


def _assert_same_run(result, reference):
    assert _values(result.env) == _values(reference.env)
    assert result.counters.total_steps == reference.counters.total_steps
    assert dict(result.counters.events) == dict(reference.counters.events)


class TestDurableChains:
    @pytest.mark.parametrize(
        "nproc, settings",
        [
            (4, dict(policy=FallbackPolicy(chain=("vm",)))),
            (0, dict(policy=FallbackPolicy(chain=("scalar",)))),
        ],
        ids=["fallback-chain", "scalar-chain"],
    )
    def test_chained_run_saves_resumable_checkpoints(
        self, program, tmp_path, nproc, settings
    ):
        reference = program.run(nproc=nproc)
        result = program.run(
            nproc=nproc,
            checkpoint_every=5,
            checkpoint_dir=str(tmp_path),
            **settings,
        )
        _assert_same_run(result, reference)
        ckpt = CheckpointStore(str(tmp_path)).load_latest("run")
        assert ckpt is not None, "the chained run saved no checkpoint"
        assert ckpt.meta["source_sha"] == program.source_sha
        resumed = program.run(resume_from=ckpt)
        assert resumed.resumed_from_step == ckpt.step
        _assert_same_run(resumed, reference)

    def test_chain_retrying_a_faulted_vm_runs(self, program, tmp_path):
        # The faulted vm attempt and its retry both save captures under
        # the one key; the latest resumes exactly.
        result = program.run(
            nproc=4,
            fault_plan=FaultPlan(op_faults=(60,), backends=("vm",)),
            policy=FallbackPolicy(chain=("vm",), retries=1),
            checkpoint_every=5,
            checkpoint_dir=str(tmp_path),
        )
        assert result.backend == "vm"
        assert [(a.backend, a.ok) for a in result.attempts] == [
            ("vm", False),
            ("vm", True),
        ]
        reference = program.run(nproc=4)
        _assert_same_run(result, reference)
        ckpt = CheckpointStore(str(tmp_path)).load_latest("run")
        assert ckpt is not None and ckpt.backend == "vm" and ckpt.step > 60
        # fault injection steps the VM per instruction; its captures
        # resume in either mode
        for fuse in (False, True):
            resumed = program.run(resume_from=ckpt, config=BackendConfig(vm_fuse=fuse))
            _assert_same_run(resumed, reference)


class TestPlainRun:
    def test_records_no_attempts(self, program):
        assert program.run(nproc=4, backend="vm").attempts == []

    def test_errors_carry_no_attempt_log(self, program):
        with pytest.raises(BudgetExceeded) as info:
            program.run(nproc=4, backend="vm", budget=Budget(max_steps=10))
        assert not hasattr(info.value, "attempts")

    def test_resolution_error_raised_unchanged(self, program):
        with pytest.raises(InterpreterError, match="needs nproc >= 1") as info:
            program.run(backend="vm")
        assert not hasattr(info.value, "attempts")


class TestRetryChecksum:
    """A run that retries past a transient fault, or degrades, reports
    the counts of its successful attempt alone: the failed attempt's
    steps never leak into the result."""

    @pytest.mark.parametrize(
        "nproc, backend, chain",
        [
            (4, "vm", ("vm",)),
            (0, "scalar", ("scalar",)),
            (0, "scalar", ("vm", "scalar")),
        ],
        ids=["vm", "scalar", "vm-degrades-to-scalar"],
    )
    def test_retried_run_counts_like_a_plain_run(self, program, nproc, backend, chain):
        plain = program.run(nproc=nproc, backend=backend)
        result = program.run(
            nproc=nproc,
            fault_plan=FaultPlan(op_faults=(7,), backends=(backend,)),
            policy=FallbackPolicy(chain=chain, retries=1),
        )
        degraded = [(name, False) for name in chain[:-1]]
        assert [(a.backend, a.ok) for a in result.attempts] == degraded + [
            (backend, False),
            (backend, True),
        ]
        assert result.steps == plain.steps
        assert repr(result.counters.state_dict()) == repr(plain.counters.state_dict())


class TestFold:
    def test_keywords_and_config_reach_the_vm(self, program, monkeypatch):
        import repro.vm.machine as machine

        compiled = []
        fuse_code = machine.fuse_code
        monkeypatch.setattr(
            machine, "fuse_code", lambda code: compiled.append(code) or fuse_code(code)
        )
        captured = []
        result = program.run(
            nproc=4,
            backend="vm",
            checkpoint_every=3,
            checkpoint_sink=captured.append,
            config=BackendConfig(vm_fuse=False),
        )
        assert result.nproc == 4
        assert captured and all(c.nproc == 4 for c in captured)
        # vm_fuse=False steps per instruction: no block is compiled
        assert compiled == []
        assert captured[0].step == 3

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(backend="scalar", nproc=4), "nproc=0"),
            (dict(backend="pmimd", nproc=2, checkpoint_sink=print), "in-process sink"),
            (
                dict(
                    nproc=2,
                    statement_hook_for=lambda p: None,
                    policy=FallbackPolicy(chain=("pmimd", "mimd")),
                ),
                "statement hooks",
            ),
            (
                dict(nproc=2, checkpoint_sink=print, policy=FallbackPolicy()),
                "FallbackPolicy",
            ),
            (dict(backend="mimd", nproc=0), "needs nproc >= 1"),
            (dict(backend="mimd", nproc=-1), "nproc must be >= 0"),
            (dict(nproc="4"), "nproc must be an int"),
            (dict(nproc=2.5), "nproc must be an int"),
            (dict(nproc=True), "nproc must be an int"),
            (
                dict(backend="scalar", checkpoint_every=0),
                "checkpoint_every must be >= 1",
            ),
            (dict(backend="mimd", nproc=2, checkpoint_every=0), "checkpoint_every"),
            (dict(backend="pmimd", nproc=2, checkpoint_every=0), "checkpoint_every"),
            (dict(nproc=2, checkpoint_every=True), "checkpoint_every must be an int"),
            (
                dict(backend="pmimd", nproc=2, config=BackendConfig(workers=-2)),
                "workers must be >= 1",
            ),
            (
                dict(backend="pmimd", nproc=2, config=BackendConfig(shards=0)),
                "shards must be >= 1",
            ),
            (
                dict(
                    backend="pmimd", nproc=2, config=BackendConfig(shard_layout="diag")
                ),
                "shard_layout must be 'block' or 'cyclic'",
            ),
            (
                dict(backend="mimd", nproc=2, checkpoint_every=5),
                "'mimd' does not checkpoint",
            ),
            (
                dict(backend="mimd", nproc=2, checkpoint_dir="never-created"),
                "'mimd' does not checkpoint",
            ),
            (
                dict(
                    nproc=2,
                    checkpoint_every=5,
                    policy=FallbackPolicy(chain=("pmimd", "mimd")),
                ),
                "'mimd' does not checkpoint",
            ),
        ],
        ids=[
            "scalar-nproc",
            "pmimd-sink",
            "pmimd-hooks",
            "policy-sink",
            "mimd-nproc-0",
            "mimd-nproc-negative",
            "nproc-str",
            "nproc-float",
            "nproc-bool",
            "scalar-checkpoint-every-0",
            "mimd-checkpoint-every-0",
            "pmimd-checkpoint-every-0",
            "checkpoint-every-bool",
            "workers-negative",
            "shards-0",
            "shard-layout",
            "mimd-checkpoint-every",
            "mimd-checkpoint-dir",
            "chain-mimd-checkpoint-every",
        ],
    )
    def test_argument_refusals_raise_before_any_backend(
        self, program, monkeypatch, kwargs, message
    ):
        def no_backend(*args):
            raise AssertionError("a backend ran before the refusal")

        monkeypatch.setattr(CompiledProgram, "_execute", no_backend)
        with pytest.raises(InterpreterError, match=message):
            program.run(**kwargs)


TWO_ROUTINES = """PROGRAM Main
  INTEGER x
  x = 1
END
SUBROUTINE Other
  INTEGER x
  x = 2
END
"""


@pytest.fixture(scope="module")
def two_routines():
    return Engine().compile(TWO_ROUTINES)


class TestNamedRoutinesAndHooks:
    """A routine name and a statement hook reach every backend that
    runs them; the VM starts at the routine's entry and hooks every
    statement."""

    @pytest.mark.parametrize("backend", ["auto", "vm"])
    def test_vm_runs_routine_name(self, two_routines, backend):
        result = two_routines.run(nproc=2, backend=backend, routine_name="other")
        assert result.backend == "vm"
        assert result.env["x"] == 2

    def test_vm_runs_statement_hook(self, two_routines):
        calls = []
        result = two_routines.run(
            nproc=2, backend="vm", statement_hook=lambda *a: calls.append(a)
        )
        assert result.backend == "vm"
        assert [type(stmt).__name__ for stmt, _env, _mask in calls] == [
            "Decl", "Assign",
        ]
        assert calls[-1][2].tolist() == [True, True]

    def test_chain_runs_named_routine_on_the_vm(self, two_routines):
        result = two_routines.run(
            nproc=2,
            routine_name="other",
            policy=FallbackPolicy(chain=("vm", "mimd")),
        )
        assert result.backend == "vm"
        assert result.env["x"] == 2
        assert [(a.backend, a.ok) for a in result.attempts] == [("vm", True)]

    @pytest.mark.parametrize(
        "backend, nproc", [("vm", 2), ("scalar", 0), ("mimd", 2)]
    )
    @pytest.mark.parametrize("name", ["OTHER", "Other", "other"])
    def test_routine_name_is_case_insensitive(
        self, two_routines, backend, nproc, name
    ):
        result = two_routines.run(nproc=nproc, backend=backend, routine_name=name)
        env = result.env[0] if backend == "mimd" else result.env
        assert env["x"] == 2

    @pytest.mark.parametrize(
        "backend, nproc",
        [
            ("auto", 2),
            ("vm", 2),
            ("scalar", 0),
            ("mimd", 2),
            ("pmimd", 2),
        ],
    )
    def test_unknown_routine_is_a_typed_error(
        self, two_routines, monkeypatch, backend, nproc
    ):
        def no_backend(*args):
            raise AssertionError("a backend ran before the refusal")

        monkeypatch.setattr(CompiledProgram, "_execute", no_backend)
        with pytest.raises(InterpreterError, match="unknown routine 'nope'"):
            two_routines.run(nproc=nproc, backend=backend, routine_name="nope")
