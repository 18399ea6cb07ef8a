"""Reliability layer: budgets, fault injection, fallback chain, crash dumps."""

import json

import numpy as np
import pytest

from repro.lang.errors import InterpreterError
from repro.reliability import (
    BACKENDS,
    Attempt,
    BackendFault,
    Budget,
    BudgetExceeded,
    DivergenceFault,
    FallbackPolicy,
    FaultPlan,
    attach_snapshot,
    check_agreement,
    crash_dump_for,
    locate,
)
from repro.fuzz.twin import run_twin
from repro.runtime import Engine
from repro.vm.isa import Op

#: Straight-line masked program: a fault injected past PUSH_MASK is
#: guaranteed to fire with a non-empty mask stack.
WHERE_PROGRAM = """
PROGRAM p
  v = [1 : 4]
  w = v
  WHERE (v > 1)
    w = w * 10
    w = w + 1
    w = w - 2
  ENDWHERE
  t = w
END
"""

EXPECTED_W = np.array([1.0, 19.0, 29.0, 39.0])

#: Runs on the per-processor levels: each processor stores its own
#: number times ten.
MIMD_PROGRAM = """
PROGRAM p
  x = myproc * 10
END
"""

#: Never terminates — the budget guard must kill it on every backend.
SPIN_PROGRAM = """
PROGRAM p
  i = 1
  WHILE (i >= 1)
    i = i + 1
  ENDWHILE
END
"""


@pytest.fixture()
def engine():
    return Engine()


class TestBudget:
    @pytest.mark.parametrize(
        "backend,nproc",
        [("vm", 4), ("interpreter", 4), ("scalar", 0), ("mimd", 2)],
    )
    def test_spin_loop_killed_on_every_backend(self, engine, backend, nproc):
        budget = Budget(max_steps=500)
        with pytest.raises(BudgetExceeded, match="budget"):
            if backend == "interpreter":  # the VM's tree-walking twin
                run_twin(SPIN_PROGRAM, nproc, budget=budget)
            else:
                engine.run(SPIN_PROGRAM, nproc=nproc, backend=backend, budget=budget)

    @pytest.mark.parametrize(
        "backend,nproc", [("vm", 4), ("scalar", 0), ("mimd", 2)]
    )
    def test_budget_error_carries_snapshot(self, engine, backend, nproc):
        with pytest.raises(BudgetExceeded) as excinfo:
            engine.run(
                SPIN_PROGRAM, nproc=nproc, backend=backend,
                budget=Budget(max_steps=500),
            )
        snap = excinfo.value.snapshot
        assert snap is not None
        assert snap.steps == 501  # stopped right past the limit
        assert snap.env  # per-PE environment slice present

    def test_budget_error_is_an_interpreter_error(self, engine):
        with pytest.raises(InterpreterError):
            engine.run(SPIN_PROGRAM, nproc=2, backend="vm",
                       budget=Budget(max_steps=100))

    def test_deadline_kills_spin_loop(self, engine):
        budget = Budget(max_steps=None, deadline_seconds=0.05, check_every=16)
        with pytest.raises(BudgetExceeded, match="deadline"):
            engine.run(SPIN_PROGRAM, nproc=2, backend="vm", budget=budget)

    def test_normal_run_within_budget(self, engine):
        result = engine.run(WHERE_PROGRAM, nproc=4, backend="vm",
                            budget=Budget(max_steps=1_000))
        assert np.array_equal(result.env["w"], EXPECTED_W)
        assert result.statements <= 1_000


class TestFaultPlan:
    def test_forced_backend_failure_is_deterministic(self, engine):
        for _ in range(2):
            plan = FaultPlan(seed=3, fail_backends=("vm",))
            with pytest.raises(BackendFault, match="injected backend failure"):
                engine.run(WHERE_PROGRAM, nproc=4, backend="vm", fault_plan=plan)

    def test_transient_op_fault_fires_once_per_plan(self, engine):
        plan = FaultPlan(op_faults=(5,))
        with pytest.raises(BackendFault, match="injected transient fault"):
            engine.run(WHERE_PROGRAM, nproc=4, backend="vm", fault_plan=plan)
        # same plan instance: the fault already fired, the retry passes
        result = engine.run(WHERE_PROGRAM, nproc=4, backend="vm", fault_plan=plan)
        assert np.array_equal(result.env["w"], EXPECTED_W)

    def test_dropout_mask_deterministic_in_seed(self):
        a = FaultPlan(seed=11, dropout_rate=0.5).dropout_mask(64, "vm")
        b = FaultPlan(seed=11, dropout_rate=0.5).dropout_mask(64, "vm")
        c = FaultPlan(seed=12, dropout_rate=0.5).dropout_mask(64, "vm")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_explicit_pe_dropout_freezes_lanes(self, engine):
        plan = FaultPlan(dropout_pes=(1, 3))
        result = engine.run(WHERE_PROGRAM, nproc=4, backend="vm",
                            fault_plan=plan)
        # dead lanes keep their initial (zero) values
        w = result.env["w"]
        assert w[1] == 0 and w[3] == 0
        assert w[2] == EXPECTED_W[2]

    def test_backend_scoping(self):
        plan = FaultPlan(op_faults=(5,), backends=("vm",))
        assert plan.op_fault(5, "vm")
        assert not plan.op_fault(5, "scalar")


class TestFallbackChain:
    def test_chaos_vm_fault_recovers_on_retry(self, engine):
        """The acceptance scenario: a seeded transient fault inside a
        masked region kills the first VM attempt; the retry finishes
        the run; both attempts are recorded and the failed attempt's
        crash dump carries pc, mask stack, and the per-PE environment
        slice."""
        program = engine.compile(WHERE_PROGRAM)
        code = program.bytecode()
        push = next(
            i for i, ins in enumerate(code.instructions)
            if ins.op is Op.PUSH_MASK
        )
        plan = FaultPlan(seed=7, op_faults=(push + 3,), backends=("vm",))
        result = program.run(
            nproc=4,
            fault_plan=plan,
            policy=FallbackPolicy(chain=("vm",), retries=1),
        )
        assert result.backend == "vm"
        assert [(a.backend, a.ok) for a in result.attempts] == [
            ("vm", False), ("vm", True),
        ]
        assert np.array_equal(result.env["w"], EXPECTED_W)

        dump = result.attempts[0].crash_dump
        assert dump["backend"] == "vm"
        assert dump["error"] == "BackendFault"
        assert dump["retryable"] is True
        # executed-step counting: the fault at step push+3 fires while
        # the VM sits on instruction push+2 — inside the WHERE region
        assert dump["pc"] == push + 2
        assert dump["mask_stack"], "fault fired outside the masked region"
        assert dump["mask_stack"][0] == [True, True, True, True]
        assert dump["mask"] == [False, True, True, True]
        assert "v" in dump["env"] and "w" in dump["env"]
        assert dump["last_ops"][-1]["op"] == code.instructions[push + 1].op.name
        # the dump is a plain JSON document
        json.dumps(dump)

    def test_retry_clears_transient_fault_on_same_backend(self, engine):
        plan = FaultPlan(op_faults=(5,), backends=("vm",))
        result = engine.run(
            WHERE_PROGRAM, nproc=4, fault_plan=plan,
            policy=FallbackPolicy(chain=("vm",), retries=1),
        )
        assert result.backend == "vm"
        assert [(a.backend, a.ok) for a in result.attempts] == [
            ("vm", False), ("vm", True),
        ]

    def test_permanent_fault_exhausts_retries_then_degrades(self, engine):
        plan = FaultPlan(fail_backends=("pmimd",))
        result = engine.run(
            MIMD_PROGRAM, nproc=2, fault_plan=plan,
            policy=FallbackPolicy(chain=("pmimd", "mimd"), retries=1),
        )
        assert result.backend == "mimd"
        assert [(a.backend, a.ok) for a in result.attempts] == [
            ("pmimd", False), ("pmimd", False), ("mimd", True),
        ]
        assert [env["x"] for env in result.env] == [10, 20]

    def test_nonretryable_fault_raises_immediately(self, engine):
        with pytest.raises(BudgetExceeded) as excinfo:
            engine.run(
                SPIN_PROGRAM, nproc=2, budget=Budget(max_steps=200),
                policy=FallbackPolicy(chain=("vm", "mimd"), retries=1),
            )
        attempts = excinfo.value.attempts
        assert [(a.backend, a.ok) for a in attempts] == [("vm", False)]
        assert attempts[0].crash_dump["error"] == "BudgetExceeded"

    def test_exhausted_chain_raises_with_attempt_log(self, engine):
        plan = FaultPlan(fail_backends=("pmimd", "mimd"))
        with pytest.raises(BackendFault) as excinfo:
            engine.run(
                MIMD_PROGRAM, nproc=2, fault_plan=plan,
                policy=FallbackPolicy(chain=("pmimd", "mimd"), retries=0),
            )
        assert [(a.backend, a.ok) for a in excinfo.value.attempts] == [
            ("pmimd", False), ("mimd", False),
        ]

    def test_unresolvable_backend_recorded_and_skipped(self, engine):
        # nproc=0: the vm cannot run at all; the chain degrades to scalar
        result = engine.run(
            WHERE_PROGRAM.replace("[1 : 4]", "2"), nproc=0,
            policy=FallbackPolicy(chain=("vm", "scalar"), retries=0),
        )
        assert result.backend == "scalar"
        assert [(a.backend, a.ok) for a in result.attempts] == [
            ("vm", False), ("scalar", True),
        ]

    @pytest.mark.parametrize("name", ["vmm", "interpreter"])
    def test_unknown_chain_entry_rejected(self, name):
        # "interpreter" named the tree-walking backend the VM replaced
        with pytest.raises(ValueError, match=f"'{name}'.*choose from") as info:
            FallbackPolicy(chain=("vm", name))
        assert all(backend in str(info.value) for backend in BACKENDS)

    def test_chain_is_canonicalised(self):
        assert FallbackPolicy(chain=(" VM", "Scalar")).chain == (
            "vm", "scalar",
        )

    def test_attempts_serialize(self, engine):
        plan = FaultPlan(op_faults=(5,), backends=("vm",))
        result = engine.run(
            WHERE_PROGRAM, nproc=4, fault_plan=plan,
            policy=FallbackPolicy(chain=("vm",), retries=1),
        )
        payload = [a.to_dict() for a in result.attempts]
        json.dumps(payload, default=str)
        assert payload[0]["ok"] is False and payload[1]["ok"] is True


def _bump(tally: dict, key: str) -> None:
    """Add one to a counter tally, inserting the key if absent."""
    tally[key] = tally.get(key, 0) + 1


class TestAgreement:
    def test_env_disagreement_is_a_nonretryable_fault(self):
        from repro.exec.counters import ExecutionCounters

        counters = ExecutionCounters(2)
        with pytest.raises(BackendFault, match="disagree on variable 'x'"):
            check_agreement(
                {"x": np.array([1.0, 2.0])}, counters,
                {"x": np.array([1.0, 2.5])}, counters,
                backends=("vm", "interpreter"),
            )
        with pytest.raises(BackendFault) as excinfo:
            check_agreement({"x": 1}, counters, {"x": 2}, counters)
        assert excinfo.value.retryable is False

    def test_counter_disagreement_detected(self):
        from repro.exec.counters import ExecutionCounters

        a, b = ExecutionCounters(2), ExecutionCounters(2)
        a.record("add")
        with pytest.raises(BackendFault, match="counters differ"):
            check_agreement({}, a, {}, b)

    @pytest.mark.parametrize(
        "field, skew",
        [
            ("lane_active_steps", lambda c: c.add_lane_steps([True, False], 1)),
            ("active_elements", lambda c: _bump(c.active_elements, "store")),
            ("element_ops", lambda c: _bump(c.element_ops, "store")),
            ("layer_steps", lambda c: _bump(c.layer_steps, "store")),
            ("calls", lambda c: _bump(c.calls, "force")),
        ],
    )
    def test_every_counter_field_is_compared(self, field, skew):
        from repro.exec.counters import ExecutionCounters

        a, b = ExecutionCounters(2), ExecutionCounters(2)
        for counters in (a, b):
            counters.record("store", width=2, mask=np.array([True, True]))
        check_agreement({}, a, {}, b)
        skew(b)
        with pytest.raises(BackendFault, match=f"counters differ on '{field}'"):
            check_agreement({}, a, {}, b)

    def test_fault_shows_the_differing_values(self):
        from repro.exec.counters import ExecutionCounters

        a, b = ExecutionCounters(2), ExecutionCounters(2)
        for counters in (a, b):
            counters.record("store", width=2, mask=np.array([True, True]))
        b.add_lane_steps([True, False], 1)
        with pytest.raises(BackendFault) as excinfo:
            check_agreement({}, a, {}, b)
        assert "'lane_active_steps' ([1 1] vs [2 1])" in str(excinfo.value)
        b = ExecutionCounters(2)
        b.record("store", width=2, mask=np.array([True, True]))
        _bump(b.layer_steps, "store")
        with pytest.raises(BackendFault) as excinfo:
            check_agreement({}, a, {}, b)
        assert "'layer_steps' ({'store': 1} vs {'store': 2})" in str(excinfo.value)

    def test_hidden_names_ignored(self):
        check_agreement({"__internal": 1, "x": 2}, None, {"x": 2}, None)


class TestErrorHelpers:
    def test_locate_rewrites_args(self):
        from repro.lang.errors import SourceLocation

        error = InterpreterError("boom")
        locate(error, SourceLocation("f.f", 7, 3))
        assert error.location.line == 7
        assert "f.f:7:3" in str(error)

    def test_attach_snapshot_never_overwrites(self):
        error = InterpreterError("boom")
        attach_snapshot(error, "first")
        attach_snapshot(error, "second")
        assert error.snapshot == "first"

    def test_crash_dump_for_plain_error(self):
        dump = crash_dump_for(InterpreterError("boom"))
        assert dump["error"] == "InterpreterError"
        assert dump["message"] == "boom"

    def test_divergence_is_not_retryable(self):
        assert DivergenceFault("d").retryable is False
        assert BackendFault("b").retryable is True
        policy = FallbackPolicy()
        assert policy.is_retryable(BackendFault("b"))
        assert not policy.is_retryable(DivergenceFault("d"))
        assert not policy.is_retryable(ValueError("v"))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FallbackPolicy(chain=())
        with pytest.raises(ValueError):
            FallbackPolicy(retries=-1)

    def test_attempt_to_dict_roundtrip(self):
        attempt = Attempt(backend="vm", ok=True, wall_seconds=0.1, steps=42)
        assert attempt.to_dict()["steps"] == 42
