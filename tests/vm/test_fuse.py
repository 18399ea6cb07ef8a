"""Block-compilation invariants (see :mod:`repro.vm.fuse`).

Four contracts:

* **structure** — block compilation preserves instruction indices
  (every slot but a block's head keeps its own instruction), never
  spans jump targets or non-fusible opcodes, and caps blocks at
  ``MAX_FUSE_LEN``; the bytecode verifier accepts every compiled
  CodeObject;
* **observational equivalence** — block and per-instruction dispatch
  agree on final env *and* the full counter breakdown, including
  per-lane activity;
* **exact budget** — a step budget trips on the same step, at the same
  location, with and without blocks (the documented slack is zero);
* **crash dumps** — a fault inside a block produces the same
  postmortem (pc, steps, location, trace) as per-instruction execution.
"""

import numpy as np
import pytest

from repro.exec.counters import ExecutionCounters
from repro.lang import parse_source
from repro.lang.errors import MiniFError
from repro.reliability import Budget
from repro.reliability.errors import BudgetExceeded, crash_dump_for
from repro.vm import (
    FUSIBLE_OPS,
    MAX_FUSE_LEN,
    Op,
    SIMDVirtualMachine,
    compile_program,
    fuse_code,
    verify_code,
)
from repro.vm.fuse import jump_targets

#: A divergent masked loop nest: WHERE/ELSEWHERE inside DO, gathers,
#: enough straight-line arithmetic between mask operations to fuse.
DIVERGENT = """
PROGRAM p
  INTEGER n, i
  INTEGER x(n), y(n), idx(n)
  x = [1 : n]
  idx = n + 1 - x
  y = 0
  DO i = 1, 5
    WHERE (MOD(x + i, 3) == 0)
      y = y + x(idx) * i + x * x - i
    ELSEWHERE
      y = y - 1 - x / 2
    ENDWHERE
  ENDDO
END
"""

#: Pure straight-line arithmetic — one long fused run.
STRAIGHT = """
PROGRAM p
  INTEGER n
  REAL a(n), b(n), c(n)
  a = 1.5
  b = a * 2.0 + 1.0
  c = b * b - a / 2.0
  b = c + a * b - 3.0
END
"""

#: Section arithmetic whose block meets a kind's first multi-layer event
#: after another kind's: real_op (1 layer), int_op (3), real_op (3).
SECTIONS = """
PROGRAM p
  INTEGER n
  INTEGER a(n, 3)
  REAL r, x(n, 3)
  a = 2
  r = 0.5
  x = (r + 1.0) * (a + 1)
END
"""


def compile_text(text):
    return compile_program(parse_source(text))


def run_vm(text, nproc, bindings=None, fuse=True, **kwargs):
    vm = SIMDVirtualMachine(nproc, fuse=fuse, **kwargs)
    env = vm.run(compile_text(text), bindings=bindings)
    return vm, env


def assert_counters_equal(a: ExecutionCounters, b: ExecutionCounters):
    assert a.total_steps == b.total_steps
    assert dict(a.events) == dict(b.events)
    assert dict(a.layer_steps) == dict(b.layer_steps)
    assert dict(a.element_ops) == dict(b.element_ops)
    assert dict(a.active_elements) == dict(b.active_elements)
    assert dict(a.calls) == dict(b.calls)
    assert np.array_equal(a.lane_active_steps, b.lane_active_steps)


def assert_envs_equal(a: dict, b: dict):
    assert set(a) == set(b)
    for name in a:
        va = getattr(a[name], "data", a[name])
        vb = getattr(b[name], "data", b[name])
        assert np.allclose(np.asarray(va), np.asarray(vb)), name


class TestFusionStructure:
    def test_indices_preserved_slot_for_slot(self):
        code = compile_text(DIVERGENT)
        fused = fuse_code(code)
        assert len(fused.instructions) == len(code.instructions)
        heads = 0
        for pc, (orig, new) in enumerate(
            zip(code.instructions, fused.instructions)
        ):
            if new.op == Op.FUSED:
                heads += 1
                run = new.arg
                assert run.start == pc
                assert run.instrs == code.instructions[pc : pc + run.count]
            else:
                # every other slot keeps its instruction, so a pc names
                # the same instruction with and without blocks
                assert new is orig
        assert heads

    def test_only_fusible_ops_inside_runs(self):
        fused = fuse_code(compile_text(DIVERGENT))
        saw_fused = False
        for instr in fused.instructions:
            if instr.op == Op.FUSED:
                saw_fused = True
                run = instr.arg
                assert run.count <= MAX_FUSE_LEN
                assert all(comp.op in FUSIBLE_OPS for comp in run.instrs)
        assert saw_fused

    def test_no_interior_jump_targets(self):
        code = compile_text(DIVERGENT)
        targets = jump_targets(code.instructions)
        fused = fuse_code(code)
        for pc, instr in enumerate(fused.instructions):
            if instr.op == Op.FUSED:
                for offset in range(1, instr.arg.count):
                    assert pc + offset not in targets

    def test_fusion_memoized_per_code_object(self):
        code = compile_text(STRAIGHT)
        assert fuse_code(code) is fuse_code(code)

    @pytest.mark.parametrize("text", [DIVERGENT, STRAIGHT])
    def test_verifier_accepts_fused_code(self, text):
        report = verify_code(fuse_code(compile_text(text)))
        assert not report.errors, [str(f) for f in report.errors]


class TestFusedEquivalence:
    @pytest.mark.parametrize("text", [DIVERGENT, STRAIGHT])
    def test_env_and_counters_agree(self, text):
        nproc = 8
        bindings = {"n": nproc}
        vm_fused, env_fused = run_vm(text, nproc, dict(bindings), fuse=True)
        vm_plain, env_plain = run_vm(text, nproc, dict(bindings), fuse=False)
        assert vm_fused.executed == vm_plain.executed
        assert_envs_equal(env_fused, env_plain)
        assert_counters_equal(vm_fused.counters, vm_plain.counters)

    def test_external_call_breaks_runs_but_agrees(self):
        def double(vm, arg_exprs, args, env, mask):
            vm.assign_to(arg_exprs[0], np.asarray(args[1]) * 2, env)

        text = "PROGRAM p\n  v = [1 : 3]\n  w = v * 2 - 1\n  CALL double(u, w)\nEND"
        results = {}
        for fuse in (True, False):
            vm, env = run_vm(text, 3, fuse=fuse, externals={"double": double})
            results[fuse] = (vm, env)
        assert results[True][1]["u"].tolist() == results[False][1]["u"].tolist()
        assert_counters_equal(results[True][0].counters, results[False][0].counters)


class TestBudgetSlack:
    """The documented slack is zero: blocks run only when they fit."""

    RUNAWAY = "PROGRAM p\n  i = 1\n  DO WHILE (i > 0)\n    i = i + 1\n  ENDDO\nEND"

    def _trip(self, text, limit, fuse, nproc=1, bindings=None):
        vm = SIMDVirtualMachine(nproc, budget=Budget(max_steps=limit), fuse=fuse)
        with pytest.raises(BudgetExceeded) as info:
            vm.run(compile_text(text), bindings=bindings)
        return vm, crash_dump_for(info.value)

    def test_budget_trips_within_documented_slack(self):
        limit = 100
        for fuse in (True, False):
            vm, _ = self._trip(self.RUNAWAY, limit, fuse)
            # the step that exceeds the budget, never one later
            assert vm.executed == limit + 1
            assert vm._meter.steps == limit + 1

    @pytest.mark.parametrize("text", [DIVERGENT, STRAIGHT, SECTIONS])
    def test_every_limit_trips_on_the_same_step_and_dump(self, text):
        exact = run_vm(text, 4, {"n": 4}, fuse=False)[0].executed
        for limit in range(1, exact):
            fused, dump_fused = self._trip(text, limit, True, 4, {"n": 4})
            plain, dump_plain = self._trip(text, limit, False, 4, {"n": 4})
            assert fused.executed == plain.executed == limit + 1
            assert dump_fused == dump_plain
            assert_counters_equal(fused.counters, plain.counters)
            # same keys in the same order (checkpoints serialise them)
            assert repr(fused.counters.state_dict()) == repr(
                plain.counters.state_dict()
            )

    def test_deadline_dump_holds_the_whole_block(self):
        # STRAIGHT is one block; an expired deadline trips when it retires
        vm = SIMDVirtualMachine(4, budget=Budget(deadline_seconds=0.0))
        with pytest.raises(BudgetExceeded) as info:
            vm.run(compile_text(STRAIGHT), bindings={"n": 4})
        dump = crash_dump_for(info.value)
        plain, _ = run_vm(STRAIGHT, 4, {"n": 4}, fuse=False)
        assert dump["steps"] == vm.executed == plain.executed - 1  # all but HALT
        assert dump["pc"] == dump["last_ops"][-1]["pc"] == vm.executed - 1
        assert_counters_equal(vm.counters, plain.counters)

    def test_budget_never_trips_early(self):
        # measure the exact cost, then rerun with that exact budget
        vm, _ = run_vm(STRAIGHT, 4, {"n": 4}, fuse=True)
        exact = vm.executed
        vm2 = SIMDVirtualMachine(4, budget=Budget(max_steps=exact))
        vm2.run(compile_text(STRAIGHT), bindings={"n": 4})  # must not raise
        assert vm2.executed == exact

    def test_unfused_budget_is_exact(self):
        limit = 50
        with pytest.raises(BudgetExceeded):
            vm = SIMDVirtualMachine(1, budget=Budget(max_steps=limit), fuse=False)
            try:
                vm.run(compile_text(self.RUNAWAY))
            finally:
                assert vm.executed == limit + 1


class TestFusedCrashDumps:
    #: Faults at the indexed store after fusible straight-line work.
    FAULTY = """
PROGRAM p
  INTEGER a(3), i
  a = 0
  i = 1
  i = i + 41
  a(i) = 9
END
"""

    def _crash(self, fuse):
        vm = SIMDVirtualMachine(1, fuse=fuse)
        with pytest.raises(MiniFError) as info:
            vm.run(compile_text(self.FAULTY))
        return vm, crash_dump_for(info.value)

    def test_dump_identical_at_superinstruction_boundary(self):
        vm_fused, dump_fused = self._crash(fuse=True)
        vm_plain, dump_plain = self._crash(fuse=False)
        assert dump_fused["error"] == dump_plain["error"]
        assert dump_fused["location"] == dump_plain["location"]
        assert dump_fused["pc"] == dump_plain["pc"]
        assert dump_fused["steps"] == dump_plain["steps"]
        assert dump_fused["mask"] == dump_plain["mask"]
        assert vm_fused.executed == vm_plain.executed
        assert_counters_equal(vm_fused.counters, vm_plain.counters)

    def test_dump_trace_pins_faulting_component(self):
        _, dump = self._crash(fuse=True)
        # the last traced op is the faulting STORE_INDEXED component,
        # at its original (unfused) instruction index
        assert dump["last_ops"][-1]["pc"] == dump["pc"]
