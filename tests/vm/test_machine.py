"""SIMD bytecode VM execution tests."""

import numpy as np
import pytest

from repro.lang import parse_source
from repro.lang.errors import InterpreterError
from repro.reliability import Budget, FaultPlan, OutOfBoundsFault
from repro.vm import SIMDVirtualMachine, compile_program, run_bytecode


def run(text, nproc, bindings=None, externals=None):
    return run_bytecode(
        parse_source(text), nproc, bindings=bindings, externals=externals
    )


class TestBasics:
    def test_arithmetic(self):
        env, _ = run("PROGRAM p\n  x = 2 * 3 + 4\nEND", 1)
        assert env["x"] == 10

    def test_do_loop(self):
        env, _ = run("PROGRAM p\n  s = 0\n  DO i = 1, 5\n    s = s + i\n  ENDDO\nEND", 1)
        assert env["s"] == 15

    def test_do_loop_negative_stride(self):
        env, _ = run(
            "PROGRAM p\n  s = 0\n  DO i = 5, 1, -1\n    s = s * 10 + i\n  ENDDO\nEND", 1
        )
        assert env["s"] == 54321

    def test_do_zero_trips(self):
        env, _ = run("PROGRAM p\n  s = 0\n  DO i = 5, 1\n    s = 1\n  ENDDO\nEND", 1)
        assert env["s"] == 0

    def test_while_loop(self):
        env, _ = run(
            "PROGRAM p\n  i = 1\n  DO WHILE (i < 100)\n    i = i * 2\n  ENDDO\nEND", 1
        )
        assert env["i"] == 128

    def test_goto_loop(self):
        env, _ = run(
            "PROGRAM p\n  s = 0\n  i = 1\n"
            "10 IF (i > 4) GOTO 20\n  s = s + i\n  i = i + 1\n  GOTO 10\n"
            "20 CONTINUE\nEND",
            1,
        )
        assert env["s"] == 10

    def test_exit_cycle(self):
        env, _ = run(
            "PROGRAM p\n  s = 0\n  DO i = 1, 10\n    IF (i > 4) EXIT\n"
            "    IF (MOD(i, 2) == 0) CYCLE\n    s = s + i\n  ENDDO\nEND",
            1,
        )
        assert env["s"] == 4

    def test_stop_halts(self):
        env, _ = run("PROGRAM p\n  x = 1\n  STOP\n  x = 2\nEND", 1)
        assert env["x"] == 1

    def test_infinite_loop_guard(self):
        from repro.vm import SIMDVirtualMachine, compile_program

        code = compile_program(
            parse_source("PROGRAM p\n  DO WHILE (.TRUE.)\n    x = 1\n  ENDDO\nEND")
        )
        vm = SIMDVirtualMachine(1, budget=Budget(max_steps=500))
        with pytest.raises(InterpreterError, match="budget"):
            vm.run(code)


class TestSIMDSemantics:
    def test_where_masks_stores(self):
        env, _ = run(
            "PROGRAM p\n  v = [1 : 4]\n  WHERE (v > 2)\n    v = 0\n"
            "  ELSEWHERE\n    v = 9\n  ENDWHERE\nEND",
            4,
        )
        assert env["v"].tolist() == [9, 9, 0, 0]

    def test_nested_where(self):
        env, _ = run(
            "PROGRAM p\n  v = [1 : 4]\n  WHERE (v > 1)\n"
            "    WHERE (v < 4) v = 0\n  ENDWHERE\nEND",
            4,
        )
        assert env["v"].tolist() == [1, 0, 0, 4]

    def test_divergent_branch_rejected(self):
        with pytest.raises(InterpreterError, match="diverges"):
            run("PROGRAM p\n  v = [1 : 2]\n  IF (v > 1) THEN\n    x = 1\n  ENDIF\nEND", 2)

    def test_while_any(self):
        env, _ = run(
            "PROGRAM p\n  v = [1 : 3]\n  WHILE (ANY(v < 3))\n"
            "    WHERE (v < 3) v = v + 1\n  ENDWHILE\nEND",
            3,
        )
        assert env["v"].tolist() == [3, 3, 3]

    def test_gather_scatter(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(4)\n  idx = [2, 4]\n  a(idx) = [10, 20]\n"
            "  w = a(idx)\nEND",
            2,
        )
        assert env["a"].data.tolist() == [0, 10, 0, 20]
        assert env["w"].tolist() == [10, 20]

    def test_masked_scatter(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(4)\n  idx = [2, 4]\n  m = [1, 2]\n"
            "  WHERE (m == 1) a(idx) = 5\nEND",
            2,
        )
        assert env["a"].data.tolist() == [0, 5, 0, 0]

    def test_sections(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(2, 3), b(2, 3)\n  a = 7\n"
            "  b(:, 1:2) = a(:, 1:2)\nEND",
            2,
        )
        assert env["b"].data.tolist() == [[7, 7, 0], [7, 7, 0]]

    def test_forall_lane_parallel(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(4)\n  FORALL (i = 1 : 4) a(i) = i * i\nEND", 4
        )
        assert env["a"].data.tolist() == [1, 4, 9, 16]

    def test_external_call_with_writeback(self):
        def double(vm, arg_exprs, args, env, mask):
            vm.assign_to(arg_exprs[0], np.asarray(args[1]) * 2, env)

        env, counters = run(
            "PROGRAM p\n  v = [1 : 3]\n  CALL double(w, v)\nEND",
            3,
            externals={"double": double},
        )
        assert env["w"].tolist() == [2, 4, 6]
        assert counters.calls["double"] == 1

    def test_unknown_external_rejected(self):
        with pytest.raises(InterpreterError, match="unknown external"):
            run("PROGRAM p\n  CALL nope(x)\nEND", 1)

    def test_bounds_check_on_active_lanes(self):
        with pytest.raises(InterpreterError):
            run("PROGRAM p\n  INTEGER a(4)\n  idx = [2, 9]\n  w = a(idx)\nEND", 2)

    def test_clamped_on_inactive_lanes(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(4)\n  a = 1\n  idx = [2, 9]\n  w = 0\n"
            "  WHERE (idx <= 4) w = a(idx)\nEND",
            2,
        )
        assert env["w"].tolist() == [1, 0]


class TestReuse:
    """A machine runs many programs; no run may inherit another's mask."""

    FAULT_IN_WHERE = (
        "PROGRAM p\n  INTEGER a(4)\n  i = [1 : 4]\n  idx = i * 3\n  w = 0\n"
        "  WHERE (i > 2)\n    w = a(idx)\n  ENDWHERE\nEND"
    )
    PLAIN = "PROGRAM p\n  v = [1 : 4]\n  w = v * 2\nEND"

    def test_faulted_run_leaves_no_open_scope_behind(self):
        vm = SIMDVirtualMachine(4)
        with pytest.raises(OutOfBoundsFault):
            vm.run(compile_program(parse_source(self.FAULT_IN_WHERE)))
        assert vm.mask.tolist() == [False, False, True, True]
        env = vm.run(compile_program(parse_source(self.PLAIN)))
        assert env["w"].tolist() == [2, 4, 6, 8]
        assert vm.mask.all()

    def test_dropout_does_not_compound_across_runs(self):
        code = compile_program(parse_source(self.PLAIN))
        vm = SIMDVirtualMachine(4, fault_plan=FaultPlan(dropout_pes=(0,)))
        vm.run(code)
        assert vm.mask.tolist() == [False, True, True, True]
        vm.fault_plan = FaultPlan(dropout_pes=(1,))
        env = vm.run(code)
        assert vm.mask.tolist() == [True, False, True, True]
        assert env["w"].tolist() == [2, 0, 6, 8]


class TestStatementHooks:
    def test_hook_sees_each_executed_statement_once(self):
        # a WHILE's back-edge and a CYCLE re-enter its head without
        # running the WHILE statement again; a callee's statements are
        # hooked too, each with the frame's environment
        code = compile_program(parse_source(
            "PROGRAM w\n  INTEGER k\n  k = 0\n  WHILE (k < 3)\n"
            "    k = k + 1\n    IF (k == 2) CYCLE\n    k = k + 0\n"
            "  ENDWHILE\n  CALL s(k)\nEND\n"
            "SUBROUTINE s(j)\n  j = j * 2\nEND\n"
        ))
        seen = []
        vm = SIMDVirtualMachine(
            2, statement_hook=lambda stmt, env, mask: seen.append(
                (type(stmt).__name__, sorted(env))
            )
        )
        env = vm.run(code)
        assert [kind for kind, _names in seen] == [
            "Decl", "Assign", "While",
            "Assign", "If", "Assign",
            "Assign", "If", "CycleStmt",
            "Assign", "If", "Assign",
            "CallStmt", "Assign",
        ]
        assert seen[-1][1] == ["j"]
        assert env["k"] == 6
