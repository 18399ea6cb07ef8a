"""Bytecode compiler unit tests."""

import numpy as np
import pytest

from repro.lang import ast, parse_source
from repro.lang.errors import TransformError
from repro.vm import Op, compile_program, compile_routine


def compile_text(text):
    return compile_program(parse_source(text))


def ops_of(code):
    return [instr.op for instr in code.instructions]


class TestBasics:
    def test_assignment(self):
        code = compile_text("PROGRAM p\n  x = 1 + 2\nEND")
        assert ops_of(code) == [
            Op.PUSH_CONST, Op.PUSH_CONST, Op.BINOP, Op.STORE, Op.HALT,
        ]

    def test_declarations_alloc(self):
        code = compile_text("PROGRAM p\n  INTEGER a(3, 4)\nEND")
        allocs = [i for i in code.instructions if i.op is Op.ALLOC]
        assert allocs[0].arg == ("a", 2, "integer")

    def test_array_load_store_specs(self):
        code = compile_text(
            "PROGRAM p\n  INTEGER a(4, 4)\n  a(1, 2) = a(2, 1)\nEND"
        )
        load = next(i for i in code.instructions if i.op is Op.LOAD_INDEXED)
        store = next(i for i in code.instructions if i.op is Op.STORE_INDEXED)
        assert load.arg == ("a", "ee")
        assert store.arg == ("a", "ee")

    def test_section_specs(self):
        code = compile_text(
            "PROGRAM p\n  REAL f(4, 8)\n  f(:, 1:3) = 0.0\nEND"
        )
        store = next(i for i in code.instructions if i.op is Op.STORE_INDEXED)
        assert store.arg == ("f", "fb")

    def test_vector_literal_and_iota(self):
        code = compile_text("PROGRAM p\n  v = [1, 2]\n  w = [1 : 4]\nEND")
        assert Op.VECTOR in ops_of(code)
        assert Op.IOTA in ops_of(code)

    def test_intrinsic(self):
        code = compile_text("PROGRAM p\n  x = MAX(a, b)\nEND")
        call = next(i for i in code.instructions if i.op is Op.INTRINSIC)
        assert call.arg == ("max", 2)


class TestControlFlow:
    def test_if_produces_conditional_jump(self):
        code = compile_text("PROGRAM p\n  IF (a) THEN\n    x = 1\n  ENDIF\nEND")
        assert Op.JUMP_IF_FALSE in ops_of(code)

    def test_if_else_jump_targets_resolved(self):
        code = compile_text(
            "PROGRAM p\n  IF (a) THEN\n    x = 1\n  ELSE\n    x = 2\n  ENDIF\nEND"
        )
        for instr in code.instructions:
            if instr.op in (Op.JUMP, Op.JUMP_IF_FALSE):
                assert isinstance(instr.arg, int)
                assert 0 <= instr.arg <= len(code)

    def test_where_brackets_masks(self):
        code = compile_text(
            "PROGRAM p\n  WHERE (m)\n    x = 1\n  ELSEWHERE\n    x = 2\n  ENDWHERE\nEND"
        )
        ops = ops_of(code)
        assert ops.count(Op.PUSH_MASK) == 1
        assert ops.count(Op.ELSE_MASK) == 1
        assert ops.count(Op.POP_MASK) == 1
        assert ops.index(Op.PUSH_MASK) < ops.index(Op.ELSE_MASK) < ops.index(Op.POP_MASK)

    def test_goto_compiles_to_jump(self):
        code = compile_text("PROGRAM p\n  GOTO 10\n  x = 1\n10 CONTINUE\nEND")
        jumps = [i for i in code.instructions if i.op is Op.JUMP]
        assert len(jumps) == 1

    def test_exit_and_cycle(self):
        code = compile_text(
            "PROGRAM p\n  DO i = 1, 3\n    IF (a) EXIT\n    IF (b) CYCLE\n  ENDDO\nEND"
        )
        jumps = [i for i in code.instructions if i.op is Op.JUMP]
        assert len(jumps) >= 3  # exit, cycle, loop back-edge

    def test_exit_outside_loop_rejected(self):
        with pytest.raises(TransformError):
            compile_routine(
                ast.Routine("program", "p", [], [ast.ExitStmt()])
            )

    def test_user_call_enters_the_subroutine(self):
        code = compile_text(
            "PROGRAM p\n  CALL f(x)\nEND\nSUBROUTINE f(a)\n  a = 1\nEND"
        )
        enter = next(i for i in code.instructions if i.op is Op.ENTER)
        name, params, arg_exprs, entry = enter.arg
        assert (name, params, len(arg_exprs)) == ("f", ("a",), 1)
        assert code.entries == {"p": 0, "f": entry}
        assert code.instructions[entry - 1].op is Op.HALT
        assert code.instructions[-1].op is Op.RET
        assert not any(i.op is Op.CALL for i in code.instructions)

    def test_external_call_compiles(self):
        code = compile_text("PROGRAM p\n  CALL force(f, i, j)\nEND")
        call = next(i for i in code.instructions if i.op is Op.CALL)
        name, arg_exprs = call.arg
        assert name == "force" and len(arg_exprs) == 3

    def test_disassembly_readable(self):
        code = compile_text("PROGRAM p\n  x = 1\nEND")
        text = code.disassemble()
        assert "PUSH_CONST" in text and "STORE" in text


class TestBackendAgreement:
    """Control constructs whose VM lowering once disagreed with the
    scalar level, the MIMD level and the twin."""

    #: The body assigns its own DO variable (Fortran forbids it; the
    #: trip count still comes from the bounds on every backend).
    DO_ASSIGNS_VAR = (
        "PROGRAM p\n  INTEGER i, n\n  n = 0\n  DO i = 1, 6\n"
        "    n = n + 1\n    i = i + 1\n  ENDDO\nEND"
    )

    #: STOP inside a WHERE of the main program (a lockstep program: the
    #: scalar and MIMD levels cannot take a vector WHERE mask).
    STOP_IN_WHERE = (
        "PROGRAM p\n  INTEGER v(2)\n  v = [1 : 2]\n  w = 0\n"
        "  WHERE (v > 1)\n    w = v\n    STOP\n  ENDWHERE\n  w = 5\nEND"
    )

    def _runs(self, text, nproc=2, lockstep_only=False):
        """``label -> (env or per-processor envs, counters, steps)`` on
        every backend (only the lockstep ones if asked) and the twin."""
        from repro.fuzz.twin import run_twin
        from repro.runtime import BackendConfig, Engine

        program = Engine().compile(text)
        env, counters = run_twin(text, nproc)
        runs = {"twin": (env, counters, None)}
        configs = {
            "scalar": ("scalar", 0, BackendConfig()),
            "mimd": ("mimd", nproc, BackendConfig()),
            "pmimd": ("pmimd", nproc, BackendConfig(workers=1)),
            "vm": ("vm", nproc, BackendConfig(vm_fuse=True)),
            "vm per-instruction": ("vm", nproc, BackendConfig(vm_fuse=False)),
        }
        for label, (backend, width, config) in configs.items():
            if lockstep_only and backend != "vm":
                continue
            result = program.run(backend=backend, nproc=width, config=config)
            runs[label] = (result.env, result.counters, result.steps)
        return runs

    def test_do_trip_count_comes_from_the_bounds(self):
        from repro.reliability import check_agreement

        runs = self._runs(self.DO_ASSIGNS_VAR)
        for label, (envs, _counters, steps) in runs.items():
            for env in envs if isinstance(envs, list) else [envs]:
                assert (env["n"], env["i"]) == (6, 7), label
            # one retired instruction per trip, as before: no new opcode
            assert steps in (None, 31), label
        for label in ("vm", "vm per-instruction"):
            check_agreement(*runs[label][:2], *runs["twin"][:2], (label, "twin"))

    #: The same STOP inside a WHERE of a CALLed subroutine.
    STOP_IN_SUBROUTINE_WHERE = (
        "PROGRAM p\n  INTEGER v(2)\n  v = [1 : 2]\n  w = 0\n  CALL s(v, w)\n"
        "  w = 5\nEND\nSUBROUTINE s(v, w)\n  INTEGER v(2)\n"
        "  WHERE (v > 1)\n    w = v\n    STOP\n  ENDWHERE\nEND"
    )

    # A STOP in a subroutine ends the run with the main program's
    # environment: the callee's writeback of w never happens.
    @pytest.mark.parametrize("text, w", [(STOP_IN_WHERE, [0, 2]),
                                         (STOP_IN_SUBROUTINE_WHERE, 0)],
                             ids=["main", "subroutine"])
    def test_stop_inside_where_closes_the_scope(self, text, w):
        from repro.reliability import check_agreement
        from repro.vm import verify_code

        assert not verify_code(compile_text(text)).errors
        runs = self._runs(text, lockstep_only=True)
        for label in ("vm", "vm per-instruction"):
            env, counters, _steps = runs[label]
            check_agreement(env, counters, *runs["twin"][:2], (label, "twin"))
            assert np.asarray(env["w"]).tolist() == w

    def test_stop_inside_where_of_the_entry_routine(self):
        from repro.runtime import Engine

        program = Engine().compile(self.STOP_IN_SUBROUTINE_WHERE)
        bindings = {"v": np.array([1, 2]), "w": np.array([0, 0])}
        env = program.run(bindings, nproc=2, backend="vm", routine_name="s").env
        assert env["w"].tolist() == [0, 2]
