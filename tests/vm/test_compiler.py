"""Bytecode compiler unit tests."""

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
