"""Sequential interpreter tests."""

import numpy as np
import pytest

import dataclasses

import repro
from repro.exec import ScalarInterpreter
from repro.fuzz.twin import run_twin
from repro.lang import ast, parse_source
from repro.lang.errors import InterpreterError
from repro.reliability import Budget, OutOfBoundsFault
from repro.runtime.engine import Engine


def run(text, bindings=None, externals=None):
    result = repro.run(
        parse_source(text), bindings, externals=externals, backend="scalar"
    )
    return result.env, result.counters


class TestBasics:
    def test_assignment(self):
        env, _ = run("PROGRAM p\n  x = 1 + 2\nEND")
        assert env["x"] == 3

    def test_parameter_binding(self):
        env, _ = run("PROGRAM p\n  PARAMETER (k = 8)\n  x = k * 2\nEND")
        assert env["x"] == 16

    def test_array_declaration_and_store(self):
        env, _ = run("PROGRAM p\n  INTEGER a(3)\n  a(2) = 7\nEND")
        assert env["a"].data.tolist() == [0, 7, 0]

    def test_whole_array_assignment(self):
        env, _ = run("PROGRAM p\n  INTEGER a(3)\n  a = 5\nEND")
        assert env["a"].data.tolist() == [5, 5, 5]

    def test_array_section(self):
        env, _ = run("PROGRAM p\n  INTEGER a(4)\n  a(2:3) = 9\nEND")
        assert env["a"].data.tolist() == [0, 9, 9, 0]

    def test_binding_initializes_array(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(3)\n  s = a(1) + a(3)\nEND",
            bindings={"a": np.array([10, 20, 30])},
        )
        assert env["s"] == 40

    def test_binding_size_mismatch_raises(self):
        with pytest.raises(InterpreterError):
            run("PROGRAM p\n  INTEGER a(3)\nEND", bindings={"a": np.zeros(5)})

    def test_read_before_assignment_raises(self):
        with pytest.raises(InterpreterError):
            run("PROGRAM p\n  x = y + 1\nEND")

    def test_out_of_bounds_raises(self):
        with pytest.raises(InterpreterError):
            run("PROGRAM p\n  INTEGER a(3)\n  a(4) = 1\nEND")


class TestControlFlow:
    def test_do_loop(self):
        env, _ = run("PROGRAM p\n  s = 0\n  DO i = 1, 5\n    s = s + i\n  ENDDO\nEND")
        assert env["s"] == 15

    def test_do_loop_stride(self):
        env, _ = run("PROGRAM p\n  s = 0\n  DO i = 1, 10, 3\n    s = s + i\n  ENDDO\nEND")
        assert env["s"] == 1 + 4 + 7 + 10

    def test_do_loop_negative_stride(self):
        env, _ = run("PROGRAM p\n  s = 0\n  DO i = 5, 1, -1\n    s = s * 10 + i\n  ENDDO\nEND")
        assert env["s"] == 54321

    def test_do_loop_zero_trips(self):
        env, _ = run("PROGRAM p\n  s = 0\n  DO i = 5, 1\n    s = 99\n  ENDDO\nEND")
        assert env["s"] == 0

    def test_do_zero_stride_raises(self):
        with pytest.raises(InterpreterError):
            run("PROGRAM p\n  DO i = 1, 5, 0\n  ENDDO\nEND")

    def test_do_while(self):
        env, _ = run(
            "PROGRAM p\n  i = 1\n  DO WHILE (i < 100)\n    i = i * 2\n  ENDDO\nEND"
        )
        assert env["i"] == 128

    def test_while_endwhile(self):
        env, _ = run("PROGRAM p\n  i = 0\n  WHILE (i < 3)\n    i = i + 1\n  ENDWHILE\nEND")
        assert env["i"] == 3

    def test_if_else(self):
        env, _ = run("PROGRAM p\n  IF (1 > 2) THEN\n    x = 1\n  ELSE\n    x = 2\n  ENDIF\nEND")
        assert env["x"] == 2

    def test_elseif(self):
        env, _ = run(
            "PROGRAM p\n  a = 5\n  IF (a < 3) THEN\n    x = 1\n"
            "  ELSEIF (a < 10) THEN\n    x = 2\n  ELSE\n    x = 3\n  ENDIF\nEND"
        )
        assert env["x"] == 2

    def test_exit(self):
        env, _ = run(
            "PROGRAM p\n  s = 0\n  DO i = 1, 100\n    IF (i > 3) EXIT\n    s = s + i\n  ENDDO\nEND"
        )
        assert env["s"] == 6

    def test_cycle(self):
        env, _ = run(
            "PROGRAM p\n  s = 0\n  DO i = 1, 5\n    IF (MOD(i, 2) == 0) CYCLE\n    s = s + i\n  ENDDO\nEND"
        )
        assert env["s"] == 9

    def test_goto_loop(self):
        env, _ = run(
            "PROGRAM p\n  s = 0\n  i = 1\n"
            "10 IF (i > 4) GOTO 20\n  s = s + i\n  i = i + 1\n  GOTO 10\n"
            "20 CONTINUE\nEND"
        )
        assert env["s"] == 10

    def test_labeled_do(self):
        env, _ = run("PROGRAM p\n  s = 0\n  DO 30 i = 1, 3\n  s = s + i\n30 CONTINUE\nEND")
        assert env["s"] == 6

    def test_stop_terminates(self):
        env, _ = run("PROGRAM p\n  x = 1\n  STOP\n  x = 2\nEND")
        assert env["x"] == 1

    def test_forall_sequential_semantics(self):
        env, _ = run("PROGRAM p\n  INTEGER a(4)\n  FORALL (i = 1 : 4) a(i) = i * i\nEND")
        assert env["a"].data.tolist() == [1, 4, 9, 16]

    def test_forall_with_mask(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER a(4)\n  FORALL (i = 1 : 4, MOD(i, 2) == 1) a(i) = i\nEND"
        )
        assert env["a"].data.tolist() == [1, 0, 3, 0]

    def test_infinite_loop_guard(self):
        source = parse_source("PROGRAM p\n  DO WHILE (.TRUE.)\n    x = 1\n  ENDDO\nEND")
        interp = ScalarInterpreter(source, budget=Budget(max_steps=1000))
        with pytest.raises(InterpreterError, match="budget"):
            interp.run()


class TestSubroutines:
    def test_call_user_subroutine_scalar_writeback(self):
        env, _ = run(
            "PROGRAM p\n  x = 0\n  CALL setit(x)\nEND\n"
            "SUBROUTINE setit(a)\n  a = 42\nEND"
        )
        assert env["x"] == 42

    def test_call_user_subroutine_array_by_reference(self):
        env, _ = run(
            "PROGRAM p\n  INTEGER v(3)\n  CALL fill(v)\nEND\n"
            "SUBROUTINE fill(a)\n  INTEGER a(3)\n  DO i = 1, 3\n    a(i) = i\n  ENDDO\nEND"
        )
        assert env["v"].data.tolist() == [1, 2, 3]

    def test_return_statement(self):
        env, _ = run(
            "PROGRAM p\n  x = 0\n  CALL f(x)\nEND\n"
            "SUBROUTINE f(a)\n  a = 1\n  RETURN\n  a = 2\nEND"
        )
        assert env["x"] == 1

    def test_external_subroutine(self):
        seen = []

        def external(interp, arg_exprs, args, env):
            seen.append(tuple(args))
            interp.assign_to(arg_exprs[0], 99, env)

        env, counters = run(
            "PROGRAM p\n  y = 5\n  CALL ext(x, y)\nEND",
            externals={"ext": external},
        )
        assert env["x"] == 99
        assert seen == [(None, 5)]
        assert counters.calls["ext"] == 1

    def test_unknown_call_raises(self):
        with pytest.raises(InterpreterError):
            run("PROGRAM p\n  CALL nothing(1)\nEND")


class TestCounting:
    def test_store_events_counted(self):
        _, counters = run("PROGRAM p\n  x = 1\n  y = 2\nEND")
        assert counters.events["store"] == 2

    def test_acu_per_loop_iteration(self):
        _, counters = run("PROGRAM p\n  DO i = 1, 4\n    x = i\n  ENDDO\nEND")
        assert counters.events["acu"] >= 4


@dataclasses.dataclass(eq=True)
class _Unsupported(ast.Stmt):
    """A statement kind no interpreter handles."""


class TestErrorTexts:
    """The dispatch and leaf fast paths keep the errors' messages and
    source locations."""

    def test_undefined_variable(self):
        text = "PROGRAM p\n  INTEGER a(3)\n  x = 1\n  a(2) = x + zz\nEND"
        with pytest.raises(InterpreterError) as info:
            ScalarInterpreter(parse_source(text)).run()
        assert str(info.value) == "<string>:4:14: 'zz' used before assignment"
        assert (info.value.location.line, info.value.location.column) == (4, 14)

    def test_variable_bound_to_none_is_not_undefined(self):
        source = parse_source("PROGRAM p\n  y = x\nEND")
        env = ScalarInterpreter(source).run(bindings={"x": None})
        assert "y" in env and env["y"] is None

    def test_unsupported_statement(self):
        source = parse_source("PROGRAM p\n  x = 1\n  y = 2\nEND")
        body = source.main.body
        body.insert(1, _Unsupported(loc=body[1].loc))
        with pytest.raises(InterpreterError) as info:
            ScalarInterpreter(source).run()
        assert str(info.value) == "<string>:3:3: statement _Unsupported not supported here"


#: ``x`` is bound but never declared, so no FArray checks its subscripts.
UNDECLARED = """PROGRAM t
  INTEGER y
  y = 0
  y = x({sub})
END
"""


class TestUndeclaredArrayBinding:
    """Subscripts of an undeclared array binding are bounds-checked on
    every backend: numpy indexing would wrap 0 and negatives to the far
    end and raise a raw IndexError past it."""

    DATA = np.array([10, 20, 30])

    def _run(self, backend, sub):
        text = UNDECLARED.format(sub=sub)
        if backend == "interpreter":  # the VM's tree-walking twin
            return run_twin(text, 2, {"x": self.DATA})[0]["y"]
        program = Engine().compile(text)
        if backend == "mimd":
            result = program.run(
                nproc=1, backend="mimd", bindings_for=lambda p: {"x": self.DATA}
            )
            return result.env[0]["y"]
        nproc = {} if backend == "scalar" else {"nproc": 2}
        return program.run({"x": self.DATA}, backend=backend, **nproc).env["y"]

    @pytest.mark.parametrize("backend", ["scalar", "mimd", "vm", "interpreter"])
    @pytest.mark.parametrize("sub", ["0", "4", "-1"])
    def test_out_of_range_faults_at_the_reference(self, backend, sub):
        with pytest.raises(OutOfBoundsFault) as info:
            self._run(backend, sub)
        assert (info.value.location.line, info.value.location.column) == (4, 7)

    @pytest.mark.parametrize("backend", ["scalar", "mimd", "vm", "interpreter"])
    def test_in_range_reads_the_element(self, backend):
        for sub, expected in enumerate(self.DATA.tolist(), start=1):
            assert np.all(np.asarray(self._run(backend, sub)) == expected)
