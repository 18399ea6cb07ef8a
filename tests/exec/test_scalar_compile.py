"""The scalar interpreter's closure compiler: crash dumps, trace tails,
compile counts, counter exactness and cross-backend agreement."""

import collections

import pytest

from repro.exec import ScalarInterpreter
from repro.lang import parse_source
from repro.lang.errors import MiniFError
from repro.reliability import Budget, BudgetExceeded, FaultPlan, crash_dump_for
from repro.runtime import BackendConfig
from repro.runtime.engine import Engine

#: Faults at a(7) on the last trip of a DO nest (statement 31).
NEST = """PROGRAM p
  INTEGER a(6), s, i, j
  s = 0
  DO i = 1, 4
    DO j = 1, 3
      s = s + 1
      a(i + j) = s
    ENDDO
  ENDDO
END
"""

#: A GOTO back-edge that walks k past a's extent (statement 24).
GOTO = """PROGRAM p
  INTEGER a(5), k
  k = 0
10 k = k + 1
  a(k) = k
  IF (k < 9) GOTO 10
END
"""

#: A MiniF CALL whose fifth invocation stores to v(0) (statement 22).
CALL = """PROGRAM p
  INTEGER a(4), i
  DO i = 1, 9
    CALL put(a, i)
  ENDDO
END
SUBROUTINE put(v, n)
  INTEGER v(4)
  m = 5 - n
  v(m) = n
END
"""


def crash(text, **kwargs):
    with pytest.raises(MiniFError) as info:
        ScalarInterpreter(parse_source(text), **kwargs).run()
    return crash_dump_for(info.value)


def ops(dump):
    return [(op["pc"], op["op"], op["line"]) for op in dump["last_ops"]]


def body_ops(first_pc, pattern, count=16):
    """``count`` consecutive (pc, op, line) entries cycling ``pattern``."""
    return [
        (first_pc + k, *pattern[k % len(pattern)]) for k in range(count)
    ]


class TestCrashDumps:
    """pc and the full 16-entry trace tail of a crash dump."""

    def test_fault_inside_a_do_nest(self):
        dump = crash(NEST)
        assert (dump["error"], dump["location"], dump["pc"]) == (
            "OutOfBoundsFault", "<string>:7:7", 31,
        )
        inner = [("Assign", 6), ("Assign", 7)]
        assert ops(dump) == (
            body_ops(16, inner, 2)
            + [(18, "Do", 5)]
            + body_ops(19, inner, 6)
            + [(25, "Do", 5)]
            + body_ops(26, inner, 6)
        )

    def test_fault_after_a_goto_back_edge(self):
        dump = crash(GOTO)
        assert (dump["error"], dump["location"], dump["pc"]) == (
            "OutOfBoundsFault", "<string>:5:3", 24,
        )
        loop = [("If", 6), ("Goto", 6), ("Assign", 4), ("Assign", 5)]
        assert ops(dump) == body_ops(9, loop)

    def test_fault_inside_a_minif_call(self):
        dump = crash(CALL)
        assert (dump["error"], dump["location"], dump["pc"]) == (
            "OutOfBoundsFault", "<string>:10:3", 22,
        )
        call = [("CallStmt", 4), ("Decl", 8), ("Assign", 9), ("Assign", 10)]
        assert ops(dump) == body_ops(7, call)

    def test_injected_fault_before_the_statement_is_traced(self):
        """An op fault fires after the statement is counted but before
        it is traced; the enclosing DO stamps the location."""
        dump = crash(NEST, fault_plan=FaultPlan(op_faults=(20,)))
        assert (dump["error"], dump["location"], dump["pc"]) == (
            "BackendFault", "<string>:5:5", 20,
        )
        assert ops(dump)[-1] == (19, "Assign", 6)
        assert [pc for pc, _, _ in ops(dump)] == list(range(4, 20))

    def test_budget_cut_before_the_statement_is_traced(self):
        dump = crash(NEST, budget=Budget(max_steps=22))
        assert (dump["error"], dump["location"], dump["pc"]) == (
            "BudgetExceeded", "<string>:6:7", 23,
        )
        assert [pc for pc, _, _ in ops(dump)] == list(range(7, 23))
        assert ops(dump)[-1] == (22, "Assign", 7)

    @pytest.mark.parametrize("text", [NEST, GOTO, CALL], ids=["nest", "goto", "call"])
    def test_resumed_run_dumps_like_the_uninterrupted_run(self, text):
        captured = []
        full = crash(text, checkpoint_every=7, checkpoint_sink=captured.append)
        assert full == crash(text)
        assert len(captured) >= 2
        for ckpt in captured:
            interp = ScalarInterpreter(parse_source(text))
            with pytest.raises(MiniFError) as info:
                interp.run(resume_from=ckpt)
            assert crash_dump_for(info.value) == full


def count_compiles(monkeypatch):
    """Count ``_compile_body`` calls per statement list."""
    counts = collections.Counter()
    original = ScalarInterpreter._compile_body

    def counting(self, body):
        counts[id(body)] += 1
        return original(self, body)

    monkeypatch.setattr(ScalarInterpreter, "_compile_body", counting)
    return counts


LOOP = "PROGRAM p\n  s = 0\n  DO i = 1, 1000\n    s = s + i\n  ENDDO\nEND"


class TestCompileGate:
    def test_a_loop_body_compiles_once(self, monkeypatch):
        counts = count_compiles(monkeypatch)
        source = parse_source(LOOP)
        interp = ScalarInterpreter(source)
        env = interp.run()
        assert env["s"] == 500500
        # The loop body is inline in the main body's function.
        assert counts == {id(source.main.body): 1}
        interp.run()
        assert counts == {id(source.main.body): 1}

    def test_each_mimd_processor_compiles_each_body_once(self, monkeypatch):
        counts = count_compiles(monkeypatch)
        program = Engine().compile(LOOP)
        result = program.run(nproc=8, backend="mimd")
        assert [env["s"] for env in result.env] == [500500] * 8
        assert list(counts.values()) == [8]

    def test_a_hook_set_after_construction_sees_every_statement(self):
        interp = ScalarInterpreter(parse_source(LOOP))
        seen = []
        interp.statement_hook = lambda stmt, env: seen.append(type(stmt).__name__)
        interp.run()
        assert len(seen) == interp.executed_statements == 1002
        assert seen[:3] == ["Assign", "Do", "Assign"]

    def test_counters_stay_exact_across_a_resume_into_compiled_code(self):
        """Resume replaces the Counter objects (``load_state``) under
        closures compiled by an earlier run of the same interpreter."""
        reference = ScalarInterpreter(parse_source(LOOP))
        reference.run()
        captured = []
        interp = ScalarInterpreter(
            parse_source(LOOP), checkpoint_every=300, checkpoint_sink=captured.append
        )
        interp.run()
        interp.checkpoint_every = None
        for ckpt in captured:
            interp.run(resume_from=ckpt)
            assert interp.executed_statements == reference.executed_statements
            assert_state_equal(interp.counters, reference.counters)


def assert_state_equal(left, right):
    a, b = left.state_dict(), right.state_dict()
    assert a.pop("lane_active_steps").tolist() == b.pop("lane_active_steps").tolist()
    assert a == b


INTRINSICS = """PROGRAM p
  REAL x, y
  INTEGER m, a, b
  y = 2.0
  a = 7
  b = 3
  x = SQRT(y)
  m = MOD(a, b)
  m = MAX(a, b)
END
"""


def test_intrinsic_event_kinds_agree_with_the_lockstep_backends():
    program = Engine().compile(INTRINSICS)
    scalar = program.run(backend="scalar")
    vm = program.run(backend="vm", nproc=2)
    assert dict(scalar.counters.events) == dict(vm.counters.events)
    assert scalar.counters.events["real_op"] == 3
    assert scalar.steps == vm.steps


@pytest.mark.parametrize("backend", ["mimd", "pmimd"])
def test_max_instructions_caps_every_mimd_processor(backend):
    program = Engine().compile(LOOP)
    budget, config = Budget(max_steps=50), BackendConfig(workers=1)
    with pytest.raises(MiniFError) as scalar:
        program.run(backend="scalar", budget=budget, config=config)
    with pytest.raises(MiniFError) as info:
        program.run(backend=backend, nproc=2, budget=budget, config=config)
    assert isinstance(scalar.value, BudgetExceeded)
    assert type(info.value) is type(scalar.value)
    assert info.value.message == scalar.value.message
    assert info.value.location == scalar.value.location
    remote, local = info.value.snapshot, scalar.value.snapshot
    assert (remote.pc, remote.last_ops) == (local.pc, local.last_ops)
    uncapped = program.run(backend=backend, nproc=2, config=BackendConfig(workers=1))
    assert uncapped.steps == program.run(backend="scalar").steps
