"""The scalar interpreter's generated code for expressions and
assignments: failing statements, shared code objects, the source cache."""

import json
from pathlib import Path

import pytest

from repro.exec import ScalarInterpreter, scalar
from repro.lang import parse_source
from repro.lang.errors import InterpreterError, MiniFError
from repro.reliability import Budget, crash_dump_for

HEAD = """PROGRAM p
  INTEGER a(5), i, s
  REAL x
  s = 0
  DO i = 1, 3
    a(i) = i * 2
  ENDDO
"""


def raising(interp, arg_exprs, args, env):
    raise InterpreterError("external failed")


def storing(interp, arg_exprs, args, env):
    interp.assign_to(arg_exprs[0], 1.5, env)


#: Each program fails in its last statement.
FAILURES = {
    "unassigned": (HEAD + "  s = s + q * 2\nEND\n", {}),
    "load-oob": (HEAD + "  s = a(i + 4) + 1\nEND\n", {}),
    "store-oob": (HEAD + "  a(i * 3) = s - 1\nEND\n", {}),
    "store-oob-rank2": (
        "PROGRAM p\n  INTEGER b(2, 3), i\n  i = 3\n  b(1, i + 1) = 7\nEND\n",
        {},
    ),
    "non-int-subscript": (HEAD + "  x = 1.5\n  s = a(x) * 2\nEND\n", {}),
    "not-an-array": (HEAD + "  s = s(2) + 1\nEND\n", {}),
    "budget": (
        HEAD + "  s = a(1) + a(2)\n  s = s + 1\nEND\n",
        {"budget": Budget(max_steps=7)},
    ),
    # Polled at step 5, an assignment; a zero deadline has passed by then.
    "deadline": (
        HEAD + "  s = a(1) + a(2)\n  x = s * 1.5\nEND\n",
        {"budget": Budget(max_steps=None, deadline_seconds=0.0, check_every=5)},
    ),
    "external-raises": (
        HEAD + "  CALL boom(x, a(2))\nEND\n", {"externals": {"boom": raising}}
    ),
    "external-store-faults": (
        HEAD + "  CALL put(a(s + 9))\nEND\n", {"externals": {"put": storing}}
    ),
    "store-unassigned-subscript": (HEAD + "  a(q + 1) = s + 1\nEND\n", {}),
    "int-div-zero": (HEAD + "  s = a(1) / (s - s)\nEND\n", {}),
}

#: Crash dumps and ``repr(state_dict())`` of FAILURES as the per-node
#: closure interpreter produced them.
EXPECTED = json.loads((Path(__file__).parent / "scalar_failures.json").read_text())


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_a_failing_statement_dumps_as_before(case):
    text, kwargs = FAILURES[case]
    interp = ScalarInterpreter(parse_source(text), **kwargs)
    with pytest.raises(MiniFError) as info:
        interp.run()
    dump = json.loads(json.dumps(crash_dump_for(info.value), default=str))
    assert dump == EXPECTED[case]["dump"]
    assert repr(interp.counters.state_dict()) == EXPECTED[case]["state"]


SHAPES = """PROGRAM p
  INTEGER v(4), w(4), i, j
  i = 1
  j = 2
  v(i) = i + j
  w(j) = j + i
  v(j) = i * j
END
"""


class TestSharedCode:
    def test_same_shape_statements_share_one_code_object(self):
        interp = ScalarInterpreter(parse_source(SHAPES))
        env = interp.run()
        assert (env["v"].data.tolist(), env["w"].data.tolist()) == (
            [3, 2, 0, 0], [0, 3, 0, 0],
        )
        code = interp._body(interp.source.main.body).__code__
        # A statement list is one generated function: another list of
        # the same shape, under other names and constants, shares it.
        renamed = SHAPES.replace("v", "a").replace("w", "b").replace("= 2", "= 3")
        other = ScalarInterpreter(parse_source(renamed))
        assert other.run()["b"].data.tolist() == [0, 0, 4, 0]
        assert other._body(other.source.main.body).__code__ is code
        # ``*`` is part of the shape.
        plus = ScalarInterpreter(parse_source(SHAPES.replace("i * j", "i + j")))
        assert plus._body(plus.source.main.body).__code__ is not code

    def test_the_source_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(scalar, "_FACTORIES", {})
        monkeypatch.setattr(scalar, "_MAX_FACTORIES", 3)
        terms = " + ".join(f"a{k}" for k in range(8))
        lines = [f"  a{k} = {k}" for k in range(8)]
        # Eight sums of 1..8 terms: eight shapes.
        lines += [f"  s{k} = {terms[: 5 * k + 2]}" for k in range(8)]
        interp = ScalarInterpreter(parse_source("PROGRAM p\n" + "\n".join(lines) + "\nEND\n"))
        env = interp.run()
        assert [env[f"s{k}"] for k in range(8)] == [
            sum(range(k + 1)) for k in range(8)
        ]
        assert 0 < len(scalar._FACTORIES) <= 3


NESTED = """PROGRAM p
  s = 0
  DO i = 1, 3
    IF (i > 1) THEN
      s = s + i
    ELSE
      CALL note(s, i * 2)
    ENDIF
    k = 0
    DO WHILE (k < i)
      k = k + 1
    ENDDO
  ENDDO
  FORALL (j = 1 : 4, MOD(j, 2) == 1) m = j
END
"""


def test_precompile_leaves_a_run_nothing_to_generate(monkeypatch):
    """What a forked pmimd worker inherits: after ``precompile`` in the
    parent, running the program compiles no new source."""
    monkeypatch.setattr(scalar, "_FACTORIES", {})
    externals = {"note": lambda interp, arg_exprs, args, env: None}
    ScalarInterpreter(parse_source(NESTED), externals).precompile()
    warm = dict(scalar._FACTORIES)
    env = ScalarInterpreter(parse_source(NESTED), externals).run()
    assert (env["s"], env["k"], env["m"]) == (5, 3, 3)
    assert scalar._FACTORIES == warm


class _CountingDict(dict):
    """A source cache that counts how often it is emptied."""

    clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


def test_a_fuzz_campaign_never_empties_the_source_cache(monkeypatch):
    """``repro fuzz --seed 0 -n 30`` generates its whole-list sources
    (187 of them) well inside the cache bound, so the cache never
    thrashes."""
    from repro.fuzz import run_fuzz

    cache = _CountingDict()
    monkeypatch.setattr(scalar, "_FACTORIES", cache)
    assert run_fuzz(seed=0, iterations=30).ok
    assert cache.clears == 0
    assert 0 < len(cache) < scalar._MAX_FACTORIES // 2
