"""MIMD simulator tests."""

import numpy as np

import repro
from repro.exec import MIMDSimulator
from repro.lang import parse_source


def test_private_name_spaces():
    source = parse_source("PROGRAM p\n  x = myproc * 10\nEND")
    result = repro.run(source, nproc=3, backend="mimd")
    assert [env["x"] for env in result.envs] == [10, 20, 30]


def test_nproc_binding():
    source = parse_source("PROGRAM p\n  x = nproc\nEND")
    result = repro.run(source, nproc=4, backend="mimd")
    assert all(env["x"] == 4 for env in result.envs)


def test_bindings_for_gives_local_data():
    source = parse_source(
        "PROGRAM p\n  INTEGER lloc(2)\n  s = lloc(1) + lloc(2)\nEND"
    )
    data = np.array([1, 2, 3, 4])
    result = repro.run(
        source,
        nproc=2,
        bindings_for=lambda p: {"lloc": data[(p - 1) * 2 : p * 2]},
        backend="mimd",
    )
    assert [env["s"] for env in result.envs] == [3, 7]


def test_time_is_max_over_processors():
    source = parse_source(
        "PROGRAM p\n  s = 0\n  DO i = 1, n\n    s = s + i\n  ENDDO\nEND"
    )
    result = repro.run(
        source, nproc=2, bindings_for=lambda p: {"n": 10 * p}, backend="mimd"
    )
    slow = result.counters[1].total_steps
    assert result.time_steps() == slow


def test_call_count_time_metric():
    source = parse_source("PROGRAM p\n  DO i = 1, n\n    CALL work(i)\n  ENDDO\nEND")

    def work(interp, arg_exprs, args, env):
        pass

    sim = MIMDSimulator(source, 3, externals={"work": work})
    result = sim.run(bindings_for=lambda p: {"n": p * 2})
    assert result.call_counts("work") == [2, 4, 6]
    assert result.time_calls("work") == 6


def test_statement_hook_per_processor():
    source = parse_source("PROGRAM p\n  x = myproc\nEND")
    seen = {1: [], 2: []}

    def hook_for(p):
        def hook(stmt, env):
            seen[p].append(type(stmt).__name__)

        return hook

    MIMDSimulator(source, 2).run(statement_hook_for=hook_for)
    assert seen[1] == ["Assign"]
    assert seen[2] == ["Assign"]
