"""Differential testing: the bytecode VM vs its tree-walking twin.

Two independent implementations of the lockstep semantics — the VM,
the package's SIMD backend, and the test-only twin of
:mod:`repro.fuzz.twin` — must agree on results *and* on useful-work
step counts for the paper's kernels and for randomized flattened
programs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.fuzz.twin import SIMDInterpreter, run_twin
from repro.kernels import example as ex
from repro.kernels.nbforce import NBFORCE_FLAT
from repro.lang import ast, parse_source
from repro.md.distribution import flat_kernel_bindings
from repro.md.forces import make_simd_force_external, reference_nbforce
from repro.md.molecule import uniform_box
from repro.md.pairlist import build_pairlist
from repro.simd.layout import DataDistribution
from repro.transform.parallel import flatten_spmd
from repro.reliability import (
    Budget,
    BudgetExceeded,
    OutOfBoundsFault,
    check_agreement,
)
from repro.vm import run_bytecode, verify_code


def both(tree, nproc, bindings, externals=None):
    env_i, c_i = run_twin(tree, nproc, dict(bindings), externals)
    env_v, c_v = run_bytecode(
        tree, nproc, bindings=dict(bindings), externals=externals
    )
    return (env_i, c_i), (env_v, c_v)


class TestPaperKernels:
    @pytest.mark.parametrize(
        "text", [ex.P4_NAIVE_SIMD, ex.P5_FLATTENED_SIMD], ids=["P4", "P5"]
    )
    def test_example_programs_agree(self, text):
        tree = ex.parse_example(text)
        (env_i, c_i), (env_v, c_v) = both(tree, ex.EXAMPLE_P, ex.example_bindings())
        assert (env_i["x"].data == env_v["x"].data).all()
        assert c_i.events["scatter"] == c_v.events["scatter"]
        assert c_i.calls == c_v.calls

    def test_nbforce_flat_kernel_agrees(self):
        mol = uniform_box(80, seed=17)
        plist = build_pairlist(mol, 5.5)
        dist = DataDistribution(n=80, gran=8, scheme="cyclic")
        tree = parse_source(NBFORCE_FLAT)
        bindings = flat_kernel_bindings(plist, dist)
        externals = {"force": make_simd_force_external(mol)}
        (env_i, c_i), (env_v, c_v) = both(tree, 8, bindings, externals)
        ref = reference_nbforce(mol, plist)
        assert np.allclose(np.asarray(env_i["f"].data)[:80], ref)
        assert np.allclose(np.asarray(env_v["f"].data)[:80], ref)
        assert c_i.calls["force"] == c_v.calls["force"]


@settings(max_examples=25, deadline=None)
@given(
    trips=st.lists(st.integers(1, 5), min_size=1, max_size=8),
    nproc=st.integers(1, 5),
    layout=st.sampled_from(["block", "cyclic"]),
)
def test_random_flattened_programs_agree(trips, nproc, layout):
    k = len(trips)
    tree = parse_source(
        f"""
PROGRAM nest
  INTEGER i, j, k, l({k}), x({k}, 5)
  k = {k}
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = i * 10 + j
    ENDDO
  ENDDO
END
"""
    )
    loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
    flat = flatten_spmd(
        loop, nproc=nproc, layout=layout, variant="done", assume_min_trips=True
    )
    index = tree.main.body.index(loop)
    prog = ast.SourceFile(
        [
            ast.Routine(
                "program",
                "p",
                [],
                tree.main.body[:index] + flat + tree.main.body[index + 1:],
            )
        ]
    )
    bindings = {"l": np.array(trips, dtype=np.int64)}
    (env_i, c_i), (env_v, c_v) = both(prog, nproc, bindings)
    assert (env_i["x"].data == env_v["x"].data).all()
    assert c_i.events["scatter"] == c_v.events["scatter"]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nproc=st.integers(2, 6),
)
def test_random_where_programs_agree(seed, nproc):
    """Masked arithmetic with nested WHEREs agrees between engines."""
    rng = np.random.default_rng(seed)
    a, b, c = (int(rng.integers(1, 5)) for _ in range(3))
    tree = parse_source(
        f"""
PROGRAM masked
  v = [1 : {nproc}]
  w = v * {a}
  WHERE (MOD(v, 2) == 0)
    w = w + {b}
    WHERE (v > {c})
      w = w * 2
    ELSEWHERE
      w = w - 1
    ENDWHERE
  ELSEWHERE
    w = 0 - w
  ENDWHERE
END
"""
    )
    (env_i, _), (env_v, _) = both(tree, nproc, {})
    assert np.array_equal(np.asarray(env_i["w"]), np.asarray(env_v["w"]))


MASKED_GATHER = """
PROGRAM p
  INTEGER n
  INTEGER v(n), w(n), r(n)
  REAL a(5, 3)
  v = [1 : n]
  a = 0.0
  a(:, 2) = 2.0
  a(:, 3) = 3.0
  a(2, :) = 7.0
  w = 0
  WHERE (v > 2)
    w = a(r, j) + b(v)
  ENDWHERE
END
"""


@pytest.mark.parametrize(
    "j, expected",
    [
        (np.array([9, -3, 2, 3], dtype=np.int64), [0, 0, 19, 16]),
        (np.array([9, -3, 2, 3], dtype=np.int32), [0, 0, 19, 16]),
        (np.array([True, False, True, True]), [0, 0, 19, 13]),
    ],
    ids=["int64", "int32", "bool"],
)
def test_masked_gather_clamps_inactive_lanes_alike(j, expected):
    """Inactive lanes address out of range in both dimensions of a
    gather (and in an undeclared int32 array): no engine traps, for
    every subscript dtype, and both agree on values and counters."""
    bindings = {
        "n": 4,
        "r": np.array([9, -3, 2, 4]),
        "j": j,
        "b": np.arange(10, 14, dtype=np.int32),
    }
    (env_i, c_i), (env_v, c_v) = both(parse_source(MASKED_GATHER), 4, bindings)
    assert env_v["w"].data.tolist() == env_i["w"].data.tolist() == expected
    assert c_v.state_dict()["active_elements"] == c_i.state_dict()["active_elements"]


ZERO_EXTENT_GATHER = """
PROGRAM p
  INTEGER n, m
  INTEGER v(n), w(n), r(n)
  REAL a(m, 3), c(m)
  v = [1 : n]
  w = 0
  WHERE (v > 9)
    w = a(r, v) + c(r)
  ENDWHERE
END
"""


def test_zero_extent_gather_without_active_lanes_fails_alike():
    """A zero extent has no element to clamp an inactive lane into:
    both engines fail the same way instead of reading garbage."""
    bindings = {"n": 4, "m": 0, "r": np.array([1, 2, 3, 1])}
    errors = []
    for run in (
        lambda: run_twin(ZERO_EXTENT_GATHER, 4, dict(bindings)),
        lambda: run_bytecode(parse_source(ZERO_EXTENT_GATHER), 4, bindings=dict(bindings)),
    ):
        with pytest.raises(IndexError) as excinfo:
            run()
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]


SCALAR_WRITEBACK = """
PROGRAM Main
  INTEGER k, i
  INTEGER a(6)
  REAL s
  a = 0
  k = 2
  s = 0.5
  CALL Bump(k, a(k), s)
  DO i = 1, 3
    k = i
    CALL Bump(k, a(k + 2), s)
  ENDDO
END
SUBROUTINE Bump(j, elem, t)
  INTEGER j, elem
  j = j + 1
  elem = elem + 10 * j
  t = t * 2.0
END
"""

ARRAY_BY_REFERENCE = """
PROGRAM p
  INTEGER a(5), v(4)
  a = 0
  v = [1 : 4]
  CALL Fill(a, v)
  CALL Fill(a, v)
END
SUBROUTINE Fill(arr, w)
  INTEGER arr(5)
  arr(w) = arr(w) + w
  w = w + 1
END
"""

RETURN_IN_WHERE = """
PROGRAM p
  INTEGER a(4)
  v = [1 : 4]
  a = 0
  WHERE (v > 1)
    CALL Masked(v, a)
  ENDWHERE
  CALL Masked(v, a)
END
SUBROUTINE Masked(w, arr)
  INTEGER arr(4)
  w = w * 3
  WHERE (w > 9)
    arr(2) = arr(2) + 1
    RETURN
  ENDWHERE
  w = 0
END
"""

RETURN_IN_DO = """
PROGRAM p
  INTEGER n, r
  n = 0
  DO r = 1, 3
    CALL Early(n, r)
  ENDDO
END
SUBROUTINE Early(m, lim)
  INTEGER m, q
  DO q = 1, 10
    m = m + q
    IF (q >= lim) RETURN
  ENDDO
  m = -1
END
"""

RECURSION = """
PROGRAM p
  INTEGER x
  x = 0
  CALL Deeper(x)
END
SUBROUTINE Deeper(y)
  y = y + 1
  CALL Deeper(y)
END
"""


def _agree_with_twin(text, nproc, bindings, routine_name=None):
    result = repro.run(text, dict(bindings), nproc=nproc, routine_name=routine_name)
    assert result.backend == "vm"
    twin = SIMDInterpreter(parse_source(text), nproc)
    env = twin.run(routine_name and routine_name.lower(), dict(bindings))
    check_agreement(result.env, result.counters, env, twin.counters)
    state = twin.counters.state_dict()
    for field, value in result.counters.state_dict().items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, state[field]), field
        else:
            assert value == state[field], field
    assert not verify_code(repro.compile(text).bytecode()).errors
    return result


class TestSubroutineCalls:
    """MiniF subroutine calls run on the VM (``backend="auto"`` at
    ``nproc >= 1``) exactly as the twin runs them."""

    def test_scalar_arguments_are_written_back(self):
        env = _agree_with_twin(SCALAR_WRITEBACK, 4, {}).env
        # a subscript is evaluated after the earlier arguments' writeback
        assert env["k"] == 4 and env["i"] == 4
        assert env["a"].data.tolist() == [0, 0, 30, 50, 80, 120]
        assert env["s"] == 8.0

    def test_array_argument_is_passed_by_reference(self):
        env = _agree_with_twin(ARRAY_BY_REFERENCE, 4, {}).env
        # the callee's stores land in the caller's array; the vector
        # argument is copied in and written back
        assert env["a"].data.tolist() == [1, 4, 6, 8, 5]
        assert env["v"].data.tolist() == [3, 4, 5, 6]

    def test_return_inside_where_restores_the_frame_mask(self):
        env = _agree_with_twin(RETURN_IN_WHERE, 4, {}).env
        assert env["a"].data.tolist() == [0, 2, 0, 0]

    def test_return_inside_do(self):
        env = _agree_with_twin(RETURN_IN_DO, 2, {}).env
        assert env["n"] == 1 + 3 + 6

    @pytest.mark.parametrize("name", ["early", "EARLY"])
    def test_routine_name_enters_the_routine(self, name):
        env = _agree_with_twin(RETURN_IN_DO, 2, {"m": 5, "lim": 2}, name).env
        assert env["m"] == 8

    def test_recursion_is_stopped_by_the_budget(self):
        budget = Budget(max_steps=300)
        with pytest.raises(BudgetExceeded):
            repro.run(RECURSION, nproc=2, budget=budget)
        with pytest.raises(BudgetExceeded):
            run_twin(RECURSION, 2, budget=budget)

    def test_writeback_fault_is_located_at_the_call(self):
        text = (
            "PROGRAM p\n  INTEGER a(3), k\n  a = 0\n  k = 3\n"
            "  CALL Bump(k, a(k))\nEND\n"
            "SUBROUTINE Bump(j, e)\n  j = j + 1\n  e = 1\nEND\n"
        )
        lines = []
        for run in (lambda: repro.run(text, nproc=2), lambda: run_twin(text, 2)):
            # the writeback of a(k) sees k = 4, past the extent
            with pytest.raises(OutOfBoundsFault) as info:
                run()
            lines.append(info.value.location.line)
        assert lines == [5, 5]
