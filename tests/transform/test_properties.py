"""Property-based tests of the transformation pipeline.

The paper's central claims, checked over randomized workloads:

* flattening (all three strengths) preserves semantics;
* the SPMD-partitioned, flattened, SIMDized program computes the same
  result as the sequential original on any machine size;
* the naive SIMD program needs Σ_i max_p L steps (Eq. 2) while the
  flattened one needs max_p Σ_i L steps (Eq. 1).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.eval.timing import time_mimd, time_simd_naive
from repro.lang import ast, parse_source
from repro.transform import naive_simd_program
from repro.transform.parallel import flatten_spmd

#: Trip-count vectors with at least one iteration per outer iteration.
positive_trips = st.lists(st.integers(1, 5), min_size=1, max_size=10)

#: Trip-count vectors allowing empty inner loops (general variant only).
any_trips = st.lists(st.integers(0, 5), min_size=1, max_size=10)

#: Body coefficient pairs making each (i, j) cell value distinct-ish.
coeffs = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 9))


def make_source(k: int, a: int, b: int, c: int) -> ast.SourceFile:
    text = f"""
PROGRAM nest
  INTEGER i, j, k, l({k}), x({k}, 5)
  k = {k}
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = {a} * i + {b} * j + {c}
    ENDDO
  ENDDO
END
"""
    return parse_source(text)


def reference(k, trips, a, b, c):
    out = np.zeros((k, 5), dtype=np.int64)
    for i in range(1, k + 1):
        for j in range(1, trips[i - 1] + 1):
            out[i - 1, j - 1] = a * i + b * j + c
    return out


@settings(max_examples=40, deadline=None)
@given(trips=positive_trips, abc=coeffs)
def test_flatten_preserves_semantics_all_variants(trips, abc):
    a, b, c = abc
    k = len(trips)
    tree = make_source(k, a, b, c)
    bindings = {"l": np.array(trips, dtype=np.int64)}
    expected = reference(k, trips, a, b, c)
    for variant in ("general", "optimized", "done"):
        flat = repro.compile(
            tree,
            transform="flatten",
            variant=variant,
            assume_min_trips=True,
            simd=False,
        ).tree
        env = repro.run(flat, bindings=dict(bindings), backend="scalar").env
        assert (env["x"].data == expected).all(), variant


@settings(max_examples=40, deadline=None)
@given(trips=any_trips, abc=coeffs)
def test_general_flattening_handles_zero_trips(trips, abc):
    a, b, c = abc
    k = len(trips)
    tree = make_source(k, a, b, c)
    flat = repro.compile(tree, transform="flatten", variant="general", simd=False).tree
    env = repro.run(
        flat, bindings={"l": np.array(trips, dtype=np.int64)}, backend="scalar"
    ).env
    assert (env["x"].data == reference(k, trips, a, b, c)).all()


@settings(max_examples=30, deadline=None)
@given(
    trips=positive_trips,
    abc=coeffs,
    nproc=st.integers(1, 7),
    layout=st.sampled_from(["block", "cyclic"]),
    variant=st.sampled_from(["general", "optimized", "done"]),
)
def test_spmd_flattening_matches_sequential(trips, abc, nproc, layout, variant):
    a, b, c = abc
    k = len(trips)
    tree = make_source(k, a, b, c)
    loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
    flat = flatten_spmd(
        loop, nproc=nproc, layout=layout, variant=variant, assume_min_trips=True
    )
    index = tree.main.body.index(loop)
    body = tree.main.body[:index] + flat + tree.main.body[index + 1:]
    prog = ast.SourceFile([ast.Routine("program", "p", [], body)])
    env = repro.run(
        prog, nproc=nproc, bindings={"l": np.array(trips)}, backend="interpreter"
    ).env
    assert (env["x"].data == reference(k, trips, a, b, c)).all()


@settings(max_examples=30, deadline=None)
@given(
    trips=positive_trips,
    nproc=st.integers(1, 7),
)
def test_step_count_laws(trips, nproc):
    """Eq. 2 for the naive program, Eq. 1 for the flattened one."""
    k = len(trips)
    tree = make_source(k, 1, 1, 0)
    bindings = {"l": np.array(trips, dtype=np.int64)}

    # cyclic partition of outer iterations across lanes
    per_lane = [np.array(trips[lane::nproc], dtype=np.int64) for lane in range(nproc)]

    naive = naive_simd_program(tree, nproc=nproc, layout="cyclic")
    naive_counters = repro.run(
        naive, nproc=nproc, bindings=dict(bindings), backend="interpreter"
    ).counters
    assert naive_counters.events["scatter"] == time_simd_naive(per_lane)

    loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
    flat = flatten_spmd(
        loop, nproc=nproc, layout="cyclic", variant="done", assume_min_trips=True
    )
    index = tree.main.body.index(loop)
    body = tree.main.body[:index] + flat + tree.main.body[index + 1:]
    prog = ast.SourceFile([ast.Routine("program", "p", [], body)])
    flat_counters = repro.run(
        prog, nproc=nproc, bindings=dict(bindings), backend="interpreter"
    ).counters
    assert flat_counters.events["scatter"] == time_mimd(per_lane)


@settings(max_examples=25, deadline=None)
@given(trips=positive_trips, nproc=st.integers(1, 6))
def test_flattening_never_worse_than_naive(trips, nproc):
    per_lane = [np.array(trips[lane::nproc], dtype=np.int64) for lane in range(nproc)]
    assert time_mimd(per_lane) <= time_simd_naive(per_lane)
