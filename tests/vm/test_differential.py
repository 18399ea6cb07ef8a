"""Differential testing: bytecode VM vs tree-walking SIMD interpreter.

Two independent implementations of the lockstep semantics must agree
on results *and* on useful-work step counts for the paper's kernels
and for randomized flattened programs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.kernels import example as ex
from repro.kernels.nbforce import NBFORCE_FLAT
from repro.lang import ast, parse_source
from repro.md.distribution import flat_kernel_bindings
from repro.md.forces import make_simd_force_external, reference_nbforce
from repro.md.molecule import uniform_box
from repro.md.pairlist import build_pairlist
from repro.simd.layout import DataDistribution
from repro.transform.parallel import flatten_spmd
from repro.vm import run_bytecode


def both(tree, nproc, bindings, externals=None):
    result = repro.run(
        tree,
        nproc=nproc,
        bindings=dict(bindings),
        externals=externals,
        backend="interpreter",
    )
    env_i, c_i = result.env, result.counters
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
