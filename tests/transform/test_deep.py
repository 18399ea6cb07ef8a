"""Deep (3+-level) nest flattening tests — the paper's Section 4
remark that "an extension of the following to deeper loop nests is
straightforward"."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.lang import ast, parse_source
from repro.lang.errors import TransformError
from repro.transform import flatten_deep, simdize_structured
from repro.transform.parallel import flatten_spmd

THREE_LEVEL = """
PROGRAM deep
  INTEGER i, j, k, l(4), m(4, 3), x(4, 3, 5)
  DO i = 1, 4
    DO j = 1, l(i)
      DO k = 1, m(i, j)
        x(i, j, k) = i * 100 + j * 10 + k
      ENDDO
    ENDDO
  ENDDO
END
"""


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    l = rng.integers(1, 4, 4)
    m = rng.integers(1, 6, (4, 3))
    src = parse_source(THREE_LEVEL)
    env = repro.run(src, bindings={"l": l, "m": m}, backend="scalar").env
    return l, m, env["x"].data.copy()


def splice(src, flat):
    return ast.SourceFile(
        [ast.Routine("program", "p", [], src.main.body[:1] + flat)]
    )


class TestFlattenDeep:
    @pytest.mark.parametrize("variant", ["general", "optimized", "done"])
    def test_semantics_preserved(self, workload, variant):
        l, m, ref = workload
        src = parse_source(THREE_LEVEL)
        loop = next(s for s in src.main.body if isinstance(s, ast.Do))
        flat = flatten_deep(loop, variant=variant, assume_min_trips=True)
        env = repro.run(
            splice(src, flat), bindings={"l": l, "m": m}, backend="scalar"
        ).env
        assert (env["x"].data == ref).all()

    def test_optimized_output_is_a_single_loop(self, workload):
        src = parse_source(THREE_LEVEL)
        loop = next(s for s in src.main.body if isinstance(s, ast.Do))
        flat = flatten_deep(loop, variant="done", assume_min_trips=True)
        loops = [
            s
            for s in ast.walk_body(flat)
            if isinstance(s, (ast.Do, ast.While, ast.DoWhile))
        ]
        assert len(loops) == 1

    def test_simdized_deep_flatten(self, workload):
        l, m, ref = workload
        src = parse_source(THREE_LEVEL)
        loop = next(s for s in src.main.body if isinstance(s, ast.Do))
        flat = simdize_structured(
            flatten_deep(loop, variant="done", assume_min_trips=True)
        )
        env = repro.run(
            splice(src, flat), nproc=1, bindings={"l": l, "m": m}, backend="interpreter"
        ).env
        assert (env["x"].data == ref).all()

    def test_two_level_nest_delegates(self, workload):
        """flatten_deep on a 2-level nest equals flatten_loop_nest."""
        from repro.transform import flatten_loop_nest

        src = parse_source(
            "PROGRAM p\n  INTEGER l(4), x(4, 3)\n"
            "  DO i = 1, 4\n    DO j = 1, l(i)\n      x(i, j) = i\n"
            "    ENDDO\n  ENDDO\nEND"
        )
        loop = next(s for s in src.main.body if isinstance(s, ast.Do))
        assert flatten_deep(loop, "done", True) == flatten_loop_nest(
            loop, "done", True
        )

    def test_loop_free_rejected(self):
        src = parse_source("PROGRAM p\n  DO i = 1, 3\n    x = i\n  ENDDO\nEND")
        loop = next(s for s in src.main.body if isinstance(s, ast.Do))
        with pytest.raises(TransformError):
            flatten_deep(loop)


class TestDeepSPMD:
    @pytest.mark.parametrize("nproc", [1, 2, 4])
    @pytest.mark.parametrize("layout", ["block", "cyclic"])
    def test_partitioned_deep_nest(self, workload, nproc, layout):
        l, m, ref = workload
        src = parse_source(THREE_LEVEL)
        loop = next(s for s in src.main.body if isinstance(s, ast.Do))
        flat = flatten_spmd(
            loop, nproc=nproc, layout=layout, variant="done", assume_min_trips=True
        )
        env = repro.run(
            splice(src, flat),
            nproc=nproc,
            bindings={"l": l, "m": m},
            backend="interpreter",
        ).env
        assert (env["x"].data == ref).all()

    def test_deep_flattened_reaches_work_bound(self, workload):
        """Lockstep body steps = the busiest lane's total element count."""
        l, m, _ = workload
        src = parse_source(THREE_LEVEL)
        loop = next(s for s in src.main.body if isinstance(s, ast.Do))
        nproc = 2
        flat = flatten_spmd(
            loop, nproc=nproc, layout="cyclic", variant="done",
            assume_min_trips=True,
        )
        counters = repro.run(
            splice(src, flat),
            nproc=nproc,
            bindings={"l": l, "m": m},
            backend="interpreter",
        ).counters
        per_lane = []
        for lane in range(nproc):
            total = 0
            for i in range(lane, 4, nproc):
                for j in range(l[i]):
                    total += m[i, j]
            per_lane.append(total)
        assert counters.events["scatter"] == max(per_lane)


@settings(max_examples=20, deadline=None)
@given(
    l=st.lists(st.integers(1, 3), min_size=2, max_size=5),
    seed=st.integers(0, 1000),
    nproc=st.integers(1, 4),
)
def test_deep_flatten_random_workloads(l, seed, nproc):
    k_outer = len(l)
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 5, (k_outer, 3))
    text = f"""
PROGRAM deep
  INTEGER i, j, k, l({k_outer}), m({k_outer}, 3), x({k_outer}, 3, 4)
  DO i = 1, {k_outer}
    DO j = 1, l(i)
      DO k = 1, m(i, j)
        x(i, j, k) = i + j + k
      ENDDO
    ENDDO
  ENDDO
END
"""
    src = parse_source(text)
    bindings = {"l": np.array(l), "m": m}
    env0 = repro.run(src, bindings=dict(bindings), backend="scalar").env
    ref = env0["x"].data.copy()
    loop = next(s for s in src.main.body if isinstance(s, ast.Do))
    flat = flatten_spmd(
        loop, nproc=nproc, layout="cyclic", variant="done", assume_min_trips=True
    )
    prog = ast.SourceFile(
        [ast.Routine("program", "p", [], src.main.body[:1] + flat)]
    )
    env = repro.run(
        prog, nproc=nproc, bindings=dict(bindings), backend="interpreter"
    ).env
    assert (env["x"].data == ref).all()
