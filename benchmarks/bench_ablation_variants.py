"""Ablation: flattening strength (Fig. 10 vs Fig. 11 vs Fig. 12).

The paper presents three forms of the transformation; this ablation
measures what each optimization step buys on the EXAMPLE workload:
the general form's skip-loop costs extra lockstep steps, the done-test
variant saves the final inner increment.
"""

import numpy as np
from conftest import once

from repro.lang import ast, parse_source
from repro.runtime import Engine
from repro.transform.parallel import flatten_spmd

P1 = """
PROGRAM example
  INTEGER i, j, k, l(8), x(8, 4)
  k = 8
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = i * j
    ENDDO
  ENDDO
END
"""

L = np.array([4, 1, 2, 1, 1, 3, 1, 3])


def run_variant(variant):
    tree = parse_source(P1)
    loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
    flat = flatten_spmd(
        loop, nproc=2, layout="block", variant=variant, assume_min_trips=True
    )
    index = tree.main.body.index(loop)
    body = tree.main.body[:index] + flat + tree.main.body[index + 1:]
    prog = ast.SourceFile([ast.Routine("program", "p", [], body)])
    return Engine().compile(prog).run(
        {"l": L.copy()}, nproc=2, backend="vm"
    ).counters


def measure_all():
    return {v: run_variant(v) for v in ("general", "optimized", "done")}


def test_bench_variant_ablation(benchmark, write_result):
    counters = once(benchmark, measure_all)

    steps = {v: c.total_steps for v, c in counters.items()}
    body = {v: c.events["scatter"] for v, c in counters.items()}

    # all variants do the same useful work
    assert body["optimized"] == body["done"] == 8
    # each optimization step removes overhead
    assert steps["general"] > steps["optimized"] >= steps["done"]

    lines = ["flattening-variant ablation (EXAMPLE, P=2, block):"]
    for variant in ("general", "optimized", "done"):
        c = counters[variant]
        lines.append(
            f"  {variant:9s}: {c.total_steps:4d} lockstep steps, "
            f"{c.events['scatter']:2d} body steps, "
            f"{c.events['mask']:3d} mask ops, {c.events['acu']:3d} control ops"
        )
    lines.append(
        "Fig. 10 pays for generality (latched flags + skip loop); "
        "Figs. 11/12 progressively remove it."
    )
    write_result("ablation_flattening_variants", "\n".join(lines))
