#!/usr/bin/env python
"""The compiler's perspective (Section 6): flattening as an optimizer pass.

Feeds three irregular workloads — a dusty-deck GOTO nest, a CSR sparse
matrix-vector product, and an image region-growing kernel — through
the full pipeline:

  structurize (GOTO loops -> structured; counted WHILEs -> DO)
  -> applicability / profitability / safety report
  -> flatten at the strongest applicable variant
  -> derive the F90simd form
  -> run sequential vs flattened and compare results

Also shows the loop-coalescing baseline rejecting an irregular nest —
the related-work contrast of Section 7.

Run:  python examples/compiler_pipeline.py
"""

import numpy as np

from repro import Engine, evaluate_flattening, format_source, parse_source
from repro.kernels import region_growing, spmv
from repro.kernels.example import P1_GOTO, example_bindings, expected_x
from repro.lang import ast
from repro.lang.errors import TransformError
from repro.transform import coalesce_nest, structurize_program

#: The compile-and-run pipeline; each kernel compiles exactly once.
ENGINE = Engine()


def report_for(tree, **assumptions):
    loop = next(
        s
        for s in structurize_program(tree).main.body
        if isinstance(s, (ast.Do, ast.DoWhile, ast.While))
    )
    return evaluate_flattening(loop, **assumptions)


def show(title, report):
    print(f"--- {title} ---")
    for reason in report.reasons:
        print("  *", reason)
    print(f"  => flatten? {report.recommended} (variant: {report.variant})\n")


def main():
    # 1. dusty deck -----------------------------------------------------------
    tree = parse_source(P1_GOTO)
    print("=== dusty-deck GOTO nest, structurized ===")
    print(format_source(structurize_program(tree)))
    report = report_for(tree, assume_min_trips=True)
    show("dusty deck", report)

    program = ENGINE.compile(
        tree, transform="flatten", variant=report.variant, assume_min_trips=True
    )
    env = program.run(example_bindings()).env
    assert (env["x"].data == expected_x()).all()
    print("flattened dusty deck verified against the original.\n")

    # 2. sparse matrix-vector product ----------------------------------------
    matrix = spmv.random_csr(nrows=48, seed=13)
    rowptr, rowlen, col, a, x = matrix
    report = report_for(spmv.parse_kernel(), assume_min_trips=True)
    show("CSR SpMV (indirect reads)", report)
    env = ENGINE.compile(
        spmv.parse_kernel(), transform="flatten", variant="done",
        assume_min_trips=True,
    ).run({
        "nrows": len(rowlen), "nnz": len(a), "rowptr": rowptr,
        "rowlen": rowlen, "col": col, "a": a, "x": x,
    }).env
    assert np.allclose(env["y"].data, spmv.reference_spmv(*matrix))
    print(
        f"flattened SpMV verified; row lengths {rowlen.min()}..{rowlen.max()} "
        f"(skew {rowlen.max() / rowlen.mean():.1f}x is what flattening absorbs)\n"
    )

    # 3. region growing -------------------------------------------------------
    rings, ring_sizes = region_growing.synthesize_regions(
        width=48, height=48, n_regions=10, seed=3
    )
    report = report_for(region_growing.parse_kernel(), assume_min_trips=True)
    show("image region growing", report)
    env = ENGINE.compile(
        region_growing.parse_kernel(), transform="flatten", variant="done",
        assume_min_trips=True,
    ).run({
        "nregions": rings.size, "maxrings": ring_sizes.shape[1],
        "rings": rings, "ring": ring_sizes,
    }).env
    assert np.array_equal(env["area"].data, ring_sizes.sum(axis=1))
    print(
        f"flattened region growing verified; ring counts "
        f"{rings.min()}..{rings.max()} per region\n"
    )

    # 4. the coalescing contrast ---------------------------------------------
    print("=== loop coalescing on the irregular nest (Section 7) ===")
    [loop] = [
        s
        for s in parse_source(
            "PROGRAM p\n  INTEGER l(8), x(8, 4)\n"
            "  DO i = 1, 8\n    DO j = 1, l(i)\n      x(i, j) = 1\n"
            "    ENDDO\n  ENDDO\nEND"
        ).main.body
        if isinstance(s, ast.Do)
    ]
    try:
        coalesce_nest(loop)
    except TransformError as exc:
        print(f"coalescing rejected, as the paper predicts:\n  {exc.message}")


if __name__ == "__main__":
    main()
