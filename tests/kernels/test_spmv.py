"""Sparse matrix-vector kernel tests."""

import numpy as np
import pytest

import repro
from repro.analysis import evaluate_flattening
from repro.kernels.spmv import (
    parse_kernel,
    random_csr,
    reference_spmv,
    run_sequential,
)
from repro.lang import ast


@pytest.fixture(scope="module")
def matrix():
    return random_csr(nrows=32, seed=8)


class TestGenerator:
    def test_csr_invariants(self, matrix):
        rowptr, rowlen, col, a, x = matrix
        assert rowptr[0] == 1
        assert np.all(np.diff(rowptr) == rowlen[:-1])
        assert len(a) == rowlen.sum()
        assert col.min() >= 1 and col.max() <= len(rowlen)

    def test_skewed_row_lengths(self, matrix):
        _, rowlen, _, _, _ = matrix
        assert rowlen.max() > rowlen.min()

    def test_no_duplicate_columns_per_row(self, matrix):
        rowptr, rowlen, col, _, _ = matrix
        for i in range(len(rowlen)):
            start = rowptr[i] - 1
            row_cols = col[start : start + rowlen[i]]
            assert len(set(row_cols.tolist())) == len(row_cols)


class TestKernel:
    def test_sequential_matches_reference(self, matrix):
        y, _ = run_sequential(*matrix)
        assert np.allclose(y, reference_spmv(*matrix))

    def test_row_loop_is_parallel_despite_indirect_reads(self):
        """x(col(k)) reads must not block flattening safety."""
        tree = parse_kernel()
        loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
        report = evaluate_flattening(loop, assume_min_trips=True)
        assert report.safe is True
        assert report.recommended

    def test_flattened_matches(self, matrix):
        rowptr, rowlen, col, a, x = matrix
        tree = parse_kernel()
        flat = repro.compile(
            tree, transform="flatten", variant="done", assume_min_trips=True, simd=False
        ).tree
        env = repro.run(
            flat,
            bindings={
                "nrows": int(len(rowlen)),
                "nnz": int(len(a)),
                "rowptr": rowptr,
                "rowlen": rowlen,
                "col": col,
                "a": a,
                "x": x,
            },
            backend="scalar",
        ).env
        assert np.allclose(env["y"].data, reference_spmv(*matrix))
