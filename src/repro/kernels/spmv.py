"""CSR sparse matrix–vector product — an irregular loop-nest workload.

The row loop is parallel, the inner loop runs over each row's
nonzeros — trip counts follow the row-length distribution, so a naive
SIMD sweep pays for the densest row on every row batch.  SpMV also
brings *indirect addressing on the read side* (``x(col(k))``), which
the dependence test must classify as harmless (reads never block
parallelization of the row loop).
"""

from __future__ import annotations

import numpy as np

from ..runtime.engine import default_engine
from ..lang import parse_source

#: Sequential CSR SpMV: y(i) = Σ_k a(k) * x(col(k)) over row i's range.
SPMV_SEQUENTIAL = """
C CSR sparse matrix-vector product, sequential
PROGRAM spmv
  INTEGER nrows, nnz, i, k
  INTEGER rowptr(nrows), rowlen(nrows), col(nnz)
  REAL a(nnz), x(nrows), y(nrows)
  DO i = 1, nrows
    y(i) = 0.0
    DO k = 1, rowlen(i)
      y(i) = y(i) + a(rowptr(i) + k - 1) * x(col(rowptr(i) + k - 1))
    ENDDO
  ENDDO
END
"""


def random_csr(
    nrows: int = 64,
    skew: float = 2.0,
    density: float = 0.1,
    seed: int = 5,
):
    """A random CSR matrix with a power-law-ish row-length skew.

    Returns:
        ``(rowptr, rowlen, col, a, x)`` with 1-based rowptr/col,
        mirroring the kernel's expectations.
    """
    rng = np.random.default_rng(seed)
    base = max(1, int(density * nrows))
    lengths = np.minimum(
        nrows, np.maximum(1, (base * rng.pareto(skew, nrows) + 1).astype(np.int64))
    )
    rowptr = np.ones(nrows, dtype=np.int64)
    rowptr[1:] = 1 + np.cumsum(lengths[:-1])
    nnz = int(lengths.sum())
    col = np.empty(nnz, dtype=np.int64)
    cursor = 0
    for length in lengths:
        col[cursor : cursor + length] = (
            rng.choice(nrows, size=length, replace=False) + 1
        )
        cursor += length
    a = rng.normal(size=nnz)
    x = rng.normal(size=nrows)
    return rowptr, lengths, col, a, x


def reference_spmv(rowptr, rowlen, col, a, x) -> np.ndarray:
    """Pure-numpy reference y = A x."""
    y = np.zeros(len(rowlen))
    for i in range(len(rowlen)):
        start = rowptr[i] - 1
        stop = start + rowlen[i]
        y[i] = np.dot(a[start:stop], x[col[start:stop] - 1])
    return y


def run_sequential(rowptr, rowlen, col, a, x):
    """Run the sequential kernel; returns (y, counters)."""
    source = parse_source(SPMV_SEQUENTIAL)
    result = default_engine().compile(source).run(
        backend="scalar",
        bindings={
            "nrows": int(len(rowlen)),
            "nnz": int(len(a)),
            "rowptr": np.asarray(rowptr, dtype=np.int64),
            "rowlen": np.asarray(rowlen, dtype=np.int64),
            "col": np.asarray(col, dtype=np.int64),
            "a": np.asarray(a, dtype=float),
            "x": np.asarray(x, dtype=float),
        },
    )
    return np.asarray(result.env["y"].data, dtype=float), result.counters


def parse_kernel():
    """The sequential kernel AST (input to the transformation pipeline)."""
    return parse_source(SPMV_SEQUENTIAL)
