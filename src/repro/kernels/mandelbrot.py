"""Mandelbrot escape iteration — the Tomboulian & Pappas workload.

The paper's Section 7 cites indirect addressing for the Mandelbrot set
as a special case of loop flattening: each pixel's escape iteration
count varies wildly, so a naive SIMD sweep runs every pixel to the
*maximum* iteration count of its batch.  Flattening the (pixel,
iteration) nest lets each PE move on to its next pixel as soon as the
current one escapes.

The kernel is a two-level nest with a WHILE inner loop (variable trip
count) — a different loop species from NBFORCE's counted inner DO,
which is exactly why it earns a place in the test matrix.
"""

from __future__ import annotations

import numpy as np

from ..runtime.engine import default_engine
from ..lang import parse_source

#: Sequential Mandelbrot kernel: for each point, iterate z = z² + c
#: until |z|² > 4 or the iteration budget is spent; record the count.
MANDELBROT_SEQUENTIAL = """
C Mandelbrot escape iterations, sequential
PROGRAM mandel
  INTEGER npix, maxiter, i, it
  REAL cr(npix), ci(npix), zr, zi, tr
  INTEGER counts(npix)
  DO i = 1, npix
    zr = 0.0
    zi = 0.0
    it = 0
    DO WHILE ((zr * zr + zi * zi <= 4.0) .AND. (it < maxiter))
      tr = zr * zr - zi * zi + cr(i)
      zi = 2.0 * zr * zi + ci(i)
      zr = tr
      it = it + 1
    ENDDO
    counts(i) = it
  ENDDO
END
"""

#: Hand-flattened SIMD version (the shape flatten_spmd derives).
MANDELBROT_FLAT_SIMD = """
C Mandelbrot escape iterations, flattened SIMD (cyclic over pixels)
PROGRAM mandel
  INTEGER npix, maxiter, p
  INTEGER i(p), it(p), counts(npix)
  REAL cr(npix), ci(npix), zr(p), zi(p), tr(p)
  i = [1 : p]
  zr = 0.0
  zi = 0.0
  it = 0
  WHILE (ANY(i <= npix))
    WHERE (i <= npix)
      WHERE ((zr * zr + zi * zi <= 4.0) .AND. (it < maxiter))
        tr = zr * zr - zi * zi + cr(i)
        zi = 2.0 * zr * zi + ci(i)
        zr = tr
        it = it + 1
      ELSEWHERE
        counts(i) = it
        i = i + p
        zr = 0.0
        zi = 0.0
        it = 0
      ENDWHERE
    ENDWHERE
  ENDWHILE
END
"""


def mandelbrot_grid(
    width: int = 32,
    height: int = 32,
    re_range: tuple[float, float] = (-2.0, 0.6),
    im_range: tuple[float, float] = (-1.2, 1.2),
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened (cr, ci) coordinate arrays of a view rectangle."""
    re = np.linspace(re_range[0], re_range[1], width)
    im = np.linspace(im_range[0], im_range[1], height)
    grid_re, grid_im = np.meshgrid(re, im)
    return grid_re.ravel(), grid_im.ravel()


def escape_counts_reference(
    cr: np.ndarray, ci: np.ndarray, maxiter: int
) -> np.ndarray:
    """Pure-numpy reference escape counts."""
    zr = np.zeros_like(cr)
    zi = np.zeros_like(ci)
    counts = np.zeros(cr.shape, dtype=np.int64)
    alive = np.ones(cr.shape, dtype=bool)
    for _ in range(maxiter):
        tr = zr * zr - zi * zi + cr
        zi = np.where(alive, 2.0 * zr * zi + ci, zi)
        zr = np.where(alive, tr, zr)
        counts = counts + alive
        alive = alive & (zr * zr + zi * zi <= 4.0)
        if not alive.any():
            break
    return counts


def run_sequential(cr: np.ndarray, ci: np.ndarray, maxiter: int):
    """Run the sequential kernel; returns (counts, counters)."""
    source = parse_source(MANDELBROT_SEQUENTIAL)
    result = default_engine().compile(source).run(
        backend="scalar",
        bindings={
            "npix": int(cr.size),
            "maxiter": int(maxiter),
            "cr": np.asarray(cr, dtype=float),
            "ci": np.asarray(ci, dtype=float),
        },
    )
    return np.asarray(result.env["counts"].data), result.counters


def run_flat_simd(cr: np.ndarray, ci: np.ndarray, maxiter: int, nproc: int):
    """Run the flattened SIMD kernel; returns (counts, counters)."""
    source = parse_source(MANDELBROT_FLAT_SIMD)
    result = default_engine().compile(source).run(
        bindings={
            "npix": int(cr.size),
            "maxiter": int(maxiter),
            "p": nproc,
            "cr": np.asarray(cr, dtype=float),
            "ci": np.asarray(ci, dtype=float),
        },
        nproc=nproc,
    )
    return np.asarray(result.env["counts"].data), result.counters
