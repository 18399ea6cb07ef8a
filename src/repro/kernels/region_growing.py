"""Image region growing — the Willebeek-LeMair & Reeves workload.

The paper's introduction quotes their MPP case study: "the complexity
of each iteration in the SIMD environment is dominated by the largest
region in the image ... the synchronous execution of instructions
forces each processor to either perform the operation or wait in an
idle state."

This kernel models the per-region growth phase: every region grows by
one ring of pixels per step until it reaches its final extent, so the
inner trip count is the region's ring count — highly skewed for real
images.  The substrate synthesizes an image by seeded flood growth,
derives each region's ring sizes, and the MiniF nest accumulates ring
areas (a stand-in for per-ring feature updates).
"""

from __future__ import annotations

import numpy as np

from ..runtime.engine import default_engine
from ..lang import parse_source

#: Sequential region-growing statistics kernel: region r accretes
#: ring areas ring(r, s) over its rings(r) growth steps.
REGION_GROWING_SEQUENTIAL = """
C Region growing, sequential accumulation over growth rings
PROGRAM regiongrow
  INTEGER nregions, maxrings, r, s
  INTEGER rings(nregions), ring(nregions, maxrings)
  INTEGER area(nregions), grown(nregions)
  DO r = 1, nregions
    area(r) = 0
    grown(r) = 0
    DO s = 1, rings(r)
      area(r) = area(r) + ring(r, s)
      grown(r) = grown(r) + 1
    ENDDO
  ENDDO
END
"""


def synthesize_regions(
    width: int = 64,
    height: int = 64,
    n_regions: int = 12,
    seed: int = 11,
) -> tuple[np.ndarray, np.ndarray]:
    """Grow labeled regions from random seeds on a grid.

    Implements simultaneous breadth-first flood growth: each step,
    every region claims the unclaimed 4-neighbors of its frontier.
    Region sizes are highly unequal (Voronoi-like cells of random
    seeds), giving skewed ring counts.

    Returns:
        ``(rings, ring_sizes)`` where ``rings[r]`` is region ``r``'s
        growth-step count and ``ring_sizes[r, s]`` is the pixel count
        claimed at step ``s`` (zero-padded).
    """
    rng = np.random.default_rng(seed)
    labels = np.zeros((height, width), dtype=np.int64)
    seeds = set()
    while len(seeds) < n_regions:
        seeds.add((int(rng.integers(height)), int(rng.integers(width))))
    frontiers: list[list[tuple[int, int]]] = []
    for index, (y, x) in enumerate(sorted(seeds), start=1):
        labels[y, x] = index
        frontiers.append([(y, x)])
    ring_lists: list[list[int]] = [[1] for _ in range(n_regions)]

    claimed = int(n_regions)
    total = width * height
    while claimed < total:
        progressed = False
        for region in range(n_regions):
            frontier = frontiers[region]
            if not frontier:
                continue
            next_frontier: list[tuple[int, int]] = []
            for y, x in frontier:
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < height and 0 <= nx < width and labels[ny, nx] == 0:
                        labels[ny, nx] = region + 1
                        next_frontier.append((ny, nx))
            frontiers[region] = next_frontier
            if next_frontier:
                ring_lists[region].append(len(next_frontier))
                claimed += len(next_frontier)
                progressed = True
        if not progressed:
            break

    rings = np.array([len(rl) for rl in ring_lists], dtype=np.int64)
    width_max = int(rings.max())
    ring_sizes = np.zeros((n_regions, width_max), dtype=np.int64)
    for region, rl in enumerate(ring_lists):
        ring_sizes[region, : len(rl)] = rl
    return rings, ring_sizes


def run_sequential(rings: np.ndarray, ring_sizes: np.ndarray):
    """Run the sequential kernel; returns (areas, counters)."""
    source = parse_source(REGION_GROWING_SEQUENTIAL)
    result = default_engine().compile(source).run(
        backend="scalar",
        bindings={
            "nregions": int(rings.size),
            "maxrings": int(ring_sizes.shape[1]),
            "rings": rings.astype(np.int64),
            "ring": ring_sizes.astype(np.int64),
        },
    )
    return np.asarray(result.env["area"].data), result.counters


def parse_kernel():
    """The sequential kernel AST (input to the transformation pipeline)."""
    return parse_source(REGION_GROWING_SEQUENTIAL)
