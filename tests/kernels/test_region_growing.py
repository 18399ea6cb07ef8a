"""Region-growing kernel tests."""

import numpy as np
import pytest

import repro
from repro.analysis import evaluate_flattening
from repro.kernels.region_growing import (
    parse_kernel,
    run_sequential,
    synthesize_regions,
)
from repro.lang import ast


@pytest.fixture(scope="module")
def regions():
    return synthesize_regions(width=24, height=24, n_regions=6, seed=4)


class TestSynthesis:
    def test_all_pixels_claimed(self, regions):
        rings, ring_sizes = regions
        assert ring_sizes.sum() == 24 * 24

    def test_ring_counts_consistent(self, regions):
        rings, ring_sizes = regions
        for r in range(len(rings)):
            assert (ring_sizes[r, : rings[r]] > 0).all()
            assert (ring_sizes[r, rings[r]:] == 0).all()

    def test_first_ring_is_the_seed(self, regions):
        rings, ring_sizes = regions
        assert (ring_sizes[:, 0] == 1).all()

    def test_skewed_workload(self, regions):
        """Region sizes are unequal — the SIMD problem exists."""
        rings, _ = regions
        assert rings.max() > rings.min()

    def test_deterministic(self):
        a = synthesize_regions(width=16, height=16, n_regions=4, seed=1)
        b = synthesize_regions(width=16, height=16, n_regions=4, seed=1)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestKernel:
    def test_areas_match_region_sizes(self, regions):
        rings, ring_sizes = regions
        areas, _ = run_sequential(rings, ring_sizes)
        assert np.array_equal(areas, ring_sizes.sum(axis=1))

    def test_kernel_is_flattenable_and_profitable(self):
        tree = parse_kernel()
        loop = next(s for s in tree.main.body if isinstance(s, ast.Do))
        report = evaluate_flattening(loop, assume_min_trips=True)
        assert report.applicable and report.profitable
        assert report.safe is True
        assert report.variant == "done"

    def test_flattened_kernel_matches(self, regions):
        rings, ring_sizes = regions
        tree = parse_kernel()
        flat = repro.compile(
            tree, transform="flatten", variant="done", assume_min_trips=True, simd=False
        ).tree
        env = repro.run(
            flat,
            bindings={
                "nregions": int(rings.size),
                "maxrings": int(ring_sizes.shape[1]),
                "rings": rings,
                "ring": ring_sizes,
            },
            backend="scalar",
        ).env
        assert np.array_equal(env["area"].data, ring_sizes.sum(axis=1))
