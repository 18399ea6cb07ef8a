"""Tier-1 fuzz smoke: a ~200-program differential campaign.

This is the fast always-on tier; the nightly CI job runs the same
campaign at 10k programs.  Seeding is positional — `pytest-randomly`
or test reordering cannot change which programs are generated.
"""

import pytest

from repro.fuzz import run_fuzz


@pytest.mark.fuzz_smoke
def test_fuzz_smoke_campaign():
    report = run_fuzz(seed=20260805, iterations=200, nproc=4, max_failures=5)
    assert report.checked == 200
    assert report.ok, report.summary()
    # the campaign must actually exercise the matrix, not skip it
    assert report.leg_stats.get("flatten/general/simd") == 200
    assert report.leg_stats.get("none/mimd") == 200
    assert report.leg_stats.get("spmd/general/block", 0) > 20
    assert report.leg_stats.get("flatten/optimized/simd", 0) > 50
    # block-closure legs: block-compiled vs per-instruction VM dispatch
    # must agree (and the verifier must accept every block-compiled
    # CodeObject) on every program of the campaign
    assert report.leg_stats.get("none/vm-fuse") == 200
    assert report.leg_stats.get("flatten/auto/vm-fuse") == 200
    # durable-execution legs: interrupt at a seeded random step +
    # resume from the last checkpoint must be bit-identical to the
    # uninterrupted run (env and exact counters) on every program
    assert report.leg_stats.get("none/vm-ckpt") == 200
    assert report.leg_stats.get("none/interp-ckpt") == 200
    # dependence-framework legs: the graph's legality verdicts must
    # accept a healthy share of the corpus (fission distributes about
    # half the generated loops, interchange the perfect rectangular
    # 2-nests) and every accepted program must match the reference
    assert report.leg_stats.get("none/fission", 0) > 60
    assert report.leg_stats.get("none/fission/f77", 0) > 60
    assert report.leg_stats.get("none/interchange", 0) > 5
    assert report.leg_stats.get("none/interchange/f77", 0) > 5
