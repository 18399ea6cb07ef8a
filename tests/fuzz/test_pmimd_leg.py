"""Fuzz legs for the process-parallel backend.

Tier-1 keeps a reduced campaign (forking workers per program is not
free); the ``chaos``-marked campaign runs the acceptance-scale 200
programs with worker kill/hang/slow injection at a 10% shard rate in
the CI chaos-smoke job.
"""

import pytest

from repro.fuzz import run_fuzz
from repro.fuzz.oracle import DifferentialOracle


@pytest.mark.fuzz_smoke
def test_pmimd_leg_reduced_campaign():
    report = run_fuzz(seed=20260808, iterations=40, nproc=4, pmimd=True,
                      max_failures=5)
    assert report.checked == 40
    assert report.ok, report.summary()
    assert report.leg_stats.get("none/pmimd", 0) >= 38


@pytest.mark.chaos
def test_pmimd_campaign_200():
    """Acceptance-scale: 200 programs, pmimd vs mimd vs reference."""
    report = run_fuzz(seed=20260808, iterations=200, nproc=4, pmimd=True,
                      max_failures=5)
    assert report.checked == 200
    assert report.ok, report.summary()
    assert report.leg_stats.get("none/pmimd", 0) >= 195


@pytest.mark.chaos
def test_pmimd_chaos_campaign():
    """200 programs under seeded worker-fault injection (10% shards),
    with a pmimd->mimd fallback chain behind every run."""
    report = run_fuzz(seed=20260807, iterations=200, nproc=4,
                      pmimd_chaos=True, max_failures=5)
    assert report.checked == 200
    assert report.ok, report.summary()
    assert report.leg_stats.get("none/pmimd-chaos", 0) >= 195
    # durable-execution chaos: shard 0 killed mid-attempt between
    # checkpoint boundaries; the replay resumes from the per-processor
    # store and must stay observationally invisible
    assert report.leg_stats.get("none/pmimd-ckpt", 0) >= 195


def test_oracle_rejects_tiny_pools():
    with pytest.raises(ValueError, match="nproc"):
        DifferentialOracle(nproc=1)


@pytest.mark.parametrize(
    "switch, config",
    [("pmimd", "none/pmimd"), ("pmimd_chaos", "none/pmimd-chaos")],
)
def test_pmimd_finding_replays_from_corpus(
    switch, config, tmp_path, monkeypatch, capsys
):
    """A fault only the pmimd backend shows is saved by the campaign and
    still fails on replay: replay switches on the opt-in leg the saved
    entry names."""
    from repro.cli import main
    from repro.runtime.engine import CompiledProgram

    real = CompiledProgram._execute

    def mutant(self, chosen, spec):
        env, counters, statements, events = real(self, chosen, spec)
        if chosen == "pmimd":
            env[0]["w"].data.flat[0] += 1  # planted: corrupt processor 1
        return env, counters, statements, events

    monkeypatch.setattr(CompiledProgram, "_execute", mutant)
    report = run_fuzz(seed=0, iterations=1, nproc=4, corpus_dir=str(tmp_path),
                      max_failures=1, **{switch: True})
    [entry] = report.failures
    assert entry.divergence.config == config
    assert main(["fuzz", "--replay", "--corpus", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"still fails [env-divergence] on {config}" in out
