"""Differential-oracle behaviour on a clean tree.

The mutation tests (planted transform/checker bugs) live in
``test_mutation.py``; here we pin down that the oracle (a) passes a
clean pipeline, (b) runs the legs it promises, and (c) skips
variants whose preconditions the data genuinely violates instead of
asserting ``assume_min_trips`` falsely.
"""

from pathlib import Path

import pytest

from repro.fuzz import run_fuzz
from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.oracle import LEGS, DifferentialOracle
from repro.transform.pipeline import PASSES

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def oracle():
    return DifferentialOracle(nproc=4)


@pytest.fixture(scope="module")
def verdicts(oracle):
    gen = ProgramGenerator(seed=99)
    return [oracle.check(p) for p in gen.programs(40)]


class TestCleanTree:
    def test_no_divergences(self, verdicts):
        bad = [d for v in verdicts for d in v.divergences]
        assert not bad, [(d.kind, d.config, d.detail) for d in bad]

    def test_always_legal_legs_always_run(self, verdicts):
        for verdict in verdicts:
            ran = {leg.label for leg in verdict.legs if leg.status == "ok"}
            assert {
                "none/simd",
                "none/mimd",
                "flatten/general/f77",
                "flatten/general/simd",
                "flatten/auto/simd",
            } <= ran

    def test_partitioned_legs_gated_on_legality(self, verdicts):
        for verdict in verdicts:
            ran = {leg.label for leg in verdict.legs if leg.status == "ok"}
            if "spmd/general/block" in ran:
                assert verdict.program.partitionable

    def test_zero_trip_data_skips_false_assertions(self, verdicts):
        skipped_somewhere = False
        for verdict in verdicts:
            for leg in verdict.legs:
                if (
                    leg.label.startswith("flatten/optimized")
                    and leg.status == "skipped"
                ):
                    skipped_somewhere = True
                    assert not verdict.program.min_trips_ok
        assert skipped_somewhere

    def test_every_pass_has_a_leg(self, verdicts):
        """A new pass-table entry cannot land without differential
        coverage: its name is a component of some leg label."""
        labels = {leg.label for verdict in verdicts for leg in verdict.legs}
        parts = {part for label in labels for part in label.split("/")}
        assert set(PASSES) - {"none"} <= parts

    def test_check_leg_returns_none_on_clean_program(self, oracle):
        prog = ProgramGenerator(seed=99).generate(0)
        assert oracle.check_leg(prog, "flatten/general/simd") is None


class TestOracleGuards:
    def test_rejects_single_lane(self):
        with pytest.raises(ValueError):
            DifferentialOracle(nproc=1)


class TestLegTable:
    def test_seed0_leg_counts(self):
        """How often each leg runs on a fixed campaign — a row that
        stops running (or starts running elsewhere) shows up here."""
        report = run_fuzz(seed=0, iterations=30, nproc=4)
        assert report.ok, report.summary()
        assert report.leg_stats == {
            "coalesce/f77": 3,
            "flatten/auto/simd": 30,
            "flatten/auto/vm-fuse": 30,
            "flatten/done/simd": 26,
            "flatten/general/f77": 30,
            "flatten/general/hooked": 30,
            "flatten/general/simd": 30,
            "flatten/optimized/simd": 26,
            "none/fission": 16,
            "none/fission/f77": 16,
            "none/interchange": 1,
            "none/interchange/f77": 1,
            "none/interp-ckpt": 30,
            "none/mimd": 30,
            "none/simd": 30,
            "none/vm-ckpt": 30,
            "none/vm-fuse": 30,
            "simdize/block": 15,
            "spmd/auto/cyclic": 15,
            "spmd/general/block": 15,
            "spmd/general/block/hooked": 15,
        }

    def test_each_label_is_spelled_once_in_src(self):
        """The table row is the only place a leg is named in the code."""
        text = "\n".join(
            path.read_text() for path in (ROOT / "src").rglob("*.py")
        )
        for leg in LEGS:
            assert text.count(f'"{leg.label}"') == 1, leg.label

    def test_design_doc_lists_every_leg(self):
        design = (ROOT / "DESIGN.md").read_text()
        start = design.index("## 8. ")
        section = design[start:design.index("\n## ", start + 1)]
        missing = [leg.label for leg in LEGS if f"`{leg.label}`" not in section]
        assert not missing

    @pytest.mark.parametrize(
        "config, switches",
        [
            ("none/pmimd", (True, False)),
            ("none/pmimd-chaos", (False, True)),
            ("none/pmimd-ckpt", (False, True)),
            ("flatten/general/simd", (False, False)),
            ("lint/runtime", (False, False)),
        ],
    )
    def test_for_leg_switches_on_what_the_leg_needs(self, config, switches):
        oracle = DifferentialOracle.for_leg(config, nproc=3)
        assert oracle.nproc == 3
        assert (oracle.pmimd, oracle.pmimd_chaos) == switches
