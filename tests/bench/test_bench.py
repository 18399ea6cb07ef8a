"""repro.bench: schema validation, sweep runner, regression gate, CLI."""

import copy
import json

import pytest

from repro.bench import (
    BENCHMARK,
    SCHEMA,
    check_trajectory,
    compare_points,
    empty_report,
    point_signature,
    run_table1_sweep,
    validate_report,
)
from repro.cli import main


def tiny_sweep(label="tiny", backend="vm"):
    return run_table1_sweep(
        label,
        backend=backend,
        nproc=64,
        nmax=128,
        n_atoms=100,
        cutoffs=(3.0,),
    )


def _eq1_steps(n_atoms, cutoff, nmax, nproc):
    """Eq. 1 from the pairlist alone: the slowest processor of the
    block partition ``mimd_kernel_setup`` hands out.  The scalar
    interpreter records 4 events per atom (outer trip, ``f`` reset,
    the ``at1g`` add and its store) and 6 per pair (inner trip, ``at2``
    store, CALL, its ``fpair`` store, the accumulating add and its
    store), so a processor's steps are 4·atoms + 6·pairs."""
    from repro.kernels.nbforce import mimd_kernel_setup
    from repro.md.gromos import sod_workload

    workload = sod_workload(cutoff, n_atoms=n_atoms, nmax=nmax)
    _, bindings_for, _ = mimd_kernel_setup(
        workload.molecule, workload.pairlist, nproc
    )
    blocks = [bindings_for(proc)["pcnt"] for proc in range(1, nproc + 1)]
    assert sum(len(block) for block in blocks) == n_atoms
    return max(4 * len(block) + 6 * int(block.sum()) for block in blocks)


@pytest.fixture(scope="module")
def point():
    return tiny_sweep()


@pytest.fixture()
def report(point):
    doc = empty_report(protocol="engine-execution-only")
    doc["points"].append(copy.deepcopy(point))
    return doc


class TestSchema:
    def test_measured_point_conforms(self, report):
        assert validate_report(report) == []

    def test_schema_id_checked(self, report):
        report["schema"] = "repro.bench/v0"
        assert any("schema" in e for e in validate_report(report))

    def test_empty_points_rejected(self):
        doc = {"schema": SCHEMA, "benchmark": BENCHMARK, "points": []}
        assert any("non-empty" in e for e in validate_report(doc))

    def test_missing_point_field_reported(self, report):
        del report["points"][0]["total_seconds"]
        errors = validate_report(report)
        assert any("total_seconds" in e for e in errors)

    def test_bad_cell_type_reported(self, report):
        report["points"][0]["cells"][0]["steps"] = "lots"
        errors = validate_report(report)
        assert any("steps" in e and "int" in e for e in errors)

    def test_negative_wall_rejected(self, report):
        report["points"][0]["cells"][0]["wall_seconds"] = -1.0
        assert any("non-negative" in e for e in validate_report(report))


class TestRunner:
    def test_point_shape(self, point):
        assert point["backend"] == "vm"
        assert point["nproc"] == 64
        assert [c["kernel"] for c in point["cells"]] == ["L_f", "Lu_l", "Lu_2"]
        assert all(c["steps"] > 0 for c in point["cells"])
        assert point["total_seconds"] == pytest.approx(
            sum(c["wall_seconds"] for c in point["cells"]), abs=0.01
        )

    def test_steps_deterministic_across_backends(self, point):
        # the VM's tree-walking twin counts the same lockstep steps
        from repro.bench.runner import _kernel_setup
        from repro.fuzz.twin import run_twin
        from repro.md.gromos import sod_workload

        workload = sod_workload(3.0, n_atoms=100, nmax=128)
        dist = workload.distribution(64)
        steps = []
        for cell in point["cells"]:
            text, bindings, externals = _kernel_setup(cell["kernel"], workload, dist)
            _env, counters = run_twin(text, dist.gran, bindings, externals)
            steps.append(int(counters.total_steps))
        assert steps == [c["steps"] for c in point["cells"]]

    def test_pmimd_sweep_measures_the_mimd_column(self, point):
        from repro.bench import MIMD_KERNEL

        mimd_point = run_table1_sweep(
            "tiny-pmimd",
            backend="pmimd",
            nproc=4,
            nmax=128,
            n_atoms=100,
            cutoffs=(3.0,),
        )
        assert [c["kernel"] for c in mimd_point["cells"]] == [MIMD_KERNEL]
        assert mimd_point["cells"][0]["steps"] == _eq1_steps(100, 3.0, 128, 4)
        assert validate_report(
            {
                "schema": SCHEMA,
                "benchmark": BENCHMARK,
                "points": [mimd_point],
            }
        ) == []
        # a pmimd point never gates against lockstep points
        assert point_signature(mimd_point) != point_signature(point)

    def test_pmimd_smoke_sweep_steps_are_eq1(self):
        """The smoke-size MIMD column reproduces the committed
        ``pr8-pmimd-smoke`` cells, and Eq. 1 predicts both."""
        from repro.bench import MIMD_NPROC, SMOKE, run_smoke_sweep

        smoke = run_smoke_sweep("smoke-pmimd", backend="pmimd")
        steps = [c["steps"] for c in smoke["cells"]]
        assert steps == [2522, 11570]
        assert steps == [
            _eq1_steps(SMOKE["n_atoms"], cutoff, SMOKE["nmax"], MIMD_NPROC)
            for cutoff in SMOKE["cutoffs"]
        ]


class TestBaseline:
    def test_identical_points_pass(self, point):
        assert compare_points(point, copy.deepcopy(point)) == []

    def test_regression_detected(self, point):
        slow = copy.deepcopy(point)
        slow["total_seconds"] = point["total_seconds"] * 1.5
        problems = compare_points(point, slow, threshold=0.20)
        assert any("regression" in p for p in problems)

    def test_regression_message_names_the_point(self, point):
        """The gate must say *which* point regressed and by how much."""
        slow = copy.deepcopy(point)
        slow["total_seconds"] = point["total_seconds"] * 1.5
        problems = compare_points(point, slow, threshold=0.20)
        message = next(p for p in problems if "regression" in p)
        assert "point signature:" in message
        assert f"backend={point['backend']}" in message
        assert f"nproc={point['nproc']}" in message
        assert "delta +" in message

    def test_describe_signature_renders_workload(self, point):
        from repro.bench import describe_signature

        rendered = describe_signature(point)
        assert f"backend={point['backend']}" in rendered
        assert f"nmax={point['nmax']}" in rendered
        assert f"grid={len(point['cells'])} cell(s)" in rendered

    def test_within_threshold_passes(self, point):
        near = copy.deepcopy(point)
        near["total_seconds"] = point["total_seconds"] * 1.1
        assert compare_points(point, near, threshold=0.20) == []

    def test_steps_drift_is_hard_error(self, point):
        drifted = copy.deepcopy(point)
        drifted["cells"][0]["steps"] += 1
        problems = compare_points(point, drifted)
        assert any("steps drift" in p for p in problems)

    def test_different_workloads_not_comparable(self, point):
        other = copy.deepcopy(point)
        other["nproc"] = 128
        assert point_signature(point) != point_signature(other)
        assert any("not comparable" in p for p in compare_points(point, other))

    def test_trajectory_gate_uses_best_earlier_point(self, point):
        fast = copy.deepcopy(point)
        fast["label"] = "fast"
        fast["total_seconds"] = point["total_seconds"] / 2.0
        newest = copy.deepcopy(point)
        newest["label"] = "newest"
        doc = empty_report()
        # newest regresses vs the *fast* middle point, not the first
        doc["points"] = [copy.deepcopy(point), fast, newest]
        problems = check_trajectory(doc, threshold=0.20)
        assert any("'fast'" in p for p in problems)

    def test_single_point_trajectory_passes(self, report):
        assert check_trajectory(report) == []


class TestCli:
    def test_validate_and_check(self, tmp_path, report, capsys):
        path = tmp_path / "BENCH_vm.json"
        path.write_text(json.dumps(report))
        assert main(["bench", "--validate", str(path)]) == 0
        assert main(["bench", "--check", str(path)]) == 0

    def test_validate_rejects_bad_file(self, tmp_path, report, capsys):
        report["schema"] = "nope"
        path = tmp_path / "BENCH_vm.json"
        path.write_text(json.dumps(report))
        assert main(["bench", "--validate", str(path)]) == 1

    def test_check_fails_on_regression(self, tmp_path, report, capsys):
        slow = copy.deepcopy(report["points"][0])
        slow["label"] = "slow"
        slow["total_seconds"] = report["points"][0]["total_seconds"] * 2.0
        report["points"].append(slow)
        path = tmp_path / "BENCH_vm.json"
        path.write_text(json.dumps(report))
        assert main(["bench", "--check", str(path)]) == 1

    def test_committed_trajectory_is_valid(self, capsys):
        # the repository's own BENCH_vm.json must stay schema-clean
        # and regression-free — the same gate CI runs
        import pathlib

        committed = pathlib.Path(__file__).resolve().parents[2] / "BENCH_vm.json"
        assert main(["bench", "--check", str(committed)]) == 0
