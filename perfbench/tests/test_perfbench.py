"""Tests of the benchmark itself: its checks catch planted faults, its
traced run reports every layer, and BENCHMARK.json matches the code.

Run from the root of a repro checkout::

    python3 -m pytest perfbench/tests -q
"""

import http.server
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time

import pytest

from conftest import ROOT
from pbench import trace as tracing
from pbench.common import tail
from pbench.metrics import END_TO_END, PER_LAYER
from pbench.mimd import Table1MIMD
from pbench.serve_mix import check_response, drive
from pbench.table1 import EXPECTED_STEPS, Table1SIMD
from pbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done, done.stdout.strip().splitlines()


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    benchmark = load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert benchmark["command"] == ["python3", "perfbench/run.py"]
    assert benchmark["paths"] == ["perfbench"]
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    for entry in benchmark["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {e["name"]: (e["unit"], e["better"], e["bound"]) for e in benchmark["end_to_end"]} == END_TO_END
    assert {e["name"]: (e["unit"], e["better"]) for e in benchmark["per_layer"]} == PER_LAYER
    names = [e["name"] for e in benchmark["workloads"] + benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(e["unit"]) for e in benchmark["end_to_end"] + benchmark["per_layer"])
    assert all(0 < e["bound"] <= 0.25 for e in benchmark["end_to_end"])
    assert max(e["bound"] for e in benchmark["end_to_end"]) == END_TO_END["setup_s"][2]


def test_every_per_layer_metric_has_one_owning_workload():
    owners = [name for cls in WORKLOADS.values() for name in cls.owns]
    assert len(owners) == len(set(owners))
    assert set(owners) | {"trace.unattributed_share"} == set(PER_LAYER)


def test_expected_steps_are_the_committed_bench_vm_points():
    with open(os.path.join(ROOT, "BENCH_vm.json")) as handle:
        points = {point["label"]: point for point in json.load(handle)["points"]}
    for size, label in (("full", "fused-vm"), ("small", "pr8-vm-smoke")):
        cells = {(c["kernel"], c["cutoff"]): c["steps"] for c in points[label]["cells"]}
        assert EXPECTED_STEPS[size] == cells


# -- output checks catch planted faults ----------------------------------------


@pytest.fixture
def small_table1():
    workload = Table1SIMD(ROOT, seed=3, small=True)
    workload.setup()
    return workload


def test_clean_small_table1_passes(small_table1):
    out = small_table1.run(0.0, tracing.NullTracer(), limit=1)
    assert out.failed == 0 and out.attempted == 6


def test_planted_wrong_force_value_fails_the_check(small_table1, monkeypatch):
    from repro.md import forces

    original = forces.pair_energy

    def planted(molecule, at1, at2):
        values = original(molecule, at1, at2)
        return values + 1e-6 * (at1 == 7)

    monkeypatch.setattr(forces, "pair_energy", planted)
    out = small_table1.run(0.0, tracing.NullTracer(), limit=1)
    assert out.failed == out.attempted == 6
    assert all("atom 7 force" in message for message in out.errors)


@pytest.mark.parametrize("cls", [Table1SIMD, Table1MIMD])
def test_planted_step_count_change_fails_the_check(cls, monkeypatch):
    from repro.exec.counters import ExecutionCounters

    workload = cls(ROOT, seed=3, small=True)
    workload.setup()
    original = ExecutionCounters.total_steps
    monkeypatch.setattr(
        ExecutionCounters, "total_steps", property(lambda self: original.fget(self) + 1)
    )
    out = workload.run(0.0, tracing.NullTracer(), limit=1)
    assert out.failed == out.attempted > 0
    assert all("steps, expected" in message for message in out.errors)


def test_mimd_step_model_matches_the_pmimd_backend():
    workload = Table1MIMD(ROOT, seed=11, small=True)
    workload.setup()
    out = workload.run(0.0, tracing.NullTracer(), limit=1)
    assert out.failed == 0
    assert out.layers["steps"] == workload.steps


class _Refuse(http.server.BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 — http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"error": {"type": "AdmissionError", "message": "full"}}).encode()
        self.send_response(429)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_429_counts_in_error_rate():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Refuse)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        schedule = [("hit", "/v1/compile", {"source": "x"}, "key")] * 5
        out = drive(server.server_address[1], schedule, time.perf_counter() + 30, tracing.NullTracer())
    finally:
        server.shutdown()
        server.server_close()
    assert out.attempted == 5 and out.failed == 5 and out.work == 0
    assert all("HTTP 429" in message for message in out.errors)


def test_response_checks():
    assert check_response("hit", 200, {"key": "k"}, "k") is None
    assert "expected" in check_response("hit", 200, {"key": "other"}, "k")
    assert check_response("run", 200, {"env": {"x": [1]}}, {"x": [1]}) is None
    assert "environment" in check_response("run", 200, {"env": {"x": [2]}}, {"x": [1]})
    assert "HTTP 500" in check_response("lint", 500, {}, "k")


# -- tracing -----------------------------------------------------------------


def traced_window(gap: float):
    """A window of one operation and one probe sample, with ``gap``
    seconds of loop code in no span."""
    tracer = tracing.Tracer()
    began = time.perf_counter()
    with tracer.op("work"):
        with tracer.span("outer"):
            time.sleep(0.01)
            with tracer.span("inner"):
                time.sleep(0.02)
        time.sleep(0.005)
    with tracer.span("bench.probe"):
        time.sleep(0.005)
    time.sleep(gap)
    return tracer, time.perf_counter() - began


def test_breakdown_adds_up_to_wall_time():
    tracer, wall = traced_window(0.0)
    layers = tracing.breakdown(tracer, wall)
    assert layers["consistent"]
    assert list(layers["layers"]) == ["inner", "outer"]
    assert list(layers["bench"]) == ["bench.probe"]
    assert layers["inside_ops"] >= 0.005
    assert layers["unattributed"] >= 0.01
    assert math.isclose(sum(layers["layers"].values()) + layers["unattributed"], wall)
    assert layers["calls"] == {"op:work": 1, "outer": 1, "inner": 1, "bench.probe": 1}


def test_breakdown_flags_time_outside_any_span():
    tracer, wall = traced_window(0.02)
    layers = tracing.breakdown(tracer, wall)
    assert layers["outside"] >= 0.02
    assert not layers["consistent"]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail([0.001] * 19) is None
    assert tail([0.001] * 1000)[0] == 99
    assert tail(list(range(100)))[0] == 90
    level, _ = tail([0.0] * 250)
    assert round(250 * (1 - level / 100)) >= 10


# -- the command ----------------------------------------------------------------


def test_traced_run_emits_every_per_layer_metric():
    done, lines = run_bench("--workload", "compile-mix", "--seed", "2", "--seconds", "0.5",
                            "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == PER_LAYER[name][0]
        assert math.isfinite(metric["value"]), name
        if metric["unit"] in ("s", "ms") and name != "serve.http_overhead_ms":
            assert metric["value"] > 0, name
    assert "consistency:" in done.stdout and "-> ok" in done.stdout
    assert "tracing overhead on throughput" in done.stdout


def test_untraced_run_emits_every_end_to_end_metric():
    done, lines = run_bench("--workload", "serve-mix", "--seed", "2", "--seconds", "0.5")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _better, _bound) in END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done, lines = run_bench("--workload", "table1-simd", "--seed", "1", "--seconds", "1",
                            cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)
