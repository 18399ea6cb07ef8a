"""End-to-end service tests: real sockets against an in-process ServeApp.

No pytest-asyncio in the toolchain, so each test wraps its async body
in ``asyncio.run``.  Requests go over genuine TCP connections (the
server binds 127.0.0.1 port 0) so the HTTP layer, dispatcher, worker
threads and engine are all exercised exactly as ``repro serve`` runs them.
"""

import asyncio
import json

import pytest

from repro.kernels.example import P1_SEQUENTIAL, P3_MIMD
from repro.kernels.nbforce import NBFORCE_SEQUENTIAL
from repro.serve import ServeApp, ServeConfig, TenantPolicy

BROKEN = "program bad\ninteger x(\nend\n"


async def request(port, method, path, body=None):
    """One HTTP exchange; returns (status, decoded JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\nContent-Length: {len(payload)}\r\n\r\n"
    ).encode()
    writer.write(head + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    status_line, _, rest = raw.partition(b"\r\n")
    status = int(status_line.split(b" ")[1])
    _, _, body_bytes = rest.partition(b"\r\n\r\n")
    return status, json.loads(body_bytes)


def with_app(coro_fn, config=None):
    """Boot a ServeApp on a free port, run the test body, shut down."""

    async def go():
        app = ServeApp(config if config is not None else ServeConfig(port=0))
        await app.start()
        try:
            return await coro_fn(app)
        finally:
            await app.shutdown()

    return asyncio.run(go())


class TestEndpoints:
    def test_compile_then_memory_hit(self):
        async def body(app):
            status, first = await request(
                app.port, "POST", "/v1/compile",
                {"source": P1_SEQUENTIAL, "transform": "flatten"},
            )
            assert status == 200
            assert first["cache"] == "miss"
            assert first["bytecode"] > 0
            assert len(first["key"]) == 64

            status, again = await request(
                app.port, "POST", "/v1/compile",
                {"source": P1_SEQUENTIAL, "transform": "flatten"},
            )
            assert status == 200
            assert again["cache"] == "memory"
            assert again["key"] == first["key"]

        with_app(body)

    def test_run_vm_backend(self):
        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/run",
                {"source": P1_SEQUENTIAL, "bindings": {"n": 4}, "nproc": 4},
            )
            assert status == 200
            assert out["backend"] == "vm"
            assert out["steps"] > 0
            assert out["wall_seconds"] >= 0
            assert "env" in out

        with_app(body)

    def test_run_pmimd_backend(self):
        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/run",
                {
                    "source": P3_MIMD,
                    "transform": "flatten",
                    "backend": "pmimd",
                    "nproc": 4,
                    "bindings": {"l": [4, 1, 2, 1], "k": 0},
                },
            )
            assert status == 200
            assert out["backend"] == "pmimd"
            assert out["processors"] == 4

        with_app(body)

    def test_pmimd_without_processors_400(self):
        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/run",
                {"source": P3_MIMD, "backend": "pmimd", "nproc": 0},
            )
            assert status == 400
            assert "nproc" in out["error"]["message"]

        with_app(body)

    def test_lint_reports_diagnostics(self):
        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/lint", {"source": NBFORCE_SEQUENTIAL}
            )
            assert status == 200
            assert "summary" in out
            assert isinstance(out["diagnostics"], list)

        with_app(body)

    def test_healthz_and_metrics(self):
        async def body(app):
            status, health = await request(app.port, "GET", "/healthz")
            assert status == 200
            assert health["ok"] is True
            assert health["inflight"] == 1  # this very request

            await request(
                app.port, "POST", "/v1/compile", {"source": P1_SEQUENTIAL}
            )
            status, metrics = await request(app.port, "GET", "/metrics")
            assert status == 200
            assert metrics["cache_hits"]["miss"] == 1
            assert metrics["requests"]["/v1/compile"] == 1
            assert metrics["engine"]["compiles"] == 1
            latency = metrics["latency"]["/v1/compile"]
            assert latency["count"] == 1
            assert latency["p95_seconds"] >= latency["p50_seconds"] >= 0

        with_app(body)

    def test_metrics_counts_disk_tier(self, tmp_path):
        root = str(tmp_path / "store")

        async def cold(app):
            await request(
                app.port, "POST", "/v1/compile",
                {"source": NBFORCE_SEQUENTIAL, "transform": "flatten"},
            )

        with_app(cold, ServeConfig(port=0, store_dir=root))

        async def warm(app):
            status, out = await request(
                app.port, "POST", "/v1/compile",
                {"source": NBFORCE_SEQUENTIAL, "transform": "flatten"},
            )
            assert status == 200
            assert out["cache"] == "disk"
            _, metrics = await request(app.port, "GET", "/metrics")
            assert metrics["cache_hits"]["disk"] == 1
            assert metrics["engine"]["disk_hits"] == 1
            assert metrics["engine"]["misses"] == 0
            assert metrics["store"]["entries"] >= 1

        with_app(warm, ServeConfig(port=0, store_dir=root))


class TestErrorPaths:
    def test_unknown_path_404(self):
        async def body(app):
            status, out = await request(app.port, "GET", "/nope")
            assert status == 404
            assert out["error"]["type"] == "NotFound"

        with_app(body)

    def test_wrong_method_405(self):
        async def body(app):
            status, _ = await request(app.port, "GET", "/v1/compile")
            assert status == 405
            status, _ = await request(app.port, "POST", "/healthz")
            assert status == 405

        with_app(body)

    def test_missing_source_400(self):
        async def body(app):
            status, out = await request(app.port, "POST", "/v1/compile", {})
            assert status == 400
            assert "source" in out["error"]["message"]

        with_app(body)

    def test_unknown_option_400(self):
        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/compile",
                {"source": P1_SEQUENTIAL, "optimize": True},
            )
            assert status == 400
            assert "optimize" in out["error"]["message"]

        with_app(body)

    def test_string_boolean_options_400(self):
        carried = (
            "PROGRAM carried\n  INTEGER i, j\n  REAL a(8)\n  DO i = 2, 8\n"
            "    DO j = 1, 2\n      a(i) = a(i-1) + j\n    ENDDO\n  ENDDO\nEND\n"
        )

        async def body(app):
            for option in ("assume_parallel", "simd", "strict"):
                status, out = await request(
                    app.port, "POST", "/v1/compile",
                    {"source": carried, "transform": "spmd", "width": 4,
                     option: "false"},
                )
                assert status == 400, (option, out)
                assert out["error"]["type"] == "TransformError"
                assert f"{option} must be a bool" in out["error"]["message"]
            assert app.engine.stats.misses == 0

        with_app(body)

    def test_non_integer_options_400(self):
        bad = [
            {"nest_index": "x"}, {"nest_index": None}, {"nest_index": True},
            {"nest_index": 1.7}, {"nest_index": -1}, {"width": []},
            {"width": 2.5}, {"width": 0}, {"width": -2},
        ]

        async def body(app):
            for options in bad:
                status, out = await request(
                    app.port, "POST", "/v1/compile",
                    {"source": P1_SEQUENTIAL, "transform": "simdize", "width": 2,
                     **options},
                )
                assert status == 400, (options, out)
                assert out["error"]["type"] == "TransformError"
            assert app.engine.stats.misses == 0

        with_app(body)

    def test_compile_error_is_client_fault_400(self):
        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/compile", {"source": BROKEN}
            )
            assert status == 400
            assert "Error" in out["error"]["type"]

        with_app(body)

    def test_malformed_json_400(self):
        async def body(app):
            reader, writer = await asyncio.open_connection("127.0.0.1", app.port)
            payload = b"{not json"
            writer.write(
                b"POST /v1/compile HTTP/1.1\r\nContent-Length: "
                + str(len(payload)).encode() + b"\r\n\r\n" + payload
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b" 400 " in raw.split(b"\r\n", 1)[0]

        with_app(body)


class TestSingleFlightUnderLoad:
    def test_identical_inflight_compiles_coalesce(self):
        """N concurrent identical compiles -> one engine.compile call."""

        async def body(app):
            calls = []
            inner = app.engine.compile

            def counting_compile(source, **options):
                calls.append(1)
                import time as _time

                _time.sleep(0.1)  # hold the flight open on a pool thread
                return inner(source, **options)

            app.engine.compile = counting_compile
            payload = {"source": P1_SEQUENTIAL, "transform": "flatten"}
            results = await asyncio.gather(
                *(
                    request(app.port, "POST", "/v1/compile", payload)
                    for _ in range(10)
                )
            )
            app.engine.compile = inner

            assert len(calls) == 1
            assert all(status == 200 for status, _ in results)
            tiers = sorted(out["cache"] for _, out in results)
            assert tiers.count("inflight") == 9
            assert {out["key"] for _, out in results} == {results[0][1]["key"]}

            _, metrics = await request(app.port, "GET", "/metrics")
            assert metrics["singleflight_deduped"] == 9
            assert metrics["cache_hits"]["inflight"] == 9

        with_app(body)

    def test_different_sources_do_not_coalesce(self):
        async def body(app):
            results = await asyncio.gather(
                request(
                    app.port, "POST", "/v1/compile", {"source": P1_SEQUENTIAL}
                ),
                request(
                    app.port, "POST", "/v1/compile", {"source": P3_MIMD}
                ),
            )
            keys = {out["key"] for _, out in results}
            assert len(keys) == 2

        with_app(body)


class TestAdmissionOverHTTP:
    def test_global_capacity_429(self):
        config = ServeConfig(port=0, max_inflight=1)

        async def body(app):
            release = asyncio.Event()
            inner = app.engine.compile

            def stalling_compile(source, **options):
                import time as _time

                while not release.is_set():
                    _time.sleep(0.01)
                return inner(source, **options)

            app.engine.compile = stalling_compile
            first = asyncio.create_task(
                request(
                    app.port, "POST", "/v1/compile", {"source": P1_SEQUENTIAL}
                )
            )
            await asyncio.sleep(0.2)  # let it occupy the only slot
            status, out = await request(
                app.port, "POST", "/v1/compile", {"source": P3_MIMD}
            )
            assert status == 429
            assert out["error"]["type"] == "AdmissionError"
            release.set()
            status_first, _ = await first
            assert status_first == 200

            _, metrics = await request(app.port, "GET", "/metrics")
            assert metrics["admission_rejected"] == 1

        with_app(body, config)

    def test_per_tenant_429_leaves_others_alone(self):
        config = ServeConfig(
            port=0,
            tenants=(TenantPolicy(name="capped", max_inflight=0),),
        )

        async def body(app):
            status, _ = await request(
                app.port, "POST", "/v1/compile",
                {"source": P1_SEQUENTIAL, "tenant": "capped"},
            )
            assert status == 429
            status, _ = await request(
                app.port, "POST", "/v1/compile",
                {"source": P1_SEQUENTIAL, "tenant": "anyone-else"},
            )
            assert status == 200

        with_app(body, config)

    def test_tenant_budget_applies_to_run(self):
        config = ServeConfig(
            port=0,
            tenants=(TenantPolicy(name="default", max_steps=1),),
        )

        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/run",
                {"source": P1_SEQUENTIAL, "bindings": {"n": 4}, "nproc": 4},
            )
            # a 1-step budget cannot finish the kernel: the run answers
            # a typed 400, never a 500 and never a result
            assert status == 400
            assert out["error"]["type"] == "BudgetExceeded"
            assert "step budget exceeded (1 steps)" in out["error"]["message"]

        with_app(body, config)


class TestLifecycle:
    def test_shutdown_stops_listening(self):
        async def go():
            app = ServeApp(ServeConfig(port=0))
            await app.start()
            port = app.port
            status, _ = await request(port, "GET", "/healthz")
            assert status == 200
            await app.shutdown()
            try:
                await asyncio.open_connection("127.0.0.1", port)
            except (ConnectionError, OSError):
                return True
            return False

        assert asyncio.run(go()) is True

    def test_serve_honors_stop_event(self):
        from repro.serve import serve

        async def go():
            stop = asyncio.Event()
            seen = {}

            def ready(app):
                seen["port"] = app.port

            task = asyncio.create_task(
                serve(ServeConfig(port=0), ready=ready, stop=stop)
            )
            for _ in range(100):
                if "port" in seen:
                    break
                await asyncio.sleep(0.01)
            status, _ = await request(seen["port"], "GET", "/healthz")
            assert status == 200
            stop.set()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(go())


TWO_ROUTINES = """PROGRAM main
  INTEGER x
  x = 1
END
SUBROUTINE other
  INTEGER x
  x = 2
END
"""

PMIMD_RUN = {
    "source": P3_MIMD,
    "transform": "flatten",
    "backend": "pmimd",
    "nproc": 4,
    "bindings": {"l": [4, 1, 2, 1], "k": 0},
}


class TestOneRunPath:
    """Every /v1/run is one CompiledProgram.run call, pmimd included."""

    def test_pmimd_run_counts_in_engine_runs(self):
        async def body(app):
            status, out = await request(app.port, "POST", "/v1/run", PMIMD_RUN)
            assert status == 200
            assert out["backend"] == "pmimd"
            _, metrics = await request(app.port, "GET", "/metrics")
            assert metrics["engine"]["runs"]["pmimd"] == 1
            assert metrics["runs_by_backend"]["pmimd"] == 1
            assert set(metrics["pool"]) == {"max_workers", "submitted"}

        with_app(body)

    def test_pmimd_runs_the_tenant_fallback_chain(self):
        config = ServeConfig(
            port=0,
            tenants=(TenantPolicy(name="chained", fallback=("pmimd", "mimd")),),
        )

        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/run", {**PMIMD_RUN, "tenant": "chained"}
            )
            assert status == 200
            assert out["backend"] == "pmimd"
            assert out["attempts"] >= 1

        with_app(body, config)

    def test_pmimd_workers_reach_the_backend(self, monkeypatch):
        from repro.exec.pmimd import PMIMDExecutor

        seen = []
        build = PMIMDExecutor.from_config.__func__

        def recording(cls, source, config):
            seen.append(config.workers)
            return build(cls, source, config)

        monkeypatch.setattr(PMIMDExecutor, "from_config", classmethod(recording))

        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/run", {**PMIMD_RUN, "workers": 1}
            )
            assert status == 200
            assert out["processors"] == 4

        with_app(body)
        assert seen == [1]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", "4"),
            ("workers", True),
            ("workers", 0),
            ("routine_name", 5),
            ("routine_name", ["other"]),
        ],
    )
    def test_mistyped_run_fields_400(self, field, value):
        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/run", {**PMIMD_RUN, field: value}
            )
            assert status == 400
            assert out["error"]["type"] == "ProtocolError"
            assert field in out["error"]["message"]

        with_app(body)

    def test_routine_name_runs_that_routine(self):
        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/run",
                {"source": TWO_ROUTINES, "nproc": 2, "routine_name": "other"},
            )
            assert status == 200
            assert out["backend"] == "vm"
            assert out["env"]["x"] == 2

        with_app(body)

    def test_unknown_routine_400(self):
        async def body(app):
            status, out = await request(
                app.port, "POST", "/v1/run",
                {"source": TWO_ROUTINES, "nproc": 2, "routine_name": "nope"},
            )
            assert status == 400
            assert out["error"]["type"] == "InterpreterError"
            assert "nope" in out["error"]["message"]

        with_app(body)
