#!/usr/bin/env python
"""End-to-end smoke test for ``repro serve`` — the CI ``serve-smoke`` job.

Stdlib only (urllib + subprocess), so it runs anywhere the package
does.  The script proves the service's cold→warm story end to end:

1. boot a server against a temporary artifact store;
2. ``POST /v1/compile`` a Table-1 kernel (NBFORCE, flattened) — a cold
   compile, ``cache == "miss"``;
3. ``POST /v1/run`` a program and check the environment came back,
   then run a two-routine, mixed-case program by ``routine_name``
   whose routine ``CALL``\ s a MiniF subroutine — both on the ``vm``;
4. re-``POST`` the same compile — ``cache == "memory"``;
5. ``GET /healthz`` and ``GET /metrics`` respond and agree;
6. SIGTERM the server and assert a clean (exit 0) shutdown;
7. boot a **fresh** server process on the same store and re-``POST``
   the same compile: it must be served from disk (``cache == "disk"``,
   ``engine.disk_hits >= 1`` in ``/metrics``) — the transform pipeline
   never ran in this process;
8. SIGTERM again, assert clean shutdown again.

Exit status is nonzero on the first failed assertion, with the server's
output echoed for debugging.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

BOOT_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 15.0

NBFORCE_BINDINGS = None  # compile-only for the Table-1 kernel

EXAMPLE_RUN = {
    "nproc": 4,
    "bindings": {"n": 4},
}

#: Two routines in mixed case; ``Scale`` calls the subroutine ``Twice``.
CALLING_RUN = {
    "source": (
        "PROGRAM Main\n  INTEGER x\n  x = 1\nEND\n"
        "SUBROUTINE Scale\n  INTEGER y\n  y = 3\n  CALL Twice(y)\nEND\n"
        "SUBROUTINE Twice(v)\n  INTEGER v\n  v = v * 2\nEND\n"
    ),
    "nproc": 2,
    "routine_name": "SCALE",
}


def _read_kernels() -> tuple[str, str]:
    """(Table-1 NBFORCE kernel, small EXAMPLE program) MiniF sources."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.kernels.example import P1_SEQUENTIAL
    from repro.kernels.nbforce import NBFORCE_SEQUENTIAL

    return NBFORCE_SEQUENTIAL, P1_SEQUENTIAL


class Server:
    """One ``repro serve`` subprocess with captured output."""

    def __init__(self, store_dir: str):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--store-dir",
                store_dir,
                "--max-inflight",
                "16",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines: list[str] = []
        self.port = self._await_ready()
        self._drain = threading.Thread(target=self._pump, daemon=True)
        self._drain.start()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        pattern = re.compile(r"listening on http://[\w.]+:(\d+)")
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError(
                    "server exited before becoming ready:\n" + "".join(self.lines)
                )
            self.lines.append(line)
            match = pattern.search(line)
            if match:
                return int(match.group(1))
        raise AssertionError("server did not become ready in time")

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def stop(self) -> None:
        """SIGTERM; assert clean exit and the shutdown banner."""
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=SHUTDOWN_TIMEOUT)
        self._drain.join(timeout=5)
        output = "".join(self.lines)
        assert code == 0, f"server exited {code}, not 0:\n{output}"
        assert "shutdown complete" in output, (
            f"no clean-shutdown banner in output:\n{output}"
        )

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=5)


def api(port: int, method: str, path: str, body: dict | None = None) -> dict:
    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode())


def main() -> int:
    nbforce, example = _read_kernels()
    compile_body = {"source": nbforce, "transform": "flatten"}
    store_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")

    print("phase 1: cold server", flush=True)
    server = Server(store_dir)
    try:
        cold = api(server.port, "POST", "/v1/compile", compile_body)
        assert cold["cache"] == "miss", f"expected cold miss, got {cold['cache']}"
        print(f"  compile: {cold['cache']} key={cold['key'][:12]}", flush=True)

        ran = api(
            server.port, "POST", "/v1/run", {"source": example, **EXAMPLE_RUN}
        )
        assert ran["backend"] == "vm", ran["backend"]
        assert "env" in ran and ran["steps"] > 0, ran
        print(f"  run: backend={ran['backend']} steps={ran['steps']}", flush=True)

        called = api(server.port, "POST", "/v1/run", CALLING_RUN)
        assert called["backend"] == "vm", called["backend"]
        assert called["env"]["y"] == 6, called["env"]
        print(f"  run SCALE -> CALL Twice: y={called['env']['y']}", flush=True)

        warm = api(server.port, "POST", "/v1/compile", compile_body)
        assert warm["cache"] == "memory", f"expected memory hit, got {warm['cache']}"
        print(f"  re-compile: {warm['cache']}", flush=True)

        health = api(server.port, "GET", "/healthz")
        assert health["ok"] is True and health["store"]["entries"] >= 1, health
        metrics = api(server.port, "GET", "/metrics")
        assert metrics["cache_hits"].get("miss", 0) >= 1, metrics["cache_hits"]
        assert metrics["cache_hits"].get("memory", 0) >= 1, metrics["cache_hits"]
        assert metrics["engine"]["store_saves"] >= 1, metrics["engine"]
        print(f"  healthz/metrics ok: {metrics['cache_hits']}", flush=True)
    except BaseException:
        server.kill()
        print("".join(server.lines), file=sys.stderr)
        raise
    server.stop()
    print("  clean shutdown ok", flush=True)

    print("phase 2: fresh server, same store (warm-path proof)", flush=True)
    server = Server(store_dir)
    try:
        disk = api(server.port, "POST", "/v1/compile", compile_body)
        assert disk["cache"] == "disk", (
            f"expected a disk hit from the shared store, got {disk['cache']}"
        )
        metrics = api(server.port, "GET", "/metrics")
        assert metrics["cache_hits"].get("disk", 0) >= 1, metrics["cache_hits"]
        assert metrics["engine"]["disk_hits"] >= 1, metrics["engine"]
        assert metrics["engine"]["misses"] == 0, (
            f"fresh process recompiled instead of loading: {metrics['engine']}"
        )
        print(f"  compile: {disk['cache']} (engine: {metrics['engine']})", flush=True)
    except BaseException:
        server.kill()
        print("".join(server.lines), file=sys.stderr)
        raise
    server.stop()
    print("  clean shutdown ok", flush=True)

    print("serve smoke: all assertions passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
