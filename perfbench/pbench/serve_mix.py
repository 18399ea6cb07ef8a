"""serve-mix: a ``repro serve`` subprocess under a closed-loop client.

One client sends a seeded mix, each request after the previous answer:
memory-hit compiles of a hot set, never-seen compiles (miss →
transform → lint → publish), ``/v1/lint`` on the hot set, small
``/v1/run`` requests on the ``vm`` backend, and duplicate compiles
sent on two connections at the same moment, so one coalesces onto the
other (single-flight).  The server runs with a store and two pool
workers, so at most two connections and two workers are busy.

Every response is checked: compiles and lints must name the request's
cache key, runs must return the environment an in-process run of the
same request produces, and anything but a 2xx (a 429 included) fails.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import time

from repro.fuzz.generator import ProgramGenerator
from repro.runtime.engine import Engine
from repro.serve.protocol import decode_bindings, jsonable_env

from .common import Outcome, median_ms, peak_rss_mb, remove, scratch_dir, tail
from .speed import SpeedProbe

#: Request kinds and their shares of the schedule; every
#: ``DUP_EVERY``-th operation is a pair of simultaneous duplicates.
#: The other kinds are dealt in shuffled blocks of ``BLOCK``, so any
#: stretch of the schedule, and so every window, holds them in these
#: shares whatever the seed.
MIX = (("hit", 0.64), ("miss", 0.12), ("lint", 0.12), ("run", 0.12))
DUP_EVERY = 10
BLOCK = 25

HOT = 32
RUNS = 24
RUN_NPROC = 4
POOL_WORKERS = 2
MAX_INFLIGHT = 16
BOOT_TIMEOUT = 60.0

#: Schedule entries generated per second of window (the measured rate
#: at nominal speed is about 300 operations per second).
PER_SECOND = 450


def _connection(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=60)


def _send(connection, path: str, body: dict) -> None:
    connection.request(
        "POST", path, body=json.dumps(body), headers={"Content-Type": "application/json"}
    )


def _answer(connection) -> tuple[int, dict]:
    response = connection.getresponse()
    return response.status, json.loads(response.read() or b"{}")


def post(port: int, path: str, body: dict, copies: int = 1) -> list:
    """Send ``copies`` identical requests at once, one connection each;
    ``[(status, payload)]`` in order."""
    connections = [_connection(port) for _ in range(copies)]
    try:
        for connection in connections:
            _send(connection, path, body)
        return [_answer(connection) for connection in connections]
    finally:
        for connection in connections:
            connection.close()


def get(port: int, path: str) -> dict:
    connection = _connection(port)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def check_response(kind: str, status: int, payload: dict, expected) -> str | None:
    """Why a response is wrong, or None.  ``expected`` is the cache key
    (compile, lint) or the environment (run)."""
    if not 200 <= status < 300:
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        return f"{kind}: HTTP {status} {error.get('type', '')}".rstrip()
    if kind == "run":
        if payload.get("env") != expected:
            return "run: environment differs from the in-process run"
    elif payload.get("key") != expected:
        return f"{kind}: answered for key {payload.get('key')!r}, expected {expected!r}"
    return None


def drive(port: int, schedule: list, deadline: float, tracer, probe=None) -> Outcome:
    """The closed loop over ``schedule`` until ``deadline``.

    Each entry is ``(kind, path, body, expected)``.  A ``dup`` entry is
    one operation of two requests; its time runs until both answered.
    """
    out = Outcome()
    by_kind = {kind: [] for kind, _ in MIX}
    by_kind["dup"] = []
    out.extra = {"by_kind": by_kind}
    for kind, path, body, expected in schedule:
        if time.perf_counter() >= deadline:
            break
        if probe is not None:
            probe.maybe_sample()
        copies = 2 if kind == "dup" else 1
        out.attempted += copies
        began = time.perf_counter()
        try:
            with tracer.op("serve.request"):
                with tracer.span("serve.http"):
                    answers = post(port, path, body, copies)
                problems = [
                    check_response(kind, status, payload, expected)
                    for status, payload in answers
                ]
        except Exception as error:  # noqa: BLE001 — counted, not fatal
            problems = [f"{kind}: {error!r}"] * copies
        took = out.timed(began)
        for problem in problems:
            if problem is not None:
                out.fail(problem)
        ok = problems.count(None)
        out.work += ok
        if ok == copies:
            by_kind[kind].append(took)
    return out


class ServeMix:
    name = "serve-mix"
    why = "the HTTP client of repro serve: hits beside misses, lint, small vm runs and single-flight duplicates on 2 connections"
    owns = (
        "serve.server_p50_ms", "serve.http_overhead_ms", "serve.cache_memory",
        "serve.cache_miss", "serve.deduped", "serve.rejected",
        "runtime.engine.memory_hit_ratio",
    )

    def __init__(self, root: str, seed: int, small: bool = False, seconds: float = 10.0):
        self.root = root
        self.seed = seed
        self.length = 800 if small else int(PER_SECOND * seconds) + 100
        self.server = None
        self.scratch = None

    # -- inputs ------------------------------------------------------------

    def _programs(self, count: int, start: int) -> list:
        generator = ProgramGenerator(seed=self.seed)
        return [generator.generate(index) for index in range(start, start + count)]

    def setup(self) -> None:
        self.close()
        engine = Engine()

        def compile_body(program, index):
            transform = "flatten" if index % 2 else "none"
            body = {"source": program.source, "transform": transform}
            return body, engine.cache_key(program.source, transform=transform)

        rng = random.Random(f"serve-mix/{self.seed}")
        block = [kind for kind, share in MIX for _ in range(round(share * BLOCK))]

        def dealt():
            while True:
                rng.shuffle(block)
                yield from block

        deal = dealt()
        kinds = [
            "dup" if position % DUP_EVERY == 0 else next(deal)
            for position in range(1, self.length + 1)
        ]
        self.hot = [compile_body(p, i) for i, p in enumerate(self._programs(HOT, 0))]
        fresh = iter([
            compile_body(p, i)
            for i, p in enumerate(self._programs(kinds.count("miss") + kinds.count("dup"), 1000))
        ])
        self.runs = []
        for program in self._programs(RUNS, 1000000):
            bindings = {
                name: value.tolist() if hasattr(value, "tolist") else value
                for name, value in program.bindings.items()
            }
            body = {
                "source": program.source,
                "transform": "flatten",
                "bindings": bindings,
                "nproc": RUN_NPROC,
                "backend": "vm",
            }
            result = engine.compile(program.source, transform="flatten").run(
                decode_bindings(bindings), nproc=RUN_NPROC, backend="vm"
            )
            self.runs.append((body, json.loads(json.dumps(jsonable_env(result.env)))))
        self.schedule = []
        for kind in kinds:
            if kind == "hit":
                body, key = rng.choice(self.hot)
                self.schedule.append((kind, "/v1/compile", body, key))
            elif kind == "lint":
                body, key = rng.choice(self.hot)
                self.schedule.append((kind, "/v1/lint", body, key))
            elif kind == "run":
                body, env = rng.choice(self.runs)
                self.schedule.append((kind, "/v1/run", body, env))
            else:
                body, key = next(fresh)
                self.schedule.append((kind, "/v1/compile", body, key))
        self._boot()

    def _boot(self) -> None:
        self.scratch = scratch_dir(self.root, "serve-mix-")
        log_path = os.path.join(self.scratch, "server.log")
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with open(log_path, "w") as log:
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", "0",
                    "--store-dir", os.path.join(self.scratch, "store"),
                    "--pool-workers", str(POOL_WORKERS),
                    "--max-inflight", str(MAX_INFLIGHT),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=self.root,
            )
        pattern = re.compile(r"listening on http://[\w.]+:(\d+)")
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            with open(log_path) as log:
                match = pattern.search(log.read())
            if match:
                self.port = int(match.group(1))
                break
            if self.server.poll() is not None or time.monotonic() > deadline:
                with open(log_path) as log:
                    raise RuntimeError(f"repro serve did not start:\n{log.read()}")
            time.sleep(0.01)
        # Warm-up: the hot set and the run programs are compiled once.
        for body, _key in self.hot:
            post(self.port, "/v1/compile", body)
        for body, _env in self.runs:
            post(self.port, "/v1/run", body)

    def inputs(self) -> dict:
        kinds = [entry[0] for entry in self.schedule]
        return {
            "schedule": len(kinds),
            "kinds": {kind: kinds.count(kind) for kind in dict(MIX) | {"dup": 0}},
            "hot_set": len(self.hot),
            "run_requests": len(self.runs),
            "run_nproc": RUN_NPROC,
            "pool_workers": POOL_WORKERS,
        }

    # -- the window --------------------------------------------------------

    def run(self, seconds: float, tracer, limit: int | None = None) -> Outcome:
        before = get(self.port, "/metrics")
        probe = SpeedProbe()
        start = time.perf_counter()
        if limit is None:
            out = drive(self.port, self.schedule, start + seconds, tracer, probe)
        else:
            out = drive(self.port, self.schedule[:limit], float("inf"), tracer, probe)
        probe.sample()
        out.wall = time.perf_counter() - start
        after = get(self.port, "/metrics")
        by_kind = out.extra["by_kind"]
        out.scaled = probe.scale(out.starts, out.latencies)
        out.slowdown = probe.median_slowdown()
        # Wall-clock throughput, scaled by the busy-time-weighted slowdown.
        speedup = sum(out.latencies) / sum(out.scaled)
        out.extra = {
            "requests_per_s": (out.work / out.wall * speedup, "1/s"),
            "request_p50_ms": (median_ms(out.scaled), "ms"),
        }
        request_tail = tail(out.scaled)
        if request_tail is not None:
            level, value = request_tail
            out.extra[f"request_p{level:g}_ms"] = (value, "ms")
        for kind, seconds_each in by_kind.items():
            if seconds_each:
                out.extra[f"raw {kind}_p50_ms"] = (median_ms(seconds_each), "ms")
        out.extra["raw requests_per_s"] = (out.work / out.wall, "1/s")
        out.extra["raw request_p50_ms"] = (median_ms(out.latencies), "ms")
        self.rss_mb = peak_rss_mb(self.server.pid)
        out.layers = {
            "before": before,
            "after": after,
            "compile_seconds": by_kind["hit"] + by_kind["miss"],
        }
        return out

    def layer_metrics(self, out: Outcome, tracer, layers: dict) -> dict:
        before, after = out.layers["before"], out.layers["after"]

        def delta(section: str, key: str) -> int:
            return after[section].get(key, 0) - before[section].get(key, 0)

        server = after["latency"].get("/v1/compile", {}).get("p50_seconds") or 0.0
        client = out.layers["compile_seconds"]
        compiles = after["engine"]["compiles"] - before["engine"]["compiles"]
        hits = after["engine"]["hits"] - before["engine"]["hits"]
        return {
            "serve.server_p50_ms": 1e3 * server,
            "serve.http_overhead_ms": (median_ms(client) if client else 0.0) - 1e3 * server,
            "serve.cache_memory": delta("cache_hits", "memory"),
            "serve.cache_miss": delta("cache_hits", "miss"),
            "serve.deduped": after["singleflight_deduped"] - before["singleflight_deduped"],
            "serve.rejected": after["admission_rejected"] - before["admission_rejected"],
            "runtime.engine.memory_hit_ratio": hits / compiles if compiles else 0.0,
        }

    def throughput(self, out: Outcome) -> float:
        return out.extra["requests_per_s"][0]

    def p50_ms(self, out: Outcome) -> float:
        return out.extra["request_p50_ms"][0]

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def close(self) -> list:
        """Stop the server (SIGTERM, then wait); problems as messages."""
        problems = []
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                code = self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                code = self.server.wait()
            if code != 0:
                problems.append(f"repro serve exited with {code} on SIGTERM")
            self.server = None
        remove(self.scratch)
        self.scratch = None
        return problems
