"""``repro serve`` — the async compile-and-run service.

The "millions of users" layer (ROADMAP item 2): a dependency-free
asyncio HTTP front end over the cached
:class:`~repro.runtime.Engine` and its persistent
:class:`~repro.runtime.store.ArtifactStore` tier, so cold compiles
happen once per cluster and everything else is a cache hit plus a
vectorized run.

Pieces:

* :mod:`repro.serve.http` — a handcrafted HTTP/1.1 layer on
  ``asyncio.start_server`` (no aiohttp, no http.server);
* :mod:`repro.serve.app` — the :class:`~repro.serve.app.ServeApp`
  request handlers and lifecycle (`POST /v1/compile`, `/v1/run`,
  `/v1/lint`, `GET /healthz`, `/metrics`); compiles and runs execute
  on its bounded worker threads, and every ``/v1/run`` — pmimd
  included — is one :meth:`~repro.runtime.CompiledProgram.run` call;
* :mod:`repro.serve.singleflight` — deduplication of identical
  in-flight compiles;
* :mod:`repro.serve.admission` — per-tenant admission control wired
  to the reliability layer's :class:`~repro.reliability.Budget` and
  :class:`~repro.reliability.FallbackPolicy`;
* :mod:`repro.serve.metrics` — JSON counters and latency percentiles
  behind ``/metrics``;
* :mod:`repro.serve.protocol` — request decoding and JSON-safe
  response encoding.
"""

from .admission import AdmissionController, AdmissionError, TenantPolicy
from .app import ServeApp, ServeConfig, serve
from .metrics import ServeMetrics
from .singleflight import SingleFlight

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "ServeApp",
    "ServeConfig",
    "ServeMetrics",
    "SingleFlight",
    "TenantPolicy",
    "serve",
]
