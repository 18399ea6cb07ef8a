"""Request decoding and JSON-safe response encoding for the service.

The wire format is deliberately dumb JSON:

* compile options travel as a flat object whitelisted onto
  :meth:`~repro.runtime.Engine.compile` keywords — unknown keys are a
  client error, not silently dropped;
* the run shape (``nproc``, ``backend``, ``workers``,
  ``routine_name``) is type-checked here and becomes the keywords of
  one :meth:`~repro.runtime.CompiledProgram.run` call;
* bindings are numbers or lists of numbers (lists become numpy
  arrays, matching the CLI's ``--bind`` convention);
* environments come back with every ``FArray`` flattened to a plain
  list and numpy scalars to Python numbers, so any HTTP client can
  consume a run result without knowing numpy exists.
"""

from __future__ import annotations

import numpy as np

from ..exec.values import FArray
from ..runtime.config import BackendConfig
from ..transform.options import OPTION_FIELDS


class ProtocolError(Exception):
    """Malformed request body (maps to HTTP 400)."""


#: Body keys forwarded to ``Engine.compile`` verbatim: the
#: :class:`~repro.transform.options.CompileOptions` fields and ``strict``.
COMPILE_OPTION_KEYS = (*OPTION_FIELDS, "strict")

#: Body keys that belong to the run shape, not the compile identity.
RUN_KEYS = ("bindings", "nproc", "backend", "workers", "routine_name")

#: Keys legal in a /v1/compile body.
_COMPILE_BODY_KEYS = frozenset(COMPILE_OPTION_KEYS) | {"source", "tenant"}

#: Keys legal in a /v1/run body.
_RUN_BODY_KEYS = _COMPILE_BODY_KEYS | frozenset(RUN_KEYS)


def require_source(body: dict) -> str:
    source = body.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("body needs a non-empty string field 'source'")
    return source


def compile_options(body: dict, *, run: bool = False) -> dict:
    """Extract the Engine.compile keywords from a request body.

    Unknown keys are rejected so a typo'd option (``"varient"``) fails
    loudly instead of silently compiling with defaults.
    """
    if not isinstance(body, dict):
        raise ProtocolError("body must be a JSON object")
    legal = _RUN_BODY_KEYS if run else _COMPILE_BODY_KEYS
    unknown = sorted(set(body) - legal)
    if unknown:
        raise ProtocolError(f"unknown field(s): {', '.join(unknown)}")
    return {key: body[key] for key in COMPILE_OPTION_KEYS if key in body}


def decode_bindings(raw) -> dict:
    """JSON bindings → interpreter bindings (lists become arrays)."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ProtocolError("'bindings' must be an object of name -> value")
    bindings = {}
    for name, value in raw.items():
        if isinstance(value, bool):
            raise ProtocolError(f"binding {name!r}: booleans are not values")
        if isinstance(value, (int, float)):
            bindings[str(name).lower()] = value
        elif isinstance(value, list):
            if not all(
                isinstance(item, (int, float)) and not isinstance(item, bool)
                for item in value
            ):
                raise ProtocolError(
                    f"binding {name!r}: list values must be numbers"
                )
            bindings[str(name).lower()] = np.array(value)
        else:
            raise ProtocolError(
                f"binding {name!r}: values are numbers or lists of numbers, "
                f"got {type(value).__name__}"
            )
    return bindings


def run_arguments(body: dict) -> dict:
    """The :meth:`~repro.runtime.CompiledProgram.run` keywords of a
    /v1/run body (everything but the tenant's budget and policy)."""
    bindings = decode_bindings(body.get("bindings"))
    nproc = body.get("nproc", 0)
    if not isinstance(nproc, int) or isinstance(nproc, bool) or nproc < 0:
        raise ProtocolError(f"'nproc' must be a non-negative int, got {nproc!r}")
    workers = body.get("workers")
    if workers is not None and (
        not isinstance(workers, int) or isinstance(workers, bool) or workers < 1
    ):
        raise ProtocolError(f"'workers' must be an int >= 1 or null, got {workers!r}")
    routine_name = body.get("routine_name")
    if routine_name is not None and not isinstance(routine_name, str):
        raise ProtocolError(
            f"'routine_name' must be a string or null, got {routine_name!r}"
        )
    return {
        "bindings": bindings,
        "nproc": nproc,
        "backend": str(body.get("backend", "auto")),
        "routine_name": routine_name,
        "config": None if workers is None else BackendConfig(workers=workers),
    }


def jsonable_value(value):
    """One environment value as plain JSON."""
    if isinstance(value, FArray):
        value = value.data
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def jsonable_env(env: dict) -> dict:
    """A visible environment (no ``__`` internals) as plain JSON."""
    return {
        name: jsonable_value(value)
        for name, value in env.items()
        if not (isinstance(name, str) and name.startswith("__"))
    }


def encode_run_result(result, cache_tier: str) -> dict:
    """A :class:`~repro.runtime.RunResult` as a JSON response body.

    MIMD-family results carry one environment and counter set per
    processor; the response keeps processor 0's environment (SPMD
    texts replicate the interesting state) plus the processor count.
    """
    env = result.env
    processors = None
    if isinstance(env, list):
        processors = len(env)
        env = env[0] if env else {}
    counters = result.counters
    if isinstance(counters, list):
        summary = {
            "total_steps": max((c.total_steps for c in counters), default=0),
        }
    else:
        summary = counters.summary()
        summary = {
            "total_steps": summary["total_steps"],
            "vector_instructions": summary["vector_instructions"],
            "mean_utilization": summary["mean_utilization"],
        }
    body = {
        "backend": result.backend,
        "nproc": result.nproc,
        "steps": result.steps,
        "wall_seconds": result.wall_seconds,
        "cache": cache_tier,
        "env": jsonable_env(env),
        "counters": summary,
        "attempts": len(result.attempts or []),
    }
    if processors is not None:
        body["processors"] = processors
    return body


def error_body(kind: str, message: str) -> dict:
    return {"error": {"type": kind, "message": message}}


__all__ = [
    "COMPILE_OPTION_KEYS",
    "RUN_KEYS",
    "ProtocolError",
    "compile_options",
    "decode_bindings",
    "encode_run_result",
    "error_body",
    "jsonable_env",
    "jsonable_value",
    "require_source",
    "run_arguments",
]
