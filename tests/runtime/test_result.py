"""RunResult: the unified return shape of every backend."""

import pytest

from repro.exec import MIMDSimulator
from repro.exec.counters import ExecutionCounters
from repro.kernels.example import (
    EXAMPLE_P,
    P3_MIMD,
    P5_FLATTENED_SIMD,
    example_bindings,
    mimd_bindings,
    parse_source,
)
from repro.runtime import Engine, RunResult


@pytest.fixture()
def engine():
    return Engine()


class TestTupleProtocol:
    def test_does_not_unpack(self, engine):
        result = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), nproc=2
        )
        assert isinstance(result.counters, ExecutionCounters)
        with pytest.raises(TypeError):
            env, counters = result

    def test_single_backend_aggregates(self, engine):
        result = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), nproc=2
        )
        assert result.envs == [result.env]
        assert result.time_steps() == result.counters.total_steps
        assert result.time_steps("acu") == result.counters.layer_steps["acu"]


class TestMIMDParity:
    def test_matches_mimd_result_queries(self, engine):
        result = engine.compile(P3_MIMD).run(
            nproc=EXAMPLE_P, backend="mimd", bindings_for=mimd_bindings
        )
        reference = MIMDSimulator(parse_source(P3_MIMD), EXAMPLE_P).run(
            bindings_for=mimd_bindings
        )
        assert result.backend == "mimd"
        assert len(result.envs) == EXAMPLE_P
        assert result.time_steps() == reference.time_steps()
        assert result.time_steps("store") == reference.time_steps("store")
        assert result.call_counts("force") == reference.call_counts("force")
        assert result.time_calls("force") == reference.time_calls("force")

    def test_mimd_env_unpacking_gives_lists(self, engine):
        result = engine.compile(P3_MIMD).run(
            nproc=EXAMPLE_P, backend="mimd", bindings_for=mimd_bindings
        )
        assert isinstance(result.env, list) and len(result.env) == EXAMPLE_P
        assert isinstance(result.counters, list)
        assert len(result.counters) == EXAMPLE_P


class TestProvenance:
    def test_cache_provenance_flows_into_results(self, engine):
        cold = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), nproc=2
        )
        warm = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), nproc=2
        )
        assert not cold.cache_hit
        assert warm.cache_hit

    def test_fields_are_self_describing(self, engine):
        result = engine.compile(P5_FLATTENED_SIMD).run(
            example_bindings(), nproc=2
        )
        assert isinstance(result, RunResult)
        assert result.nproc == 2
        assert result.statements > 0
        assert result.wall_seconds >= 0
        assert {"parse", "transform"} <= set(result.stage_seconds)
