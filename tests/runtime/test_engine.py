"""Engine cache-key correctness and artifact isolation."""

import numpy as np
import pytest

from repro.kernels.example import P1_SEQUENTIAL, example_bindings, expected_x
from repro.lang import ast, format_source, parse_source
from repro.lang.errors import TransformError
from repro.runtime import Engine, default_engine, reset_default_engine

OTHER = """
PROGRAM other
  INTEGER i, y(4)
  DO i = 1, 4
    y(i) = i
  ENDDO
END
"""


@pytest.fixture()
def engine():
    return Engine()


class TestCacheKeys:
    def test_same_source_same_options_hits(self, engine):
        first = engine.compile(P1_SEQUENTIAL)
        second = engine.compile(P1_SEQUENTIAL)
        assert second is first
        assert second.cache_hit
        assert engine.stats.hits == 1 and engine.stats.misses == 1

    def test_different_source_never_aliases(self, engine):
        assert engine.compile(P1_SEQUENTIAL) is not engine.compile(OTHER)
        assert engine.stats.misses == 2

    def test_different_transform_never_aliases(self, engine):
        plain = engine.compile(P1_SEQUENTIAL)
        flat = engine.compile(P1_SEQUENTIAL, transform="flatten",
                              assume_min_trips=True)
        assert plain is not flat
        assert engine.stats.misses == 2

    def test_different_variant_never_aliases(self, engine):
        done = engine.compile(P1_SEQUENTIAL, transform="flatten",
                              variant="done", assume_min_trips=True)
        general = engine.compile(P1_SEQUENTIAL, transform="flatten",
                                 variant="general", assume_min_trips=True)
        assert done is not general

    def test_option_flags_participate_in_key(self, engine):
        a = engine.compile(P1_SEQUENTIAL, transform="flatten",
                           variant="done", assume_min_trips=True, simd=True)
        b = engine.compile(P1_SEQUENTIAL, transform="flatten",
                           variant="done", assume_min_trips=True, simd=False)
        assert a is not b

    def test_simdize_width_participates_in_key(self, engine):
        a = engine.compile(P1_SEQUENTIAL, transform="simdize", width=2)
        b = engine.compile(P1_SEQUENTIAL, transform="simdize", width=4)
        assert a is not b

    def test_tree_and_text_share_an_entry(self, engine):
        tree = parse_source(P1_SEQUENTIAL)
        first = engine.compile(tree)
        second = engine.compile(format_source(tree))
        assert second is first
        assert engine.stats.hits == 1

    def test_artifact_is_nproc_independent(self, engine):
        program = engine.compile(P1_SEQUENTIAL, transform="flatten",
                                 assume_min_trips=True)
        for nproc in (2, 4, 8):
            result = program.run(example_bindings(), nproc=nproc,
                                 backend="interpreter")
            assert (result.env["x"].data == expected_x()).all()
        assert engine.stats.compiles == 1 and engine.stats.misses == 1

    def test_options_the_pass_never_reads_share_one_entry(self, engine):
        plain = engine.compile(P1_SEQUENTIAL)
        assert engine.compile(P1_SEQUENTIAL, variant="done") is plain
        assert engine.compile(P1_SEQUENTIAL, simd=False) is plain
        assert engine.stats.misses == 1 and engine.stats.hits == 2

    def test_width_never_reaches_the_flatten_key(self, engine):
        flat = engine.compile(P1_SEQUENTIAL, transform="flatten")
        again = engine.compile(P1_SEQUENTIAL, transform="flatten", width=4)
        assert again is flat and again.cache_tier == "memory"
        assert flat.options.width is None
        assert engine.cache_key(
            P1_SEQUENTIAL, transform="flatten", layout="cyclic"
        ) == engine.cache_key(P1_SEQUENTIAL, transform="flatten")

    def test_simdize_requires_width(self, engine):
        with pytest.raises(TransformError, match="width"):
            engine.compile(P1_SEQUENTIAL, transform="simdize")

    def test_bad_source_type(self, engine):
        with pytest.raises(TypeError, match="SourceFile"):
            engine.compile(42)


class TestIsolation:
    def test_caller_tree_mutation_never_pollutes_cache(self, engine):
        tree = parse_source(P1_SEQUENTIAL)
        program = engine.compile(tree)
        tree.units[0].body.clear()  # vandalize the caller's copy
        result = program.run(example_bindings())
        assert (result.env["x"].data == expected_x()).all()

    def test_returned_tree_is_a_fresh_clone(self, engine):
        program = engine.compile(P1_SEQUENTIAL)
        clone = program.tree
        clone.units[0].body.clear()
        assert program.tree.units[0].body  # cache copy untouched
        assert program.tree is not clone

    def test_env_mutation_never_pollutes_cache(self, engine):
        program = engine.compile(P1_SEQUENTIAL)
        first = program.run(example_bindings())
        first.env["x"].data[:] = -1
        first.env["k"] = 99
        second = program.run(example_bindings())
        assert (second.env["x"].data == expected_x()).all()

    def test_bindings_are_not_mutated(self, engine):
        bindings = example_bindings()
        keep = bindings["l"].copy()
        engine.compile(P1_SEQUENTIAL).run(bindings, nproc=2)
        assert list(bindings) == ["l"]
        assert (bindings["l"] == keep).all()


class TestLRU:
    def test_eviction_keeps_most_recent(self):
        engine = Engine(cache_size=2)
        a = engine.compile(P1_SEQUENTIAL)
        b = engine.compile(OTHER)
        engine.compile(P1_SEQUENTIAL)  # refresh a
        engine.compile(OTHER.replace("other", "third"))  # evicts b (LRU)
        assert len(engine) == 2
        assert engine.compile(P1_SEQUENTIAL) is a
        assert engine.compile(OTHER) is not b  # was evicted, rebuilt

    def test_clear_drops_artifacts_but_keeps_stats(self, engine):
        engine.compile(P1_SEQUENTIAL)
        engine.clear()
        assert len(engine) == 0
        assert engine.stats.compiles == 1

    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            Engine(cache_size=0)


class TestDefaultEngine:
    def test_shared_and_resettable(self):
        reset_default_engine()
        shared = default_engine()
        assert default_engine() is shared
        reset_default_engine()
        assert default_engine() is not shared


class TestStats:
    def test_hit_rate_and_snapshot(self, engine):
        assert engine.stats.hit_rate == 0.0
        engine.compile(P1_SEQUENTIAL)
        engine.compile(P1_SEQUENTIAL)
        assert engine.stats.hit_rate == 0.5
        snap = engine.stats.snapshot()
        assert snap["compiles"] == 2 and snap["hits"] == 1

    def test_stage_timings_exposed(self, engine):
        program = engine.compile(P1_SEQUENTIAL, transform="flatten",
                                 assume_min_trips=True)
        assert set(program.stage_seconds) >= {"parse", "transform"}
        result = program.run(example_bindings())
        assert "run" in result.stage_seconds
        assert result.wall_seconds >= 0.0


class TestFailedCompiles:
    """A compile that raises must never poison the cache."""

    def test_transform_error_not_cached(self, engine):
        with pytest.raises(TransformError, match="width"):
            engine.compile(P1_SEQUENTIAL, transform="simdize")
        assert len(engine) == 0

    def test_corrected_options_never_hit_a_poisoned_entry(self, engine):
        with pytest.raises(TransformError):
            engine.compile(P1_SEQUENTIAL, transform="simdize")
        program = engine.compile(P1_SEQUENTIAL, transform="simdize", width=2)
        assert not program.cache_hit
        assert len(engine) == 1
        env = program.run(example_bindings(), nproc=2).env
        np.testing.assert_allclose(env["x"].data, expected_x())

    def test_refailing_compile_raises_every_time(self, engine):
        for _ in range(2):
            with pytest.raises(TransformError):
                engine.compile(P1_SEQUENTIAL, transform="simdize")
        assert engine.stats.hits == 0
        assert len(engine) == 0


CARRIED = """
PROGRAM carried
  INTEGER i, j
  REAL a(8)
  DO i = 2, 8
    DO j = 1, 2
      a(i) = a(i-1) + j
    ENDDO
  ENDDO
END
"""


class TestOptionValidation:
    """Compile options cross a trust boundary: no truthiness, no int()."""

    @pytest.mark.parametrize("name", ["assume_parallel", "simd", "assume_min_trips"])
    @pytest.mark.parametrize("value", ["false", "", 0, 1, None])
    def test_boolean_options_need_a_real_bool(self, engine, name, value):
        with pytest.raises(TransformError, match=f"{name} must be a bool"):
            engine.compile(CARRIED, transform="spmd", width=4, **{name: value})

    def test_string_false_never_skips_the_dependence_test(self, engine):
        with pytest.raises(TransformError, match="assume_parallel must be a bool"):
            engine.run(CARRIED, transform="spmd", width=4, assume_parallel="false")
        with pytest.raises(TransformError, match="not provably parallel"):
            engine.compile(CARRIED, transform="spmd", width=4, assume_parallel=False)

    def test_strict_needs_a_real_bool(self, engine):
        with pytest.raises(TransformError, match="strict must be a bool"):
            engine.compile(P1_SEQUENTIAL, strict="false")

    def test_unknown_option_is_a_type_error(self, engine):
        with pytest.raises(TypeError, match="varient"):
            engine.compile(P1_SEQUENTIAL, varient="done")
