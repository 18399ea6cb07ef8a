"""Rejection paths of the Section 6 checks, with minimal programs.

Each case is the smallest nest that trips one specific refusal: a
side-effecting CALL defeats the dependence test, a provably zero-trip
inner loop defeats the optimized preconditions, a cross-iteration
write serializes the outer loop, and a scalar accumulator is "safe
with reduction support" — a qualified yes, not a rejection.

The second half covers the same rejections one layer up: the
``spmd_program`` pipeline must refuse to partition any nest the
dependence test cannot bless, because a partitioned serializing loop
silently computes the wrong answer.
"""

import pytest

import repro
from repro.analysis import evaluate_flattening
from repro.lang import parse_source, parse_statements
from repro.lang.errors import TransformError
from repro.transform.pipeline import spmd_program


def loop_of(text):
    [stmt] = parse_statements(text)
    return stmt


def nest(body):
    return loop_of(
        f"DO i = 1, k\n  DO j = 1, l(i)\n    {body}\n  ENDDO\nENDDO"
    )


class TestSideEffectRejection:
    def test_call_makes_safety_undecidable(self):
        # `s` may be an output argument (private) or a carried value —
        # only the callee's interface could tell, so the verdict is None
        report = evaluate_flattening(nest("CALL f(s)"))
        assert report.safe is None
        assert report.parallelism.unknown
        assert any("interprocedural" in r for r in report.parallelism.reasons)

    def test_call_nest_still_applicable(self):
        # the *transform* is structural; only the safety verdict degrades
        report = evaluate_flattening(nest("CALL f(s)"), assume_min_trips=True)
        assert report.applicable


class TestInnerTripRejection:
    def test_zero_literal_bound_caps_variant_at_general(self):
        stmt = loop_of(
            "DO i = 1, k\n  DO j = 1, 0\n    x(i, j) = i\n  ENDDO\nENDDO"
        )
        report = evaluate_flattening(stmt)
        assert report.applicable
        assert report.variant == "general"

    def test_optimized_transform_rejects_zero_literal(self):
        src = parse_source(
            "PROGRAM p\n  INTEGER i, j, k, x(4, 4)\n"
            "  DO i = 1, k\n    DO j = 1, 0\n      x(i, j) = i\n"
            "    ENDDO\n  ENDDO\nEND"
        )
        with pytest.raises(TransformError, match="[Ss]ec. 4|at least once"):
            repro.compile(
                src, transform="flatten", variant="optimized", simd=False
            ).tree

    def test_assertion_overrides_even_false_ones(self):
        # a false caller assertion is the caller's responsibility
        # (FORALL semantics), not a compile error
        src = parse_source(
            "PROGRAM p\n  INTEGER i, j, k, x(4, 4)\n"
            "  DO i = 1, k\n    DO j = 1, 0\n      x(i, j) = i\n"
            "    ENDDO\n  ENDDO\nEND"
        )
        repro.compile(
            src,
            transform="flatten",
            variant="optimized",
            assume_min_trips=True,
            simd=False,
        ).tree


class TestOuterDependenceRejection:
    def test_cross_iteration_write_is_unsafe(self):
        report = evaluate_flattening(nest("y(j) = i"))
        assert report.safe is False
        assert not report.recommended

    def test_recurrence_is_unsafe(self):
        report = evaluate_flattening(nest("x(i, j) = x(i, j) + y(j)\n    y(j) = x(i, j)"))
        assert report.safe is False

    def test_scalar_reduction_is_qualified_yes(self):
        report = evaluate_flattening(nest("s = s + 1"))
        assert report.safe is True
        assert report.parallelism.reductions == {"s"}

    def test_indirect_addressing_stays_safe_here(self):
        # `l(idx(i))` reads through an index array; reads cannot
        # serialize, so the dependence test still passes
        report = evaluate_flattening(nest("x(i, j) = l(idx(i))"))
        assert report.safe is True


SPMD_TEMPLATE = (
    "PROGRAM p\n"
    "  INTEGER i, j, k, s\n"
    "  INTEGER l(8), w(8), y(8), x(8, 8)\n"
    "  DO i = 1, k\n"
    "    DO j = 1, l(i)\n"
    "      {body}\n"
    "    ENDDO\n"
    "  ENDDO\n"
    "END\n"
)


def spmd(body, **kwargs):
    return spmd_program(
        parse_source(SPMD_TEMPLATE.format(body=body)), 4, **kwargs
    )


class TestSpmdSafetyGate:
    """Partitioning must be gated on the dependence test."""

    def test_accepts_provably_parallel_nest(self):
        spmd("w(i) = w(i) + 1")

    def test_rejects_cross_iteration_write(self):
        with pytest.raises(TransformError, match="not provably parallel"):
            spmd("y(j) = i")

    def test_rejects_scalar_reduction(self):
        with pytest.raises(TransformError, match="privatization"):
            spmd("s = s + 1")

    def test_rejects_recurrence(self):
        with pytest.raises(TransformError, match="not provably parallel"):
            spmd("y(j) = y(j) + 1")

    def test_rejects_call(self):
        with pytest.raises(TransformError, match="not provably parallel"):
            spmd("CALL f(s)")

    def test_assume_parallel_overrides(self):
        spmd("y(j) = i", assume_parallel=True)
        spmd("s = s + 1", assume_parallel=True)

    def test_gate_threads_through_engine(self):
        from repro.runtime import Engine

        src = parse_source(SPMD_TEMPLATE.format(body="s = s + 1"))
        engine = Engine()
        with pytest.raises(TransformError, match="privatization"):
            engine.compile(src, transform="spmd", width=4)
        engine.compile(src, transform="spmd", width=4, assume_parallel=True)
