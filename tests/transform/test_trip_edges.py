"""Trip-count edge regressions: inner trips of 0, 1 and N.

Zero-trip inner iterations are where the conservative (general)
flattening earns its keep: the flag re-arms and immediately drops, the
masked body issues with no active lanes, and every address that feeds
a gather must stay in bounds even though no lane consumes the value.
The optimized/done variants *assume* min-trips >= 1, so on data that
cannot prove it they must refuse to compile — never miscompile.
"""

import numpy as np
import pytest

import repro
from repro.lang import parse_source
from repro.lang.errors import TransformError
from repro.vm import run_bytecode

SRC = """
PROGRAM edges
  INTEGER i, j, k, l(4), w(4), x(4, 4)
  DO i = 1, k
    DO j = 1, l(i)
      w(i) = w(i) + 1
      x(i, j) = i * j
    ENDDO
  ENDDO
END
"""

NPROC = 4

# (name, k, l) — trip shapes covering 0, 1 and N inner trips
DATASETS = [
    ("mixed-zeros", 4, [0, 2, 0, 1]),
    ("all-ones", 4, [1, 1, 1, 1]),
    ("all-zero", 4, [0, 0, 0, 0]),
    ("zero-outer", 0, [3, 3, 3, 3]),
    ("single-outer", 1, [3, 0, 0, 0]),
]

def _bindings(k, l):
    return {
        "k": k,
        "l": np.array(l, dtype=np.int64),
        "w": np.zeros(4, dtype=np.int64),
        "x": np.zeros((4, 4), dtype=np.int64),
    }


def _reference(k, l):
    env = repro.run(parse_source(SRC), bindings=_bindings(k, l), backend="scalar").env
    return env


def _assert_matches(env, ref, label):
    assert (env["w"].data == ref["w"].data).all(), label
    assert (env["x"].data == ref["x"].data).all(), label


class TestGeneralVariant:
    """The conservative flattening must be correct on *every* shape."""

    @pytest.mark.parametrize("name,k,l", DATASETS, ids=[d[0] for d in DATASETS])
    def test_f77_form(self, name, k, l):
        flat = repro.compile(
            parse_source(SRC), transform="flatten", variant="general", simd=False
        ).tree
        env = repro.run(flat, bindings=_bindings(k, l), backend="scalar").env
        _assert_matches(env, _reference(k, l), name)

    @pytest.mark.parametrize("name,k,l", DATASETS, ids=[d[0] for d in DATASETS])
    def test_simd_form_interpreter(self, name, k, l):
        flat = repro.compile(
            parse_source(SRC), transform="flatten", variant="general", simd=True
        ).tree
        env = repro.run(
            flat, nproc=NPROC, bindings=_bindings(k, l), backend="interpreter"
        ).env
        _assert_matches(env, _reference(k, l), name)

    @pytest.mark.parametrize("name,k,l", DATASETS, ids=[d[0] for d in DATASETS])
    def test_simd_form_vm(self, name, k, l):
        # regression: zero-trip lanes must clamp gather addresses, not
        # trap, even though the masked loads discard the loaded value
        flat = repro.compile(
            parse_source(SRC), transform="flatten", variant="general", simd=True
        ).tree
        env, _ = run_bytecode(flat, NPROC, bindings=_bindings(k, l))
        _assert_matches(env, _reference(k, l), name)


class TestOptimizedRejects:
    """Without the min-trips assertion the stronger variants must
    refuse the nest (runtime ``l(i)`` cannot prove trips >= 1)."""

    @pytest.mark.parametrize("variant", ["optimized", "done"])
    def test_rejected_without_assumption(self, variant):
        with pytest.raises(TransformError, match="at least once"):
            repro.compile(
                parse_source(SRC), transform="flatten", variant=variant, simd=False
            ).tree

    @pytest.mark.parametrize("variant", ["optimized", "done"])
    def test_zero_literal_bound_rejected(self, variant):
        src = SRC.replace("DO j = 1, l(i)", "DO j = 1, 0")
        with pytest.raises(TransformError):
            repro.compile(
                parse_source(src), transform="flatten", variant=variant, simd=False
            ).tree


class TestOptimizedWithAssertion:
    """With the caller's assertion and data that honours it, the
    optimized forms must agree with the scalar reference."""

    @pytest.mark.parametrize("variant", ["optimized", "done", "auto"])
    @pytest.mark.parametrize(
        "name,k,l",
        [d for d in DATASETS if d[0] in ("all-ones", "zero-outer", "single-outer")],
        ids=["all-ones", "zero-outer", "single-outer"],
    )
    def test_scalar_and_simd(self, variant, name, k, l):
        ref = _reference(k, l)
        flat = repro.compile(
            parse_source(SRC),
            transform="flatten",
            variant=variant,
            assume_min_trips=True,
            simd=False,
        ).tree
        env = repro.run(flat, bindings=_bindings(k, l), backend="scalar").env
        _assert_matches(env, ref, f"{variant}/f77/{name}")
        flat_simd = repro.compile(
            parse_source(SRC),
            transform="flatten",
            variant=variant,
            assume_min_trips=True,
            simd=True,
        ).tree
        env = repro.run(
            flat_simd, nproc=NPROC, bindings=_bindings(k, l), backend="interpreter"
        ).env
        _assert_matches(env, ref, f"{variant}/simd/{name}")
        env, _ = run_bytecode(flat_simd, NPROC, bindings=_bindings(k, l))
        _assert_matches(env, ref, f"{variant}/vm/{name}")


class TestAutoVariant:
    """``auto`` degrades to the general form when min-trips is
    unproven, so it stays correct on zero-trip data."""

    @pytest.mark.parametrize("name,k,l", DATASETS, ids=[d[0] for d in DATASETS])
    def test_auto_without_assertion_is_safe(self, name, k, l):
        flat = repro.compile(
            parse_source(SRC), transform="flatten", variant="auto", simd=True
        ).tree
        env = repro.run(
            flat, nproc=NPROC, bindings=_bindings(k, l), backend="interpreter"
        ).env
        _assert_matches(env, _reference(k, l), name)
