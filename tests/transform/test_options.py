"""The shared option vocabulary: one accepted spelling per value."""

import warnings

import numpy as np
import pytest

from repro.kernels.example import P1_SEQUENTIAL
from repro.lang.errors import InterpreterError, TransformError
from repro.reliability import BACKENDS
from repro.runtime import Engine
from repro.transform.options import (
    LAYOUTS,
    TRANSFORMS,
    VARIANTS,
    normalize_layout,
    normalize_transform,
    normalize_variant,
)


class TestCanonical:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variants_pass_through_silently(self, variant):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalize_variant(variant) == variant

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layouts_pass_through_silently(self, layout):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalize_layout(layout) == layout

    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_transforms_pass_through_silently(self, transform):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalize_transform(transform) == transform

    def test_none_transform_means_none(self):
        assert normalize_transform(None) == "none"

    def test_case_and_whitespace_insensitive(self):
        assert normalize_variant("  DONE ") == "done"
        assert normalize_layout("Block") == "block"


#: Every spelling the option tables and the backend table used to
#: accept with a DeprecationWarning: 4 backend, 7 variant, 5 layout and
#: 8 transform aliases.
FORMER_ALIASES = [
    *(("backend", name) for name in ("interp", "tree", "bytecode", "sequential")),
    *(("variant", name) for name in (
        "fig10", "conservative", "fig11", "opt", "fig12", "done-guard", "best",
    )),
    *(("layout", name) for name in (
        "blockwise", "cm2", "cut-and-stack", "cutstack", "decmpp",
    )),
    *(("transform", name) for name in (
        "flattened", "naive", "naive-simd", "coalesced", "flatten-spmd",
        "partition", "distribute", "swap",
    )),
]


class TestRemovedSpellings:
    @pytest.mark.parametrize(
        "kind, spelling", FORMER_ALIASES, ids=[f"{k}-{s}" for k, s in FORMER_ALIASES]
    )
    def test_former_alias_is_rejected(self, kind, spelling):
        if kind == "backend":
            program = Engine().compile(P1_SEQUENTIAL)
            with pytest.raises(InterpreterError) as info:
                program.run(nproc=2, backend=spelling)
            canonical = BACKENDS
        else:
            normalize, canonical = {
                "variant": (normalize_variant, VARIANTS),
                "layout": (normalize_layout, LAYOUTS),
                "transform": (normalize_transform, TRANSFORMS),
            }[kind]
            with pytest.raises(TransformError) as info:
                normalize(spelling)
        message = str(info.value)
        assert repr(spelling) in message
        assert all(name in message for name in canonical)


class TestRejections:
    def test_unknown_variant(self):
        with pytest.raises(TransformError, match="unknown flattening variant"):
            normalize_variant("figure99")

    def test_unknown_layout(self):
        with pytest.raises(TransformError, match="unknown layout"):
            normalize_layout("diagonal")

    def test_unknown_transform(self):
        with pytest.raises(TransformError, match="unknown transform"):
            normalize_transform("unroll")

    def test_non_string_rejected(self):
        with pytest.raises(TransformError, match="must be a string"):
            normalize_variant(12)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"transform": "flatten", "nest_index": "x"}, "nest_index must be an int"),
            ({"transform": "flatten", "nest_index": None}, "nest_index must be an int"),
            ({"transform": "flatten", "nest_index": True}, "nest_index must be an int"),
            ({"transform": "flatten", "nest_index": 1.7}, "nest_index must be an int"),
            ({"transform": "flatten", "nest_index": -1}, "out of range"),
            ({"transform": "simdize", "width": []}, "width must be an int"),
            ({"transform": "simdize", "width": 2.5}, "width must be an int"),
            ({"transform": "simdize", "width": True}, "width must be an int"),
            ({"transform": "simdize", "width": 0}, "width 0 out of range"),
            ({"transform": "simdize", "width": -2}, "width -2 out of range"),
            ({"transform": "spmd", "width": 0}, "width 0 out of range"),
            ({"transform": "flatten", "routine": 3}, "routine must be a string"),
        ],
        ids=lambda value: str(value) if isinstance(value, dict) else None,
    )
    def test_integer_options_are_never_coerced(self, options, message):
        with pytest.raises(TransformError, match=message):
            Engine().compile(P1_SEQUENTIAL, **options)

    def test_integer_options_accept_numpy_ints(self):
        engine = Engine()
        program = engine.compile(
            P1_SEQUENTIAL, transform="simdize", width=np.int64(2),
            nest_index=np.int32(0),
        )
        assert program is engine.compile(P1_SEQUENTIAL, transform="simdize", width=2)
        assert type(program.options.width) is int
