"""Program-level transformation driver tests."""

import numpy as np
import pytest

import repro
from repro.lang import parse_source
from repro.lang.errors import TransformError
from repro.runtime import Engine
from repro.transform import (
    find_nest_sites,
    naive_simd_program,
    pipeline,
    structurize_program,
)
from repro.transform.options import OPTION_FIELDS, TRANSFORMS

L = np.array([4, 1, 2, 1, 1, 3, 1, 3])

P1 = """
PROGRAM example
  INTEGER i, j, k, l(8), x(8, 4)
  k = 8
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = i * j
    ENDDO
  ENDDO
END
"""


def test_find_nest_sites():
    sites = find_nest_sites(parse_source(P1))
    assert len(sites) == 1
    assert sites[0].routine == "example"


def test_find_nest_sites_skips_flat_loops():
    src = parse_source("PROGRAM p\n  DO i = 1, 3\n    x = i\n  ENDDO\nEND")
    assert find_nest_sites(src) == []


def test_flatten_program_preserves_input():
    tree = parse_source(P1)
    before = parse_source(P1)
    repro.compile(
        tree, transform="flatten", variant="done", assume_min_trips=True, simd=False
    ).tree
    assert tree == before


def test_flatten_program_sequential_equivalence():
    tree = parse_source(P1)
    env0 = repro.run(tree, bindings={"l": L}, backend="scalar").env
    for variant in ("general", "optimized", "done"):
        flat = repro.compile(
            tree,
            transform="flatten",
            variant=variant,
            assume_min_trips=True,
            simd=False,
        ).tree
        env = repro.run(flat, bindings={"l": L}, backend="scalar").env
        assert (env["x"].data == env0["x"].data).all()


def test_flatten_program_simd_form_runs_on_one_pe():
    tree = parse_source(P1)
    env0 = repro.run(tree, bindings={"l": L}, backend="scalar").env
    flat = repro.compile(
        tree, transform="flatten", variant="done", assume_min_trips=True, simd=True
    ).tree
    env = repro.run(flat, nproc=1, bindings={"l": L}, backend="vm").env
    assert (env["x"].data == env0["x"].data).all()


def test_flatten_program_on_goto_source():
    from repro.kernels.example import P1_GOTO

    tree = parse_source(P1_GOTO)
    env0 = repro.run(parse_source(P1), bindings={"l": L}, backend="scalar").env
    flat = repro.compile(tree, transform="flatten", variant="general", simd=False).tree
    env = repro.run(flat, bindings={"l": L}, backend="scalar").env
    assert (env["x"].data == env0["x"].data).all()


def test_flatten_program_no_nest_raises():
    src = parse_source("PROGRAM p\n  x = 1\nEND")
    with pytest.raises(TransformError):
        repro.compile(src, transform="flatten", simd=False).tree


def test_flatten_program_bad_index_raises():
    with pytest.raises(TransformError):
        repro.compile(
            parse_source(P1), transform="flatten", nest_index=3, simd=False
        ).tree


def test_flatten_program_routine_filter():
    src = parse_source(
        P1 + "\nSUBROUTINE other()\n  INTEGER y(4, 4), m(4)\n"
        "  DO a = 1, 4\n    DO b = 1, m(a)\n      y(a, b) = a\n    ENDDO\n  ENDDO\nEND"
    )
    flat = repro.compile(
        src, transform="flatten", routine="other", variant="general", simd=False
    ).tree
    # the main program's nest is untouched
    assert flat.main == src.main


def test_naive_simd_program_driver():
    tree = parse_source(P1)
    env0 = repro.run(tree, bindings={"l": L}, backend="scalar").env
    naive = naive_simd_program(tree, nproc=4, layout="cyclic")
    env = repro.run(naive, nproc=4, bindings={"l": L}, backend="vm").env
    assert (env["x"].data == env0["x"].data).all()


def test_structurize_program_clears_gotos():
    from repro.kernels.example import P1_GOTO
    from repro.lang import ast

    out = structurize_program(parse_source(P1_GOTO))
    assert not any(
        isinstance(node, ast.Goto) for node in ast.walk_body(out.main.body)
    )


class TestPassTable:
    def test_transforms_are_the_table(self):
        assert TRANSFORMS == tuple(pipeline.PASSES)
        assert TRANSFORMS[0] == "none"

    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_entry_is_consistent(self, name):
        entry = pipeline.PASSES[name]
        assert entry.name == name
        assert set(entry.requires) <= set(entry.reads) <= set(OPTION_FIELDS)
        assert "transform" not in entry.reads
        if entry.function is not None:
            assert callable(getattr(pipeline, entry.function))

    @pytest.mark.parametrize(
        "name", [name for name in TRANSFORMS if pipeline.PASSES[name].function]
    )
    def test_engine_calls_the_module_attribute(self, name, monkeypatch):
        """A wrapper installed on the module attribute sees the compile."""
        entry = pipeline.PASSES[name]
        original = getattr(pipeline, entry.function)
        seen = []

        def wrapper(*args, **kwargs):
            seen.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, entry.function, wrapper)
        options = {"transform": name}
        if "width" in entry.requires:
            options["width"] = 4
        try:
            Engine().compile(P1, **options)
        except TransformError:
            pass
        assert len(seen) == 1

    @pytest.mark.parametrize("name", ["simdize", "spmd"])
    def test_required_width_keeps_its_text(self, name):
        with pytest.raises(TransformError) as info:
            Engine().compile(P1, transform=name)
        assert info.value.message == f"transform={name!r} needs width=<PE count>"

    def test_fission_site_texts(self):
        with pytest.raises(TransformError) as info:
            Engine().compile("PROGRAM p\n  x = 1\nEND", transform="fission")
        assert info.value.message == "no distributable loop found"
        with pytest.raises(TransformError) as info:
            Engine().compile(P1, transform="fission", nest_index=3)
        assert info.value.message == "loop index 3 out of range (found 1 loops)"

    def test_nest_site_texts(self):
        with pytest.raises(TransformError) as info:
            Engine().compile("PROGRAM p\n  x = 1\nEND", transform="interchange")
        assert info.value.message == "no interchangeable loop nest found"
        with pytest.raises(TransformError) as info:
            Engine().compile(P1, transform="coalesce", nest_index=2)
        assert info.value.message == "nest index 2 out of range (found 1 nests)"
