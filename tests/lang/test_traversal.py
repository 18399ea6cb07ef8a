"""The generic AST traversal: ``walk`` visits the same nodes in the
same order as the recursive definition, and ``clone`` makes an equal,
fully separate tree that keeps every source location."""

import dataclasses
import glob
import os

import pytest

import repro.kernels
from repro.cli import _iter_minif_sources
from repro.fuzz.generator import ProgramGenerator
from repro.lang import ast, parse_source
from repro.lang.errors import TransformError
from repro.runtime.engine import Engine

PROGRAMS_PER_SEED = 60


def reference_children(node):
    """The direct children, read field by field from ``dataclasses.fields``."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item


def recursive_walk(node):
    """The reference preorder: the node, then each child's subtree."""
    yield node
    for child in reference_children(node):
        yield from recursive_walk(child)


def _corpus() -> list[ast.SourceFile]:
    root = os.path.dirname(repro.kernels.__file__)
    texts = [
        text
        for path in sorted(glob.glob(os.path.join(root, "*.py")))
        for _label, text in _iter_minif_sources(path)
    ]
    for seed in (0, 1):
        texts += [p.source for p in ProgramGenerator(seed).programs(PROGRAMS_PER_SEED)]
    trees = [parse_source(text) for text in texts]
    # Transformed trees add the constructs the transforms introduce
    # (labels, flags, WHERE masks and vector expressions).
    engine = Engine()
    for text in texts:
        for transform in ("flatten", "simdize"):
            options = {"width": 4} if transform == "simdize" else {}
            try:
                trees.append(engine.compile(text, transform=transform, **options).tree)
            except TransformError:
                pass
    return trees


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_walk_yields_the_recursive_sequence(corpus):
    for tree in corpus:
        expected = list(recursive_walk(tree))
        got = list(ast.walk(tree))
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))


def test_walk_body_and_children_match_the_reference(corpus):
    for tree in corpus:
        for unit in tree.units:
            expected = [n for stmt in unit.body for n in recursive_walk(stmt)]
            got = list(ast.walk_body(unit.body))
            assert len(got) == len(expected)
            assert all(a is b for a, b in zip(got, expected))
        for node in ast.walk(tree):
            direct = list(reference_children(node))
            got = list(ast.children(node))
            assert len(got) == len(direct)
            assert all(a is b for a, b in zip(got, direct))


def test_walk_reads_children_after_yielding_the_parent():
    # As in the recursive definition, a caller may still change a node
    # it has just been given before the walk reads its children.
    tree = parse_source("PROGRAM p\n  INTEGER a\n  a = 1\n  a = 2\nEND\n")
    walker = ast.walk(tree)
    assert next(walker) is tree
    tree.units = []
    assert list(walker) == []


def test_clone_is_equal_separate_and_keeps_locations(corpus):
    for tree in corpus:
        copy = ast.clone(tree)
        assert copy == tree
        originals = list(ast.walk(tree))
        copies = list(ast.walk(copy))
        assert len(copies) == len(originals)
        assert not {id(n) for n in originals} & {id(n) for n in copies}
        for a, b in zip(originals, copies):
            assert type(a) is type(b)
            for f in dataclasses.fields(a):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if isinstance(x, list):
                    assert x is not y
                    assert len(x) == len(y)
                elif not isinstance(x, ast.Node):
                    # loc, label, RealLit.text: the fields equality skips
                    assert x == y, (type(a).__name__, f.name)
        assert any(n.loc.line for n in copies)
