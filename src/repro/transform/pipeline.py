"""Program-level transformation driver.

Applies the paper's passes to whole MiniF programs: locate a loop
nest, normalize/structurize, flatten at the requested strength, and
optionally derive the F90simd form — the "compiler repertoire"
pipeline of Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast
from ..lang.errors import TransformError
from .coalesce import coalesce_nest
from .flatten import flatten_loop_nest
from .normalize import is_loop, raise_counted_loops, raise_goto_loops
from .simdize import simdize_nest, simdize_structured


@dataclass
class NestSite:
    """Location of a flattenable nest in a routine body."""

    routine: str
    index: int
    stmt: ast.Stmt


def find_nest_sites(source: ast.SourceFile) -> list[NestSite]:
    """Find top-level loops that contain a nested loop, per routine.

    Only statements at the top level of a routine body are candidate
    *outer* loops; the applicability test of Section 6 ("multiple
    loops fully contained in each other") is applied later by
    :func:`repro.transform.flatten.extract_nest`.
    """
    sites: list[NestSite] = []
    for unit in source.units:
        for index, stmt in enumerate(unit.body):
            if is_loop(stmt) and any(
                is_loop(node)
                for node in ast.walk_body([stmt])
                if node is not stmt
            ):
                sites.append(NestSite(unit.name, index, stmt))
    return sites


def find_loop_sites(source: ast.SourceFile) -> list[NestSite]:
    """Find every top-level counted loop, per routine.

    Unlike :func:`find_nest_sites` this does not require a nested
    loop — loop fission applies to flat bodies too.
    """
    sites: list[NestSite] = []
    for unit in source.units:
        for index, stmt in enumerate(unit.body):
            if isinstance(stmt, (ast.Do, ast.Forall)):
                sites.append(NestSite(unit.name, index, stmt))
    return sites


def _replace_stmt(
    source: ast.SourceFile, routine: str, index: int, replacement: list[ast.Stmt]
) -> ast.SourceFile:
    new_units = []
    for unit in source.units:
        if unit.name == routine:
            body = unit.body[:index] + replacement + unit.body[index + 1:]
            new_units.append(ast.Routine(unit.kind, unit.name, list(unit.params), body))
        else:
            new_units.append(ast.clone(unit))
    return ast.SourceFile(new_units)


def structurize_program(source: ast.SourceFile) -> ast.SourceFile:
    """Raise GOTO-built loops to structured loops in every routine,
    then recognize counted WHILE loops as DO loops."""
    units = []
    for unit in source.units:
        body = raise_counted_loops(raise_goto_loops(ast.clone(unit.body)))
        units.append(ast.Routine(unit.kind, unit.name, list(unit.params), body))
    return ast.SourceFile(units)


def _locate_nest(
    source: ast.SourceFile,
    routine: str | None,
    nest_index: int,
    what: str,
) -> tuple[ast.SourceFile, NestSite]:
    structured = structurize_program(source)
    sites = find_nest_sites(structured)
    if routine is not None:
        sites = [site for site in sites if site.routine == routine]
    if not sites:
        raise TransformError(f"no {what} loop nest found")
    if not 0 <= nest_index < len(sites):
        raise TransformError(
            f"nest index {nest_index} out of range (found {len(sites)} nests)"
        )
    return structured, sites[nest_index]


def _flatten_program_uncached(
    source: ast.SourceFile,
    variant: str = "auto",
    assume_min_trips: bool = False,
    simd: bool = False,
    routine: str | None = None,
    nest_index: int = 0,
) -> ast.SourceFile:
    """Flatten one loop nest of a program: the Engine's uncached
    ``transform="flatten"`` pass (callers use ``repro.compile``).
    ``simd`` also derives the F90simd form of the flattened region;
    the input tree is unchanged."""
    structured, site = _locate_nest(source, routine, nest_index, "flattenable")
    replacement = flatten_loop_nest(
        site.stmt, variant=variant, assume_min_trips=assume_min_trips
    )
    if simd:
        replacement = simdize_structured(replacement)
    return _replace_stmt(structured, site.routine, site.index, replacement)


def coalesce_program(
    source: ast.SourceFile,
    routine: str | None = None,
    nest_index: int = 0,
) -> ast.SourceFile:
    """Coalesce one loop nest (the related-work baseline transform)."""
    structured, site = _locate_nest(source, routine, nest_index, "coalescible")
    replacement = coalesce_nest(site.stmt)
    return _replace_stmt(structured, site.routine, site.index, replacement)


def fission_program(
    source: ast.SourceFile,
    routine: str | None = None,
    nest_index: int = 0,
) -> ast.SourceFile:
    """Distribute one counted loop along its dependence SCCs.

    The target loop is chosen like the other passes (``nest_index``-th
    top-level counted loop after structurization, optionally
    restricted to ``routine``); :func:`repro.transform.fission.
    fission_loop` performs the legality checks and raises
    :class:`TransformError` when distribution would change meaning.
    """
    from .fission import fission_loop

    structured = structurize_program(source)
    sites = find_loop_sites(structured)
    if routine is not None:
        sites = [site for site in sites if site.routine == routine]
    if not sites:
        raise TransformError("no distributable loop found")
    if not 0 <= nest_index < len(sites):
        raise TransformError(
            f"loop index {nest_index} out of range (found {len(sites)} loops)"
        )
    site = sites[nest_index]
    replacement = fission_loop(site.stmt)
    return _replace_stmt(structured, site.routine, site.index, replacement)


def interchange_program(
    source: ast.SourceFile,
    routine: str | None = None,
    nest_index: int = 0,
) -> ast.SourceFile:
    """Interchange the two outer loops of one perfect nest.

    :func:`repro.transform.interchange.interchange_loops` performs the
    structural and dependence legality checks (no ``(<, >)`` direction
    vector) and raises :class:`TransformError` otherwise.
    """
    from .interchange import interchange_loops

    structured, site = _locate_nest(
        source, routine, nest_index, "interchangeable"
    )
    replacement = interchange_loops(site.stmt)
    return _replace_stmt(structured, site.routine, site.index, replacement)


def spmd_program(
    source: ast.SourceFile,
    nproc: ast.Expr | int,
    layout: str = "cyclic",
    variant: str = "auto",
    assume_min_trips: bool = False,
    assume_parallel: bool = False,
    simd: bool = True,
    routine: str | None = None,
    nest_index: int = 0,
) -> ast.SourceFile:
    """Partition + flatten + SIMDize one parallel nest (Fig. 15 pipeline).

    Unlike plain flattening (which keeps the outer iteration
    uniform across the PEs), this bakes a ``nproc``-way partition of
    the outer iterations into the text, so each lane genuinely
    advances through *different* iterations — the shape under which
    per-lane divergence, gathers and masked stores are exercised.

    Partitioning a serializing loop silently computes the wrong answer,
    so unlike the naive Section 3 baseline the outer loop must *pass*
    the Section 6 dependence test; scalar reductions also reject (the
    partitioner does not privatize accumulators).  ``assume_parallel``
    overrides the test, FORALL-style, on the caller's responsibility.
    """
    from ..analysis import analyze_outer_parallelism
    from .parallel import flatten_spmd

    structured, site = _locate_nest(source, routine, nest_index, "partitionable")
    if not assume_parallel:
        parallelism = analyze_outer_parallelism(site.stmt)
        problems = list(parallelism.reasons)
        if parallelism.reductions:
            problems.append(
                "scalar reduction(s) "
                f"{sorted(parallelism.reductions)} would need privatization"
            )
        if parallelism.unknown or not parallelism.parallel or parallelism.reductions:
            raise TransformError(
                "outer loop is not provably parallel, refusing to partition "
                "it (pass assume_parallel=True to override): "
                + "; ".join(problems),
                site.stmt.loc,
            )
    replacement = flatten_spmd(
        site.stmt,
        nproc,
        layout=layout,
        variant=variant,
        assume_min_trips=assume_min_trips,
        simd=simd,
    )
    return _replace_stmt(structured, site.routine, site.index, replacement)


def naive_simd_program(
    source: ast.SourceFile,
    nproc: ast.Expr | int,
    layout: str = "block",
    routine: str | None = None,
    nest_index: int = 0,
) -> ast.SourceFile:
    """Naively SIMDize one parallel loop nest (the Section 3 baseline)."""
    structured, site = _locate_nest(source, routine, nest_index, "SIMDizable")
    replacement = simdize_nest(site.stmt, nproc, layout)
    return _replace_stmt(structured, site.routine, site.index, replacement)
