"""Program-level transformation driver.

Applies the paper's passes to whole MiniF programs: locate a loop
nest, normalize/structurize, flatten at the requested strength, and
optionally derive the F90simd form — the "compiler repertoire"
pipeline of Section 6.

:data:`PASSES` is the one table of nest transforms: each entry names
the :class:`~repro.transform.options.CompileOptions` fields its pass
reads and requires, how it finds its site, and the whole-program
function :func:`apply_pass` calls.  The transform modules are imported
where they are used: they import :mod:`.options`, which imports this
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..lang import ast
from ..lang.errors import TransformError
from .normalize import is_loop, raise_counted_loops, raise_goto_loops


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


#: What a site finder calls one site: its rejection noun and index unit.
_SITE_NOUNS = {
    find_nest_sites: ("loop nest", "nest"),
    find_loop_sites: ("loop", "loop"),
}


def _locate_nest(
    source: ast.SourceFile,
    transform: str,
    routine: str | None,
    nest_index: int,
) -> tuple[ast.SourceFile, NestSite]:
    """Structurize ``source`` and pick the ``nest_index``-th site (in
    program order, optionally restricted to ``routine``) of the
    ``transform`` pass's site finder."""
    entry = PASSES[transform]
    noun, unit = _SITE_NOUNS[entry.sites]
    structured = structurize_program(source)
    sites = entry.sites(structured)
    if routine is not None:
        sites = [site for site in sites if site.routine == routine]
    if not sites:
        raise TransformError(f"no {entry.what} {noun} found")
    if not 0 <= nest_index < len(sites):
        raise TransformError(
            f"{unit} index {nest_index} out of range (found {len(sites)} {unit}s)"
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
    from .flatten import flatten_loop_nest
    from .simdize import simdize_structured

    structured, site = _locate_nest(source, "flatten", routine, nest_index)
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
    from .coalesce import coalesce_nest

    structured, site = _locate_nest(source, "coalesce", routine, nest_index)
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

    structured, site = _locate_nest(source, "fission", routine, nest_index)
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

    structured, site = _locate_nest(source, "interchange", routine, nest_index)
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

    structured, site = _locate_nest(source, "spmd", routine, nest_index)
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
    from .simdize import simdize_nest

    structured, site = _locate_nest(source, "simdize", routine, nest_index)
    replacement = simdize_nest(site.stmt, nproc, layout)
    return _replace_stmt(structured, site.routine, site.index, replacement)


@dataclass(frozen=True)
class Pass:
    """One nest transform of the compile pipeline."""

    name: str  #: the ``transform`` option value
    #: this module's whole-program function, looked up at call time so a
    #: wrapper on the module attribute sees every call (None: run as written)
    function: str | None = None
    what: str = ""  #: adjective of the "no ... found" rejection
    #: CompileOptions fields passed to ``function``; the others are reset
    #: to their defaults, so requests differing only there share an artifact
    reads: tuple[str, ...] = ()
    requires: tuple[str, ...] = ()  #: fields that must not be None
    sites: Callable = find_nest_sites  #: the site finder of :func:`_locate_nest`


_SITE = ("routine", "nest_index")
_SIMD = ("width", "layout")
_FLATTEN = ("variant", "assume_min_trips", "simd")

#: Every nest transform the Engine and CLI understand, by name.
PASSES = {
    entry.name: entry
    for entry in (
        Pass("none"),
        Pass("flatten", "_flatten_program_uncached", "flattenable", _FLATTEN + _SITE),
        Pass("simdize", "naive_simd_program", "SIMDizable", _SIMD + _SITE, ("width",)),
        Pass("coalesce", "coalesce_program", "coalescible", _SITE),
        Pass(
            "spmd", "spmd_program", "partitionable",
            _SIMD + _FLATTEN + ("assume_parallel",) + _SITE, ("width",),
        ),
        Pass("fission", "fission_program", "distributable", _SITE,
             sites=find_loop_sites),
        Pass("interchange", "interchange_program", "interchangeable", _SITE),
    )
}

#: Option fields whose pass-function parameter has another name.
_PARAMETERS = {"width": "nproc"}


def apply_pass(source: ast.SourceFile, options) -> ast.SourceFile:
    """Apply the pass ``options.transform`` names to a parsed program,
    passing it the option fields its table entry reads."""
    entry = PASSES[options.transform]
    if entry.function is None:
        return source
    function = globals()[entry.function]
    arguments = {
        _PARAMETERS.get(name, name): getattr(options, name) for name in entry.reads
    }
    return function(source, **arguments)
