"""Code transformations: normalization, loop flattening, SIMDizing,
and the loop-coalescing baseline."""

from .coalesce import coalesce_nest
from .flatten import (
    FreshNames,
    LoopNest,
    extract_nest,
    flatten_deep,
    flatten_done,
    flatten_general,
    flatten_loop_nest,
    flatten_optimized,
    introduce_guards,
)
from .normalize import (
    NormalizedLoop,
    is_loop,
    normalize_do,
    normalize_loop,
    normalize_while,
    raise_counted_loops,
    raise_goto_loops,
)
from .fission import fission_loop
from .interchange import interchange_loops
from .pipeline import (
    NestSite,
    find_loop_sites,
    find_nest_sites,
    fission_program,
    interchange_program,
    naive_simd_program,
    spmd_program,
    structurize_program,
)
from .simdize import simdize_nest, simdize_structured
from .simplify import simplify_expr, simplify_program, simplify_stmts

__all__ = [
    "NormalizedLoop",
    "normalize_loop",
    "normalize_do",
    "normalize_while",
    "raise_goto_loops",
    "raise_counted_loops",
    "is_loop",
    "LoopNest",
    "FreshNames",
    "extract_nest",
    "introduce_guards",
    "flatten_general",
    "flatten_optimized",
    "flatten_done",
    "flatten_loop_nest",
    "flatten_deep",
    "simdize_structured",
    "simdize_nest",
    "simplify_expr",
    "simplify_stmts",
    "simplify_program",
    "coalesce_nest",
    "find_nest_sites",
    "find_loop_sites",
    "NestSite",
    "fission_loop",
    "fission_program",
    "interchange_loops",
    "interchange_program",
    "naive_simd_program",
    "spmd_program",
    "structurize_program",
]
