"""One shared vocabulary for transformation options.

Every user-facing knob of the transformation pipeline funnels through
this module so that ``simdize_nest``, ``coalesce_nest``, the CLI,
and :class:`repro.runtime.Engine` all speak the same names:

``transform``
    Which rewrite to apply to the located loop nest:
    ``"none"`` (run the program as written), ``"flatten"`` (the
    paper's loop flattening, Figs. 10-12), ``"simdize"`` (the naive
    Section 3 SIMDization baseline), ``"coalesce"`` (the related-work
    loop-coalescing baseline), ``"spmd"`` (partition the outer loop
    across the PEs, then flatten and SIMDize — the full Fig. 15
    pipeline of :func:`repro.transform.parallel.flatten_spmd`),
    ``"fission"`` (distribute one loop along its dependence graph's
    SCC condensation, :func:`repro.transform.fission.fission_loop`),
    or ``"interchange"`` (swap a perfect rectangular 2-nest when no
    ``(<, >)`` direction vector forbids it,
    :func:`repro.transform.interchange.interchange_loops`).

``variant``
    Flattening strength: ``"general"`` (Fig. 10), ``"optimized"``
    (Fig. 11, needs condition 2), ``"done"`` (Fig. 12, needs
    condition 3), or ``"auto"`` (strongest variant whose
    preconditions hold).

``layout``
    Data distribution for SIMDization: ``"block"`` (CM-2 style
    contiguous slices) or ``"cyclic"`` (DECmpp style cut-and-stack).

Each option has exactly one accepted spelling per value (matched
case-insensitively, surrounding blanks ignored); anything else raises
:class:`~repro.lang.errors.TransformError` listing the canonical
choices.
"""

from __future__ import annotations

from ..lang.errors import TransformError

#: Canonical flattening strengths, strongest precondition first.
VARIANTS = ("general", "optimized", "done", "auto")

#: Canonical data layouts for SIMDization.
LAYOUTS = ("block", "cyclic")

#: Canonical nest transforms understood by the Engine and CLI.
TRANSFORMS = (
    "none",
    "flatten",
    "simdize",
    "coalesce",
    "spmd",
    "fission",
    "interchange",
)


def _normalize(value, what: str, canonical: tuple) -> str:
    if not isinstance(value, str):
        raise TransformError(f"{what} must be a string, got {type(value).__name__}")
    name = value.strip().lower()
    if name in canonical:
        return name
    choices = ", ".join(repr(c) for c in canonical)
    raise TransformError(f"unknown {what} {value!r} (choose from {choices})")


def normalize_variant(variant: str) -> str:
    """Resolve a flattening-variant spelling to its canonical name."""
    return _normalize(variant, "flattening variant", VARIANTS)


def normalize_layout(layout: str) -> str:
    """Resolve a data-layout spelling to its canonical name."""
    return _normalize(layout, "layout", LAYOUTS)


def normalize_transform(transform: str | None) -> str:
    """Resolve a nest-transform spelling to its canonical name."""
    if transform is None:
        return "none"
    return _normalize(transform, "transform", TRANSFORMS)
