"""One shared vocabulary for transformation options.

Every user-facing knob of the transformation pipeline is a field of
:class:`CompileOptions`, so ``simdize_nest``, ``coalesce_nest``, the
CLI, ``repro serve`` and :class:`repro.runtime.Engine` all speak the
same names:

``transform``
    Which rewrite to apply to the located loop nest: a name in the
    pass table :data:`repro.transform.pipeline.PASSES`, which also
    says which other fields each transform reads and requires.

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

from dataclasses import dataclass, fields
from numbers import Integral

from ..lang.errors import TransformError
from .pipeline import PASSES

#: Canonical flattening strengths, strongest precondition first.
VARIANTS = ("general", "optimized", "done", "auto")

#: Canonical data layouts for SIMDization.
LAYOUTS = ("block", "cyclic")

#: Canonical nest transforms understood by the Engine and CLI.
TRANSFORMS = tuple(PASSES)


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


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise TransformError(f"{name} must be a bool, got {type(value).__name__}")
    return value


def _count(value, name: str, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TransformError(f"{name} must be an int, got {type(value).__name__}")
    if value < low:
        raise TransformError(f"{name} {value} out of range (must be >= {low})")
    return int(value)


def _routine(value, name: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TransformError(f"{name} must be a string, got {type(value).__name__}")
    return value


#: How :meth:`CompileOptions.fold` validates a given value, per field.
_CHECKS = {
    "transform": lambda value, _name: normalize_transform(value),
    "variant": lambda value, _name: normalize_variant(value),
    "simd": _flag,
    "assume_min_trips": _flag,
    "assume_parallel": _flag,
    "routine": _routine,
    "nest_index": lambda value, name: _count(value, name, 0),
    "layout": lambda value, _name: normalize_layout(value),
    "width": lambda value, name: None if value is None else _count(value, name, 1),
}


@dataclass(frozen=True)
class CompileOptions:
    """Normalized, hashable compile settings — the cache key's second half.

    Build one with :meth:`fold`.  The pass table
    :data:`repro.transform.pipeline.PASSES` says which fields each
    transform reads and requires.

    Attributes:
        transform: The pass to apply (``"none"`` runs the program as
            written).
        variant: Flattening strength.
        simd: Derive the F90simd form of the flattened region.
        assume_min_trips: Caller-asserted paper condition 2.
        assume_parallel: Caller-asserted outer-loop parallelism
            (overrides the Section 6 dependence test).
        routine: Restrict the site search to one routine.
        nest_index: Which site (program order) to transform.
        layout: Data distribution of a SIMDized program.
        width: PE count baked into a SIMDized program text
            (partitioned texts hard-code the machine width into the
            generated per-PE loop bounds).
    """

    transform: str = "none"
    variant: str = "auto"
    simd: bool = True
    assume_min_trips: bool = False
    assume_parallel: bool = False
    routine: str | None = None
    nest_index: int = 0
    layout: str = "block"
    width: int | None = None

    @classmethod
    def fold(cls, **settings) -> CompileOptions:
        """Validate ``settings`` into one :class:`CompileOptions`.

        Every given value is checked (a wrong type or an unknown
        spelling raises :class:`~repro.lang.errors.TransformError`),
        then the fields the chosen pass does not read are reset to
        their defaults, so requests that build the same artifact share
        one cache entry.  An unknown field name raises ``TypeError``.
        """
        unknown = sorted(set(settings) - set(OPTION_FIELDS))
        if unknown:
            raise TypeError(f"unknown compile option(s): {', '.join(unknown)}")
        checked = {
            name: _CHECKS[name](settings[name], name)
            for name in OPTION_FIELDS
            if name in settings
        }
        entry = PASSES[checked.pop("transform", "none")]
        options = cls(
            transform=entry.name,
            **{name: value for name, value in checked.items() if name in entry.reads},
        )
        for name in entry.requires:
            if getattr(options, name) is None:  # only width is required
                raise TransformError(f"transform='{entry.name}' needs {name}=<PE count>")
        return options


#: The compile option names, in declaration order.
OPTION_FIELDS = tuple(field.name for field in fields(CompileOptions))
