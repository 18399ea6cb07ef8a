"""Runtime value model shared by the MiniF interpreters.

Values are:

* Python/numpy scalars — host (front-end / ACU) values;
* 1-D numpy arrays of length ``P`` — per-processor replicated values
  on the lockstep SIMD machine (the paper's default for F90simd scalars);
* 2-D numpy arrays of shape ``(P, k)`` — sections of arrays whose
  trailing dimension is laid out serially in PE memory (the paper's
  "memory layers");
* :class:`FArray` — a declared Fortran array with 1-based indexing.
"""

from __future__ import annotations

import numpy as np

from ..lang.errors import InterpreterError
from ..reliability.errors import OutOfBoundsFault

#: numpy dtypes for the MiniF base types.
DTYPES = {
    "integer": np.int64,
    "real": np.float64,
    "logical": np.bool_,
}


def dtype_for(base_type: str):
    """The numpy dtype for a MiniF base type name."""
    try:
        return DTYPES[base_type]
    except KeyError:
        raise InterpreterError(f"unknown base type '{base_type}'") from None


def check_bounds(name: str, extent: int, dim: int, index) -> None:
    """Bounds-check a (scalar or vector) 1-based subscript of dimension
    ``dim`` (0-based) of array ``name``; raise :class:`OutOfBoundsFault`
    naming the first offender."""
    idx = np.asarray(index)
    if idx.size == 0:
        return
    if idx.ndim:
        # min/max reductions allocate nothing; the offender scan
        # only runs on the error path.
        if int(idx.min()) >= 1 and int(idx.max()) <= extent:
            return
        bad = (idx < 1) | (idx > extent)
        offender = int(idx.flat[np.argmax(bad)])
    else:
        offender = int(idx)
        if 1 <= offender <= extent:
            return
    raise OutOfBoundsFault(
        f"subscript {offender} out of bounds for dimension "
        f"{dim + 1} of '{name}' (extent {extent})"
    )


class FArray:
    """A Fortran array: 1-based indexing over a fixed shape.

    The underlying storage is a numpy array of the same shape; helper
    methods translate Fortran subscripts (scalars, vectors of lane
    indices, or slices) into numpy indexing.
    """

    __slots__ = ("name", "shape", "data")

    def __init__(
        self,
        name: str,
        shape: tuple[int, ...],
        base_type: str = "real",
        *,
        fill: bool = True,
    ):
        for extent in shape:
            if extent < 0:
                raise InterpreterError(f"array '{name}' has negative extent {extent}")
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        dtype = dtype_for(base_type)
        # ``fill=False`` skips the zero fill for callers that overwrite
        # every element immediately (e.g. interpreter DECLs with a full
        # binding) — large pairlists would otherwise be touched twice.
        self.data = (
            np.zeros(self.shape, dtype=dtype) if fill else np.empty(self.shape, dtype)
        )

    @classmethod
    def wrap(cls, name: str, data: np.ndarray) -> "FArray":
        """Adopt ``data`` as the storage of a new FArray — no copy.

        The caller transfers ownership: binding a wrapped array to a
        kernel means the kernel reads (and writes!) the caller's
        buffer directly, skipping the defensive copy a plain-ndarray
        binding gets at DECL.  Use for large read-only inputs such as
        pairlists.
        """
        array = cls.__new__(cls)
        array.name = name
        array.shape = tuple(int(s) for s in data.shape)
        array.data = data
        return array

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    def check_subscript(self, dim: int, index) -> None:
        """Bounds-check a (scalar or vector) 1-based subscript."""
        check_bounds(self.name, self.shape[dim], dim, index)

    def np_index(self, subs: list, clamp: bool = False) -> tuple:
        """Translate checked 1-based subscripts into a numpy index tuple.

        With ``clamp=True``, out-of-range subscripts are clamped into
        the extent instead of raising.  A lockstep machine still
        *issues* WHERE-masked statements when every lane is inactive;
        the addresses such an issue computes may be garbage and must
        not trap (no active PE consumes the load, and masked stores
        write nothing).  Zero-extent dimensions cannot be clamped and
        keep the checked behaviour.
        """
        if len(subs) != self.rank:
            raise InterpreterError(
                f"'{self.name}' has rank {self.rank}, got {len(subs)} subscripts"
            )
        out = []
        for dim, sub in enumerate(subs):
            if type(sub) is int:
                # Host-int fast path (the scalar interpreter's common
                # case): same result as the numpy path below, without
                # its array round trips.  Faults keep check_subscript's
                # text.
                extent = self.shape[dim]
                if 1 <= sub <= extent:
                    out.append(sub - 1)
                elif clamp and extent >= 1:
                    out.append(min(max(sub, 1), extent) - 1)
                else:
                    self.check_subscript(dim, sub)
            elif isinstance(sub, slice):
                out.append(sub)
            elif clamp and self.shape[dim] >= 1:
                arr = np.asarray(sub)
                clamped = np.clip(arr, 1, self.shape[dim])
                out.append(clamped - 1 if arr.ndim else int(clamped) - 1)
            else:
                self.check_subscript(dim, sub)
                arr = np.asarray(sub)
                out.append(arr - 1 if arr.ndim else int(arr) - 1)
        return tuple(out)

    def __repr__(self) -> str:
        return f"FArray({self.name!r}, shape={self.shape})"


def align_mask(mask, value_ndim: int):
    """Reshape a (P,) mask so it broadcasts against a (P, k, ...) value."""
    if isinstance(mask, bool) or mask is None:
        return mask
    mask = np.asarray(mask)
    while mask.ndim < value_ndim:
        mask = mask[..., None]
    return mask


def is_vector(value) -> bool:
    """True for per-PE vector values (1-D numpy arrays)."""
    return isinstance(value, np.ndarray) and value.ndim >= 1


def as_bool_scalar(value, what: str = "condition"):
    """Coerce a value to a host boolean; vectors must be uniform.

    Implements the paper's rule that a WHILE may be controlled by an
    array of booleans only when all elements are guaranteed equal.
    """
    if isinstance(value, np.ndarray):
        if value.size == 0:
            raise InterpreterError(f"{what} is empty")
        first = value.flat[0]
        if not np.all(value == first):
            raise InterpreterError(
                f"{what} is vector-valued with differing elements; "
                "use ANY()/ALL() or a WHERE guard"
            )
        return bool(first)
    return bool(value)


def as_int_scalar(value, what: str = "value") -> int:
    """Coerce to a host integer; vectors must be uniform (ACU requirement)."""
    if isinstance(value, np.ndarray):
        first = value.flat[0]
        if not np.all(value == first):
            raise InterpreterError(
                f"{what} must be uniform across processors on a SIMD machine"
            )
        return int(first)
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and not float(value).is_integer():
        raise InterpreterError(f"{what} is not an integer: {value}")
    if isinstance(value, FArray):
        raise InterpreterError(f"{what} is the whole array '{value.name}', not a scalar")
    return int(value)


def element_width(value) -> int:
    """Number of scalar elements an operation over ``value`` touches."""
    if isinstance(value, np.ndarray):
        return int(value.size)
    return 1


def serial_layers(value) -> int:
    """How many serial memory layers a value spans (trailing dims)."""
    if isinstance(value, np.ndarray) and value.ndim >= 2:
        layers = 1
        for extent in value.shape[1:]:
            layers *= extent
        return layers
    return 1
