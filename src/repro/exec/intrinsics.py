"""Intrinsic functions for the MiniF interpreters.

One registry serves every interpreter.  Reductions are *mask-aware*:
the SIMD backend passes the current activity mask so that, e.g.,
``max(pCnt(At1))`` in the paper's Figure 14 reduces over the active
processors only (idle lanes hold stale values that must not leak into
loop bounds).

Calling conventions follow the paper's loose pseudo-Fortran:

* ``MAX``/``MIN`` with two or more arguments are elementwise; with a
  single vector argument they reduce across processors (the paper's
  ``max(L(i'))``).
* ``ANY``/``ALL``/``COUNT``/``SUM``/``MAXVAL``/``MINVAL`` reduce.
"""

from __future__ import annotations

import numpy as np

from ..lang.errors import InterpreterError
from .values import FArray

#: Reduction identities used when no lane is active.
_REDUCE_IDENTITY = {
    "any": False,
    "all": True,
    "count": 0,
    "sum": 0,
    "maxval": None,
    "minval": None,
    "max": None,
    "min": None,
}

#: Intrinsics that reduce a vector to a host scalar.
REDUCTIONS = frozenset({"any", "all", "count", "sum", "maxval", "minval"})


def coerce(value):
    """Unwrap :class:`FArray` into its numpy data for computation."""
    if isinstance(value, FArray):
        return value.data
    return value


def _masked(value, mask):
    """Select the active elements of ``value`` for a reduction.

    ``mask`` is either None (reduce everything) or a boolean vector
    whose length matches the leading axis of per-PE values.
    """
    arr = np.asarray(coerce(value))
    if mask is None or arr.ndim == 0:
        return arr.ravel()
    mask = np.asarray(mask)
    if arr.shape[:1] == mask.shape:
        return arr[mask].ravel()
    return arr.ravel()


def _reduce(name: str, value, mask, empty_error: str):
    selected = _masked(value, mask)
    if selected.size == 0:
        identity = _REDUCE_IDENTITY[name]
        if identity is None:
            raise InterpreterError(empty_error)
        return identity
    if name == "any":
        return bool(np.any(selected))
    if name == "all":
        return bool(np.all(selected))
    if name == "count":
        return int(np.count_nonzero(selected))
    if name == "sum":
        total = selected.sum()
        return float(total) if selected.dtype.kind == "f" else int(total)
    if name in ("maxval", "max"):
        top = selected.max()
        return float(top) if selected.dtype.kind == "f" else int(top)
    if name in ("minval", "min"):
        bottom = selected.min()
        return float(bottom) if selected.dtype.kind == "f" else int(bottom)
    raise InterpreterError(f"unknown reduction '{name}'")


def _elementwise_chain(func, args):
    result = coerce(args[0])
    for arg in args[1:]:
        result = func(result, coerce(arg))
    return result


def call_intrinsic(name: str, args: list, mask=None):
    """Evaluate intrinsic ``name`` on already-evaluated ``args``.

    Args:
        name: Lowercase intrinsic name.
        args: Evaluated argument values.
        mask: Activity mask for reductions (SIMD mode), or None.

    Returns:
        The result value (host scalar or numpy array).
    """
    if name in REDUCTIONS:
        if len(args) != 1:
            raise InterpreterError(f"{name.upper()} takes one argument")
        return _reduce(name, args[0], mask, f"{name.upper()} over empty active set")
    if name in ("max", "min"):
        if not args:
            raise InterpreterError(f"{name.upper()} needs arguments")
        if len(args) == 1:
            value = coerce(args[0])
            if isinstance(value, np.ndarray):
                return _reduce(name, value, mask, f"{name.upper()} over empty active set")
            return value
        func = np.maximum if name == "max" else np.minimum
        return _elementwise_chain(func, args)
    if name == "mod":
        if len(args) != 2:
            raise InterpreterError("MOD takes two arguments")
        return np.mod(coerce(args[0]), coerce(args[1]))
    if name == "merge":
        if len(args) != 3:
            raise InterpreterError("MERGE takes three arguments")
        return np.where(
            np.asarray(coerce(args[2]), dtype=bool), coerce(args[0]), coerce(args[1])
        )
    if name == "size":
        if len(args) != 1:
            raise InterpreterError("SIZE takes one argument")
        value = args[0]
        if isinstance(value, FArray):
            return value.size
        return int(np.asarray(value).size)
    single = {
        "abs": np.abs,
        "sqrt": np.sqrt,
        "exp": np.exp,
        "log": np.log,
        "nint": lambda v: np.rint(v).astype(np.int64),
        "float": lambda v: np.asarray(v, dtype=np.float64)
        if isinstance(v, np.ndarray)
        else float(v),
        "ceiling": lambda v: np.ceil(v).astype(np.int64),
        "floor": lambda v: np.floor(v).astype(np.int64),
        "iand": None,
        "ior": None,
    }
    if name in ("iand", "ior"):
        if len(args) != 2:
            raise InterpreterError(f"{name.upper()} takes two arguments")
        func = np.bitwise_and if name == "iand" else np.bitwise_or
        return func(coerce(args[0]), coerce(args[1]))
    if name in single:
        if len(args) != 1:
            raise InterpreterError(f"{name.upper()} takes one argument")
        result = single[name](coerce(args[0]))
        if isinstance(result, np.ndarray) and result.ndim == 0:
            return result.item()
        return result
    raise InterpreterError(f"unknown intrinsic '{name}'")


def is_reduction_call(name: str, argc: int) -> bool:
    """True when this intrinsic call performs a cross-processor reduction."""
    return name in REDUCTIONS or (name in ("max", "min") and argc == 1)
