"""Shared-memory plumbing for the process-parallel backend.

Large numpy inputs (pairlists, coordinate arrays) must not be copied
once per worker: a pmimd run of W workers over an MD pairlist would
otherwise pay W pickles of the biggest buffer in the problem.  An
:class:`ShmArena` moves every large array binding into a POSIX
shared-memory segment once, and hands workers lightweight
:class:`SharedArraySpec` descriptors; :func:`attach` maps a spec back
into a zero-copy numpy view on the worker side.

Ownership is strictly parent-side: the arena that created the
segments unlinks them (context-manager or explicit
:meth:`ShmArena.close`).  Python's ``resource_tracker`` is one process
per parent, and forked workers inherit it: the arena makes sure it is
running before it creates a segment, so workers forked afterwards talk
to that same tracker.  On 3.11 ``SharedMemory(name=...)`` registers the
segment it attaches; the tracker keeps a *set* of names, so a worker's
registration of a name the arena already registered changes nothing,
and the tracker never unlinks a segment when a worker exits.  Workers
must therefore not unregister what they attach — that would drop the
arena's own registration, and the arena's later ``unlink`` would make
the tracker print a ``KeyError`` traceback for the segment.

Workers treat attached arrays as read-only inputs.  This is safe by
construction: the scalar interpreter's DECL copies plain-ndarray
bindings into a fresh private ``FArray`` before the program can write
to them, so SPMD programs never mutate the shared segment.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

#: Arrays at or above this many bytes move into shared memory; smaller
#: ones ride the pickle (a segment costs a file descriptor + mmap, so
#: tiny arrays are cheaper to copy).
SHM_THRESHOLD_BYTES = 4096


@dataclass(frozen=True)
class SharedArraySpec:
    """A picklable descriptor of one array living in a shared segment.

    Attributes:
        segment: POSIX shared-memory segment name.
        name: Binding (variable) name the array belongs to.
        shape: Array shape.
        dtype: numpy dtype string (``"float64"``...).
    """

    segment: str
    name: str
    shape: tuple[int, ...]
    dtype: str


def attach(spec: SharedArraySpec):
    """Map a spec into a numpy view; returns ``(array, segment)``.

    The caller must keep the returned segment object alive as long as
    the array view is used, and ``close()`` (never ``unlink()``) it
    afterwards — the creating arena owns the segment's lifetime.  Call
    it in the arena's process or in one forked from it after the
    segment was shared, so the attach registers with the arena's
    resource tracker (see the module docstring).
    """
    segment = shared_memory.SharedMemory(name=spec.segment)
    array = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
    )
    return array, segment


class ShmArena:
    """Parent-side owner of the shared segments for one pmimd run.

    Usage::

        with ShmArena() as arena:
            light, specs = arena.share_bindings(bindings)
            # fork workers; each worker attaches the specs
        # segments unlinked here

    Args:
        threshold_bytes: Arrays smaller than this stay in the pickled
            bindings instead of moving to shared memory.
    """

    def __init__(self, threshold_bytes: int = SHM_THRESHOLD_BYTES):
        self.threshold_bytes = threshold_bytes
        self._segments: list[shared_memory.SharedMemory] = []
        self._closed = False

    def share_array(self, name: str, array: np.ndarray) -> SharedArraySpec:
        """Copy one array into a fresh shared segment; return its spec."""
        source = np.ascontiguousarray(array)
        # Workers forked after this point must inherit a running
        # tracker rather than start their own (see the module docstring).
        resource_tracker.ensure_running()
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, source.nbytes)
        )
        self._segments.append(segment)
        view = np.ndarray(source.shape, dtype=source.dtype, buffer=segment.buf)
        view[...] = source
        return SharedArraySpec(
            segment=segment.name,
            name=name,
            shape=tuple(source.shape),
            dtype=source.dtype.str,
        )

    def share_bindings(self, bindings: dict) -> tuple[dict, list[SharedArraySpec]]:
        """Split bindings into (small picklable dict, shared specs).

        Plain ndarrays and FArray-like values (``.name/.shape/.data``)
        at or above the threshold move into shared memory; everything
        else stays in the returned light dict unchanged.  Workers merge
        the attached arrays back under their binding names — DECL's
        defensive copy then gives each processor its private storage.
        """
        light: dict = {}
        specs: list[SharedArraySpec] = []
        for name, value in bindings.items():
            data = getattr(value, "data", None)
            if (
                data is not None
                and isinstance(data, np.ndarray)
                and data.nbytes >= self.threshold_bytes
            ):
                specs.append(self.share_array(name, data))
            elif (
                isinstance(value, np.ndarray)
                and value.nbytes >= self.threshold_bytes
            ):
                specs.append(self.share_array(name, value))
            else:
                light[name] = value
        return light, specs

    def close(self) -> None:
        """Unlink every segment this arena created (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            with contextlib.suppress(Exception):
                segment.close()
            with contextlib.suppress(Exception):
                segment.unlink()
        self._segments.clear()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # last-resort cleanup; close() is the contract
        with contextlib.suppress(Exception):
            self.close()
