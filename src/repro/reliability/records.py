"""Framed records: the one on-disk format of both durable stores.

:class:`~repro.runtime.store.ArtifactStore` and
:class:`~repro.reliability.checkpoint.CheckpointStore` differ only in
the format tag, the header fields they add and where files live.  A
record is one JSON header line, then the pickled payload::

    {"format": <tag>, <fields>..., "sha256": <payload digest>,
     "payload_bytes": N, <trailing fields>...}\n<pickled payload>

A write goes to a temporary name in the target directory, is fsynced,
then published with ``os.replace``: readers see nothing or a whole
record, and concurrent writers of one name both succeed.  A read
checks ``payload_bytes`` and the digest *before* the unpickler sees
the payload, so a torn or bit-flipped file is corruption, never an
executed pickle (the digest sits in the same file: it stops accidents,
not a writer who forges both).  This is the only module of the package
that imports :mod:`pickle`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile

#: What :func:`write_record` raises for a payload it cannot encode.
EncodeError = pickle.PicklingError


def decode_payload(blob: bytes):
    """The object of payload bytes that passed the length and digest
    checks; never call it on others."""
    return pickle.loads(blob)


def write_record(path: str, header: dict, payload, trailer: dict | None = None):
    """Atomically publish ``payload`` at ``path``; returns ``path``.

    The header line holds ``header``, then the payload's ``sha256`` and
    ``payload_bytes``, then ``trailer``, in that key order; values JSON
    cannot encode are written as their ``str``.  The directory is
    created if missing.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    fields = {
        **header,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "payload_bytes": len(blob),
        **(trailer or {}),
    }
    data = json.dumps(fields, default=str).encode() + b"\n" + blob
    directory, name = os.path.split(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=f".tmp-{name}-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    return path


def read_record(path: str, tag: str, error: type, kind: type):
    """Validate one record file; returns ``(header, payload)``.

    Every failure raises the caller's ``error`` class: an unreadable
    file, a missing or malformed header line, a ``format`` other than
    ``tag``, a payload of the wrong length or digest, an unloadable
    payload, or one that is not a ``kind``.  A missing file raises
    ``FileNotFoundError``, so a caller can tell a miss from corruption.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise error(f"{path}: unreadable: {exc}") from exc
    newline = blob.find(b"\n")
    if newline < 0:
        raise error(f"{path}: truncated header")
    try:
        header = json.loads(blob[:newline].decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise error(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != tag:
        raise error(
            f"{path}: not a {tag} file "
            f"(format={header.get('format') if isinstance(header, dict) else None!r})"
        )
    payload = blob[newline + 1:]
    expected = header.get("payload_bytes")
    if not isinstance(expected, int) or len(payload) != expected:
        raise error(
            f"{path}: truncated payload "
            f"({len(payload)} bytes, header says {expected})"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise error(f"{path}: digest mismatch (content corrupted)")
    try:
        obj = decode_payload(payload)
    except Exception as exc:  # digest-valid yet unloadable payload
        raise error(f"{path}: unloadable payload: {exc}") from exc
    if not isinstance(obj, kind):
        raise error(
            f"{path}: payload is {type(obj).__name__}, not a {kind.__name__}"
        )
    return header, obj


__all__ = ["EncodeError", "decode_payload", "read_record", "write_record"]
