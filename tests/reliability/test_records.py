"""The framed-record codec behind ArtifactStore and CheckpointStore.

Both stores read through :func:`repro.reliability.records.read_record`,
so every corruption case runs against both, through their public
``load_file``, and must raise the store's own error type.
"""

import ast
import hashlib
import json
import pathlib
import pickle

import pytest

import repro
from repro.reliability import records
from repro.reliability.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)
from repro.runtime.store import ArtifactError, ArtifactStore


def _artifact_store(tmp_path):
    store = ArtifactStore(str(tmp_path))
    path = store.save("ab" * 32, {"tree": [1, 2, 3]})
    return store, path, ArtifactError, [1, 2, 3]


def _checkpoint_store(tmp_path):
    store = CheckpointStore(str(tmp_path))
    path = store.save("run", Checkpoint(backend="scalar", step=3, pc=1, env={}))
    return store, path, CheckpointError, {"not": "a checkpoint"}


def _reframed(header: bytes, payload: bytes, **changes) -> bytes:
    """``header`` with a matching ``sha256`` and ``payload_bytes`` (then
    ``changes``) over ``payload``."""
    fields = json.loads(header)
    fields["sha256"] = hashlib.sha256(payload).hexdigest()
    fields["payload_bytes"] = len(payload)
    fields.update(changes)
    return json.dumps(fields).encode() + b"\n" + payload


#: case -> (rewrite(header, payload, wrong-type payload), message).
CASES = {
    "no-newline": (lambda h, p, w: h, "truncated header"),
    "header-not-json": (lambda h, p, w: b"{format: v1\n" + p, "malformed header"),
    "header-not-a-dict": (lambda h, p, w: b"[1, 2]\n" + p, "not a repro.* file"),
    "foreign-format": (
        lambda h, p, w: _reframed(h, p, format="repro.other/v1"),
        "not a repro.* file .format='repro.other/v1'",
    ),
    "payload-too-short": (lambda h, p, w: h + b"\n" + p[:-1], "truncated payload"),
    "payload-too-long": (lambda h, p, w: h + b"\n" + p + b"\0", "truncated payload"),
    "sha256-mismatch": (
        lambda h, p, w: _reframed(h, p, sha256="0" * 64),
        "digest mismatch",
    ),
    "unloadable": (
        lambda h, p, w: _reframed(h, b"digest-valid, but no pickle"),
        "unloadable payload",
    ),
    "wrong-type": (
        lambda h, p, w: _reframed(h, pickle.dumps(w)),
        "payload is (list|dict), not a (dict|Checkpoint)",
    ),
}

#: Cases whose payload passes the length and digest checks.
DECODED = {"unloadable", "wrong-type"}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize(
    "make", [_artifact_store, _checkpoint_store], ids=["artifact", "checkpoint"]
)
def test_corrupt_record_raises_the_store_error(tmp_path, monkeypatch, make, case):
    store, path, error, wrong = make(tmp_path)
    header, _, payload = pathlib.Path(path).read_bytes().partition(b"\n")
    rewrite, message = CASES[case]
    pathlib.Path(path).write_bytes(rewrite(header, payload, wrong))
    decoded = []

    def spy(blob):
        decoded.append(blob)
        return pickle.loads(blob)

    monkeypatch.setattr(records, "decode_payload", spy)
    with pytest.raises(error, match=message):
        store.load_file(path)
    # Only a payload of the right length and digest is ever decoded.
    assert bool(decoded) == (case in DECODED)


def test_headers_keep_their_key_order(tmp_path):
    """Files written before the codec existed have these headers."""
    artifact = ArtifactStore(str(tmp_path / "a")).save(
        "ab" * 32, {"x": 1}, meta={"source_sha": "cd" * 32, "transform": "none"}
    )
    checkpoint = _checkpoint_store(tmp_path / "c")[1]
    header, _ = records.read_record(artifact, "repro.artifact/v1", ArtifactError, dict)
    assert list(header) == [
        "format", "digest", "sha256", "payload_bytes", "source_sha", "transform",
    ]
    header, _ = records.read_record(
        checkpoint, "repro.checkpoint/v1", CheckpointError, Checkpoint
    )
    assert list(header) == [
        "format", "key", "generation", "step", "backend", "sha256", "payload_bytes",
    ]


def test_pickle_is_imported_by_the_records_module_only():
    root = pathlib.Path(repro.__file__).parent
    importers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in ("pickle", "_pickle") for name in names):
                importers.add(path.relative_to(root).as_posix())
    assert importers == {"reliability/records.py"}


@pytest.mark.parametrize(
    "module", ["runtime/store.py", "runtime/engine.py", "reliability/checkpoint.py"]
)
def test_store_modules_leave_the_payload_encoding_to_the_codec(module):
    text = (pathlib.Path(repro.__file__).parent / module).read_text()
    assert "pickle" not in text.lower()
