"""Failure corpus: persist, list and replay fuzz findings.

Each failure is one JSON file (``fuzz-<seed>-<index>.json``) carrying
everything needed to reproduce it offline: the campaign coordinates,
the full program text and bindings, the divergence (kind, leg,
detail), the shrunk reproducer when the reducer ran, and the
:mod:`repro.reliability` crash dump when the leg faulted.  Replaying
an entry re-runs the differential oracle on the stored program and
reports whether the same leg still diverges — corpus files double as
regression tests once a bug is fixed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .generator import GeneratedProgram
from .oracle import DifferentialOracle, Divergence

SCHEMA = "repro-fuzz-corpus/1"


@dataclass
class CorpusEntry:
    """One persisted failure."""

    seed: int
    index: int
    program: GeneratedProgram
    divergence: Divergence
    shrunk: GeneratedProgram | None = None
    schema: str = SCHEMA

    @property
    def name(self) -> str:
        return f"fuzz-{self.seed}-{self.index}"


def _bindings_to_json(bindings: dict) -> dict:
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else int(value)
        for name, value in bindings.items()
    }


def _bindings_from_json(data: dict) -> dict:
    return {
        name: np.array(value, dtype=np.int64)
        if isinstance(value, list)
        else int(value)
        for name, value in data.items()
    }


def _program_to_json(prog: GeneratedProgram) -> dict:
    return {
        "source": prog.source,
        "bindings": _bindings_to_json(prog.bindings),
        "features": list(prog.features),
        "trip_counts": list(prog.trip_counts),
        "outer_trips": prog.outer_trips,
        "min_trips_ok": prog.min_trips_ok,
        "partitionable": prog.partitionable,
    }


def _program_from_json(data: dict, seed: int, index: int) -> GeneratedProgram:
    return GeneratedProgram(
        seed=seed,
        index=index,
        source=data["source"],
        bindings=_bindings_from_json(data["bindings"]),
        features=tuple(data["features"]),
        trip_counts=tuple(data["trip_counts"]),
        outer_trips=data["outer_trips"],
        min_trips_ok=data["min_trips_ok"],
        partitionable=data["partitionable"],
    )


def save_entry(corpus_dir: str | Path, entry: CorpusEntry) -> Path:
    """Write one failure to ``corpus_dir``; returns the file path."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": entry.schema,
        "seed": entry.seed,
        "index": entry.index,
        "divergence": {
            "kind": entry.divergence.kind,
            "config": entry.divergence.config,
            "detail": entry.divergence.detail,
            "crash_dump": entry.divergence.crash_dump,
        },
        "program": _program_to_json(entry.program),
    }
    if entry.shrunk is not None:
        payload["shrunk"] = _program_to_json(entry.shrunk)
    path = directory / f"{entry.name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def load_entry(path: str | Path) -> CorpusEntry:
    """Read one failure back from disk."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unknown corpus schema {data.get('schema')!r}"
        )
    seed, index = int(data["seed"]), int(data["index"])
    div = data["divergence"]
    entry = CorpusEntry(
        seed=seed,
        index=index,
        program=_program_from_json(data["program"], seed, index),
        divergence=Divergence(
            kind=div["kind"],
            config=div["config"],
            detail=div["detail"],
            crash_dump=div.get("crash_dump"),
        ),
    )
    if "shrunk" in data:
        entry.shrunk = _program_from_json(data["shrunk"], seed, index)
    return entry


def iter_corpus(corpus_dir: str | Path):
    """Yield every :class:`CorpusEntry` under ``corpus_dir``, sorted."""
    directory = Path(corpus_dir)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("fuzz-*.json")):
        yield load_entry(path)


def replay_entry(
    entry: CorpusEntry,
    nproc: int = 4,
    oracle: DifferentialOracle | None = None,
) -> Divergence | None:
    """Re-run the oracle on a stored failure (shrunk form if present).

    Returns the divergence observed on the originally-failing leg, or
    None when the bug no longer reproduces.  The default oracle runs
    the opt-in legs (pmimd) the entry's leg needs.
    """
    if oracle is None:
        oracle = DifferentialOracle.for_leg(entry.divergence.config, nproc)
    program = entry.shrunk if entry.shrunk is not None else entry.program
    return oracle.check_leg(program, entry.divergence.config)
