"""Differential fuzzing + translation validation for the transforms.

The paper's whole value proposition is semantic equivalence: the
flattened SIMD program (Figs. 10-12) must compute exactly what the
original nest computes, under the safety preconditions of Section 6.
This package hunts for violations systematically:

* :mod:`repro.fuzz.generator` — a seeded, deterministic generator of
  random-but-well-formed MiniF loop nests (trip-count shapes,
  triangular/indirect bounds, guards, depth-3 nests, reductions, edge
  trip counts 0/1/N), each with concrete bindings and ground-truth
  metadata (actual trip counts, partitionability).
* :mod:`repro.fuzz.oracle` — the differential oracle: every row of its
  leg table (a transform variant x backend x comparison) that applies
  to a program must agree with the sequential reference on the
  observable state; a disagreement is a transform or backend bug, and
  an applicability report that promises what the transform rejects
  (or calls a serializing loop parallel) is a safety-checker gap.
* :mod:`repro.fuzz.twin` — a tree-walking lockstep interpreter, the
  VM's test-only twin that the lockstep legs hold it to.
* :mod:`repro.fuzz.invariants` — per-run translation validation:
  guard-flag monotonicity, per-lane work against Eq. 1, and total
  useful-iteration conservation (the VM checks mask-stack balance
  natively).
* :mod:`repro.fuzz.reduce` — a delta-debugging reducer that shrinks a
  failing program to a minimal reproducer.
* :mod:`repro.fuzz.corpus` — failure persistence: seed, program,
  bindings, divergence and crash dump as a replayable JSON entry.
* :mod:`repro.fuzz.session` — the campaign driver behind
  ``repro fuzz --seed S --iterations N``.
"""

from .corpus import CorpusEntry, load_entry, replay_entry, save_entry
from .generator import GeneratedProgram, GenConfig, ProgramGenerator
from .oracle import DifferentialOracle, Divergence, ProgramVerdict
from .reduce import shrink_program
from .session import FuzzReport, run_fuzz

__all__ = [
    "CorpusEntry",
    "DifferentialOracle",
    "Divergence",
    "FuzzReport",
    "GenConfig",
    "GeneratedProgram",
    "ProgramGenerator",
    "ProgramVerdict",
    "load_entry",
    "replay_entry",
    "run_fuzz",
    "save_entry",
    "shrink_program",
]
