"""table1-mimd: the M_seq column on the process-parallel pmimd backend.

The sequential Figure-13 loop on a reduced SOD (600 atoms drawn from
the seed, cutoff 6 Å), atoms block-partitioned over 8 processors that
run on a supervised pool of at most ``nproc`` forked workers.  The
whole pairlist goes in as shared ``bindings``, so ``PMIMDExecutor``
moves it into shared memory on every run; each processor picks its
block from the ``myproc`` it receives.  One operation is one whole
``run``: executor construction, shared-memory set-up and fork fall
inside it, as they do for a user.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.kernels.nbforce import make_scalar_force_external
from repro.md.forces import reference_nbforce
from repro.md.molecule import synthetic_sod
from repro.md.pairlist import build_pairlist
from repro.runtime.engine import Engine

from .common import Outcome, median_ms, peak_rss_mb
from .speed import SpeedProbe
from .table1 import FORCE_RTOL

FULL = {"n_atoms": 600, "cutoff": 6.0, "nproc": 8}
SMALL = {"n_atoms": 400, "cutoff": 3.0, "nproc": 8}

#: Figure 13 over the global arrays: processor ``myproc`` runs atoms
#: ``bounds(myproc) + 1 .. bounds(myproc + 1)``.
KERNEL = """
C NBFORCE - MIMD version, one block of the shared pairlist per processor
PROGRAM nbforce
  INTEGER natoms, nbounds, maxpcnt, at1, at2, prc
  INTEGER pcnt(natoms), partners(natoms, maxpcnt), bounds(nbounds)
  REAL f(natoms), fpair
  DO at1 = bounds(myproc) + 1, bounds(myproc + 1)
    f(at1) = 0.0
    DO prc = 1, pcnt(at1)
      at2 = partners(at1, prc)
      CALL force(fpair, at1, at2)
      f(at1) = f(at1) + fpair
    ENDDO
  ENDDO
END
"""

#: Counter events the scalar interpreter records for KERNEL: per
#: processor the two ``bounds`` loads of the outer DO header; per atom
#: the outer iteration and the inner DO header; per pair the inner
#: iteration, the ``partners`` load, the CALL and the accumulation.
STEPS_PER_PROC = 2
STEPS_PER_ATOM = 2
STEPS_PER_PAIR = 6


def block_bounds(n_atoms: int, nproc: int) -> np.ndarray:
    """``bounds(p) .. bounds(p + 1)``: processor ``p``'s atoms, blocks
    as even as ``np.array_split`` makes them."""
    sizes = [len(block) for block in np.array_split(np.arange(n_atoms), nproc)]
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


def expected_steps(pcnt: np.ndarray, nproc: int) -> int:
    """Eq. 1 from the pairlist alone: max over block-partitioned
    processors of the steps each executes."""
    worst = 0
    for block in np.array_split(np.asarray(pcnt, dtype=np.int64), nproc):
        worst = max(
            worst,
            STEPS_PER_PROC + STEPS_PER_ATOM * len(block) + STEPS_PER_PAIR * int(block.sum()),
        )
    return worst


class Table1MIMD:
    name = "table1-mimd"
    why = "the MIMD column on forked pmimd workers: the only workload through exec.pmimd, exec.shm and the supervisor"
    owns = (
        "exec.pmimd.start_s", "exec.pmimd.run_s", "exec.pmimd.steps",
        "reliability.supervisor.events",
    )

    def __init__(self, root: str, seed: int, small: bool = False, seconds: float = 10.0):
        self.seed = seed
        self.config = SMALL if small else FULL

    def setup(self) -> None:
        cfg = self.config
        molecule = synthetic_sod(n_atoms=cfg["n_atoms"], seed=self.seed)
        self.pairlist = build_pairlist(molecule, cfg["cutoff"])
        self.reference = reference_nbforce(molecule, self.pairlist)
        self.bounds = block_bounds(cfg["n_atoms"], cfg["nproc"])
        self.bindings = {
            "natoms": cfg["n_atoms"],
            "nbounds": len(self.bounds),
            "maxpcnt": int(self.pairlist.partners.shape[1]),
            "pcnt": self.pairlist.pcnt.astype(np.int64),
            "partners": self.pairlist.partners.astype(np.int64),
            "bounds": self.bounds,
        }
        self.externals = {"force": make_scalar_force_external(molecule)}
        self.pairs = int(self.pairlist.pcnt.sum())
        self.steps = expected_steps(self.pairlist.pcnt, cfg["nproc"])
        self.engine = Engine()
        # Warm-up: the first pool of a process pays one-off imports.
        self._run_once()

    def _run_once(self):
        return self.engine.compile(KERNEL).run(
            self.bindings,
            nproc=self.config["nproc"],
            backend="pmimd",
            externals=self.externals,
        )

    def inputs(self) -> dict:
        return {
            "atoms": self.config["n_atoms"],
            "cutoff": self.config["cutoff"],
            "processors": self.config["nproc"],
            "pairs": self.pairs,
            "expected_steps": self.steps,
        }

    def _check(self, result, out: Outcome) -> None:
        if int(result.steps) != self.steps:
            out.fail(f"pmimd: {result.steps} steps, expected {self.steps}")
            return
        bounds = self.bounds
        forces = np.concatenate([
            np.asarray(env["f"].data, dtype=float)[bounds[p] : bounds[p + 1]]
            for p, env in enumerate(result.env)
        ])
        if forces.shape != self.reference.shape or not np.allclose(
            forces, self.reference, rtol=FORCE_RTOL, atol=0.0
        ):
            out.fail("pmimd: per-atom forces differ from reference_nbforce")

    def run(self, seconds: float, tracer, limit: int | None = None) -> Outcome:
        out = Outcome()
        probe = SpeedProbe()
        events = 0
        steps = None
        start = time.perf_counter()
        while True:
            out.attempted += 1
            probe.sample()
            began = time.perf_counter()
            try:
                with tracer.op("table1.mimd"):
                    result = self._run_once()
            except Exception as error:  # noqa: BLE001 — counted, not fatal
                out.timed(began)
                out.fail(f"pmimd: {error!r}")
            else:
                out.timed(began)
                out.work += self.pairs
                events += len(result.events)
                steps = int(result.steps)
                self._check(result, out)
            if (limit is not None and out.attempted >= limit) or (
                limit is None and out.busy >= seconds
            ):
                break
        probe.sample()
        out.wall = time.perf_counter() - start
        out.scaled = probe.scale(out.starts, out.latencies)
        out.slowdown = probe.median_slowdown()
        out.extra = {
            # Every run does the same work: the median run sets the rate.
            "pairs_per_s": (self.pairs / statistics.median(out.scaled), "1/s"),
            "run_p50_ms": (median_ms(out.scaled), "ms"),
            "raw pairs_per_s": (out.work / out.busy, "1/s"),
            "raw run_p50_ms": (median_ms(out.latencies), "ms"),
        }
        out.layers = {"events": events, "steps": steps}
        return out

    def layer_metrics(self, out: Outcome, tracer, layers: dict) -> dict:
        runs = out.attempted
        own = layers["layers"]
        inclusive = layers["inclusive"]
        # Fork and shared-memory set-up happen inside PMIMDExecutor.run;
        # construction happens before it.
        spawn = own.get("exec.pmimd.fork", 0.0) + own.get("exec.shm", 0.0)
        start = own.get("exec.pmimd.start", 0.0) + spawn
        return {
            "exec.pmimd.start_s": start / runs,
            "exec.pmimd.run_s": (inclusive.get("exec.pmimd", 0.0) - spawn) / runs,
            "exec.pmimd.steps": out.layers["steps"],
            "reliability.supervisor.events": out.layers["events"] / runs,
        }

    def throughput(self, out: Outcome) -> float:
        return out.extra["pairs_per_s"][0]

    def p50_ms(self, out: Outcome) -> float:
        return out.extra["run_p50_ms"][0]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> list:
        return []
