"""table1-simd: the paper's Table 1 on the VM, every cell checked.

Kernels L_f, Lu_l and Lu_2 at each cutoff on the synthetic SOD
molecule (6968 atoms, seed 1992 — the molecule every committed
``BENCH_vm.json`` point uses), nproc = 8192.  One caller runs whole
passes over the twelve cells, closed loop, in an order drawn from the
seed, until the window is used.  Each kernel is compiled once in
set-up, so the window is execution-bound.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

from repro.kernels import nbforce
from repro.md.distribution import gather_flat_results, gather_unflat_results
from repro.md.forces import reference_nbforce
from repro.md.molecule import synthetic_sod
from repro.md.pairlist import build_pairlist
from repro.runtime.engine import Engine
from repro.simd.layout import DataDistribution

from .common import Outcome, median_ms, peak_rss_mb
from .layers import traced_external
from .speed import SpeedProbe

KERNELS = ("L_f", "Lu_l", "Lu_2")

#: The molecule seed of every Table-1 point in BENCH_vm.json.
SOD_SEED = 1992

FULL = {"n_atoms": 6968, "nproc": 8192, "nmax": 8192, "cutoffs": (4.0, 8.0, 12.0, 16.0)}
SMALL = {"n_atoms": 400, "nproc": 256, "nmax": 512, "cutoffs": (3.0, 5.0)}

#: Lockstep steps per cell: the ``fused-vm`` point (full size) and the
#: ``pr8-vm-smoke`` point (small size) of BENCH_vm.json.  Flattening's
#: claim is in these counts, so a speed change must leave them as is.
EXPECTED_STEPS = {
    "full": {
        ("L_f", 4.0): 825, ("Lu_l", 4.0): 313, ("Lu_2", 4.0): 313,
        ("L_f", 8.0): 4458, ("Lu_l", 8.0): 1697, ("Lu_2", 8.0): 1697,
        ("L_f", 12.0): 14496, ("Lu_l", 12.0): 5521, ("Lu_2", 12.0): 5521,
        ("L_f", 16.0): 33648, ("Lu_l", 16.0): 12817, ("Lu_2", 16.0): 12817,
    },
    "small": {
        ("L_f", 3.0): 405, ("Lu_l", 3.0): 268, ("Lu_2", 3.0): 268,
        ("L_f", 5.0): 1476, ("Lu_l", 5.0): 856, ("Lu_2", 5.0): 856,
    },
}

#: Largest relative deviation from ``reference_nbforce`` accepted per
#: atom (summation order may change; the pair set may not).
FORCE_RTOL = 1e-9


class Table1SIMD:
    name = "table1-simd"
    why = "the paper's Table 1 as a researcher regenerates it: execution-bound VM runs of the L_f/Lu_l/Lu_2 kernels"
    owns = (
        "md.forces.external_s", "md.forces.calls", "md.forces.active_lane_ratio",
        "vm.machine.run_s", "exec.counters.steps", "exec.counters.utilization",
        "exec.counters.gathers", "exec.counters.scatters",
        "vm.fuse.fuse_ms", "vm.fuse.fused_blocks",
    )

    def __init__(self, root: str, seed: int, small: bool = False, seconds: float = 10.0):
        self.seed = seed
        self.size = "small" if small else "full"
        self.config = SMALL if small else FULL

    def setup(self) -> None:
        cfg = self.config
        molecule = synthetic_sod(n_atoms=cfg["n_atoms"], seed=SOD_SEED)
        self.cells = []
        for cutoff in cfg["cutoffs"]:
            pairlist = build_pairlist(molecule, cutoff)
            reference = reference_nbforce(molecule, pairlist)
            dist = DataDistribution(
                n=cfg["n_atoms"], gran=cfg["nproc"], nmax=cfg["nmax"], scheme="cyclic"
            )
            for kernel in KERNELS:
                if kernel == "L_f":
                    text, bindings, externals = nbforce.flat_kernel_setup(
                        molecule, pairlist, dist
                    )
                else:
                    text, bindings, externals = nbforce.unflat_kernel_setup(
                        molecule, pairlist, dist, select_layers=kernel == "Lu_l"
                    )
                self.cells.append({
                    "kernel": kernel,
                    "cutoff": cutoff,
                    "text": text,
                    "bindings": bindings,
                    "externals": externals,
                    "pairlist": pairlist,
                    "dist": dist,
                    "reference": reference,
                    "pairs": int(pairlist.pcnt.sum()),
                    "steps": EXPECTED_STEPS[self.size][(kernel, cutoff)],
                })
        self.order = list(range(len(self.cells)))
        random.Random(self.seed).shuffle(self.order)
        self.engine = Engine()
        for kernel_text in {cell["text"] for cell in self.cells}:
            self.engine.compile(kernel_text).bytecode()
        self.pairs_per_pass = sum(cell["pairs"] for cell in self.cells)

    def inputs(self) -> dict:
        return {
            "atoms": self.config["n_atoms"],
            "nproc": self.config["nproc"],
            "cutoffs": list(self.config["cutoffs"]),
            "kernels": list(KERNELS),
            "pairs_per_pass": self.pairs_per_pass,
            "cell_order": [
                f"{self.cells[i]['kernel']}@{self.cells[i]['cutoff']:g}" for i in self.order
            ],
        }

    def _check(self, cell, result, out: Outcome) -> None:
        label = f"{cell['kernel']}@{cell['cutoff']:g}"
        if int(result.steps) != cell["steps"]:
            out.fail(f"{label}: {result.steps} steps, expected {cell['steps']}")
            return
        if cell["kernel"] == "L_f":
            forces = gather_flat_results(result.env, cell["pairlist"])
        else:
            forces = gather_unflat_results(result.env, cell["pairlist"], cell["dist"])
        reference = cell["reference"]
        if not np.allclose(forces, reference, rtol=FORCE_RTOL, atol=0.0):
            worst = int(np.argmax(np.abs(forces - reference)))
            out.fail(
                f"{label}: atom {worst + 1} force {forces[worst]!r}, "
                f"reference {reference[worst]!r}"
            )

    def run(self, seconds: float, tracer, limit: int | None = None) -> Outcome:
        out = Outcome()
        probe = SpeedProbe()
        cells = [self.cells[i] for i in self.order]
        externals = [
            {name: traced_external(tracer, fn) for name, fn in cell["externals"].items()}
            if tracer.enabled else cell["externals"]
            for cell in cells
        ]
        counters = {"steps": 0, "gathers": 0, "scatters": 0, "active": 0.0}
        passes = 0
        start = time.perf_counter()
        while True:
            for cell, cell_externals in zip(cells, externals):
                out.attempted += 1
                probe.sample()
                began = time.perf_counter()
                try:
                    with tracer.op("table1.cell"):
                        result = self.engine.compile(cell["text"]).run(
                            cell["bindings"],
                            nproc=cell["dist"].gran,
                            backend="vm",
                            externals=cell_externals,
                        )
                except Exception as error:  # noqa: BLE001 — counted, not fatal
                    out.timed(began)
                    out.fail(f"{cell['kernel']}@{cell['cutoff']:g}: {error!r}")
                    continue
                out.timed(began)
                self._check(cell, result, out)
                run_counters = result.counters
                steps = run_counters.total_steps
                counters["steps"] += steps
                counters["gathers"] += run_counters.events.get("gather", 0)
                counters["scatters"] += run_counters.events.get("scatter", 0)
                counters["active"] += run_counters.mean_utilization() * steps
            passes += 1
            if (limit is not None and passes >= limit) or (
                limit is None and out.busy >= seconds
            ):
                break
        probe.sample()
        out.wall = time.perf_counter() - start
        out.work = passes * self.pairs_per_pass
        out.scaled = probe.scale(out.starts, out.latencies)
        out.slowdown = probe.median_slowdown()
        cells_per_pass = len(cells)
        pass_seconds = [
            sum(out.scaled[i : i + cells_per_pass])
            for i in range(0, len(out.scaled), cells_per_pass)
        ]
        out.extra = {
            # Every pass does the same work: the median pass sets the rate.
            "pairs_per_s": (self.pairs_per_pass / statistics.median(pass_seconds), "1/s"),
            "pass_p50_ms": (median_ms(pass_seconds), "ms"),
            "raw pairs_per_s": (out.work / out.busy, "1/s"),
            "raw cell_p50_ms": (median_ms(out.latencies), "ms"),
        }
        out.layers = {
            "passes": passes,
            "steps": counters["steps"] // passes,
            "gathers": counters["gathers"] // passes,
            "scatters": counters["scatters"] // passes,
            "utilization": counters["active"] / counters["steps"] if counters["steps"] else 0.0,
        }
        return out

    def layer_metrics(self, out: Outcome, tracer, layers: dict) -> dict:
        passes = out.layers["passes"]
        own = layers["layers"]
        calls = layers["calls"]
        counts = tracer.counts
        lanes = counts["md.forces.lanes"]
        fuse_calls = max(1, calls.get("vm.fuse", 0))
        return {
            "md.forces.external_s": own.get("md.forces", 0.0) / passes,
            "md.forces.calls": calls.get("md.forces", 0) / passes,
            "md.forces.active_lane_ratio": (out.work / lanes) if lanes else 0.0,
            "vm.machine.run_s": own.get("vm.machine", 0.0) / passes,
            "exec.counters.steps": out.layers["steps"],
            "exec.counters.utilization": out.layers["utilization"],
            "exec.counters.gathers": out.layers["gathers"],
            "exec.counters.scatters": out.layers["scatters"],
            "vm.fuse.fuse_ms": 1e3 * own.get("vm.fuse", 0.0) / fuse_calls,
            "vm.fuse.fused_blocks": counts["vm.fuse.fused_blocks"] / fuse_calls,
        }

    def throughput(self, out: Outcome) -> float:
        return out.extra["pairs_per_s"][0]

    def p50_ms(self, out: Outcome) -> float:
        return out.extra["pass_p50_ms"][0]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> list:
        return []

