"""Molecular-dynamics substrate: synthetic molecules, pairlists,
forces, and workload distribution for the NBFORCE case study."""

from .distribution import (
    WorkloadCounts,
    flat_kernel_bindings,
    flattened_steps,
    pruned_unflattened_steps,
    unflat_kernel_bindings,
    unflattened_sweeps,
    workload_counts,
)
from .dynamics import (
    SimulationState,
    VerletIntegrator,
    kinetic_energy,
    temperature,
    total_forces,
)
from .forces import (
    make_scalar_force_external,
    make_simd_force_external,
    pair_energy,
    pair_force,
    reference_nbforce,
    scalar_pair_energy,
)
from .gromos import NMAX, PAPER_CUTOFFS, NBForceWorkload, sod_workload
from .molecule import Molecule, lattice_box, synthetic_sod, uniform_box
from .pairlist import (
    PairList,
    brute_force_pairlist,
    build_pairlist,
    pair_statistics,
)

__all__ = [
    "VerletIntegrator",
    "SimulationState",
    "total_forces",
    "kinetic_energy",
    "temperature",
    "Molecule",
    "synthetic_sod",
    "uniform_box",
    "lattice_box",
    "PairList",
    "build_pairlist",
    "brute_force_pairlist",
    "pair_statistics",
    "pair_energy",
    "pair_force",
    "reference_nbforce",
    "scalar_pair_energy",
    "make_simd_force_external",
    "make_scalar_force_external",
    "WorkloadCounts",
    "workload_counts",
    "flattened_steps",
    "unflattened_sweeps",
    "pruned_unflattened_steps",
    "flat_kernel_bindings",
    "unflat_kernel_bindings",
    "NBForceWorkload",
    "sod_workload",
    "PAPER_CUTOFFS",
    "NMAX",
]
