"""Non-bonded pair interactions: Lennard-Jones + Coulomb.

Provides three layers:

* vectorized pair quantities over index arrays (the physics);
* a pure-numpy reference evaluation of the whole NBFORCE sweep, used
  to validate every MiniF kernel's result;
* *external subroutine* adapters that plug the force routine into the
  MiniF interpreters as ``CALL force(f, at1, at2)`` — the analogue of
  the paper's ``OneF``/``OneFFlat`` Fortran routines.

Like the paper's implementation, communication is excluded: "the
molecular configuration data ... are already locally available when
calling the force routines", so the adapters read global coordinate
arrays directly.
"""

from __future__ import annotations

import math

import numpy as np

from ..exec.values import FArray
from ..lang.errors import InterpreterError
from .molecule import Molecule

#: Coulomb constant in kcal·Å/(mol·e²).
COULOMB_K = 332.0636


def _pair_terms(molecule: Molecule):
    """Per-molecule precomputed interaction terms, cached on the molecule.

    The pair routines are the innermost work of every NBFORCE sweep —
    tens of thousands of calls per run — so the per-atom quantities
    that never change are factored once: contiguous coordinate columns
    (three 1-D gathers beat one row gather plus an axis reduction),
    half sigmas, √ε (the geometric LJ mixing rule becomes one product),
    and √k·q (the Coulomb prefactor folds into the charges).
    """
    cache = getattr(molecule, "_pair_cache", None)
    if cache is None:
        pos = molecule.positions
        cache = (
            np.ascontiguousarray(pos[:, 0]),
            np.ascontiguousarray(pos[:, 1]),
            np.ascontiguousarray(pos[:, 2]),
            0.5 * molecule.lj_sigma,
            np.sqrt(molecule.lj_epsilon),
            np.sqrt(COULOMB_K) * molecule.charges,
        )
        object.__setattr__(molecule, "_pair_cache", cache)
    return cache


def _scalar_pair_terms(molecule: Molecule):
    """The :func:`_pair_terms` columns as per-atom Python lists, cached
    on the molecule for :func:`scalar_pair_energy` (list indexing and
    float arithmetic skip numpy's per-call overhead on one pair)."""
    cache = getattr(molecule, "_scalar_pair_cache", None)
    if cache is None:
        cache = tuple(column.tolist() for column in _pair_terms(molecule))
        object.__setattr__(molecule, "_scalar_pair_cache", cache)
    return cache


def pair_energy(molecule: Molecule, at1: np.ndarray, at2: np.ndarray) -> np.ndarray:
    """LJ + Coulomb pair energy for 1-based index arrays ``at1``/``at2``.

    Self-pairs (``at1 == at2``, e.g. an index clamped onto its
    partner) yield zero instead of a singularity.
    """
    x, y, z, half_sigma, sqrt_eps, q_scaled = _pair_terms(molecule)
    i = np.asarray(at1, dtype=np.int64) - 1
    j = np.asarray(at2, dtype=np.int64) - 1
    dx = x[i] - x[j]
    dy = y[i] - y[j]
    dz = z[i] - z[j]
    r2 = dx * dx
    r2 += dy * dy
    r2 += dz * dz
    same = i == j
    # Self-pairs have r2 == 0 exactly (dx = dy = dz = 0), so adding the
    # boolean mask sets them to 1.0 without a masked assignment.
    r2 += same
    inv_r2 = 1.0 / r2
    sigma = half_sigma[i] + half_sigma[j]
    s2 = sigma
    s2 *= sigma
    s2 *= inv_r2
    s6 = s2 * s2
    s6 *= s2
    total = s6 * s6
    total -= s6
    total *= sqrt_eps[i]
    total *= sqrt_eps[j]
    total *= 4.0
    coulomb = q_scaled[i] * q_scaled[j]
    coulomb *= np.sqrt(inv_r2)
    total += coulomb
    total *= np.logical_not(same)
    return total


def scalar_pair_energy(molecule: Molecule, at1: int, at2: int) -> float:
    """:func:`pair_energy` of one pair of 1-based atom indices, on host
    floats.

    Repeats :func:`pair_energy`'s operation sequence step for step —
    the same left-to-right products and sums, a correctly rounded
    square root — so the result is bit-identical to the vector form.
    Coincident distinct atoms (``r2 == 0``) defer to the vector form,
    which yields its inf/nan instead of raising ``ZeroDivisionError``.
    """
    x, y, z, half_sigma, sqrt_eps, q_scaled = _scalar_pair_terms(molecule)
    i = at1 - 1
    j = at2 - 1
    dx = x[i] - x[j]
    dy = y[i] - y[j]
    dz = z[i] - z[j]
    same = i == j
    r2 = dx * dx + dy * dy + dz * dz + same
    if r2 == 0.0:
        return float(pair_energy(molecule, np.array([at1]), np.array([at2]))[0])
    inv_r2 = 1.0 / r2
    sigma = half_sigma[i] + half_sigma[j]
    s2 = sigma * sigma * inv_r2
    s6 = s2 * s2 * s2
    total = (s6 * s6 - s6) * sqrt_eps[i] * sqrt_eps[j] * 4.0
    total += q_scaled[i] * q_scaled[j] * math.sqrt(inv_r2)
    return total * (not same)


def pair_force(molecule: Molecule, at1: np.ndarray, at2: np.ndarray) -> np.ndarray:
    """Full 3-D force on ``at1`` due to ``at2`` (shape (..., 3))."""
    x, y, z, half_sigma, sqrt_eps, q_scaled = _pair_terms(molecule)
    i = np.asarray(at1, dtype=np.int64) - 1
    j = np.asarray(at2, dtype=np.int64) - 1
    delta = np.stack((x[i] - x[j], y[i] - y[j], z[i] - z[j]), axis=-1)
    r2 = np.sum(delta * delta, axis=-1)
    same = i == j
    r2 = np.where(same, 1.0, r2)
    inv_r2 = 1.0 / r2
    sigma = half_sigma[i] + half_sigma[j]
    epsilon = sqrt_eps[i] * sqrt_eps[j]
    s2 = sigma * sigma * inv_r2
    s6 = s2 * s2 * s2
    # dU/dr terms: LJ gives 24 eps (2 s12 - s6) / r; Coulomb gives k q q / r^2.
    lj_mag = 24.0 * epsilon * (2.0 * s6 * s6 - s6) * inv_r2
    coulomb_mag = q_scaled[i] * q_scaled[j] * inv_r2 * np.sqrt(inv_r2)
    magnitude = np.where(same, 0.0, lj_mag + coulomb_mag)
    return delta * magnitude[..., None]


def reference_nbforce(molecule: Molecule, pairlist) -> np.ndarray:
    """Pure-numpy reference of the NBFORCE sweep: per-atom accumulated
    pair energies ``F(i) = Σ_partners pair_energy(i, partner)``.

    This is the ground truth every kernel variant must match.
    """
    totals = np.zeros(molecule.n_atoms)
    pcnt = pairlist.pcnt
    partners = pairlist.partners
    width = partners.shape[1]
    atoms = np.arange(1, molecule.n_atoms + 1)
    for column in range(width):
        live = pcnt > column
        if not live.any():
            break
        at1 = atoms[live]
        at2 = partners[live, column].astype(np.int64)
        totals[at1 - 1] += pair_energy(molecule, at1, at2)
    return totals


def _flat(values: np.ndarray, shape: tuple) -> np.ndarray:
    """``values`` broadcast to ``shape``, flattened (a view when it
    already has that shape)."""
    if values.shape != shape:
        values = np.broadcast_to(values, shape)
    return values.reshape(-1)


def make_simd_force_external(molecule: Molecule):
    """External ``CALL force(f, at1, at2)`` for the lockstep backends.

    Works for both the flattened kernel (1-D per-PE vectors) and the
    unflattened kernels (2-D slot × layer sections), on the VM and its
    tree-walking twin alike.

    Live-lane contract: the pair energy is evaluated only on *live*
    lanes — lanes active under ``mask`` whose ``at1`` and ``at2`` are
    both non-zero (zero is the hole / padding marker of
    :func:`~repro.md.distribution.unflat_kernel_bindings` and of the
    pairlist).  Those lanes are compacted, clamped to ``[1, n_atoms]``
    and handed to :func:`pair_energy` in one call; every other lane
    gets ``0.0``.  The full-width result goes to ``assign_to``, whose
    masked store leaves masked-off lanes of ``f`` untouched.  Live-lane
    values are bit-identical to a full-width evaluation because
    :func:`pair_energy` is elementwise.  The lockstep step counters
    still charge the call on every lane — the backends record it
    before the external runs — so only host time follows live lanes.

    ``mask`` restricts lanes when it lines up with the arguments'
    leading axes (a per-PE mask over slot × layer sections, or a mask
    of the arguments' own shape); otherwise only the zero markers do.
    """
    n_atoms = molecule.n_atoms

    def force(interp, arg_exprs, args, env, mask):
        if len(args) != 3:
            raise InterpreterError("force expects (f, at1, at2)")
        at1, at2 = args[1], args[2]
        at1 = np.asarray(at1.data if isinstance(at1, FArray) else at1)
        at2 = np.asarray(at2.data if isinstance(at2, FArray) else at2)
        live = (at1 != 0) & (at2 != 0)
        if mask is not None:
            lanes = np.asarray(mask)
            if lanes.shape == live.shape[: lanes.ndim]:
                live &= lanes.reshape(lanes.shape + (1,) * (live.ndim - lanes.ndim))
        shape = live.shape
        values = np.zeros(shape)
        index = np.flatnonzero(live)
        if index.size:
            # Integer-index compaction: cheaper than boolean indexing
            # twice plus a boolean scatter.  Raw ufuncs for the clamp —
            # np.clip's dispatch wrapper is hot here.
            live1 = _flat(at1, shape).take(index)
            live2 = _flat(at2, shape).take(index)
            live1 = np.minimum(np.maximum(live1, 1), n_atoms)
            live2 = np.minimum(np.maximum(live2, 1), n_atoms)
            values.reshape(-1)[index] = pair_energy(molecule, live1, live2)
        interp.assign_to(arg_exprs[0], values, env)

    return force


def make_scalar_force_external(molecule: Molecule):
    """External ``CALL force(f, at1, at2)`` for the scalar/MIMD
    interpreters (one pair per call).

    Indices are clamped to ``[1, n_atoms]`` and the pair goes to
    :func:`scalar_pair_energy`.  Its per-atom lists are built here, so
    forked pmimd workers inherit them instead of each building a copy.
    """
    n_atoms = molecule.n_atoms
    _scalar_pair_terms(molecule)

    def force(interp, arg_exprs, args, env):
        if len(args) != 3:
            raise InterpreterError("force expects (f, at1, at2)")
        at1 = min(max(int(args[1]), 1), n_atoms)
        at2 = min(max(int(args[2]), 1), n_atoms)
        interp.assign_to(arg_exprs[0], scalar_pair_energy(molecule, at1, at2), env)

    return force
