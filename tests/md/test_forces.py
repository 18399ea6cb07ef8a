"""Force-routine tests."""

import numpy as np
import pytest

from repro.exec.values import FArray
from repro.fuzz.twin import run_twin
from repro.kernels import nbforce
from repro.md import forces
from repro.md.distribution import gather_flat_results, gather_unflat_results
from repro.md.forces import (
    COULOMB_K,
    make_scalar_force_external,
    make_simd_force_external,
    pair_energy,
    pair_force,
    reference_nbforce,
    scalar_pair_energy,
)
from repro.md.molecule import Molecule, synthetic_sod, uniform_box
from repro.md.pairlist import build_pairlist
from repro.exec.scalar import ScalarInterpreter
from repro.lang import parse_source
from repro.runtime.engine import Engine
from repro.simd.layout import DataDistribution


def two_atoms(distance, q1=0.0, q2=0.0, eps=0.1, sigma=3.0):
    return Molecule(
        name="pair",
        positions=np.array([[0.0, 0.0, 0.0], [distance, 0.0, 0.0]]),
        charges=np.array([q1, q2]),
        lj_epsilon=np.array([eps, eps]),
        lj_sigma=np.array([sigma, sigma]),
        subunit=np.zeros(2, dtype=np.int64),
    )


class TestPairEnergy:
    def test_lj_minimum_at_r_min(self):
        """LJ well depth is -epsilon at r = 2^(1/6) sigma."""
        sigma, eps = 3.0, 0.2
        r_min = 2.0 ** (1.0 / 6.0) * sigma
        mol = two_atoms(r_min, eps=eps, sigma=sigma)
        energy = pair_energy(mol, np.array([1]), np.array([2]))[0]
        assert energy == pytest.approx(-eps, rel=1e-9)

    def test_lj_zero_at_sigma(self):
        mol = two_atoms(3.0, eps=0.2, sigma=3.0)
        energy = pair_energy(mol, np.array([1]), np.array([2]))[0]
        assert energy == pytest.approx(0.0, abs=1e-9)

    def test_coulomb_term(self):
        mol = two_atoms(100.0, q1=1.0, q2=-1.0, eps=0.0)
        energy = pair_energy(mol, np.array([1]), np.array([2]))[0]
        assert energy == pytest.approx(-COULOMB_K / 100.0, rel=1e-6)

    def test_symmetry(self):
        mol = two_atoms(4.0, q1=0.3, q2=-0.2)
        e12 = pair_energy(mol, np.array([1]), np.array([2]))[0]
        e21 = pair_energy(mol, np.array([2]), np.array([1]))[0]
        assert e12 == pytest.approx(e21)

    def test_self_pair_is_zero(self):
        mol = two_atoms(4.0, q1=1.0)
        assert pair_energy(mol, np.array([1]), np.array([1]))[0] == 0.0

    def test_vectorized_shapes(self):
        mol = two_atoms(4.0)
        at1 = np.array([[1, 2], [1, 1]])
        at2 = np.array([[2, 1], [2, 2]])
        assert pair_energy(mol, at1, at2).shape == (2, 2)


class TestPairForce:
    def test_newtons_third_law(self):
        mol = two_atoms(3.5, q1=0.2, q2=0.4)
        f12 = pair_force(mol, np.array([1]), np.array([2]))[0]
        f21 = pair_force(mol, np.array([2]), np.array([1]))[0]
        assert np.allclose(f12, -f21)

    def test_force_is_negative_energy_gradient(self):
        mol = two_atoms(3.8, q1=0.2, q2=-0.1)
        h = 1e-6
        e_plus = pair_energy(two_atoms(3.8 + h, q1=0.2, q2=-0.1), np.array([1]), np.array([2]))[0]
        e_minus = pair_energy(two_atoms(3.8 - h, q1=0.2, q2=-0.1), np.array([1]), np.array([2]))[0]
        numeric = -(e_plus - e_minus) / (2 * h)
        analytic = pair_force(mol, np.array([1]), np.array([2]))[0, 0]
        # the x-axis force on atom 1 points along -x when attraction wins
        assert analytic == pytest.approx(-numeric, rel=1e-4)

    def test_self_pair_force_is_zero(self):
        mol = two_atoms(3.0)
        assert np.allclose(pair_force(mol, np.array([1]), np.array([1])), 0.0)


class TestReference:
    def test_reference_matches_naive_loop(self):
        mol = uniform_box(60, seed=2)
        plist = build_pairlist(mol, 5.0)
        ref = reference_nbforce(mol, plist)
        naive = np.zeros(mol.n_atoms)
        for i, j in plist.iter_pairs():
            naive[i - 1] += pair_energy(mol, np.array([i]), np.array([j]))[0]
        assert np.allclose(ref, naive)

    def test_reference_deterministic(self):
        mol = uniform_box(40, seed=2)
        plist = build_pairlist(mol, 5.0)
        assert np.array_equal(
            reference_nbforce(mol, plist), reference_nbforce(mol, plist)
        )


def _data(value):
    return np.asarray(value.data if isinstance(value, FArray) else value)


def _full_width(molecule, at1, at2):
    """The pre-compaction evaluation: every lane, indices clamped."""
    n = molecule.n_atoms
    return pair_energy(molecule, np.clip(at1, 1, n), np.clip(at2, 1, n))


class TestLiveLaneExternal:
    """``make_simd_force_external`` evaluates ``pair_energy`` on live
    lanes only: active under the mask, with non-zero ``at1`` and ``at2``.

    Every ``CALL force`` of a real NBFORCE run is checked lane by lane:
    L_f (1-D, lanes masked off by ``WHERE (at1 <= n)``) and Lu_l with
    ``lrs > 1`` (2-D slot × layer sections with zero-padded holes and
    exhausted partner columns), on both lockstep backends.
    """

    N_ATOMS = 300
    NPROC = 64  # nproc < atoms: 5 memory layers, the last one holey

    @pytest.fixture(scope="class")
    def molecule(self):
        return synthetic_sod(n_atoms=self.N_ATOMS, seed=1992)

    @pytest.fixture(scope="class")
    def pairlist(self, molecule):
        return build_pairlist(molecule, 5.0)

    def _cell(self, kernel, molecule, pairlist):
        dist = DataDistribution(
            n=self.N_ATOMS, gran=self.NPROC, nmax=512, scheme="cyclic"
        )
        if kernel == "L_f":
            text, bindings, _ = nbforce.flat_kernel_setup(molecule, pairlist, dist)
        else:
            text, bindings, _ = nbforce.unflat_kernel_setup(
                molecule, pairlist, dist, select_layers=True
            )
            assert bindings["lrs"] > 1
        return text, bindings, dist

    def _run(self, kernel, backend, molecule, pairlist, monkeypatch):
        """Run one kernel; check each call's lanes; return tallies."""
        text, bindings, dist = self._cell(kernel, molecule, pairlist)
        layers = slice(None) if kernel == "L_f" else (slice(None), slice(0, dist.lrs))
        received = []
        real_pair_energy = forces.pair_energy

        def counting(mol, at1, at2):
            received.append((np.array(at1), np.array(at2)))
            return real_pair_energy(mol, at1, at2)

        monkeypatch.setattr(forces, "pair_energy", counting)
        inner = make_simd_force_external(molecule)
        tally = {"calls": 0, "live": 0, "masked_off": 0, "zero_marker": 0}

        def checked(interp, arg_exprs, args, env, mask):
            at1, at2 = _data(args[1]), _data(args[2])
            lanes = np.asarray(mask).reshape(-1, *([1] * (at1.ndim - 1)))
            lanes = np.broadcast_to(lanes, at1.shape)
            live = lanes & (at1 != 0) & (at2 != 0)
            before = _data(env["fpair"])[layers].copy()
            received.clear()
            inner(interp, arg_exprs, args, env, mask)
            after = _data(env["fpair"])[layers]
            # pair_energy saw exactly the live lanes, in lane order.
            if live.any():
                assert len(received) == 1
                assert np.array_equal(received[0][0], at1[live])
                assert np.array_equal(received[0][1], at2[live])
            else:
                assert received == []
            # Live lanes: bit-identical to a full-width evaluation.
            full = _full_width(molecule, at1, at2)
            assert np.array_equal(after[live], full[live])
            # Masked-off lanes keep their old value; active zero-marker
            # lanes read 0.0.
            assert np.array_equal(after[~lanes], before[~lanes])
            assert np.all(after[lanes & ~live] == 0.0)
            tally["calls"] += 1
            tally["live"] += int(live.sum())
            tally["masked_off"] += int((~lanes).sum())
            tally["zero_marker"] += int((lanes & ~live).sum())

        externals = {"force": checked}
        if backend == "interpreter":  # the VM's tree-walking twin
            env, _ = run_twin(text, self.NPROC, bindings, externals)
        else:
            env = Engine().compile(text).run(
                bindings, nproc=self.NPROC, backend=backend, externals=externals
            ).env
        if kernel == "L_f":
            got = gather_flat_results(env, pairlist)
        else:
            got = gather_unflat_results(env, pairlist, dist)
        np.testing.assert_allclose(
            got, reference_nbforce(molecule, pairlist), rtol=1e-9, atol=0.0
        )
        return tally

    @pytest.mark.parametrize("backend", ["vm", "interpreter"])
    def test_flat_kernel_1d(self, backend, molecule, pairlist, monkeypatch):
        tally = self._run("L_f", backend, molecule, pairlist, monkeypatch)
        assert tally["calls"] > 0
        assert tally["live"] == int(pairlist.pcnt.sum())
        assert tally["masked_off"] > 0

    @pytest.mark.parametrize("backend", ["vm", "interpreter"])
    def test_unflat_select_2d(self, backend, molecule, pairlist, monkeypatch):
        tally = self._run("Lu_l", backend, molecule, pairlist, monkeypatch)
        assert tally["live"] == int(pairlist.pcnt.sum())
        assert tally["zero_marker"] > 0


class TestLiveLaneExternalUnit:
    """The external's contract on hand-built arguments."""

    class Sink:
        def assign_to(self, target, value, env):
            env[target] = value

    def _call(self, molecule, at1, at2, mask):
        env = {}
        make_simd_force_external(molecule)(
            self.Sink(), ["f", "at1", "at2"], [None, at1, at2], env, mask
        )
        return env["f"]

    def test_values_and_zero_lanes(self):
        mol = uniform_box(20, seed=4)
        at1 = np.array([1, 0, 3, 4, 5, 6])
        at2 = np.array([2, 5, 0, 7, 8, 9])
        mask = np.array([True, True, True, True, False, True])
        values = self._call(mol, at1, at2, mask)
        live = np.array([True, False, False, True, False, True])
        assert np.array_equal(values[live], _full_width(mol, at1, at2)[live])
        assert np.all(values[~live] == 0.0)

    def test_per_pe_mask_over_layer_sections(self):
        mol = uniform_box(20, seed=4)
        at1 = np.array([[1, 2], [3, 0], [5, 6]])
        at2 = np.array([[7, 0], [9, 10], [11, 12]])
        mask = np.array([True, True, False])
        values = self._call(mol, at1, at2, mask)
        live = np.array([[True, False], [True, False], [False, False]])
        assert np.array_equal(values[live], _full_width(mol, at1, at2)[live])
        assert np.all(values[~live] == 0.0)

    def test_out_of_range_live_indices_are_clamped(self):
        mol = uniform_box(20, seed=4)
        at1 = np.array([25, 3])
        at2 = np.array([2, -4])
        values = self._call(mol, at1, at2, None)
        assert np.array_equal(values, _full_width(mol, at1, at2))

    def test_no_live_lane_skips_pair_energy(self, monkeypatch):
        mol = uniform_box(20, seed=4)
        monkeypatch.setattr(forces, "pair_energy", None)  # must not be called
        values = self._call(mol, np.array([1, 2]), np.array([0, 3]), np.array([True, False]))
        assert np.array_equal(values, np.zeros(2))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _old_scalar_external_value(molecule, at1, at2):
    """The scalar external's former body: np.clip, then a one-pair
    ``pair_energy``."""
    n = molecule.n_atoms
    at1 = int(np.clip(int(at1), 1, n))
    at2 = int(np.clip(int(at2), 1, n))
    return float(pair_energy(molecule, np.array([at1]), np.array([at2]))[0])


#: One external call in isolation: ``fpair`` gets the pair's energy.
ONE_CALL = """
PROGRAM one
  INTEGER i, j
  REAL fpair
  CALL force(fpair, i, j)
END
"""


class TestScalarPairEnergy:
    """``scalar_pair_energy`` (host floats, the scalar/MIMD external)
    and ``pair_energy`` (numpy, the SIMD external and the reference)
    are two forms of one physics and must agree bit for bit."""

    @pytest.mark.parametrize(
        "n_atoms, cutoff", [(400, 3.0), (600, 6.0), (6968, 4.0)]
    )
    def test_bit_identical_on_every_pair_of_a_real_pairlist(self, n_atoms, cutoff):
        mol = synthetic_sod(n_atoms=n_atoms, seed=1992)
        plist = build_pairlist(mol, cutoff)
        live = np.arange(plist.partners.shape[1]) < plist.pcnt[:, None]
        at1 = np.repeat(np.arange(1, n_atoms + 1), plist.pcnt)
        at2 = plist.partners[live].astype(np.int64)
        assert at1.size == int(plist.pcnt.sum()) > 0
        vector = pair_energy(mol, at1, at2)
        scalar = [
            scalar_pair_energy(mol, i, j) for i, j in zip(at1.tolist(), at2.tolist())
        ]
        assert np.array_equal(_bits(scalar), _bits(vector))

    def test_self_pairs_are_bit_identical(self):
        mol = synthetic_sod(n_atoms=400, seed=1992)
        atoms = np.arange(1, mol.n_atoms + 1)
        scalar = [scalar_pair_energy(mol, i, i) for i in atoms.tolist()]
        assert np.array_equal(_bits(scalar), _bits(pair_energy(mol, atoms, atoms)))

    @pytest.mark.parametrize("bad", [0, -3, "n+1"])
    def test_out_of_range_indices_match_the_old_clip_external(self, bad):
        mol = synthetic_sod(n_atoms=400, seed=1992)
        n = mol.n_atoms
        bad = n + 1 if bad == "n+1" else bad
        external = make_scalar_force_external(mol)
        for at1, at2 in [(bad, 7), (7, bad), (bad, bad), (bad, 1), (n, bad)]:
            got = _run_one_call(mol, external, at1, at2)[0]
            assert _bits(got) == _bits(_old_scalar_external_value(mol, at1, at2))

    def test_coincident_distinct_atoms_give_the_numpy_result(self):
        mol = two_atoms(0.0, q1=0.5, q2=0.5)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = pair_energy(mol, np.array([1]), np.array([2]))[0]
            got = scalar_pair_energy(mol, 1, 2)
        assert np.isnan(expected) or np.isinf(expected)
        assert _bits(got) == _bits(expected)

    def test_external_records_one_call_and_one_store_per_pair(self):
        mol = synthetic_sod(n_atoms=50, seed=1992)
        value, counters = _run_one_call(mol, make_scalar_force_external(mol), 3, 17)
        assert value == scalar_pair_energy(mol, 3, 17)
        assert dict(counters.events) == {"call": 1, "store": 1}
        assert dict(counters.calls) == {"force": 1}

    def test_sequential_kernel_counters_and_forces_are_unchanged(self):
        """Field-by-field counters of a small SOD run, as recorded
        before the scalar per-pair body existed; the per-atom forces
        equal the numpy reference bit for bit (same summation order)."""
        mol = synthetic_sod(n_atoms=120, seed=1992)
        plist = build_pairlist(mol, 4.0)
        assert int(plist.pcnt.sum()) == 906
        f, counters = nbforce.run_sequential_kernel(mol, plist)
        state = counters.state_dict()
        per_kind = {"acu": 1026, "store": 2838, "call": 906, "real_op": 906}
        assert state["nproc"] == 1
        for field in ("events", "layer_steps", "element_ops", "active_elements"):
            assert dict(state[field]) == per_kind, field
        assert dict(state["calls"]) == {"force": 906}
        assert dict(state["call_layer_steps"]) == {"force": 906}
        assert dict(state["section_events"]) == {}
        assert dict(state["section_layer_steps"]) == {}
        assert np.array_equal(state["lane_active_steps"], [0])
        assert np.array_equal(_bits(f), _bits(reference_nbforce(mol, plist)))


def _run_one_call(molecule, external, at1, at2):
    interp = ScalarInterpreter(parse_source(ONE_CALL), externals={"force": external})
    env = interp.run(bindings={"i": at1, "j": at2})
    return env["fpair"], interp.counters
