import math

import numpy as np
import pytest

from kerr_thermo import (
    DensityMatrix,
    EffTempTrace,
    FisherSeries,
    PerturbedTrajectories,
    Povm,
    SystemParams,
    Trajectory,
    Truncation,
    annihilation,
    creation,
    gibbs_populations,
    gibbs_state,
    hamiltonian,
    mean_photon_number,
    thermal_occupation,
    vacuum_state,
)

from conftest import random_density_matrix


class TestAnnihilation:
    def test_dim_two(self):
        np.testing.assert_array_equal(annihilation(2), [[0, 1], [0, 0]])

    def test_dim_three_superdiagonal(self):
        a = annihilation(3)
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(math.sqrt(2))
        a[0, 1] = a[1, 2] = 0
        np.testing.assert_array_equal(a, np.zeros((3, 3)))

    def test_commutator_identity_up_to_truncation(self):
        # direct matrix multiplication oracle: [a, a^dag] = 1 except the last level
        a = annihilation(20)
        comm = a @ a.conj().T - a.conj().T @ a
        np.testing.assert_allclose(np.diagonal(comm)[:19], np.ones(19), atol=1e-14)
        assert comm[19, 19].real == pytest.approx(-19.0)
        off = comm - np.diag(np.diagonal(comm))
        assert np.abs(off).max() == 0.0

    def test_creation_raises_fock_states(self):
        ad = creation(6)
        for n in range(5):
            ket = np.zeros(6)
            ket[n] = 1.0
            raised = ad @ ket
            assert raised[n + 1] == pytest.approx(math.sqrt(n + 1))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            annihilation(1)
        with pytest.raises(ValueError):
            annihilation(0)


class TestSystemParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SystemParams(delta=0.0, chi=-0.1, drive=0.0, n_th=0.0)
        with pytest.raises(ValueError):
            SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=-0.1)
        # gamma is the unit, a class constant rather than a parameter
        with pytest.raises(TypeError):
            SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=0.0, gamma=0.0)
        assert SystemParams.gamma == 1.0
        with pytest.raises(ValueError):
            SystemParams(delta=float("nan"), chi=0.0, drive=0.0, n_th=0.0)

    def test_with_n_th(self):
        p = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
        q = p.with_n_th(0.06)
        assert q.n_th == 0.06 and q.delta == p.delta and q.chi == p.chi


class TestTruncation:
    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0])
    def test_leakage_tol_outside_the_open_unit_interval_is_rejected(self, tol):
        with pytest.raises(ValueError, match="leakage_tol"):
            Truncation(8, leakage_tol=tol)


class TestHamiltonian:
    def test_pure_detuning(self):
        params = SystemParams(delta=1.0, chi=0.0, drive=0.0, n_th=0.0)
        h = hamiltonian(params, Truncation(3))
        np.testing.assert_allclose(h, np.diag([0.0, 1.0, 2.0]))

    def test_kerr_diagonal(self):
        params = SystemParams(delta=0.0, chi=1.0, drive=0.0, n_th=0.0)
        h = hamiltonian(params, Truncation(3))
        np.testing.assert_allclose(h, np.diag([0.0, 0.0, 2.0]))

    def test_full_matrix_hand_assembled(self):
        # element-by-element assembly oracle for the drive i drive (a^dag - a):
        # <n| a |n+1> = sqrt(n+1), so H[n, n+1] = -i drive sqrt(n+1) and
        # H[n+1, n] = +i drive sqrt(n+1)
        delta, chi, drive = -3.5, 0.5, 1.0
        dim = 4
        expected = np.zeros((dim, dim), dtype=complex)
        for n in range(dim):
            expected[n, n] = delta * n + chi * n * (n - 1)
        for n in range(dim - 1):
            expected[n, n + 1] = -1j * drive * math.sqrt(n + 1)
            expected[n + 1, n] = 1j * drive * math.sqrt(n + 1)
        params = SystemParams(delta=delta, chi=chi, drive=drive, n_th=0.0)
        np.testing.assert_allclose(hamiltonian(params, Truncation(dim)), expected, atol=1e-15)

    def test_hermitian_for_random_params(self, rng):
        for _ in range(20):
            params = SystemParams(
                delta=float(rng.uniform(-5, 5)),
                chi=float(rng.uniform(0, 2)),
                drive=float(rng.uniform(0, 2)),
                n_th=float(rng.uniform(0, 1)),
            )
            h = hamiltonian(params, Truncation(12))
            assert np.abs(h - h.conj().T).max() == 0.0


class TestGibbsState:
    def test_zero_temperature_is_vacuum(self):
        g = gibbs_state(0.0, Truncation(5))
        np.testing.assert_array_equal(g.entries, vacuum_state(Truncation(5)).entries)

    def test_geometric_ratio_half(self):
        g = gibbs_state(1.0, Truncation(80))
        p = g.populations()
        np.testing.assert_allclose(p[:20], 0.5 ** (np.arange(20) + 1), rtol=1e-12)

    def test_mean_photon_number(self):
        # geometric-series sum oracle
        g = gibbs_state(0.05, Truncation(30))
        assert mean_photon_number(g) == pytest.approx(0.05, abs=1e-12)

    def test_mean_photon_number_of_a_stack_is_the_per_state_loop(self, rng):
        stack = np.array([[random_density_matrix(rng, 14) for _ in range(3)] for _ in range(2)])
        got = mean_photon_number(stack)
        assert got.shape == (2, 3)
        loop = [[mean_photon_number(state) for state in row] for row in stack]
        assert all(isinstance(value, float) for row in loop for value in row)
        np.testing.assert_array_equal(got, loop)

    def test_trace_exactly_one_and_monotone_positive(self):
        for n in (0.01, 0.3, 2.0):
            g = gibbs_state(n, Truncation(25))
            p = g.populations()
            assert complex(g.entries.trace()).real == pytest.approx(1.0, abs=1e-15)
            assert np.all(np.diff(p) < 0)
            assert np.all(p > 0)

    def test_tail_mass_reported(self):
        _, tail = gibbs_populations(1.0, 10)
        assert tail == pytest.approx(0.5**10, rel=1e-12)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            gibbs_state(-0.01, Truncation(10))


class TestThermalOccupation:
    def test_zero_temperature_limit(self):
        assert thermal_occupation(700.0) == pytest.approx(0.0, abs=1e-300)

    def test_ln2_gives_one(self):
        assert thermal_occupation(math.log(2.0)) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_numeric_inversion(self):
        # inversion oracle: beta giving occupation 0.05 is ln(21)
        assert thermal_occupation(math.log(21.0)) == pytest.approx(0.05, rel=1e-13, abs=0)
        assert thermal_occupation(3.0445) == pytest.approx(0.05, abs=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0)
        with pytest.raises(ValueError):
            thermal_occupation(-1.0)


class TestVacuumState:
    def test_matrix(self):
        v = vacuum_state(Truncation(2))
        np.testing.assert_array_equal(v.entries, np.diag([1.0, 0.0]))

    def test_pure_and_empty(self):
        v = vacuum_state(Truncation(8))
        assert float(np.einsum("ij,ji->", v.entries, v.entries).real) == pytest.approx(1.0)
        assert mean_photon_number(v) == 0.0


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_entries_read_only(self):
        v = vacuum_state(Truncation(3))
        with pytest.raises(ValueError):
            v.entries[0, 0] = 0.5


# Each record's array fields, built fresh per call, and its other arguments.
READ_ONLY_RECORDS = {
    "Povm": (
        Povm,
        lambda: dict(vectors=np.eye(3, dtype=complex), weights=np.ones(3), labels=np.arange(3.0)),
        {},
    ),
    "FisherSeries": (FisherSeries, lambda: dict(times=np.arange(3.0), values=np.ones(3)), {}),
    "EffTempTrace": (
        EffTempTrace,
        lambda: dict(
            times=np.arange(3.0), n_eff=np.ones(3), fidelity_at_opt=np.ones(3), evaluations=np.full(3, 26)
        ),
        {},
    ),
    "Trajectory": (
        Trajectory,
        lambda: dict(times=np.arange(2.0), entries=np.zeros((2, 2, 2), dtype=complex)),
        dict(leakage_max=0.0),
    ),
    "PerturbedTrajectories": (
        PerturbedTrajectories,
        lambda: dict(derivative=np.zeros((2, 2, 2), dtype=complex)),
        dict(
            rank_tol_rel=1e-10,
            central=Trajectory(np.arange(2.0), np.zeros((2, 2, 2), dtype=complex), 0.0),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY_RECORDS))
def test_records_store_read_only_copies(name):
    cls, make_arrays, others = READ_ONLY_RECORDS[name]
    arrays = make_arrays()
    record = cls(**arrays, **others)
    for key, given in arrays.items():
        stored = getattr(record, key)
        assert given.flags.writeable, f"{name} made the caller's {key} read-only"
        assert not stored.flags.writeable, f"{name}.{key} is writeable"
        np.testing.assert_array_equal(stored, given)


@pytest.mark.parametrize("name", sorted(READ_ONLY_RECORDS))
def test_records_keep_frozen_owning_arrays_and_copy_views(name):
    # an array that owns its memory and that nothing can write is stored as
    # it is; a read-only view of a writable array is still copied
    cls, make_arrays, others = READ_ONLY_RECORDS[name]
    frozen = make_arrays()
    for arr in frozen.values():
        arr.setflags(write=False)
    record = cls(**frozen, **others)
    for key, given in frozen.items():
        assert getattr(record, key) is given, f"{name} copied a frozen {key}"
    bases = make_arrays()
    views = {key: arr.view() for key, arr in bases.items()}
    for view in views.values():
        view.setflags(write=False)
    record = cls(**views, **others)
    for key, base in bases.items():
        assert not np.shares_memory(getattr(record, key), base), f"{name} kept a view as {key}"
