import numpy as np
import pytest

from kerr_thermo import (
    SystemParams,
    TimeGrid,
    Truncation,
    annihilation,
    gibbs_state,
    hamiltonian,
    lindblad_rhs,
    liouvillian_matrix,
    mean_photon_number,
    number_operator,
    propagate,
    purity,
    steady_state,
    uhlmann_fidelity,
    vacuum_state,
)
from kerr_thermo import dynamics
from kerr_thermo.dynamics import (
    _coordinates,
    _from_coordinates,
    _hermitian_basis,
    _real_generator,
)
from kerr_thermo.errors import TruncationError

from conftest import random_density_matrix


def linear_params(n_th, drive=0.0, delta=0.0):
    return SystemParams(delta=delta, chi=0.0, drive=drive, n_th=n_th)


class TestLindbladRhs:
    def test_single_excitation_decay(self):
        # factor-2 dissipator convention: rho = |1><1| decays at rate 2 gamma
        params = linear_params(0.0)
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        rhs = lindblad_rhs(rho, params, np.zeros((3, 3), dtype=complex))
        expected = 2.0 * np.diag([1.0, -1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(rhs, expected, atol=1e-15)

    def test_steady_state_is_fixed_point(self):
        params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
        trunc = Truncation(30)
        ss = steady_state(params, trunc)
        rhs = lindblad_rhs(ss, params, hamiltonian(params, trunc))
        assert np.abs(rhs).max() < 1e-8

    def test_photon_number_moment_equation(self, rng):
        # operator-algebra oracle: chi = drive = 0 gives d<n> = -2g<n> + 2g n_th
        dim = 14
        params = linear_params(0.3)
        num = number_operator(dim)
        ham = hamiltonian(params, Truncation(dim))
        for _ in range(5):
            rho = random_density_matrix(rng, dim, zero_top=2)
            rhs = lindblad_rhs(rho, params, ham)
            got = np.einsum("ij,ji->", num, rhs).real
            expect = -2.0 * np.einsum("ij,ji->", num, rho).real + 2.0 * 0.3
            assert got == pytest.approx(expect, abs=1e-10)

    def test_dimension_mismatch(self):
        params = linear_params(0.0)
        with pytest.raises(ValueError, match="mismatch"):
            lindblad_rhs(np.eye(3) / 3, params, np.zeros((4, 4)))

    def test_matches_liouvillian_matrix(self, rng):
        params = SystemParams(delta=-1.2, chi=0.4, drive=0.7, n_th=0.2)
        trunc = Truncation(8)
        lmat = liouvillian_matrix(params, trunc)
        ham = hamiltonian(params, trunc)
        rho = random_density_matrix(rng, 8)
        direct = lindblad_rhs(rho, params, ham)
        via_matrix = (lmat @ rho.reshape(-1)).reshape(8, 8)
        np.testing.assert_allclose(via_matrix, direct, atol=1e-13)
        sparse_lmat = liouvillian_matrix(params, trunc, as_sparse=True)
        np.testing.assert_allclose(sparse_lmat.toarray(), lmat, atol=1e-15)


class TestHermitianBasis:
    PARAMS = SystemParams(delta=-1.2, chi=0.4, drive=0.7, n_th=0.2)

    def test_basis_is_unitary(self):
        basis = _hermitian_basis(7)
        assert basis.shape == (49, 49)
        assert np.all(np.diff(basis.indptr)[7:] == 2)
        np.testing.assert_allclose((basis @ basis.conj().T).toarray(), np.eye(49), atol=1e-15)

    def test_real_generator_matches_rhs(self, rng):
        # U L U^dag has an exactly zero imaginary part and acts like the rhs
        trunc = Truncation(8)
        lv = liouvillian_matrix(self.PARAMS, trunc, as_sparse=True)
        basis = _hermitian_basis(8)
        assert np.abs((basis @ lv @ basis.conj().T).imag).max() == 0.0
        rmat = _real_generator(lv)
        assert rmat.dtype == np.float64
        ham = hamiltonian(self.PARAMS, trunc)
        for _ in range(3):
            rho = random_density_matrix(rng, 8)
            via_basis = _from_coordinates(rmat @ _coordinates(rho), 8)
            np.testing.assert_allclose(via_basis, lindblad_rhs(rho, self.PARAMS, ham), atol=1e-13)

    def test_coordinate_round_trip(self, rng):
        rho = random_density_matrix(rng, 9)
        coords = _coordinates(rho)
        assert coords.dtype == np.float64
        basis = _hermitian_basis(9)
        np.testing.assert_allclose(coords, (basis @ rho.reshape(-1)).real, atol=1e-15)
        back = _from_coordinates(coords, 9)
        assert np.abs(back - back.conj().T).max() == 0.0
        np.testing.assert_allclose(back, rho, atol=1e-15)

    def test_dense_sample_map_is_real(self, monkeypatch):
        powered = []
        matrix_power = np.linalg.matrix_power

        def spy(mat, n):
            out = matrix_power(mat, n)
            powered.append(out.dtype)
            return out

        monkeypatch.setattr(dynamics.np.linalg, "matrix_power", spy)
        trunc = Truncation(10)
        propagate(vacuum_state(trunc), linear_params(0.05), TimeGrid(t_end=0.5, n_samples=3), trunc)
        assert powered == [np.float64]


class TestPropagate:
    def test_vacuum_is_fixed_point_at_zero_temperature(self):
        trunc = Truncation(10)
        traj = propagate(vacuum_state(trunc), linear_params(0.0), TimeGrid(t_end=5.0, n_samples=11), trunc)
        for state in traj.states:
            np.testing.assert_allclose(state.entries, vacuum_state(trunc).entries, atol=1e-12)

    def test_thermal_relaxation_rate(self):
        # analytic rate-equation oracle: <n>(tau) = n_th (1 - exp(-2 tau))
        trunc = Truncation(25)
        grid = TimeGrid(t_end=4.0, n_samples=41)
        traj = propagate(vacuum_state(trunc), linear_params(0.1), grid, trunc)
        expected = 0.1 * (1.0 - np.exp(-2.0 * traj.times))
        np.testing.assert_allclose(traj.photon_numbers(), expected, atol=1e-6)

    def test_driven_mean_field_limit(self):
        # mean-field ODE oracle: with H_drive = i drive (a^dag - a),
        # -i<[a, H_drive]> = drive, so d<a> = -(i delta + gamma)<a> + drive
        # and <a> -> drive / (gamma + i delta)
        trunc = Truncation(25)
        params = linear_params(0.0, drive=1.0, delta=-3.5)
        traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=15.0, n_samples=31), trunc)
        mean_a = traj.final.expectation(annihilation(25))
        expected = 1.0 / (1.0 + 1j * (-3.5))
        assert abs(mean_a - expected) < 1e-6

    def test_backends_agree(self):
        params = SystemParams(delta=-2.0, chi=0.3, drive=0.8, n_th=0.1)
        trunc = Truncation(16)
        grid = TimeGrid(t_end=2.0, n_samples=6)
        dense = propagate(vacuum_state(trunc), params, grid, trunc, method="dense")
        loop = propagate(vacuum_state(trunc), params, grid, trunc, method="loop")
        for a, b in zip(dense.states, loop.states):
            np.testing.assert_allclose(a.entries, b.entries, atol=1e-12)

    def test_leakage_error_names_time(self):
        # a cutoff of 4 cannot hold the driven state
        trunc = Truncation(4, leakage_tol=1e-8)
        params = linear_params(0.0, drive=1.0, delta=0.0)
        with pytest.raises(TruncationError, match="tau"):
            propagate(vacuum_state(trunc), params, TimeGrid(t_end=2.0, n_samples=11), trunc)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t_end=0.0)
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, n_samples=1)
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, n_samples=11, integrator_step=0.5)


class TestPropagationInvariants:
    def test_trace_hermiticity_positivity(self):
        params = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.1)
        trunc = Truncation(30)
        traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=10.0, n_samples=21), trunc)
        for state in traj.states:
            e = state.entries
            assert np.abs(e - e.conj().T).max() == 0.0
            assert abs(complex(e.trace()) - 1.0) < 1e-6
            assert np.linalg.eigvalsh(e)[0] > -1e-7

    def test_step_halving_stability(self):
        params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
        trunc = Truncation(20)
        step = 1e-3 / 31.5
        grid1 = TimeGrid(t_end=3.0, n_samples=7, integrator_step=step)
        grid2 = TimeGrid(t_end=3.0, n_samples=7, integrator_step=step / 2.0)
        t1 = propagate(vacuum_state(trunc), params, grid1, trunc)
        t2 = propagate(vacuum_state(trunc), params, grid2, trunc)
        worst = max(
            np.abs(a.entries - b.entries).max() for a, b in zip(t1.states, t2.states)
        )
        assert worst <= 1e-8

    def test_monotone_relaxation(self):
        trunc = Truncation(25)
        traj = propagate(vacuum_state(trunc), linear_params(0.2), TimeGrid(t_end=6.0, n_samples=61), trunc)
        gap = np.abs(traj.photon_numbers() - 0.2)
        assert np.all(np.diff(gap) <= 1e-12)

    def test_steady_state_agrees_with_long_propagation(self):
        params = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05)
        trunc = Truncation(30)
        ss = steady_state(params, trunc)
        traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=30.0, n_samples=16), trunc)
        diff_eigs = np.linalg.eigvalsh(ss.entries - traj.final.entries)
        trace_distance = 0.5 * np.abs(diff_eigs).sum()
        assert trace_distance <= 1e-6


class TestSteadyState:
    def test_undriven_linear_cavity_is_gibbs(self):
        # detailed-balance analytic fixed point
        trunc = Truncation(30)
        ss = steady_state(linear_params(0.05), trunc)
        assert uhlmann_fidelity(ss, gibbs_state(0.05, trunc)) >= 1.0 - 1e-8

    def test_driven_linear_cavity_displaced_thermal(self):
        # displaced-thermal analytic solution of the linear driven cavity:
        # d<a> = -(i delta + gamma)<a> + drive vanishes at
        # alpha = drive / (gamma + i delta), on top of n_th thermal photons
        trunc = Truncation(30)
        params = linear_params(0.05, drive=1.0, delta=-3.5)
        ss = steady_state(params, trunc)
        alpha = 1.0 / (1.0 + 1j * (-3.5))
        assert abs(ss.expectation(annihilation(30)) - alpha) < 1e-6
        assert mean_photon_number(ss) == pytest.approx(abs(alpha) ** 2 + 0.05, abs=1e-6)

    def test_fixed_point_residual(self):
        trunc = Truncation(30)
        params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
        ss = steady_state(params, trunc)
        res = lindblad_rhs(ss, params, hamiltonian(params, trunc))
        assert np.abs(res).max() < 1e-8


class TestPurity:
    def test_pure_state(self):
        assert purity(vacuum_state(Truncation(6))) == pytest.approx(1.0)

    def test_gibbs_closed_form(self):
        # geometric-series oracle: purity = 1/(2n+1)
        assert purity(gibbs_state(0.05, Truncation(30))) == pytest.approx(1.0 / 1.1, abs=1e-12)
        assert purity(gibbs_state(0.4, Truncation(60))) == pytest.approx(1.0 / 1.8, rel=1e-10)

    def test_maximally_mixed(self):
        d = 7
        assert purity(np.eye(d) / d) == pytest.approx(1.0 / d)
