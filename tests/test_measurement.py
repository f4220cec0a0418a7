import math

import numpy as np
import pytest

from kerr_thermo import (
    FdConfig,
    Povm,
    SystemParams,
    TimeGrid,
    Truncation,
    cfi,
    cfi_series,
    gibbs_state,
    heterodyne_povm,
    homodyne_povm,
    mean_photon_number,
    outcome_distribution,
    qfi_series,
    quadrature_op,
    steady_state,
    steady_state_tangent,
    tangent_trajectories,
    vacuum_state,
)
from kerr_thermo import measurement
from kerr_thermo.errors import GridInsufficientError

from stencil import element, fd_derivative
from conftest import random_density_matrix


class TestQuadratureOp:
    def test_dim_two_phi_zero(self):
        q = quadrature_op(0.0, Truncation(2))
        np.testing.assert_allclose(q, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_vacuum_variance_quarter(self):
        # operator-algebra oracle: <0|Q^2|0> = 1/4 for every phi
        trunc = Truncation(20)
        vac = np.zeros(20)
        vac[0] = 1.0
        for phi in (0.0, 0.3, 1.1, math.pi / 2):
            q = quadrature_op(phi, trunc)
            assert (vac @ (q @ q) @ vac).real == pytest.approx(0.25, abs=1e-14)

    def test_phase_flip(self):
        trunc = Truncation(12)
        np.testing.assert_allclose(
            quadrature_op(0.7 + math.pi, trunc), -quadrature_op(0.7, trunc), atol=1e-14
        )

    def test_hermitian(self):
        q = quadrature_op(0.42, Truncation(15))
        assert np.abs(q - q.conj().T).max() == 0.0


class TestHomodynePovm:
    def test_completeness_exact(self):
        povm = homodyne_povm(0.3, Truncation(25))
        defect = np.abs(povm.completeness_operator() - np.eye(25)).max()
        assert defect <= 1e-12

    def test_nan_fails_the_completeness_gate(self):
        # e^{i phi n} at phi = inf is nan on every component
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="completeness defect nan exceeds"):
            homodyne_povm(math.inf, Truncation(8))

    def test_vacuum_moments(self):
        # vacuum quadrature moments oracle: mean 0, variance 1/4
        trunc = Truncation(30)
        povm = homodyne_povm(0.9, trunc)
        p = outcome_distribution(vacuum_state(trunc), povm)
        labels = povm.labels.real
        assert np.sum(p * labels) == pytest.approx(0.0, abs=1e-8)
        assert np.sum(p * labels**2) == pytest.approx(0.25, abs=1e-8)

    def test_elements_are_rank_one_projectors(self):
        # at n_cut 60 the outcomes are the full quadrature eigenbasis
        povm = homodyne_povm(0.1, Truncation(60))
        for i in range(povm.n_outcomes):
            el = element(povm, i)
            ev = np.linalg.eigvalsh(el)
            assert ev[0] >= -1e-10
            assert ev[-1] == pytest.approx(1.0, abs=1e-10)


class TestHeterodynePovm:
    def test_default_grid_completeness(self):
        povm = heterodyne_povm(Truncation(30))
        assert povm.completeness_defect <= 1e-4

    def test_vacuum_distribution_is_husimi(self):
        # closed-form Q function of vacuum: p(alpha) * pi = exp(-|alpha|^2)
        trunc = Truncation(30)
        povm = heterodyne_povm(trunc)
        p = outcome_distribution(vacuum_state(trunc), povm)
        expected = povm.weights * np.exp(-np.abs(povm.labels) ** 2)
        np.testing.assert_allclose(p, expected, atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-4)

    def test_vacuum_normalizes_tightly(self):
        povm = heterodyne_povm(Truncation(30))
        p = outcome_distribution(vacuum_state(Truncation(30)), povm)
        assert abs(p.sum() - 1.0) <= 1e-6

    def test_thermal_cfi_closed_form(self):
        # exponential-distribution Fisher oracle: CFI = 1/(n+1)^2
        n = 0.05
        trunc = Truncation(30)
        povm = heterodyne_povm(trunc)
        cfg = FdConfig()

        def dist(nv):
            return outcome_distribution(gibbs_state(nv, trunc), povm)

        dp = fd_derivative(dist, n, cfg)
        got = cfi(dist(n), dp)
        assert got == pytest.approx(1.0 / (n + 1.0) ** 2, rel=1e-4)

    def test_insufficient_grid_raises(self):
        with pytest.raises(GridInsufficientError, match="radius"):
            heterodyne_povm(Truncation(30), grid_radius=2.0, grid_step=0.4)

    @pytest.mark.parametrize("mean_photon", [-2.0, -0.5, math.nan, math.inf])
    def test_bad_mean_photon_is_named(self, mean_photon):
        with pytest.raises(ValueError, match="mean_photon must be finite and nonnegative"):
            heterodyne_povm(Truncation(8), mean_photon=mean_photon)

    def test_gamma_tail_matches_scipy(self):
        from scipy.special import gammaincc

        for n in range(1, 201):
            xs = np.linspace(max(1e-3, (math.sqrt(n) - 3.0) ** 2), (math.sqrt(n) + 12.0) ** 2, 25)
            got = [measurement._gamma_tail(n, x) for x in xs]
            np.testing.assert_allclose(got, gammaincc(n, xs), rtol=1e-11, atol=1e-200)

    def test_default_grid_is_the_scipy_gamma_grid(self, monkeypatch):
        # the grid radius comes from Q(n_cut, R^2); with scipy's gammaincc in
        # its place, every default grid keeps its outcome count and labels
        from scipy.special import gammaincc

        ours = {n: heterodyne_povm(Truncation(n)).labels for n in range(2, 61)}
        monkeypatch.setattr(measurement, "_gamma_tail", gammaincc)
        for n, labels in ours.items():
            np.testing.assert_array_equal(heterodyne_povm(Truncation(n)).labels, labels)

    def test_grid_refinement_stability(self):
        # halving the step changes the thermal CFI by < 1e-3 relative
        n = 0.05
        trunc = Truncation(20)
        cfg = FdConfig()
        values = []
        for step in (0.3, 0.15):
            povm = heterodyne_povm(trunc, grid_radius=7.5, grid_step=step)

            def dist(nv, p=povm):
                return outcome_distribution(gibbs_state(nv, trunc), p)

            dp = fd_derivative(dist, n, cfg)
            values.append(cfi(dist(n), dp))
        assert abs(values[1] - values[0]) / values[1] <= 1e-3


class TestOutcomeDistribution:
    def test_maximally_mixed_uniform(self):
        d = 60
        trunc = Truncation(d)
        povm = homodyne_povm(0.0, trunc)
        p = outcome_distribution(np.eye(d) / d, povm)
        np.testing.assert_allclose(p, np.full(d, 1.0 / d), atol=1e-12)

    def test_probabilities_sum_to_one_within_defect(self):
        trunc = Truncation(25)
        rho = gibbs_state(0.2, trunc)
        for povm in (homodyne_povm(0.4, trunc), heterodyne_povm(trunc)):
            p = outcome_distribution(rho, povm)
            assert abs(p.sum() - 1.0) <= max(povm.completeness_defect * 2, 1e-9)

    def test_dimension_mismatch(self):
        povm = homodyne_povm(0.0, Truncation(5))
        with pytest.raises(ValueError, match="mismatch"):
            outcome_distribution(np.eye(4) / 4, povm)


class TestCfiSeries:
    # the pair is the runner's, the exact tangent; tests/test_fisher_pair.py
    # reads cfi_series over the stencil pair
    def test_undriven_heterodyne_plateau(self):
        # analytic oracle: CFI -> 1/(n_th+1)^2, strictly below QFI 1/(n(n+1))
        n = 0.05
        params = SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=n)
        trunc = Truncation(30)
        grid = TimeGrid(t_end=25.0, n_samples=26)
        tt = tangent_trajectories(params, grid, trunc)
        het = cfi_series(tt, heterodyne_povm(trunc))
        qf = qfi_series(tt)
        assert het.plateau == pytest.approx(1.0 / (n + 1) ** 2, rel=1e-3)
        assert het.plateau < qf.plateau

    def test_phase_periodicity(self):
        # projectors of Q and -Q coincide, so CFI(phi) = CFI(phi + pi)
        params = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05)
        trunc = Truncation(30)
        grid = TimeGrid(t_end=4.0, n_samples=5)
        tt = tangent_trajectories(params, grid, trunc)
        one = cfi_series(tt, homodyne_povm(0.4, trunc))
        two = cfi_series(tt, homodyne_povm(0.4 + math.pi, trunc))
        np.testing.assert_allclose(one.values, two.values, atol=1e-8)

    def test_data_processing_inequality(self):
        # CFI <= QFI for every POVM at every sampled time
        params = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05)
        trunc = Truncation(30)
        grid = TimeGrid(t_end=8.0, n_samples=9)
        tt = tangent_trajectories(params, grid, trunc)
        qf = qfi_series(tt)
        mean_n = mean_photon_number(tt.central.final)
        povms = [
            homodyne_povm(0.0, trunc),
            homodyne_povm(0.9 * math.pi, trunc),
            heterodyne_povm(trunc, mean_photon=mean_n),
        ]
        for povm in povms:
            series = cfi_series(tt, povm)
            assert np.all(series.values <= qf.values * (1.0 + 1e-6))

    def test_max_skipped_mass_is_the_largest_floor_mass_of_a_sample(self):
        # the run report's "max skipped mass": per sample, the total
        # probability of the outcomes at or below the CFI floor 1e-14, read
        # here from the one-state outcome_distribution; largest over samples
        params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
        trunc = Truncation(16)
        tt = tangent_trajectories(params, TimeGrid(t_end=5.0, n_samples=11), trunc)
        for povm in (homodyne_povm(0.3, trunc), heterodyne_povm(trunc)):
            p = np.array([outcome_distribution(state, povm) for state in tt.central.states])
            expected = np.where(p <= 1e-14, p, 0.0).sum(axis=1).max()
            assert expected > 0
            assert cfi_series(tt, povm).max_skipped_mass == pytest.approx(expected, rel=1e-9, abs=0)


class TestSteadyStateGaussianOracles:
    def test_displaced_thermal_homodyne_cfi(self):
        # Gaussian-distribution oracle: homodyne CFI of a (displaced) thermal
        # state is 2/(2n+1)^2 for every phase
        n = 0.05
        trunc = Truncation(30)
        params = SystemParams(delta=-3.5, chi=0.0, drive=1.0, n_th=n)
        cfg = FdConfig()
        povm = homodyne_povm(0.6, trunc)

        def dist(nv):
            return outcome_distribution(steady_state(params.with_n_th(nv), trunc), povm)

        dp = fd_derivative(dist, n, cfg)
        assert cfi(dist(n), dp) == pytest.approx(2.0 / (2 * n + 1) ** 2, rel=1e-4)


class TestFixedSizeHomodyne:
    PARAMS = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05)

    def steady_cfi(self, n_cut):
        # exact CFI of the steady state: dp_x = <v_x| drho |v_x> is linear in drho
        trunc = Truncation(n_cut)
        rho, drho = steady_state_tangent(self.PARAMS, trunc)
        povm = homodyne_povm(0.9 * math.pi, trunc)
        dp = np.einsum("xi,ij,xj->x", povm.vectors.conj(), drho, povm.vectors).real
        return cfi(outcome_distribution(rho, povm), dp), povm

    def test_cfi_does_not_depend_on_cutoff(self):
        small, povm_small = self.steady_cfi(16)
        large, povm_large = self.steady_cfi(24)
        assert abs(small - large) <= 1e-8 * large
        for povm in (povm_small, povm_large):
            assert povm.n_outcomes == 60
            assert povm.completeness_defect <= 1e-12

    def test_outcomes_are_the_large_quadrature_eigenbasis(self):
        trunc = Truncation(10)
        povm = homodyne_povm(0.3, trunc)
        full = homodyne_povm(0.3, Truncation(60))
        assert povm.vectors.shape == (60, 10)
        np.testing.assert_array_equal(povm.labels, full.labels)
        np.testing.assert_array_equal(povm.vectors, full.vectors[:, :10])
        # a state on the lower levels has the same outcome distribution either way
        rho = np.zeros((60, 60), dtype=complex)
        rho[:10, :10] = gibbs_state(0.2, trunc).entries
        np.testing.assert_allclose(
            outcome_distribution(gibbs_state(0.2, trunc), povm),
            outcome_distribution(rho, full),
            atol=1e-15,
        )

    def test_levels_below_cutoff_keep_cutoff_size(self):
        # above 60 levels the quadrature is diagonalized on the cutoff itself
        povm = homodyne_povm(0.3, Truncation(72))
        assert povm.vectors.shape == (72, 72)
        assert povm.completeness_defect <= 1e-12

    def test_each_angle_is_a_phase_of_the_phi_zero_basis(self):
        trunc = Truncation(16)
        base = homodyne_povm(0.0, trunc)
        for phi in (0.3, 0.9 * math.pi, 2.0, -1.1):
            povm = homodyne_povm(phi, trunc)
            np.testing.assert_array_equal(povm.labels, base.labels)
            np.testing.assert_array_equal(povm.vectors, base.vectors * np.exp(1j * phi * np.arange(16)))

    def test_phase_basis_measures_as_the_eigenbasis_of_the_rotated_quadrature(self, rng):
        # reference: eigh of quadrature_op(phi) on 60 levels, angle by angle;
        # the two bases differ by eigenvector phases, which no distribution sees
        trunc = Truncation(60)
        states = [random_density_matrix(rng, 60) for _ in range(3)]
        for phi in (0.0, 0.4, 0.9 * math.pi, 2.5):
            values, vectors = np.linalg.eigh(quadrature_op(phi, trunc))
            reference = Povm(vectors=vectors.T, weights=np.ones(60), labels=values)
            povm = homodyne_povm(phi, trunc)
            np.testing.assert_allclose(povm.labels, values, rtol=0, atol=1e-13)
            for rho in states:
                np.testing.assert_allclose(
                    outcome_distribution(rho, povm),
                    outcome_distribution(rho, reference),
                    rtol=0,
                    atol=1e-14,
                )
