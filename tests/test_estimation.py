import dataclasses
import math

import numpy as np
import pytest

from kerr_thermo import (
    FdConfig,
    FisherSeries,
    SystemParams,
    TimeGrid,
    Truncation,
    certify_cutoff,
    cfi,
    cr_bound,
    fd_step,
    gibbs_populations,
    gibbs_state,
    qfi,
    qfi_series,
    stencil_combine,
    steady_state_tangent,
    tangent_trajectories,
    vacuum_state,
)
from kerr_thermo import dynamics, estimation
from kerr_thermo.config import PROPAGATING_NCUT_MAX, resolve_config
from kerr_thermo.errors import TruncationError
from kerr_thermo.presets import FIGURE_NAMES, PRESETS

from stencil import fd_derivative, perturbed_trajectories
from conftest import random_density_matrix


def thermal_fisher(n):
    return 1.0 / (n * (n + 1.0))


def thermal_drho(n, dim):
    """Analytic d rho / d n of the truncated-free thermal family (diagonal)."""
    j = np.arange(dim, dtype=float)
    p = (1.0 / (n + 1.0)) * (n / (n + 1.0)) ** j
    dp = p * (j / n - (j + 1.0) / (n + 1.0))
    return np.diag(dp.astype(complex))


class TestFdDerivative:
    def test_quadratic(self):
        got = fd_derivative(lambda x: np.array(x**2), 1.0, FdConfig())
        assert float(got) == pytest.approx(2.0, abs=1e-10)

    def test_quartic_exactness(self):
        got = fd_derivative(lambda x: np.array(x**4), 0.5, FdConfig())
        assert float(got) == pytest.approx(0.5, abs=1e-12)

    def test_exponential_taylor_remainder(self):
        h = 1e-3
        cfg = FdConfig(rel_step=h)
        got = float(fd_derivative(lambda x: np.array(math.exp(x)), 1.0, cfg))
        assert abs(got - math.e) < 5 * h**4 * math.e / 30.0 + 1e-12

    def test_polynomial_exactness_property(self, rng):
        # exact on degree <= 4 to 1e-11 relative
        cfg = FdConfig()
        for _ in range(10):
            coeffs = rng.uniform(-2, 2, size=5)
            n0 = float(rng.uniform(0.2, 2.0))
            poly = np.polynomial.Polynomial(coeffs)
            got = float(fd_derivative(lambda x: np.array(poly(x)), n0, cfg))
            expect = float(poly.deriv()(n0))
            assert got == pytest.approx(expect, rel=1e-11, abs=1e-11)

    def test_step_reduction_near_zero(self):
        # rel_step too large for n_th: step shrinks to keep the stencil positive
        cfg = FdConfig(rel_step=0.5)
        h = fd_step(0.1, cfg)
        assert 0.1 - 2 * h > 0

    def test_step_error_when_impossible(self):
        cfg = FdConfig(rel_step=1e-3, abs_floor=1e-9)
        with pytest.raises(ValueError):
            fd_step(1e-9, cfg)
        with pytest.raises(ValueError):
            fd_step(0.0, cfg)

    def test_vectorized_over_arrays(self):
        cfg = FdConfig()
        got = fd_derivative(lambda x: np.array([x, x**2, x**3]), 1.0, cfg)
        np.testing.assert_allclose(got, [1.0, 2.0, 3.0], atol=1e-10)


class TestQfi:
    def test_zero_derivative(self):
        rho = gibbs_state(0.1, Truncation(10))
        res = qfi(rho, np.zeros((10, 10), dtype=complex))
        assert res.qfi == 0.0

    def test_thermal_family_closed_form(self):
        # oracle: classical Fisher information of the geometric populations
        n, dim = 0.05, 30
        rho = gibbs_state(n, Truncation(dim))
        p, _ = gibbs_populations(n, dim)
        dp = np.diagonal(thermal_drho(n, dim)).real
        classical = float(np.sum(dp**2 / p))
        # with the rank cutoff disabled the commuting-family identity is exact
        res_full = qfi(rho, thermal_drho(n, dim), rank_tol_rel=0.0)
        assert res_full.qfi == pytest.approx(classical, rel=1e-10)
        # the default cutoff only sheds far-tail signal at the 1e-10 level
        res = qfi(rho, thermal_drho(n, dim))
        assert res.qfi == pytest.approx(thermal_fisher(n), rel=1e-6)
        assert res.qfi == pytest.approx(19.0476, abs=1e-3)

    def test_diagonal_family_matches_population_fisher(self, rng):
        # for commuting families QFI equals the Fock-population Fisher sum
        p = rng.uniform(0.05, 1.0, size=12)
        p /= p.sum()
        dp = rng.normal(size=12)
        dp -= dp.mean()
        rho = np.diag(p.astype(complex))
        res = qfi(rho, np.diag(dp.astype(complex)))
        assert res.qfi == pytest.approx(float(np.sum(dp**2 / p)), rel=1e-10)

    def test_rejects_non_hermitian_or_traceful(self):
        rho = gibbs_state(0.1, Truncation(4))
        bad = np.array([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="Hermitian"):
            qfi(gibbs_state(0.1, Truncation(2)), bad)
        with pytest.raises(ValueError, match="traceless"):
            qfi(rho, np.eye(4) * 0.1)

    def test_nan_fails_the_hermitian_gate(self):
        drho = np.zeros((4, 4), dtype=complex)
        drho[0, 1] = drho[1, 0] = np.nan
        with pytest.raises(ValueError, match="not Hermitian: defect nan"):
            qfi(gibbs_state(0.1, Truncation(4)), drho)

    def test_nan_fails_the_trace_gate(self):
        # Hermitian with finite entries, but the summed diagonal overflows
        # into inf - inf = nan
        drho = np.diag([1e308, 1e308, -1e308, -1e308] + [0.0] * 12).astype(complex)
        with np.errstate(all="ignore"):
            assert np.isnan(np.trace(drho[None], axis1=1, axis2=2)[0])
            with pytest.raises(ValueError, match=r"not traceless: \|Tr drho\| = nan"):
                qfi(gibbs_state(0.1, Truncation(16)), drho)

    @pytest.mark.parametrize("rank_tol_rel", [math.nan, -1.0, 0.0])
    def test_rank_floor_must_be_nonnegative(self, rank_tol_rel):
        # the vacuum with drho = diag(-1, 1, 0, ...): unchecked, nan dropped
        # every pair (QFI 0) and -1 kept the null pairs (QFI nan)
        rho = vacuum_state(Truncation(6))
        drho = np.diag([-1.0, 1.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
        pair = tangent_trajectories(SystemParams(0.0, 0.0, 0.0, 1e-3), TimeGrid(1.0, 2), Truncation(6))
        pair = dataclasses.replace(pair, rank_tol_rel=rank_tol_rel)
        if rank_tol_rel >= 0:
            assert qfi(rho, drho, rank_tol_rel=rank_tol_rel).qfi == 1.0
            assert np.all(np.isfinite(qfi_series(pair).values))
        else:
            match = f"rank_tol_rel must be nonnegative .* got {rank_tol_rel}"
            with pytest.raises(ValueError, match=match):
                qfi(rho, drho, rank_tol_rel=rank_tol_rel)
            with pytest.raises(ValueError, match=match):
                qfi_series(pair)

    def test_nonnegative_on_random_families(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng, 6)
            d = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            d = d + d.conj().T
            d -= np.eye(6) * d.trace() / 6
            from kerr_thermo.fock import DensityMatrix

            assert qfi(DensityMatrix(rho), d).qfi >= 0.0

    def test_matches_bures_curvature_of_fidelity(self):
        # fully independent route: QFI is the curvature of the Uhlmann
        # fidelity, 8 (1 - sqrt F(rho(n - e/2), rho(n + e/2))) / e^2
        from kerr_thermo import SystemParams, Truncation, steady_state, uhlmann_fidelity
        from kerr_thermo.fock import gibbs_state

        trunc = Truncation(30)
        eps = 1e-3

        def bures(state_of, n):
            f = uhlmann_fidelity(state_of(n - eps / 2), state_of(n + eps / 2))
            return 8.0 * (1.0 - np.sqrt(f)) / eps**2

        # thermal family against the closed form
        assert bures(lambda n: gibbs_state(n, trunc), 0.05) == pytest.approx(
            thermal_fisher(0.05), rel=1e-4
        )

        # driven Kerr steady-state family against the SLD route
        params = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05)

        def ss(n):
            return steady_state(params.with_n_th(n), trunc)

        drho = fd_derivative(lambda n: ss(n).entries, 0.05, FdConfig())
        drho = 0.5 * (drho + drho.conj().T)
        drho -= np.eye(30) * np.trace(drho) / 30
        sld_route = qfi(ss(0.05), drho).qfi
        assert bures(ss, 0.05) == pytest.approx(sld_route, rel=5e-3)


class TestQfiSeries:
    def test_initial_vacuum_carries_no_information(self):
        params = SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=0.05)
        trunc = Truncation(20)
        series = qfi_series(perturbed_trajectories(params, TimeGrid(2.0, 5), trunc, FdConfig()))
        assert series.values[0] == 0.0

    def test_linear_cavity_plateau_matches_thermal_fisher(self):
        params = SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=0.05)
        trunc = Truncation(30)
        series = qfi_series(perturbed_trajectories(params, TimeGrid(20.0, 21), trunc, FdConfig()))
        assert series.plateau == pytest.approx(thermal_fisher(0.05), rel=1e-4)

    def test_derivative_is_hermitian_and_traceless(self):
        params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
        trunc = Truncation(30)
        tt = perturbed_trajectories(params, TimeGrid(t_end=5.0, n_samples=6), trunc, FdConfig())
        for k in range(len(tt.times)):
            drho = tt.derivative[k]
            assert np.abs(drho - drho.conj().T).max() <= 1e-10
            assert abs(complex(np.trace(drho))) <= 1e-9

    def test_plateau_detection(self):
        params = SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=0.1)
        trunc = Truncation(25)
        series = qfi_series(perturbed_trajectories(params, TimeGrid(30.0, 31), trunc, FdConfig()))
        tail = series.values[-max(2, round(0.1 * len(series.values))):]
        assert np.max(np.abs(tail - series.plateau)) <= 1e-3 * series.plateau


class TestCfi:
    def test_zero_derivative(self):
        assert cfi([0.5, 0.5], [0.0, 0.0]) == 0.0

    def test_geometric_distribution_matches_qfi(self):
        # Fock-basis measurement of a thermal state saturates the quantum bound
        n, dim = 0.05, 40
        p, _ = gibbs_populations(n, dim)
        dp = np.diagonal(thermal_drho(n, dim)).real
        assert cfi(p, dp) == pytest.approx(thermal_fisher(n), rel=1e-6)

    def test_bernoulli(self):
        n = 0.25
        p = [n, 1 - n]
        dp = [1.0, -1.0]
        assert cfi(p, dp) == pytest.approx(1.0 / (n * (1 - n)), rel=1e-12)
        assert cfi(p, dp) == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_skipped_mass_reported(self):
        p = np.array([0.7, 0.3 - 2e-15, 1e-15, 1e-15])
        dp = np.array([1.0, -1.0, 5.0, -5.0])
        # the two outcomes below the floor leave the sum; their mass is read
        # from cfi_series in tests/test_measurement.py
        assert cfi(p, dp) == pytest.approx(1.0 / 0.7 + 1.0 / 0.3, rel=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="length"):
            cfi([0.5, 0.5], [0.0])
        with pytest.raises(ValueError, match="negative"):
            cfi([0.6, 0.5, -0.1], [0, 0, 0])
        with pytest.raises(ValueError, match="sum"):
            cfi([0.4, 0.4], [0.0, 0.0])

    def test_nan_fails_the_sum_gate(self):
        with pytest.raises(ValueError, match="probabilities sum to nan"):
            cfi([np.nan, 1.0], [0.0, 0.0])


class TestFisherSeries:
    def test_nan_fails_the_nonnegativity_gate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FisherSeries(times=np.arange(3.0), values=np.array([0.0, np.nan, 1.0]))


class TestCrBound:
    def test_unit_fisher(self):
        assert cr_bound(1.0, 1) == 1.0

    def test_thermal_reciprocal(self):
        assert cr_bound(19.0476, 1) == pytest.approx(0.0525, abs=2e-4)

    def test_repetition_scaling(self):
        assert cr_bound(2.0, 100) == pytest.approx(cr_bound(2.0, 1) / 100.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cr_bound(0.0, 1)
        with pytest.raises(ValueError):
            cr_bound(1.0, 0)


class TestStencil:
    def test_combination_coefficients(self):
        # f(x) = x on the stencil: (-(x+2h) + 8(x+h) - 8(x-h) + (x-2h)) / 12h = 1
        h = 0.1
        x = 3.0
        got = stencil_combine(x + 2 * h, x + h, x - h, x - 2 * h, h)
        assert float(got) == pytest.approx(1.0, rel=1e-13, abs=0)


# Preset corners with the tightest leakage-to-QFI-error margins: (delta, chi, drive, n_th).
CORNERS = {
    "fig3c_chi0.6": (-3.5, 0.6, 1.0, 0.15),
    "fig5c_drive1.5": (-3.5, 0.5, 1.5, 0.15),
    "fig8a": (-3.5, 0.65, 1.0, 0.05),
    "fig8b": (-3.5, 0.65, 1.0, 0.1),
    "fig8c": (-3.5, 0.65, 1.0, 0.15),
    "fig2a": (-3.5, 0.5, 1.0, 0.05),
}

# Sweeps whose certificate the full walk checks, besides the fig3c and fig5c
# presets (where later points need more levels): perfbench's thermalize seed-1
# draw (fig2a corners; the first drive sets the cutoff) and two corners where
# the second point needs more.
SWEEPS = {
    "thermalize_seed1": [
        (-3.5, 0.5, drive, n_th) for drive in (0.6531, 0.9241) for n_th in (0.05, 0.1)
    ],
    "fig2a_then_fig5c": [CORNERS["fig2a"], CORNERS["fig5c_drive1.5"]],
}


class TestCertifyCutoff:
    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_certified_cutoff_matches_large_reference(self, corner):
        params = SystemParams(*CORNERS[corner])
        cert = certify_cutoff([params], leakage_tol=1e-8, n_cut_max=PROPAGATING_NCUT_MAX)
        pair = steady_state_tangent(params, Truncation(cert.n_cut))
        value, leakage = qfi_series(pair).plateau, pair.central.leakage_max
        assert leakage <= 1e-8 / 4
        assert (cert.leakage, cert.point_index) == (leakage, 0)
        reference = qfi_series(steady_state_tangent(params, Truncation(40))).plateau
        assert abs(value - reference) <= 1e-7 * reference
        # the rule takes the smallest passing n, so n - 2 must fail it
        below_pair = steady_state_tangent(params, Truncation(cert.n_cut - 2))
        below, below_leakage = qfi_series(below_pair).plateau, below_pair.central.leakage_max
        assert below_leakage > 1e-8 / 4 or abs(value - below) > 1e-7 * value

    def test_qfi_change_decides_when_leakage_is_loose(self):
        # at leakage_tol 1e-4 the leakage test passes from n = 10, but the
        # steady-state qfi still moves by about 2e-6 from 10 to 12
        params = SystemParams(*CORNERS["fig8a"])
        cert = certify_cutoff([params], leakage_tol=1e-4, n_cut_max=PROPAGATING_NCUT_MAX)
        below_pair = steady_state_tangent(params, Truncation(cert.n_cut - 2))
        below, below_leakage = qfi_series(below_pair).plateau, below_pair.central.leakage_max
        value = qfi_series(steady_state_tangent(params, Truncation(cert.n_cut))).plateau
        assert below_leakage <= 1e-4 / 4
        assert abs(value - below) > 1e-7 * value
        assert cert.qfi_change <= 1e-7
        reference = qfi_series(steady_state_tangent(params, Truncation(40))).plateau
        assert abs(value - reference) <= 1e-7 * reference

    def test_sweep_takes_the_largest_point(self):
        points = [SystemParams(*CORNERS["fig2a"]), SystemParams(*CORNERS["fig5c_drive1.5"])]
        alone = [certify_cutoff([p], leakage_tol=1e-8, n_cut_max=PROPAGATING_NCUT_MAX).n_cut for p in points]
        cert = certify_cutoff(points, leakage_tol=1e-8, n_cut_max=PROPAGATING_NCUT_MAX)
        assert alone[0] < alone[1]
        assert (cert.n_cut, cert.point_index) == (alone[1], 1)

    @pytest.mark.parametrize("sweep", ["fig3c", "fig5c", *SWEEPS])
    def test_sweep_certificate_equals_the_full_walk(self, sweep, monkeypatch):
        # a later point is tried at the running maximum first; the
        # certificate must be the one every point's own walk from n = 8 gives
        if sweep in SWEEPS:
            points = [SystemParams(*p) for p in SWEEPS[sweep]]
        else:
            config = resolve_config(preset=sweep)
            points = [config.params_at(p) for p in config.sweep_points()]
        alone = [certify_cutoff([p], leakage_tol=1e-8, n_cut_max=PROPAGATING_NCUT_MAX) for p in points]
        index = max(range(len(points)), key=lambda i: alone[i].n_cut)  # the first largest
        calls = []
        solve = estimation.steady_state_tangent
        monkeypatch.setattr(estimation, "steady_state_tangent", lambda p, t: calls.append(t.n_cut) or solve(p, t))
        cert = certify_cutoff(points, leakage_tol=1e-8, n_cut_max=PROPAGATING_NCUT_MAX)
        assert cert == dataclasses.replace(alone[index], point_index=index)
        if sweep == "thermalize_seed1":
            assert len(calls) == 13  # 19 when every point walks from 8

    @pytest.mark.parametrize("preset", [name for name in FIGURE_NAMES if PRESETS[name]["n_cut"] == "auto"])
    def test_every_point_passes_both_checks_at_the_sweeps_cutoff(self, preset):
        # the walk checks each point at its own first certifying n only; on
        # the propagating presets every point also passes at the sweep's
        config = resolve_config(preset=preset)
        n_cut = config.trunc().n_cut
        for point in config.sweep_points():
            params = config.params_at(point)
            pair = steady_state_tangent(params, Truncation(n_cut))
            value, leakage = qfi_series(pair).plateau, pair.central.leakage_max
            above = qfi_series(steady_state_tangent(params, Truncation(n_cut + 2))).plateau
            assert leakage <= Truncation.leakage_tol / 4, point
            assert abs(above - value) <= 1e-7 * abs(above), point

    def test_steady_paths_build_no_dense_generator(self, monkeypatch):
        # the steady state and its tangent read the complex coherence entries,
        # never the real form on Hermitian-basis coordinates that the
        # propagator scatters into its dense (d^2, d^2) generator
        def refuse(*args):
            raise AssertionError("the steady path built the real generator")

        monkeypatch.setattr(dynamics, "_real_entries", refuse)
        params = SystemParams(*CORNERS["fig8a"])
        certify_cutoff([params], leakage_tol=1e-8, n_cut_max=PROPAGATING_NCUT_MAX)
        dynamics.steady_state(params, Truncation(12))
        dynamics.steady_state_tangent(params, Truncation(12))
        with pytest.raises(AssertionError, match="built the real generator"):
            dynamics.propagate(vacuum_state(Truncation(12)), params, TimeGrid(1.0, 3), Truncation(12))

    def test_steady_paths_read_and_write_rho(self, monkeypatch):
        # the block solve takes and returns Hermitian matrices: the steady
        # paths build no Hermitian-basis layout and convert no coordinates
        def refuse(*args):
            raise AssertionError("the steady path converted Hermitian-basis coordinates")

        for name in ("_coordinates", "_from_coordinate_rows"):
            monkeypatch.setattr(dynamics, name, refuse)
        dynamics._entry_order.cache_clear()
        params = SystemParams(*CORNERS["fig8a"])
        certify_cutoff([params], leakage_tol=1e-8, n_cut_max=PROPAGATING_NCUT_MAX)
        dynamics.steady_state(params, Truncation(12))
        pair = dynamics.steady_state_tangent(params, Truncation(12))
        rho, drho = pair.central.entries[0], pair.derivative[0]
        assert dynamics._entry_order.cache_info().currsize == 0
        assert np.array_equal(rho, rho.conj().T) and np.array_equal(drho, drho.conj().T)

    def test_thermal_qfi_of_undriven_cavity(self):
        # the qfi rank cutoff (1e-12 of the largest eigenvalue) drops the
        # levels above about 11, which carry about 4e-10 of the value
        value = qfi_series(steady_state_tangent(SystemParams(0.0, 0.0, 0.0, 0.1), Truncation(40))).plateau
        assert value == pytest.approx(thermal_fisher(0.1), rel=1e-8)

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_steady_pair_qfi_is_the_one_state_qfi(self, corner):
        # the tau = inf pair's series reads the same stacked kernel as qfi
        pair = steady_state_tangent(SystemParams(*CORNERS[corner]), Truncation(16))
        series = qfi_series(pair)
        assert series.times.tolist() == [math.inf]
        one_state = qfi(pair.central.entries[0], pair.derivative[0]).qfi
        assert series.plateau.hex() == one_state.hex()

    def test_uncertifiable_point_raises(self):
        # a resonant linear drive holding 64 photons: no cutoff up to 48 holds them
        with pytest.raises(TruncationError, match=r"n_cut = 48 certifies sweep point 0"):
            certify_cutoff([SystemParams(0.0, 0.0, 8.0, 0.1)], 1e-8, PROPAGATING_NCUT_MAX)
