import warnings

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from kerr_thermo import (
    SystemParams,
    TimeGrid,
    Truncation,
    annihilation,
    generator_entries,
    gibbs_state,
    hamiltonian,
    lindblad_rhs,
    mean_photon_number,
    number_operator,
    propagate,
    purity,
    steady_state,
    steady_state_tangent,
    uhlmann_fidelity,
    vacuum_state,
)
from kerr_thermo import dynamics
from kerr_thermo.dynamics import _coordinates, _from_coordinate_rows, _generator_table
from kerr_thermo.errors import NumericalFailureError, TraceDriftError, TruncationError

from conftest import random_density_matrix
from kron_generator import kron_generator_table


def linear_params(n_th, drive=0.0, delta=0.0):
    return SystemParams(delta=delta, chi=0.0, drive=drive, n_th=n_th)


def hermitian_basis(dim):
    """Dense unitary U taking row-major vec(rho) to real Hermitian-basis
    coordinates: the diagonal, then sqrt2 Re rho_ij, then sqrt2 Im rho_ij, with
    (i, j) over np.triu_indices(dim, 1)."""
    iu, ju = np.triu_indices(dim, 1)
    m, c = iu.size, 1.0 / np.sqrt(2.0)
    basis = np.zeros((dim * dim, dim * dim), dtype=complex)
    basis[np.arange(dim), np.arange(dim) * (dim + 1)] = 1.0
    sym, anti = dim + np.arange(m), dim + m + np.arange(m)
    upper, lower = iu * dim + ju, ju * dim + iu
    basis[sym, upper] = c
    basis[sym, lower] = c
    basis[anti, upper] = -1j * c
    basis[anti, lower] = 1j * c
    return basis


def complex_liouvillian(params, dim):
    """The generator on row-major vec(rho) as a dense complex matrix, built
    column by column from lindblad_rhs on the matrix units."""
    ham = hamiltonian(params, Truncation(dim))
    unit = np.zeros(dim * dim, dtype=complex)
    columns = []
    for k in range(dim * dim):
        unit[k] = 1.0
        columns.append(lindblad_rhs(unit.reshape(dim, dim), params, ham).reshape(-1))
        unit[k] = 0.0
    return np.array(columns).T


def dense_generator(params, trunc):
    """The real generator R as a dense matrix, from generator_entries."""
    rows, cols, values = generator_entries(params, trunc)
    dd = trunc.n_cut**2
    rmat = np.zeros((dd, dd))
    rmat[rows, cols] = values
    return rmat


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
        # the table-built real generator is U L U^dag for the complex
        # Liouvillian L taken column by column from lindblad_rhs
        params = SystemParams(delta=-1.2, chi=0.4, drive=0.7, n_th=0.2)
        trunc = Truncation(8)
        lmat = complex_liouvillian(params, 8)
        ham = hamiltonian(params, trunc)
        rho = random_density_matrix(rng, 8)
        np.testing.assert_allclose((lmat @ rho.reshape(-1)).reshape(8, 8), lindblad_rhs(rho, params, ham), atol=1e-13)
        basis = hermitian_basis(8)
        np.testing.assert_allclose(dense_generator(params, trunc), basis @ lmat @ basis.conj().T, rtol=0, atol=1e-13)


class TestHermitianBasis:
    PARAMS = SystemParams(delta=-1.2, chi=0.4, drive=0.7, n_th=0.2)

    def test_basis_is_unitary(self):
        # an orthonormal basis: coordinates preserve the Hilbert-Schmidt product
        basis = hermitian_basis(7)
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(49), atol=1e-15)

    def test_real_generator_matches_rhs(self, rng):
        trunc = Truncation(8)
        rows, cols, values = generator_entries(self.PARAMS, trunc)
        assert values.dtype == np.float64
        assert np.unique(rows * 64 + cols).size == rows.size
        rmat = dense_generator(self.PARAMS, trunc)
        ham = hamiltonian(self.PARAMS, trunc)
        for _ in range(3):
            rho = random_density_matrix(rng, 8)
            via_basis = _from_coordinate_rows((rmat @ _coordinates(rho))[None], 8)[0]
            np.testing.assert_allclose(via_basis, lindblad_rhs(rho, self.PARAMS, ham), atol=1e-13)

    def test_coordinate_round_trip(self, rng):
        rho = random_density_matrix(rng, 9)
        coords = _coordinates(rho)
        assert coords.dtype == np.float64
        np.testing.assert_allclose(coords, (hermitian_basis(9) @ rho.reshape(-1)).real, atol=1e-15)
        back = _from_coordinate_rows(coords[None], 9)[0]
        assert np.abs(back - back.conj().T).max() == 0.0
        np.testing.assert_allclose(back, rho, atol=1e-15)

    def test_dense_sample_map_is_real(self, monkeypatch):
        built = []
        taylor = dynamics._taylor

        def spy(maps):
            out = taylor(maps)
            built.extend(m.dtype for m in out)
            return out

        monkeypatch.setattr(dynamics, "_taylor", spy)
        trunc = Truncation(10)
        propagate(vacuum_state(trunc), linear_params(0.05), TimeGrid(t_end=0.5, n_samples=3), trunc)
        assert built == [np.float64]

    def test_cached_indices_give_bit_identical_states(self, monkeypatch):
        # reference: the coordinate maps rebuilding np.triu_indices on every call
        def coordinates(mat):
            upper = np.sqrt(2.0) * mat[np.triu_indices(mat.shape[0], 1)]
            return np.concatenate([mat.diagonal().real, upper.real, upper.imag])

        def from_coordinates(coords, dim):
            iu = np.triu_indices(dim, 1)
            re, im = coords[dim:].reshape(2, -1)
            mat = np.diag(coords[:dim].astype(np.complex128))
            mat[iu] = (re + 1j * im) / np.sqrt(2.0)
            mat[iu[::-1]] = mat[iu].conj()
            return mat

        trunc = Truncation(16)
        grid = TimeGrid(t_end=2.0, n_samples=9)
        cached = propagate(vacuum_state(trunc), self.PARAMS, grid, trunc)
        monkeypatch.setattr(dynamics, "_coordinates", coordinates)
        monkeypatch.setattr(
            dynamics,
            "_from_coordinate_rows",
            lambda rows, dim: np.stack([from_coordinates(r, dim) for r in rows]),
        )
        rebuilt = propagate(vacuum_state(trunc), self.PARAMS, grid, trunc)
        for a, b in zip(cached.states, rebuilt.states):
            np.testing.assert_allclose(a.entries, b.entries, rtol=0, atol=0)


    def test_cached_table_gives_bit_identical_results(self, monkeypatch):
        # reference: the stencil, the generator table and the coherence blocks
        # rebuilt on every call
        trunc = Truncation(16)
        grid = TimeGrid(t_end=2.0, n_samples=9)

        def run():
            traj = propagate(vacuum_state(trunc), self.PARAMS, grid, trunc)
            ss = steady_state(self.PARAMS, trunc)
            pair = steady_state_tangent(self.PARAMS, trunc)
            return traj.entries, ss.entries, pair.central.entries, pair.derivative

        cached = run()
        for name in CACHED_BUILDS:
            build = getattr(dynamics, name)
            built = build(16)
            assert build(16) is built
            arrays = [a for a in built if isinstance(a, np.ndarray)]
            assert arrays and not any(arr.flags.writeable for arr in arrays)
        for name in CACHED_BUILDS:
            monkeypatch.setattr(dynamics, name, getattr(dynamics, name).__wrapped__)
        for a, b in zip(cached, run()):
            assert a.tobytes() == b.tobytes()


CACHED_BUILDS = ("_stencil", "_coherence_coordinates", "_stencil_entries", "_generator_table", "_coherence_blocks")


@pytest.mark.parametrize("dim", list(range(2, 49)) + [120])
def test_closed_form_table_matches_the_kronecker_build(dim):
    # the table built from the lattice stencil against the generic build from
    # Kronecker products of the operators: the same COO set, and every value
    # within 4 ulps of the largest entry
    rows, cols, table = _generator_table(dim)
    ref_rows, ref_cols, ref_table = kron_generator_table(dim)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(cols, ref_cols)
    scale = np.abs(ref_table).max()
    assert np.abs(table - ref_table).max() <= 4 * np.finfo(float).eps * scale


def test_stencil_matches_lindblad_rhs(rng):
    params = SystemParams(delta=-1.2, chi=0.4, drive=0.7, n_th=0.2)
    for dim in (2, 7):
        rho = random_density_matrix(rng, dim)
        via_stencil = dynamics._stencil_apply(dynamics._coefficients(params), rho)
        expected = lindblad_rhs(rho, params, hamiltonian(params, Truncation(dim)))
        assert np.abs(via_stencil - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize(
    "params",
    [
        SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=0.3),
        SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05),
        SystemParams(delta=1.7, chi=0.35, drive=2.5, n_th=1e-4),
    ],
)
def test_n_th_slope_is_the_coefficients_derivative(params):
    # _coefficients is affine in n_th, so its unit difference is the slope
    slope = dynamics._coefficients(params.with_n_th(1.0)) - dynamics._coefficients(params.with_n_th(0.0))
    assert slope.tobytes() == dynamics._N_TH_SLOPE.tobytes()


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
        np.testing.assert_allclose(mean_photon_number(traj.entries), expected, atol=1e-6)

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

    @pytest.mark.parametrize(
        "params, n_cut, grid",
        [
            (SystemParams(delta=-2.0, chi=0.3, drive=0.8, n_th=0.1), 16, TimeGrid(t_end=2.0, n_samples=6)),
            # the fig8a and fig2a points at their certified cutoffs
            (SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05), 12, TimeGrid(t_end=30.0, n_samples=121)),
            (SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05), 14, TimeGrid(t_end=30.0, n_samples=201)),
        ],
        ids=["n16", "fig8a-n12", "fig2a-n14"],
    )
    def test_matches_exact_exponential(self, params, n_cut, grid):
        # oracle: scipy's scaling-and-squaring expm of the complex Liouvillian
        # (built from lindblad_rhs) over one sample interval, applied to
        # vec(rho0) sample by sample
        trunc = Truncation(n_cut)
        sample_map = expm(grid.spacing * complex_liouvillian(params, n_cut))
        traj = propagate(vacuum_state(trunc), params, grid, trunc)
        vec = vacuum_state(trunc).entries.reshape(-1)
        for state in traj.states:
            np.testing.assert_allclose(state.entries, vec.reshape(n_cut, n_cut), rtol=0, atol=1e-12)
            vec = sample_map @ vec

    @pytest.mark.parametrize(
        "params, n_cut, grid",
        [
            (SystemParams(delta=-2.0, chi=0.3, drive=0.8, n_th=0.1), 8, TimeGrid(t_end=2.0, n_samples=6)),
            (SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05), 14, TimeGrid(t_end=30.0, n_samples=201)),
            (SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05), 16, TimeGrid(t_end=30.0, n_samples=121)),
            (SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05), 30, TimeGrid(t_end=30.0, n_samples=201)),
        ],
        ids=["n8", "fig2a-n14", "fig8a-n16", "fig8a-n30"],
    )
    def test_sample_map_and_tangent_match_expm_frechet(self, params, n_cut, grid):
        # oracle: scipy's expm_frechet of A = spacing R along E = spacing R1,
        # R1 = R(n_th + 1) - R(n_th) since R is affine in n_th.  Measured: the
        # map 3.5e-14 to 8.7e-14 of its largest entry, the tangent 9.6e-14 to
        # 2.5e-13
        trunc = Truncation(n_cut)
        sample_map, derivative = dynamics._sample_maps(params, grid, trunc, tangent=True)
        shifted = SystemParams(params.delta, params.chi, params.drive, n_th=params.n_th + 1.0)
        a = grid.spacing * dense_generator(params, trunc)
        e = grid.spacing * dense_generator(shifted, trunc) - a
        exact, exact_derivative = expm_frechet(a, e)
        assert np.abs(sample_map - exact).max() <= 1e-12 * np.abs(exact).max()
        assert np.abs(derivative - exact_derivative).max() <= 1e-12 * np.abs(exact_derivative).max()

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
        for step in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="integrator_step"):
                TimeGrid(t_end=1.0, n_samples=11, integrator_step=step)


# The drift message names what sets the sample map's roundoff: the spacing.
DRIFT_ADVICE = r"trace drifted by .* shorten the sample spacing \(raise n_samples\)"


class TestBatchedValidation:
    """The one-pass validation names the first failing sample, checked there
    in the order trace drift, leakage, finiteness, positivity."""

    PARAMS = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05)
    TRUNC = Truncation(12)
    GRID = TimeGrid(t_end=3.0, n_samples=11)

    @staticmethod
    def drift(mat):
        mat[0, 0] += 1e-5

    @staticmethod
    def leak(mat):
        mat[-1, -1] += 1e-6
        mat[0, 0] -= 1e-6

    @staticmethod
    def negative(mat):
        mat[-3, -3] -= 1e-5
        mat[0, 0] += 1e-5

    @staticmethod
    def non_finite(mat):
        mat[0, 1] = np.nan

    def propagate_with(self, monkeypatch, edits):
        fill = dynamics._from_coordinate_rows

        def edited(rows, dim):
            entries = fill(rows, dim)
            for k, edit in edits:
                edit(entries[k])
            return entries

        monkeypatch.setattr(dynamics, "_from_coordinate_rows", edited)
        return propagate(vacuum_state(self.TRUNC), self.PARAMS, self.GRID, self.TRUNC)

    @pytest.mark.parametrize(
        "edits, error, text, k",
        [
            ([(4, "drift")], TraceDriftError, DRIFT_ADVICE, 4),
            ([(4, "leak")], TruncationError, "top-two-level population", 4),
            ([(4, "negative")], NumericalFailureError, "smallest eigenvalue", 4),
            ([(4, "non_finite")], NumericalFailureError, "non-finite", 4),
            # the first failing sample wins, whatever its check
            ([(3, "negative"), (6, "drift")], NumericalFailureError, "smallest eigenvalue", 3),
            ([(3, "leak"), (6, "negative")], TruncationError, "top-two-level population", 3),
            ([(7, "drift"), (2, "non_finite")], NumericalFailureError, "non-finite", 2),
            # at one sample: drift, then leakage, then positivity
            ([(5, "negative"), (5, "leak"), (5, "drift")], TraceDriftError, DRIFT_ADVICE, 5),
            ([(5, "negative"), (5, "leak")], TruncationError, "top-two-level population", 5),
        ],
        ids=[
            "drift", "leak", "negative", "non-finite", "negative-first", "leak-first",
            "non-finite-first", "drift-over-all", "leak-over-negative",
        ],
    )
    def test_error_names_first_failing_time(self, monkeypatch, edits, error, text, k):
        edits = [(j, getattr(self, name)) for j, name in edits]
        with pytest.raises(error, match=text) as info:
            self.propagate_with(monkeypatch, edits)
        assert f"tau = {self.GRID.times[k]:g}" in str(info.value)
        # a smaller integrator step only adds squarings, so no message advises it
        assert "integrator" not in str(info.value)

    def test_unedited_run_passes(self, monkeypatch):
        traj = self.propagate_with(monkeypatch, [])
        assert len(traj.states) == 11

    def test_samples_past_a_failure_raise_no_warning(self, monkeypatch):
        # a map growing by 1e100 per sample fails at the first sample and
        # overflows a few samples later; those samples are still computed
        monkeypatch.setattr(
            dynamics, "_sample_maps", lambda params, grid, trunc, tangent: (1e100 * np.eye(trunc.n_cut**2),)
        )
        grid = TimeGrid(t_end=2.0, n_samples=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((TraceDriftError, NumericalFailureError), match=r"tau = 0\.2\b"):
                propagate(vacuum_state(self.TRUNC), self.PARAMS, grid, self.TRUNC)


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
        gap = np.abs(mean_photon_number(traj.entries) - 0.2)
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

    def test_truncated_steady_state_raises_on_leakage(self):
        # resonant drive 5: a displaced thermal state with |alpha|^2 = 25,
        # whose top two of 60 levels still hold 4.7e-8 of the population
        params = linear_params(0.05, drive=5.0)
        with pytest.raises(TruncationError, match="4.68.e-08 exceeds leakage_tol 1.0e-08 in the steady state"):
            steady_state(params, Truncation(60))
        ss = steady_state(params, Truncation(60, leakage_tol=1e-7))
        assert dynamics._leakage(ss.entries) == pytest.approx(4.7e-8, rel=0.01)

    def test_fixed_point_residual(self):
        trunc = Truncation(30)
        params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
        ss = steady_state(params, trunc)
        res = lindblad_rhs(ss, params, hamiltonian(params, trunc))
        assert np.abs(res).max() < 1e-8


class TestSteadyStateTangent:
    PARAMS = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05)

    def test_state_matches_steady_state(self):
        trunc = Truncation(16)
        pair = steady_state_tangent(self.PARAMS, trunc)
        rho, drho = pair.central.entries[0], pair.derivative[0]
        assert np.abs(rho - steady_state(self.PARAMS, trunc).entries).max() < 1e-12
        assert np.abs(drho - drho.conj().T).max() == 0.0
        assert abs(np.trace(drho)) < 1e-12

    def test_derivative_matches_stencil_of_steady_states(self):
        # the exact tangent solve against a five-point stencil of full solves
        trunc = Truncation(16)
        drho = steady_state_tangent(self.PARAMS, trunc).derivative[0]
        h = 1e-3
        ss = {
            k: steady_state(self.PARAMS.with_n_th(0.05 + k * h), trunc).entries
            for k in (-2, -1, 1, 2)
        }
        stencil = (ss[-2] - ss[2] + 8.0 * (ss[1] - ss[-1])) / (12.0 * h)
        assert np.abs(drho - stencil).max() < 1e-8 * np.abs(drho).max() + 1e-10

    def test_undriven_linear_cavity_thermal_derivative(self):
        # the Gibbs family: d p_j / d n = p_j (j / n - (j + 1) / (n + 1))
        n, dim = 0.1, 30
        drho = steady_state_tangent(linear_params(n), Truncation(dim)).derivative[0]
        j = np.arange(dim)
        p = (n / (n + 1.0)) ** j / (n + 1.0)
        assert np.abs(drho - np.diag(p * (j / n - (j + 1.0) / (n + 1.0)))).max() < 1e-10


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
