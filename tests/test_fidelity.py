import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kerr_thermo import (
    EffTempTrace,
    SystemParams,
    TimeGrid,
    Trajectory,
    Truncation,
    default_search_max,
    effective_temperature,
    gibbs_state,
    propagate,
    thermalization_trace,
    uhlmann_fidelity,
    vacuum_state,
)
from kerr_thermo import fidelity
from kerr_thermo.config import resolve_config
from kerr_thermo.errors import BracketBoundaryWarning

from conftest import random_density_matrix, random_unitary


def gibbs_pair_fidelity(n1, n2):
    # closed form for two thermal states
    return 1.0 / (math.sqrt((n1 + 1) * (n2 + 1)) - math.sqrt(n1 * n2)) ** 2


class TestUhlmannFidelity:
    def test_self_fidelity_is_one(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng, 10)
            assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_and_identical_pure_states(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert uhlmann_fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)
        assert uhlmann_fidelity(p0, p0) == pytest.approx(1.0, abs=1e-12)

    def test_pure_states_reduce_to_overlap(self, rng):
        # for pure states the fidelity is Tr(rho sigma)
        for _ in range(5):
            u = random_unitary(rng, 6)
            a = np.outer(u[:, 0], u[:, 0].conj())
            b = np.outer(u[:, 1], u[:, 1].conj())
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            v /= np.linalg.norm(v)
            c = np.outer(v, v.conj())
            overlap = float(np.einsum("ij,ji->", a, c).real)
            assert uhlmann_fidelity(a, c) == pytest.approx(overlap, abs=1e-10)
            assert uhlmann_fidelity(a, b) == pytest.approx(0.0, abs=1e-10)

    def test_two_gibbs_states_closed_form(self):
        trunc = Truncation(60)
        got = uhlmann_fidelity(gibbs_state(0.05, trunc), gibbs_state(0.1, trunc))
        assert got == pytest.approx(gibbs_pair_fidelity(0.05, 0.1), rel=1e-10)

    def test_symmetry(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng, 8)
            sigma = random_density_matrix(rng, 8)
            assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(sigma, rho)) <= 1e-10

    def test_range(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng, 8)
            sigma = random_density_matrix(rng, 8)
            assert 0.0 <= uhlmann_fidelity(rho, sigma) <= 1.0

    def test_unitary_invariance(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng, 8)
            sigma = random_density_matrix(rng, 8)
            u = random_unitary(rng, 8)
            before = uhlmann_fidelity(rho, sigma)
            after = uhlmann_fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
            assert abs(before - after) <= 1e-9

    def test_commuting_diagonal_inputs(self, rng):
        p = rng.uniform(0.1, 1.0, size=12)
        q = rng.uniform(0.1, 1.0, size=12)
        p /= p.sum()
        q /= q.sum()
        expected = float(np.sqrt(p * q).sum() ** 2)
        got = uhlmann_fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            uhlmann_fidelity(np.eye(3) / 3, np.eye(4) / 4)

    def test_non_psd_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            uhlmann_fidelity(bad, np.eye(2) / 2)


def doubled_gibbs():
    return 2.0 * gibbs_state(0.1, Truncation(6)).entries


def gibbs_with_nan():
    rho = gibbs_state(0.1, Truncation(6)).entries.copy()
    rho[2, 2] = math.nan
    return rho


class TestRawArrayChecks:
    """Raw arrays get the trace and finiteness checks that DensityMatrix makes.

    A doubled Gibbs state once returned (1e-4, 1.0) from effective_temperature
    and 1.0 from uhlmann_fidelity (by clipping); a NaN entry once returned
    (1.0, 0.048) with a BracketBoundaryWarning, and numpy's LinAlgError from
    uhlmann_fidelity.
    """

    @pytest.mark.parametrize(
        "make_bad, message",
        [(doubled_gibbs, "unit trace"), (gibbs_with_nan, "non-finite")],
        ids=["doubled_trace", "nan_entry"],
    )
    def test_rejected(self, make_bad, message):
        good = gibbs_state(0.1, Truncation(6)).entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                effective_temperature(make_bad(), 1.0)
        for pair in ((make_bad(), make_bad()), (make_bad(), good), (good, make_bad())):
            with pytest.raises(ValueError, match=message):
                uhlmann_fidelity(*pair)

    def test_trace_within_tolerance_passes(self):
        rho = gibbs_state(0.1, Truncation(6)).entries * (1.0 + 5e-8)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-7)


class TestEffectiveTemperature:
    def test_recovers_gibbs_occupations(self):
        trunc = Truncation(60)
        for n in (0.0, 0.01, 0.05, 0.1, 0.5, 1.0):
            rho = gibbs_state(n, trunc)
            n_eff, fid = effective_temperature(rho, search_max=5.0)
            assert n_eff == pytest.approx(n, abs=1e-5)
            assert fid >= 1.0 - 1e-10

    def test_vacuum_maps_to_zero(self):
        # the refined point lies inside (0, 1e-4] and scores below the scan
        # point 0, so the best-of-scan guard returns exactly 0
        n_eff, fid = effective_temperature(vacuum_state(Truncation(20)), search_max=1.0)
        assert n_eff == 0.0
        assert fid == 1.0

    def test_negative_tail_populations_keep_a_sharp_maximum(self):
        # propagated states can carry populations of about -1e-14 in their
        # top levels; the positive part then has mass above 1, so F(n_eff)
        # exceeds 1 near its maximum.  Clipping F at 1 flattened that top
        # into a plateau about 2e-7 wide, and the search stopped anywhere on
        # it (1.5e-7 off; 2.2e-9 unclipped)
        p = gibbs_state(0.05, Truncation(30)).entries.diagonal().real.copy()
        p[12:] = -8.5e-15
        n_eff, _ = effective_temperature(np.diag(p / p.sum()), search_max=1.0)
        assert n_eff == pytest.approx(0.05, abs=1e-8)

    def test_boundary_warning(self):
        rho = gibbs_state(0.5, Truncation(60))
        with pytest.warns(BracketBoundaryWarning):
            effective_temperature(rho, search_max=0.3)

    def test_invalid_search_max(self):
        # inf once escaped as numpy's LinAlgError from the scan's eigensolver
        for search_max in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="search_max must be finite and positive"):
                effective_temperature(gibbs_state(0.1, Truncation(6)), search_max=search_max)

    def test_default_search_max_scales_with_occupation(self):
        rho = gibbs_state(0.2, Truncation(40))
        assert default_search_max(rho) == pytest.approx(5 * (0.2 + 0.1), rel=1e-6)


class TestThermalizationTrace:
    def test_linear_cavity_follows_rate_equation(self):
        # the evolved state is exactly thermal with <n>(tau) = n_th(1 - e^{-2 tau})
        trunc = Truncation(25)
        params = SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=0.1)
        traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=3.0, n_samples=16), trunc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = thermalization_trace(traj, search_max=1.0)
        expected = 0.1 * (1.0 - np.exp(-2.0 * trace.times))
        np.testing.assert_allclose(trace.n_eff, expected, atol=2e-3)
        assert np.all(trace.fidelity_at_opt >= 1.0 - 1e-8)

    def test_constant_vacuum_trajectory(self):
        trunc = Truncation(10)
        params = SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=0.0)
        traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=2.0, n_samples=6), trunc)
        trace = thermalization_trace(traj, search_max=0.5)
        np.testing.assert_allclose(trace.n_eff, 0.0, atol=1e-6)

    def test_evaluation_counts_checked(self):
        times, ones = np.arange(3.0), np.ones(3)
        assert EffTempTrace(times, ones, ones).evaluations is None
        for bad in (np.full(2, 26), np.array([26, -1, 26])):
            with pytest.raises(ValueError, match="one nonnegative count per time"):
                EffTempTrace(times, ones, ones, evaluations=bad)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -0.1, 1.5])
    def test_final_window_rejects_fraction_outside_unit_interval(self, bad):
        # nan once raised "cannot convert float NaN to integer", 0 and
        # negative values used two samples and 1.5 the whole trace
        trace = EffTempTrace(np.arange(10.0), np.linspace(0.1, 0.2, 10), np.ones(10))
        with pytest.raises(ValueError, match="window_frac"):
            trace.final_window_change(bad)

    def test_final_window_spans_the_last_samples(self):
        trace = EffTempTrace(np.arange(10.0), np.linspace(0.1, 0.2, 10), np.ones(10))
        assert trace.final_window_change(0.1) == pytest.approx((0.1 / 9) / 0.2)
        assert trace.final_window_change(1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [-0.1, math.nan])
    def test_n_eff_gate_rejects_negative_and_nan(self, bad):
        with pytest.raises(ValueError, match="n_eff"):
            EffTempTrace([0.0, 1.0], [0.1, bad], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [-0.1, math.nan, 1.0 + 1e-6])
    def test_fidelity_gate_rejects_outside_unit_interval_and_nan(self, bad):
        with pytest.raises(ValueError, match="fidelity_at_opt"):
            EffTempTrace([0.0, 1.0], [0.1, 0.1], [1.0, bad])
        # the gate's roundoff allowance above one still passes
        EffTempTrace([0.0, 1.0], [0.1, 0.1], [1.0, 1.0 + 1e-10])

    def test_fidelities_within_unit_interval(self):
        trunc = Truncation(30)
        params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
        traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=5.0, n_samples=11), trunc)
        trace = thermalization_trace(traj)
        assert np.all(trace.fidelity_at_opt >= 0.0)
        assert np.all(trace.fidelity_at_opt <= 1.0 + 1e-9)


class TestUhlmannPrecision:
    """No square-root noise on propagated states with many ~1e-14 eigenvalues."""

    def test_smooth_in_the_gibbs_occupation(self, fig2a_trajectory):
        traj, search_max = fig2a_trajectory
        rho = traj.final
        center = effective_temperature(rho, search_max)[0]
        offsets = np.linspace(-1e-4, 1e-4, 41)
        trunc = Truncation(rho.dim)
        for flip in (False, True):
            pairs = [(rho, gibbs_state(center + x, trunc)) for x in offsets]
            values = np.array([uhlmann_fidelity(*(p[::-1] if flip else p)) for p in pairs])
            fit = np.polyval(np.polyfit(offsets, values, 2), offsets)
            assert np.abs(values - fit).max() <= 1e-10

    def test_matches_the_gibbs_kernel(self, fig2a_trajectory):
        traj, _ = fig2a_trajectory
        rho = traj.final
        trunc = Truncation(rho.dim)
        n = np.array([0.0564, 0.1, 0.5, 2.0])
        kernel = fidelity._gibbs_fidelities(rho.entries, n)
        for n_eff, expected in zip(n, kernel):
            sigma = gibbs_state(n_eff, trunc)
            assert abs(uhlmann_fidelity(rho, sigma) - expected) <= 1e-11
            assert abs(uhlmann_fidelity(sigma, rho) - expected) <= 1e-11
        assert uhlmann_fidelity(rho, rho) >= 1.0 - 1e-14


def gibbs_fidelity_reference(rho, n):
    """F(rho, gibbs_state(n)) for one state and one n, by the diagonal square root.

    The scalar formula, written out here so the oracle shares no code with the
    batched kernel under test.  ``uhlmann_fidelity`` computes the same number
    by another route (see ``TestUhlmannPrecision``); this one is smooth in n
    to about 1e-11 on the fig2a states at n_cut 30.
    """
    sq = np.sqrt(gibbs_state(n, Truncation(rho.dim)).populations())
    inner = sq[:, None] * rho.entries * sq[None, :]
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum() ** 2)


def oracle_effective_temperature(rho, search_max):
    """65-point scan plus scipy's bounded Brent search at xatol 1e-10."""
    from scipy.optimize import minimize_scalar

    grid = np.concatenate(([0.0], np.geomspace(1e-4, search_max, 64)))
    values = [gibbs_fidelity_reference(rho, n) for n in grid]
    best = int(np.argmax(values))
    bounds = (grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)])
    res = minimize_scalar(
        lambda n: -gibbs_fidelity_reference(rho, n),
        bounds=bounds,
        method="bounded",
        options={"xatol": 1e-10},
    )
    if values[best] > -res.fun:
        return grid[best], values[best]
    return res.x, -res.fun


@pytest.fixture(scope="module", params=[1.0, 0.0], ids=["fig2a_point", "undriven"])
def fig2a_trajectory(request):
    trunc = Truncation(30)
    params = SystemParams(delta=-3.5, chi=0.5, drive=request.param, n_th=0.05)
    traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=30.0, n_samples=41), trunc)
    return traj, default_search_max(traj.entries)


def count_kernel_calls(monkeypatch):
    """Matrices per call of the stacked Gibbs-fidelity kernel, one entry per call."""
    calls = []
    kernel = fidelity._gibbs_fidelities

    def counted(rho, n_eff):
        calls.append(int(np.prod(np.broadcast_shapes(rho.shape[:-2], np.shape(n_eff)))))
        return kernel(rho, n_eff)

    monkeypatch.setattr(fidelity, "_gibbs_fidelities", counted)
    return calls


@pytest.fixture(scope="module")
def benchmark_draw():
    """perfbench's thermalize seed-1 draw: fig2a at n_th 0.05, 0.1 and drive
    0.6531, 0.9241, 201 states each at the certified n_cut 14."""
    config = resolve_config(
        preset="fig2a", overrides=("n_th=0.05,0.1", "drive=0.6531,0.9241"), command="thermalize"
    )
    trunc, grid = config.trunc(), config.grid()
    assert trunc.n_cut == 14
    return [
        propagate(vacuum_state(trunc), config.params_at(point), grid, trunc)
        for point in config.sweep_points()
    ]


def assert_trace_matches_single_states(traj, search_max, monkeypatch):
    """The trace against effective_temperature run on each state alone.

    Anchor states (0, 1, every 16th and the last) run that search in
    lockstep and match it bit for bit.  Every other state is bracketed around
    the anchors' interpolated optimum and lands within Brent's tolerance of
    it, at no lower fidelity.  The search is batched: one stacked kernel call
    per fully searched state's scan, and at most 40 rounds in each of the
    three lockstep Brent searches (anchors, bracketed states, fallbacks).
    """
    calls = count_kernel_calls(monkeypatch)
    trace = thermalization_trace(traj, search_max)
    monkeypatch.undo()
    assert sum(calls) == trace.evaluations.sum()
    assert len(calls) <= np.count_nonzero(trace.evaluations > 16) + 120
    single = np.array([effective_temperature(s, search_max) for s in traj.states])
    m = len(traj.states)
    anchor = np.zeros(m, dtype=bool)
    anchor[::16] = anchor[:2] = anchor[-1] = True
    assert np.array_equal(trace.n_eff[anchor], single[anchor, 0])
    assert np.array_equal(trace.fidelity_at_opt[anchor], single[anchor, 1])
    np.testing.assert_allclose(trace.n_eff[~anchor], single[~anchor, 0], rtol=0, atol=1e-7)
    assert np.all(trace.fidelity_at_opt[~anchor] >= single[~anchor, 1] - 1e-12)


class TestEffectiveTemperatureSearch:
    def test_agrees_with_oracle(self, fig2a_trajectory):
        traj, search_max = fig2a_trajectory
        trace = thermalization_trace(traj, search_max)
        oracle = np.array([oracle_effective_temperature(s, search_max) for s in traj.states])
        np.testing.assert_allclose(trace.n_eff, oracle[:, 0], rtol=0, atol=1e-6)
        assert np.all(trace.fidelity_at_opt >= oracle[:, 1] - 1e-12)
        # the kernel computes the Uhlmann fidelity
        uhlmann = [
            uhlmann_fidelity(s, gibbs_state(n, Truncation(s.dim)))
            for s, n in zip(traj.states, trace.n_eff)
        ]
        np.testing.assert_allclose(trace.fidelity_at_opt, uhlmann, rtol=0, atol=1e-7)

    def test_batched_trace_matches_single_states(self, fig2a_trajectory, monkeypatch):
        traj, search_max = fig2a_trajectory
        assert_trace_matches_single_states(traj, search_max, monkeypatch)

    def test_batched_trace_matches_single_states_on_the_benchmark_draw(
        self, benchmark_draw, monkeypatch
    ):
        for traj in benchmark_draw:
            assert_trace_matches_single_states(traj, default_search_max(traj.entries), monkeypatch)

    def test_evaluations_pinned_on_the_benchmark_draw(self, benchmark_draw, monkeypatch):
        # perfbench's thermalize seed-1 draw: the search evaluates 8.07, 8.29,
        # 8.53 and 8.61 Gibbs-fidelity matrices per state (11.22, 11.29, 11.43
        # and 11.25 without the certificate round, 26.0, 26.9, 26.0 and 26.0
        # when every state ran the full search, both with the earlier
        # Kronecker-built generator table), counted by the kernel and by the
        # trace alike.  The count sits on the certificate's knife edge: that
        # table's few ulps of roundoff gave 1677 evaluations on the second
        # trajectory, where the exact closed-form table gives 1667
        calls = count_kernel_calls(monkeypatch)
        totals = []
        for traj in benchmark_draw:
            start = len(calls)
            trace = thermalization_trace(traj)
            totals.append(sum(calls[start:]))
            assert trace.evaluations.sum() == totals[-1]
        assert totals == [1623, 1667, 1715, 1730]
        assert round(sum(totals) / (4 * 201), 2) == 8.38

    @pytest.mark.parametrize("preset", ["fig2a", "fig2b", "fig2c", "fig2d"])
    def test_one_maximum_per_state(self, preset):
        # the trace brackets most states around a predicted optimum and trusts
        # the maximum it finds there; that needs F(n_eff) to have one local
        # maximum, checked on a 400-point grid at every 10th state
        config = resolve_config(preset=preset, command="thermalize")
        trunc = config.trunc()
        (point,) = config.sweep_points()
        traj = propagate(vacuum_state(trunc), config.params_at(point), config.grid(), trunc)
        grid = np.linspace(0.0, default_search_max(traj.entries), 400)
        for k, rho in enumerate(traj.entries[::10]):
            slopes = np.sign(np.diff(fidelity._gibbs_fidelities(rho, grid)))
            slopes = slopes[slopes != 0]
            maxima = np.count_nonzero((slopes[:-1] > 0) & (slopes[1:] < 0))
            maxima += (slopes[0] < 0) + (slopes[-1] > 0)
            assert maxima == 1, f"state {10 * k} has {maxima} local maxima"

    def test_evaluation_budget(self, fig2a_trajectory, monkeypatch):
        # at most 30 fidelity evaluations per state on average; the vacuum at
        # tau = 0 peaks on the bracket edge, where every refinement step is a
        # golden-section step, and takes the most
        traj, search_max = fig2a_trajectory
        calls = count_kernel_calls(monkeypatch)
        counts = []
        for state in traj.states:
            start = len(calls)
            effective_temperature(state, search_max)
            counts.append(sum(calls[start:]))
        assert sum(counts) <= 30 * len(traj.states)
        assert max(counts) <= 40

    def test_boundary_warning_once_per_trace(self):
        # n_eff climbs to 0.1 while search_max is 0.02: most states peak on
        # the bracket edge, and the trace warns once
        trunc = Truncation(20)
        params = SystemParams(delta=0.0, chi=0.0, drive=0.0, n_th=0.1)
        traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=3.0, n_samples=11), trunc)
        with warnings.catch_warnings(record=True) as per_state:
            warnings.simplefilter("always")
            for state in traj.states:
                effective_temperature(state, search_max=0.02)
        assert sum(w.category is BracketBoundaryWarning for w in per_state) >= 5
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            thermalization_trace(traj, search_max=0.02)
        assert [w.category for w in caught] == [BracketBoundaryWarning]
        assert str(caught[0].message) == (
            "effective-temperature maximizer hit search_max = 0.02; enlarge the bracket"
        )

    def test_trace_temporaries_stay_bounded(self):
        # one 201 x 16 stack of 30 x 30 complex matrices would be 46 MB; the
        # scan goes state by state and the Brent rounds stack one matrix per state
        trunc = Truncation(30)
        params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
        traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=30.0, n_samples=201), trunc)
        search_max = default_search_max(traj.entries)
        tracemalloc.start()
        try:
            thermalization_trace(traj, search_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def gibbs_trajectory(occupations, dim=8):
    """A trajectory of Gibbs states: state k is the Gibbs state at occupations[k]."""
    trunc = Truncation(dim)
    entries = np.stack([gibbs_state(n, trunc).entries for n in occupations])
    return Trajectory(np.arange(len(entries), dtype=float), entries, 0.0)


def anchor_mask(m):
    anchor = np.zeros(m, dtype=bool)
    anchor[::16] = anchor[:2] = anchor[-1] = True
    return anchor


class TestCertificate:
    """The three-point certificate between the anchors and the bracketed search.

    On a trajectory of Gibbs states the anchors find each optimum to about
    1e-9, and the fidelity peaks at 1 where the Gibbs occupation matches, so
    the anchors' interpolation predicts a state's optimum exactly when the
    occupations are linear in the state index.
    """

    M = 41

    def predicted(self, trace):
        anchor = anchor_mask(self.M)
        return np.interp(np.arange(self.M), np.flatnonzero(anchor), trace.n_eff[anchor])

    def test_exact_prediction_certifies_in_three_evaluations(self, monkeypatch):
        traj = gibbs_trajectory(0.05 + 0.002 * np.arange(self.M))
        calls = count_kernel_calls(monkeypatch)
        trace = thermalization_trace(traj, search_max=1.0)
        monkeypatch.undo()
        free = ~anchor_mask(self.M)
        assert sum(calls) == trace.evaluations.sum()
        assert np.all(trace.evaluations[free] == 3)
        assert np.array_equal(trace.n_eff[free], self.predicted(trace)[free])
        single = np.array([effective_temperature(s, 1.0) for s in traj.states])
        np.testing.assert_allclose(trace.n_eff, single[:, 0], rtol=0, atol=1e-7)
        assert np.all(trace.fidelity_at_opt >= single[:, 1] - 1e-12)

    def test_missed_prediction_falls_back_to_the_bracketed_search(self, monkeypatch):
        # every state between the anchors sits 1e-3 relative off the line
        # through them, far beyond Brent's tolerance of the prediction
        occupations = 0.05 + 0.002 * np.arange(self.M)
        free = ~anchor_mask(self.M)
        occupations[free] *= 1.0 + 1e-3
        traj = gibbs_trajectory(occupations)
        calls = count_kernel_calls(monkeypatch)
        trace = thermalization_trace(traj, search_max=1.0)
        monkeypatch.undo()
        assert sum(calls) == trace.evaluations.sum()
        assert np.all(trace.evaluations[free] > 3)
        assert np.all(trace.n_eff[free] != self.predicted(trace)[free])
        single = np.array([effective_temperature(s, 1.0) for s in traj.states])
        np.testing.assert_allclose(trace.n_eff, single[:, 0], rtol=0, atol=1e-7)
        np.testing.assert_allclose(trace.n_eff, occupations, rtol=0, atol=1e-7)
        assert np.all(trace.fidelity_at_opt >= single[:, 1] - 1e-12)

    def test_prediction_within_tolerance_of_zero_never_certifies(self):
        # the anchors' optimum of the vacuum is exactly 0, so p - tol < 0 and
        # the certificate would need a negative occupation; every state
        # between the anchors runs the full search instead
        traj = gibbs_trajectory(np.zeros(self.M))
        trace = thermalization_trace(traj, search_max=0.5)
        free = ~anchor_mask(self.M)
        assert np.all(self.predicted(trace) == 0.0)
        assert np.all(trace.evaluations[free] > fidelity._SCAN_POINTS)
        np.testing.assert_allclose(trace.n_eff, 0.0, atol=1e-7)
