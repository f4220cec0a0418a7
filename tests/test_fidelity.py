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
from kerr_thermo import cli, fidelity
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
        # A Gibbs argument's square root is exact.  Against a 40-digit value
        # of the fig2a point's F at n_eff 2.0, the kernel's sandwich agreed to
        # 6e-17 and root factors of both states only to 7.1e-12, a gap that
        # moves with the states' last-ulp roundoff; uhlmann_fidelity now
        # takes the sandwich whenever an argument is diagonal
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
    """Matrices per call of the two stacked kernels, one entry per call: the
    scan's Gibbs fidelities and the Newton rounds' root derivatives."""
    calls = []
    for name in ("_gibbs_fidelities", "_gibbs_root_fidelities"):
        kernel = getattr(fidelity, name)

        def counted(rho, n_eff, kernel=kernel):
            calls.append(int(np.prod(np.broadcast_shapes(rho.shape[:-2], np.shape(n_eff)))))
            return kernel(rho, n_eff)

        monkeypatch.setattr(fidelity, name, counted)
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
    the anchors' interpolated optimum and lands within the search's
    resolution of it, at no lower fidelity.  The search is batched: one
    stacked kernel call per fully searched state's scan, and at most 40
    rounds in each of the three lockstep Newton searches (anchors, bracketed
    states, fallbacks).
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
        # perfbench's thermalize seed-1 draw: the search evaluates 3.06, 3.00,
        # 3.20 and 2.99 matrices per state, one per scan point and one per
        # Newton round, counted by the kernels and by the trace alike.  The
        # anchors take 20-27 (the scan and 4-11 rounds), 119-123 of the 186
        # other states one round and one state the full search.  The count
        # no longer sits on a knife edge: the three-point certificate it
        # replaces compared fidelities that differ by about 1e-15, so a few
        # ulps in the states moved it (1677 -> 1667 evaluations on the second
        # trajectory with the exact generator table), while Newton stops on a
        # step of at most 1e-6 n_eff, far above roundoff: a 1e-14
        # perturbation of every state moves n_eff by at most 7.5e-13 and
        # leaves every count here unchanged.  The certificate and Brent took
        # [1623, 1667, 1715, 1730], 8.38 per state
        calls = count_kernel_calls(monkeypatch)
        totals = []
        for traj in benchmark_draw:
            start = len(calls)
            trace = thermalization_trace(traj)
            totals.append(sum(calls[start:]))
            assert trace.evaluations.sum() == totals[-1]
        assert totals == [615, 603, 644, 601]
        assert round(sum(totals) / (4 * 201), 2) == 3.06

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
        # bisection, and takes the most
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
        # scan goes state by state and a Newton round gathers at most 64 states
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


class TestNewtonFromThePrediction:
    """Newton's method from the anchors' interpolated optimum.

    On a trajectory of Gibbs states the anchors find each optimum to about
    1e-16, and the fidelity peaks at 1 where the Gibbs occupation matches, so
    the anchors' interpolation predicts a state's optimum exactly when the
    occupations are linear in the state index.
    """

    M = 41

    def predicted(self, trace):
        anchor = anchor_mask(self.M)
        return np.interp(np.arange(self.M), np.flatnonzero(anchor), trace.n_eff[anchor])

    def test_exact_prediction_converges_in_one_round(self, monkeypatch):
        occupations = 0.05 + 0.002 * np.arange(self.M)
        traj = gibbs_trajectory(occupations)
        calls = count_kernel_calls(monkeypatch)
        trace = thermalization_trace(traj, search_max=1.0)
        monkeypatch.undo()
        free = ~anchor_mask(self.M)
        assert sum(calls) == trace.evaluations.sum()
        assert np.all(trace.evaluations[free] == 1)
        # the one round's step is below Newton's stop, 1e-6 n_eff
        step = np.abs(trace.n_eff - self.predicted(trace))[free]
        assert np.all(step <= fidelity._NEWTON_RTOL * trace.n_eff[free])
        np.testing.assert_allclose(trace.n_eff, occupations, rtol=1e-12, atol=0)
        single = np.array([effective_temperature(s, 1.0) for s in traj.states])
        np.testing.assert_allclose(trace.n_eff, single[:, 0], rtol=0, atol=1e-7)
        assert np.all(trace.fidelity_at_opt >= single[:, 1] - 1e-12)

    def test_missed_prediction_converges_without_the_full_search(self, monkeypatch):
        # every state between the anchors sits 1e-3 relative off the line
        # through them, far beyond one Newton step's stop
        occupations = 0.05 + 0.002 * np.arange(self.M)
        free = ~anchor_mask(self.M)
        occupations[free] *= 1.0 + 1e-3
        traj = gibbs_trajectory(occupations)
        calls = count_kernel_calls(monkeypatch)
        trace = thermalization_trace(traj, search_max=1.0)
        monkeypatch.undo()
        assert sum(calls) == trace.evaluations.sum()
        assert np.all(trace.evaluations[free] > 1)
        assert np.all(trace.evaluations[free] < fidelity._SCAN_POINTS)
        assert np.all(trace.n_eff[free] != self.predicted(trace)[free])
        single = np.array([effective_temperature(s, 1.0) for s in traj.states])
        np.testing.assert_allclose(trace.n_eff, single[:, 0], rtol=0, atol=1e-7)
        np.testing.assert_allclose(trace.n_eff, occupations, rtol=1e-12, atol=0)
        assert np.all(trace.fidelity_at_opt >= single[:, 1] - 1e-12)

    def test_unconverged_state_runs_the_full_search(self, monkeypatch):
        # with T'' reported nonnegative every round bisects, so no Newton step
        # converges: the states between the anchors end inside their brackets
        # by bisection alone, and each runs the full search as well
        kernel = fidelity._gibbs_root_fidelities

        def convex(rho, n):
            out = kernel(rho, n)
            out[2] = np.abs(out[2])
            return out

        searched = []
        full_search = fidelity._effective_temperatures

        def recorded(rho, search_max):
            searched.append(len(rho))
            return full_search(rho, search_max)

        monkeypatch.setattr(fidelity, "_gibbs_root_fidelities", convex)
        monkeypatch.setattr(fidelity, "_effective_temperatures", recorded)
        occupations = 0.05 + 0.002 * np.arange(self.M)
        trace = thermalization_trace(gibbs_trajectory(occupations), search_max=1.0)
        assert searched == [5, self.M - 5]
        np.testing.assert_allclose(trace.n_eff, occupations, rtol=0, atol=1e-7)

    def test_prediction_of_zero_runs_the_full_search(self):
        # the anchors' optimum of the vacuum is exactly 0, so the bracket
        # [max(p/2, 1e-6), min(2p, search_max)] is empty; every state between
        # the anchors runs the full search instead
        traj = gibbs_trajectory(np.zeros(self.M))
        trace = thermalization_trace(traj, search_max=0.5)
        free = ~anchor_mask(self.M)
        assert np.all(self.predicted(trace) == 0.0)
        assert np.all(trace.evaluations[free] > fidelity._SCAN_POINTS)
        np.testing.assert_allclose(trace.n_eff, 0.0, atol=1e-7)


@pytest.fixture(scope="module")
def fig2_trajectories():
    """The fig2a-d presets' trajectories at their certified cutoffs."""
    out = []
    for preset in ("fig2a", "fig2b", "fig2c", "fig2d"):
        config = resolve_config(preset=preset, command="thermalize")
        trunc = config.trunc()
        (point,) = config.sweep_points()
        out.append(propagate(vacuum_state(trunc), config.params_at(point), config.grid(), trunc))
    return out


def spread_occupations(traj):
    """One occupation per state, log-spaced over the trace's search bracket."""
    return np.geomspace(1e-3, default_search_max(traj.entries), len(traj.entries))


class TestGibbsRootKernel:
    """T = sqrt(F) and its first two n-derivatives from one eigh per state."""

    def test_value_matches_the_fidelity_kernel(self, fig2_trajectories):
        for traj in fig2_trajectories:
            n = spread_occupations(traj)
            root = fidelity._gibbs_root_fidelities(traj.entries, n)[0]
            np.testing.assert_allclose(root**2, fidelity._gibbs_fidelities(traj.entries, n), rtol=1e-15, atol=0)

    def test_derivatives_match_central_differences(self, fig2_trajectories):
        # steps of 1e-5 n: truncation and roundoff both stay near 1e-9 of the
        # largest derivative on these states
        for traj in fig2_trajectories:
            n = spread_occupations(traj)
            h = 1e-5 * n
            _, slope, curvature = fidelity._gibbs_root_fidelities(traj.entries, n)
            up = fidelity._gibbs_root_fidelities(traj.entries, n + h)
            down = fidelity._gibbs_root_fidelities(traj.entries, n - h)
            for derivative, order in ((slope, 0), (curvature, 1)):
                central = (up[order] - down[order]) / (2.0 * h)
                assert np.abs(central - derivative).max() <= 1e-7 * np.abs(derivative).max()

    def test_a_state_reads_the_same_in_any_stack(self, fig2_trajectories):
        # every reduction runs along a state's own rows
        traj = fig2_trajectories[0]
        n = spread_occupations(traj)
        stacked = fidelity._gibbs_root_fidelities(traj.entries, n)
        for k in range(len(n)):
            alone = fidelity._gibbs_root_fidelities(traj.entries[k : k + 1], n[k : k + 1])
            assert np.array_equal(alone[:, 0], stacked[:, k])

    def test_newton_rounds_decompose_at_most_64_states_per_call(self, fig2_trajectories, monkeypatch):
        traj = fig2_trajectories[0]
        sizes = []
        eigh = np.linalg.eigh

        def counted(a):
            sizes.append(len(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        trace = thermalization_trace(traj)
        # the anchors' rounds decompose up to 15 states, and the first round
        # of the 186 others takes three calls
        assert max(sizes) == 64
        first = sizes.index(64)
        assert sizes[0] == 15 and max(sizes[:first]) == 15
        assert sizes[first : first + 3] == [64, 64, 58]
        # one matrix per Newton round: every evaluation but the scans'
        full_searches = np.count_nonzero(trace.evaluations > fidelity._SCAN_POINTS)
        assert sum(sizes) == trace.evaluations.sum() - fidelity._SCAN_POINTS * full_searches


def quadratic_root(center, curvature, seen):
    """Stand-in for the root kernel: T = 1 - (n - center)^2, with T'' reported
    as ``curvature``; records the occupations of each round."""

    def kernel(rho, n):
        seen.append(float(n[0]))
        return np.stack([1.0 - (n - center) ** 2, -2.0 * (n - center), np.full_like(n, curvature)])

    return kernel


class TestNewtonSafeguards:
    """`_newton_max` on a quadratic T, one state, whose T'' the test chooses."""

    def run(self, monkeypatch, curvature, lo, hi, start, center=0.3):
        seen = []
        monkeypatch.setattr(fidelity, "_gibbs_root_fidelities", quadratic_root(center, curvature, seen))
        n, f, rounds, converged = fidelity._newton_max(
            np.zeros((1, 2, 2)), np.array([lo]), np.array([hi]), np.array([start])
        )
        assert rounds[0] == len(seen)
        return seen, float(n[0]), float(f[0]), bool(converged[0])

    def test_one_step_reaches_a_quadratic_maximum(self, monkeypatch):
        seen, n, f, converged = self.run(monkeypatch, -2.0, 0.0, 1.0, 0.9)
        assert len(seen) == 2 and seen[1] == pytest.approx(0.3, abs=1e-15)
        assert converged
        assert n == pytest.approx(0.3, abs=1e-15)
        assert f == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("curvature", [0.0, 2.0])
    def test_nonnegative_curvature_bisects(self, monkeypatch, curvature):
        seen, n, f, converged = self.run(monkeypatch, curvature, 0.0, 1.0, 0.9)
        lo, hi = 0.0, 1.0
        for x, following in zip(seen, seen[1:] + [None]):
            lo, hi = (x, hi) if x < 0.3 else (lo, x)
            if following is not None:
                assert following == 0.5 * (lo + hi)
        # the bracket stop returns the last point evaluated, at its value
        assert hi - lo < 2.0 * fidelity._search_tol(seen[-1])
        assert not converged
        assert n == seen[-1]
        assert f == (1.0 - (n - 0.3) ** 2) ** 2

    def test_edge_stop_takes_the_value_evaluated_there(self, monkeypatch):
        # the maximum lies at -0.1, below the bracket: every Newton target
        # leaves it, so the search bisects down to the edge and returns F
        # there, not the extrapolated maximum 1 (a state at n_th = 0 once
        # returned F = 2.59 that way)
        seen, n, f, converged = self.run(monkeypatch, -2.0, 0.05, 1.0, 0.5, center=-0.1)
        assert not converged
        assert n == seen[-1] and n - 0.05 < 2.0 * fidelity._search_tol(0.05)
        assert f == (1.0 - (n + 0.1) ** 2) ** 2 < 0.96

    def test_round_cap_lies_beyond_the_bisection_bound(self, monkeypatch):
        # bisection alone on a bracket of width 1e22 ends on its 2 tol stop
        # before the cap, so the cap decides no result
        seen, n, _, converged = self.run(monkeypatch, 0.0, 0.0, 1e22, 5e21)
        assert len(seen) < fidelity._MAX_ROUNDS
        assert not converged
        assert abs(n - 0.3) < 2.0 * fidelity._search_tol(0.3)


class TestRootPrecision:
    """n_eff as the root of dF/dn, determined to roundoff."""

    @pytest.mark.parametrize("n", [1e-4, 0.01, 0.05, 0.5, 2.0])
    def test_gibbs_state_gives_back_its_occupation(self, n):
        rho = gibbs_state(n, Truncation(30))
        n_eff, fid = effective_temperature(rho, search_max=5.0 * (n + 0.1))
        assert n_eff == pytest.approx(n, rel=1e-12, abs=0)
        assert fid == pytest.approx(1.0, rel=0, abs=1e-14)

    def test_perturbation_moves_n_eff_by_roundoff(self, fig2_trajectories, rng):
        # a Hermitian, traceless perturbation of every state, its largest
        # entry 1e-14: the search it replaces moved n_eff by up to 3.5e-8
        for traj in fig2_trajectories:
            rho = traj.entries
            d = rho.shape[-1]
            h = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
            h += h.conj().transpose(0, 2, 1)
            h -= np.trace(h, axis1=1, axis2=2).real[:, None, None] / d * np.eye(d)
            h *= 1e-14 / np.abs(h).max(axis=(1, 2), keepdims=True)
            search_max = default_search_max(rho)
            before = thermalization_trace(traj, search_max)
            after = thermalization_trace(Trajectory(traj.times, rho + h, traj.leakage_max), search_max)
            assert np.abs(after.n_eff - before.n_eff).max() <= 1e-10

    @pytest.mark.skipif(cli._openblas() is None, reason="numpy's BLAS exports no OpenBLAS thread control")
    def test_same_n_eff_on_one_and_two_blas_threads(self, fig2a_trajectory):
        traj, search_max = fig2a_trajectory
        blas = cli._openblas()
        old = blas.threads()
        try:
            traces = []
            for threads in (1, 2):
                blas.set_threads(threads)
                traces.append(thermalization_trace(traj, search_max))
        finally:
            blas.set_threads(old)
        assert np.array_equal(traces[0].n_eff, traces[1].n_eff)
        assert np.array_equal(traces[0].fidelity_at_opt, traces[1].fidelity_at_opt)


class TestOptimumAtZero:
    """Coherent states at n_th = 0, where dT/dn grows as 1/n near n = 0.

    The Gibbs fidelity of a coherent state is about (1 - r) exp(-|alpha|^2 (1
    - r)), r = n / (n + 1), so its optimum is n = 0 while |alpha|^2 < 1 and
    |alpha|^2 - 1 beyond.
    """

    def trajectory(self, drive):
        trunc = Truncation(20)
        params = SystemParams(delta=0.0, chi=0.0, drive=drive, n_th=0.0)
        return propagate(vacuum_state(trunc), params, TimeGrid(t_end=3.0, n_samples=31), trunc)

    def test_optima_at_zero_return_the_scan_point(self, monkeypatch):
        # the inputs of the CLI's leakage-retry test: <n> stays below 1, every
        # search ends on the bracket edge at 0, and the scan point 0 wins
        traj = self.trajectory(1.0)
        search_max = default_search_max(traj.entries)
        trace = thermalization_trace(traj, search_max)
        assert np.all(trace.n_eff == 0.0)
        kernel = fidelity._gibbs_fidelities(traj.entries, np.zeros(len(traj.entries)))
        assert np.array_equal(trace.fidelity_at_opt, kernel)
        assert_trace_matches_single_states(traj, search_max, monkeypatch)

    def test_optima_leaving_zero_keep_their_evaluated_fidelity(self):
        # drive 1.5: |alpha|^2 crosses 1, and the optima leave 0 from 1.4e-3
        # on.  Every fidelity is the kernel's value at the returned n_eff and
        # none is extrapolated past 1.  The bounds are the kernel's own noise
        # on a pure state: its M has one nonzero eigenvalue, and the square
        # roots of the roundoff eigenvalues (up to 3e-16) add about 2e-8 to T.
        # The three-point certificate took that noise for a maximum: state 12
        # passed it at n_eff 0.318, 0.219 off its optimum 0.0987
        traj = self.trajectory(1.5)
        search_max = default_search_max(traj.entries)
        trace = thermalization_trace(traj, search_max)
        assert np.count_nonzero(trace.n_eff == 0.0) == 11
        kernel = fidelity._gibbs_fidelities(traj.entries, trace.n_eff)
        np.testing.assert_allclose(trace.fidelity_at_opt, kernel, rtol=0, atol=1e-8)
        assert np.all(trace.fidelity_at_opt <= 1.0)
        single = np.array([effective_temperature(s, search_max) for s in traj.states])
        np.testing.assert_allclose(trace.n_eff, single[:, 0], rtol=0, atol=1e-7)
        assert np.all(trace.fidelity_at_opt >= single[:, 1] - 1e-8)
