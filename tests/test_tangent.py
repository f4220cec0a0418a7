"""Oracles for the exact tangent, the (central, derivative) pair the runner reads.

``tangent_trajectories`` differentiates the sample map itself (its Taylor
polynomial and squarings), so its central run must be ``propagate``'s to the
bit, and its derivative must agree with the five-point stencil (whose
roundoff floor it undercuts), with the exact steady-state tangent at the
plateau and with the chi = 0 closed forms.  Each band is two to three times
the largest deviation measured (2 cores, OpenBLAS 0.3.31).  The criteria 6-8 twins run the contract's checks through the
runner's route at the certified cutoffs.
"""

import functools
import math

import numpy as np
import pytest

from kerr_thermo import (
    FdConfig,
    NumericalFailureError,
    SystemParams,
    TimeGrid,
    Truncation,
    certify_cutoff,
    cfi_series,
    heterodyne_povm,
    homodyne_povm,
    mean_photon_number,
    propagate,
    qfi_series,
    steady_state_tangent,
    tangent_trajectories,
    vacuum_state,
)
from kerr_thermo import dynamics
from kerr_thermo.config import PROPAGATING_NCUT_MAX, resolve_config
from stencil import perturbed_trajectories
from test_gaussian_transient import FIG3A_CHI0, occupation, relative_deviation

# The stencil at this step sits well above its own roundoff floor.
COARSE = FdConfig(rel_step=1e-2)
FISHER_PRESETS = ("fig3a", "fig3b", "fig3c", "fig5a", "fig5b", "fig5c", "fig8a", "fig8b", "fig8c")
PRESET_POINTS = [
    (name, index)
    for name in FISHER_PRESETS
    for index in range(len(resolve_config(preset=name).sweep_points()))
]

# Largest deviations measured over the 21 preset points: QFI series against
# the stencil at rel_step 1e-2, 8.1e-9 of the series maximum (fig5a, drive
# 0.5); tau = 30 plateau against the tau = inf QFI, 2.9e-11 relative.
STENCIL_BAND = 2e-8
PLATEAU_BAND = 1e-9
# chi = 0 closed forms at n_cut 14 and 20: QFI 1.0e-9, homodyne at most
# 1.4e-10, heterodyne 1.5e-10.  The stencil's bands are 2e-7, 5e-7 and 2e-7.
QFI_BAND = 2e-9
HOMODYNE_BAND = 5e-10
HETERODYNE_BAND = 5e-10


@functools.lru_cache(maxsize=None)
def preset_point(name, index):
    cfg = resolve_config(preset=name)
    params = cfg.params_at(cfg.sweep_points()[index])
    return params, cfg.grid(), cfg.trunc()


@functools.lru_cache(maxsize=None)
def tangent_pair(params, grid, trunc):
    return tangent_trajectories(params, grid, trunc)


def test_pair_is_exact_and_read_only():
    params, grid, trunc = preset_point("fig8a", 0)
    tt = tangent_pair(params, grid, trunc)
    assert tt.rank_tol_rel == 1e-12
    assert tt.derivative.shape == (grid.n_samples, trunc.n_cut, trunc.n_cut)
    assert not tt.derivative.flags.writeable
    assert not tt.derivative[0].any()
    assert np.abs(tt.derivative - tt.derivative.conj().swapaxes(1, 2)).max() == 0.0
    assert np.abs(np.trace(tt.derivative, axis1=1, axis2=2)).max() < 1e-12


@pytest.mark.parametrize("name", ["fig3a", "fig5c", "fig8a"])
def test_central_stack_is_bit_identical_to_propagate(name):
    params, grid, trunc = preset_point(name, 0)
    central = tangent_pair(params, grid, trunc).central
    alone = propagate(vacuum_state(trunc), params, grid, trunc)
    np.testing.assert_array_equal(central.entries.view(np.uint64), alone.entries.view(np.uint64))
    assert central.leakage_max == alone.leakage_max


@pytest.mark.parametrize("name, index", PRESET_POINTS)
def test_agrees_with_stencil_and_steady_state(name, index):
    params, grid, trunc = preset_point(name, index)
    exact = qfi_series(tangent_pair(params, grid, trunc)).values
    stencil = qfi_series(perturbed_trajectories(params, grid, trunc, COARSE)).values
    assert np.abs(exact - stencil).max() <= STENCIL_BAND * exact.max()
    plateau = qfi_series(steady_state_tangent(params, trunc)).plateau
    assert abs(exact[-1] / plateau - 1.0) <= PLATEAU_BAND


@pytest.mark.parametrize("n_cut", (14, 20))
def test_chi0_closed_forms(n_cut):
    grid, trunc = TimeGrid(t_end=30.0, n_samples=201), Truncation(n_cut)
    tt = tangent_pair(FIG3A_CHI0, grid, trunc)
    n, dn = occupation()
    qfi = qfi_series(tt).values
    assert relative_deviation(qfi, dn**2 / (n * (n + 1))) < QFI_BAND
    for phi in (0.0, 0.3, 0.5 * math.pi):
        hom = cfi_series(tt, homodyne_povm(phi, trunc)).values
        assert relative_deviation(hom, 2 * dn**2 / (2 * n + 1) ** 2) < HOMODYNE_BAND
    povm = heterodyne_povm(trunc, mean_photon=mean_photon_number(tt.central.final))
    het = cfi_series(tt, povm).values
    assert relative_deviation(het, dn**2 / (n + 1) ** 2) < HETERODYNE_BAND


# Twins of acceptance criteria 6, 7 and 8 through the runner's route: the
# same points, grid and checks, at the cutoff certify_cutoff gives the sweep.
CONTRACT_GRID = TimeGrid(t_end=30.0, n_samples=121)


def certified_series(points):
    trunc = Truncation(certify_cutoff(points, Truncation.leakage_tol, PROPAGATING_NCUT_MAX).n_cut)
    return trunc, [qfi_series(tangent_pair(p, CONTRACT_GRID, trunc)) for p in points]


def test_criterion_6_twin_kerr_trend():
    points = [SystemParams(delta=-3.5, chi=chi, drive=1.0, n_th=0.05) for chi in (0.0, 0.3, 0.6)]
    _, series = certified_series(points)
    plats = [s.plateau for s in series]
    assert plats[0] < plats[1] < plats[2]
    assert series[2].time_at_fraction(0.95) > series[0].time_at_fraction(0.95)


def test_criterion_7_twin_drive_trend():
    points = [SystemParams(delta=-3.5, chi=0.5, drive=drive, n_th=0.05) for drive in (0.5, 1.0, 1.5)]
    _, series = certified_series(points)
    plats = [s.plateau for s in series]
    assert plats[0] < plats[1] < plats[2]


@pytest.mark.parametrize("n_th", (0.05, 0.1))
def test_criterion_8_twin_gaussian_measurement_bounds(n_th):
    params = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=n_th)
    trunc, (qf,) = certified_series([params])
    tt = tangent_pair(params, CONTRACT_GRID, trunc)
    bound = qf.values * (1.0 + 1e-6)
    hom = {
        phi: cfi_series(tt, homodyne_povm(phi, trunc))
        for phi in (k * math.pi / 12.0 for k in range(12))
    }
    het_povm = heterodyne_povm(trunc, mean_photon=mean_photon_number(tt.central.final))
    het = cfi_series(tt, het_povm)
    for series in [*hom.values(), het]:
        assert np.all(series.values <= bound)
    assert max(series.plateau for series in hom.values()) >= het.plateau
    # the amplitude quadrature beats the phase quadrature at the plateau
    assert hom[0.0].plateau >= hom[math.pi / 2].plateau


def test_non_finite_derivative_raises(monkeypatch):
    params, trunc = SystemParams(delta=-1.0, chi=0.3, drive=0.2, n_th=0.05), Truncation(10)
    grid = TimeGrid(t_end=1.0, n_samples=5)
    monkeypatch.setattr(dynamics, "_N_TH_SLOPE", np.nan * dynamics._N_TH_SLOPE)
    with pytest.raises(NumericalFailureError, match=r"non-finite n_th-derivative at tau = 0\.25\b"):
        tangent_trajectories(params, grid, trunc)
    # the central run does not read the slope
    propagate(vacuum_state(trunc), params, grid, trunc)


# Largest relative deviations measured at fig8a's point, n_cut 14, 201
# samples: QFI 1.3e-13, heterodyne 3.3e-14, homodyne 3.4e-14.
FRAME_BAND = 1e-10


def test_quarter_turn_leaves_the_fisher_series(monkeypatch):
    # In the frame V = exp(i pi n / 2) each stencil weight on
    # rho_{i+di,j+dj} takes a factor i^(dj - di) (as in
    # tests/test_coherence_solver.py), and the vacuum is unturned, so the
    # tangent pair turns to (V rho V^dag, V drho V^dag).  The QFI is unitarily
    # invariant, the heterodyne grid maps onto itself under alpha -> -i alpha,
    # and V^dag carries the homodyne angle phi to phi - pi / 2, which reads
    # the same as phi + pi / 2 because Q and -Q share projectors.
    params, grid, _ = preset_point("fig8a", 0)
    trunc = Truncation(14)
    phi = 0.9 * math.pi
    het = heterodyne_povm(trunc)

    def series(*phis):
        tt = tangent_trajectories(params, grid, trunc)
        hom = [cfi_series(tt, homodyne_povm(p, trunc)).values for p in phis]
        return qfi_series(tt).values, cfi_series(tt, het).values, hom

    plain_qfi, plain_het, plain_hom = series(phi, phi - math.pi / 2, phi + math.pi / 2)
    part, di, dj, w = dynamics._stencil(trunc.n_cut)
    turned = part, di, dj, w * (1j ** (dj - di))[:, None, None]
    monkeypatch.setattr(dynamics, "_stencil", lambda d: turned)
    monkeypatch.setattr(dynamics, "_stencil_entries", dynamics._stencil_entries.__wrapped__)
    qfi, het_values, (hom,) = series(phi)

    assert relative_deviation(qfi, plain_qfi[1:]) <= FRAME_BAND
    assert relative_deviation(het_values, plain_het[1:]) <= FRAME_BAND
    assert relative_deviation(hom, plain_hom[0][1:]) > 0.1  # the frame did turn
    for expected in plain_hom[1:]:
        assert relative_deviation(hom, expected[1:]) <= FRAME_BAND
