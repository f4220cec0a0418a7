"""Closed-form oracles for the whole Fisher transient at chi = 0.

Without the Kerr term the generator is quadratic, so the vacuum relaxes into a
displaced thermal state for any delta and drive.  The displacement does not
depend on n_th, and the thermal occupation is n(t) = n_th (1 - e^{-2 tau}), the
factor 2 being the dissipator convention that ``dynamics`` pins.  With
dn = dn/dn_th = 1 - e^{-2 tau} the three series are

    QFI            = dn^2 / (n (n + 1))
    homodyne CFI   = 2 dn^2 / (2 n + 1)^2, the same at every angle
    heterodyne CFI = dn^2 / (n + 1)^2

The point is fig3a's chi = 0 curve (delta -3.5, drive 1, n_th 0.05, 201
samples to tau = 30), checked at t > 0 (all three are 0/0 at t = 0).  Each band
bounds the largest relative deviation from the closed form; the deviation is
the five-point stencil's roundoff floor at the default ``rel_step``.
"""

import functools
import math

import numpy as np
import pytest

from kerr_thermo import (
    FdConfig,
    SystemParams,
    TimeGrid,
    Truncation,
    annihilation,
    cfi_series,
    heterodyne_povm,
    homodyne_povm,
    mean_photon_number,
    qfi_series,
)
from stencil import perturbed_trajectories

FIG3A_CHI0 = SystemParams(delta=-3.5, chi=0.0, drive=1.0, n_th=0.05)
GRID = TimeGrid(t_end=30.0, n_samples=201)
CFG = FdConfig()
N_CUTS = (14, 20)

# Largest relative deviation measured at n_cut 14 and 20 (2 cores, OpenBLAS
# 0.3.31): QFI 9.3e-8, homodyne 2.1e-7 (phi = pi/2 at n_cut 20; 6.2e-8 at phi
# 0 and 0.3), heterodyne 8.1e-8.  Each band is about twice its measured
# largest deviation.
QFI_BAND = 2e-7
HOMODYNE_BAND = 5e-7
HETERODYNE_BAND = 2e-7


@functools.lru_cache(maxsize=None)
def pair(n_cut):
    return perturbed_trajectories(FIG3A_CHI0, GRID, Truncation(n_cut), CFG)


def occupation():
    """n(t) and dn/dn_th at t > 0."""
    dn = -np.expm1(-2.0 * GRID.times[1:])
    return FIG3A_CHI0.n_th * dn, dn


def relative_deviation(values, expected):
    assert values[0] == 0.0
    return float(np.max(np.abs(values[1:] / expected - 1.0)))


@pytest.mark.parametrize("n_cut", N_CUTS)
def test_probe_ends_displaced_thermal(n_cut):
    # the drive displaces the probe to |alpha|^2 = drive^2 / (delta^2 + 1), so
    # the oracle covers more than a thermal state
    final = pair(n_cut).central.final
    alpha = np.trace(final.entries @ annihilation(n_cut))
    p = FIG3A_CHI0
    assert abs(alpha) ** 2 == pytest.approx(p.drive**2 / (p.delta**2 + 1), rel=1e-9)
    assert mean_photon_number(final) == pytest.approx(abs(alpha) ** 2 + p.n_th, rel=1e-9)


@pytest.mark.parametrize("n_cut", N_CUTS)
def test_qfi_series(n_cut):
    n, dn = occupation()
    values = qfi_series(pair(n_cut)).values
    assert relative_deviation(values, dn**2 / (n * (n + 1))) < QFI_BAND


@pytest.mark.parametrize("phi", [0.0, 0.3, 0.5 * math.pi])
@pytest.mark.parametrize("n_cut", N_CUTS)
def test_homodyne_cfi_series(n_cut, phi):
    n, dn = occupation()
    trunc = Truncation(n_cut)
    povm = homodyne_povm(phi, trunc)
    values = cfi_series(pair(n_cut), povm).values
    assert relative_deviation(values, 2 * dn**2 / (2 * n + 1) ** 2) < HOMODYNE_BAND


@pytest.mark.parametrize("n_cut", N_CUTS)
def test_heterodyne_cfi_series(n_cut):
    n, dn = occupation()
    trunc = Truncation(n_cut)
    tt = pair(n_cut)
    povm = heterodyne_povm(trunc, mean_photon=mean_photon_number(tt.central.final))
    values = cfi_series(tt, povm).values
    assert relative_deviation(values, dn**2 / (n + 1) ** 2) < HETERODYNE_BAND
