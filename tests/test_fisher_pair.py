"""Oracles for the (central, derivative) pair that every Fisher series reads:
the derivative against the stencil over independently propagated shifted
runs, and the CFI series against the stencil over outcome distributions."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from kerr_thermo import (
    FdConfig,
    PerturbedTrajectories,
    SystemParams,
    TimeGrid,
    Truncation,
    cfi_series,
    fd_step,
    heterodyne_povm,
    homodyne_povm,
    mean_photon_number,
    propagate,
    stencil_combine,
    vacuum_state,
)
from stencil import perturbed_trajectories

FIG8A = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05)
GRID = TimeGrid(t_end=30.0, n_samples=201)
TRUNC = Truncation(16)
CFG = FdConfig()


@functools.lru_cache(maxsize=None)
def pair():
    return perturbed_trajectories(FIG8A, GRID, TRUNC, CFG)


@functools.lru_cache(maxsize=None)
def independent_runs():
    """The stencil step and the five runs at n_th + k h, each propagated on its own."""
    h = fd_step(FIG8A.n_th, CFG)
    runs = {
        k: propagate(vacuum_state(TRUNC), FIG8A.with_n_th(FIG8A.n_th + k * h), GRID, TRUNC).entries
        for k in (-2, -1, 0, 1, 2)
    }
    return h, runs


def test_pair_holds_only_the_central_run_and_its_derivative():
    names = [f.name for f in dataclasses.fields(PerturbedTrajectories)]
    assert names == ["central", "derivative", "rank_tol_rel"]
    tt = pair()
    assert tt.derivative.shape == (201, 16, 16)
    assert not tt.derivative.flags.writeable
    np.testing.assert_array_equal(tt.times, GRID.times)


def test_derivative_is_the_stencil_of_independent_runs():
    h, runs = independent_runs()
    tt = pair()
    expected = stencil_combine(runs[2], runs[1], runs[-1], runs[-2], h)
    expected -= (np.trace(expected, axis1=1, axis2=2) / 16)[:, None, None] * np.eye(16)
    assert tt.rank_tol_rel == max(1e-12, 25.0 * np.finfo(float).eps / h)
    np.testing.assert_array_equal(tt.central.entries.view(np.uint64), runs[0].view(np.uint64))
    np.testing.assert_array_equal(tt.derivative.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("kind", ["homodyne", "heterodyne"])
def test_cfi_series_matches_stencil_over_distributions(kind):
    # reference: five outcome distributions, each straight from the POVM
    # vectors, differenced by the stencil, then the CFI sum over p > 1e-14
    h, runs = independent_runs()
    tt = pair()
    if kind == "homodyne":
        povm = homodyne_povm(0.9 * math.pi, TRUNC)
    else:
        povm = heterodyne_povm(TRUNC, mean_photon=mean_photon_number(tt.central.final))
    v = povm.vectors
    p = {
        k: np.clip(np.einsum("id,nde,ie->ni", v.conj(), rho, v).real * povm.weights, 0.0, None)
        for k, rho in runs.items()
    }
    dp = stencil_combine(p[2], p[1], p[-1], p[-2], h)
    keep = p[0] > 1e-14
    expected = np.where(keep, dp**2 / np.where(keep, p[0], 1.0), 0.0).sum(axis=1)
    got = cfi_series(tt, povm).values
    assert expected.max() > 1.0
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-7 * expected.max())


def test_povm_on_another_dimension_is_rejected():
    povm = homodyne_povm(0.3, Truncation(12))
    with pytest.raises(ValueError, match="povm.dim 12 differs from the trajectories' dimension 16"):
        cfi_series(pair(), povm)
