"""Oracles for the batched trajectory path: the (n_samples, d, d) stack, the
QFI series and the outcome distributions against their one-state forms."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from kerr_thermo import (
    FdConfig,
    SystemParams,
    TimeGrid,
    Truncation,
    heterodyne_povm,
    homodyne_povm,
    mean_photon_number,
    outcome_distribution,
    propagate,
    qfi,
    qfi_series,
    cfi_series,
    vacuum_state,
)
from kerr_thermo import dynamics, fock, measurement
from conftest import coherence_pairs
from stencil import perturbed_trajectories

FIG8A = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05)
GRID = TimeGrid(t_end=30.0, n_samples=201)
CFG = FdConfig()

# tracemalloc peak of qfi_series plus heterodyne cfi_series on the n_cut 30
# fig8a trajectories (1617 outcomes): 22.4 MB measured (11.6 MB in
# qfi_series alone).  The limit was set at 33.8 MB plus 50%, before the
# outcome map was built in place.  One (samples, outcomes, d) complex
# temporary alone would take 156 MB.
_POST_PROCESSING_PEAK_LIMIT = 51e6

# tracemalloc peak of the 1617-outcome heterodyne outcome map alone at n_cut
# 30: 13.5 MB measured, 11.6 MB of it the map itself, plus about 20%.  A map
# built from whole-grid complex temporaries peaked at 33.8 MB.
_OUTCOME_MAP_PEAK_LIMIT = 16e6


@functools.lru_cache(maxsize=None)
def fig8a_trajectories(n_cut):
    trunc = Truncation(n_cut)
    return trunc, perturbed_trajectories(FIG8A, GRID, trunc, CFG)


@pytest.fixture(params=[12, 30], ids=["n12", "n30"])
def fig8a(request):
    return fig8a_trajectories(request.param)


def from_coordinates_reference(coords, dim):
    """One sample rebuilt from its coordinates, entry by entry (the per-sample form)."""
    iu = coherence_pairs(dim)
    re, im = coords[dim:].reshape(2, -1)
    mat = np.diag(coords[:dim].astype(np.complex128))
    mat[iu] = (re + 1j * im) / math.sqrt(2.0)
    mat[iu[::-1]] = mat[iu].conj()
    return mat


def sandwich_reference(rho, povm):
    """w_i <v_i| rho |v_i>, clipped at 0, straight from the POVM vectors."""
    p = np.einsum("id,id->i", povm.vectors.conj() @ rho, povm.vectors).real * povm.weights
    return np.clip(p, 0.0, None)


def test_stack_is_bit_identical_to_per_sample_states(fig8a, monkeypatch):
    trunc, tt = fig8a
    monkeypatch.setattr(
        dynamics,
        "_from_coordinate_rows",
        lambda rows, dim: np.stack([from_coordinates_reference(r, dim) for r in rows]),
    )
    per_sample = propagate(vacuum_state(trunc), FIG8A, GRID, trunc)
    assert tt.central.entries.shape == (201, trunc.n_cut, trunc.n_cut)
    np.testing.assert_array_equal(
        tt.central.entries.view(np.uint64), per_sample.entries.view(np.uint64)
    )
    assert per_sample.leakage_max == tt.central.leakage_max
    assert not tt.central.entries.flags.writeable


def test_states_view_builds_density_matrices_on_access_only(fig8a, monkeypatch):
    _, tt = fig8a
    calls = []
    post_init = fock.DensityMatrix.__post_init__

    def counted(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(fock.DensityMatrix, "__post_init__", counted)
    traj = tt.central
    assert len(traj.states) == 201
    mean_photon_number(traj.entries)
    assert calls == []
    state = traj.states[7]
    assert len(calls) == 1
    np.testing.assert_array_equal(state.entries, traj.entries[7])
    np.testing.assert_array_equal(traj.final.entries, traj.entries[-1])
    assert len(calls) == 2
    assert len(traj.states[-3:]) == 3
    with pytest.raises(IndexError):
        traj.states[201]


def test_qfi_series_matches_per_state_qfi(fig8a):
    trunc, tt = fig8a
    series = qfi_series(tt)
    dim = trunc.n_cut
    expected = []
    for k, state in enumerate(tt.central.states):
        drho = tt.derivative[k].copy()
        drho -= (np.trace(drho) / dim) * np.eye(dim)
        expected.append(qfi(state, drho, rank_tol_rel=tt.rank_tol_rel).qfi)
    np.testing.assert_allclose(series.values, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ["homodyne", "heterodyne"])
def test_batched_probabilities_match_one_state(fig8a, kind):
    trunc, tt = fig8a
    if kind == "homodyne":
        povm = homodyne_povm(0.9 * math.pi, trunc)
    else:
        povm = heterodyne_povm(trunc, mean_photon=mean_photon_number(tt.central.final))
    batched = measurement._probabilities(tt.central.entries, measurement._outcome_map(povm))
    assert batched.shape == (201, povm.n_outcomes)
    for k in range(0, 201, 8):
        state = tt.central.states[k]
        np.testing.assert_allclose(batched[k], outcome_distribution(state, povm), rtol=0, atol=1e-15)
        np.testing.assert_allclose(batched[k], sandwich_reference(state.entries, povm), rtol=0, atol=1e-15)


def test_fisher_post_processing_memory_is_bounded():
    trunc, tt = fig8a_trajectories(30)
    povm = heterodyne_povm(trunc, mean_photon=mean_photon_number(tt.central.final))
    assert povm.n_outcomes == 1617
    tracemalloc.start()
    try:
        qfi_series(tt)
        cfi_series(tt, povm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _POST_PROCESSING_PEAK_LIMIT, f"peak {peak / 1e6:.1f} MB"


def test_outcome_map_memory_is_bounded():
    trunc, tt = fig8a_trajectories(30)
    povm = heterodyne_povm(trunc, mean_photon=mean_photon_number(tt.central.final))
    assert povm.n_outcomes == 1617
    tracemalloc.start()
    try:
        measurement._outcome_map(povm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _OUTCOME_MAP_PEAK_LIMIT, f"peak {peak / 1e6:.1f} MB"
