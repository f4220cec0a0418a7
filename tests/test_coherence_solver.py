"""The steady-state solver: R is block tridiagonal in coherence order, and the
block elimination agrees with a sparse LU solve of the same system."""

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from kerr_thermo import (
    SystemParams,
    Truncation,
    generator_entries,
    mean_photon_number,
    purity,
    steady_state,
    steady_state_tangent,
)
from kerr_thermo import cli, dynamics
from kerr_thermo.config import parse_config
from kerr_thermo.errors import NumericalFailureError, TruncationError

PARAMS = {
    "fig7-corner": SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05),
    "chi0": SystemParams(delta=-3.5, chi=0.0, drive=1.0, n_th=0.05),
    "drive0": SystemParams(delta=-1.0, chi=0.5, drive=0.0, n_th=0.1),
    "drive1.5": SystemParams(delta=-2.0, chi=0.3, drive=1.5, n_th=0.1),
    "fig8a": SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.05),
    # the perfbench `steady` seed-1 check point
    "steady-seed1": SystemParams(delta=-3.5, chi=0.1141, drive=0.9133, n_th=0.1393),
}
CASES = [(name, n) for name in PARAMS for n in (14, 30, 48)]
IDS = [f"{name}-n{n}" for name, n in CASES]


def coherence_order(dim):
    """Coherence order j - i of every Hermitian-basis coordinate."""
    iu, ju = np.triu_indices(dim, 1)
    return np.concatenate([np.zeros(dim, dtype=int), ju - iu, ju - iu])


def sparse_lu_tangent(params, trunc):
    """Reference: splu of the trace-constrained R from generator_entries, for
    the steady coordinates and then for their n_th-derivative."""
    dim = trunc.n_cut
    rows, cols, values = generator_entries(params, trunc)
    rmat = sparse.csr_matrix((values, (rows, cols)), shape=(dim * dim, dim * dim)).tolil()
    rmat[0, :] = 0.0
    rmat[0, :dim] = 1.0
    lu = sparse_linalg.splu(rmat.tocsc())
    rhs = np.zeros(dim * dim)
    rhs[0] = 1.0
    coords = lu.solve(rhs)
    r1 = generator_entries(params.with_n_th(params.n_th + 1.0), trunc)[2] - values
    drift = -np.bincount(rows, weights=r1 * coords[cols], minlength=dim * dim)
    drift[0] = 0.0
    return dynamics._from_coordinates(coords, dim), dynamics._from_coordinates(lu.solve(drift), dim)


@pytest.mark.parametrize("name, n_cut", CASES, ids=IDS)
def test_generator_is_block_tridiagonal_in_coherence_order(name, n_cut):
    rows, cols, values = generator_entries(PARAMS[name], Truncation(n_cut))
    order = coherence_order(n_cut)
    nonzero = values != 0.0
    assert np.abs(order[rows[nonzero]] - order[cols[nonzero]]).max() <= 1
    # the trace row (all populations) lies in block 0, which the solver puts first
    assert np.all(order[:n_cut] == 0)
    coordinate_order = dynamics._coherence_layout(n_cut)[2]
    assert np.array_equal(coordinate_order[:n_cut], np.arange(n_cut))
    assert np.all(np.diff(order[coordinate_order]) >= 0)


@pytest.mark.parametrize("name, n_cut", CASES, ids=IDS)
def test_block_solve_matches_sparse_lu(name, n_cut):
    params, trunc = PARAMS[name], Truncation(n_cut, leakage_tol=0.5)
    rho_ref, drho_ref = sparse_lu_tangent(params, trunc)
    rho, drho = steady_state_tangent(params, trunc)
    assert np.abs(rho - rho_ref).max() <= 1e-12
    assert np.abs(drho - drho_ref).max() <= 1e-12
    assert np.abs(steady_state(params, trunc).entries - rho_ref).max() <= 1e-12


def test_singular_schur_complement_is_a_numerical_failure(monkeypatch):
    # a zero generator part in every coherence block leaves S_{d-1} = 0
    params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
    rows, cols, values = generator_entries(params, Truncation(6))
    singular = np.where(np.isin(rows, dynamics._coherence_layout(6)[2][-2:]), 0.0, values)
    monkeypatch.setattr(dynamics, "generator_entries", lambda p, t: (rows, cols, singular))
    with pytest.raises(NumericalFailureError, match="singular Schur complement at coherence order 5"):
        steady_state(params, Truncation(6))


def test_resonant_drive_5_retries_to_the_closed_form(tmp_path, monkeypatch):
    # the linear cavity's steady state is displaced thermal: purity
    # 1 / (2 n_th + 1) and <n> = drive^2 / (delta^2 + 1) + n_th
    n_th, drive, delta = 0.05, 5.0, 0.0
    states = []
    steady_state_ = cli.steady_state

    def spy(params, trunc, **kwargs):
        try:
            ss = steady_state_(params, trunc, **kwargs)
        except TruncationError:
            states.append((trunc.n_cut, None))
            raise
        states.append((trunc.n_cut, ss))
        return ss

    monkeypatch.setattr(cli, "steady_state", spy)
    cfg = parse_config(f"command = purity-sweep\nn_th = {n_th}\ndelta = {delta}\ndrive = {drive}\nn_cut = 30\n")
    cli.run(cfg, out_dir=str(tmp_path))
    assert [(n, ss is None) for n, ss in states] == [(30, True), (60, True), (120, False)]
    ss = states[-1][1]
    assert purity(ss) == pytest.approx(1.0 / (2.0 * n_th + 1.0), abs=1e-13)
    assert mean_photon_number(ss) == pytest.approx(drive**2 / (delta**2 + 1.0) + n_th, abs=1e-12)
