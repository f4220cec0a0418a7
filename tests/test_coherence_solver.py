"""The steady-state solver: R is block tridiagonal in coherence order and
complex-linear on the coherences, and the complex block elimination agrees
with a sparse LU solve of the same system."""

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from kerr_thermo import (
    SystemParams,
    Truncation,
    mean_photon_number,
    purity,
    steady_state,
    steady_state_tangent,
)
from kerr_thermo import cli, dynamics
from kerr_thermo.config import parse_config
from kerr_thermo.errors import NumericalFailureError, TruncationError

from conftest import coherence_pairs

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
LINEAR_CASES = [(name, n) for name in PARAMS for n in (8, 14, 30, 48)]


def coherence_order(dim):
    """Coherence order j - i of every Hermitian-basis coordinate."""
    iu, ju = coherence_pairs(dim)
    return np.concatenate([np.zeros(dim, dtype=int), ju - iu, ju - iu])


def real_entries(weights, dim):
    """R along a weight vector over its five parts, as the real COO triples
    on Hermitian-basis coordinates that the sample map scatters."""
    return dynamics._real_entries(dynamics._generator_along(weights, dim), dim)


def dense_generator(weights, dim):
    """The dense real R along a weight vector, from :func:`real_entries`."""
    rows, cols, values = real_entries(weights, dim)
    rmat = np.zeros((dim * dim, dim * dim))
    rmat[rows, cols] = values
    return rmat


def sparse_lu_tangent(params, trunc):
    """Reference: splu of the trace-constrained dense real R, for the steady
    coordinates and then for their n_th-derivative."""
    dim = trunc.n_cut
    rmat = dense_generator(dynamics._coefficients(params), dim)
    r1 = dense_generator(dynamics._coefficients(params.with_n_th(params.n_th + 1.0)), dim) - rmat
    rmat[0, :] = 0.0
    rmat[0, :dim] = 1.0
    lu = sparse_linalg.splu(sparse.csc_matrix(rmat))
    rhs = np.zeros(dim * dim)
    rhs[0] = 1.0
    coords = lu.solve(rhs)
    drift = -(r1 @ coords)
    drift[0] = 0.0
    return tuple(dynamics._from_coordinate_rows(np.stack([coords, lu.solve(drift)]), dim))


@pytest.mark.parametrize("name, n_cut", CASES, ids=IDS)
def test_generator_is_block_tridiagonal_in_coherence_order(name, n_cut):
    rows, cols, values = real_entries(dynamics._coefficients(PARAMS[name]), n_cut)
    order = coherence_order(n_cut)
    nonzero = values != 0.0
    assert np.abs(order[rows[nonzero]] - order[cols[nonzero]]).max() <= 1
    # the trace row (all populations) lies in block 0, which the solver keeps real
    assert np.all(order[:n_cut] == 0)
    # the coordinates and the solver share one order: the populations, the
    # coherences' Re slots in coherence order, then their Im slots, each m
    # after its Re slot; the solver's block k >= 1 is its slice of the coherences
    i, j = coherence_pairs(n_cut)
    m = n_cut * (n_cut - 1) // 2
    assert all(np.array_equal(a, b) for a, b in zip(dynamics._coherence_pairs(n_cut), (i, j)))
    assert np.array_equal(dynamics._entry_order(n_cut)[i, j], n_cut + np.arange(m))
    assert np.array_equal(dynamics._entry_order(n_cut)[j, i], n_cut + m + np.arange(m))
    at = dynamics._coherence_blocks(n_cut)[3]
    assert at[0] == slice(0, 0)
    for k in range(1, n_cut):
        assert np.array_equal(order[n_cut:][at[k]], np.full(n_cut - k, k))


@pytest.mark.parametrize("name, n_cut", LINEAR_CASES, ids=[f"{name}-n{n}" for name, n in LINEAR_CASES])
def test_coherence_blocks_are_complex_linear(name, n_cut):
    # between coherence orders k, l >= 1 the real block [[P, Q], [P', Q']] on
    # (Re, Im) coordinates is the real form of P + i P': Q' = P and Q = -P'
    rows, cols, values = real_entries(dynamics._coefficients(PARAMS[name]), n_cut)
    dim, m = n_cut * n_cut, n_cut * (n_cut - 1) // 2
    rmat = sparse.csr_matrix((values, (rows, cols)), shape=(dim, dim))
    re, im = slice(n_cut, n_cut + m), slice(n_cut + m, dim)
    tol = 1e-14 * np.abs(values).max()
    assert rmat[re, re].nnz > 0 and rmat[im, re].nnz > 0
    assert abs(rmat[im, im] - rmat[re, re]).max() <= tol
    assert abs(rmat[re, im] + rmat[im, re]).max() <= tol


def real_blocks(rows, cols, values, dim, k, l):
    """The real block of R between coherence orders k and l, (Re, Im) rows and
    columns in block order (a population has no Im half)."""
    at, m = dynamics._coherence_blocks(dim)[3], dim * (dim - 1) // 2
    re = dim + np.arange(m)
    coords = [np.arange(dim) if n == 0 else np.concatenate([re[at[n]], re[at[n]] + m]) for n in (k, l)]
    dense = sparse.csr_matrix((values, (rows, cols)), shape=(dim * dim, dim * dim))
    return dense[coords[0]][:, coords[1]].toarray()


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_order_zero_couples_to_order_one_through_real_and_imaginary_parts(name):
    # Order 0 enters order 1 as L_0 = A + i B, from R's real block [[A], [B]],
    # and leaves it as Re(U_0 y_1), U_0 = P - i Q, from [P, Q]: the closed-form
    # blocks must hold both halves of R's (Re, Im) coordinates.
    dim = 8
    params = PARAMS[name]
    rows, cols, values = real_entries(dynamics._coefficients(params), dim)
    shapes, start, position = dynamics._coherence_blocks(dim)[:3]
    buffer = np.zeros(start[-1], dtype=complex)
    buffer[position] = dynamics._coefficients(params) @ dynamics._stencil_entries(dim)[2]
    upper0 = buffer[start[dim] : start[dim + 1]].reshape(shapes[dim])
    lower0 = buffer[start[2 * dim - 1] : start[2 * dim]].reshape(shapes[2 * dim - 1])
    lower = real_blocks(rows, cols, values, dim, 1, 0)
    upper = real_blocks(rows, cols, values, dim, 0, 1)
    tol = 1e-15 * np.abs(values).max()
    np.testing.assert_allclose(lower0, lower[: dim - 1] + 1j * lower[dim - 1 :], rtol=0, atol=tol)
    np.testing.assert_allclose(upper0, upper[:, : dim - 1] - 1j * upper[:, dim - 1 :], rtol=0, atol=tol)
    if params.drive:
        assert np.abs(upper0).max() > 0 and np.abs(lower0).max() > 0


@pytest.mark.parametrize("name, n_cut", CASES, ids=IDS)
def test_block_solve_matches_sparse_lu(name, n_cut):
    params, trunc = PARAMS[name], Truncation(n_cut, leakage_tol=0.5)
    rho_ref, drho_ref = sparse_lu_tangent(params, trunc)
    pair = steady_state_tangent(params, trunc)
    rho, drho = pair.central.entries[0], pair.derivative[0]
    assert np.abs(rho - rho_ref).max() <= 1e-12
    assert np.abs(drho - drho_ref).max() <= 1e-12
    assert np.abs(steady_state(params, trunc).entries - rho_ref).max() <= 1e-12


def quarter_turn(dim):
    """The real coordinate map of rho -> V rho V^dag, V = exp(i pi n / 2): it
    multiplies rho_{i,i+k} by (-i)^k, a signed permutation of the coordinates."""
    iu, ju = coherence_pairs(dim)
    m = iu.size
    turn = np.zeros((dim * dim, dim * dim))
    turn[np.arange(dim), np.arange(dim)] = 1.0
    for p, k in enumerate(ju - iu):
        c, s = [(1, 0), (0, -1), (-1, 0), (0, 1)][k % 4]  # (-i)^k = c + i s
        re, im = dim + p, dim + m + p
        turn[[re, re, im, im], [re, im, re, im]] = c, -s, s, c
    return turn


def test_rotated_drive_solves_to_the_rotated_state(monkeypatch):
    # In the frame V = exp(i pi n / 2) the drive i drive (a^dag - a) becomes
    # -drive (a^dag + a): each stencil weight on rho_{i+di,j+dj} takes a
    # factor i^(dj - di), so the drive's weights turn imaginary.  That feeds
    # the populations from the coherences' imaginary parts only: U_0's Q
    # half, and the conjugated mirror rho_{j,i} of a population row, which
    # the untouched generator never fills.  The real table must be the
    # rotated one, and the solver must map rotated right-hand sides to the
    # rotated solutions.
    params, dim = PARAMS["drive1.5"], 6
    m = dim * (dim - 1) // 2

    def generator_parts():
        """R's five parts on Hermitian-basis coordinates, one dense matrix each."""
        return np.array([dense_generator(unit, dim) for unit in np.eye(5)])

    parts = generator_parts()
    values = dynamics._coefficients(params) @ dynamics._stencil_entries(dim)[2]
    scale = float(np.abs(values.view(float)).max())
    trace_rhs = np.zeros(dim * dim)
    trace_rhs[0] = scale
    rhs = [trace_rhs, np.random.default_rng(7).standard_normal(dim * dim)]

    def solve(solver, b):
        """The solver on the coherence vector of coordinates b, as coordinates:
        a coherence's Im slot is its Re slot plus m."""
        x = solver.solve(np.concatenate([b[:dim], b[dim : dim + m] + 1j * b[dim + m :]]))
        return np.concatenate([x[:dim].real, x[dim:].real, x[dim:].imag])

    solver = dynamics._CoherenceSolver(values, dim, scale)
    expected = [solve(solver, b) for b in rhs]

    part, di, dj, w = dynamics._stencil(dim)
    turned = part, di, dj, w * (1j ** (dj - di))[:, None, None]
    monkeypatch.setattr(dynamics, "_stencil", lambda d: turned)
    for name in ("_stencil_entries", "_coherence_blocks"):
        monkeypatch.setattr(dynamics, name, getattr(dynamics, name).__wrapped__)
    rotated = generator_parts()
    assert np.any(rotated[:, :dim, dim + m :] != 0.0)
    turn = quarter_turn(dim)
    assert np.abs(rotated - turn @ parts @ turn.T).max() <= 1e-15 * np.abs(parts).max()

    values = dynamics._coefficients(params) @ dynamics._stencil_entries(dim)[2]
    solver = dynamics._CoherenceSolver(values, dim, scale)
    for b, x in zip(rhs, expected):
        assert np.abs(solve(solver, turn @ b) - turn @ x).max() <= 1e-12 * np.abs(x).max()


def test_singular_schur_complement_is_a_numerical_failure(monkeypatch):
    # zero rows at the highest coherence order leave S_{d-1} = 0
    params = SystemParams(delta=-3.5, chi=0.5, drive=1.0, n_th=0.05)
    rows, cols, table = dynamics._stencil_entries(6)
    order = dynamics._coherence_coordinates(6)[0]
    singular = np.where(order[rows] == 5, 0.0, table)
    monkeypatch.setattr(dynamics, "_stencil_entries", lambda d: (rows, cols, singular))
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
