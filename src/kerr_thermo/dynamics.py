"""Time evolution under the damped Kerr-resonator master equation.

The generator implemented here is

    drho/dtau = -i[H, rho] + gamma (n_th + 1) D[a] rho + gamma n_th D[a^dag] rho

with the dissipator convention D[J] rho = 2 J rho J^dag - J^dag J rho - rho J^dag J.
The factor 2 inside D is deliberate and doubles the more common half-convention:
for the linear cavity it gives d<n>/dtau = -2 gamma <n> + 2 gamma n_th, a rate the
test suite pins down so the convention cannot silently drift.

Propagation is classical fixed-step 4-stage Runge-Kutta.  The generator maps
Hermitian matrices to Hermitian matrices, so it acts as a real matrix
R = U L U^dag on the coordinates of rho in the orthonormal Hermitian basis
|i><i|, (|i><j| + |j><i|)/sqrt2 and i(|i><j| - |j><i|)/sqrt2 (i < j), and the
trace is the sum of the first d coordinates.  R is linear in its five
coefficients (delta, chi, drive, gamma (n_th + 1), gamma n_th), so each
dimension caches the five parameter-free parts as one COO index set and a
(5, nnz) value table, built with numpy index arithmetic; a point's R is the
coefficients times the table.  Because R is linear and time independent, one
RK4 step of size h is exactly the degree-4 Taylor polynomial P(h R), and K
equal steps are P(h R)^K.  At every cutoff, propagation precomputes
P(h R)^K once per sample interval by binary powering, which produces the same
states as stepping one step at a time (up to roundoff) at a small fraction of
the cost.  A trajectory keeps its samples as one read-only (n_samples, d, d)
array, filled from the coordinate rows with one gather and validated in one
pass (one stacked ``eigvalsh``); ``Trajectory.states`` wraps single samples
as :class:`~kerr_thermo.fock.DensityMatrix` only when they are accessed.

The steady state solves R x = 0 with a trace-one row.  Ordered by coherence
order k = j - i, R is block tridiagonal (the drive moves k by one, the
Hamiltonian and the dissipators keep it), so the solve is a block
elimination from k = d - 1 down to 0, and the n_th-derivative of the steady
state is one more sweep through the same factors.  The runtime needs numpy
only.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, TraceDriftError, TruncationError
from .fock import (
    DensityMatrix,
    SystemParams,
    Truncation,
    annihilation,
    as_matrix,
    hamiltonian,
)

__all__ = [
    "TimeGrid",
    "Trajectory",
    "default_integrator_step",
    "generator_entries",
    "lindblad_rhs",
    "propagate",
    "steady_state",
    "steady_state_tangent",
    "purity",
]

# Propagation aborts if a sampled state has lost this much trace, or if its
# smallest eigenvalue falls below -_STATE_TOL.
_TRACE_DRIFT_LIMIT = 1e-6
_STATE_TOL = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Output sampling grid in dimensionless time tau = gamma * t.

    ``integrator_step`` is the internal RK4 step; ``None`` selects the default
    rate-scaled rule (see :func:`default_integrator_step`).  When given, it
    must not exceed the sample spacing.
    """

    t_end: float
    n_samples: int = 201
    t_start: float = 0.0
    integrator_step: float | None = None

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.t_end > self.t_start:
            raise ValueError(f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]")
        if not isinstance(self.n_samples, (int, np.integer)) or self.n_samples < 2:
            raise ValueError(f"n_samples must be an integer >= 2, got {self.n_samples!r}")
        object.__setattr__(self, "n_samples", int(self.n_samples))
        if self.integrator_step is not None:
            if not self.integrator_step > 0:
                raise ValueError(f"integrator_step must be positive, got {self.integrator_step}")
            if self.integrator_step > self.spacing * (1.0 + 1e-12):
                raise ValueError(
                    f"integrator_step {self.integrator_step} exceeds sample spacing {self.spacing}"
                )

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.n_samples - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


class _States(Sequence):
    """Read-only sequence view of a trajectory's samples as DensityMatrix values.

    ``len`` costs nothing; an item is built (and validated) only when accessed.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: np.ndarray):
        self._entries = entries

    def __len__(self) -> int:
        return self._entries.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(*index.indices(len(self))))
        return DensityMatrix(self._entries[index], tol=_STATE_TOL)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, the (n_samples, d, d) stack of validated states,
    and the worst leakage seen.

    ``entries`` is read-only; ``states`` views it as DensityMatrix values.
    """

    times: np.ndarray
    entries: np.ndarray
    leakage_max: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 3 or entries.shape[1] != entries.shape[2]:
            raise ValueError(f"entries must be a (n_samples, d, d) stack, got shape {entries.shape}")
        if len(times) != len(entries):
            raise ValueError("times and entries must have equal length")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        times.setflags(write=False)
        entries.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "entries", entries)

    @property
    def states(self) -> Sequence[DensityMatrix]:
        return _States(self.entries)

    @property
    def final(self) -> DensityMatrix:
        return self.states[-1]

    def photon_numbers(self) -> np.ndarray:
        populations = self.entries.diagonal(axis1=1, axis2=2).real
        return (np.arange(self.entries.shape[1]) * populations).sum(axis=1)


def default_integrator_step(params: SystemParams, trunc: Truncation) -> float:
    """Rate-scaled RK4 step: 1e-3 over the fastest rate present in the generator."""
    rate = max(
        1.0,
        abs(params.delta),
        params.chi * trunc.n_cut,
        params.drive,
        params.gamma * (params.n_th + 1.0) * trunc.n_cut,
    )
    return 1e-3 / rate


def _jump_terms(params: SystemParams, dim: int):
    a = annihilation(dim)
    yield params.gamma * (params.n_th + 1.0), a
    yield params.gamma * params.n_th, a.conj().T


def lindblad_rhs(rho, params: SystemParams, ham: np.ndarray) -> np.ndarray:
    """Right-hand side drho/dtau for a state and Hamiltonian of matching dimension."""
    r = as_matrix(rho)
    ham = np.asarray(ham, dtype=np.complex128)
    if ham.shape != r.shape:
        raise ValueError(f"dimension mismatch: rho {r.shape} vs H {ham.shape}")
    out = -1j * (ham @ r - r @ ham)
    for rate, jump in _jump_terms(params, r.shape[0]):
        if rate == 0.0:
            continue
        jdj = jump.conj().T @ jump
        out += rate * (2.0 * (jump @ r @ jump.conj().T) - jdj @ r - r @ jdj)
    return out


@functools.lru_cache(maxsize=16)
def _upper_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(dim, 1)``, built once per dimension and read-only."""
    iu, ju = np.triu_indices(dim, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _coo(mat: np.ndarray):
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


@functools.lru_cache(maxsize=16)
def _generator_table(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R's five parameter-free parts on Hermitian-basis coordinates, built once
    per dimension: one COO index set ``(rows, cols)`` and a (5, nnz) value
    table, so that R = coeffs @ table for coeffs (delta, chi, drive,
    gamma (n_th + 1), gamma n_th).  The arrays are read-only.

    Each part is a complex Liouvillian on row-major vec(rho), a sum of terms
    w A rho B, that is w kron(A, B^T), whose COO triples come from those of A
    and B.  U has at most two entries per column, so every entry of L gives
    at most four of R = U L U^dag.  L commutes with Hermitian conjugation, so
    the imaginary parts cancel exactly; entries that are zero in every part
    are dropped.
    """
    a = annihilation(dim)
    eye = np.eye(dim, dtype=np.complex128)
    num = np.diag(np.arange(dim, dtype=np.complex128))

    def commutator(op, weight):
        return [(weight, op, eye), (-weight, eye, op)]

    def dissipator(jump):
        jdj = jump.conj().T @ jump
        return [(2.0, jump, jump.conj().T), (-1.0, jdj, eye), (-1.0, eye, jdj)]

    parts = (
        commutator(num, -1j),
        commutator(num @ (num - eye), -1j),
        commutator(a.conj().T - a, 1.0),
        dissipator(a),
        dissipator(a.conj().T),
    )

    # U by columns: vec position s goes to coordinates urow[s] with weights
    # uval[s] (a diagonal position has one, padded with a zero weight).
    iu, ju = _upper_indices(dim)
    m, c, dd = iu.size, 1.0 / math.sqrt(2.0), dim * dim
    urow = np.zeros((dd, 2), dtype=np.intp)
    uval = np.zeros((dd, 2), dtype=np.complex128)
    diagonal = np.arange(dim) * (dim + 1)
    urow[diagonal, 0] = np.arange(dim)
    uval[diagonal, 0] = 1.0
    pair = np.column_stack([dim + np.arange(m), dim + m + np.arange(m)])
    for position, sign in ((iu * dim + ju, -1.0), (ju * dim + iu, 1.0)):
        urow[position] = pair
        uval[position] = (c, sign * 1j * c)

    summed = []
    for terms in parts:
        flat, vals = [], []
        for weight, left, right in terms:
            (ra, ca, va), (rb, cb, vb) = _coo(left), _coo(right.T)
            r = (ra[:, None] * dim + rb).ravel()
            s = (ca[:, None] * dim + cb).ravel()
            v = weight * np.outer(va, vb).ravel()
            entries = uval[r][:, :, None] * v[:, None, None] * uval[s].conj()[:, None, :]
            flat.append((urow[r][:, :, None] * dd + urow[s][:, None, :]).ravel())
            vals.append(entries.real.ravel())
        flat, where = np.unique(np.concatenate(flat), return_inverse=True)
        summed.append((flat, np.bincount(where, weights=np.concatenate(vals))))
    flat = np.unique(np.concatenate([part_flat for part_flat, _ in summed]))
    table = np.zeros((len(parts), flat.size))
    for row, (part_flat, part_vals) in zip(table, summed):
        row[np.searchsorted(flat, part_flat)] = part_vals
    keep = np.any(table != 0.0, axis=0)
    rows, cols = np.divmod(flat[keep], dd)
    table = table[:, keep]
    for arr in (rows, cols, table):
        arr.setflags(write=False)
    return rows, cols, table


def generator_entries(params: SystemParams, trunc: Truncation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real generator R = U L U^dag on Hermitian-basis coordinates, as COO
    triples ``(rows, cols, values)``.

    The index arrays are the read-only per-dimension table's; the values are
    its five parameter-free parts weighted by (delta, chi, drive,
    gamma (n_th + 1), gamma n_th).
    """
    rows, cols, table = _generator_table(trunc.n_cut)
    coeffs = np.array(
        [params.delta, params.chi, params.drive, params.gamma * (params.n_th + 1.0), params.gamma * params.n_th]
    )
    return rows, cols, coeffs @ table


def _coordinates(mat: np.ndarray) -> np.ndarray:
    """Real Hermitian-basis coordinates of a Hermitian matrix, or of each of a
    (..., d, d) stack along the last axis: the d diagonal entries, then
    sqrt2 Re rho_ij, then sqrt2 Im rho_ij, with (i, j) running over
    ``np.triu_indices(dim, 1)``."""
    iu, ju = _upper_indices(mat.shape[-1])
    upper = math.sqrt(2.0) * mat[..., iu, ju]
    return np.concatenate([mat.diagonal(axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1)


@functools.lru_cache(maxsize=16)
def _entry_order(dim: int) -> np.ndarray:
    """Row-major positions of a d x d matrix as indices into its value row
    [diagonal, upper triangle, conjugated upper triangle]; built once, read-only."""
    iu, ju = _upper_indices(dim)
    m = iu.size
    order = np.empty(dim * dim, dtype=np.intp)
    order[np.arange(dim) * (dim + 1)] = np.arange(dim)
    order[iu * dim + ju] = dim + np.arange(m)
    order[ju * dim + iu] = dim + m + np.arange(m)
    order.setflags(write=False)
    return order


def _from_coordinate_rows(rows: np.ndarray, dim: int) -> np.ndarray:
    """The (n, d, d) Hermitian matrices whose coordinates are the rows, each built
    from its upper triangle; one gather by ``_entry_order`` fills the whole
    stack (``np.take`` keeps it C-contiguous, where ``values[:, order]`` would not)."""
    re, im = np.split(rows[:, dim:], 2, axis=1)
    upper = (re + 1j * im) / math.sqrt(2.0)
    values = np.concatenate([rows[:, :dim].astype(np.complex128), upper, upper.conj()], axis=1)
    return np.take(values, _entry_order(dim), axis=1).reshape(len(rows), dim, dim)


def _from_coordinates(coords: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian matrix with these coordinates, built from its upper triangle."""
    return _from_coordinate_rows(coords[None], dim)[0]


def _rk4_polynomial(x: np.ndarray) -> np.ndarray:
    """I + X + X^2/2 + X^3/6 + X^4/24, the exact one-step RK4 map for a linear ODE."""
    eye = np.eye(x.shape[0], dtype=x.dtype)
    acc = eye + x / 4.0
    acc = eye + (x @ acc) / 3.0
    acc = eye + (x @ acc) / 2.0
    return eye + x @ acc


def propagate(
    rho0: DensityMatrix,
    params: SystemParams,
    grid: TimeGrid,
    trunc: Truncation,
) -> Trajectory:
    """Evolve ``rho0`` over ``grid``, returning validated states at every sample.

    Fixed-step RK4, applied as the powered real polynomial P(h R)^K on the
    Hermitian-basis coordinates, at every cutoff; each sample is rebuilt from
    its upper triangle, so it is exactly Hermitian.  Trace drift beyond 1e-6
    raises TraceDriftError (it is never silently renormalized), top-two-level
    population beyond ``trunc.leakage_tol`` raises TruncationError, and a
    non-finite state or an eigenvalue below -1e-6 raises
    NumericalFailureError, each naming the first offending time.  The dense
    map holds n_cut^4 doubles.
    """
    dim = trunc.n_cut
    if rho0.dim != dim:
        raise ValueError(f"initial state dimension {rho0.dim} does not match n_cut {dim}")

    times = grid.times
    spacing = grid.spacing
    step = grid.integrator_step
    if step is None:
        step = min(default_integrator_step(params, trunc), spacing)
    n_steps = max(1, math.ceil(spacing / step - 1e-9))
    h = spacing / n_steps

    rows, cols, values = generator_entries(params, trunc)
    rmat = np.zeros((dim * dim, dim * dim))
    rmat[rows, cols] = values
    sample_map = np.linalg.matrix_power(_rk4_polynomial(h * rmat), n_steps)
    # The exact generator annihilates the trace functional, so the exact
    # RK4 map preserves trace identically; binary powering loses that to
    # roundoff (~1e-11), which the 1/(12 h) occupation-derivative stencils
    # downstream would amplify.  Project the map back onto the
    # trace-preserving affine subspace.  This corrects the propagator, not
    # the state: trace drift remains monitored and never renormalized.
    tr_vec = np.zeros(dim * dim)
    tr_vec[:dim] = 1.0
    sample_map -= np.outer(tr_vec / dim, tr_vec @ sample_map - tr_vec)
    coords = _coordinates(rho0.entries)
    rows = np.empty((len(times), coords.size))
    rows[0] = coords
    # Samples after a failing one are computed too, then discarded by the
    # validation; they may overflow, which must not warn.
    with np.errstate(all="ignore"):
        for k in range(1, len(times)):
            coords = sample_map @ coords
            rows[k] = coords
        entries = _from_coordinate_rows(rows, dim)
    entries[0] = rho0.entries
    leakage_max = _validate_samples(entries, times, trunc)
    return Trajectory(times=times, entries=entries, leakage_max=leakage_max)


def _validate_samples(entries: np.ndarray, times: np.ndarray, trunc: Truncation) -> float:
    """Check a propagated stack in one pass and return its worst leakage.

    Sample 0 is the validated initial state, so only its leakage is checked.
    The first failing sample raises, its checks taken in the order trace drift
    (TraceDriftError), top-two-level leakage (TruncationError), then
    finiteness and positivity (NumericalFailureError).  One stacked
    ``eigvalsh`` covers the samples before the first failure of the others.
    """
    with np.errstate(all="ignore"):
        leak = _leakage(entries)
        drift = np.abs(entries.trace(axis1=1, axis2=2) - 1.0)
    drift[0] = 0.0
    finite = np.isfinite(entries).all(axis=(1, 2))
    failed = np.nonzero((drift > _TRACE_DRIFT_LIMIT) | (leak > trunc.leakage_tol) | ~finite)[0]
    first = failed[0] if failed.size else len(entries)
    lam_min = np.linalg.eigvalsh(entries[1:first])[:, 0]
    negative = np.nonzero(lam_min < -_STATE_TOL)[0]
    if negative.size:
        k = negative[0]
        raise NumericalFailureError(
            f"invalid state at tau = {times[k + 1]:g}: smallest eigenvalue "
            f"{lam_min[k]:.3e} below -tol = {-_STATE_TOL:.1e}"
        )
    if failed.size:
        t = times[first]
        if drift[first] > _TRACE_DRIFT_LIMIT:
            raise TraceDriftError(
                f"trace drifted by {drift[first]:.3e} at tau = {t:g}; "
                f"reduce the integrator step or enlarge the truncation"
            )
        _check_leakage(leak[first], trunc, f"at tau = {t:g}")
        raise NumericalFailureError(f"invalid state at tau = {t:g}: density matrix contains non-finite entries")
    return float(leak.max())


def _leakage(mat: np.ndarray) -> float | np.ndarray:
    """Top-two-level population of a (d, d) state as a float, or of each state
    of a (n, d, d) stack as an array: the truncation's leakage measure."""
    populations = mat.diagonal(axis1=-2, axis2=-1).real
    leak = populations[..., -1] + populations[..., -2]
    return leak if leak.ndim else float(leak)


def _check_leakage(leak: float, trunc: Truncation, where: str) -> None:
    if leak > trunc.leakage_tol:
        raise TruncationError(
            f"top-two-level population {leak:.3e} exceeds leakage_tol "
            f"{trunc.leakage_tol:.1e} {where}; increase n_cut"
        )


@functools.lru_cache(maxsize=16)
def _coherence_layout(dim: int):
    """Where R's coherence-order blocks sit, built once per dimension.

    Block 0 holds the d diagonal coordinates; block k >= 1 holds the 2(d - k)
    coordinates sqrt2 Re rho_{i,i+k}, then sqrt2 Im rho_{i,i+k}.  The drive
    moves k by one and the Hamiltonian and dissipators keep it, so R is block
    tridiagonal in this order: every table entry lies in a diagonal block D_k,
    in U_k = R[k, k+1] or in L_k = R[k+1, k].  The blocks share one flat
    buffer, D_0..D_{d-1}, then U_0..U_{d-2}, then L_0..L_{d-2}.  Returns their
    shapes and start offsets (one more for the buffer's end), the coordinate
    indices in block order, and each table entry's position in the buffer.
    """
    rows, cols, _ = _generator_table(dim)
    iu, ju = _upper_indices(dim)
    order = ju - iu
    block = np.concatenate([np.zeros(dim, dtype=np.intp), order, order])
    local = np.concatenate([np.arange(dim), iu, dim - order + iu])
    sizes = [dim] + [2 * (dim - k) for k in range(1, dim)]
    shapes = [(s, s) for s in sizes] + list(zip(sizes[:-1], sizes[1:])) + list(zip(sizes[1:], sizes[:-1]))
    start = np.cumsum([0] + [r * c for r, c in shapes])
    sizes = np.array(sizes)

    br, bc, lr, lc = block[rows], block[cols], local[rows], local[cols]
    position = np.full(rows.size, -1, dtype=np.intp)
    for mask, first, k in (
        (br == bc, 0, br),
        (bc == br + 1, dim, br),
        (bc == br - 1, 2 * dim - 1, bc),
    ):
        position[mask] = start[first + k[mask]] + lr[mask] * sizes[bc[mask]] + lc[mask]
    if np.any(position < 0):
        raise RuntimeError("the generator is not block tridiagonal in coherence order")
    coordinate_order = np.lexsort((local, block))
    for arr in (start, coordinate_order, position):
        arr.setflags(write=False)
    return tuple(shapes), start, coordinate_order, position


class _CoherenceSolver:
    """R with its first row replaced by a trace constraint, factored by block
    Gaussian elimination over coherence order (Golub & Van Loan, *Matrix
    Computations*, sec. 4.5).

    The trace row touches only block 0, so the system keeps R's block
    tridiagonal form.  Eliminating from k = d - 1 down to 0 gives the Schur
    complements S_{d-1} = D_{d-1}, S_k = D_k - U_k S_{k+1}^{-1} L_k, whose
    inverses are kept, so every further right-hand side is one sweep of
    matrix-vector products with no new factorization.
    """

    def __init__(self, values: np.ndarray, dim: int, scale: float):
        shapes, start, self._order, position = _coherence_layout(dim)
        buffer = np.zeros(start[-1])
        buffer[position] = values
        blocks = [buffer[lo:hi].reshape(shape) for lo, hi, shape in zip(start[:-1], start[1:], shapes)]
        diag, self._upper, self._lower = blocks[:dim], blocks[dim : 2 * dim - 1], blocks[2 * dim - 1 :]
        diag[0][0] = scale
        self._upper[0][0] = 0.0
        self._splits = np.cumsum([len(d) for d in diag[:-1]])

        # Each inverse overwrites its diagonal block, which it no longer needs.
        for k in range(dim - 1, -1, -1):
            schur = diag[k]
            if k < dim - 1:
                schur = schur - self._upper[k] @ (diag[k + 1] @ self._lower[k])
            try:
                diag[k][...] = np.linalg.inv(schur)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(f"singular Schur complement at coherence order {k}") from exc
            if not np.isfinite(diag[k]).all():
                raise NumericalFailureError(f"non-finite Schur complement at coherence order {k}")
        self._inverses = diag

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution for a right-hand side, both in coordinate order."""
        inv, upper, lower = self._inverses, self._upper, self._lower
        b = np.split(rhs[self._order], self._splits)
        # Down: z_k = S_k^{-1} (b_k - U_k z_{k+1}); up: x_0 = z_0,
        # x_{k+1} = z_{k+1} - S_{k+1}^{-1} L_k x_k.
        z = [inv[-1] @ b[-1]]
        for k in range(len(b) - 2, -1, -1):
            z.append(inv[k] @ (b[k] - upper[k] @ z[-1]))
        z.reverse()
        x = [z[0]]
        for k in range(len(b) - 1):
            x.append(z[k + 1] - inv[k + 1] @ (lower[k] @ x[k]))
        out = np.empty(rhs.size)
        out[self._order] = np.concatenate(x)
        return out


def _steady_solve(params: SystemParams, trunc: Truncation):
    """Factor the trace-constrained real generator and solve for the steady state.

    R's first row is replaced by the trace-one constraint, scaled to the
    largest entry of R for conditioning.  Returns the state (exactly
    Hermitian, residual-checked, not yet validated), its coordinates and the
    factored system, so a caller can reuse it.
    """
    dim = trunc.n_cut
    _, _, values = generator_entries(params, trunc)
    scale = float(np.abs(values).max())
    if not np.isfinite(scale) or scale == 0.0:
        raise NumericalFailureError("generator is identically zero or non-finite")

    solver = _CoherenceSolver(values, dim, scale)
    rhs = np.zeros(dim * dim)
    rhs[0] = scale
    coords = solver.solve(rhs)

    mat = _from_coordinates(coords, dim)
    residual = float(np.abs(lindblad_rhs(mat, params, hamiltonian(params, trunc))).max())
    if not np.isfinite(residual) or residual > 1e-6 * max(1.0, scale):
        raise NumericalFailureError(
            f"steady-state residual {residual:.3e} too large; system may be singular"
        )
    return mat, coords, solver


def steady_state(params: SystemParams, trunc: Truncation, *, tol: float = 1e-9) -> DensityMatrix:
    """Unique fixed point of the generator, via a trace-constrained linear solve.

    One block-tridiagonal solve of R x = 0 for every cutoff, with R's first
    row replaced by the trace-one constraint (scaled to the largest entry of R
    for conditioning).  The state is rebuilt exactly Hermitian from x,
    residual-checked against :func:`lindblad_rhs` and validated.  A singular
    or non-finite Schur complement, or a residual too large, raises
    NumericalFailureError.  A top-two-level population beyond
    ``trunc.leakage_tol`` raises TruncationError, as in :func:`propagate`, and
    so do positivity failures beyond ``tol``.
    """
    mat = _steady_solve(params, trunc)[0]
    _check_leakage(_leakage(mat), trunc, "in the steady state")
    try:
        return DensityMatrix(mat, tol=tol)
    except ValueError as exc:
        raise TruncationError(
            f"steady state violates density-matrix invariants within tol {tol:.1e} "
            f"({exc}); n_cut = {trunc.n_cut} is likely too small"
        ) from exc


def steady_state_tangent(params: SystemParams, trunc: Truncation) -> tuple[np.ndarray, np.ndarray]:
    """The steady state and its exact derivative in n_th, as Hermitian matrices.

    L is affine in n_th, R = R0 + n_th R1 with R1 = gamma (D[a] + D[a^dag]) (two
    rows of the generator table), so differentiating R x = 0 gives
    R_c x' = -R1 x with the trace row of R_c set to 0 (x' is traceless): one
    more sweep through the steady state's factored system.  The state is
    residual-checked but not validated as a density matrix.
    """
    dim = trunc.n_cut
    mat, coords, solver = _steady_solve(params, trunc)
    rows, cols, table = _generator_table(dim)
    r1 = params.gamma * (table[3] + table[4])
    drift = -np.bincount(rows, weights=r1 * coords[cols], minlength=dim * dim)
    drift[0] = 0.0
    return mat, _from_coordinates(solver.solve(drift), dim)


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/(2 n + 1) for thermal occupation n."""
    entries = as_matrix(rho)
    return float(np.einsum("ij,ji->", entries, entries).real)
