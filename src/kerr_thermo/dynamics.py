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
|i><i|, (|i><j| + |j><i|)/sqrt2 and i(|i><j| - |j><i|)/sqrt2 (i < j); U is a
sparse unitary and the trace is the sum of the first d coordinates.  Because
R is linear and time independent, one RK4 step of size h is exactly the
degree-4 Taylor polynomial P(h R), and K equal steps are P(h R)^K.  At
every cutoff, propagation precomputes P(h R)^K once per sample interval by
binary powering, which produces the same states as stepping one step at a time
(up to roundoff) at a small fraction of the cost.  A trajectory keeps its
samples as one read-only (n_samples, d, d) array, filled from the coordinate
rows with one gather and validated in one pass (one stacked
``eigvalsh``); ``Trajectory.states`` wraps single samples as
:class:`~kerr_thermo.fock.DensityMatrix` only when they are accessed.  The
steady state is one sparse solve with R, and its n_th-derivative one more with
the same matrix.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

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
    "liouvillian_matrix",
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


def _dissipator(jump: sparse.csr_matrix, eye: sparse.csr_matrix):
    """D[J] on row-major vec(rho), with D[J] rho = 2 J rho J^dag - J^dag J rho - rho J^dag J."""
    jdj = jump.conj().T @ jump
    return 2.0 * sparse.kron(jump, jump.conj()) - sparse.kron(jdj, eye) - sparse.kron(eye, jdj.T)


@functools.lru_cache(maxsize=16)
def _thermal_dissipators(dim: int):
    """D[a] and D[a^dag], built once per dimension (callers never modify them).

    L = -i[H, .] + gamma (n_th + 1) D[a] + gamma n_th D[a^dag], so dL/dn_th =
    gamma (D[a] + D[a^dag]).
    """
    eye = sparse.identity(dim, format="csr", dtype=np.complex128)
    a = sparse.csr_matrix(annihilation(dim))
    return _dissipator(a, eye), _dissipator(a.conj().T.tocsr(), eye)


def liouvillian_matrix(params: SystemParams, trunc: Truncation) -> sparse.csr_matrix:
    """Sparse CSR matrix of the generator acting on row-major vec(rho).

    With vec stacking rows, vec(A rho B) = (A kron B^T) vec(rho).
    """
    dim = trunc.n_cut
    kron = sparse.kron
    eye = sparse.identity(dim, format="csr", dtype=np.complex128)
    ham = sparse.csr_matrix(hamiltonian(params, trunc))
    lv = -1j * (kron(ham, eye) - kron(eye, ham.T))
    rates = (params.gamma * (params.n_th + 1.0), params.gamma * params.n_th)
    for rate, dissipator in zip(rates, _thermal_dissipators(dim)):
        if rate != 0.0:
            lv = lv + rate * dissipator
    return lv.tocsr()


@functools.lru_cache(maxsize=16)
def _upper_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(dim, 1)``, built once per dimension and read-only."""
    iu, ju = np.triu_indices(dim, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


@functools.lru_cache(maxsize=16)
def _hermitian_basis(dim: int) -> sparse.csr_matrix:
    """Sparse unitary U taking row-major vec(rho) to real Hermitian-basis coordinates.

    Coordinates are ordered: the d diagonal entries, then sqrt2 Re rho_ij, then
    sqrt2 Im rho_ij, with (i, j) running over ``np.triu_indices(dim, 1)``.
    Built once per dimension; its arrays are read-only.
    """
    iu, ju = _upper_indices(dim)
    m, c = iu.size, 1.0 / math.sqrt(2.0)
    sym, anti = dim + np.arange(m), dim + m + np.arange(m)
    rows = np.concatenate([np.arange(dim), sym, sym, anti, anti])
    upper, lower = iu * dim + ju, ju * dim + iu
    cols = np.concatenate([np.arange(dim) * (dim + 1), upper, lower, upper, lower])
    vals = np.concatenate([np.ones(dim), np.full(2 * m, c), np.full(m, -1j * c), np.full(m, 1j * c)])
    basis = sparse.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim))
    for arr in (basis.data, basis.indices, basis.indptr):
        arr.setflags(write=False)
    return basis


def _real_generator(lv: sparse.csr_matrix) -> sparse.csr_matrix:
    """R = U L U^dag, the generator of a sparse Liouvillian L on Hermitian-basis coordinates.

    L commutes with Hermitian conjugation, so the imaginary parts cancel exactly.
    """
    basis = _hermitian_basis(math.isqrt(lv.shape[0]))
    return (basis @ lv @ basis.conj().T).real.tocsr()


def _coordinates(mat: np.ndarray) -> np.ndarray:
    """Real Hermitian-basis coordinates of a Hermitian matrix, or of each of a
    (..., d, d) stack along the last axis (see ``_hermitian_basis``)."""
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

    rmat = _real_generator(liouvillian_matrix(params, trunc)).toarray()
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
        populations = entries.diagonal(axis1=1, axis2=2).real
        leak = populations[:, -1] + populations[:, -2]
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


def _leakage(mat: np.ndarray) -> float:
    return float(mat[-1, -1].real + mat[-2, -2].real)


def _check_leakage(leak: float, trunc: Truncation, where: str) -> None:
    if leak > trunc.leakage_tol:
        raise TruncationError(
            f"top-two-level population {leak:.3e} exceeds leakage_tol "
            f"{trunc.leakage_tol:.1e} {where}; increase n_cut"
        )


def _steady_solve(params: SystemParams, trunc: Truncation):
    """Factor the trace-constrained real generator and solve for the steady state.

    R's first row is replaced by the trace-one constraint, scaled to the
    largest entry of L for conditioning.  Returns the state (exactly
    Hermitian, residual-checked, not yet validated), its coordinates and the
    LU factors, so a caller can reuse them.
    """
    dim = trunc.n_cut
    lmat = liouvillian_matrix(params, trunc)
    scale = float(abs(lmat).max())
    if not np.isfinite(scale) or scale == 0.0:
        raise NumericalFailureError("generator is identically zero or non-finite")

    rhs = np.zeros(dim * dim)
    rhs[0] = scale
    trace_row = sparse.csr_matrix(np.where(np.arange(dim * dim) < dim, scale, 0.0))
    system = sparse.vstack([trace_row, _real_generator(lmat)[1:]], format="csc")
    try:
        lu = sparse_linalg.splu(system)
    except RuntimeError as exc:
        raise NumericalFailureError(f"sparse steady-state solve failed: {exc}") from exc
    coords = lu.solve(rhs)

    mat = _from_coordinates(coords, dim)
    residual = float(np.abs(lindblad_rhs(mat, params, hamiltonian(params, trunc))).max())
    if not np.isfinite(residual) or residual > 1e-6 * max(1.0, scale):
        raise NumericalFailureError(
            f"steady-state residual {residual:.3e} too large; system may be singular"
        )
    return mat, coords, lu


def steady_state(params: SystemParams, trunc: Truncation, *, tol: float = 1e-9) -> DensityMatrix:
    """Unique fixed point of the generator, via a trace-constrained linear solve.

    One sparse solve of R x = 0 for every cutoff, with R's first row replaced
    by the trace-one constraint (scaled to the largest entry of L for
    conditioning).  The state is rebuilt exactly Hermitian from x and validated.
    A top-two-level population beyond ``trunc.leakage_tol`` raises
    TruncationError, as in :func:`propagate`, and so do positivity failures
    beyond ``tol``.
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

    L is affine in n_th, R = R0 + n_th R1, so differentiating R x = 0 gives
    R_c x' = -R1 x with the trace row of R_c set to 0 (x' is traceless): one
    more solve with the steady state's LU factors.  The state is
    residual-checked but not validated as a density matrix.
    """
    mat, coords, lu = _steady_solve(params, trunc)
    damping, heating = _thermal_dissipators(trunc.n_cut)
    drift = -(_real_generator((params.gamma * (damping + heating)).tocsr()) @ coords)
    drift[0] = 0.0
    return mat, _from_coordinates(lu.solve(drift), trunc.n_cut)


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/(2 n + 1) for thermal occupation n."""
    entries = as_matrix(rho)
    return float(np.einsum("ij,ji->", entries, entries).real)
