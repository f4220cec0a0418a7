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
degree-4 Taylor polynomial P(h R), and K equal steps are P(h R)^K.  For
moderate cutoffs we therefore precompute P(h R)^K once per sample interval by
binary powering, which produces the same states as stepping one step at a time
(up to roundoff) at a small fraction of the cost.  Larger cutoffs fall back to
explicit complex stepping with a sparse L.  The steady state is one sparse
solve with R.
"""

from __future__ import annotations

import math
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
    "purity",
]

# Above this dimension the dense d^2 x d^2 superoperator becomes too large to
# power cheaply and propagation steps through time explicitly instead.
_DENSE_SUPEROP_MAX_DIM = 48

# Propagation aborts if a sampled state has lost this much trace.
_TRACE_DRIFT_LIMIT = 1e-6


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
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("time grid endpoints must be finite")
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


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, validated states, and the worst leakage seen."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    leakage_max: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if len(times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def final(self) -> DensityMatrix:
        return self.states[-1]

    def expectations(self, op: np.ndarray) -> np.ndarray:
        """<O>(tau) along the trajectory."""
        return np.array([state.expectation(op) for state in self.states])

    def photon_numbers(self) -> np.ndarray:
        levels = np.arange(self.states[0].dim)
        return np.array([float(np.sum(levels * s.populations())) for s in self.states])


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


def liouvillian_matrix(params: SystemParams, trunc: Truncation, *, as_sparse: bool = False):
    """Matrix of the generator acting on row-major vec(rho), sparse or dense.

    With vec stacking rows, vec(A rho B) = (A kron B^T) vec(rho).
    """
    dim = trunc.n_cut
    kron = sparse.kron
    eye = sparse.identity(dim, format="csr", dtype=np.complex128)
    ham = sparse.csr_matrix(hamiltonian(params, trunc))
    lv = -1j * (kron(ham, eye) - kron(eye, ham.T))
    for rate, jump in _jump_terms(params, dim):
        if rate == 0.0:
            continue
        jump = sparse.csr_matrix(jump)
        jdj = jump.conj().T @ jump
        lv = lv + rate * (2.0 * kron(jump, jump.conj()) - kron(jdj, eye) - kron(eye, jdj.T))
    return lv.tocsr() if as_sparse else lv.toarray()


def _hermitian_basis(dim: int) -> sparse.csr_matrix:
    """Sparse unitary U taking row-major vec(rho) to real Hermitian-basis coordinates.

    Coordinates are ordered: the d diagonal entries, then sqrt2 Re rho_ij, then
    sqrt2 Im rho_ij, with (i, j) running over ``np.triu_indices(dim, 1)``.
    """
    iu, ju = np.triu_indices(dim, 1)
    m, c = iu.size, 1.0 / math.sqrt(2.0)
    sym, anti = dim + np.arange(m), dim + m + np.arange(m)
    rows = np.concatenate([np.arange(dim), sym, sym, anti, anti])
    upper, lower = iu * dim + ju, ju * dim + iu
    cols = np.concatenate([np.arange(dim) * (dim + 1), upper, lower, upper, lower])
    vals = np.concatenate([np.ones(dim), np.full(2 * m, c), np.full(m, -1j * c), np.full(m, 1j * c)])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim))


def _real_generator(lv: sparse.csr_matrix) -> sparse.csr_matrix:
    """R = U L U^dag, the generator of a sparse Liouvillian L on Hermitian-basis coordinates.

    L commutes with Hermitian conjugation, so the imaginary parts cancel exactly.
    """
    basis = _hermitian_basis(math.isqrt(lv.shape[0]))
    return (basis @ lv @ basis.conj().T).real.tocsr()


def _coordinates(mat: np.ndarray) -> np.ndarray:
    """Real Hermitian-basis coordinates of a Hermitian matrix (see ``_hermitian_basis``)."""
    upper = math.sqrt(2.0) * mat[np.triu_indices(mat.shape[0], 1)]
    return np.concatenate([mat.diagonal().real, upper.real, upper.imag])


def _from_coordinates(coords: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian matrix with these coordinates, built from its upper triangle."""
    iu = np.triu_indices(dim, 1)
    re, im = coords[dim:].reshape(2, -1)
    mat = np.diag(coords[:dim].astype(np.complex128))
    mat[iu] = (re + 1j * im) / math.sqrt(2.0)
    mat[iu[::-1]] = mat[iu].conj()
    return mat


def _rk4_polynomial(x: np.ndarray) -> np.ndarray:
    """I + X + X^2/2 + X^3/6 + X^4/24, the exact one-step RK4 map for a linear ODE."""
    eye = np.eye(x.shape[0], dtype=x.dtype)
    acc = eye + x / 4.0
    acc = eye + (x @ acc) / 3.0
    acc = eye + (x @ acc) / 2.0
    return eye + x @ acc


def _rk4_apply(lmat_h, vec: np.ndarray) -> np.ndarray:
    """One RK4 step applied to vec(rho) via Horner evaluation; lmat_h = h * L."""
    acc = vec + (lmat_h @ vec) / 4.0
    acc = vec + (lmat_h @ acc) / 3.0
    acc = vec + (lmat_h @ acc) / 2.0
    return vec + lmat_h @ acc


def propagate(
    rho0: DensityMatrix,
    params: SystemParams,
    grid: TimeGrid,
    trunc: Truncation,
    *,
    method: str = "auto",
) -> Trajectory:
    """Evolve ``rho0`` over ``grid``, returning validated states at every sample.

    Fixed-step RK4 throughout.  Trace drift beyond 1e-6 raises TraceDriftError
    (it is never silently renormalized), and top-two-level population beyond
    ``trunc.leakage_tol`` raises TruncationError naming the offending time.

    ``method`` is "auto", "dense" (powered real polynomial P(h R) on the
    coordinates; each sample is rebuilt from its upper triangle, so it is
    exactly Hermitian) or "loop" (explicit complex stepping, re-symmetrized
    as (rho + rho^dag)/2); they agree up to roundoff and "auto" picks by dimension.
    """
    dim = trunc.n_cut
    if rho0.dim != dim:
        raise ValueError(f"initial state dimension {rho0.dim} does not match n_cut {dim}")
    if method not in ("auto", "dense", "loop"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "dense" if dim <= _DENSE_SUPEROP_MAX_DIM else "loop"

    times = grid.times
    spacing = grid.spacing
    step = grid.integrator_step
    if step is None:
        step = min(default_integrator_step(params, trunc), spacing)
    n_steps = max(1, math.ceil(spacing / step - 1e-9))
    h = spacing / n_steps

    if method == "dense":
        rmat = _real_generator(liouvillian_matrix(params, trunc, as_sparse=True)).toarray()
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
    else:
        lmat_h = liouvillian_matrix(params, trunc, as_sparse=True) * h
        vec = rho0.entries.reshape(-1).copy()

    states = [rho0]
    leakage_max = _leakage(rho0.entries)
    _check_leakage(leakage_max, trunc, times[0])

    for t in times[1:]:
        if method == "dense":
            coords = sample_map @ coords
            mat = _from_coordinates(coords, dim)
        else:
            for _ in range(n_steps):
                vec = _rk4_apply(lmat_h, vec)
                mat = vec.reshape(dim, dim)
                mat = 0.5 * (mat + mat.conj().T)
                vec = mat.reshape(-1)
        trace_defect = abs(complex(mat.trace()) - 1.0)
        if trace_defect > _TRACE_DRIFT_LIMIT:
            raise TraceDriftError(
                f"trace drifted by {trace_defect:.3e} at tau = {t:g}; "
                f"reduce the integrator step or enlarge the truncation"
            )
        leak = _leakage(mat)
        leakage_max = max(leakage_max, leak)
        _check_leakage(leak, trunc, t)
        try:
            states.append(DensityMatrix(mat, tol=1e-6))
        except ValueError as exc:
            raise NumericalFailureError(f"invalid state at tau = {t:g}: {exc}") from exc

    return Trajectory(times=times, states=tuple(states), leakage_max=leakage_max)


def _leakage(mat: np.ndarray) -> float:
    return float(mat[-1, -1].real + mat[-2, -2].real)


def _check_leakage(leak: float, trunc: Truncation, t: float) -> None:
    if leak > trunc.leakage_tol:
        raise TruncationError(
            f"top-two-level population {leak:.3e} exceeds leakage_tol "
            f"{trunc.leakage_tol:.1e} at tau = {t:g}; increase n_cut"
        )


def steady_state(params: SystemParams, trunc: Truncation, *, tol: float = 1e-9) -> DensityMatrix:
    """Unique fixed point of the generator, via a trace-constrained linear solve.

    One sparse solve of R x = 0 for every cutoff, with R's first row replaced
    by the trace-one constraint (scaled to the largest entry of L for
    conditioning).  The state is rebuilt exactly Hermitian from x and validated;
    positivity failures beyond ``tol`` are reported as truncation problems.
    """
    dim = trunc.n_cut
    lmat = liouvillian_matrix(params, trunc, as_sparse=True)
    scale = float(abs(lmat).max())
    if not np.isfinite(scale) or scale == 0.0:
        raise NumericalFailureError("generator is identically zero or non-finite")

    rhs = np.zeros(dim * dim)
    rhs[0] = scale
    trace_row = sparse.csr_matrix(np.where(np.arange(dim * dim) < dim, scale, 0.0))
    system = sparse.vstack([trace_row, _real_generator(lmat)[1:]], format="csc")
    try:
        coords = sparse_linalg.spsolve(system, rhs)
    except RuntimeError as exc:
        raise NumericalFailureError(f"sparse steady-state solve failed: {exc}") from exc

    mat = _from_coordinates(coords, dim)
    residual = float(np.abs(lindblad_rhs(mat, params, hamiltonian(params, trunc))).max())
    if not np.isfinite(residual) or residual > 1e-6 * max(1.0, scale):
        raise NumericalFailureError(
            f"steady-state residual {residual:.3e} too large; system may be singular"
        )
    try:
        return DensityMatrix(mat, tol=tol)
    except ValueError as exc:
        raise TruncationError(
            f"steady state violates density-matrix invariants within tol {tol:.1e} "
            f"({exc}); n_cut = {dim} is likely too small"
        ) from exc


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/(2 n + 1) for thermal occupation n."""
    entries = as_matrix(rho)
    return float(np.einsum("ij,ji->", entries, entries).real)
