"""Time evolution under the damped Kerr-resonator master equation.

The generator implemented here is

    drho/dtau = -i[H, rho] + gamma (n_th + 1) D[a] rho + gamma n_th D[a^dag] rho

with the dissipator convention D[J] rho = 2 J rho J^dag - J^dag J rho - rho J^dag J.
The factor 2 inside D is deliberate and doubles the more common half-convention:
for the linear cavity it gives d<n>/dtau = -2 gamma <n> + 2 gamma n_th, a rate the
test suite pins down so the convention cannot silently drift.

R is linear in its five coefficients (delta, chi, drive, gamma (n_th + 1),
gamma n_th), and each part is stated once, in closed form, as a lattice
stencil on rho_ij.  Each dimension caches from it one table: the parts'
complex entries between the coherence coordinates, the populations
x_i = rho_ii and then the coherences y = sqrt2 rho_{i,i+k} in coherence order
k = 1, ..., d - 1.  R along any weight vector w over the parts is w times the
table; a point's R takes w = its coefficients, and R1 in R = R0 + n_th R1
takes w = ``_N_TH_SLOPE``.  Every consumer reads R this way.

Propagation applies the exact sample map exp(spacing R).  R maps Hermitian
matrices to Hermitian matrices, so it acts as a real matrix on the
coordinates of rho in the orthonormal Hermitian basis: the d populations,
then sqrt2 Re and sqrt2 Im of the coherences, both in coherence order, so a
coherence's Im slot is its Re slot plus m = d (d - 1) / 2; the trace is the
sum of the first d coordinates.  The map scatters R's entries into that
dense real form and is built once per propagation by scaling and squaring: a
degree-16 Taylor polynomial of spacing R / 2^s in six products (Paterson &
Stockmeyer 1973), squared s times, with s from the 1-norm of spacing R
(Al-Mohy & Higham 2009, 2011): 10-11 products at the presets' certified
cutoffs and 201 samples, 14 at n_cut 30 and 121 samples.  The same products
can carry the map's exact n_th-derivative alongside it, at three matrix
products for each one of the map alone; the trajectory's n_th-derivative
then costs two more matrix-vector products per sample.  A trajectory keeps
its samples as one read-only (n_samples, d, d) array, filled from the
coordinate rows with one gather and validated in one pass (stacked Cholesky
factorizations for positivity); ``Trajectory.states`` wraps single samples
as :class:`~kerr_thermo.fock.DensityMatrix` only when they are accessed.

The steady state solves R x = 0 with a trace-one row.  In coherence order R
is block tridiagonal (the drive moves k by one, the Hamiltonian and the
dissipators keep it), and on the coherences it acts complex-linearly.  So the
solve is a block elimination in complex blocks of size d - k from
k = d - 1 down to 1, then one real step on the populations, with the blocks
scattered from R's complex entries.  The n_th-derivative of the steady state
is one more sweep through the same factors, its right-hand side R1 x the
entries' row sums, returned as the propagation's pair with one sample at
tau = inf.  The solve reads and writes coherence vectors, so the real
coordinates serve the propagator and the outcome map alone.  The runtime
needs numpy only.
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
    _first_negative,
    _read_only,
    annihilation,
    as_matrix,
    hamiltonian,
)

__all__ = [
    "TimeGrid",
    "Trajectory",
    "PerturbedTrajectories",
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

# The relative QFI rank floor for an exact derivative.
_EXACT_RANK_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Output sampling grid in dimensionless time tau = gamma * t, from 0 to ``t_end``.

    ``integrator_step`` is an upper bound on the substep spacing / 2^s that
    the sample map's scaling and squaring takes; ``None`` leaves s to the
    map's norm alone.  When given, it must not exceed the sample spacing.
    """

    t_end: float
    n_samples: int = 201
    integrator_step: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")
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
        return self.t_end / (self.n_samples - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_samples)


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
    """Sampled evolution: times, the (n_samples, d, d) stack of states
    (validated, or residual-checked for the steady state), and the worst leakage seen.

    ``entries`` is read-only; ``states`` views it as DensityMatrix values.
    """

    times: np.ndarray
    entries: np.ndarray
    leakage_max: float

    def __post_init__(self):
        times = _read_only(self.times, float)
        entries = _read_only(self.entries, np.complex128)
        if entries.ndim != 3 or entries.shape[1] != entries.shape[2]:
            raise ValueError(f"entries must be a (n_samples, d, d) stack, got shape {entries.shape}")
        if len(times) != len(entries):
            raise ValueError("times and entries must have equal length")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "entries", entries)

    @property
    def states(self) -> Sequence[DensityMatrix]:
        return _States(self.entries)

    @property
    def final(self) -> DensityMatrix:
        return self.states[-1]


@dataclass(frozen=True)
class PerturbedTrajectories:
    """A central trajectory and its n_th-derivative at every sample.

    ``derivative`` is the read-only (n_samples, d, d) stack d rho / d n_th,
    exact from :func:`_evolve` and from :func:`steady_state_tangent` (one
    sample, at tau = inf).  ``rank_tol_rel`` is the relative rank floor the
    pair's QFI is taken at: the default suits an exact derivative, and a pair
    whose derivative carries roundoff, such as a finite-difference stencil,
    carries a floor raised above it.  Every Fisher series reads this pair.
    """

    central: Trajectory
    derivative: np.ndarray
    rank_tol_rel: float = _EXACT_RANK_TOL

    def __post_init__(self):
        object.__setattr__(self, "derivative", _read_only(self.derivative))

    @property
    def times(self) -> np.ndarray:
        return self.central.times


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


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _coefficients(params: SystemParams) -> np.ndarray:
    """The weights (delta, chi, drive, gamma (n_th + 1), gamma n_th) of R's five parts."""
    return np.array(
        [params.delta, params.chi, params.drive, params.gamma * (params.n_th + 1.0), params.gamma * params.n_th]
    )


# d _coefficients / d n_th, the weights of R1 in R = R0 + n_th R1.
_N_TH_SLOPE = _frozen(np.array([0.0, 0.0, 0.0, SystemParams.gamma, SystemParams.gamma]))[0]


def _stencil(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The generator's five parameter-free parts as a lattice stencil: ten
    terms t with their part p[t], offsets (di[t], dj[t]) and a (d, d) weight
    w[t], so that part p of L rho is the sum over its terms of
    w_ij rho_{i+di, j+dj}; w is zero where the neighbour leaves the lattice.
    Read-only; :func:`_stencil_entries` reads it once per dimension.

    - delta and chi: -i (i - j) and -i (i (i - 1) - j (j - 1));
    - the drive i (a^dag - a): sqrt(i) rho_{i-1,j} - sqrt(i+1) rho_{i+1,j}
      - sqrt(j+1) rho_{i,j+1} + sqrt(j) rho_{i,j-1};
    - D[a]: 2 sqrt((i+1)(j+1)) rho_{i+1,j+1} - (i + j) rho_ij;
    - D[a^dag]: 2 sqrt(ij) rho_{i-1,j-1} - (m_i + m_j) rho_ij, where
      m = (1, ..., d - 1, 0): the truncated a a^dag is zero on the top level.
    """
    n = np.arange(dim, dtype=float)[:, None]
    down = np.sqrt(n)  # sqrt(i), zero at i = 0
    up = np.append(down[1:], 0.0)[:, None]  # sqrt(i + 1), zero on the top level
    top = np.append(n[1:], 0.0)[:, None]
    kerr = n * (n - 1.0)
    terms = (
        (0, 0, 0, -1j * (n - n.T)),
        (1, 0, 0, -1j * (kerr - kerr.T)),
        (2, -1, 0, down),
        (2, 1, 0, -up),
        (2, 0, 1, -up.T),
        (2, 0, -1, down.T),
        (3, 1, 1, 2.0 * up * up.T),
        (3, 0, 0, -(n + n.T)),
        (4, -1, -1, 2.0 * down * down.T),
        (4, 0, 0, -(top + top.T)),
    )
    part, di, dj = np.array([term[:3] for term in terms]).T
    w = np.array([np.broadcast_to(term[3], (dim, dim)) for term in terms], dtype=np.complex128)
    return _frozen(part, di, dj, w)


@functools.lru_cache(maxsize=16)
def _coherence_coordinates(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The populations x_i = rho_ii (order 0), then the coherences
    y_i = sqrt2 rho_{i,i+k} in order k = 1, ..., d - 1: each one's order and
    index i, and the start of each order.  Read-only, cached."""
    sizes = dim - np.arange(dim)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    order = np.repeat(np.arange(dim), sizes)
    index = np.arange(bounds[-1]) - bounds[order]
    return _frozen(order, index, bounds)


def _coherence_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries (i, i + k) of the coherences, in coherence order."""
    order, index = _coherence_coordinates(dim)[:2]
    return index[dim:], index[dim:] + order[dim:]


@functools.lru_cache(maxsize=16)
def _stencil_entries(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R's five parts between the coherence coordinates, from the stencil:
    entries (out, in) and their (5, n) complex values, the one table of R.
    Read-only, cached.

    A coherence row is complex-linear, y_out += c y_in, with c = w (sqrt2 w
    from a population).  A population row takes the real part,
    x_out += Re(c y_in), with c = w / sqrt2 from rho_{K,L}, K < L, and
    conj(w) / sqrt2 from its mirror rho_{L,K}, which only population rows read.
    """
    order, index, bounds = _coherence_coordinates(dim)
    part, di, dj, w = _stencil(dim)
    term, row = np.nonzero(w[:, index, index + order])
    i, j, k = index[row], index[row] + order[row], order[row]
    ki, kj = i + di[term], j + dj[term]
    c = w[term, i, j]
    c[ki > kj] = c[ki > kj].conj()
    c[(k == 0) & (ki != kj)] /= math.sqrt(2.0)
    c[(k > 0) & (ki == kj)] *= math.sqrt(2.0)
    size = bounds[-1]
    key, where = np.unique(row * size + bounds[np.abs(kj - ki)] + np.minimum(ki, kj), return_inverse=True)
    table = np.zeros((5, key.size), dtype=np.complex128)
    np.add.at(table, (part[term], where), c)
    return _frozen(*np.divmod(key, size), table)


def _generator_along(weights: np.ndarray, dim: int) -> np.ndarray:
    """R along a weight vector over its five parts, ``weights @ table``: its
    complex entries on the :func:`_stencil_entries` index set."""
    return (weights @ _stencil_entries(dim)[2].view(np.float64)).view(np.complex128)


def _real_entries(values: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The real matrix on Hermitian-basis coordinates of R's complex entries,
    as COO triples ``(rows, cols, values)`` on distinct positions.  Each entry
    c is the block [[Re c, -Im c], [Im c, Re c]] on the (Re, Im) slots of its
    output and input, of which a population has the Re slot alone; a
    coherence's Im slot is its Re slot plus m = d (d - 1) / 2."""
    out, inp = _stencil_entries(dim)[:2]
    m = dim * (dim - 1) // 2
    row_im, col_im = out >= dim, inp >= dim
    both = row_im & col_im
    rows = np.concatenate([out, out[col_im], out[row_im] + m, out[both] + m])
    cols = np.concatenate([inp, inp[col_im] + m, inp[row_im], inp[both] + m])
    return rows, cols, np.concatenate([values.real, -values.imag[col_im], values.imag[row_im], values.real[both]])


def _coordinates(mat: np.ndarray) -> np.ndarray:
    """Real Hermitian-basis coordinates of a Hermitian matrix, or of each of a
    (..., d, d) stack along the last axis: the d diagonal entries, then
    sqrt2 Re rho_{i,i+k}, then sqrt2 Im rho_{i,i+k}, the coherences in
    coherence order (:func:`_coherence_pairs`)."""
    i, j = _coherence_pairs(mat.shape[-1])
    upper = math.sqrt(2.0) * mat[..., i, j]
    return np.concatenate([mat.diagonal(axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1)


@functools.lru_cache(maxsize=16)
def _entry_order(dim: int) -> np.ndarray:
    """For each entry (i, j) of a d x d matrix, its index in the value row
    [diagonal, coherences, conjugated coherences], the coherences in
    coherence order; built once, read-only."""
    i, j = _coherence_pairs(dim)
    order = np.empty((dim, dim), dtype=np.intp)
    order[np.diag_indices(dim)] = np.arange(dim)
    order[i, j] = dim + np.arange(i.size)
    order[j, i] = order[i, j] + i.size
    order.setflags(write=False)
    return order


def _from_coordinate_rows(rows: np.ndarray, dim: int) -> np.ndarray:
    """The (n, d, d) Hermitian matrices whose coordinates are the rows, each built
    from its coherences above the diagonal; one gather by ``_entry_order`` fills the whole
    stack, a new C-contiguous array that owns its memory (``values[:, order]``
    would not be C-contiguous)."""
    re, im = np.split(rows[:, dim:], 2, axis=1)
    upper = (re + 1j * im) / math.sqrt(2.0)
    values = np.concatenate([rows[:, :dim].astype(np.complex128), upper, upper.conj()], axis=1)
    return np.take(values, _entry_order(dim), axis=1)


# exp(A) = T_16(A / 2^s)^(2^s), T_16 the degree-16 Taylor polynomial, with s
# the least count that brings ||A / 2^s||_1 within theta_16: there T_16(X) =
# exp(X + dX) with ||dX|| <= 2^-53 ||X||.  The theta_m backward-error bound is
# Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009); its values for
# Taylor polynomials (theta_8 = 4.991e-2, theta_12 = 0.2996, theta_16 =
# 0.7803) are tabulated in Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
# (2011).  The polynomial is evaluated by Paterson & Stockmeyer, SIAM J.
# Comput. 2, 60 (1973), in blocks of four powers.
_TAYLOR_DEGREE = 16
_TAYLOR_THETA = 0.7803
_TAYLOR_COEFFICIENTS = tuple(1.0 / math.factorial(k) for k in range(_TAYLOR_DEGREE + 1))


def _pair_product(a: tuple, c: tuple) -> tuple:
    """The product of two maps, or of two (map, derivative) pairs in the block
    upper-triangular algebra: (A, dA)(C, dC) = (AC, A dC + dA C)."""
    if len(a) == 1:
        return (a[0] @ c[0],)
    derivative = a[0] @ c[1]
    derivative += a[1] @ c[0]
    return a[0] @ c[0], derivative


def _taylor(a: tuple) -> tuple:
    """T_16(A) = I + A + A^2/2! + ... + A^16/16! for ``a = (A,)``, and for
    ``a = (A, dA)`` the pair (T_16(A), its derivative along dA), by
    Paterson-Stockmeyer in the pair algebra, so both take the same products:
    A^2, A^3 and A^4, then Horner's rule in A^4 over the blocks
    B_j = sum_{i < 4} A^i / (4j + i)!, acc <- B_j + A^4 acc from
    acc = B_3 + A^16 / 16!.  Six products in all; each block is added into
    the accumulator in place."""
    diagonal = np.s_[:: a[0].shape[0] + 1]
    coeff = _TAYLOR_COEFFICIENTS
    square = _pair_product(a, a)
    powers = (a, square, _pair_product(square, a))  # A, A^2, A^3
    top = _pair_product(square, square)  # A^4
    acc = tuple(m * coeff[_TAYLOR_DEGREE] for m in top)
    for start in (12, 8, 4, 0):
        if start < 12:
            acc = _pair_product(top, acc)
        acc[0].flat[diagonal] += coeff[start]
        for i, power in enumerate(powers, start=start + 1):
            for m, p in zip(acc, power):
                m += coeff[i] * p
    return acc


def _sample_maps(params: SystemParams, grid: TimeGrid, trunc: Truncation, tangent: bool) -> tuple:
    """The sample map M = exp(spacing R), and with ``tangent`` its exact
    n_th-derivative dM, by scaling and squaring: T_16(A / 2^s) squared s
    times, A = spacing R, 6 + s pair products.  s is the least count with
    ||A / 2^s||_1 <= theta_16, raised
    so that the substep spacing / 2^s is at most ``grid.integrator_step``
    when one is set.  The pair takes the same products, so M is the same to
    the bit with or without dM.  Both are projected onto the trace-preserving
    maps: tr M = tr and tr dM = 0.
    """
    dim = trunc.n_cut
    rows, cols, values = _real_entries(_generator_along(_coefficients(params), dim), dim)
    spacing = grid.spacing
    norm = spacing * np.bincount(cols, np.abs(values), minlength=dim * dim).max()
    n_squarings = math.ceil(math.log2(max(norm / _TAYLOR_THETA, 1.0)))
    if grid.integrator_step is not None:
        n_squarings = max(n_squarings, math.ceil(math.log2(spacing / grid.integrator_step)))
    h = spacing / 2.0**n_squarings

    # h R, and h R1 for the tangent, scattered into dense (d^2, d^2) matrices
    x = tuple(np.zeros((dim * dim, dim * dim)) for _ in range(1 + tangent))
    x[0][rows, cols] = h * values
    if tangent:
        x[1][rows, cols] = h * _real_entries(_generator_along(_N_TH_SLOPE, dim), dim)[2]
    maps = _taylor(x)
    for _ in range(n_squarings):
        maps = _pair_product(maps, maps)
    # The exact generator annihilates the trace functional, so exp(spacing R)
    # preserves trace identically; the polynomial and its squarings lose that
    # to roundoff.  Two consumers read the trace: the tangent's dM must keep
    # Tr drho = 0, which the QFI gate in estimation._qfi_stack checks, and the
    # tests' five-point stencil oracle (tests/stencil.py) divides differences
    # of propagated states by 12 h, amplifying any trace error.  Project
    # the map back onto the trace-preserving affine subspace, and its
    # derivative onto the maps that annihilate the trace; only the d
    # diagonal-coordinate rows change.
    # This corrects the propagator, not the state: trace drift remains
    # monitored and never renormalized.
    tr_vec = np.zeros(dim * dim)
    tr_vec[:dim] = 1.0
    for m, image in zip(maps, (tr_vec, 0.0)):
        m[:dim] -= np.outer(tr_vec[:dim] / dim, tr_vec @ m - image)
    return maps


def _evolve(
    rho0: DensityMatrix,
    params: SystemParams,
    grid: TimeGrid,
    trunc: Truncation,
    tangent: bool,
) -> Trajectory | PerturbedTrajectories:
    """:func:`propagate`, and with ``tangent`` the trajectory paired with the
    (n_samples, d, d) stack of its exact n_th-derivative.

    The derivative steps with the coordinates as the pair (x, x') from x' = 0
    (rho0 does not depend on n_th).  It is exactly Hermitian; a non-finite
    sample raises NumericalFailureError naming its time, after the
    trajectory's own checks.
    """
    dim = trunc.n_cut
    if rho0.dim != dim:
        raise ValueError(f"initial state dimension {rho0.dim} does not match n_cut {dim}")

    times = grid.times
    maps = _sample_maps(params, grid, trunc, tangent)
    # rows[k] is the (coordinates, derivative) pair of sample k, or the
    # coordinates alone; each step is the pair product (M, dM)(x, x').
    rows = np.zeros((len(times), len(maps), dim * dim))
    rows[0, 0] = _coordinates(rho0.entries)
    state = tuple(rows[0])
    # Samples after a failing one are computed too, then discarded by the
    # validation; they may overflow, which must not warn.
    with np.errstate(all="ignore"):
        for k in range(1, len(times)):
            state = _pair_product(maps, state)
            rows[k] = state
        entries = _from_coordinate_rows(rows[:, 0], dim)
    entries[0] = rho0.entries
    leakage_max = _validate_samples(entries, times, trunc)
    entries.setflags(write=False)
    trajectory = Trajectory(times=times, entries=entries, leakage_max=leakage_max)
    if not tangent:
        return trajectory
    finite = np.isfinite(rows[:, 1]).all(axis=1)
    if not finite.all():
        raise NumericalFailureError(
            f"non-finite n_th-derivative at tau = {times[np.argmin(finite)]:g}"
        )
    derivative = _from_coordinate_rows(rows[:, 1], dim)
    derivative.setflags(write=False)
    return PerturbedTrajectories(trajectory, derivative)


def propagate(
    rho0: DensityMatrix,
    params: SystemParams,
    grid: TimeGrid,
    trunc: Truncation,
) -> Trajectory:
    """Evolve ``rho0`` over ``grid``, returning validated states at every sample.

    The sample map exp(spacing R), built once by scaling and squaring and
    applied to the Hermitian-basis coordinates, at every cutoff; each sample
    is rebuilt from its upper triangle, so it is exactly Hermitian.  Trace drift beyond 1e-6
    raises TraceDriftError (it is never silently renormalized), top-two-level
    population beyond ``trunc.leakage_tol`` raises TruncationError, and a
    non-finite state or an eigenvalue below -1e-6 raises
    NumericalFailureError, each naming the first offending time.  The dense
    map holds n_cut^4 doubles.
    """
    return _evolve(rho0, params, grid, trunc, tangent=False)


def _validate_samples(entries: np.ndarray, times: np.ndarray, trunc: Truncation) -> float:
    """Check a propagated stack in one pass and return its worst leakage.

    Sample 0 is the validated initial state, so only its leakage is checked.
    The first failing sample raises, its checks taken in the order trace drift
    (TraceDriftError), top-two-level leakage (TruncationError), then
    finiteness and positivity (NumericalFailureError).  Positivity covers
    the samples before the first failure of the others, by stacked Cholesky
    factorizations of rho + tol I (:func:`~kerr_thermo.fock._first_negative`);
    only a chunk that fails one pays for a stacked ``eigvalsh``.
    """
    with np.errstate(all="ignore"):
        leak = _leakage(entries)
        drift = np.abs(entries.trace(axis1=1, axis2=2) - 1.0)
    drift[0] = 0.0
    finite = np.isfinite(entries).all(axis=(1, 2))
    failed = np.nonzero((drift > _TRACE_DRIFT_LIMIT) | (leak > trunc.leakage_tol) | ~finite)[0]
    first = failed[0] if failed.size else len(entries)
    negative = _first_negative(entries[1:first], _STATE_TOL)
    if negative is not None:
        k, lam_min = negative
        raise NumericalFailureError(
            f"invalid state at tau = {times[k + 1]:g}: smallest eigenvalue "
            f"{lam_min:.3e} below -tol = {-_STATE_TOL:.1e}"
        )
    if failed.size:
        t = times[first]
        if drift[first] > _TRACE_DRIFT_LIMIT:
            raise TraceDriftError(
                f"trace drifted by {drift[first]:.3e} at tau = {t:g}; the sample map's "
                f"roundoff grows with ||spacing R||_1 and its squaring count, so shorten "
                f"the sample spacing (raise n_samples)"
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
def _coherence_blocks(dim: int):
    """Where R's coherence-order blocks sit, cached: R is block tridiagonal,
    D_k tridiagonal and U_k = R[k, k+1], L_k = R[k+1, k] bidiagonal.  Returns
    the shapes and starts of D_0..D_{d-1}, U_0..U_{d-2}, L_0..L_{d-2} in one
    complex buffer, each :func:`_stencil_entries` entry's position there, each
    order's slice of the coherences and their orders.
    """
    order, index, bounds = _coherence_coordinates(dim)
    out, inp = _stencil_entries(dim)[:2]
    sizes = np.diff(bounds)
    shapes = [(s, s) for s in sizes] + list(zip(sizes[:-1], sizes[1:])) + list(zip(sizes[1:], sizes[:-1]))
    start = np.cumsum([0] + [r * c for r, c in shapes])
    ko, ki = order[out], order[inp]
    block = np.where(ko == ki, ko, np.where(ki > ko, dim + ko, 2 * dim - 1 + ki))
    position = start[block] + index[out] * sizes[ki] + index[inp]
    slices = (slice(0, 0),) + tuple(slice(lo - dim, hi - dim) for lo, hi in zip(bounds[1:-1], bounds[2:]))
    return (tuple(shapes), *_frozen(start, position), slices, order[dim:])


class _CoherenceSolver:
    """R with its first row replaced by a trace constraint, factored by block
    Gaussian elimination over coherence order (Golub & Van Loan, *Matrix
    Computations*, sec. 4.5).

    The trace row touches only block 0, so the system keeps R's block
    tridiagonal form.  Eliminating from k = d - 1 down to 1 gives the complex
    Schur complements S_{d-1} = D_{d-1}, S_k = D_k - U_k S_{k+1}^{-1} L_k of
    size d - k, each inverted for half the flops of the real block of size
    2(d - k) it stands for; the last one is real, S_0 = D_0 - Re(U_0 S_1^{-1}
    L_0).  The inverses are kept, so every further right-hand side is one
    sweep of matrix-vector products with no new factorization.  A solve
    reads and writes coherence vectors, not Hermitian-basis coordinates.
    """

    def __init__(self, values: np.ndarray, dim: int, scale: float):
        """``values`` are R's complex entries in :func:`_stencil_entries` order."""
        shapes, start, position, self._slices, self._orders = _coherence_blocks(dim)
        buffer = np.zeros(start[-1], dtype=np.complex128)
        buffer[position] = values
        blocks = [buffer[lo:hi].reshape(shape) for lo, hi, shape in zip(start[:-1], start[1:], shapes)]
        diag, self._upper, self._lower = blocks[:dim], blocks[dim : 2 * dim - 1], blocks[2 * dim - 1 :]
        diag[0][0] = scale
        self._upper[0][0] = 0.0

        # Each inverse overwrites its diagonal block, which it no longer needs.
        # S_0 is real but kept complex, so one LAPACK routine serves every order.
        for k in range(dim - 1, -1, -1):
            schur = diag[k]
            if k < dim - 1:
                coupling = self._upper[k] @ (diag[k + 1] @ self._lower[k])
                schur = schur - (coupling if k else coupling.real)
            try:
                inverse = np.linalg.inv(schur)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(f"singular Schur complement at coherence order {k}") from exc
            if not np.isfinite(inverse).all():
                raise NumericalFailureError(f"non-finite Schur complement at coherence order {k}")
            diag[k][...] = inverse
        self._inverses = [diag[0].real.copy()] + diag[1:]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution for a right-hand side, both complex coherence vectors
        (x, y) in :func:`_coherence_coordinates` order; a population row reads
        the real part of its right-hand side, and the solution's populations
        are real."""
        inv, upper, lower, at = self._inverses, self._upper, self._lower, self._slices
        dim = len(inv)
        b = rhs[dim:]
        # Down, from the highest order with a nonzero right-hand side (above
        # it z is zero): z_k = S_k^{-1} (b_k - U_k z_{k+1}), z_0 real; up, in
        # place: x_0 = z_0, x_{k+1} = z_{k+1} - S_{k+1}^{-1} L_k x_k.
        nonzero = np.flatnonzero(b)
        top = self._orders[nonzero[-1]] if nonzero.size else 0
        z = np.zeros_like(b)
        if top:
            z[at[top]] = inv[top] @ b[at[top]]
        for k in range(top - 1, 0, -1):
            z[at[k]] = inv[k] @ (b[at[k]] - upper[k] @ z[at[k + 1]])
        x0 = inv[0] @ (rhs[:dim].real - (upper[0] @ z[at[1]]).real)
        z[at[1]] -= inv[1] @ (lower[0] @ x0)
        for k in range(1, dim - 1):
            z[at[k + 1]] -= inv[k + 1] @ (lower[k] @ z[at[k]])
        return np.concatenate([x0, z])


def _row_sums(values: np.ndarray, x: np.ndarray, dim: int) -> np.ndarray:
    """R x for a coherence vector x, R given by its complex entries: each row
    sums its entries times their inputs, and a population row keeps the real part."""
    out, inp = _stencil_entries(dim)[:2]
    flow = values * x[inp]
    sums = np.bincount(out, flow.real, x.size) + 1j * np.bincount(out, flow.imag, x.size)
    sums[:dim] = sums[:dim].real
    return sums


def _coherence_matrix(x: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian (d, d) matrix of a coherence vector: rho_ii = Re x_i,
    rho_{i,i+k} = y / sqrt2 and its mirror the conjugate."""
    i, j = _coherence_pairs(dim)
    out = np.diag(x[:dim].real).astype(np.complex128)
    out[i, j] = x[dim:] / math.sqrt(2.0)
    out[j, i] = out[i, j].conj()
    return out


def _steady_solve(params: SystemParams, trunc: Truncation):
    """Factor R with its first row replaced by the trace-one constraint (scaled
    to R's largest entry for conditioning) and solve for the steady state.
    Returns the state (exactly Hermitian, residual-checked, not yet
    validated), its coherence vector and the factored system, for reuse.
    """
    dim = trunc.n_cut
    values = _generator_along(_coefficients(params), dim)
    # R's entries are the real and imaginary parts of the complex ones, up to sign
    scale = float(np.abs(values.view(np.float64)).max())
    if not np.isfinite(scale) or scale == 0.0:
        raise NumericalFailureError("generator is identically zero or non-finite")

    solver = _CoherenceSolver(values, dim, scale)
    rhs = np.zeros(dim * (dim + 1) // 2, dtype=np.complex128)
    rhs[0] = scale
    x = solver.solve(rhs)
    mat = _coherence_matrix(x, dim)
    residual = float(np.abs(lindblad_rhs(mat, params, hamiltonian(params, trunc))).max())
    if not np.isfinite(residual) or residual > 1e-6 * max(1.0, scale):
        raise NumericalFailureError(
            f"steady-state residual {residual:.3e} too large; system may be singular"
        )
    return mat, x, solver


def steady_state(params: SystemParams, trunc: Truncation) -> DensityMatrix:
    """Unique fixed point of the generator, via a trace-constrained linear solve.

    One block-tridiagonal solve of R x = 0 in complex coherence blocks, with
    R's first row replaced by the trace-one constraint.  The state is written
    exactly Hermitian, residual-checked against :func:`lindblad_rhs` and
    validated.  A singular or non-finite Schur complement, or a residual too
    large, raises NumericalFailureError.  A top-two-level population beyond
    ``trunc.leakage_tol`` raises TruncationError, as in :func:`propagate`, and
    so does a state that fails :class:`~kerr_thermo.fock.DensityMatrix`'s
    checks at its default tolerance 1e-9.
    """
    mat = _steady_solve(params, trunc)[0]
    _check_leakage(_leakage(mat), trunc, "in the steady state")
    try:
        return DensityMatrix(mat)
    except ValueError as exc:
        raise TruncationError(
            f"steady state violates density-matrix invariants ({exc}); "
            f"n_cut = {trunc.n_cut} is likely too small"
        ) from exc


def steady_state_tangent(params: SystemParams, trunc: Truncation) -> PerturbedTrajectories:
    """The steady state and its exact n_th-derivative: a pair with one sample, at tau = inf.

    Differentiating R x = 0 in n_th gives R_c x' = -R1 x, R1 the slope the
    module docstring defines, with the trace row of R_c set to 0 (x' is
    traceless): one more sweep through the kept Schur-complement inverses.
    R1 x is :func:`_row_sums` of R's entries along ``_N_TH_SLOPE`` on the
    state's coherence vector.  The state is residual-checked but not
    validated as a density matrix.
    """
    dim = trunc.n_cut
    mat, x, solver = _steady_solve(params, trunc)
    drift = -_row_sums(_generator_along(_N_TH_SLOPE, dim), x, dim)
    drift[0] = 0.0
    central = Trajectory(times=(math.inf,), entries=mat[None], leakage_max=_leakage(mat))
    return PerturbedTrajectories(central, _coherence_matrix(solver.solve(drift), dim)[None])


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/(2 n + 1) for thermal occupation n."""
    entries = as_matrix(rho)
    return float(np.einsum("ij,ji->", entries, entries).real)
