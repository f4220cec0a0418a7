"""Truncated Fock-space operators, Hamiltonians, and reference states.

Everything downstream works in a photon-number basis |0>, |1>, ..., |n_cut-1>.
Rates and frequencies are expressed in units of the cavity decay rate gamma
(gamma = 1 by convention) and all times are the dimensionless tau = gamma * t.
Operators are plain complex numpy arrays; density matrices are wrapped in
:class:`DensityMatrix`, which enforces Hermiticity, unit trace and positivity
at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

__all__ = [
    "SystemParams",
    "Truncation",
    "DensityMatrix",
    "annihilation",
    "creation",
    "number_operator",
    "hamiltonian",
    "gibbs_populations",
    "gibbs_state",
    "thermal_occupation",
    "vacuum_state",
    "mean_photon_number",
    "as_matrix",
]


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the driven Kerr resonator, in units of gamma.

    delta: cavity-pump detuning (signed)
    chi:   Kerr-nonlinearity coefficient, >= 0
    drive: single-photon drive amplitude, >= 0; enters H as
           i drive (a^dag - a), so the driven mean field is real for delta = 0
    n_th:  mean thermal photon number of the reservoir, >= 0

    ``gamma``, the cavity decay rate, is the unit of every rate and time: a
    class constant 1.0, not a parameter.
    """

    delta: float
    chi: float
    drive: float
    n_th: float
    gamma: ClassVar[float] = 1.0

    def __post_init__(self):
        for name in ("delta", "chi", "drive", "n_th"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("chi", "drive", "n_th"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    def with_n_th(self, n_th: float) -> "SystemParams":
        """Copy with the reservoir occupation replaced (finite-difference probes)."""
        return replace(self, n_th=float(n_th))


@dataclass(frozen=True)
class Truncation:
    """Fock-space cutoff: levels |0> .. |n_cut - 2>, |n_cut - 1> are retained.

    ``leakage_tol`` bounds the admissible total population of the top two
    levels during propagation; exceeding it means the cutoff was too small.
    """

    n_cut: int
    leakage_tol: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.n_cut, (int, np.integer)) or self.n_cut < 2:
            raise ValueError(f"n_cut must be an integer >= 2, got {self.n_cut!r}")
        object.__setattr__(self, "n_cut", int(self.n_cut))
        if not 0.0 < self.leakage_tol < 1.0:
            raise ValueError(f"leakage_tol must lie in (0, 1), got {self.leakage_tol!r}")


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix on the truncated Fock space.

    Construction checks Hermiticity (max entrywise deviation), unit trace and
    positivity (smallest eigenvalue >= -tol, by a Cholesky factorization of
    rho + tol I; see :func:`_first_negative`).  The stored array is
    read-only; treat instances as immutable values.
    """

    entries: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        entries = _read_only(self.entries, np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("density matrix contains non-finite entries")
        herm_defect = float(np.abs(entries - entries.conj().T).max())
        if herm_defect > self.tol:
            raise ValueError(
                f"not Hermitian: max |rho - rho^dag| = {herm_defect:.3e} exceeds tol {self.tol:.1e}"
            )
        trace_defect = abs(complex(entries.trace()) - 1.0)
        if trace_defect > self.tol:
            raise ValueError(
                f"not unit trace: trace deviates from 1 by {trace_defect:.3e}, exceeds tol {self.tol:.1e}"
            )
        negative = _first_negative(entries[None], self.tol)
        if negative is not None:
            raise ValueError(
                f"not positive semidefinite: smallest eigenvalue {negative[1]:.3e} below -tol = {-self.tol:.1e}"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def expectation(self, op: np.ndarray) -> complex:
        """Tr(rho O)."""
        return complex(np.einsum("ij,ji->", self.entries, op))

    def populations(self) -> np.ndarray:
        """Diagonal of rho in the Fock basis (real)."""
        return self.entries.diagonal().real.copy()


# Matrices per stacked Cholesky factorization in _first_negative: bounds the
# shifted copy and the factor it allocates.
_CHOLESKY_CHUNK = 64


def _first_negative(stack: np.ndarray, tol: float) -> tuple[int, float] | None:
    """The index and smallest eigenvalue of the first matrix of a Hermitian
    (n, d, d) stack with an eigenvalue below -tol, or None when there is none.

    Each chunk of the stack takes one stacked Cholesky factorization of
    rho + tol I, which succeeds when every eigenvalue of rho is above -tol (to
    roundoff, d eps ||rho||) and costs about a fifth of ``eigvalsh``.  Only a
    chunk that fails it takes a stacked ``eigvalsh``, which names the matrix
    and its eigenvalue, and decides a case within roundoff of the boundary.
    Both read the lower triangle alone.
    """
    shift = tol * np.eye(stack.shape[-1])
    for lo in range(0, len(stack), _CHOLESKY_CHUNK):
        chunk = stack[lo : lo + _CHOLESKY_CHUNK]
        try:
            np.linalg.cholesky(chunk + shift)
        except np.linalg.LinAlgError:
            lam_min = np.linalg.eigvalsh(chunk)[:, 0]
            negative = np.nonzero(lam_min < -tol)[0]
            if negative.size:
                return lo + int(negative[0]), float(lam_min[negative[0]])
    return None


def _read_only(value, dtype=None) -> np.ndarray:
    """A read-only copy of ``value``: a record stores it and leaves the caller's array alone.

    An array that is already read-only, owns its memory and has the dtype is
    stored as it is: no view of it can write, so a copy would only double the
    memory.
    """
    if (
        isinstance(value, np.ndarray)
        and value.base is None
        and not value.flags.writeable
        and (dtype is None or value.dtype == dtype)
    ):
        return value
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


def as_matrix(state) -> np.ndarray:
    """Unwrap a DensityMatrix, or coerce anything array-like to complex128."""
    if isinstance(state, DensityMatrix):
        return state.entries
    return np.asarray(state, dtype=np.complex128)


def annihilation(dim: int) -> np.ndarray:
    """Annihilation operator: <j|a|j+1> = sqrt(j+1), all other entries zero."""
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    a = np.zeros((dim, dim), dtype=np.complex128)
    js = np.arange(dim - 1)
    a[js, js + 1] = np.sqrt(js + 1.0)
    return a


def creation(dim: int) -> np.ndarray:
    """Creation operator, the conjugate transpose of :func:`annihilation`."""
    return annihilation(dim).conj().T


def number_operator(dim: int) -> np.ndarray:
    """Photon-number operator diag(0, 1, ..., dim-1)."""
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    return np.diag(np.arange(dim, dtype=np.complex128))


def hamiltonian(params: SystemParams, trunc: Truncation) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven Kerr resonator.

    H = delta a^dag a + chi a^dag a^dag a a + i drive (a^dag - a),
    in units of gamma.  The Kerr term is diagonal with eigenvalue n(n-1)
    on |n>, so the matrix is tridiagonal and Hermitian by construction.

    The drive phase is the paper's frame: it sets which quadrature the
    homodyne angle phi = 0 names.  Here d<a>/dtau = -(i delta + gamma)<a>
    + drive, so the linear-cavity mean field is drive / (gamma + i delta).
    The quarter turn U = exp(i pi a^dag a / 2) takes drive (a + a^dag) to
    this term and commutes with everything else, so every phase-insensitive
    quantity is the same in both frames; only homodyne angle labels move by
    pi/2.
    """
    n = np.arange(trunc.n_cut, dtype=float)
    ham = np.diag(params.delta * n + params.chi * n * (n - 1.0)).astype(np.complex128)
    if params.drive != 0.0:
        a = annihilation(trunc.n_cut)
        ham += 1j * params.drive * (a.conj().T - a)
    return ham


def gibbs_populations(n_eff: float, dim: int) -> tuple[np.ndarray, float]:
    """Geometric thermal populations on ``dim`` levels, renormalized to sum 1.

    Returns ``(populations, tail_mass)`` where ``tail_mass`` is the weight the
    untruncated distribution would carry above the cutoff.  A large tail means
    the truncation misrepresents this temperature; callers should check it.
    """
    if n_eff < 0:
        raise ValueError(f"n_eff must be nonnegative, got {n_eff}")
    p, tail = _gibbs_population_rows(np.array([n_eff], dtype=float), dim)
    return p[0], float(tail[0])


def _gibbs_population_rows(n_eff: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gibbs_populations` for an array of nonnegative occupations.

    Returns populations of shape ``n_eff.shape + (dim,)`` and the tail masses.
    n_eff = 0 needs no special case: the ratio is 0 and 0**0 = 1.
    """
    ratio = n_eff / (n_eff + 1.0)
    p = (1.0 - ratio)[..., None] * ratio[..., None] ** np.arange(dim, dtype=float)
    p /= p.sum(axis=-1, keepdims=True)
    return p, ratio**dim


def gibbs_state(n_eff: float, trunc: Truncation) -> DensityMatrix:
    """Thermal (Gibbs) state with mean occupation ``n_eff``, truncated and renormalized.

    Use :func:`gibbs_populations` directly when the dropped tail mass is needed.
    """
    p, _ = gibbs_populations(n_eff, trunc.n_cut)
    return DensityMatrix(np.diag(p.astype(np.complex128)))


def thermal_occupation(beta_omega: float) -> float:
    """Bose-Einstein occupation 1 / (exp(beta_omega) - 1).

    ``beta_omega`` is the single ratio (mode frequency) / (k_B T); it must be
    strictly positive, since zero or negative temperature is not modeled.
    """
    if not beta_omega > 0:
        raise ValueError(f"beta_omega must be positive, got {beta_omega!r}")
    return 1.0 / math.expm1(beta_omega)


def vacuum_state(trunc: Truncation) -> DensityMatrix:
    """|0><0| on the truncated space."""
    entries = np.zeros((trunc.n_cut, trunc.n_cut), dtype=np.complex128)
    entries[0, 0] = 1.0
    return DensityMatrix(entries)


def mean_photon_number(state) -> float | np.ndarray:
    """<a^dag a> of a (d, d) state as a float, or of each state of a (..., d, d)
    stack as an array (DensityMatrix or raw matrices)."""
    entries = as_matrix(state)
    populations = entries.diagonal(axis1=-2, axis2=-1).real
    occupation = (np.arange(entries.shape[-1]) * populations).sum(axis=-1)
    return occupation if occupation.ndim else float(occupation)
