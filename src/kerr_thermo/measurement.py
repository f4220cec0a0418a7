"""Gaussian measurements in the truncated Fock basis and their Fisher information.

Homodyne detection measures the quadrature Q_phi = (a e^{-i phi} + a^dag e^{i phi})/2;
its POVM is one 60-level quadrature eigenbasis restricted to the state's
levels, so completeness is exact by the spectral theorem, no bin width enters,
and the outcomes do not depend on the cutoff.  Each angle's basis is the
phi = 0 basis times the phase e^{i phi n} on Fock component n.
Heterodyne detection is the coherent-state POVM |alpha><alpha| / pi,
discretized on a square grid over a disc with the grid cell area as the
integration weight; its outcome distribution is the Husimi Q function.

Both POVMs are rank one, so elements are stored as their factor vectors.
Outcome probabilities are linear in the state: one real (n_outcomes, d^2) map
on the Hermitian-basis coordinates gives a whole trajectory's distributions in
one matmul, and :func:`outcome_distribution` is its one-state case.  By the
same linearity, the same map applied to the coordinates of d rho / d n_th
gives the derivatives of the distributions, so ``cfi_series(pair, povm)``
reads a (central trajectory, derivative stack) pair, transient or at
tau = inf, with two matmuls and takes the CFI sum over every sample at once;
:func:`cfi` is the sum's one-state case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridInsufficientError
from .fock import Truncation, _read_only, annihilation, as_matrix
from .dynamics import PerturbedTrajectories, _coordinates
from .estimation import FisherSeries

__all__ = [
    "Povm",
    "quadrature_op",
    "homodyne_povm",
    "heterodyne_povm",
    "outcome_distribution",
    "cfi",
    "cfi_series",
]

# Floor at or below which an outcome probability is excluded from the CFI sum.
_P_FLOOR = 1e-14

# Roundoff allowance of an outcome probability: a value below -_P_CLIP
# raises, and a negative one above it is clipped to zero.
_P_CLIP = 1e-12

# Outcomes per chunk while the outcome map is built: at n_cut 30 a chunk's
# rank-one elements and their coordinate temporaries take about 1.8 MB,
# beside 11.6 MB for the 1617-outcome heterodyne map itself.
_MAP_CHUNK = 64

# The heterodyne grid is a Riemann sum, so its identity resolution holds only
# to this defect; the homodyne eigenbasis is held to Povm's default 1e-6.
_HETERODYNE_COMPLETENESS_TOL = 1e-4

# The most points a heterodyne grid's bounding square may hold, checked before
# anything is allocated.  The largest default grid over n_cut 2-120 is 161^2 =
# 25,921 points (n_cut 72 with mean_photon = n_cut); ten times that lets an
# explicit grid refine the default step about threefold, while an array of
# one complex value per point stays at 4 MB.
_HETERODYNE_MAX_POINTS = 2**18

# Homodyne outcomes: the quadrature eigenbasis on this many levels (or n_cut,
# if larger), so the cfi_hom columns do not depend on the state's cutoff.
_HOMODYNE_LEVELS = 60


@dataclass(frozen=True)
class Povm:
    """A rank-one POVM: element_i = |v_i><v_i| with integration weight w_i.

    Args stored:
        vectors: (n_outcomes, dim) factor kets, one per row.
        weights: positive measure weight per outcome (1 for projective
            measurements, grid cell area / pi for the heterodyne grid).
        labels: outcome coordinates, real (quadrature value) or complex
            (phase-space point).
        completeness_tol: admissible max-entry deviation of
            sum_i w_i |v_i><v_i| from the identity.

    Construction verifies completeness at ``completeness_tol`` and records the
    achieved ``completeness_defect``.  Elements are positive semidefinite by
    construction (rank one).
    """

    vectors: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    completeness_tol: float = 1e-6
    completeness_defect: float = field(init=False, default=0.0)

    def __post_init__(self):
        vectors = _read_only(self.vectors, np.complex128)
        weights = _read_only(self.weights, float)
        labels = _read_only(self.labels)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2d (n_outcomes, dim), got {vectors.shape}")
        if len(weights) != vectors.shape[0] or len(labels) != vectors.shape[0]:
            raise ValueError("vectors, weights and labels must agree in outcome count")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        for name, arr in (("vectors", vectors), ("weights", weights), ("labels", labels)):
            object.__setattr__(self, name, arr)
        defect = float(np.abs(self.completeness_operator() - np.eye(self.dim)).max())
        if not defect <= self.completeness_tol:
            raise ValueError(
                f"POVM completeness defect {defect:.3e} exceeds tolerance "
                f"{self.completeness_tol:.1e}"
            )
        object.__setattr__(self, "completeness_defect", defect)

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def completeness_operator(self) -> np.ndarray:
        """sum_i w_i |v_i><v_i|; equals the identity up to ``completeness_defect``."""
        return (self.vectors.T * self.weights) @ self.vectors.conj()


def quadrature_op(phi: float, trunc: Truncation) -> np.ndarray:
    """Quadrature operator (a e^{-i phi} + a^dag e^{i phi}) / 2.

    The vacuum variance under this normalization is 1/4.
    """
    a = annihilation(trunc.n_cut)
    rotated = 0.5 * np.exp(-1j * phi) * a
    return rotated + rotated.conj().T


def homodyne_povm(phi: float, trunc: Truncation) -> Povm:
    """POVM of the quadrature at angle ``phi`` on the state's n_cut levels.

    The eigenbasis of the phi = 0 quadrature on ``max(60, n_cut)`` levels,
    restricted to the first n_cut Fock components: that many outcomes and an
    exact identity resolution on the n_cut levels, whatever n_cut is.  Angle
    phi multiplies component n by e^{i phi n}, exact since Q_phi = U Q_0 U^dag
    with U = e^{i phi a^dag a}.  Labels are the ascending eigenvalues, the
    same at every angle, and each outcome carries weight one.
    """
    size = max(_HOMODYNE_LEVELS, trunc.n_cut)
    values, basis = np.linalg.eigh(quadrature_op(0.0, Truncation(size)))
    phases = np.exp(1j * phi * np.arange(trunc.n_cut))
    return Povm(vectors=basis[: trunc.n_cut].T * phases, weights=np.ones(size), labels=values)


def _raw_coherent_amplitudes(alphas: np.ndarray, dim: int) -> np.ndarray:
    """Truncated coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!), not renormalized.

    Computed by cumulative products with the Gaussian prefactor folded in, so
    no intermediate overflows even far outside the cutoff's comfort zone.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.complex128))
    out = np.empty((len(alphas), dim), dtype=np.complex128)
    out[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for n in range(1, dim):
        out[:, n] = out[:, n - 1] * alphas / math.sqrt(n)
    return out


def _gamma_tail(n: int, x: float) -> float:
    """Regularized upper incomplete gamma Q(n, x) = e^{-x} sum_{k<n} x^k / k! at
    integer n >= 1 and x > 0, each term taken in log space so none overflows."""
    log_x = math.log(x)
    return math.fsum(math.exp(k * log_x - x - math.lgamma(k + 1)) for k in range(n))


def _completeness_radius(n_cut: int, tail_tol: float = 1e-6) -> float:
    # Smallest R with Gamma-tail(n_cut, R^2) <= tail_tol: beyond R the radial
    # integral for the top retained Fock level loses less than tail_tol.
    lo, hi = math.sqrt(n_cut), math.sqrt(n_cut) + 12.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _gamma_tail(n_cut, mid * mid) > tail_tol:
            lo = mid
        else:
            hi = mid
    return hi


def _default_grid_step(n_cut: int) -> float:
    # Largest step whose aliasing bound exp(-(pi/h)^2) (pi/h)^{2n} / n! for the
    # top level n = n_cut - 1 stays below 1e-6 (trapezoid sums of Gaussians
    # converge spectrally in the step).
    n = n_cut - 1
    for h in (0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15):
        x = math.pi / h
        log_bound = -x * x + 2 * n * math.log(x) - math.lgamma(n + 1)
        if log_bound < math.log(1e-6):
            return h
    return 0.1


def heterodyne_povm(
    trunc: Truncation,
    grid_radius: float | None = None,
    grid_step: float | None = None,
    mean_photon: float = 0.0,
) -> Povm:
    """Coherent-state POVM |alpha><alpha| / pi on a square grid over a disc.

    Grid points are integer multiples of ``grid_step`` with |alpha| <=
    ``grid_radius``; each element carries Riemann weight step^2 / pi.  Defaults
    cover both the Husimi support of a state with the given ``mean_photon``
    (finite and nonnegative) and the identity resolution on the full truncated
    space.  A radius or step that is not finite and positive, or a grid whose
    bounding square holds more than 2^18 points, raises ValueError; a
    completeness defect above 1e-4 raises GridInsufficientError.
    """
    if not (mean_photon >= 0 and math.isfinite(mean_photon)):
        raise ValueError(f"mean_photon must be finite and nonnegative, got {mean_photon}")
    dim = trunc.n_cut
    if grid_radius is None:
        grid_radius = max(3.0 + 2.0 * math.sqrt(mean_photon + 1.0), _completeness_radius(dim))
    if grid_step is None:
        grid_step = _default_grid_step(dim)
    for name, value in (("grid_radius", grid_radius), ("grid_step", grid_step)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    half = math.floor(min(grid_radius / grid_step, _HETERODYNE_MAX_POINTS))
    if (2 * half + 1) ** 2 > _HETERODYNE_MAX_POINTS:
        raise ValueError(
            f"heterodyne grid (radius {grid_radius:g}, step {grid_step:g}) has a bounding "
            f"square of more than {_HETERODYNE_MAX_POINTS} points; coarsen the step or "
            f"shrink the radius"
        )

    axis = grid_step * np.arange(-half, half + 1)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    alphas = (re + 1j * im).ravel()
    alphas = alphas[np.abs(alphas) <= grid_radius]
    vectors = _raw_coherent_amplitudes(alphas, dim)
    weights = np.full(len(alphas), grid_step**2 / math.pi)
    try:
        return Povm(
            vectors=vectors,
            weights=weights,
            labels=alphas,
            completeness_tol=_HETERODYNE_COMPLETENESS_TOL,
        )
    except ValueError as exc:
        raise GridInsufficientError(
            f"heterodyne grid (radius {grid_radius:g}, step {grid_step:g}) does not "
            f"resolve the identity on {dim} levels: {exc}; enlarge the radius or "
            f"refine the step"
        ) from exc


def outcome_distribution(rho, povm: Povm) -> np.ndarray:
    """Outcome probabilities p_i = w_i <v_i| rho |v_i> of a Hermitian ``rho``.

    Small negative roundoff, down to the module's clip, is clipped to zero;
    anything more negative raises, naming the clip.  The probabilities sum to one up to the completeness
    defect of the POVM.  This is the one-state case of the batched kernel
    :func:`cfi_series` uses.
    """
    entries = as_matrix(rho)
    if entries.shape != (povm.dim, povm.dim):
        raise ValueError(f"dimension mismatch: rho {entries.shape} vs POVM dim {povm.dim}")
    return _probabilities(entries[None], _outcome_map(povm))[0]


def _outcome_map(povm: Povm) -> np.ndarray:
    """Real (n_outcomes, d^2) map whose row i holds w_i times the Hermitian-basis
    coordinates of |v_i><v_i|, so p = coordinates(rho) @ map.T (the basis is
    orthonormal, so Tr(rho E) is the dot product of coordinates).

    The rank-one elements are built a chunk of outcomes at a time and laid
    out by :func:`~kerr_thermo.dynamics._coordinates`, the one owner of the
    coordinate order, into the preallocated map, so the complex temporaries
    stay small beside the map itself."""
    v = povm.vectors
    out = np.empty((len(v), povm.dim**2))
    for lo in range(0, len(v), _MAP_CHUNK):
        chunk = v[lo : lo + _MAP_CHUNK]
        out[lo : lo + _MAP_CHUNK] = _coordinates(chunk[:, :, None] * chunk[:, None, :].conj())
    out *= povm.weights[:, None]
    return out


def _probabilities(entries: np.ndarray, outcome_map: np.ndarray) -> np.ndarray:
    """Outcome probabilities of each state of a Hermitian (n, d, d) stack, one row per state."""
    return _clip(_coordinates(entries) @ outcome_map.T)


def _clip(p: np.ndarray) -> np.ndarray:
    """``p`` clipped to zero in place; a value below -_P_CLIP raises, naming the clip."""
    if p.size and float(p.min()) < -_P_CLIP:
        raise ValueError(f"negative outcome probability {p.min():.3e} below the {-_P_CLIP:g} clip")
    return np.clip(p, 0.0, None, out=p)


def cfi(probabilities, dprobabilities) -> float:
    """Classical Fisher information sum_x (dp_x)^2 / p_x with an outcome floor.

    Negative roundoff down to -1e-12 is clipped to zero on a copy, and
    outcomes with p_x <= 1e-14 are skipped (continuum discretizations
    produce numerically empty bins).  This is the one-state case of the CFI
    sum :func:`cfi_series` takes.
    """
    p = np.array(probabilities, dtype=float)  # a copy, which the clip writes to
    dp = np.asarray(dprobabilities, dtype=float)
    if p.shape != dp.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {dp.shape}")
    return float(_cfi_rows(_clip(p).reshape(1, -1), dp.reshape(1, -1))[0][0])


def _cfi_rows(p: np.ndarray, dp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cfi` for each row of (n, n_outcomes) arrays of clipped
    probabilities: the CFI values and the mass of the skipped outcomes.  A
    sum that fails its gate raises for the first failing row."""
    total = p.sum(axis=1)
    bad = ~(np.abs(total - 1.0) <= 1e-6)
    if bad.any():
        raise ValueError(f"probabilities sum to {float(total[np.argmax(bad)])!r}, not 1 within 1e-6")
    keep = p > _P_FLOOR
    skipped = np.where(keep, 0.0, p).sum(axis=1)
    terms = np.square(dp, out=np.zeros_like(p), where=keep)
    np.divide(terms, p, out=terms, where=keep)
    return terms.sum(axis=1), skipped


def cfi_series(trajectories: PerturbedTrajectories, povm: Povm) -> FisherSeries:
    """CFI of the POVM outcome distribution along the evolved probe state.

    Reads the same (central, derivative) pair as
    :func:`~kerr_thermo.estimation.qfi_series`; a POVM on another dimension
    than the pair's raises ValueError.  The outcome map gives the
    distributions of the central stack in one matmul and, by linearity, their
    n_th-derivatives from the derivative stack in one more; the classical
    Fisher sum runs over every sample at once.  ``max_skipped_mass`` is the
    largest total probability, over the samples, of the outcomes the sum
    skips.
    """
    central = trajectories.central.entries
    if povm.dim != central.shape[-1]:
        raise ValueError(f"povm.dim {povm.dim} differs from the trajectories' dimension {central.shape[-1]}")
    outcome_map = _outcome_map(povm)
    p = _probabilities(central, outcome_map)
    dp = _coordinates(trajectories.derivative) @ outcome_map.T
    values, skipped = _cfi_rows(p, dp)
    return FisherSeries(times=trajectories.times, values=values, max_skipped_mass=float(skipped.max()))
