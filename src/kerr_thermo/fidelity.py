"""Uhlmann-Jozsa fidelity and effective-temperature extraction.

The effective temperature of a (generally non-thermal) state is defined as
the occupation n_eff whose Gibbs state maximizes the fidelity to that state;
the achieved fidelity quantifies how thermal the state actually is.  No claim
is made that the state is Gibbs when it is not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BracketBoundaryWarning
from .fock import DensityMatrix, as_matrix, gibbs_populations, mean_photon_number
from .dynamics import Trajectory

__all__ = [
    "EffTempTrace",
    "uhlmann_fidelity",
    "effective_temperature",
    "default_search_max",
    "thermalization_trace",
]

# Eigenvalues of sigma below this are treated as exact zeros when taking the
# matrix square root; propagated states carry O(1e-10) negative roundoff.
_EIG_CLIP = 1e-12

# Golden-section fraction (3 - sqrt5) / 2 and the square root of machine
# epsilon, the relative resolution of a smooth maximum's position.
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

# Coarse scan size and Brent tolerance of the effective-temperature search.
_SCAN_POINTS = 16
_XTOL = 1e-7


@dataclass(frozen=True)
class EffTempTrace:
    """Effective temperature and best-match fidelity along a trajectory."""

    times: np.ndarray
    n_eff: np.ndarray
    fidelity_at_opt: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        n_eff = np.asarray(self.n_eff, dtype=float)
        fid = np.asarray(self.fidelity_at_opt, dtype=float)
        if not (len(times) == len(n_eff) == len(fid)):
            raise ValueError("times, n_eff and fidelity_at_opt must have equal length")
        if np.any(n_eff < 0):
            raise ValueError("n_eff values must be nonnegative")
        if np.any(fid < 0) or np.any(fid > 1.0 + 1e-9):
            raise ValueError("fidelity_at_opt values must lie in [0, 1]")
        for name, arr in (("times", times), ("n_eff", n_eff), ("fidelity_at_opt", fid)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def final_window_change(self, window_frac: float = 0.1) -> float:
        """Max relative deviation of n_eff from its final value over the last window."""
        k = max(2, int(round(window_frac * len(self.n_eff))))
        tail = self.n_eff[-k:]
        ref = max(abs(self.n_eff[-1]), 1e-12)
        return float(np.max(np.abs(tail - self.n_eff[-1])) / ref)


def uhlmann_fidelity(rho, sigma) -> float:
    """Uhlmann-Jozsa fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2.

    Symmetric in its arguments, 1 iff the states coincide, 0 for orthogonal
    supports, and invariant under joint unitaries.  Inputs may be
    DensityMatrix instances (already validated) or raw Hermitian PSD arrays.
    """
    r = _checked(rho)
    s = _checked(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    lam, vec = np.linalg.eigh(s)
    keep = lam >= _EIG_CLIP
    # Restrict sqrt(sigma) rho sqrt(sigma) to the support of sigma: the null
    # space contributes exactly zero to the trace, and excluding it keeps
    # eigensolver noise there from leaking in through the square root.
    root = vec[:, keep] * np.sqrt(lam[keep])
    inner = root.conj().T @ r @ root
    ev = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    value = float(np.sqrt(np.clip(ev, 0.0, None)).sum() ** 2)
    return min(max(value, 0.0), 1.0)


def _checked(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.entries
    mat = as_matrix(state)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if np.abs(mat - mat.conj().T).max() > 1e-7:
        raise ValueError("input matrix is not Hermitian within tolerance")
    if np.linalg.eigvalsh(mat)[0] < -1e-7:
        raise ValueError("input matrix is not positive semidefinite within tolerance")
    return mat


def _gibbs_fidelity(rho_entries: np.ndarray, n_eff: float) -> float:
    # sqrt(sigma) is diagonal for a Gibbs state, so the inner matrix is a
    # cheap two-sided scaling of rho.
    p, _ = gibbs_populations(n_eff, rho_entries.shape[0])
    sq = np.sqrt(p)
    inner = sq[:, None] * rho_entries * sq[None, :]
    ev = np.linalg.eigvalsh(inner)
    value = float(np.sqrt(np.clip(ev, 0.0, None)).sum() ** 2)
    return min(max(value, 0.0), 1.0)


def _brent_max(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Maximize ``f`` on [lo, hi] by Brent's bounded minimizer applied to -f.

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 5:
    parabolic interpolation through the three best points, falling back to a
    golden-section step whenever the parabola is not trusted.  Stops when the
    best point lies within 2 tol of the bracket midpoint, where
    tol = sqrt(eps) |x| + xtol / 3.  Returns ``(x, f(x))`` for the best point
    evaluated.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = -f(x)
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + xtol / 3.0
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x, -fx
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # accept the parabola's vertex only inside the bracket and only
            # when its step is less than half the step before last
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if (x + d) - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = tol if x < mid else -tol
        if not parabolic:
            e = (b - x) if x < mid else (a - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = -f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def effective_temperature(rho, search_max: float) -> tuple[float, float]:
    """Occupation n_eff in [0, search_max] whose Gibbs state best matches ``rho``.

    A coarse scan (the point 0 plus 15 log-spaced points from 1e-4 to
    search_max, or 16 linear points when search_max <= 1e-4) brackets the
    maximum between the best scan point's neighbours, then Brent's bounded
    method refines it to about 1e-7 absolute; the best scan point is returned
    instead if it scores higher.  About 26 fidelity evaluations per state.
    Returns ``(n_eff, fidelity)``.  A maximizer pinned at search_max raises
    BracketBoundaryWarning: the bracket was too small.
    """
    if not search_max > 0:
        raise ValueError(f"search_max must be positive, got {search_max}")
    r = _checked(rho)

    def score(n: float) -> float:
        return _gibbs_fidelity(r, n)

    if search_max > 1e-4:
        grid = np.concatenate(([0.0], np.geomspace(1e-4, search_max, _SCAN_POINTS - 1)))
    else:
        grid = np.linspace(0.0, search_max, _SCAN_POINTS)
    values = np.array([score(n) for n in grid])
    best = int(np.argmax(values))
    if best == len(grid) - 1:
        warnings.warn(
            f"effective-temperature maximizer hit search_max = {search_max:g}; "
            f"enlarge the bracket",
            BracketBoundaryWarning,
            stacklevel=2,
        )
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    n_opt, f_opt = _brent_max(score, float(lo), float(hi), xtol=_XTOL)
    if values[best] > f_opt:
        n_opt, f_opt = float(grid[best]), float(values[best])
    return float(n_opt), float(f_opt)


def default_search_max(rho, n_th: float = 0.0) -> float:
    """Generous search bracket scaling with the state's occupation: 5 (n_th + <n> + 0.1)."""
    return 5.0 * (n_th + mean_photon_number(rho) + 0.1)


def thermalization_trace(traj: Trajectory, search_max: float | None = None) -> EffTempTrace:
    """Effective temperature at every sampled state of a trajectory.

    With ``search_max=None`` a single bracket is used for the whole trace,
    5 * (max <n> over the trajectory + 0.1); pass an explicit value when the
    reservoir occupation is known.
    """
    if search_max is None:
        search_max = 5.0 * (float(np.max(traj.photon_numbers())) + 0.1)
    n_eff = np.empty(len(traj.states))
    fid = np.empty(len(traj.states))
    for k, state in enumerate(traj.states):
        n_eff[k], fid[k] = effective_temperature(state, search_max)
    return EffTempTrace(times=traj.times, n_eff=n_eff, fidelity_at_opt=fid)
