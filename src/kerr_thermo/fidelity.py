"""Uhlmann-Jozsa fidelity and effective-temperature extraction.

The effective temperature of a (generally non-thermal) state is defined as
the occupation n_eff whose Gibbs state maximizes the fidelity to that state;
the achieved fidelity quantifies how thermal the state actually is.  No claim
is made that the state is Gibbs when it is not.

The search of one state, which :func:`effective_temperature` runs, is a
16-point coarse scan followed by Brent's method between the best scan point's
neighbours.  A trajectory runs that full search on anchor states only: its
first two, every 16th and its last.  Every other state first tries the
optimum p interpolated between the anchors: when F(p) is at least F at
p -+ tol, Brent's tolerance, the state takes p after three evaluations.  A
state that fails is bracketed at [1/2, 2] p.  Both steps rely on F(n_eff)
having one maximum per state and on n_eff moving smoothly along the
trajectory; a state whose optimum lands on its bracket's edge runs the full
search as well.  The states are searched together, in bounded stacks: the
scan takes one state's 16 points per stacked ``eigvalsh``, the certificate
one point per state per call, and the Brent refinement runs its states in
lockstep, one stacked ``eigvalsh`` per round over the states still
searching.  The trace records how many Gibbs-fidelity evaluations each state
took.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BracketBoundaryWarning
from .fock import DensityMatrix, _gibbs_population_rows, _read_only, as_matrix, mean_photon_number
from .dynamics import Trajectory

__all__ = [
    "EffTempTrace",
    "uhlmann_fidelity",
    "effective_temperature",
    "default_search_max",
    "thermalization_trace",
]

# Golden-section fraction (3 - sqrt5) / 2 and the square root of machine
# epsilon, the relative resolution of a smooth maximum's position.
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

# Coarse scan size and Brent tolerance of the effective-temperature search.
_SCAN_POINTS = 16
_XTOL = 1e-7

# A trajectory's states 0, 1, every 16th and its last get the full search.
_ANCHOR_STRIDE = 16


@dataclass(frozen=True)
class EffTempTrace:
    """Effective temperature and best-match fidelity along a trajectory."""

    times: np.ndarray
    n_eff: np.ndarray
    fidelity_at_opt: np.ndarray
    # Gibbs-fidelity evaluations spent on each state; None when the values
    # were not searched here (a trace read back from a CSV file).
    evaluations: np.ndarray | None = None

    def __post_init__(self):
        times = _read_only(self.times, float)
        n_eff = _read_only(self.n_eff, float)
        fid = _read_only(self.fidelity_at_opt, float)
        if not (len(times) == len(n_eff) == len(fid)):
            raise ValueError("times, n_eff and fidelity_at_opt must have equal length")
        if not np.all(n_eff >= 0):
            raise ValueError("n_eff values must be nonnegative (and not NaN)")
        if not np.all((fid >= 0) & (fid <= 1.0 + 1e-9)):
            raise ValueError("fidelity_at_opt values must lie in [0, 1] (and not be NaN)")
        fields = {"times": times, "n_eff": n_eff, "fidelity_at_opt": fid}
        if self.evaluations is not None:
            evals = _read_only(self.evaluations, int)
            if evals.shape != times.shape or np.any(evals < 0):
                raise ValueError("evaluations must hold one nonnegative count per time")
            fields["evaluations"] = evals
        for name, arr in fields.items():
            object.__setattr__(self, name, arr)

    def final_window_change(self, window_frac: float = 0.1) -> float:
        """Max relative deviation of n_eff from its final value over the last window.

        The window is the last ``window_frac`` of the samples, at least two;
        ``window_frac`` must lie in (0, 1].
        """
        if not 0.0 < window_frac <= 1.0:
            raise ValueError(f"window_frac must lie in (0, 1], got {window_frac}")
        k = max(2, int(round(window_frac * len(self.n_eff))))
        tail = self.n_eff[-k:]
        ref = max(abs(self.n_eff[-1]), 1e-12)
        return float(np.max(np.abs(tail - self.n_eff[-1])) / ref)


def uhlmann_fidelity(rho, sigma) -> float:
    """Uhlmann-Jozsa fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2.

    Symmetric in its arguments, 1 iff the states coincide, 0 for orthogonal
    supports, and invariant under joint unitaries.  Inputs may be
    DensityMatrix instances (already validated) or raw Hermitian PSD arrays.
    When either argument is diagonal (a Gibbs state, say), its square root is
    exact and the fidelity is the eigenvalues of the other argument scaled by
    it on both sides, as in the effective-temperature search; two
    non-diagonal states go through root factors of each.
    """
    r = _checked(rho)
    s = _checked(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    # The root-factor route below loses the ~1e-14 eigenvalues of a
    # propagated state to about 1e-11 in F; a diagonal argument's exact
    # square root keeps them.  Its negative roundoff is clipped.
    for diagonal, other in ((s, r), (r, s)):
        if not np.any(diagonal - np.diag(diagonal.diagonal())):
            p = np.clip(diagonal.diagonal().real, 0.0, None)
            return min(float(_sandwich_fidelities(other, p)), 1.0)
    # F = ||B_rho^dag B_sigma||_1^2 for any factors rho = B B^dag, so no matrix
    # square root is taken.  B = V sqrt(lambda) from eigh, with each lambda
    # the Rayleigh quotient v^dag rho v: eigh's eigenvalues carry absolute
    # error eps ||rho||, which the square root turns into ~1e-9 on the
    # ~1e-14 eigenvalues of a propagated state, while the quotient keeps the
    # graded matrix's small entries.  Only negative roundoff is clipped.
    norm = float(np.linalg.svd(_root_factor(r).conj().T @ _root_factor(s), compute_uv=False).sum())
    return min(norm * norm, 1.0)


def _root_factor(mat: np.ndarray) -> np.ndarray:
    """V sqrt(lambda) with mat = V lambda V^dag; lambda are Rayleigh quotients, clipped at 0."""
    _, vec = np.linalg.eigh(mat)
    lam = np.einsum("ji,ji->i", vec.conj(), mat @ vec).real
    return vec * np.sqrt(np.clip(lam, 0.0, None))


def _checked(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.entries
    return DensityMatrix(as_matrix(state), tol=1e-7).entries


def _gibbs_fidelities(rho: np.ndarray, n_eff: np.ndarray) -> np.ndarray:
    """Fidelities of states to Gibbs states, in one stacked ``eigvalsh``.

    ``rho`` is a (..., d, d) stack that broadcasts against ``n_eff``: one state
    against a vector of occupations, or one occupation per state.
    """
    p, _ = _gibbs_population_rows(n_eff, rho.shape[-1])
    return _sandwich_fidelities(rho, p)


def _sandwich_fidelities(rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Fidelities of states to the diagonal states diag(p), in one stacked
    ``eigvalsh``; ``rho`` (..., d, d) and ``p`` (..., d) broadcast."""
    # sqrt(sigma) is diagonal, so the inner matrix is a cheap two-sided
    # scaling of rho; scaling in place keeps one temporary.
    sq = np.sqrt(p)
    inner = sq[..., :, None] * rho
    inner *= sq[..., None, :]
    ev = np.linalg.eigvalsh(inner)
    return np.sqrt(np.clip(ev, 0.0, None)).sum(axis=-1) ** 2


def _brent_tol(x: np.ndarray) -> np.ndarray:
    """Brent's stopping tolerance at x, sqrt(eps) |x| + _XTOL / 3: the
    resolution of the search's optimum, which the trace's certificate and
    bracket-edge test share."""
    return _SQRT_EPS * np.abs(x) + _XTOL / 3.0


def _brent_max(rho: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize the Gibbs fidelity of each state ``rho[k]`` on [lo[k], hi[k]].

    Brent's bounded minimizer applied to -F, Brent, *Algorithms for
    Minimization without Derivatives* (1973), ch. 5: parabolic interpolation
    through the three best points, falling back to a golden-section step
    whenever the parabola is not trusted.  A state stops when its best point
    lies within 2 tol of its bracket midpoint, tol = :func:`_brent_tol` at
    that point.  The states run in lockstep: every state
    takes the steps the algorithm would take on it alone, selected by masks,
    and each round evaluates the states still searching in one stacked call.
    Returns ``(x, F(x))`` for the best point each state evaluated, and the
    number of fidelity evaluations each state took.
    """
    a, b = lo.copy(), hi.copy()
    x = a + _GOLDEN * (b - a)
    w, v = x.copy(), x.copy()
    fx = -_gibbs_fidelities(rho, x)
    evaluations = np.ones(len(x), dtype=int)
    fw, fv = fx.copy(), fx.copy()
    d = np.zeros_like(x)
    e = np.zeros_like(x)
    while True:
        mid = 0.5 * (a + b)
        tol = _brent_tol(x)
        active = ~(np.abs(x - mid) <= 2.0 * tol - 0.5 * (b - a))
        if not active.any():
            return x, -fx, evaluations
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        # accept the parabola's vertex only inside the bracket and only when
        # its step is less than half the step before last
        parabolic = (
            (np.abs(e) > tol)
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (q * (a - x) < p)
            & (p < q * (b - x))
        )
        step = np.divide(p, q, out=np.zeros_like(p), where=parabolic)
        near_end = ((x + step) - a < 2.0 * tol) | (b - (x + step) < 2.0 * tol)
        step = np.where(near_end, np.where(x < mid, tol, -tol), step)
        golden = np.where(x < mid, b - x, a - x)
        e = np.where(parabolic, d, golden)
        d = np.where(parabolic, step, _GOLDEN * golden)
        u = x + np.where(np.abs(d) >= tol, d, np.copysign(tol, d))
        fu = fx.copy()
        fu[active] = -_gibbs_fidelities(rho[active], u[active])
        evaluations += active

        left = u < x
        better = active & (fu <= fx)
        worse = active & ~better
        to_w = worse & ((fu <= fw) | (w == x))
        to_v = worse & ~to_w & ((fu <= fv) | (v == x) | (v == w))
        a = np.where(better & ~left, x, np.where(worse & left, u, a))
        b = np.where(better & left, x, np.where(worse & ~left, u, b))
        v = np.where(better | to_w, w, np.where(to_v, u, v))
        fv = np.where(better | to_w, fw, np.where(to_v, fu, fv))
        w = np.where(better, x, np.where(to_w, u, w))
        fw = np.where(better, fx, np.where(to_w, fu, fw))
        x = np.where(better, u, x)
        fx = np.where(better, fu, fx)


def _effective_temperatures(
    rho: np.ndarray, search_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Effective temperature, fidelity and evaluation count of every state of a (m, d, d) stack.

    The reference search: a 16-point scan, then Brent between the best scan
    point's neighbours.  The scan evaluates one state's 16 points per stacked
    call, so the temporaries stay at 16 matrices, not 16 m; the Brent search
    then runs all states in lockstep.  The last value is True when any
    state's best scan point is search_max; the public callers warn once.
    """
    if not (search_max > 0 and math.isfinite(search_max)):
        raise ValueError(f"search_max must be finite and positive, got {search_max}")
    if search_max > 1e-4:
        grid = np.concatenate(([0.0], np.geomspace(1e-4, search_max, _SCAN_POINTS - 1)))
    else:
        grid = np.linspace(0.0, search_max, _SCAN_POINTS)
    values = np.stack([_gibbs_fidelities(state, grid) for state in rho])
    best = np.argmax(values, axis=1)
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, len(grid) - 1)]
    n_opt, f_opt, evaluations = _brent_max(rho, lo, hi)
    # the best scan point wins if it scores higher than the refined one
    f_best = values[np.arange(len(rho)), best]
    scan_wins = f_best > f_opt
    return (
        np.where(scan_wins, grid[best], n_opt),
        np.where(scan_wins, f_best, f_opt),
        evaluations + len(grid),
        bool(np.any(best == len(grid) - 1)),
    )


def _warn_pinned(search_max: float) -> None:
    """Warn the public function's caller that a maximizer hit search_max."""
    warnings.warn(
        f"effective-temperature maximizer hit search_max = {search_max:g}; enlarge the bracket",
        BracketBoundaryWarning,
        stacklevel=3,
    )


def effective_temperature(rho, search_max: float) -> tuple[float, float]:
    """Occupation n_eff in [0, search_max] whose Gibbs state best matches ``rho``.

    A coarse scan (the point 0 plus 15 log-spaced points from 1e-4 to
    search_max, or 16 linear points when search_max <= 1e-4) brackets the
    maximum between the best scan point's neighbours, then Brent's bounded
    method refines it to about 1e-7 absolute; the best scan point is returned
    instead if it scores higher.  About 26 fidelity evaluations per state.
    Returns ``(n_eff, fidelity)``.  A maximizer pinned at search_max raises
    BracketBoundaryWarning: the bracket was too small.  This is the search
    that :func:`thermalization_trace` runs on its anchor states and on every
    state whose predicted optimum fails its certificate and whose bracket
    then misses the maximum.
    """
    n_eff, fid, _, pinned = _effective_temperatures(_checked(rho)[None], search_max)
    if pinned:
        _warn_pinned(search_max)
    return float(n_eff[0]), float(fid[0])


def default_search_max(rho) -> float:
    """Generous search bracket 5 (max <n> + 0.1), over one state or a (m, d, d) stack."""
    return 5.0 * (float(np.max(mean_photon_number(rho))) + 0.1)


def thermalization_trace(traj: Trajectory, search_max: float | None = None) -> EffTempTrace:
    """Effective temperature at every sampled state of a trajectory.

    With ``search_max=None`` one bracket serves the whole trace,
    :func:`default_search_max` of the trajectory's stack.  States 0 and 1,
    every 16th state and the last run :func:`effective_temperature`'s search.
    Every other state is predicted at p, the anchors' optima interpolated
    linearly in the state index, and evaluated at p - tol, p and p + tol,
    tol being Brent's own stopping tolerance at p.  If
    0 < p - tol, p + tol < search_max and F(p) is at least both neighbours,
    the one maximum lies within tol of p, and the state takes (p, F(p)).
    Any other state runs Brent's method alone on [max(p/2, 1e-6),
    min(2p, search_max)]; a state whose optimum lands within 2 tol of either
    bracket edge (or whose bracket is empty) runs the full search instead.
    8.2-8.9 evaluations per state on the fig2 trajectories, within 1e-7 of
    the full search's n_eff.  BracketBoundaryWarning is raised at most once.
    """
    if search_max is None:
        search_max = default_search_max(traj.entries)
    rho = traj.entries
    m = len(rho)
    anchor = np.zeros(m, dtype=bool)
    anchor[::_ANCHOR_STRIDE] = True
    anchor[:2] = True
    anchor[-1] = True
    n_eff = np.zeros(m)
    fid = np.zeros(m)
    evaluations = np.zeros(m, dtype=int)
    n_eff[anchor], fid[anchor], evaluations[anchor], pinned = _effective_temperatures(
        rho[anchor], search_max
    )
    predicted = np.interp(np.arange(m), np.flatnonzero(anchor), n_eff[anchor])
    # Certificate: when F(p) is at least F(p -+ tol), tol Brent's tolerance at
    # p, the one maximum lies within tol of p, as close as Brent would stop.
    tol = _brent_tol(predicted)
    certified = ~anchor & (predicted - tol > 0.0) & (predicted + tol < search_max)
    if certified.any():
        stack, p, t = rho[certified], predicted[certified], tol[certified]
        f_left, f_mid, f_right = (_gibbs_fidelities(stack, x) for x in (p - t, p, p + t))
        holds = (f_mid >= f_left) & (f_mid >= f_right)
        evaluations[certified] = 3
        certified[certified] = holds
        n_eff[certified], fid[certified] = p[holds], f_mid[holds]
    lo = np.maximum(0.5 * predicted, 1e-6)
    hi = np.minimum(2.0 * predicted, search_max)
    bracketed = ~anchor & ~certified & (lo < hi)
    if bracketed.any():
        n_eff[bracketed], fid[bracketed], evals = _brent_max(rho[bracketed], lo[bracketed], hi[bracketed])
        evaluations[bracketed] += evals
    # Brent's own tolerance: an optimum this close to an edge may lie beyond it
    tol = _brent_tol(n_eff)
    inside = (n_eff - lo > 2.0 * tol) & (hi - n_eff > 2.0 * tol)
    fallback = ~anchor & ~certified & ~(bracketed & inside)
    if fallback.any():
        n_full, fid_full, evals_full, pinned_full = _effective_temperatures(rho[fallback], search_max)
        n_eff[fallback] = n_full
        fid[fallback] = fid_full
        evaluations[fallback] += evals_full
        pinned |= pinned_full
    if pinned:
        _warn_pinned(search_max)
    return EffTempTrace(times=traj.times, n_eff=n_eff, fidelity_at_opt=fid, evaluations=evaluations)
