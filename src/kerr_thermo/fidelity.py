"""Uhlmann-Jozsa fidelity and effective-temperature extraction.

The effective temperature of a (generally non-thermal) state is defined as
the occupation n_eff whose Gibbs state maximizes the fidelity to that state;
the achieved fidelity quantifies how thermal the state actually is.  No claim
is made that the state is Gibbs when it is not.

n_eff is the root of dT/dn, where F = T^2, T = Tr sqrt(M) and M = sqrt(sigma)
rho sqrt(sigma) for the Gibbs state sigma at n: one ``eigh`` of M gives T
and its first two derivatives in closed form, and Newton's method,
safeguarded by bisection, finds the root to about 1e-12 relative.
:func:`effective_temperature` brackets it by a 16-point scan;
:func:`thermalization_trace` does so on a trajectory's anchor states only
and starts every other state's Newton search at the anchors' interpolated
optimum, running the searches in lockstep over bounded stacks.
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

# Coarse scan size, and the search's resolution tol = sqrt(eps) |n| + _XTOL / 3.
_SCAN_POINTS = 16
_XTOL = 1e-7
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

# Newton stops once its step is at most this fraction of n: its error is
# quadratic in the step, so the root lands within about 1e-12 relative.
_NEWTON_RTOL = 1e-6
# Bisection alone narrows any bracket under 1e22 below 2 tol within 99
# rounds, so this cap decides no result.
_MAX_ROUNDS = 100
# States per stacked eigh, which bounds the temporaries.
_EIGH_STATES = 64

# A trajectory's states 0, 1, every 16th and its last get the full search.
_ANCHOR_STRIDE = 16


@dataclass(frozen=True)
class EffTempTrace:
    """Effective temperature and best-match fidelity along a trajectory."""

    times: np.ndarray
    n_eff: np.ndarray
    fidelity_at_opt: np.ndarray
    # Evaluations per state, one per scan point and one per Newton round;
    # None when not searched here (a trace read back from a CSV file).
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


def _gibbs_root_fidelities(rho: np.ndarray, n: np.ndarray) -> np.ndarray:
    """T = Tr sqrt(M), dT/dn and d2T/dn2 of each state against the Gibbs state at n > 0.

    M = sqrt(sigma) rho sqrt(sigma), so T^2 is :func:`_gibbs_fidelities`.
    With dM = G M + M G, G = diag(g), g_k = 1/2 d ln p_k/dn = (k - m) / (2 n
    (n + 1)) and m the populations' mean, d Tr f(M) = Tr f'(M) dM (Higham,
    *Functions of Matrices*, 2008) gives T' = sum_k g_k (sqrt M)_kk.  T''
    adds g'_k = -(v + (k - m)(2n + 1)) / (2 n^2 (n + 1)^2), v their variance,
    and, with M = U diag(s^2) U^dag and G^ = U^dag G U, sum_ij |G^_ij|^2
    (s_i^2 + s_j^2) / (s_i + s_j), 0/0 taken as 0.  One stacked ``eigh``;
    every reduction runs along a state's own rows, so a state's values do
    not depend on its stack.  Returns a (3, m) array.
    """
    x = n[:, None]
    level = np.arange(rho.shape[-1], dtype=float)
    p, _ = _gibbs_population_rows(n, len(level))
    dev = level - (level * p).sum(-1, keepdims=True)
    var = (dev * dev * p).sum(-1, keepdims=True)
    scale = 2.0 * x * (x + 1.0)
    g = dev / scale
    dg = -2.0 * (var + dev * (2.0 * x + 1.0)) / (scale * scale)
    sq = np.sqrt(p)
    inner = sq[:, :, None] * rho
    inner *= sq[:, None, :]
    lam, u = np.linalg.eigh(inner)
    s = np.sqrt(np.clip(lam, 0.0, None))
    root_diag = (np.abs(u) ** 2 * s[:, None, :]).sum(-1)
    # |G^_ij|^2 from conj(U)^T (G U), and the pair ratio in place
    gu = u * g[:, :, None]
    g_hat = np.conjugate(u, out=u).transpose(0, 2, 1) @ gu
    pair = s[:, :, None] + s[:, None, :]
    ratio = s[:, :, None] ** 2 + s[:, None, :] ** 2
    np.divide(ratio, pair, out=ratio, where=pair > 0.0)
    ratio *= np.abs(g_hat) ** 2
    return np.stack(
        [s.sum(-1), (g * root_diag).sum(-1), (dg * root_diag).sum(-1) + ratio.sum(-1).sum(-1)]
    )


def _search_tol(x: np.ndarray) -> np.ndarray:
    """tol at x: a bracket narrower than 2 tol stops the search, and the trace's edge test reads it."""
    return _SQRT_EPS * np.abs(x) + _XTOL / 3.0


def _newton_max(
    rho: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximize the Gibbs fidelity of each state ``rho[k]`` on [lo[k], hi[k]] from x[k].

    Newton's method on the root of dT/dn, T = sqrt(F), safeguarded by
    bisection.  Each round evaluates T, T' and T'' at x, narrows the bracket
    to the side T' points to, and steps to x - T'/T'' if T'' < 0 and that
    point lies inside the bracket, else bisects.  A state stops when its step
    is at most _NEWTON_RTOL x, with x + step and F = (T + T' step / 2)^2
    (error cubic in the step); or when its bracket is narrower than 2 tol,
    with x and F evaluated there, never extrapolated.  Returns ``(x, F(x))``,
    each state's rounds, and whether its Newton step converged.
    """
    a, b, x = lo.copy(), hi.copy(), x.copy()
    n_opt, f_opt = x.copy(), np.zeros(len(x))
    evaluations = np.zeros(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    for _ in range(_MAX_ROUNDS):
        if not active.size:
            break
        xa = x[active]
        # gathering at most _EIGH_STATES states per call bounds the temporaries
        parts = [active[c : c + _EIGH_STATES] for c in range(0, active.size, _EIGH_STATES)]
        t, dt, ddt = np.concatenate([_gibbs_root_fidelities(rho[part], x[part]) for part in parts], axis=1)
        evaluations[active] += 1
        n_opt[active], f_opt[active] = xa, t * t
        # the one maximum lies on the side T' points to
        lo_a = np.where(dt > 0.0, xa, a[active])
        hi_a = np.where(dt < 0.0, xa, b[active])
        a[active], b[active] = lo_a, hi_a
        step = np.divide(-dt, ddt, out=np.zeros_like(dt), where=ddt < 0.0)
        target = xa + step
        newton = (ddt < 0.0) & (lo_a < target) & (target < hi_a)
        # a step below x's last digit rounds back onto x, now a bracket edge
        done = (ddt < 0.0) & (np.abs(step) <= _NEWTON_RTOL * xa) & (lo_a <= target) & (target <= hi_a)
        n_opt[active[done]] = target[done]
        f_opt[active[done]] = ((t + 0.5 * dt * step) ** 2)[done]
        converged[active[done]] = True
        x[active] = np.where(newton, target, 0.5 * (lo_a + hi_a))
        active = active[~(done | (hi_a - lo_a < 2.0 * _search_tol(xa)))]
    return n_opt, f_opt, evaluations, converged


def _effective_temperatures(
    rho: np.ndarray, search_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Effective temperature, fidelity and evaluation count of every state of a (m, d, d) stack.

    A 16-point scan, one state's points per stacked call, then Newton between
    the best point's neighbours from that point (from their middle when it is
    0, where dT/dn is singular).  The last value is True when any state's best
    scan point is search_max; the public callers warn once.
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
    start = np.where(best > 0, grid[best], 0.5 * (lo + hi))
    n_opt, f_opt, evaluations, _ = _newton_max(rho, lo, hi, start)
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
    maximum between the best scan point's neighbours, then Newton's method on
    dF/dn finds its root to about 1e-12 relative (an optimum below about 1e-7
    to 1e-7 absolute, by bisection); the best scan point wins if it scores
    higher, so a vacuum gives exactly 0.  18-27 evaluations per state, the
    scan's 16 and one per Newton round.  Returns ``(n_eff, fidelity)``.  A
    maximizer pinned at search_max raises BracketBoundaryWarning: the bracket
    was too small.  :func:`thermalization_trace` runs this search on its
    anchors and on every state whose Newton search from its prediction fails.
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
    linearly in the state index, and runs Newton's method from p on
    [max(p/2, 1e-6), min(2p, search_max)]; a state whose Newton step does
    not converge, whose optimum lands within 2 tol of either bracket edge
    (tol = sqrt(eps) n + 1e-7/3), or whose bracket is empty runs the full
    search instead.  3.0-3.4 evaluations per state on the fig2 trajectories
    and the perfbench draws, within 1e-13 of the full search's n_eff; each
    Newton round takes at most 64 states per stacked ``eigh``.
    BracketBoundaryWarning is raised at most once.
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
    lo = np.maximum(0.5 * predicted, 1e-6)
    hi = np.minimum(2.0 * predicted, search_max)
    bracketed = ~anchor & (lo < hi)
    converged = np.zeros(m, dtype=bool)
    start = np.clip(predicted[bracketed], lo[bracketed], hi[bracketed])
    n_eff[bracketed], fid[bracketed], evaluations[bracketed], converged[bracketed] = _newton_max(
        rho[bracketed], lo[bracketed], hi[bracketed], start
    )
    # an optimum this close to an edge may lie beyond it
    tol = _search_tol(n_eff)
    inside = converged & (n_eff - lo > 2.0 * tol) & (hi - n_eff > 2.0 * tol)
    fallback = ~anchor & ~(bracketed & inside)
    if fallback.any():
        n_eff[fallback], fid[fallback], evals, pinned_full = _effective_temperatures(rho[fallback], search_max)
        evaluations[fallback] += evals
        pinned |= pinned_full
    if pinned:
        _warn_pinned(search_max)
    return EffTempTrace(times=traj.times, n_eff=n_eff, fidelity_at_opt=fid, evaluations=evaluations)
