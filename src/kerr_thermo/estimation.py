"""Quantum and classical Fisher information for reservoir-occupation sensing.

The quantum Fisher information is computed from the symmetric logarithmic
derivative L, defined by 2 drho = {L, rho}: in the eigenbasis of rho,

    F_Q = 2 sum_{k,l} |<k|drho|l>|^2 / (lambda_k + lambda_l),

restricted to eigenvalue pairs whose sum exceeds a rank cutoff.  Parameter
derivatives use the five-point central stencil

    df/dn ~ (-f(n+2h) + 8 f(n+h) - 8 f(n-h) + f(n-2h)) / (12 h),

exact on polynomials up to degree 4.  :func:`perturbed_trajectories`
propagates one central and four occupation-shifted trajectories from the same
vacuum and takes the stencil of the sampled state stacks once: the result is a
(central trajectory, derivative stack) pair, and every Fisher series, quantum
or classical, reads that pair.  The QFI series is one stacked ``eigh`` of the
central trajectory; :func:`qfi` is the one-state case of the same kernel, as
:func:`cfi_result` is of the batched CFI sum.
The steady state's QFI needs no stencil: its exact derivative is one more
linear solve, and it certifies the Fock cutoff of ``n_cut = auto`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import TruncationError
from .fock import DensityMatrix, SystemParams, Truncation, as_matrix, vacuum_state
from .dynamics import (
    _leakage,
    TimeGrid,
    Trajectory,
    propagate,
    steady_state_tangent,
)

__all__ = [
    "FdConfig",
    "SldResult",
    "FisherSeries",
    "PerturbedTrajectories",
    "fd_step",
    "stencil_combine",
    "fd_derivative",
    "qfi",
    "perturbed_trajectories",
    "qfi_series",
    "CfiResult",
    "cfi_result",
    "cfi",
    "cr_bound",
    "steady_state_qfi",
    "CutoffCertificate",
    "certify_cutoff",
]

# Default floor below which an outcome probability is excluded from the CFI sum.
_P_FLOOR = 1e-14

# The cutoff certificate: steady-state leakage at most leakage_tol / _CERT_MARGIN
# (the propagated transient reached up to 1.7 times the steady-state value on
# the presets), and a steady-state QFI that moves by at most _CERT_QFI_RTOL
# from n to n + 2.
_CERT_MARGIN = 4.0
_CERT_QFI_RTOL = 1e-7
_CERT_FIRST_NCUT = 8

# Automatic cutoff growth stops at this n_cut: the certify_cutoff walk here and
# the leakage retry of the propagating commands in cli.  It caps cost, not
# accuracy.  propagate's dense sample map holds n_cut^4 doubles and takes
# n_cut^6 flops to build; one fig8a trajectory (201 samples to tau = 30) took
# 6.1 s and 276 MB peak at 48 levels and 24.3 s and 573 MB at 60 on 2 cores.
# An explicit larger n_cut still propagates.
_AUTO_NCUT_MAX = 48


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference step control: h = max(rel_step * n_th, abs_floor).

    rel_step 1e-3 sits near the double-precision optimum for a fourth-order
    stencil; 1e-7 is selectable but amplifies roundoff in the differences.
    """

    rel_step: float = 1e-3
    abs_floor: float = 1e-9

    def __post_init__(self):
        if not self.rel_step > 0:
            raise ValueError(f"rel_step must be positive, got {self.rel_step}")
        if not self.abs_floor > 0:
            raise ValueError(f"abs_floor must be positive, got {self.abs_floor}")


@dataclass(frozen=True)
class SldResult:
    """QFI value with the symmetric logarithmic derivative that produced it."""

    qfi: float
    sld: np.ndarray
    rank_tol: float


@dataclass(frozen=True)
class FisherSeries:
    """Time-indexed Fisher information values and how they were differentiated.

    ``kind`` is "qfi", "cfi_homodyne" (with ``phi`` set) or "cfi_heterodyne".
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
    fd: FdConfig
    phi: float | None = None
    max_skipped_mass: float = 0.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if np.any(values < 0):
            raise ValueError("Fisher information values must be nonnegative")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def plateau(self) -> float:
        """Value at the final sampled time."""
        return float(self.values[-1])

    def time_at_fraction(self, frac: float) -> float:
        """First sampled time at which the series reaches frac * plateau."""
        target = frac * self.plateau
        idx = np.nonzero(self.values >= target)[0]
        if len(idx) == 0:
            raise ValueError(f"series never reaches {frac:g} of its plateau")
        return float(self.times[idx[0]])


def fd_step(n_th: float, cfg: FdConfig) -> float:
    """Stencil half-step for a given occupation; shrinks to keep n_th - 2h > 0.

    Raises ValueError, with a message that starts with ``n_th``, when n_th is
    not positive or when the shrunk step n_th / 4 falls below ``abs_floor``.
    Config validation calls it at every sweep point of a qfi or cfi run, so a
    point the stencil cannot take is rejected before anything runs.
    """
    if not n_th > 0:
        raise ValueError(f"n_th must be positive for a centered stencil, got {n_th}")
    h = max(cfg.rel_step * n_th, cfg.abs_floor)
    if n_th - 2.0 * h <= 0.0:
        h = 0.25 * n_th
        if h < cfg.abs_floor:
            raise ValueError(
                f"n_th = {n_th:g} leaves no room for the 4-point stencil "
                f"above abs_floor = {cfg.abs_floor:g}"
            )
    return h


def stencil_combine(f_p2, f_p1, f_m1, f_m2, h: float):
    """(-f_{+2h} + 8 f_{+h} - 8 f_{-h} + f_{-2h}) / (12 h), applied elementwise.

    Grouped as symmetric differences so nearly equal evaluations cancel before
    any scaling; identical inputs yield exactly zero.
    """
    diff1 = np.asarray(f_p1) - np.asarray(f_m1)
    diff2 = np.asarray(f_m2) - np.asarray(f_p2)
    return (diff2 + 8.0 * diff1) / (12.0 * h)


def fd_derivative(f: Callable[[float], np.ndarray], n_th: float, cfg: FdConfig):
    """Five-point derivative of ``f`` with respect to n_th at the configured step."""
    h = fd_step(n_th, cfg)
    return stencil_combine(f(n_th + 2 * h), f(n_th + h), f(n_th - h), f(n_th - 2 * h), h)


def qfi(rho: DensityMatrix, drho, *, rank_tol_rel: float = 1e-12) -> SldResult:
    """Quantum Fisher information Tr(rho L^2) for the family with derivative ``drho``.

    ``drho`` must be Hermitian and traceless (it is the derivative of a
    Hermitian unit-trace family).  Eigenvalue pairs with lambda_k + lambda_l
    at or below ``rank_tol_rel`` times the largest eigenvalue are excluded
    (default 1e-12, scale invariant; 0 keeps every pair with a positive sum).
    Derivatives obtained by finite differences carry roundoff of order eps/h
    in their entries, and near-null eigenvalue pairs turn that noise into
    spurious Fisher information; callers in that situation should raise the
    cutoff accordingly (see :attr:`PerturbedTrajectories.rank_tol_rel`).
    """
    r = as_matrix(rho)
    d = as_matrix(drho)
    if d.shape != r.shape:
        raise ValueError(f"dimension mismatch: rho {r.shape} vs drho {d.shape}")
    values, weights, d_eig, vec, tols = _qfi_stack(r[None], d[None], rank_tol_rel)
    sld = vec[0] @ (weights[0] * d_eig[0]) @ vec[0].conj().T
    sld = 0.5 * (sld + sld.conj().T)
    return SldResult(qfi=float(values[0]), sld=sld, rank_tol=float(tols[0]))


def _qfi_stack(rho: np.ndarray, drho: np.ndarray, rank_tol_rel: float):
    """:func:`qfi` for (n, d, d) stacks of states and derivatives.

    Returns the n QFI values, the SLD weights 2 / (lambda_k + lambda_l) (0
    below the rank cutoff), drho in each state's eigenbasis, the eigenvectors
    and the n rank cutoffs.  An input gate that fails raises for the first
    failing sample.
    """
    # One stack-sized buffer holds drho^dag, then the symmetric part, then
    # drho in the eigenbasis; the other temporaries are real or short-lived.
    sym = np.conjugate(drho.swapaxes(-1, -2), order="C")
    herm_defect = np.abs(drho - sym).max(axis=(1, 2))
    bad = herm_defect > 1e-8 * np.maximum(1.0, np.abs(drho).max(axis=(1, 2)))
    if bad.any():
        raise ValueError(f"drho is not Hermitian: defect {herm_defect[np.argmax(bad)]:.3e}")
    trace_defect = np.abs(np.trace(drho, axis1=1, axis2=2))
    bad = trace_defect > 1e-6
    if bad.any():
        raise ValueError(f"drho is not traceless: |Tr drho| = {trace_defect[np.argmax(bad)]:.3e}")

    lam, vec = np.linalg.eigh(rho)
    tols = rank_tol_rel * lam.max(axis=1)
    np.add(drho, sym, out=sym)
    sym *= 0.5
    d_eig = np.matmul(vec.conj().swapaxes(-1, -2) @ sym, vec, out=sym)
    denom = lam[:, :, None] + lam[:, None, :]
    keep = denom > tols[:, None, None]
    weights = np.divide(2.0, denom, out=np.zeros_like(denom), where=keep)
    terms = np.abs(d_eig) ** 2
    terms *= weights
    return terms.sum(axis=(1, 2)), weights, d_eig, vec, tols


@dataclass(frozen=True)
class PerturbedTrajectories:
    """A central trajectory and its n_th-derivative at every sample.

    ``derivative`` is the read-only (n_samples, d, d) stack d rho / d n_th:
    the five-point stencil over four runs at n_th + {-2h, -h, +h, +2h}, all
    started from the central run's vacuum, with its trace projected out.
    ``step`` is the stencil half-step h; the shifted runs themselves are not
    kept.  Every Fisher series reads this (central, derivative) pair.
    """

    params: SystemParams
    step: float
    central: Trajectory
    derivative: np.ndarray

    def __post_init__(self):
        self.derivative.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return self.central.times

    @property
    def rank_tol_rel(self) -> float:
        """Relative QFI rank cutoff.  Stencil entries carry roundoff of order
        eps/h, which near-null eigenvalue pairs would turn into spurious Fisher
        information, so it grows with that floor (~1e-10 at the default step)."""
        return max(1e-12, 25.0 * np.finfo(float).eps / self.step)


def perturbed_trajectories(
    params: SystemParams,
    grid: TimeGrid,
    trunc: Truncation,
    cfg: FdConfig,
) -> PerturbedTrajectories:
    """Propagate the five vacuum-seeded runs and take the stencil once."""
    h = fd_step(params.n_th, cfg)
    rho0 = vacuum_state(trunc)
    runs = {
        k: propagate(rho0, params.with_n_th(params.n_th + k * h), grid, trunc)
        for k in (-2, -1, 0, 1, 2)
    }
    drho = stencil_combine(runs[2].entries, runs[1].entries, runs[-1].entries, runs[-2].entries, h)
    # The differentiated family has unit trace for every n_th, so its
    # derivative is exactly traceless; remove the stencil's 1/(12 h)
    # amplified trace roundoff before it meets the qfi input gate.
    dim = drho.shape[-1]
    drho -= (np.trace(drho, axis1=1, axis2=2) / dim)[:, None, None] * np.eye(dim)
    return PerturbedTrajectories(params=params, step=h, central=runs[0], derivative=drho)


def qfi_series(
    params: SystemParams,
    grid: TimeGrid,
    trunc: Truncation,
    cfg: FdConfig,
    *,
    trajectories: PerturbedTrajectories | None = None,
) -> FisherSeries:
    """QFI of the evolved probe state as a function of time.

    Pass ``trajectories`` to reuse propagations already computed (e.g. when a
    measurement CFI series over the same grid is also wanted).
    """
    tr = trajectories if trajectories is not None else perturbed_trajectories(params, grid, trunc, cfg)
    values = _qfi_stack(tr.central.entries, tr.derivative, tr.rank_tol_rel)[0]
    return FisherSeries(times=tr.times, values=values, kind="qfi", fd=cfg)


class CfiResult(NamedTuple):
    value: float
    skipped_mass: float


def cfi_result(probabilities, dprobabilities, p_floor: float = _P_FLOOR) -> CfiResult:
    """Classical Fisher information sum_x (dp_x)^2 / p_x with an outcome floor.

    Outcomes with p_x <= p_floor are skipped (continuum discretizations
    produce numerically empty bins) and their total mass is reported alongside
    the value.
    """
    p = np.asarray(probabilities, dtype=float)
    dp = np.asarray(dprobabilities, dtype=float)
    if p.shape != dp.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {dp.shape}")
    values, skipped = _cfi_rows(p.reshape(1, -1), dp.reshape(1, -1), p_floor)
    return CfiResult(value=float(values[0]), skipped_mass=float(skipped[0]))


def _cfi_rows(p: np.ndarray, dp: np.ndarray, p_floor: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cfi_result` for each row of (n, n_outcomes) arrays: the CFI values
    and skipped masses.  A gate that fails raises for the first failing row."""
    if p.size and float(p.min()) < -1e-12:
        raise ValueError(f"negative probability {p.min():.3e} beyond tolerance")
    total = p.sum(axis=1)
    bad = np.abs(total - 1.0) > 1e-6
    if bad.any():
        raise ValueError(f"probabilities sum to {float(total[np.argmax(bad)])!r}, not 1 within 1e-6")
    p = np.clip(p, 0.0, None)
    keep = p > p_floor
    skipped = np.where(keep, 0.0, p).sum(axis=1)
    terms = np.square(dp, out=np.zeros_like(p), where=keep)
    np.divide(terms, p, out=terms, where=keep)
    return terms.sum(axis=1), skipped


def cfi(probabilities, dprobabilities, p_floor: float = _P_FLOOR) -> float:
    """Classical Fisher information of an outcome distribution; see :func:`cfi_result`."""
    return cfi_result(probabilities, dprobabilities, p_floor).value


def cr_bound(fisher: float, repetitions: int = 1) -> float:
    """Cramer-Rao lower bound 1 / (repetitions * fisher) on the estimator variance."""
    if not fisher > 0:
        raise ValueError(f"fisher must be positive, got {fisher}")
    if not isinstance(repetitions, (int, np.integer)) or repetitions < 1:
        raise ValueError(f"repetitions must be an integer >= 1, got {repetitions!r}")
    return 1.0 / (repetitions * fisher)


def steady_state_qfi(params: SystemParams, trunc: Truncation) -> tuple[float, float]:
    """QFI of the steady state in n_th, from its exact tangent, and the top-two-level leakage."""
    rho, drho = steady_state_tangent(params, trunc)
    return qfi(rho, drho).qfi, _leakage(rho)


@dataclass(frozen=True)
class CutoffCertificate:
    """The certified Fock cutoff of a sweep and the point that decided it.

    ``leakage`` is that point's steady-state top-two-level population at
    ``n_cut`` and ``qfi_change`` the relative move of its steady-state QFI
    from ``n_cut`` to ``n_cut + 2``.
    """

    n_cut: int
    point_index: int
    leakage: float
    qfi_change: float


def certify_cutoff(points: Sequence[SystemParams], leakage_tol: float) -> CutoffCertificate:
    """The smallest even cutoff that the steady state certifies at every point.

    At each point, walk n = 8, 10, ... up to _AUTO_NCUT_MAX (48) and
    take the first n whose steady-state leakage is at most leakage_tol / 4 and
    whose steady-state QFI moves by at most 1e-7 relative from n to n + 2.
    The sweep's cutoff is the largest of these; a point that no n certifies
    raises TruncationError.
    """
    best = None
    for index, params in enumerate(points):
        solved: dict[int, tuple[float, float]] = {}

        def at(n: int) -> tuple[float, float]:
            if n not in solved:
                solved[n] = steady_state_qfi(params, Truncation(n))
            return solved[n]

        for n_cut in range(_CERT_FIRST_NCUT, _AUTO_NCUT_MAX + 1, 2):
            value, leakage = at(n_cut)
            change = math.inf
            if leakage <= leakage_tol / _CERT_MARGIN:
                above = at(n_cut + 2)[0]
                change = abs(above - value) / abs(above) if above else abs(value)
                if change <= _CERT_QFI_RTOL:
                    break
        else:
            qfi_text = (
                f" and the qfi change to n_cut + 2 is {change:.3e} (limit {_CERT_QFI_RTOL:.0e})"
                if math.isfinite(change)
                else ""
            )
            raise TruncationError(
                f"no cutoff up to n_cut = {n_cut} certifies sweep point {index} ({params}): "
                f"there the steady-state leakage is {leakage:.3e} (limit "
                f"{leakage_tol / _CERT_MARGIN:.1e}){qfi_text}; set n_cut explicitly to go further"
            )
        if best is None or n_cut > best.n_cut:
            best = CutoffCertificate(n_cut, index, leakage, change)
    return best
