"""Quantum and classical Fisher information for reservoir-occupation sensing.

The quantum Fisher information is computed from the symmetric logarithmic
derivative L, defined by 2 drho = {L, rho}: in the eigenbasis of rho,

    F_Q = 2 sum_{k,l} |<k|drho|l>|^2 / (lambda_k + lambda_l),

restricted to eigenvalue pairs whose sum exceeds a rank cutoff.

Every Fisher series, quantum or classical, reads one (central trajectory,
derivative stack) pair and nothing else: ``qfi_series(pair)`` and
``cfi_series(pair, povm)``.  :func:`tangent_trajectories` builds the pair
from one propagation: the sample map exp(spacing R) and its exact
n_th-derivative, along the slope R1 that :mod:`~kerr_thermo.dynamics`
defines, are built by the same Taylor products and squarings, and the
samples carry d rho / d n_th exactly.  The pair carries the relative rank
floor its QFI is taken at, so a pair built another way (the tests'
five-point stencil, whose entries carry roundoff of order eps/h) can raise
it.  The steady state needs no propagation: ``steady_state_tangent``
returns the pair with one sample, at tau = inf, by one more linear solve, and
its QFI certifies the Fock cutoff of ``n_cut = auto`` runs, walking up to
the cap that :mod:`~kerr_thermo.config` sets for the run's command.  The QFI
series is one stacked ``eigh`` of the central trajectory, and :func:`qfi` is
its one-state case; the CFI sum lives beside ``cfi_series`` in
:mod:`~kerr_thermo.measurement`.  The input gates are phrased so that NaN
fails them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TruncationError
from .fock import DensityMatrix, SystemParams, Truncation, _read_only, as_matrix, vacuum_state
from .dynamics import (
    _EXACT_RANK_TOL,
    _evolve,
    PerturbedTrajectories,
    TimeGrid,
    steady_state_tangent,
)

__all__ = [
    "FdConfig",
    "SldResult",
    "FisherSeries",
    "fd_step",
    "stencil_combine",
    "qfi",
    "tangent_trajectories",
    "qfi_series",
    "cr_bound",
    "CutoffCertificate",
    "certify_cutoff",
]

# The cutoff certificate: steady-state leakage at most leakage_tol / _CERT_MARGIN
# (the propagated transient reached up to 1.7 times the steady-state value on
# the presets), and a steady-state QFI that moves by at most _CERT_QFI_RTOL
# from n to n + 2.
_CERT_MARGIN = 4.0
_CERT_QFI_RTOL = 1e-7
_CERT_FIRST_NCUT = 8


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
    """The QFI of one state, read as ``qfi(...).qfi``."""

    qfi: float


@dataclass(frozen=True)
class FisherSeries:
    """Time-indexed Fisher information values of one quantity.

    ``times`` and ``values`` are read-only copies of the arrays passed in.
    """

    times: np.ndarray
    values: np.ndarray
    max_skipped_mass: float = 0.0

    def __post_init__(self):
        times = _read_only(self.times, float)
        values = _read_only(self.values, float)
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if not np.all(values >= 0):
            raise ValueError("Fisher information values must be nonnegative (and not NaN)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def plateau(self) -> float:
        """Value at the final sampled time: at tau = inf for a steady pair."""
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
    perfbench's ``fisher`` oracle imports it, FdConfig and stencil_combine.
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


def qfi(rho: DensityMatrix, drho, *, rank_tol_rel: float = _EXACT_RANK_TOL) -> SldResult:
    """Quantum Fisher information Tr(rho L^2) for the family with derivative ``drho``.

    ``drho`` must be Hermitian and traceless (it is the derivative of a
    Hermitian unit-trace family).  Eigenvalue pairs with lambda_k + lambda_l
    at or below ``rank_tol_rel`` times the largest eigenvalue are excluded
    (scale invariant, the default suiting an exact derivative; 0 keeps every
    pair with a positive sum; a negative or NaN value raises ValueError).
    Derivatives obtained by finite differences carry roundoff of order eps/h
    in their entries, and near-null eigenvalue pairs turn that noise into
    spurious Fisher information; callers in that situation should raise the
    cutoff accordingly, as a pair does through its ``rank_tol_rel`` field.
    """
    r = as_matrix(rho)
    d = as_matrix(drho)
    if d.shape != r.shape:
        raise ValueError(f"dimension mismatch: rho {r.shape} vs drho {d.shape}")
    return SldResult(qfi=float(_qfi_stack(r[None], d[None], rank_tol_rel)[0]))


def _qfi_stack(rho: np.ndarray, drho: np.ndarray, rank_tol_rel: float):
    """:func:`qfi` for (n, d, d) stacks of states and derivatives: the n QFI
    values.  An input gate that fails raises for the first failing sample."""
    if not rank_tol_rel >= 0:
        raise ValueError(f"rank_tol_rel must be nonnegative (and not NaN), got {rank_tol_rel}")
    # One stack-sized buffer holds drho^dag, then the symmetric part, then
    # drho in the eigenbasis; the other temporaries are real or short-lived.
    sym = np.conjugate(drho.swapaxes(-1, -2), order="C")
    herm_defect = np.abs(drho - sym).max(axis=(1, 2))
    bad = ~(herm_defect <= 1e-8 * np.maximum(1.0, np.abs(drho).max(axis=(1, 2))))
    if bad.any():
        raise ValueError(f"drho is not Hermitian: defect {herm_defect[np.argmax(bad)]:.3e}")
    trace_defect = np.abs(np.trace(drho, axis1=1, axis2=2))
    bad = ~(trace_defect <= 1e-6)
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
    return terms.sum(axis=(1, 2))


def tangent_trajectories(params: SystemParams, grid: TimeGrid, trunc: Truncation) -> PerturbedTrajectories:
    """Propagate the vacuum-seeded run once, carrying its exact n_th-derivative.

    The central trajectory is the one :func:`propagate` returns, to the bit,
    and validated as it is.  The derivative is the exact derivative of that
    trajectory (no stencil step): the Taylor polynomial T(hR) of the scaled
    generator has the derivative dT along hR1, R1 the n_th-slope that
    :mod:`~kerr_thermo.dynamics` defines, the pair (T, dT) is squared as
    (AC, A dC + dA C), and the samples step as the pair (x, x') by the same
    product from x' = 0 (Van Loan 1978; Najfeld & Havel 1995;
    Al-Mohy & Higham 2009).  One propagation, at about three matrix products
    for each one of the map alone.
    """
    return _evolve(vacuum_state(trunc), params, grid, trunc, tangent=True)


def qfi_series(trajectories: PerturbedTrajectories) -> FisherSeries:
    """QFI of the evolved probe state as a function of time, read from a
    (central, derivative) pair: one stacked ``eigh`` of the central trajectory
    at the pair's rank cutoff.  The same pair feeds every
    :func:`~kerr_thermo.measurement.cfi_series` over the same propagation."""
    tr = trajectories
    values = _qfi_stack(tr.central.entries, tr.derivative, tr.rank_tol_rel)
    return FisherSeries(times=tr.times, values=values)


def cr_bound(fisher: float, repetitions: int = 1) -> float:
    """Cramer-Rao lower bound 1 / (repetitions * fisher) on the estimator variance."""
    if not fisher > 0:
        raise ValueError(f"fisher must be positive, got {fisher}")
    if not isinstance(repetitions, (int, np.integer)) or repetitions < 1:
        raise ValueError(f"repetitions must be an integer >= 1, got {repetitions!r}")
    return 1.0 / (repetitions * fisher)


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


def certify_cutoff(
    points: Sequence[SystemParams], leakage_tol: float, n_cut_max: int | None = None
) -> CutoffCertificate:
    """The largest of the sweep points' first certifying cutoffs.

    At each point, walk n = 8, 10, ... up to ``n_cut_max`` (the run's cap; None
    takes the propagating commands') to the first n whose steady-state leakage
    is at most leakage_tol / 4 and whose steady-state QFI moves by at most 1e-7
    relative from n to n + 2; a point that no n certifies raises
    TruncationError.  A later point is first tried at the running maximum and
    walked only if it fails there.  No point is checked again at a larger
    cutoff that a later point sets, and the QFI change need not fall with n.
    """
    if n_cut_max is None:  # config imports this module, so its cap is read here
        from .config import PROPAGATING_NCUT_MAX as n_cut_max
    best = None
    for index, params in enumerate(points):
        @functools.cache
        def at(n: int) -> tuple[float, float]:
            pair = steady_state_tangent(params, Truncation(n))
            return qfi_series(pair).plateau, pair.central.leakage_max

        for n_cut in ([best.n_cut] if best else []) + list(range(_CERT_FIRST_NCUT, n_cut_max + 1, 2)):
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
