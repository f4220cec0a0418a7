"""Energy spectrum of the probe Hamiltonian and nearest-neighbor gap statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import SystemParams, Truncation, _read_only, hamiltonian

__all__ = ["SpectralReport", "spectrum", "gap_variance"]


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues, all nearest-neighbor gaps, and the gap variance on a window.

    ``window = (n_lo, n_hi)`` selects gaps dE_n = E_{n+1} - E_n for n in
    [n_lo, n_hi] inclusive; the variance uses the 1/(N-1) sample normalization.
    """

    eigenvalues: np.ndarray
    gaps: np.ndarray
    window: tuple[int, int]
    variance: float

    def __post_init__(self):
        eig = _read_only(self.eigenvalues, float)
        gaps = _read_only(self.gaps, float)
        if len(gaps) != len(eig) - 1:
            raise ValueError("gaps must have one entry fewer than eigenvalues")
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "gaps", gaps)

    def window_gaps(self) -> np.ndarray:
        n_lo, n_hi = self.window
        return self.gaps[n_lo : n_hi + 1]


def spectrum(params: SystemParams, trunc: Truncation) -> np.ndarray:
    """Ascending eigenvalues of the probe Hamiltonian, in units of gamma.

    Levels are ordered by energy, not by Fock label.  Eigenvalues near the
    cutoff are polluted by truncation; keep a margin of ~20 levels above any
    window read off the result (doubling checks live in the tests).
    """
    return np.linalg.eigvalsh(hamiltonian(params, trunc))


def gap_variance(eigenvalues, n_lo: int, n_hi: int) -> SpectralReport:
    """Sample variance of the nearest-neighbor gaps over an inclusive index window."""
    eig = np.asarray(eigenvalues, dtype=float)
    if eig.ndim != 1 or len(eig) < 3:
        raise ValueError("need a 1d list of at least 3 eigenvalues")
    if np.any(np.diff(eig) < 0):
        raise ValueError("eigenvalues must be ascending")
    gaps = np.diff(eig)
    if not (0 <= n_lo < n_hi <= len(gaps) - 1):
        raise ValueError(
            f"window [{n_lo}, {n_hi}] out of range: gaps are indexed 0..{len(gaps) - 1}"
        )
    window = gaps[n_lo : n_hi + 1]
    variance = float(window.var(ddof=1))
    return SpectralReport(eigenvalues=eig, gaps=gaps, window=(int(n_lo), int(n_hi)), variance=variance)
