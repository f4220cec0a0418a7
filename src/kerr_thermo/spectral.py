"""Energy spectrum of the probe Hamiltonian and nearest-neighbor gap statistics."""

from __future__ import annotations

import numpy as np

from .fock import SystemParams, Truncation, hamiltonian

__all__ = ["spectrum", "gap_variance"]


def spectrum(params: SystemParams, trunc: Truncation) -> np.ndarray:
    """Ascending eigenvalues of the probe Hamiltonian, in units of gamma.

    Levels are ordered by energy, not by Fock label.  Eigenvalues near the
    cutoff are polluted by truncation; keep a margin of ~20 levels above any
    window read off the result (doubling checks live in the tests).
    """
    return np.linalg.eigvalsh(hamiltonian(params, trunc))


def gap_variance(eigenvalues, n_lo: int, n_hi: int) -> float:
    """Sample variance of the nearest-neighbor gaps over an inclusive index window.

    The window selects the gaps dE_n = E_{n+1} - E_n for n in [n_lo, n_hi];
    the variance uses the 1/(N-1) sample normalization.
    """
    eig = np.asarray(eigenvalues, dtype=float)
    if eig.ndim != 1 or len(eig) < 3:
        raise ValueError("need a 1d list of at least 3 eigenvalues")
    gaps = np.diff(eig)
    if np.any(gaps < 0):
        raise ValueError("eigenvalues must be ascending")
    if not (0 <= n_lo < n_hi <= len(gaps) - 1):
        raise ValueError(
            f"window [{n_lo}, {n_hi}] out of range: gaps are indexed 0..{len(gaps) - 1}"
        )
    return float(gaps[n_lo : n_hi + 1].var(ddof=1))
