"""The five-point stencil: the tests' independent oracle of the exact tangent.

The runner takes every d rho / d n_th from :func:`kerr_thermo.tangent_trajectories`.
This module builds the same (central, derivative) pair a second way, by the
five-point central stencil

    df/dn ~ (-f(n+2h) + 8 f(n+h) - 8 f(n-h) + f(n-2h)) / (12 h),

exact on polynomials up to degree 4, over one central and four
occupation-shifted trajectories from the same vacuum.  Its roundoff floor is
about 1e-7 of a series' maximum.  The contract (criteria 2, 6, 7 and 8) runs
on it, and the tangent's tests compare against it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from kerr_thermo import (
    FdConfig,
    PerturbedTrajectories,
    Povm,
    SystemParams,
    TimeGrid,
    Truncation,
    fd_step,
    propagate,
    stencil_combine,
    vacuum_state,
)


def fd_derivative(f: Callable[[float], np.ndarray], n_th: float, cfg: FdConfig):
    """Five-point derivative of ``f`` with respect to n_th at the configured step."""
    h = fd_step(n_th, cfg)
    return stencil_combine(f(n_th + 2 * h), f(n_th + h), f(n_th - h), f(n_th - 2 * h), h)


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
    drho.setflags(write=False)
    # Stencil entries carry roundoff of order eps/h, which near-null
    # eigenvalue pairs would turn into spurious Fisher information, so the
    # pair's QFI rank floor grows with it (~1e-10 at the default step).
    rank_tol_rel = max(1e-12, 25.0 * np.finfo(float).eps / h)
    return PerturbedTrajectories(runs[0], drho, rank_tol_rel=rank_tol_rel)


def element(povm: Povm, i: int) -> np.ndarray:
    """The i-th POVM element w_i |v_i><v_i| as an explicit matrix."""
    v = povm.vectors[i]
    return povm.weights[i] * np.outer(v, v.conj())
