"""The exact steady state of the driven Kerr oscillator at n_th = 0: the one
closed form here with the Kerr term on.

At zero temperature the complex-P Fokker-Planck equation has a potential
solution (Drummond & Walls, J. Phys. A 13, 725 (1980)).  In this code's
conventions, gamma = 1 and H = delta a^dag a + chi a^dag^2 a^2
+ i drive (a^dag - a), its normally ordered moments are

    <a^dag^j a^k> = x^k conj(x)^j 0F2(; c + k, conj(c) + j; z)
                    / 0F2(; c, conj(c); z) / ((c)_k (conj(c))_j),

with c = (1 + i delta) / (i chi), x = -i drive / chi and z = 2 drive^2 / chi^2.
(c)_k is the rising factorial, and 0F2 is summed by its term recurrence, so
no Gamma function of a complex argument is needed.  The moments pin the sign
and size of the Kerr term and the phase of the drive.
"""

import numpy as np
import pytest

from kerr_thermo import (
    SystemParams,
    TimeGrid,
    Truncation,
    annihilation,
    propagate,
    steady_state,
    vacuum_state,
)

# (j, k) of <a^dag^j a^k>: <a>, <a^dag a>, <a^2>, <a^dag a^2>, <a^dag^2 a^2>
ORDERS = [(0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]


def hyp0f2(b1: complex, b2: complex, z: float) -> complex:
    """0F2(; b1, b2; z) = sum_m z^m / ((b1)_m (b2)_m m!), summed until a term
    falls below 1e-17 of the sum."""
    term = total = 1.0 + 0j
    m = 0
    while abs(term) >= 1e-17 * abs(total) or m < 5:
        term *= z / ((b1 + m) * (b2 + m) * (m + 1))
        total += term
        m += 1
    return total


def rising(c: complex, k: int) -> complex:
    out = 1.0 + 0j
    for i in range(k):
        out *= c + i
    return out


def exact_moment(params: SystemParams, j: int, k: int) -> complex:
    c = (1.0 + 1j * params.delta) / (1j * params.chi)
    x = -1j * params.drive / params.chi
    z = 2.0 * params.drive**2 / params.chi**2
    cb = c.conjugate()
    ratio = hyp0f2(c + k, cb + j, z) / hyp0f2(c, cb, z)
    return x**k * x.conjugate() ** j * ratio / (rising(c, k) * rising(cb, j))


def moment(rho: np.ndarray, j: int, k: int) -> complex:
    a = annihilation(rho.shape[0])
    op = np.linalg.matrix_power(a.conj().T, j) @ np.linalg.matrix_power(a, k)
    return complex(np.einsum("ij,ji->", rho, op))


def relative_deviations(rho: np.ndarray, params: SystemParams) -> list[float]:
    deviations = []
    for j, k in ORDERS:
        exact = exact_moment(params, j, k)
        deviations.append(abs(moment(rho, j, k) - exact) / abs(exact))
    return deviations


# fig8a's detuning, Kerr and drive, then a weak Kerr at resonance, a strong
# Kerr and drive above resonance, and a stronger drive below it
POINTS = [(-3.5, 0.65, 1.0), (0.0, 0.2, 1.0), (2.0, 1.0, 2.5), (-3.5, 0.5, 1.5)]


@pytest.mark.parametrize("delta, chi, drive", POINTS)
def test_steady_state_has_the_exact_moments(delta, chi, drive):
    # measured: at most 4.5e-15 relative at 60 levels
    params = SystemParams(delta=delta, chi=chi, drive=drive, n_th=0.0)
    rho = steady_state(params, Truncation(60)).entries
    assert max(relative_deviations(rho, params)) <= 1e-12


def test_propagation_from_vacuum_reaches_the_exact_moments():
    # fig8a's point at n_th = 0 on its grid: by tau = 30 the transient has
    # decayed, and the Taylor sample map lands on the exact moments to 5.0e-11
    # relative (measured, <a^dag^2 a^2>; the others to 1.2e-12) at 16 levels,
    # where the steady state itself deviates by 2.4e-15.  One map over the
    # whole interval (2 samples, 13 squarings) lands to 1.5e-9
    params = SystemParams(delta=-3.5, chi=0.65, drive=1.0, n_th=0.0)
    trunc = Truncation(16)
    for n_samples, band in ((201, 2e-9), (2, 2e-8)):
        traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=30.0, n_samples=n_samples), trunc)
        assert max(relative_deviations(traj.final.entries, params)) <= band
