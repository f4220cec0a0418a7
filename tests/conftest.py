import numpy as np
import pytest

SEED = 20240917


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_density_matrix(rng, dim, zero_top=0):
    """Random full-rank density matrix; optionally empty in the top levels."""
    core = dim - zero_top
    g = rng.normal(size=(core, core)) + 1j * rng.normal(size=(core, core))
    mat = g @ g.conj().T
    mat /= mat.trace().real
    out = np.zeros((dim, dim), dtype=complex)
    out[:core, :core] = mat
    return out


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def state_with_smallest_eigenvalue(rng, dim, lam):
    """A unit-trace Hermitian matrix, empty in its top two levels, whose
    smallest eigenvalue is ``lam``: random eigenvectors on the other levels."""
    core = dim - 2
    p = np.full(core, (1.0 - lam) / (core - 1))
    p[-1] = lam
    u = random_unitary(rng, core)
    out = np.zeros((dim, dim), dtype=complex)
    out[:core, :core] = (u * p) @ u.conj().T
    return 0.5 * (out + out.conj().T)
