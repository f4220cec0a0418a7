import numpy as np
import pytest

SEED = 20240917


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def coherence_pairs(dim):
    """The entries (i, i + k) above the diagonal in coherence order, k = 1, ...,
    d - 1 and then i = 0, ..., d - k - 1: the order of the coherences'
    Hermitian-basis coordinates."""
    pairs = np.array([(i, i + k) for k in range(1, dim) for i in range(dim - k)], dtype=np.intp)
    return tuple(pairs.reshape(-1, 2).T)


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
