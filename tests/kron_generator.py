"""Test oracle: the generator table built the generic way, from Kronecker
products of the operators, for comparison with the library's closed-form
stencil (``dynamics._generator_table``).

Each of R's five parameter-free parts is a complex Liouvillian on row-major
vec(rho), a sum of terms w A rho B, that is w kron(A, B^T), whose COO triples
come from those of A and B.  U, the map from vec(rho) to the real
Hermitian-basis coordinates, has at most two entries per column, so every
entry of L gives at most four of R = U L U^dag.  L commutes with Hermitian
conjugation, so the imaginary parts cancel exactly; entries that are zero in
every part are dropped.
"""

import math

import numpy as np

from kerr_thermo import SystemParams, Truncation, annihilation, hamiltonian


def _coo(mat):
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def kron_generator_table(dim):
    """``(rows, cols, table)``: R's COO index set in row-major order and its
    (5, nnz) parts (delta, chi, drive, gamma (n_th + 1), gamma n_th)."""
    a = annihilation(dim)
    eye = np.eye(dim, dtype=np.complex128)

    def commutator(op):
        return [(-1j, op, eye), (1j, eye, op)]

    def dissipator(jump):
        jdj = jump.conj().T @ jump
        return [(2.0, jump, jump.conj().T), (-1.0, jdj, eye), (-1.0, eye, jdj)]

    # H's delta, chi and drive parts are the Hamiltonian at unit coefficients
    trunc = Truncation(dim)
    parts = tuple(
        commutator(hamiltonian(SystemParams(*coeffs, n_th=0.0), trunc))
        for coeffs in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    ) + (dissipator(a), dissipator(a.conj().T))

    # U by columns: vec position s goes to coordinates urow[s] with weights
    # uval[s] (a diagonal position has one, padded with a zero weight).
    iu, ju = np.triu_indices(dim, 1)
    m, c, dd = iu.size, 1.0 / math.sqrt(2.0), dim * dim
    urow = np.zeros((dd, 2), dtype=np.intp)
    uval = np.zeros((dd, 2), dtype=np.complex128)
    diagonal = np.arange(dim) * (dim + 1)
    urow[diagonal, 0] = np.arange(dim)
    uval[diagonal, 0] = 1.0
    pair = np.column_stack([dim + np.arange(m), dim + m + np.arange(m)])
    for position, sign in ((iu * dim + ju, -1.0), (ju * dim + iu, 1.0)):
        urow[position] = pair
        uval[position] = (c, sign * 1j * c)

    flat, vals, part = [], [], []
    for index, terms in enumerate(parts):
        for weight, left, right in terms:
            (ra, ca, va), (rb, cb, vb) = _coo(left), _coo(right.T)
            r = (ra[:, None] * dim + rb).ravel()
            s = (ca[:, None] * dim + cb).ravel()
            v = weight * np.outer(va, vb).ravel()
            entries = uval[r][:, :, None] * v[:, None, None] * uval[s].conj()[:, None, :]
            flat.append((urow[r][:, :, None] * dd + urow[s][:, None, :]).ravel())
            vals.append(entries.real.ravel())
            part.append(np.full(flat[-1].size, index))
    # one sum over every part's entries, keyed by (part, coordinate pair)
    flat, where = np.unique(np.concatenate(flat), return_inverse=True)
    table = np.bincount(
        np.concatenate(part) * flat.size + where,
        weights=np.concatenate(vals),
        minlength=len(parts) * flat.size,
    ).reshape(len(parts), flat.size)
    keep = np.any(table != 0.0, axis=0)
    rows, cols = np.divmod(flat[keep], dd)
    return rows, cols, table[:, keep]
