"""Dense fermionic Fock-space algebra for small clusters.

Operators act on 2^n_modes-dimensional spaces built by Jordan-Wigner:
mode j annihilation is Z x ... x Z x a x 1 x ... x 1 with j Z factors in
front, so signs are fixed once by the mode ordering. The basis of each
factor is (empty, occupied), and mode 0 is the leftmost Kronecker factor.
Which physical mode sits at which index is the caller's rule; the momentum
cluster of the oracle states its own.
"""

import numpy as np


def annihilation_operators(n_modes):
    """Jordan-Wigner annihilation matrices, as an (n_modes, 2^n, 2^n) stack.

    Basis state i holds mode j in bit n_modes - 1 - j, so mode 0 is the leftmost
    Kronecker factor; c_j empties that bit with the sign of the modes before j.
    """
    dim = 2 ** n_modes
    state = np.arange(dim)
    shift = n_modes - 1 - np.arange(n_modes)
    occupied = state >> shift[:, None] & 1  # (n_modes, dim)
    sign = 1 - 2 * ((np.cumsum(occupied, axis=0) - occupied) % 2)
    ops = np.zeros((n_modes, dim, dim), dtype=complex)
    mode, col = np.nonzero(occupied)
    ops[mode, col - (1 << shift[mode]), col] = sign[mode, col]
    return ops


def dagger(op):
    return op.conj().swapaxes(-1, -2)


def anticommutator(a, b):
    return a @ b + b @ a


def commutator(a, b):
    return a @ b - b @ a


def expectation(rho, op):
    """Normalized expectation Tr(rho op) / Tr(rho), for one op or a (..., d, d) stack."""
    return np.einsum("ij,...ji->...", rho, op) / np.trace(rho)


def bilinears(left, right):
    """The (n, n, d, d) stack of products left[a] @ right[b]."""
    return left[:, None] @ right


def thermal_gaussian(c_ops, h_matrix):
    """Normal Gaussian state rho ~ exp(-sum_ab h_ab c_a^dag c_b).

    h_matrix must be Hermitian; the state has zero anomalous contractions.
    The exponential comes from the spectral decomposition of the Hermitian
    many-body matrix, with the eigenvalues shifted by their minimum so that
    no large h overflows.
    """
    h_many = np.tensordot(h_matrix, bilinears(dagger(c_ops), c_ops), 2)
    energies, vectors = np.linalg.eigh(h_many)
    rho = (vectors * np.exp(energies.min() - energies)) @ dagger(vectors)
    return rho / np.trace(rho)


def pair_block(n, delta):
    """One pairing channel's 4 x 4 Gaussian block, on JW-adjacent modes (a, b).

    In the basis |n_a n_b> = |00>, |01>, |10>, |11> the block has
    <c_a^dag c_a> = <c_b^dag c_b> = n and <c_a^dag c_b^dag> = delta. Wick
    factorization fixes the weight of the singly-occupied sector, so the
    block is pure exactly when |delta|^2 = n(1 - n). The block is even, so a
    state of several channels is the Kronecker product of their blocks.
    """
    if abs(delta) ** 2 > n * (1.0 - n) + 1e-12:
        raise ValueError("unphysical pair block: |Delta|^2 > n(1-n)")
    p11 = n ** 2 + abs(delta) ** 2
    q = n - p11  # = n(1-n) - |Delta|^2, the Wick-fixed mixed weight
    block = np.diag([1.0 - 2.0 * n + p11, q, q, p11]).astype(complex)
    block[0, 3] = delta  # <c_a^dag c_b^dag> = Tr(rho |11><00|)
    block[3, 0] = np.conj(delta)
    return block
