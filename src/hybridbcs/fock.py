"""Dense fermionic Fock-space algebra for small clusters.

Operators act on 2^n_modes-dimensional spaces built by Jordan-Wigner:
mode j annihilation is Z x ... x Z x a x 1 x ... x 1 with j Z factors in
front, so signs are fixed once by the mode ordering. Conventions used
throughout the oracle: modes are ordered mode-major, spin-minor, i.e.
(site0 up, site0 down, site1 up, site1 down, ...) for real-space clusters
and the same pattern with momentum labels for momentum-space clusters.
"""

import numpy as np

_A = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_I = np.eye(2)


def annihilation_operators(n_modes):
    """Jordan-Wigner annihilation matrices for n_modes fermionic modes."""
    ops = []
    for j in range(n_modes):
        factors = [_Z] * j + [_A] + [_I] * (n_modes - j - 1)
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ops.append(op.astype(complex))
    return ops


def dagger(op):
    return op.conj().swapaxes(-1, -2)


def anticommutator(a, b):
    return a @ b + b @ a


def commutator(a, b):
    return a @ b - b @ a


def expectation(rho, op):
    """Normalized expectation Tr(rho op) / Tr(rho)."""
    return np.trace(rho @ op) / np.trace(rho)


def thermal_gaussian(c_ops, h_matrix):
    """Normal Gaussian state rho ~ exp(-sum_ab h_ab c_a^dag c_b).

    h_matrix must be Hermitian; the state has zero anomalous contractions.
    """
    from scipy.linalg import expm

    n = len(c_ops)
    h_many = np.zeros_like(c_ops[0])
    for a in range(n):
        for b in range(n):
            if h_matrix[a, b] != 0:
                h_many += h_matrix[a, b] * dagger(c_ops[a]) @ c_ops[b]
    rho = expm(-h_many)
    return rho / np.trace(rho)


def pair_condensate_state(c_ops, pairs, occupations, pair_amplitudes):
    """Gaussian density matrix with prescribed (n, Delta) per mode pair.

    pairs is a list of (a, b) mode-index tuples; for pair p the state has
    <c_a^dag c_a> = <c_b^dag c_b> = occupations[p] and
    <c_a^dag c_b^dag> = pair_amplitudes[p]. Off-diagonal 4-point functions
    are fixed by Wick factorization, which pins the weight of the
    singly-occupied sector: the state is pure exactly when
    |Delta|^2 = n(1 - n). Modes not listed in any pair stay empty.

    Pair members must be adjacent in the Jordan-Wigner ordering (b = a + 1)
    so the pair-raising operator carries no string on other modes and the
    per-pair blocks commute.
    """
    dim = c_ops[0].shape[0]
    rho = np.eye(dim, dtype=complex)
    listed = set()
    for (a, b), n, delta in zip(pairs, occupations, pair_amplitudes):
        if b != a + 1:
            raise ValueError("pair members must be JW-adjacent modes (b = a + 1)")
        listed.update((a, b))
        if abs(delta) ** 2 > n * (1.0 - n) + 1e-12:
            raise ValueError("unphysical pair block: |Delta|^2 > n(1-n)")
        ca, cb = c_ops[a], c_ops[b]
        na, nb = dagger(ca) @ ca, dagger(cb) @ cb
        ha, hb = np.eye(dim) - na, np.eye(dim) - nb
        p11 = n ** 2 + abs(delta) ** 2
        q = n - p11  # = n(1-n) - |Delta|^2, the Wick-fixed mixed weight
        p00 = 1.0 - 2.0 * n + p11
        pair_raise = dagger(ca) @ dagger(cb)
        block = (p00 * ha @ hb + p11 * na @ nb + q * (na @ hb + ha @ nb)
                 + np.conj(delta) * pair_raise + delta * dagger(pair_raise))
        rho = rho @ block  # blocks are even operators on disjoint modes: they commute
    for j, c in enumerate(c_ops):
        if j not in listed:
            rho = rho @ (np.eye(dim) - dagger(c) @ c)
    return rho

