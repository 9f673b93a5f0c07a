"""Exact small-cluster validation of the variational equations of motion.

rhs_total is checked against the exact propagation on clusters of 2 (default)
or 3 sites: on a Gaussian BCS-type Fock state, the t = 0 derivative of the
normalized expectation values under the dense hybrid Liouvillian must reproduce
the variational right-hand side, since all traces Wick-factorize exactly on a
Gaussian state. One suite checks each dynamics of the paper: the hybrid one
(alpha = 0.5), the Lindblad one (alpha = 1) and the no-click limit (alpha = 0).
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import fock
from .dynamics import BcsState, SystemParams, _split, order_parameter, rhs_total
from .errors import ConfigurationError
from .lattice import BandGrid


def _hybrid_liouvillian(rho, hamiltonian, jumps, alpha):
    gen = -1j * fock.commutator(hamiltonian, rho)
    for jump in jumps:
        jd = fock.dagger(jump)
        gen += alpha * jump @ rho @ jd - 0.5 * fock.anticommutator(jd @ jump, rho)
    return gen


def propagated_rhs(rho, hamiltonian, jumps, alpha, observable):
    """d/dt at t = 0 of Tr(e^{tL} rho O) / Tr(e^{tL} rho), for one O or a (K, d, d) stack.

    L is the raw hybrid Liouvillian, which loses trace for alpha < 1; one alpha
    weights every jump, and at alpha = 0, L generates e^{-i H_nh t}.
    """
    if hamiltonian.shape != rho.shape or observable.shape[-2:] != rho.shape:
        raise ConfigurationError("operator dimensions do not match the state")
    gen = _hybrid_liouvillian(rho, hamiltonian, jumps, alpha)
    tr = np.trace(rho)
    ev = lambda mat: np.einsum("ij,...ji->...", mat, observable)
    return ev(gen) / tr - ev(rho) * np.trace(gen) / tr ** 2


def _residual(diff):
    """|diff| with NaN read as inf, so that it wins every `>` and fails every gate."""
    res = np.abs(diff)
    return np.where(np.isnan(res), np.inf, res)


def _report(name, tolerance, results):
    """A CheckReport of the first largest (residual, detail) in results."""
    worst, detail = max([(0.0, ""), *results], key=lambda pair: pair[0])
    return CheckReport(name, worst <= tolerance, worst, tolerance, detail)


def _worst(diff, n_sites):
    """(largest residual, "operator=... mode=...") over the n_k, Delta_k stack."""
    res = _residual(diff)
    worst = int(np.argmax(res))
    operator = "n_k" if worst < n_sites else "Delta_k"
    return res[worst], f"operator={operator} mode={worst % n_sites}"


class MomentumCluster:
    """L-site periodic momentum cluster, L = 2 or 3, with (k up, -k down) pairing.

    It fixes its own band eps(k) = eps(-k) and `grid`, the uniform-weight
    BandGrid of width 1 on it. One rule fixes the Jordan-Wigner layout: pairing
    channel m = (m up, -m down), with -m = (L - m) % L, holds modes 2m and 2m + 1.
    Every channel is then JW-adjacent and even, so a Gaussian pair state is the
    Kronecker product of the channels' 4 x 4 blocks. Site operators are Fourier
    combinations of the momentum operators, as (L, d, d) stacks. observables
    stacks n_k (up spin), then Delta_k.
    """

    def __init__(self, n_sites):
        if n_sites not in (2, 3):
            raise ConfigurationError("oracle supports 2 or 3 sites only")
        energies = np.array([-0.5, 0.5] if n_sites == 2 else [0.0, 0.5, 0.5])
        self.grid = BandGrid(energies, np.full(n_sites, 1.0 / n_sites), bandwidth=1.0)
        self.minus = -np.arange(n_sites) % n_sites
        c = fock.annihilation_operators(2 * n_sites)
        self.dim = c.shape[-1]
        up, down = c[0::2], c[1::2][self.minus]
        # c_{i sigma} = (1/sqrt(L)) sum_k exp(i k r_i) c_{k sigma}
        phases = np.exp(2j * np.pi * np.outer(np.arange(n_sites), np.arange(n_sites))
                        / n_sites) / np.sqrt(n_sites)
        self.site_up, self.site_down = np.einsum("im,smab->siab", phases, [up, down])
        self.site_pairs = self.site_down @ self.site_up
        n_up = fock.dagger(up) @ up
        self.kinetic = np.einsum("m,mab->ab", energies, n_up + fock.dagger(down) @ down)
        self.observables = np.concatenate([n_up, fock.dagger(up) @ fock.dagger(c[1::2])])

    def random_state(self, rng):
        """random_physical_state, with each -k mode copied from its +k partner."""
        state = random_physical_state(rng, self.grid.n_modes)
        plus = np.minimum(np.arange(self.grid.n_modes), self.minus)
        return BcsState(t=0.0, n_k=state.n_k[plus], d_k=state.d_k[plus])

    def gaussian_state(self, state):
        return reduce(np.kron, [fock.pair_block(n, d) for n, d in zip(state.n_k, state.d_k)])

    def mean_field_hamiltonian(self, delta, u):
        """Pairing-channel mean-field Hamiltonian with instantaneous Delta.

        Kinetic part sum_{k sigma} eps_k n_{k sigma} plus the local pairing
        -|U| Delta sum_i c_{i down} c_{i up} + h.c.; no Hartree shift.
        """
        coupling = -u * delta
        pair_sum = self.site_pairs.sum(axis=0)
        return self.kinetic + coupling * pair_sum + np.conj(coupling) * fock.dagger(pair_sum)

    def jump_operators(self, gamma, pump):
        """The per-site pair losses, then pair pumps, as one (K, d, d) stack."""
        losses = [np.sqrt(2.0 * gamma) * p for p in self.site_pairs if gamma > 0]
        pumps = [np.sqrt(2.0 * pump) * fock.dagger(p) for p in self.site_pairs if pump > 0]
        return np.reshape(losses + pumps, (-1, self.dim, self.dim))


@dataclass
class CheckReport:
    name: str
    passed: bool
    worst_residual: float
    tolerance: float
    detail: str = ""

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        line = (f"[{status}] {self.name}: worst residual {self.worst_residual:.3e} "
                f"(tolerance {self.tolerance:.1e})")
        return line + (f" -- {self.detail}" if self.detail else "")


def random_physical_state(rng, n_modes):
    """Random (n_k, Delta_k) with zeta_k <= 1 (sub-unit pseudospin length)."""
    n_k = rng.uniform(0.15, 0.85, size=n_modes)
    mag = np.sqrt(rng.uniform(0.0, 0.95, size=n_modes) * n_k * (1.0 - n_k))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    return BcsState(t=0.0, n_k=n_k, d_k=mag * np.exp(1j * phase))


_RATES = ((0.3, 0.0), (0.0, 0.25), (0.3, 0.25))  # (Gamma, P): loss, pump, both


def _compare(name, alpha, seed_base, seeds, n_sites):
    """rhs_total against propagated_rhs at one alpha and each (Gamma, P) of _RATES.

    Random Gaussian states on MomentumCluster(n_sites) at U = 1; one stacked
    comparison of all 2L observables per (seed, rates), at a gate of 1e-12.
    """
    if seeds < 1:
        raise ConfigurationError(f"oracle needs at least one seed, got {seeds}")
    cluster = MomentumCluster(n_sites)
    results = []
    for seed in range(seeds):
        state = cluster.random_state(np.random.default_rng(seed_base + seed))
        rho = cluster.gaussian_state(state)
        h = cluster.mean_field_hamiltonian(order_parameter(state, cluster.grid), 1.0)
        for gamma, pump in _RATES:
            params = SystemParams(u=1.0, gamma=gamma, pump=pump, alpha=alpha,
                                  grid=cluster.grid)
            exact = propagated_rhs(rho, h, cluster.jump_operators(gamma, pump), alpha,
                                   cluster.observables)
            packed = np.concatenate(_split(rhs_total(state, params)))
            res, detail = _worst(packed - exact, n_sites)
            results.append((res, f"seed={seed} {detail} alpha={alpha} "
                                 f"gamma={gamma} pump={pump}"))
    return _report(name, 1e-12, results)


def run_eom_suite(seeds=20, n_sites=2):
    """The hybrid dynamics, alpha = 0.5: rhs_total against the propagation."""
    return _compare("hybrid-propagator", 0.5, 1000, seeds, n_sites)


def _random_interaction(rng, n_orb):
    """Random U_abcd with U_abcd = U_badc and Hermiticity U*_abcd = U_dcba."""
    raw = rng.normal(size=(n_orb,) * 4) + 1j * rng.normal(size=(n_orb,) * 4)
    sym = raw + raw.transpose(1, 0, 3, 2)
    return 0.5 * (sym + np.conj(sym.transpose(3, 2, 1, 0)))


def check_hf_trace_identity(seed=0, n_orb=4, kappa_single=None):
    """Gaussian trace identity for the generic two-body-loss Liouvillian.

    Tr(rho_aux L_1[rho_0]) must equal Tr(rho_aux L_HF[rho_0]) for a normal
    Gaussian rho_0 and any rho_aux that is (at most) quadratic in the
    fermion operators; operators with more fermion lines can absorb extra
    contractions from the quartic generator, which the single-particle
    reduction by construction drops. Returns the absolute residual.
    """
    rng = np.random.default_rng(7000 + seed)
    c = fock.annihilation_operators(n_orb)
    dim = c[0].shape[0]

    t_hop = rng.normal(size=(n_orb, n_orb)) + 1j * rng.normal(size=(n_orb, n_orb))
    t_hop = 0.5 * (t_hop + t_hop.conj().T)
    u4 = _random_interaction(rng, n_orb)
    if kappa_single is not None:
        a0, b0, val = kappa_single
        kappa = np.zeros((n_orb, n_orb))
        kappa[a0, b0] = val
    else:
        kappa = rng.uniform(0.0, 1.0, size=(n_orb, n_orb))
    s = np.sqrt(kappa)
    # The jump operator only sees the antisymmetric part of sqrt(kappa) (it
    # multiplies c_a c_b), and only that part carries the pair-exchange
    # symmetry the effective couplings rely on.
    s_eff = 0.5 * (s - s.T)

    cd = fock.dagger(c)
    # (n, n, d, d) stacks of c_a^dag c_b, c_a^dag c_b^dag and c_a c_b.
    hop, create, annihilate = (fock.bilinears(*ops) for ops in ((cd, c), (cd, cd), (c, c)))
    # H = sum t_ab c_a^dag c_b + (1/2) sum U_abcd c_a^dag c_b^dag c_c c_d
    h_many = (np.tensordot(t_hop, hop, 2) + 0.5 * np.tensordot(
        create, np.tensordot(u4, annihilate, 2), ((0, 1, 3), (0, 1, 2))))
    jump = np.tensordot(s, annihilate, 2)

    h1 = rng.normal(size=(n_orb, n_orb)) + 1j * rng.normal(size=(n_orb, n_orb))
    rho0 = fock.thermal_gaussian(c, 0.5 * (h1 + h1.conj().T))
    z = rng.normal(size=(3, n_orb, n_orb)) + 1j * rng.normal(size=(3, n_orb, n_orb))
    rho_aux = ((rng.normal() + 1j * rng.normal()) * np.eye(dim, dtype=complex)
               + np.tensordot(z, np.array([hop, create, annihilate]), 3))

    jd = fock.dagger(jump)
    lhs_gen = (-1j * fock.commutator(h_many, rho0)
               + jump @ rho0 @ jd - 0.5 * fock.anticommutator(jd @ jump, rho0))
    lhs = np.trace(rho_aux @ lhs_gen)

    g = fock.expectation(rho0, hop)  # g_ad = <c_a^dag c_d>
    v4 = u4 - u4.transpose(0, 1, 3, 2)
    heff = t_hop + np.einsum("ad,abcd->bc", g, v4)
    h_hf = np.tensordot(heff, hop, 2)

    gamma4 = np.einsum("ba,cd->abcd", s_eff, s_eff)
    gbar = gamma4 - gamma4.transpose(0, 1, 3, 2)
    m_eff = 2.0 * np.einsum("ad,abcd->bc", g, gbar)
    # sum_bc m_bc (c_c rho c_b^dag - (1/2) {c_b^dag c_c, rho}), with X_b = sum_c m_bc c_c
    x = np.tensordot(m_eff, c, 1)
    rhs_gen = (-1j * fock.commutator(h_hf, rho0) + (x @ rho0 @ cd).sum(axis=0)
               - 0.5 * fock.anticommutator(np.tensordot(m_eff, hop, 2), rho0))
    rhs = np.trace(rho_aux @ rhs_gen)
    return abs(lhs - rhs)


def run_hf_suite(seeds=10):
    results = [(_residual(check_hf_trace_identity(seed=seed)), f"seed={seed}")
               for seed in range(seeds)]
    # One kappa entry, so s_eff = (s - s.T)/2 != 0; a symmetric kappa kills the jump.
    results.append((_residual(check_hf_trace_identity(seed=99, kappa_single=(0, 2, 0.7))),
                    "kappa_single"))
    return _report("hf-trace-identity", 1e-12, results)


def run_norm_conserving_suite(seeds=20, n_sites=2):
    """The Lindblad dynamics, alpha = 1, which conserves the trace."""
    return _compare("lindblad-propagator", 1.0, 3000, seeds, n_sites)


def run_nh_suite(seeds=20, n_sites=2):
    """The no-click limit, alpha = 0: the normalized exp(-i H_nh t) propagation."""
    return _compare("no-click-propagator", 0.0, 4000, seeds, n_sites)


def run_all_checks(seeds=20, n_sites=2):
    """All oracle suites; returns a list of CheckReport."""
    return [
        run_eom_suite(seeds=seeds, n_sites=n_sites),
        run_hf_suite(seeds=10),
        run_norm_conserving_suite(seeds=seeds, n_sites=n_sites),
        run_nh_suite(seeds=seeds, n_sites=n_sites),
    ]
