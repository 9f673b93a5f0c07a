import dataclasses
import os
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest

from scipy.linalg import expm

from hybridbcs import cli, fock, oracle
from hybridbcs.dynamics import BcsState, _split
from hybridbcs.errors import ConfigurationError
from hybridbcs.oracle import (
    MomentumCluster,
    propagated_rhs,
    random_physical_state,
    run_all_checks,
    run_eom_suite,
    run_hf_suite,
    run_nh_suite,
    run_norm_conserving_suite,
)


PROPAGATOR_SUITES = (run_eom_suite, run_norm_conserving_suite, run_nh_suite)


def test_car_relations():
    c = fock.annihilation_operators(3)
    # Jordan-Wigner by Kronecker products: Z on the modes before j, a on j.
    lower, z, one = np.array([[0, 1], [0, 0]]), np.diag([1, -1]), np.eye(2)
    kron = [reduce(np.kron, [z] * j + [lower] + [one] * (2 - j)) for j in range(3)]
    assert np.array_equal(c, kron)
    eye = np.eye(8)
    for a in range(3):
        for b in range(3):
            anti = fock.anticommutator(c[a], fock.dagger(c[b]))
            assert np.allclose(anti, eye if a == b else 0.0, atol=1e-14)
            assert np.allclose(fock.anticommutator(c[a], c[b]), 0.0, atol=1e-14)


def test_pair_condensate_expectations():
    # Two channels on JW-adjacent modes (0, 1) and (2, 3): their Kronecker
    # product carries each channel's (n, Delta) with no string between them.
    c = fock.annihilation_operators(4)
    n_vals = [0.3, 0.6]
    d_vals = [0.2 + 0.1j, 0.25j]
    rho = np.kron(fock.pair_block(n_vals[0], d_vals[0]), fock.pair_block(n_vals[1], d_vals[1]))
    assert abs(np.trace(rho) - 1.0) < 1e-13
    for p, (a, b) in enumerate([(0, 1), (2, 3)]):
        for j in (a, b):
            occ = fock.expectation(rho, fock.dagger(c[j]) @ c[j])
            assert abs(occ - n_vals[p]) < 1e-13
        pair = fock.expectation(rho, fock.dagger(c[a]) @ fock.dagger(c[b]))
        assert abs(pair - d_vals[p]) < 1e-13


def test_pair_condensate_purity_on_unit_shell():
    # |Delta|^2 = n(1-n) makes the pair block a pure state.
    n = 0.35
    rho = fock.pair_block(n, np.sqrt(n * (1 - n)))
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-12


def test_pair_condensate_is_positive():
    evals = np.linalg.eigvalsh(fock.pair_block(0.4, 0.2 + 0.3j))
    assert np.min(evals) > -1e-14


def test_pair_condensate_rejects_bad_input():
    with pytest.raises(ValueError, match="unphysical"):
        fock.pair_block(0.3, 0.9)


def test_thermal_gaussian_occupations():
    c = fock.annihilation_operators(2)
    h = np.diag([1.0, -0.5])
    rho = fock.thermal_gaussian(c, h)
    for j in range(2):
        occ = fock.expectation(rho, fock.dagger(c[j]) @ c[j])
        assert abs(occ - 1.0 / (1.0 + np.exp(h[j, j]))) < 1e-12
    # No anomalous contractions in a normal Gaussian state.
    anom = fock.expectation(rho, fock.dagger(c[0]) @ fock.dagger(c[1]))
    assert abs(anom) < 1e-14


@pytest.mark.parametrize("n_modes", [3, 4])
def test_thermal_gaussian_matches_expm(n_modes):
    c = fock.annihilation_operators(n_modes)
    rng = np.random.default_rng(n_modes)
    raw = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    h = 0.5 * (raw + raw.conj().T)
    h_many = sum(h[a, b] * fock.dagger(c[a]) @ c[b]
                 for a in range(n_modes) for b in range(n_modes))
    reference = expm(-h_many)
    reference /= np.trace(reference)
    assert np.max(np.abs(fock.thermal_gaussian(c, h) - reference)) < 1e-13


def test_thermal_gaussian_survives_a_large_h():
    # exp(-H) itself overflows here; the state is the projector on the ground state.
    c = fock.annihilation_operators(3)
    raw = np.random.default_rng(5).normal(size=(3, 3, 2)) @ [1.0, 1j]
    rho = fock.thermal_gaussian(c, 1000.0 * (raw + raw.conj().T))
    assert np.all(np.isfinite(rho))
    assert abs(np.trace(rho) - 1.0) < 1e-13
    assert np.max(np.abs(rho @ rho - rho)) < 1e-12


def test_oracle_imports_no_scipy():
    # In a child interpreter: this test process has loaded scipy already.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; from hybridbcs import cli; code = cli.main(['oracle', '--seeds', '2']); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True, timeout=120)
    assert child.stdout.splitlines()[-1] == "0 []"


def test_momentum_cluster_consistency():
    cluster = MomentumCluster(2)
    rng = np.random.default_rng(11)
    state = random_physical_state(rng, 2)
    rho = cluster.gaussian_state(state)
    # Total site occupation equals total momentum occupation.
    n_site = sum(fock.expectation(rho, fock.dagger(op) @ op)
                 for ops in (cluster.site_up, cluster.site_down) for op in ops)
    n_mom = 2.0 * np.sum(state.n_k)
    assert abs(n_site - n_mom) < 1e-12
    # The local pair expectation is the momentum average of Delta_k.
    local_pair = fock.expectation(
        rho, fock.dagger(cluster.site_up[0]) @ fock.dagger(cluster.site_down[0]))
    assert abs(local_pair - np.mean(state.d_k)) < 1e-12


@pytest.mark.parametrize("n_sites", [2, 3])
def test_gaussian_state_carries_its_moments(n_sites):
    # Channel m holds (m up, -m down); on 3 sites channel 1 pairs momenta 1 and 2.
    cluster = MomentumCluster(n_sites)
    state = cluster.random_state(np.random.default_rng(41))
    rho = cluster.gaussian_state(state)
    moments = np.einsum("ij,kji->k", rho, cluster.observables) / np.trace(rho)
    expected = np.concatenate([state.n_k, state.d_k])
    assert np.max(np.abs(moments - expected)) < 1e-13


@pytest.mark.parametrize("n_sites", [2, 3])
def test_random_state_is_even_in_k(n_sites):
    cluster = MomentumCluster(n_sites)
    state = cluster.random_state(np.random.default_rng(17))
    minus = -np.arange(n_sites) % n_sites
    assert np.array_equal(state.n_k[minus], state.n_k)
    assert np.array_equal(state.d_k[minus], state.d_k)
    # The same draws as random_physical_state, with mode 2 (k = -1 on three
    # sites) taking the values of mode 1.
    drawn = random_physical_state(np.random.default_rng(17), n_sites)
    keep = [0, 1, 1][:n_sites]
    assert np.array_equal(state.n_k, drawn.n_k[keep])
    assert np.array_equal(state.d_k, drawn.d_k[keep])


def test_exact_rhs_dimension_mismatch():
    cluster = MomentumCluster(2)
    rho = np.eye(cluster.dim) / cluster.dim
    with pytest.raises(ConfigurationError):
        propagated_rhs(rho, np.eye(4), [], 1.0, cluster.observables[0])
    # Observable stacks whose matrices do not match the state.
    for shape in ((4, 8, 8), (4, cluster.dim, 8), (4, 8, cluster.dim)):
        with pytest.raises(ConfigurationError):
            propagated_rhs(rho, np.eye(cluster.dim), [], 1.0, np.zeros(shape))


@pytest.mark.parametrize("n_sites", [2, 3])
def test_exact_rhs_stack_matches_single_observables(n_sites):
    cluster = MomentumCluster(n_sites)
    state = random_physical_state(np.random.default_rng(21), n_sites)
    rho = cluster.gaussian_state(state)
    h = cluster.mean_field_hamiltonian(np.mean(state.d_k), 1.0)
    singles = [cluster.observables[j] for j in range(2 * n_sites)]
    for gamma, pump in ((0.0, 0.0), (0.3, 0.0), (0.3, 0.25)):
        jumps = cluster.jump_operators(gamma, pump)
        for alpha in (0.0, 0.5, 1.0):
            stacked = propagated_rhs(rho, h, jumps, alpha, cluster.observables)
            one_by_one = [propagated_rhs(rho, h, jumps, alpha, op)
                          for op in singles]
            assert stacked.shape == (2 * n_sites,)
            assert np.max(np.abs(stacked - one_by_one)) <= 1e-14, (gamma, pump, alpha)


def test_exact_rhs_lindblad_trace_preserved():
    # At alpha = 1 the identity observable has zero derivative.
    cluster = MomentumCluster(2)
    rng = np.random.default_rng(5)
    state = random_physical_state(rng, 2)
    rho = cluster.gaussian_state(state)
    h = cluster.mean_field_hamiltonian(np.mean(state.d_k), 1.0)
    jumps = cluster.jump_operators(0.3, 0.2)
    val = propagated_rhs(rho, h, jumps, 1.0, np.eye(cluster.dim))
    assert abs(val) < 1e-13
    # And for any alpha: normalization makes <1> constant by construction.
    val = propagated_rhs(rho, h, jumps, 0.3, np.eye(cluster.dim))
    assert abs(val) < 1e-13


def test_eom_suite_two_sites():
    report = run_eom_suite(seeds=5, n_sites=2)
    assert report.passed, str(report)


def test_eom_suite_three_sites():
    for suite in PROPAGATOR_SUITES:
        report = suite(seeds=3, n_sites=3)
        assert report.passed, str(report)


def test_eom_suite_catches_corruption(monkeypatch):
    # Negative controls for each propagator suite: a 1e-3 perturbation of one
    # mode of either equation, or rhs_total evaluated at an alpha 0.05 off (down
    # from alpha = 1), must trip the 1e-12 gate, and the report names the
    # perturbed operator and mode.
    exact = oracle.rhs_total

    def shifted(shift_n, shift_d):
        def perturbed(state, params):
            dn_k, dd_k = _split(exact(state, params))
            return BcsState(state.t, dn_k + shift_n, dd_k + shift_d).y
        return perturbed

    def wrong_alpha(state, params):
        step = 0.05 if params.alpha < 1.0 else -0.05
        return exact(state, dataclasses.replace(params, alpha=params.alpha + step))

    mode_1 = np.array([0.0, 1e-3])
    for suite in PROPAGATOR_SUITES:
        for perturbed, detail in ((shifted(mode_1, 0.0), "operator=n_k mode=1 "),
                                  (shifted(0.0, mode_1), "operator=Delta_k mode=1 "),
                                  (wrong_alpha, "")):
            monkeypatch.setattr(oracle, "rhs_total", perturbed)
            report = suite(seeds=2, n_sites=2)
            assert not report.passed, (suite.__name__, str(report))
            assert report.worst_residual > 1e-4, (suite.__name__, str(report))
            assert detail in report.detail, report.detail


def test_nan_residual_fails_eom_suite_and_cli(monkeypatch, capsys):
    # NaN loses every `>` comparison; a suite that keeps its worst residual
    # with `>` alone would pass it.
    exact = oracle.rhs_total

    def nan_rhs(state, params):
        deriv = exact(state, params)
        _split(deriv)[0][:] = np.nan
        return deriv

    monkeypatch.setattr(oracle, "rhs_total", nan_rhs)
    report = run_eom_suite(seeds=2, n_sites=2)
    assert not report.passed
    assert report.worst_residual == np.inf
    assert cli.main(["oracle", "--seeds", "2"]) == cli.EXIT_ORACLE
    assert "[FAIL] hybrid-propagator" in capsys.readouterr().out


@pytest.mark.parametrize("target, fake, suite", [
    ("check_hf_trace_identity", lambda **kwargs: np.nan, run_hf_suite),
    ("propagated_rhs", lambda *args: np.nan, run_eom_suite),
    ("propagated_rhs", lambda *args: np.nan, run_norm_conserving_suite),
    ("propagated_rhs", lambda *args: np.nan, run_nh_suite),
])
def test_nan_residual_fails_the_other_suites(monkeypatch, target, fake, suite):
    monkeypatch.setattr(oracle, target, fake)
    assert not suite(seeds=2).passed


def mutated_reference(mutation):
    """propagated_rhs with one term changed where alpha is strictly inside (0, 1)."""

    def reference(rho, hamiltonian, jumps, alpha, observable):
        recycling = alpha ** 2 if mutation == "alpha^2 recycling" else alpha
        gen = oracle._hybrid_liouvillian(rho, hamiltonian, jumps, recycling)
        # The disconnected -Tr(L rho) <O> term of the normalization gets the weight w, not 1.
        w = {"1 - alpha(1 - alpha) disconnected": 1 - alpha * (1 - alpha),
             "no disconnected term": 0.0}.get(mutation, 1.0)
        tr = np.trace(rho)
        ev = lambda mat: np.einsum("ij,...ji->...", mat, observable)
        return ev(gen) / tr - w * ev(rho) * np.trace(gen) / tr ** 2

    return reference


@pytest.mark.parametrize("mutation", ["alpha^2 recycling", "1 - alpha(1 - alpha) disconnected",
                                      "no disconnected term"])
def test_eom_suite_catches_reference_mutations(monkeypatch, mutation):
    # Each mutation leaves the reference unchanged at alpha = 1, and the first
    # two at alpha = 0 as well: only the alpha = 0.5 suite can see them.
    monkeypatch.setattr(oracle, "propagated_rhs", mutated_reference(mutation))
    assert run_norm_conserving_suite(seeds=2).passed
    report = run_eom_suite(seeds=2)
    assert not report.passed
    assert report.worst_residual > 1e-3
    assert "alpha=0.5" in report.detail


def test_hybrid_liouvillian_alpha_structure():
    # The generator the propagator suites trust, pinned without rhs_total: it
    # conserves the trace at alpha = 1, is the non-Hermitian evolution at
    # alpha = 0, and alpha weights the recycling term linearly in between.
    cluster = MomentumCluster(2)
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(2, cluster.dim, cluster.dim)).T @ [1.0, 1j]
    rho = raw @ fock.dagger(raw)
    rho /= np.trace(rho)
    h = cluster.mean_field_hamiltonian(0.2 + 0.1j, 1.0)
    jumps = cluster.jump_operators(0.3, 0.2)
    liouvillian = lambda alpha: oracle._hybrid_liouvillian(rho, h, jumps, alpha)
    assert abs(np.trace(liouvillian(1.0))) < 1e-13
    h_nh = h - 0.5j * sum(fock.dagger(jump) @ jump for jump in jumps)
    no_click = -1j * (h_nh @ rho - rho @ fock.dagger(h_nh))
    assert np.max(np.abs(liouvillian(0.0) - no_click)) < 1e-13
    recycled = sum(jump @ rho @ fock.dagger(jump) for jump in jumps)
    for alpha in (0.3, 0.5, 1.0):
        assert np.max(np.abs(liouvillian(alpha) - liouvillian(0.0) - alpha * recycled)) < 1e-13


def test_propagated_rhs_matches_the_propagator():
    # The derivative of Tr(e^{tL} rho O) / Tr(e^{tL} rho) from a fourth-order
    # central difference of the dense propagator of the 256 x 256 Liouvillian.
    cluster = MomentumCluster(2)
    state = random_physical_state(np.random.default_rng(31), 2)
    rho = cluster.gaussian_state(state)
    h = cluster.mean_field_hamiltonian(np.mean(state.d_k), 1.0)
    jumps = cluster.jump_operators(0.3, 0.2)
    basis = np.eye(cluster.dim ** 2).reshape(-1, cluster.dim, cluster.dim)
    obs = cluster.observables
    for alpha in (0.0, 0.5, 1.0):
        columns = [oracle._hybrid_liouvillian(e, h, jumps, alpha).ravel()
                   for e in basis]
        superop = np.array(columns).T

        def value(t):
            rho_t = (expm(t * superop) @ rho.ravel()).reshape(rho.shape)
            return np.einsum("ij,kji->k", rho_t, obs) / np.trace(rho_t)

        dt = 1e-3
        fd = (8.0 * (value(dt) - value(-dt)) - (value(2 * dt) - value(-2 * dt))) / (12 * dt)
        exact = propagated_rhs(rho, h, jumps, alpha, obs)
        assert np.max(np.abs(fd - exact)) < 1e-9, alpha


def test_hf_suite():
    report = run_hf_suite(seeds=5)
    assert report.passed, str(report)


def test_norm_conserving_suite():
    report = run_norm_conserving_suite(seeds=3)
    assert report.passed, str(report)


def test_nh_suite():
    report = run_nh_suite(seeds=3)
    assert report.passed, str(report)


def test_run_all_checks():
    reports = run_all_checks(seeds=3)
    assert len(reports) == 4
    assert all(r.passed for r in reports), "\n".join(str(r) for r in reports)
    with pytest.raises(ConfigurationError):
        run_all_checks(n_sites=5)
    for suite in PROPAGATOR_SUITES:
        with pytest.raises(ConfigurationError, match="at least one seed"):
            suite(seeds=0)


def test_momentum_cluster_owns_its_grid():
    for n_sites in (2, 3):
        cluster = MomentumCluster(n_sites)
        assert cluster.grid.n_modes == n_sites
        assert abs(cluster.grid.weights.sum() - 1.0) < 1e-15
        assert cluster.observables.shape == (2 * n_sites, cluster.dim, cluster.dim)
    for n_sites in (1, 4, 5):
        with pytest.raises(ConfigurationError):
            MomentumCluster(n_sites)


def test_no_jumps_is_an_empty_stack():
    cluster = MomentumCluster(2)
    state = cluster.random_state(np.random.default_rng(3))
    rho = cluster.gaussian_state(state)
    h = cluster.mean_field_hamiltonian(np.mean(state.d_k), 1.0)
    jumps = cluster.jump_operators(0.0, 0.0)
    assert jumps.shape == (0, cluster.dim, cluster.dim)
    obs = cluster.observables
    # With no jump the generator is -i[H, rho]: d<O>/dt = -i <[O, H]>.
    hamiltonian_only = -1j * np.einsum("ij,kji->k", rho, obs @ h - h @ obs) / np.trace(rho)
    for alpha in (0.0, 0.5, 1.0):
        propagated = propagated_rhs(rho, h, jumps, alpha, obs)
        assert propagated.shape == (4,)
        assert np.max(np.abs(propagated - hamiltonian_only)) < 1e-13


def test_report_formatting():
    report = run_eom_suite(seeds=1, n_sites=2)
    text = str(report)
    assert text.startswith("[PASS]")
    assert "hybrid-propagator" in text
