import textwrap

import numpy as np
import pytest

from hybridbcs.dynamics import (
    BcsState,
    SystemParams,
    _check_finite,
    _split,
    density,
    order_parameter,
    particle_hole_transform,
    rhs_total,
)
from hybridbcs.errors import BlowupError, ConfigurationError
from hybridbcs.lattice import BandGrid, build_flat_band
from hybridbcs.oracle import MomentumCluster


def single_mode_grid():
    return BandGrid(energies=np.array([0.0]), weights=np.array([1.0]), bandwidth=1.0)


def random_state(rng, n_modes, pure=False, margin=0.95):
    n_k = rng.uniform(0.15, 0.85, n_modes)
    cap = n_k * (1.0 - n_k)
    mag2 = cap if pure else rng.uniform(0.0, margin, n_modes) * cap
    phase = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    return BcsState(t=0.0, n_k=n_k, d_k=np.sqrt(mag2) * np.exp(1j * phase))


def test_params_validation():
    grid = build_flat_band(1.0, 4)
    with pytest.raises(ConfigurationError):
        SystemParams(u=-1.0, gamma=0.0, pump=0.0, alpha=1.0, grid=grid)
    for alpha in (1.5, -0.1):
        with pytest.raises(ConfigurationError):
            SystemParams(u=1.0, gamma=0.1, pump=0.0, alpha=alpha, grid=grid)
    # NaN compares False with everything, so it must not pass as a rate.
    for bad in (np.nan, np.inf):
        for key in ("u", "gamma", "pump"):
            rates = {"u": 1.0, "gamma": 0.1, "pump": 0.1, key: bad}
            with pytest.raises(ConfigurationError, match="finite"):
                SystemParams(alpha=0.5, grid=grid, **rates)


def test_state_shape_validation():
    with pytest.raises(ConfigurationError):
        BcsState(t=0.0, n_k=np.zeros(3), d_k=np.zeros(2, dtype=complex))


def test_density_and_order_parameter():
    grid = build_flat_band(1.0, 4)
    state = BcsState(t=0.0, n_k=np.full(4, 0.5), d_k=np.full(4, 0.1 + 0.2j))
    assert abs(density(state, grid) - 1.0) < 1e-15
    assert abs(order_parameter(state, grid) - (0.1 + 0.2j)) < 1e-15


def test_order_parameter_is_bit_identical_at_any_blas_thread_count(run_with_blas_threads):
    # At 262,144 modes OpenBLAS splits an (M, 2) gemv across threads, and
    # Delta's bits then depended on their number; the sums now come from
    # three contiguous rows at once. rhs_total's (3, K) @ (K, M) product,
    # K = 12 at alpha = 0 and 6 at alpha = 1, must keep its bits as well.
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        from hybridbcs.dynamics import (BcsState, SystemParams, density,
                                        order_parameter, rhs_total)
        from hybridbcs.lattice import build_flat_band
        m = 262144
        rng = np.random.default_rng(0)
        state = BcsState(0.0, rng.uniform(0.0, 1.0, m),
                         rng.uniform(-0.5, 0.5, 2 * m).view(complex))
        grid = build_flat_band(1.0, m)
        delta = order_parameter(state, grid)
        print(delta.real.hex(), delta.imag.hex(), density(state, grid).hex())
        for alpha in (0.0, 1.0):
            params = SystemParams(u=1.0, gamma=0.1, pump=0.05, alpha=alpha, grid=grid)
            print(hashlib.sha256(rhs_total(state, params).tobytes()).hexdigest())
    """)
    assert run_with_blas_threads(["-c", script], 1) == run_with_blas_threads(["-c", script], 2)


def test_gap_field():
    # With n_k = 0 (so n = 0) the Lindblad pairing equation reduces to
    # dDelta_k = (2i eps_k - 2P) Delta_k + i Phi, exposing the gap field
    # Phi = (-|U| + i(Gamma - P)) Delta.
    grid = build_flat_band(1.0, 4)
    state = BcsState(t=0.0, n_k=np.zeros(4), d_k=np.full(4, 0.3 + 0j))
    params = SystemParams(u=2.0, gamma=0.5, pump=0.2, alpha=1.0, grid=grid)
    dn_k, dd_k = _split(rhs_total(state, params))
    phi = -1j * (dd_k - (2j * grid.energies - 0.4) * state.d_k)
    assert np.max(np.abs(phi - (-2.0 + 0.3j) * 0.3)) < 1e-15


def test_single_mode_pure_loss():
    # One mode at eps = 0, no pairing: dn_k = -Gamma n n_k with n = 2 n_k.
    grid = single_mode_grid()
    state = BcsState(t=0.0, n_k=np.array([0.5]), d_k=np.array([0.0j]))
    params = SystemParams(u=0.0, gamma=0.4, pump=0.0, alpha=1.0, grid=grid)
    dn_k, dd_k = _split(rhs_total(state, params))
    assert abs(dn_k[0] - (-0.4 * 1.0 * 0.5)) < 1e-15


def test_vacuum_pump_fills_at_rate_2p():
    grid = single_mode_grid()
    state = BcsState(t=0.0, n_k=np.array([0.0]), d_k=np.array([0.0j]))
    params = SystemParams(u=0.0, gamma=0.0, pump=0.3, alpha=1.0, grid=grid)
    dn_k, dd_k = _split(rhs_total(state, params))
    assert abs(dn_k[0] - 0.6) < 1e-15


def test_free_precession():
    # Gamma = P = U = 0: dDelta_k = 2i eps_k Delta_k, dn_k = 0.
    grid = build_flat_band(1.0, 8)
    rng = np.random.default_rng(0)
    state = random_state(rng, 8)
    params = SystemParams(u=0.0, gamma=0.0, pump=0.0, alpha=0.5, grid=grid)
    dn_k, dd_k = _split(rhs_total(state, params))
    assert np.max(np.abs(dn_k)) < 1e-15
    assert np.max(np.abs(dd_k - 2j * grid.energies * state.d_k)) < 1e-15


def test_hybrid_corrections_absent_at_alpha_one():
    # At alpha = 1 the hybrid generator is the Lindblad mean-field generator,
    # written out here with Phi = (-|U| + i(Gamma - P)) Delta.
    grid = build_flat_band(1.0, 8)
    rng = np.random.default_rng(1)
    gamma, pump = 0.3, 0.2
    params = SystemParams(u=1.0, gamma=gamma, pump=pump, alpha=1.0, grid=grid)
    for _ in range(5):
        state = random_state(rng, 8)
        n = density(state, grid)
        delta = order_parameter(state, grid)
        phi = (-1.0 + 1j * (gamma - pump)) * delta
        hole = 1.0 - 0.5 * n
        dn = (-2.0 * np.imag(phi * np.conj(state.d_k)) - gamma * n * state.n_k
              + 2.0 * pump * hole * (1.0 - state.n_k))
        dd = ((2j * grid.energies - gamma * n - 2.0 * pump * hole) * state.d_k
              - 1j * phi * (2.0 * state.n_k - 1.0))
        dn_k, dd_k = _split(rhs_total(state, params))
        assert np.max(np.abs(dn_k - dn)) < 1e-14
        assert np.max(np.abs(dd_k - dd)) < 1e-14


def reference_rhs(state, params):
    # The docstring's Lindblad part and (alpha - 1) corrections, term by term.
    grid = params.grid
    gamma, pump, alpha = params.gamma, params.pump, params.alpha
    n_k, d_k = state.n_k, state.d_k
    n = 2.0 * np.sum(grid.weights * n_k)
    delta = np.sum(grid.weights * d_k)
    phi = (-params.u + 1j * (gamma - pump)) * delta
    hole = 1.0 - 0.5 * n
    h_k = 1.0 - n_k
    abs2 = np.abs(d_k) ** 2
    dn = (-2.0 * np.imag(phi * np.conj(d_k)) - gamma * n * n_k
          + 2.0 * pump * hole * h_k)
    dd = ((2j * grid.energies - gamma * n - 2.0 * pump * hole) * d_k
          - 1j * phi * (2.0 * n_k - 1.0))
    c_l = gamma * (alpha - 1.0)
    c_p = pump * (alpha - 1.0)
    dn = dn + (-c_l * n * (n_k ** 2 - abs2) + 2.0 * c_p * hole * (h_k ** 2 - abs2)
               + 4.0 * np.real(delta * np.conj(d_k)) * (c_p * h_k - c_l * n_k))
    dd = dd + 2.0 * (delta * (c_l * n_k ** 2 + c_p * h_k ** 2)
                     - d_k * (c_l * n * n_k + 2.0 * c_p * hole * h_k)
                     - (c_l + c_p) * np.conj(delta) * d_k ** 2)
    return dn, dd


def test_rhs_matches_term_by_term_reference():
    # rhs_total evaluates the generator in a regrouped coefficient form; the
    # reference keeps the physical terms apart. Random non-uniform weights
    # keep every weighted sum honest (the oracle only sees uniform ones).
    rng = np.random.default_rng(8)
    m = 24
    weights = rng.uniform(0.2, 1.0, m)
    grid = BandGrid(energies=np.sort(rng.uniform(-0.5, 0.5, m)),
                    weights=weights / weights.sum(), bandwidth=1.0)
    worst = 0.0
    for alpha in (0.0, 0.37, 1.0):
        for pump in (0.0, 0.2):
            params = SystemParams(u=1.3, gamma=0.3, pump=pump, alpha=alpha, grid=grid)
            for trial in range(4):
                state = random_state(rng, m)
                if trial == 0:
                    strided = np.empty(2 * m, dtype=complex)
                    strided[::2] = state.d_k
                    state = BcsState(t=0.0, n_k=state.n_k, d_k=strided[::2])
                    assert not state.d_k.flags.c_contiguous
                dn, dd = reference_rhs(state, params)
                dn_k, dd_k = _split(rhs_total(state, params))
                worst = max(worst,
                            np.max(np.abs(dn_k - dn)) / np.max(np.abs(dn)),
                            np.max(np.abs(dd_k - dd)) / np.max(np.abs(dd)))
    assert worst < 1e-13


def test_hybrid_split_composition():
    # The loss and pump corrections enter with the weight (alpha - 1):
    # R_{G,P}(a) = R_{G,P}(1) + (1-a)[R_{G,P}(0) - R_{G,P}(1)], and the
    # correction R_{G,P}(a) - R_{G,P}(1) is the sum of the corrections at
    # (G, 0) and (0, P). The oracle pins the values of R itself.
    grid = build_flat_band(1.0, 8)
    rng = np.random.default_rng(2)

    def rhs(state, gamma, pump, a):
        params = SystemParams(u=1.0, gamma=gamma, pump=pump, alpha=a, grid=grid)
        return np.concatenate(_split(rhs_total(state, params)))

    def correction(state, gamma, pump, a):
        return rhs(state, gamma, pump, a) - rhs(state, gamma, pump, 1.0)

    worst = 0.0
    for _ in range(20):
        state = random_state(rng, 8)
        a = rng.uniform(0.0, 1.0)
        lind = rhs(state, 0.3, 0.2, 1.0)
        expect = lind + (1.0 - a) * (rhs(state, 0.3, 0.2, 0.0) - lind)
        split = correction(state, 0.3, 0.0, a) + correction(state, 0.0, 0.2, a)
        worst = max(worst, np.max(np.abs(rhs(state, 0.3, 0.2, a) - expect)),
                    np.max(np.abs(correction(state, 0.3, 0.2, a) - split)))
    assert worst < 1e-14


def test_lindblad_density_sum_rule():
    # alpha = 1, pure loss: d n/dt = -4 Gamma |Delta|^2 - Gamma n^2.
    grid = build_flat_band(1.0, 16)
    rng = np.random.default_rng(3)
    state = random_state(rng, 16)
    params = SystemParams(u=1.0, gamma=0.3, pump=0.0, alpha=1.0, grid=grid)
    dn_k, dd_k = _split(rhs_total(state, params))
    dn_total = 2.0 * np.sum(grid.weights * dn_k)
    n = density(state, grid)
    delta = order_parameter(state, grid)
    assert abs(dn_total - (-4.0 * 0.3 * abs(delta) ** 2 - 0.3 * n ** 2)) < 1e-13


def zeta_dot(state, deriv):
    dn_k, dd_k = _split(deriv)
    return (8.0 * np.real(np.conj(state.d_k) * dd_k)
            + 4.0 * (2.0 * state.n_k - 1.0) * dn_k)


def test_unit_pseudospin_shell_invariant_at_alpha_zero():
    grid = build_flat_band(1.0, 16)
    rng = np.random.default_rng(4)
    state = random_state(rng, 16, pure=True)
    for gamma, pump in ((0.3, 0.0), (0.0, 0.2), (0.3, 0.2)):
        params = SystemParams(u=1.0, gamma=gamma, pump=pump, alpha=0.0, grid=grid)
        dz = zeta_dot(state, rhs_total(state, params))
        assert np.max(np.abs(dz)) < 1e-13


def test_pure_shell_zeta_decay_rate():
    # On the unit shell the pseudospin length decays as -4 alpha Gamma n n_k
    # under pure losses; losing length is exclusively a recycling effect.
    grid = build_flat_band(1.0, 16)
    rng = np.random.default_rng(5)
    state = random_state(rng, 16, pure=True)
    n = density(state, grid)
    for alpha in (0.25, 0.5, 1.0):
        params = SystemParams(u=1.0, gamma=0.3, pump=0.0, alpha=alpha, grid=grid)
        dz = zeta_dot(state, rhs_total(state, params))
        assert np.max(np.abs(dz + 4.0 * alpha * 0.3 * n * state.n_k)) < 1e-13


def test_particle_hole_duality():
    # n_k -> 1 - n_k, Delta_k -> -Delta_k* with eps -> -eps exchanges the
    # roles of losses and pumps: (Gamma, P, alpha) -> (P, Gamma, alpha).
    grid = build_flat_band(1.0, 16)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        state = random_state(rng, 16)
        a = rng.uniform(0.0, 1.0)
        forward = SystemParams(u=1.0, gamma=0.3, pump=0.2, alpha=a, grid=grid)
        dual = SystemParams(u=1.0, gamma=0.2, pump=0.3, alpha=a, grid=grid)
        dn1, dd1 = _split(rhs_total(state, forward))
        dn2, dd2 = _split(rhs_total(particle_hole_transform(state, grid), dual))
        worst = max(worst,
                    np.max(np.abs(dn2 + dn1[::-1])),
                    np.max(np.abs(dd2 + np.conj(dd1[::-1]))))
    assert worst < 1e-12


def test_particle_hole_transform_is_involution():
    grid = build_flat_band(1.0, 8)
    rng = np.random.default_rng(7)
    state = random_state(rng, 8)
    twice = particle_hole_transform(particle_hole_transform(state, grid), grid)
    assert np.allclose(twice.n_k, state.n_k, atol=1e-15)
    assert np.allclose(twice.d_k, state.d_k, atol=1e-15)


def test_particle_hole_partner_is_the_mirror_mode():
    # The partner of mode k is mode M-1-k on every flat band, including
    # M = 1000, whose reversed energies miss -eps_k by an ulp: the mirror
    # holds there only to the 1e-12 W tolerance.
    eps = build_flat_band(1.0, 1000).energies
    assert 0.0 < np.max(np.abs(eps[::-1] + eps)) <= 1e-12
    rng = np.random.default_rng(8)
    for width, n_modes in ((1.0, 2), (1.0, 16), (1.0, 1000), (3.0, 1000), (1.0, 1024)):
        state = random_state(rng, n_modes)
        dual = particle_hole_transform(state, build_flat_band(width, n_modes))
        assert np.array_equal(dual.n_k, 1.0 - state.n_k[::-1])
        assert np.array_equal(dual.d_k, -np.conj(state.d_k[::-1]))


def test_particle_hole_transform_rejects_a_grid_that_is_not_its_mirror():
    # [-0.3, 0.5] and the 3-site oracle cluster's [0, 0.5, 0.5] have energies
    # without a -eps partner; [0.4, 0.6] weights break a mirrored band.
    uneven = BandGrid(energies=np.array([-0.25, 0.25]), weights=np.array([0.4, 0.6]),
                      bandwidth=1.0)
    for grid in (BandGrid(energies=np.array([-0.3, 0.5]), weights=np.array([0.5, 0.5]),
                          bandwidth=1.0),
                 MomentumCluster(3).grid, uneven):
        state = random_state(np.random.default_rng(9), grid.n_modes)
        with pytest.raises(ConfigurationError, match="mirror"):
            particle_hole_transform(state, grid)


def test_blowup_raises_with_mode_index():
    grid = build_flat_band(1.0, 4)
    state = BcsState(t=1.5, n_k=np.array([0.5, np.nan, 0.5, 0.5]),
                     d_k=np.zeros(4, dtype=complex))
    params = SystemParams(u=1.0, gamma=0.1, pump=0.0, alpha=1.0, grid=grid)
    with pytest.raises(BlowupError) as info:
        rhs_total(state, params)
    # The self-consistent density poisons every mode; the report points at
    # the first non-finite entry.
    assert info.value.mode == 0
    assert info.value.t == 1.5


def test_finite_screen_raises_exactly_on_a_non_finite_entry():
    # rhs_total screens its derivative with one dot product, its sum of
    # squares, and checks the modes one by one only when that is not finite.
    # It must raise, naming the first mode with a non-finite entry, for one
    # NaN entry and for +inf in one mode with -inf in another (their sum is
    # NaN), and must not raise for finite entries whose sum, and so their sum
    # of squares, overflows. Overflow is silenced as the stepper and rhs_total
    # silence it.
    deriv = np.zeros(12)  # four modes: the n_k, Re and Im planes
    deriv[9] = np.nan     # Im dDelta_1
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowupError) as nan:
        _check_finite(deriv, 2.0)
    assert (nan.value.mode, nan.value.t) == (1, 2.0)
    # With W = 4, eps_0 = -1.5 and eps_3 = 1.5: Delta_0 = Delta_3 = 1e308 i
    # overflow Re dDelta_0 = -2 eps_0 Im Delta_0 to +inf and Re dDelta_3 to -inf.
    grid = build_flat_band(4.0, 4)
    params = SystemParams(u=1.0, gamma=0.0, pump=0.0, alpha=1.0, grid=grid)
    state = BcsState(t=0.5, n_k=np.full(4, 0.5), d_k=np.array([1e308j, 0, 0, 1e308j]))
    with pytest.raises(BlowupError) as infs:
        rhs_total(state, params)
    assert (infs.value.mode, infs.value.t) == (0, 0.5)
    # At alpha = 1 nothing is squared: Re Delta_k = 5e307 sign(eps_k) gives
    # finite entries up to 1.5e308 whose sum overflows.
    params = SystemParams(u=1.0, gamma=0.1, pump=0.0, alpha=1.0, grid=grid)
    state = BcsState(t=0.5, n_k=np.full(4, 0.5), d_k=5e307 * np.sign(grid.energies) + 0j)
    deriv = rhs_total(state, params)
    with np.errstate(over="ignore"):
        assert np.isfinite(deriv).all() and deriv.sum() == np.inf
