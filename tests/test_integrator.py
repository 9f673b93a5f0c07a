import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp

from hybridbcs.dynamics import (
    BcsState,
    SystemParams,
    _split,
    density,
    order_parameter,
    rhs_total,
)
from hybridbcs.equilibrium import build_ground_state, solve_gap
from hybridbcs import integrator
from hybridbcs.errors import BlowupError, ConfigurationError, StepUnderflowError
from hybridbcs.integrator import AdaptiveStepper, Protocol, check_run, run_protocol
from hybridbcs.lattice import build_flat_band


def loss_setup(n_modes=64, gamma=0.08, alpha=1.0):
    grid = build_flat_band(1.0, n_modes)
    ground = build_ground_state(grid, solve_gap(grid, 1.0))
    params = SystemParams(u=1.0, gamma=gamma, pump=0.0, alpha=alpha, grid=grid)
    return grid, ground, params


def test_protocol_validation():
    with pytest.raises(ConfigurationError, match="increasing"):
        Protocol(sample_times=np.array([]))
    with pytest.raises(ConfigurationError, match="increasing"):
        Protocol(sample_times=np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError, match="non-negative"):
        Protocol(sample_times=np.array([-0.5, 2.0]))
    # NaN compares False with everything; it used to pass every check and
    # leave a NaN row in the series.
    for times in ([1.0, np.nan], [np.nan, 1.0], [np.nan], [1.0, np.inf]):
        with pytest.raises(ConfigurationError, match="finite"):
            Protocol(sample_times=np.array(times))
    # A sample before the initial time could never be recorded.
    grid, ground, params = loss_setup(8)
    late = BcsState(t=5.0, n_k=ground.n_k, d_k=ground.d_k)
    with pytest.raises(ConfigurationError, match="precedes"):
        run_protocol(late, params,
                     Protocol(sample_times=np.array([1.0, 6.0, 8.0])))
    with pytest.raises(ConfigurationError, match="precedes"):
        run_protocol(BcsState(t=np.nan, n_k=ground.n_k, d_k=ground.d_k), params,
                     Protocol(sample_times=np.array([1.0])))
    # A mode outside [0, M) would be recorded under another mode's name, or
    # raise IndexError: numpy reads index -1 as mode M - 1.
    for modes in ((-1,), (8,), (3, 8)):
        with pytest.raises(ConfigurationError, match="record_modes"):
            run_protocol(ground, params, Protocol(sample_times=np.array([1.0]),
                                                  record_modes=modes))
    # A float or bool mode used to be truncated: (1.7, True, 2.9) read (1, 1, 2).
    for modes in ((1.7,), (True,), (np.float64(2.9),), (2, np.True_)):
        with pytest.raises(ConfigurationError, match="record_modes must be integers"):
            Protocol(sample_times=np.array([1.0]), record_modes=modes)
    protocol = Protocol(sample_times=np.array([1.0]), record_modes=(np.int64(2), 3))
    assert protocol.record_modes == (2, 3)
    assert all(type(m) is int for m in protocol.record_modes)


def test_fixed_step_order():
    # The stepper advances with the 8th-order weights _A[12]; its error norm
    # reads the embedded 5th- and 3rd-order solutions _A[12] - _E5 and
    # _A[12] - _E3. Stepping at a fixed dt with each set must show its
    # order: one step against two halves shrinks the error by ~2^(p+1).
    grid, ground, params = loss_setup(16, alpha=0.5)
    t_end = 0.5

    def integrate(n_steps, weights):
        y = ground.y
        k = np.empty((12, y.size))
        dt = t_end / n_steps
        for step in range(n_steps):
            t = step * dt
            k[0] = rhs_total(BcsState(t, *_split(y)), params)
            for i in range(1, 12):
                stage = y + dt * (integrator._A[i, :i] @ k[:i])
                k[i] = rhs_total(BcsState(t + integrator._C[i] * dt, *_split(stage)),
                                 params)
            y = y + dt * (weights[:12] @ k)
        return y

    b = integrator._A[12, :13]
    fine = integrate(64, b)
    for weights, low, high in ((b, 7.0, 9.0), (b - integrator._E5, 4.7, 5.7),
                               (b - integrator._E3, 2.7, 3.4)):
        err = [np.max(np.abs(integrate(n, weights) - fine)) for n in (1, 2)]
        order = np.log2(err[0] / err[1])
        assert low < order < high, (low, order)


def test_state_layout_round_trip():
    # y = [n_k..., Re Delta_k..., Im Delta_k...] is planar, n_k shares its
    # memory, and a state built from _split(y) gives y back bit for bit,
    # signed zeros and infinities included.
    rng = np.random.default_rng(4)
    d_k = rng.normal(size=6) + 1j * rng.normal(size=6)
    d_k[1], d_k[2] = complex(-0.0, -0.0), complex(-0.0, np.inf)
    state = BcsState(t=0.7, n_k=rng.uniform(0.0, 1.0, 6), d_k=d_k)
    y = state.y
    assert (y[0], y[6], y[12], y[17]) == (state.n_k[0], d_k[0].real,
                                          d_k[0].imag, d_k[5].imag)
    assert np.shares_memory(state.n_k, y)
    assert state.d_k.tobytes() == d_k.tobytes()
    back = BcsState(state.t, *_split(y))
    assert back.t == state.t
    assert back.y.tobytes() == y.tobytes()


def test_stepper_states_leave_the_stage_buffer_alone():
    # stepper.state and sample(t) are BcsStates with out unset, so a direct
    # rhs_total call on one writes a fresh array, not a row of the stage
    # buffer that the next sample inside the same step reads.
    grid, ground, params = loss_setup(16, alpha=0.5)
    stepper = AdaptiveStepper(params, ground, 10.0, rtol=1e-9, atol=1e-12)
    stepper.step()
    t_mid = 0.5 * stepper.state.t
    y_mid = stepper.sample(t_mid).y.copy()
    for state in (stepper.state, stepper.sample(0.7 * stepper.state.t)):
        assert isinstance(state, BcsState) and state.out is None
        rhs_total(state, params)
    assert stepper.sample(t_mid).y.tobytes() == y_mid.tobytes()


def test_blowup_reports_mode_and_time():
    # With W = 4 the top mode has eps_3 = 1.5, so 2i eps_3 Delta_3 with
    # Delta_3 = 1e308 i overflows Re dDelta_3; at alpha = 0.5 the stack's
    # squares of Delta_3 overflow too, while every other mode's entries and
    # the sums over modes stay finite. Both paths must name mode 3 and the
    # time, and raise no RuntimeWarning first (the suite makes those errors).
    grid = build_flat_band(4.0, 4)
    state = BcsState(t=0.25, n_k=np.full(4, 0.5), d_k=np.array([0, 0, 0, 1e308j]))
    for alpha, gamma in ((1.0, 0.0), (0.5, 0.1)):
        params = SystemParams(u=1.0, gamma=gamma, pump=0.0, alpha=alpha, grid=grid)
        with pytest.raises(BlowupError) as direct:
            rhs_total(state, params)
        with pytest.raises(BlowupError) as run:
            run_protocol(state, params, Protocol(sample_times=np.array([1.0])))
        for info in (direct, run):
            assert (info.value.mode, info.value.t) == (3, 0.25)


@pytest.mark.parametrize("alpha", [1.0, 0.0])
def test_steps_allocate_less_than_one_state(alpha):
    # Each stage is combined inside the target state's monomial stack and
    # rhs_total writes its derivative into the stage row, so once warm, ten
    # steps on 4096 modes must peak below one packed state (3M doubles).
    grid, ground, params = loss_setup(4096, alpha=alpha)
    stepper = AdaptiveStepper(params, ground, 100.0, rtol=1e-9, atol=1e-12)
    stepper.step()
    tracemalloc.start()
    try:
        for _ in range(10):
            stepper.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * grid.n_modes * 8, peak


def test_tableau_matches_hairer_dop853():
    # The embedded tableau, the extra stages of the dense output and the
    # interpolant must equal Hairer's dop853 values bit for bit; scipy's
    # DOP853 carries the same values.
    from scipy.integrate._ivp import dop853_coefficients as ref
    assert np.array_equal(integrator._A[:12, :12], ref.A[:12, :12])
    assert np.array_equal(integrator._A[12, :12], ref.B)
    assert np.array_equal(integrator._A[13:], ref.A[13:])
    assert not np.triu(integrator._A).any()
    assert np.array_equal(integrator._C, ref.C) and integrator._C[12] == 1.0
    assert np.array_equal(integrator._E3, ref.E3)
    assert np.array_equal(integrator._E5, ref.E5)
    # Rows of the interpolant in the stages: scipy's F0 = dy, F1 = h f_old - dy,
    # F2 = 2 dy - h (f_new + f_old) and F3.. = h D k, with dy = h b k.
    e, b = np.eye(16), np.zeros(16)
    b[:12] = ref.B
    want = np.vstack([b, e[0] - b, 2.0 * b - e[0] - e[12], ref.D])
    assert np.array_equal(integrator._W, want)
    # Every stage, the extra ones included, is evaluated at t + c_i h.
    assert np.max(np.abs(integrator._A.sum(axis=1) - integrator._C)) <= 1e-15


def test_adaptive_step_controls_error():
    # Tightening rtol must shrink the error against a tight reference, and
    # the error must stay below the requested tolerance. The run must be
    # long enough that the 8th-order stepper takes tens of steps, or the
    # errors sit at the floor of a handful of steps.
    grid, ground, params = loss_setup(64, alpha=0.5)
    protocol = Protocol(sample_times=np.array([10.0, 20.0, 40.0]))
    ref = run_protocol(ground, params, protocol, rtol=1e-13, atol=1e-15)
    errs, steps = [], []
    for rtol in (1e-5, 1e-7, 1e-9):
        got = run_protocol(ground, params, protocol, rtol=rtol, atol=1e-3 * rtol)
        err = max(np.max(np.abs(got.n - ref.n)), np.max(np.abs(got.delta - ref.delta)))
        assert 0.0 < err < rtol, (rtol, err)
        errs.append(err)
        steps.append(got.metadata["integrator"]["steps"])
    assert errs[0] > 10.0 * errs[1] > 100.0 * errs[2], errs
    assert steps[0] < steps[1] < steps[2], steps
    # Even the rtol = 1e-13 reference uses a small part of the step budget.
    stats = ref.metadata["integrator"]
    assert stats["steps"] + stats["rejections"] < 0.2 * integrator._BUDGET_PER_WT * 40.0


def test_step_budget_stops_a_wrong_error_estimate(monkeypatch):
    # An inconsistent error row shrinks the steps without reaching min_step;
    # the budget of 1000 + 100 W t attempts ends the run in seconds.
    grid, ground, params = loss_setup(16, alpha=0.5)
    bad = integrator._E.copy()
    bad[0, 5] += 1e-3
    bad[0, 6] -= 1e-3
    monkeypatch.setattr(integrator, "_E", bad)
    with pytest.raises(StepUnderflowError, match="step budget 1400"):
        run_protocol(ground, params, Protocol(sample_times=np.array([4.0])))


def test_step_size_underflow_raises():
    # The Im Delta_k that start at 0 grow like dt^2, and their error cannot
    # meet a 1e-30 absolute tolerance: the step shrinks below min_step at t = 0.
    grid, ground, params = loss_setup(16, alpha=0.5)
    with pytest.raises(StepUnderflowError, match="step size underflow at t=0.0"):
        run_protocol(ground, params, Protocol(sample_times=np.array([4.0])),
                     rtol=1e-9, atol=1e-30)


def test_a_tiny_atol_overflows_no_norm():
    # At atol = 1e-300 the scaled state and derivative reach 1e300, whose
    # squares overflowed: a RuntimeWarning, a first step of 0 and a NaN error.
    # Scaled by a power of 2 first, the norms stay finite, and the run fails
    # as it does at atol = 1e-30: the Im Delta_k that start at 0 cannot meet it.
    grid, ground, params = loss_setup(16)
    assert 0.0 < AdaptiveStepper(params, ground, 4.0, rtol=1e-9, atol=1e-300).dt < np.inf
    with pytest.raises(StepUnderflowError, match="step size underflow"):
        run_protocol(ground, params, Protocol(sample_times=np.array([4.0])),
                     rtol=1e-9, atol=1e-300)
    # A power of 2 divides exactly, so a scaled norm keeps the plain one's bits.
    x = np.random.default_rng(0).standard_normal(999) * 1e3
    scaled, e = integrator._scaled(x.copy())
    assert np.ldexp(np.sqrt(np.mean(scaled ** 2)), e) == np.sqrt(np.mean(x ** 2))


def test_tolerances_must_be_positive_and_reachable():
    # An rtol at or below 10 machine epsilons (Hairer's dop853 floor) used to
    # end in StepUnderflowError (1e-30) or a NaN first step (1e-300).
    grid, ground, params = loss_setup(16, alpha=0.5)
    protocol = Protocol(sample_times=np.array([4.0]))
    floor = 10 * np.finfo(float).eps
    for rtol, atol in ((1e-300, 1e-300), (1e-30, 1e-30), (floor, 1e-15), (1e-16, 1.0)):
        with pytest.raises(ConfigurationError, match="rtol must exceed 2.2e-15"):
            check_run(ground, params, protocol, rtol=rtol, atol=atol)
    for rtol, atol in ((0.0, 1e-12), (-1e-9, 1e-12), (1e-9, 0.0), (1e-9, -1.0),
                       (np.nan, 1e-12), (1e-9, np.nan)):
        with pytest.raises(ConfigurationError, match="rtol and atol must be positive"):
            check_run(ground, params, protocol, rtol=rtol, atol=atol)
    check_run(ground, params, protocol, rtol=np.nextafter(floor, 1.0), atol=1e-15)
    # run_protocol makes the same check before its first step.
    with pytest.raises(ConfigurationError, match="rtol must exceed"):
        run_protocol(ground, params, protocol, rtol=floor, atol=1e-15)


def test_dop853_global_order():
    # rtol = atol = 1 accepts every step, so stepping with a fixed proposal h
    # sets the step size; the end-point error of the 8th-order solution
    # shrinks as h^8.
    grid, ground, params = loss_setup(16, alpha=0.5)
    ref = run_protocol(ground, params, Protocol(sample_times=np.array([4.0])),
                       rtol=1e-13, atol=1e-15)
    err = []
    for h in (1.0, 0.5, 0.25):
        stepper = AdaptiveStepper(params, ground, 4.0, rtol=1.0, atol=1.0)
        while stepper.state.t < 4.0:
            stepper.dt = h
            stepper.step()
        assert stepper.n_steps == 4.0 / h and stepper.n_rejected == 0
        n, delta = density(stepper.state, grid), order_parameter(stepper.state, grid)
        err.append(max(abs(n - ref.n[-1]), abs(delta - ref.delta[-1])))
    orders = np.log2(np.array(err[:-1]) / np.array(err[1:]))
    assert np.all((7.0 < orders) & (orders < 9.0)), orders


def test_stationary_state_stays_put():
    grid = build_flat_band(1.0, 64)
    ground = build_ground_state(grid, solve_gap(grid, 1.0))
    params = SystemParams(u=1.0, gamma=0.0, pump=0.0, alpha=1.0, grid=grid)
    protocol = Protocol(sample_times=np.linspace(2.0, 20.0, 10))
    series = run_protocol(ground, params, protocol)
    assert np.max(np.abs(series.n - density(ground, grid))) < 1e-9
    assert np.max(np.abs(series.abs_delta - series.abs_delta[0])) < 1e-9


def test_samples_land_exactly():
    grid, ground, params = loss_setup(64)
    times = np.geomspace(0.01, 30.0, 40)
    series = run_protocol(ground, params, Protocol(sample_times=times))
    assert np.array_equal(series.t, times)


def test_samples_do_not_change_the_steps():
    # The stepper takes its natural steps and shortens only the last one,
    # so 400 log samples and the last sample alone give the same steps and
    # a bit-identical last sample; the interior ones cost no extra step.
    grid, ground, params = loss_setup(64, alpha=0.5)
    times = np.geomspace(1e-4, 30.0, 400)
    full = run_protocol(ground, params, Protocol(sample_times=times,
                                                 record_modes=(0, 63)))
    last = run_protocol(ground, params, Protocol(sample_times=times[-1:],
                                                 record_modes=(0, 63)))
    a, b = full.metadata["integrator"], last.metadata["integrator"]
    assert (a["steps"], a["rejections"]) == (b["steps"], b["rejections"])
    assert a["dense_steps"] > 0 and b["dense_steps"] == 0
    assert a["steps"] < len(times)
    for (name, a), (_, b) in zip(full.columns(), last.columns()):
        assert a[-1] == b[0], name


def test_interior_samples_match_tight_reference():
    # Samples inside a step come from the 7th-order interpolant; they must
    # stay within rtol of an rtol = 1e-13 run, at every sample, for both
    # the Lindblad and the no-click dynamics.
    times = np.linspace(0.05, 40.0, 800)
    protocol = Protocol(sample_times=times, record_modes=(5, 40))
    for alpha in (1.0, 0.0):
        grid, ground, params = loss_setup(64, gamma=0.2, alpha=alpha)
        ref = run_protocol(ground, params, protocol, rtol=1e-13, atol=1e-15)
        for rtol in (1e-7, 1e-9):
            got = run_protocol(ground, params, protocol, rtol=rtol, atol=1e-3 * rtol)
            assert got.metadata["integrator"]["steps"] < 0.2 * len(times)
            for (name, a), (_, b) in zip(got.columns()[1:], ref.columns()[1:]):
                err = np.max(np.abs(a - b))
                assert err < rtol, (alpha, rtol, name, err)


def test_runs_are_bit_identical():
    grid, ground, params = loss_setup(64)
    protocol = Protocol(sample_times=np.geomspace(0.1, 20.0, 25),
                        record_modes=(0, 63))
    a = run_protocol(ground, params, protocol)
    b = run_protocol(ground, params, protocol)
    assert np.array_equal(a.n, b.n)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.sz, b.sz)


def test_matches_scipy_reference():
    grid, ground, params = loss_setup(64)
    t_end = 30.0
    series = run_protocol(ground, params,
                          Protocol(sample_times=np.array([t_end])),
                          rtol=1e-10, atol=1e-13)

    def rhs(t, y):
        return rhs_total(BcsState(t, *_split(y)), params)

    sol = solve_ivp(rhs, (0.0, t_end), ground.y, rtol=1e-10, atol=1e-13,
                    method="RK45")
    n_ref = 2.0 * np.sum(grid.weights * sol.y[:64, -1])
    assert abs(series.n[-1] - n_ref) < 1e-7


def test_revival_guard():
    grid, ground, params = loss_setup(8)
    # guard = 0.4 * pi * 8 ~ 10.1; ask for more.
    # The last sample time is the horizon the guard checks.
    with pytest.raises(ConfigurationError, match="last sample time 50.0 exceeds"):
        run_protocol(ground, params, Protocol(sample_times=np.array([1.0, 50.0])))
    guard = 0.4 * np.pi * 8
    outside, inside = 1.01 * guard, 0.99 * guard
    with pytest.raises(ConfigurationError, match="revival guard"):
        run_protocol(ground, params, Protocol(sample_times=np.array([outside])))
    series = run_protocol(ground, params, Protocol(sample_times=np.array([inside])))
    assert series.t[-1] == inside


def test_pure_loss_density_closed_form():
    # alpha = 1 with Delta = 0 and uniform n_k: the sum rule reduces to
    # dn/dt = -Gamma n^2, so n(t) = n0 / (1 + Gamma n0 t) and Delta stays 0.
    grid = build_flat_band(1.0, 8)
    state = BcsState(t=0.0, n_k=np.full(8, 0.4), d_k=np.zeros(8, dtype=complex))
    params = SystemParams(u=1.0, gamma=0.3, pump=0.0, alpha=1.0, grid=grid)
    protocol = Protocol(sample_times=np.linspace(0.5, 10.0, 20))
    series = run_protocol(state, params, protocol, rtol=1e-12, atol=1e-15)
    n0 = 0.8
    exact = n0 / (1.0 + 0.3 * n0 * series.t)
    assert np.max(np.abs(series.n / exact - 1.0)) < 1e-10
    assert np.all(series.abs_delta == 0.0)


def test_lindblad_density_sum_rule_over_run():
    # alpha = 1, pure loss: dn/dt = -Gamma n^2 - 4 Gamma |Delta|^2 holds
    # exactly, so n(t) - n(0) is the time integral of the sampled right side.
    gamma = 0.08
    grid, ground, params = loss_setup(64, gamma=gamma)
    times = np.linspace(0.0, 20.0, 2001)
    series = run_protocol(ground, params, Protocol(sample_times=times),
                          rtol=1e-12, atol=1e-15)
    rate = -gamma * series.n ** 2 - 4.0 * gamma * series.abs_delta ** 2
    residual = max(abs(series.n[i] - series.n[0] - simpson(rate[:i + 1], x=times[:i + 1]))
                   for i in range(200, len(times), 200))
    assert residual < 1e-9


def test_noclick_pure_loss_closed_form():
    # alpha = 0 with Delta = 0 and uniform n_k = x: the no-click generator
    # reduces to dx/dt = -2 Gamma x^2 (1 - x), solved implicitly by
    # F(x(t)) = F(x0) - 2 Gamma t with F(x) = -1/x + ln(x / (1 - x)).
    grid = build_flat_band(1.0, 8)
    state = BcsState(t=0.0, n_k=np.full(8, 0.4), d_k=np.zeros(8, dtype=complex))
    params = SystemParams(u=1.0, gamma=0.3, pump=0.0, alpha=0.0, grid=grid)
    protocol = Protocol(sample_times=np.linspace(0.5, 10.0, 20))
    series = run_protocol(state, params, protocol, rtol=1e-12, atol=1e-15)

    def big_f(x):
        return -1.0 / x + np.log(x / (1.0 - x))

    x = 0.5 * series.n
    assert np.max(np.abs(big_f(x) - (big_f(0.4) - 2.0 * 0.3 * series.t))) < 1e-9
    assert np.all(series.abs_delta == 0.0)


def test_record_modes_columns():
    grid, ground, params = loss_setup(16)
    series = run_protocol(ground, params,
                          Protocol(sample_times=np.array([5.0]),
                                   record_modes=(3, 12)))
    assert series.sx.shape == (1, 2)
    assert np.allclose(series.tracked_energies, grid.energies[[3, 12]])
    columns = dict(series.columns())
    assert list(columns)[:6] == ["t_w", "n", "re_delta", "im_delta", "abs_delta",
                                 "zeta_mean"]
    assert "sz_12" in columns and "zeta_3" in columns
    assert columns["sz_3"][0] == series.sz[0, 0]
    assert columns["sz_12"][0] == series.sz[0, 1]
    assert columns["t_w"][0] == 5.0


def test_integrator_metadata():
    # One evaluation starts the run, every attempted step costs twelve and
    # every step holding an interior sample three more, also when the first
    # sample is the initial time itself.
    grid, ground, params = loss_setup(32)
    steps, dense = [], []
    for times in ([5.0], [0.0, 5.0], np.linspace(0.0, 5.0, 41)):
        series = run_protocol(ground, params,
                              Protocol(sample_times=np.array(times)))
        stats = series.metadata["integrator"]
        assert stats["steps"] > 0
        assert stats["rtol"] == 1e-9
        assert stats["method"] == "DOP853"
        assert stats["rhs_evals"] == (1 + 12 * (stats["steps"] + stats["rejections"])
                                      + 3 * stats["dense_steps"])
        # The accepted steps, the shortened last one included, span the run.
        assert 0.0 < stats["dt_min"] <= stats["dt_max"]
        assert stats["steps"] * stats["dt_min"] <= 5.0 <= stats["steps"] * stats["dt_max"]
        steps.append(stats["steps"])
        dense.append(stats["dense_steps"])
    assert steps[0] == steps[1] == steps[2]
    assert dense[:2] == [0, 0] and 0 < dense[2] <= steps[2]
    assert series.metadata["params"]["gamma"] == params.gamma
