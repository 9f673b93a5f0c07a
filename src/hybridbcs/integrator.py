"""Time integration and quench-protocol execution.

The stepper is the embedded Dormand-Prince 8(5,3) method DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.10) with PI step-size control; the
dissipative dynamics mixes fast exponential transients with slow power-law
tails spanning several decades of time, so error-controlled steps are
essential.

The rates are on from the initial time: the quench is instantaneous. The
stepper shortens only its last step, to end on the last sample time. A sample
inside a step comes from the 7th-order dense output of DOP853 (ibid., sec.
II.6, Hairer's contd8), so recorded times equal requested times bit-for-bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import BcsState, density, order_parameter, pseudospin, rhs_total
from .errors import ConfigurationError, StepUnderflowError
from .lattice import revival_time

# Dormand-Prince 8(5,3) tableau: the coefficients of Hairer's dop853 code,
# each written as the shortest decimal that rounds to the same double. Row 12
# of _A holds the 8th-order weights, so stage 12 is f at the new point (first
# same as last); rows 13-15 are the extra stages of the dense output. _E stacks
# the 5th- and 3rd-order error rows _E5 and _E3 (the weights minus bhh1..bhh3).
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A = np.zeros((16, 16))
_A[1, 0] = 0.05260015195876773
_A[2, :2] = [0.0197250569845379, 0.0591751709536137]
_A[3, [0, 2]] = [0.02958758547680685, 0.08876275643042054]
_A[4, [0, 2, 3]] = [0.2413651341592667, -0.8845494793282861, 0.924834003261792]
_A[5, [0, 3, 4]] = [0.037037037037037035, 0.17082860872947386, 0.12546768756682242]
_A[6, np.r_[0, 3:6]] = [0.037109375, 0.17025221101954405, 0.06021653898045596,
                        -0.017578125]
_A[7, np.r_[0, 3:7]] = [0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
                        -0.015319437748624402, 0.008273789163814023]
_A[8, np.r_[0, 3:8]] = [0.6241109587160757, -3.3608926294469414, -0.868219346841726,
                        27.59209969944671, 20.154067550477894, -43.48988418106996]
_A[9, np.r_[0, 3:9]] = [0.47766253643826434, -2.4881146199716677, -0.590290826836843,
                        21.230051448181193, 15.279233632882423, -33.28821096898486,
                        -0.020331201708508627]
_A[10, np.r_[0, 3:10]] = [-0.9371424300859873, 5.186372428844064, 1.0914373489967295,
                          -8.149787010746927, -18.52006565999696, 22.739487099350505,
                          2.4936055526796523, -3.0467644718982196]
_A[11, np.r_[0, 3:11]] = [2.273310147516538, -10.53449546673725, -2.0008720582248625,
                          -17.9589318631188, 27.94888452941996, -2.8589982771350235,
                          -8.87285693353063, 12.360567175794303, 0.6433927460157636]
_A[12, np.r_[0, 5:12]] = [0.054293734116568765, 4.450312892752409, 1.8915178993145003,
                          -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
                          0.20136540080403034, 0.04471061572777259]
_A[13, np.r_[0, 6:13]] = [0.056167502283047954, 0.25350021021662483, -0.2462390374708025,
                          -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
                          0.007567897660545699, -0.008298]
_A[14, np.r_[0, 5:8, 10:14]] = [
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
    0.1413124436746325]
_A[15, np.r_[0, 5:9, 12:15]] = [
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]
_E5 = np.zeros(13)
_E5[np.r_[0, 5:12]] = [0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
                       1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                       0.08192320648511571, -0.022355307863886294]
_E3 = _A[12, :13].copy()
_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
_E = np.array([_E5, _E3])
# The dense output in stage weights: y(t_old + x h) = y_old + h w(x) k, where
# w(x) = x (W0 + (1-x) (W1 + x (W2 + ...))) over the rows of _W, which are
# Hairer's rcont2..rcont8 written in the stages: b, e0 - b, 2b - e0 - e12, D.
_W = np.zeros((7, 16))
_W[:3] = [_A[12], np.eye(16)[0] - _A[12], 2.0 * _A[12] - np.eye(16)[0] - np.eye(16)[12]]
_W[3:, np.r_[0, 5:16]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564]]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents; Hairer's error norm scales like dt^8.
_K_I = 0.7 / 8.0
_K_P = 0.4 / 8.0
# A run may take _BUDGET_BASE + _BUDGET_PER_WT W (t_end - t0) attempts, rejections
# included; converged runs take about 10 per unit W t at rtol 1e-12.
_BUDGET_BASE = 1000
_BUDGET_PER_WT = 100
_RTOL_FLOOR = 10 * np.finfo(float).eps  # dop853's floor: doubles cannot meet a smaller rtol
# Error norms with a larger sum of squares (or an overflowed one) are summed again
# over the rows / 2**e of _scaled; below it, dt and the state size, each under
# 2**100, cannot overflow the norm's formula.
_SQUARES_MAX = 2.0 ** 900


def check_run(initial, params, protocol, rtol, atol):
    """Raise ConfigurationError unless run_protocol can start on these inputs: the state
    fits the grid, the samples and modes can be recorded, and the run can meet rtol and
    atol up to its last sample time, inside the revival guard. run_protocol calls it
    first and scan on every value before its first run; AdaptiveStepper checks none."""
    grid, times = params.grid, protocol.sample_times
    if len(initial.n_k) != grid.n_modes:
        raise ConfigurationError("initial state does not match the grid")
    if not times[0] >= initial.t:
        raise ConfigurationError(
            f"first sample time {times[0]} precedes the initial time {initial.t}")
    if not all(0 <= m < grid.n_modes for m in protocol.record_modes):
        raise ConfigurationError(f"record_modes must lie in [0, {grid.n_modes})")
    if not (rtol > 0 and atol > 0):
        raise ConfigurationError("rtol and atol must be positive")
    if rtol <= _RTOL_FLOOR:
        raise ConfigurationError(f"rtol must exceed {_RTOL_FLOOR:.1e}, 10 machine epsilons")
    guard = initial.t + 0.4 * revival_time(grid)  # dephasing runs from initial.t
    if not times[-1] <= guard:
        raise ConfigurationError(
            f"last sample time {times[-1]} exceeds the dephasing revival guard {guard:.3g}; "
            "increase n_modes")


def _scaled(x):
    """x divided in place by 2**e, and e, with 2**e above max |x|: the squares cannot
    overflow, and a power of 2 divides exactly, so a norm scaled back keeps its bits."""
    e = int(np.frexp(np.max(np.abs(x)))[1])
    return np.ldexp(x, -e, out=x), e


class AdaptiveStepper:
    """Embedded 8(5,3) stepper with PI control, FSAL reuse and dense output.

    The stepper runs from initial.t to t_end and shortens only its last step to
    end there; samples inside a step come from sample(), the 7th-order
    interpolant. Row 12 of the (16, size) stage buffer, f at the new point, is
    filled by __init__ and copied into row 0 as a step starts, so sample() finds
    the last step's stages intact. Two BcsState copies of initial take turns as
    self.state and the stage target, in whose stack rows each stage is combined
    before rhs_total writes f into its row of the buffer, so a step allocates and
    copies no state-sized array. Their out is None between calls, so rhs_total
    called on self.state or on sample()'s state writes a fresh array. Overflow in
    the stages is silenced once per __init__ or _stages call, not per RHS
    evaluation, and reported by rhs_total's finite check. An attempt costs twelve
    RHS evaluations and a step sample() reads three more; n_evals counts all,
    n_dense those steps. self.dt is the next step's proposal.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, params, initial, t_end, rtol, atol):
        self.params = params
        self.t_end = t_end
        self.rtol = rtol
        self.atol = atol
        width = params.grid.bandwidth
        self.min_step = 1e-12 / width
        self.budget = _BUDGET_BASE + _BUDGET_PER_WT * width * (t_end - initial.t)
        self.n_steps = self.n_rejected = self.n_dense = 0
        self.dt_min = self.dt_max = None
        self._err_prev = 1.0
        *self._bufs, self._out = (BcsState(initial.t, initial.n_k, initial.d_k)
                                  for _ in range(3))
        self.state = self._bufs[0]
        self._dense_at = self._h = 0  # the step whose extra stages are in k; last dt
        y = self.state.y
        self._k = np.empty((16, y.size))
        self._err = np.empty((3, y.size))  # the scale, then the two error rows
        self._k[12] = f0 = rhs_total(self.state, params)
        self.n_evals = 1
        scale = atol + rtol * np.abs(y)
        d0, d1 = (np.ldexp(np.sqrt(np.mean(x ** 2)), e)
                  for x, e in map(_scaled, (y / scale, f0 / scale)))
        self.dt = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6

    @np.errstate(over="ignore", invalid="ignore")
    def _stages(self, rows, h, y, t, stage):
        """Evaluate the stages in rows of a step of size h from (t, y) into self._k."""
        a, k = h * _A, self._k
        for i in rows:
            np.dot(a[i, :i], k[:i], out=stage.y)
            stage.y += y
            stage.t = t + _C[i] * h
            stage.out = k[i]
            rhs_total(stage, self.params)
        stage.out = None
        self.n_evals += len(rows)

    def _error_norm(self, dt, y, y_new):
        """Hairer's DOP853 norm: the 5th-order estimate damped by the 3rd-order one."""
        scale, rows = self._err[0], self._err[1:]
        np.maximum(np.abs(y, out=scale), np.abs(y_new, out=rows[0]), out=scale)
        scale *= self.rtol
        scale += self.atol
        np.dot(_E, self._k[:13], out=rows)
        rows /= scale
        e5, e3 = np.einsum("ij,ij->i", rows, rows)
        e = 0
        if max(e5, e3) > _SQUARES_MAX:
            rows, e = _scaled(rows)
            e5, e3 = np.einsum("ij,ij->i", rows, rows)
        return np.ldexp(abs(dt) * e5 / np.sqrt((e5 + 0.01 * e3) * y.size), e) \
            if e5 or e3 else 0.0

    def step(self):
        """Advance self.state by one accepted step, ending on t_end if it would pass it."""
        state, stage = self._bufs
        y, t = state.y, state.t
        self._k[0] = self._k[12]
        while True:
            if self.n_steps + self.n_rejected >= self.budget:
                raise StepUnderflowError(
                    f"step budget {self.budget:.0f} exhausted at t={t}", t=t)
            hit = self.dt >= self.t_end - t
            dt_try = self.t_end - t if hit else self.dt
            self._stages(range(1, 13), dt_try, y, t, stage)
            err = self._error_norm(dt_try, y, stage.y)
            if err <= 1.0:
                self.n_steps += 1
                self._h = dt_try
                self.dt_min = min(self.dt_min or dt_try, dt_try)
                self.dt_max = max(self.dt_max or dt_try, dt_try)
                err_floor = max(err, 1e-16)
                factor = min(_MAX_FACTOR,
                             _SAFETY * err_floor ** -_K_I * self._err_prev ** _K_P)
                self._err_prev = err_floor
                stage.t = self.t_end if hit else t + dt_try
                self._bufs.reverse()
                self.state = stage
                self.dt = dt_try * factor
                return
            self.n_rejected += 1
            self.dt = dt_try * max(_MIN_FACTOR, _SAFETY * err ** -0.125)
            if self.dt < self.min_step:
                raise StepUnderflowError(f"step size underflow at t={t}", t=t)

    def sample(self, t):
        """The state at t inside the last accepted step; the next call overwrites it."""
        h, old, out = self._h, self._bufs[1], self._out
        if self._dense_at != self.n_steps:  # the extra stages, once per step
            self._stages(range(13, 16), h, old.y, old.t, out)
            self.n_dense += 1
            self._dense_at = self.n_steps
        x = (t - old.t) / h
        np.dot(h * (np.cumprod([x, 1.0 - x] * 3 + [x]) @ _W), self._k, out=out.y)
        out.y += old.y
        out.t = t
        return out


@dataclass(frozen=True)
class Protocol:
    """Sample schedule of a quench; the last sample time ends the run."""

    sample_times: np.ndarray
    record_modes: tuple = ()

    def __post_init__(self):
        times = np.asarray(self.sample_times, dtype=float)
        object.__setattr__(self, "sample_times", times)
        # int() would truncate a float mode and read True as mode 1.
        if not all(isinstance(m, (int, np.integer)) and not isinstance(m, bool)
                   for m in self.record_modes):
            raise ConfigurationError("record_modes must be integers")
        object.__setattr__(self, "record_modes", tuple(map(int, self.record_modes)))
        # Written so that NaN fails each comparison.
        if times.size == 0 or not (np.all(np.diff(times) > 0) and np.isfinite(times[-1])):
            raise ConfigurationError("sample_times must be finite and strictly increasing")
        if not times[0] >= 0:
            raise ConfigurationError("sample_times must be non-negative")


@dataclass
class TimeSeries:
    """Sampled observables of one run, one row per requested sample time."""

    t: np.ndarray
    n: np.ndarray
    delta: np.ndarray
    zeta_mean: np.ndarray
    tracked_modes: np.ndarray
    tracked_energies: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    zeta: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def abs_delta(self):
        return np.abs(self.delta)

    def columns(self):
        """The CSV columns as ordered (name, values) pairs, four per tracked mode."""
        cols = [("t_w", self.t * self.metadata["bandwidth"]), ("n", self.n),
                ("re_delta", self.delta.real), ("im_delta", self.delta.imag),
                ("abs_delta", self.abs_delta), ("zeta_mean", self.zeta_mean)]
        for i, m in enumerate(self.tracked_modes):
            cols += [(f"sx_{m}", self.sx[:, i]), (f"sy_{m}", self.sy[:, i]),
                     (f"sz_{m}", self.sz[:, i]), (f"zeta_{m}", self.zeta[:, i])]
        return cols


def run_protocol(initial, params, protocol, rtol=1e-9, atol=1e-12):
    """Integrate the hybrid dynamics, recording observables at sample times.

    The quench is instantaneous: the rates act from initial.t on with no
    ramping. Raises IntegrationError subclasses carrying the failure time.
    """
    check_run(initial, params, protocol, rtol, atol)
    grid, modes = params.grid, np.array(protocol.record_modes, dtype=int)
    n_samples, n_tracked = len(protocol.sample_times), len(modes)
    series = TimeSeries(
        t=protocol.sample_times.copy(), n=np.empty(n_samples),
        delta=np.empty(n_samples, dtype=complex), zeta_mean=np.empty(n_samples),
        tracked_modes=modes, tracked_energies=grid.energies[modes],
        sx=np.empty((n_samples, n_tracked)), sy=np.empty((n_samples, n_tracked)),
        sz=np.empty((n_samples, n_tracked)), zeta=np.empty((n_samples, n_tracked)),
        metadata={"bandwidth": grid.bandwidth,
                  "params": {"u": params.u, "gamma": params.gamma, "pump": params.pump,
                             "alpha": params.alpha}})

    stepper = AdaptiveStepper(params, initial, protocol.sample_times[-1], rtol, atol)
    for i, t_sample in enumerate(protocol.sample_times):
        while (t := stepper.state.t) < t_sample:
            stepper.step()
        state = stepper.state if t == t_sample else stepper.sample(t_sample)
        series.n[i] = density(state, grid)
        series.delta[i] = order_parameter(state, grid)
        *spins, series.zeta_mean[i] = pseudospin(state, grid)
        for column, values in zip((series.sx, series.sy, series.sz, series.zeta), spins):
            column[i] = values[modes]

    series.metadata["integrator"] = {
        "method": "DOP853", "rtol": rtol, "atol": atol,
        "steps": stepper.n_steps, "rejections": stepper.n_rejected,
        "rhs_evals": stepper.n_evals, "dense_steps": stepper.n_dense,
        "dt_min": stepper.dt_min, "dt_max": stepper.dt_max}
    return series
