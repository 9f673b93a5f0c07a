"""Time integration and quench-protocol execution.

The stepper is the embedded Dormand-Prince 8(5,3) method DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.10) with PI step-size control; the
dissipative dynamics mixes fast exponential transients with slow power-law
tails spanning several decades of time, so error-controlled steps are
essential.

The rates are on from the initial time: the quench is instantaneous. The
stepper lands exactly on every requested sample time (no dense-output
interpolation), so recorded times equal requested times bit-for-bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import BcsState, density, order_parameter, pseudospin, rhs_total
from .errors import ConfigurationError, StepUnderflowError
from .lattice import revival_time

# Dormand-Prince 8(5,3) tableau: the coefficients of Hairer's dop853 code,
# each written as the shortest decimal that rounds to the same double. Row 12
# of _A holds the 8th-order weights, so stage 12 is f at the new point (first
# same as last). _E5 and _E3 are the 5th- and 3rd-order error rows; _E3 is
# the weights minus Hairer's bhh1..bhh3.
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0])
_A = np.zeros((13, 13))
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
_E5 = np.zeros(13)
_E5[np.r_[0, 5:12]] = [0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
                       1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                       0.08192320648511571, -0.022355307863886294]
_E3 = _A[12].copy()
_E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents; Hairer's error norm scales like dt^8.
_K_I = 0.7 / 8.0
_K_P = 0.4 / 8.0
# A run may take _BUDGET_BASE + samples + _BUDGET_PER_WT W (t_max - t0) steps,
# rejections included; converged runs take about 10 per unit W t at rtol 1e-12.
_BUDGET_BASE = 1000
_BUDGET_PER_WT = 100


def _pack(state):
    """The packed state y = [n_k, Re Delta_0, Im Delta_0, Re Delta_1, ...]."""
    return np.concatenate([state.n_k, np.ascontiguousarray(state.d_k).view(float)])


def _unpack(y, t):
    """A BcsState over views of y: n_k = y[:M] and d_k = y[M:] read as complex."""
    m = y.size // 3
    return BcsState(t=t, n_k=y[:m], d_k=y[m:].view(complex))


def _f(state, params, out):
    """Write the packed derivative at state into out."""
    deriv = rhs_total(state, params)
    np.concatenate([deriv.dn_k, deriv.dd_k.view(float)], out=out)


class AdaptiveStepper:
    """Embedded 8(5,3) stepper with PI control and FSAL reuse.

    The thirteen stage derivatives live in one (13, size) buffer whose row 0
    holds f at the current point: initial_step fills it, and every accepted
    step refills it from the last stage. Two packed buffers, each with one
    BcsState over its views, take turns: the stages write the other one, which
    an accepted step makes self.state. A step attempt costs twelve RHS
    evaluations; n_evals counts them all, dt_min and dt_max the accepted steps.
    """

    def __init__(self, params, initial, rtol, atol, max_step):
        if rtol <= 0 or atol <= 0:
            raise ConfigurationError("rtol and atol must be positive")
        self.params = params
        self.rtol = rtol
        self.atol = atol
        self.max_step = max_step
        self.min_step = 1e-12 / params.grid.bandwidth
        self.n_steps = 0
        self.n_rejected = 0
        self.n_evals = 0
        self.dt_min = self.dt_max = None
        self._err_prev = 1.0
        y = _pack(initial)
        self._bufs = [(buf, _unpack(buf, initial.t)) for buf in (y, np.empty_like(y))]
        self.state = self._bufs[0][1]
        self._k = np.empty((13, y.size))
        self._err = np.empty((3, y.size))  # the scale, then the two error rows

    def initial_step(self):
        """Evaluate f at the current state into the first stage; returns a first dt."""
        y, f0 = self._bufs[0][0], self._k[0]
        _f(self.state, self.params, f0)
        self.n_evals += 1
        scale = self.atol + self.rtol * np.abs(y)
        d0 = np.sqrt(np.mean((y / scale) ** 2))
        d1 = np.sqrt(np.mean((f0 / scale) ** 2))
        dt = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
        return min(dt, self.max_step)

    def _error_norm(self, dt, y, y_new):
        """Hairer's DOP853 norm: the 5th-order estimate damped by the 3rd-order one."""
        scale, rows = self._err[0], self._err[1:]
        np.maximum(np.abs(y, out=scale), np.abs(y_new, out=rows[0]), out=scale)
        scale *= self.rtol
        scale += self.atol
        np.dot(np.array([_E5, _E3]), self._k, out=rows)
        rows /= scale
        e5, e3 = np.einsum("ij,ij->i", rows, rows)
        return abs(dt) * e5 / np.sqrt((e5 + 0.01 * e3) * y.size) if e5 or e3 else 0.0

    def step(self, dt, t_limit):
        """Advance self.state by one accepted step; returns the next proposal.

        The proposal dt is truncated to land exactly on t_limit when it would
        overshoot; a truncated step leaves the proposal for the next step
        unchanged so the controller is not polluted by sampling breakpoints.
        """
        k = self._k
        (y, state), (y_new, stage) = self._bufs
        t = state.t
        while True:
            dt_try = min(dt, self.max_step)
            hit = dt_try >= t_limit - t
            if hit:
                dt_try = t_limit - t
            a = dt_try * _A
            for i in range(1, 13):
                np.dot(a[i, :i], k[:i], out=y_new)
                y_new += y
                stage.t = t + _C[i] * dt_try
                _f(stage, self.params, k[i])
            self.n_evals += 12
            err = self._error_norm(dt_try, y, y_new)
            if err <= 1.0:
                self.n_steps += 1
                self.dt_min = min(self.dt_min or dt_try, dt_try)
                self.dt_max = max(self.dt_max or dt_try, dt_try)
                err_floor = max(err, 1e-16)
                factor = min(_MAX_FACTOR,
                             _SAFETY * err_floor ** -_K_I * self._err_prev ** _K_P)
                self._err_prev = err_floor
                k[0] = k[12]
                stage.t = t_limit if hit else t + dt_try
                self._bufs.reverse()
                self.state = stage
                return dt if hit else dt_try * factor
            self.n_rejected += 1
            dt = dt_try * max(_MIN_FACTOR, _SAFETY * err ** -0.125)
            if dt < self.min_step:
                raise StepUnderflowError(f"step size underflow at t={t}", t=t)


@dataclass(frozen=True)
class Protocol:
    """Sample schedule of a quench; the rates are on from the initial time."""

    t_max: float
    sample_times: np.ndarray
    record_modes: tuple = ()

    def __post_init__(self):
        times = np.asarray(self.sample_times, dtype=float)
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "record_modes", tuple(int(m) for m in self.record_modes))
        if times.size == 0 or np.any(np.diff(times) <= 0):
            raise ConfigurationError("sample_times must be strictly increasing")
        if times[0] < 0 or times[-1] > self.t_max:
            raise ConfigurationError("sample_times must lie within [0, t_max]")


def log_sample_times(t_min, t_max, samples):
    return np.geomspace(t_min, t_max, samples)


def linear_sample_times(t_max, samples):
    return np.linspace(t_max / samples, t_max, samples)


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

    def column(self, name):
        if name == "t_w":
            return self.t * self.metadata.get("bandwidth", 1.0)
        simple = {"n": self.n, "re_delta": self.delta.real, "im_delta": self.delta.imag,
                  "abs_delta": self.abs_delta, "zeta_mean": self.zeta_mean}
        if name in simple:
            return simple[name]
        prefix, _, mode = name.rpartition("_")
        idx = list(self.tracked_modes).index(int(mode))
        per_mode = {"sx": self.sx, "sy": self.sy, "sz": self.sz, "zeta": self.zeta}
        return per_mode[prefix][:, idx]

    def column_names(self):
        names = ["t_w", "n", "re_delta", "im_delta", "abs_delta", "zeta_mean"]
        for m in self.tracked_modes:
            names += [f"sx_{m}", f"sy_{m}", f"sz_{m}", f"zeta_{m}"]
        return names


def run_protocol(initial, params, protocol, rtol=1e-9, atol=1e-12, max_step=np.inf):
    """Integrate the hybrid dynamics, recording observables at sample times.

    The quench is instantaneous: the rates act from initial.t on with no
    ramping. Raises IntegrationError subclasses carrying the failure time.
    """
    grid = params.grid
    if len(initial.n_k) != grid.n_modes:
        raise ConfigurationError("initial state does not match the grid")
    if protocol.sample_times[0] < initial.t:
        raise ConfigurationError(
            f"first sample time {protocol.sample_times[0]} precedes the initial "
            f"time {initial.t}")
    guard = 0.4 * revival_time(grid)
    if protocol.t_max > guard:
        raise ConfigurationError(
            f"t_max={protocol.t_max} exceeds the dephasing revival guard {guard:.3g}; "
            "increase n_modes")

    modes = np.array(protocol.record_modes, dtype=int)
    n_samples = len(protocol.sample_times)
    out = {
        "n": np.empty(n_samples), "delta": np.empty(n_samples, dtype=complex),
        "zeta_mean": np.empty(n_samples),
        "sx": np.empty((n_samples, len(modes))), "sy": np.empty((n_samples, len(modes))),
        "sz": np.empty((n_samples, len(modes))), "zeta": np.empty((n_samples, len(modes))),
    }

    def record(i, state):
        sx, sy, sz, zeta_k, zeta_mean = pseudospin(state, grid)
        out["n"][i] = density(state, grid)
        out["delta"][i] = order_parameter(state, grid)
        out["zeta_mean"][i] = zeta_mean
        out["sx"][i] = sx[modes]
        out["sy"][i] = sy[modes]
        out["sz"][i] = sz[modes]
        out["zeta"][i] = zeta_k[modes]

    stepper = AdaptiveStepper(params, initial, rtol=rtol, atol=atol, max_step=max_step)
    budget = (_BUDGET_BASE + n_samples
              + _BUDGET_PER_WT * grid.bandwidth * (protocol.t_max - initial.t))
    dt = stepper.initial_step()
    for i, t_sample in enumerate(protocol.sample_times):
        while (t := stepper.state.t) < t_sample:
            if stepper.n_steps + stepper.n_rejected > budget:
                raise StepUnderflowError(
                    f"step budget {budget:.0f} exhausted at t={t}", t=t)
            dt = stepper.step(dt, t_sample)
        record(i, stepper.state)

    return TimeSeries(
        t=protocol.sample_times.copy(), n=out["n"], delta=out["delta"],
        zeta_mean=out["zeta_mean"], tracked_modes=modes,
        tracked_energies=grid.energies[modes] if len(modes) else np.array([]),
        sx=out["sx"], sy=out["sy"], sz=out["sz"], zeta=out["zeta"],
        metadata={
            "bandwidth": grid.bandwidth,
            "params": {"u": params.u, "gamma": params.gamma, "pump": params.pump,
                       "alpha": params.alpha},
            "integrator": {"method": "DOP853", "rtol": rtol, "atol": atol,
                           "max_step": max_step, "steps": stepper.n_steps,
                           "rejections": stepper.n_rejected, "rhs_evals": stepper.n_evals,
                           "dt_min": stepper.dt_min, "dt_max": stepper.dt_max},
        })
