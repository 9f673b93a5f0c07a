"""Time integration and quench-protocol execution.

The stepper is the embedded Dormand-Prince 5(4) pair (Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.5) with PI step-size control; the
dissipative dynamics mixes fast exponential transients with slow power-law
tails spanning several decades of time, so error-controlled steps are
essential.

The stepper lands exactly on every requested sample time (no dense-output
interpolation), so recorded times equal requested times bit-for-bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import BcsState, SystemParams, density, order_parameter, pseudospin, rhs_total
from .errors import ConfigurationError, IntegrationError, StepUnderflowError
from .lattice import revival_time

# Dormand-Prince 5(4) tableau (DOPRI5). Row 6 of _A holds the 5th-order
# weights, so the last stage is f at the new point (first same as last).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
# Error row: 5th- minus 4th-order weights.
_E = _A[6] - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 4th-order error estimate.
_K_I = 0.7 / 5.0
_K_P = 0.4 / 5.0


def _pack(state):
    return np.concatenate([state.n_k, state.d_k.real, state.d_k.imag])


def _unpack(y, t):
    m = y.size // 3
    return BcsState(t=t, n_k=y[:m], d_k=y[m:2 * m] + 1j * y[2 * m:])


def _f(y, t, params, out):
    """Write the packed derivative of y = [n_k, Re Delta_k, Im Delta_k] into out."""
    deriv = rhs_total(_unpack(y, t), params)
    np.concatenate([deriv.dn_k, deriv.dd_k.real, deriv.dd_k.imag], out=out)


def _error_norm(err, y, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


class AdaptiveStepper:
    """Embedded 5(4) stepper with PI control and FSAL reuse.

    The seven stage derivatives live in one (7, size) buffer whose row 0
    holds f at the current point: initial_step fills it, and every accepted
    step refills it from the last stage.
    """

    def __init__(self, params, size, rtol=1e-9, atol=1e-12, max_step=np.inf):
        if rtol <= 0 or atol <= 0:
            raise ConfigurationError("rtol and atol must be positive")
        self.params = params
        self.rtol = rtol
        self.atol = atol
        self.max_step = max_step
        self.min_step = 1e-12 / params.grid.bandwidth
        self.n_steps = 0
        self.n_rejected = 0
        self._err_prev = 1.0
        self._k = np.empty((7, size))

    def initial_step(self, y, t):
        """Evaluate f(y, t) into the first stage; returns a first step size."""
        f0 = self._k[0]
        _f(y, t, self.params, f0)
        scale = self.atol + self.rtol * np.abs(y)
        d0 = np.sqrt(np.mean((y / scale) ** 2))
        d1 = np.sqrt(np.mean((f0 / scale) ** 2))
        dt = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
        return min(dt, self.max_step)

    def step(self, y, t, dt, t_limit):
        """Advance by one accepted step; returns (y, t_new, dt_next).

        The proposal dt is truncated to land exactly on t_limit when it would
        overshoot; a truncated step leaves the proposal for the next step
        unchanged so the controller is not polluted by sampling breakpoints.
        """
        k = self._k
        while True:
            dt_try = min(dt, self.max_step)
            hit = dt_try >= t_limit - t
            if hit:
                dt_try = t_limit - t
            for i in range(1, 7):
                y_new = y + dt_try * (_A[i, :i] @ k[:i])
                _f(y_new, t + _C[i] * dt_try, self.params, k[i])
            err = _error_norm(dt_try * (_E @ k), y, y_new, self.rtol, self.atol)
            if err <= 1.0:
                self.n_steps += 1
                err_floor = max(err, 1e-16)
                factor = min(_MAX_FACTOR,
                             _SAFETY * err_floor ** -_K_I * self._err_prev ** _K_P)
                self._err_prev = err_floor
                k[0] = k[6]
                t_new = t_limit if hit else t + dt_try
                dt_next = dt if hit else dt_try * factor
                return y_new, t_new, dt_next
            self.n_rejected += 1
            dt = dt_try * max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            if dt < self.min_step:
                raise StepUnderflowError(f"step size underflow at t={t}", t=t)


@dataclass(frozen=True)
class Protocol:
    """Quench schedule: rates are zero before switch_time and on afterwards."""

    t_max: float
    sample_times: np.ndarray
    switch_time: float = 0.0
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

    The quench is instantaneous: rates are applied from switch_time on with
    no ramping. Raises IntegrationError subclasses carrying the failure time.
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

    off_params = SystemParams(u=params.u, gamma=0.0, pump=0.0,
                              alpha_loss=params.alpha_loss,
                              alpha_pump=params.alpha_pump, grid=grid)

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

    y = _pack(initial)
    stepper = AdaptiveStepper(params, y.size, rtol=rtol, atol=atol, max_step=max_step)
    t = initial.t
    dt = None
    i_sample = 0
    # Breakpoints the stepper must land on: the quench time and every sample.
    events = list(protocol.sample_times)
    if protocol.switch_time > t and protocol.switch_time not in events:
        events = sorted(events + [protocol.switch_time])
    for t_event in events:
        stepper.params = off_params if t < protocol.switch_time else params
        if dt is None:
            dt = stepper.initial_step(y, t)
        while t < t_event:
            y, t, dt = stepper.step(y, t, dt, t_event)
        if i_sample < n_samples and t == protocol.sample_times[i_sample]:
            record(i_sample, _unpack(y, t))
            i_sample += 1
        if t == protocol.switch_time:
            dt = None  # rates change discontinuously; stale FSAL stage invalid
    if i_sample != n_samples:
        raise IntegrationError(f"recorded {i_sample} of {n_samples} sample times", t=t)

    return TimeSeries(
        t=protocol.sample_times.copy(), n=out["n"], delta=out["delta"],
        zeta_mean=out["zeta_mean"], tracked_modes=modes,
        tracked_energies=grid.energies[modes] if len(modes) else np.array([]),
        sx=out["sx"], sy=out["sy"], sz=out["sz"], zeta=out["zeta"],
        metadata={
            "bandwidth": grid.bandwidth,
            "params": {"u": params.u, "gamma": params.gamma, "pump": params.pump,
                       "alpha_loss": params.alpha_loss, "alpha_pump": params.alpha_pump},
            "integrator": {"rtol": rtol, "atol": atol, "max_step": max_step,
                           "steps": stepper.n_steps, "rejections": stepper.n_rejected},
        })
