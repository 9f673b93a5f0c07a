"""Post-processing: power-law fits, plateau detection, Zeno scans."""

from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams
from .equilibrium import build_ground_state, solve_gap
from .errors import ConfigurationError
from .integrator import Protocol, log_sample_times, run_protocol

_MIN_FIT_SAMPLES = 10


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line in (ln t, ln y) over a time window."""

    exponent: float
    intercept: float
    r_squared: float
    window: tuple


def fit_power_law(t, y, window):
    """Fit y ~ t^p on the window (t_lo, t_hi); all samples must be positive."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ConfigurationError("fit window must satisfy t_lo < t_hi")
    mask = (t >= t_lo) & (t <= t_hi)
    if np.count_nonzero(mask) < _MIN_FIT_SAMPLES:
        raise ConfigurationError(
            f"fewer than {_MIN_FIT_SAMPLES} samples in window ({t_lo}, {t_hi})")
    if np.any(y[mask] <= 0):
        raise ConfigurationError("power-law fit requires strictly positive data")
    lx = np.log(t[mask])
    ly = np.log(y[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(exponent=float(slope), intercept=float(intercept),
                       r_squared=float(r2), window=(float(t_lo), float(t_hi)))


def exponent_drift(t, y, window):
    """Change of the fitted exponent when the window is doubled (t_lo -> t_lo/2).

    Small drift indicates a genuine power law; an exponential masquerading as
    one drifts strongly.
    """
    base = fit_power_law(t, y, window)
    doubled = fit_power_law(t, y, (window[0] / 2.0, window[1]))
    return abs(doubled.exponent - base.exponent), base, doubled


@dataclass(frozen=True)
class PlateauReport:
    """Longest low-log-slope window of a (log-sampled) series."""

    found: bool
    value: float
    window: tuple
    slope_bound: float


def detect_plateau(t, y, slope_threshold=0.02, min_window_ratio=2.0,
                   smooth_ratio=2.0, prefer="longest"):
    """Window where |d ln y / d ln t| stays below slope_threshold.

    The local slope is a least-squares line on (ln t, ln y) over a centered
    window spanning a factor smooth_ratio in time, which averages out the
    persistent oscillations the no-click dynamics rides on top of a flat
    trend; a central finite difference is the fallback where the window is
    too sparse. A plateau must span at least min_window_ratio in time. With
    prefer="longest" the widest window (in log time) wins; with
    prefer="latest" the last one does, which skips an initial frozen
    transient in favor of the late quasi-steady regime. Returns
    found=False when no qualifying window exists.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or len(t) < 3:
        return PlateauReport(False, np.nan, (np.nan, np.nan), np.nan)
    lx = np.log(t)
    ly = np.log(y)
    fallback = np.gradient(ly, lx)
    half = 0.5 * np.log(smooth_ratio)
    slope = np.empty(len(t))
    for i in range(len(t)):
        mask = np.abs(lx - lx[i]) <= half
        if np.count_nonzero(mask) < 3:
            slope[i] = fallback[i]
        else:
            slope[i] = np.polyfit(lx[mask], ly[mask], 1)[0]
    ok = np.abs(slope) <= slope_threshold
    best = None
    i = 0
    while i < len(ok):
        if not ok[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(ok) and ok[j + 1]:
            j += 1
        if t[j] >= min_window_ratio * t[i]:
            span = lx[j] - lx[i]
            if best is None or prefer == "latest" or span > best[0]:
                best = (span, i, j)
        i = j + 1
    if best is None:
        return PlateauReport(False, np.nan, (np.nan, np.nan), np.nan)
    _, i, j = best
    return PlateauReport(
        found=True,
        value=float(np.mean(y[i:j + 1])),
        window=(float(t[i]), float(t[j])),
        slope_bound=float(np.max(np.abs(slope[i:j + 1]))),
    )


def collapse_index(abs_delta):
    """First sample at which |Delta| has fallen below 1% of its initial value.

    The quasi-steady plateau of a loss quench forms after the exponential
    collapse of the order parameter; cutting the series there keeps the
    initial frozen transient from masquerading as the plateau. Without
    losses the order parameter never collapses and the index is 0, so the
    full (constant) series is the plateau.
    """
    abs_delta = np.asarray(abs_delta, dtype=float)
    collapsed = np.flatnonzero(abs_delta < 1e-2 * abs_delta[0])
    return int(collapsed[0]) if len(collapsed) else 0


def zeno_scan(gammas, grid, u, alpha=0.0, t_span=(1e-2, 1e3), samples=400,
              slope_threshold=0.02):
    """Plateau density of the pure-loss quench for each loss rate.

    Runs the loss quench at the given alpha (default: the no-click limit)
    from the BCS ground state and reports the detected quasi-steady plateau
    per rate; times are in units of 1/W for bandwidth-1 grids.
    """
    gap = solve_gap(grid, u)
    ground = build_ground_state(grid, gap)
    t_lo, t_hi = t_span
    protocol = Protocol(t_max=t_hi, sample_times=log_sample_times(t_lo, t_hi, samples))
    results = []
    for gamma in gammas:
        params = SystemParams(u=u, gamma=gamma, pump=0.0,
                              alpha_loss=alpha, alpha_pump=alpha, grid=grid)
        series = run_protocol(ground, params, protocol)
        start = collapse_index(series.abs_delta)
        report = detect_plateau(series.t[start:], series.n[start:],
                                slope_threshold=slope_threshold, prefer="latest")
        results.append((gamma, report))
    return results


def population_inversion_time(series, average_window=10.0):
    """First time the window-averaged occupation below the Fermi level drops
    under the occupation above it; None if it never does.

    Tracked modes must contain at least one particle-hole pair (energies of
    opposite sign); occupations oscillate strongly in the no-click limit, so
    both are averaged over a trailing window before comparison.
    """
    energies = np.asarray(series.tracked_energies)
    below = np.where(energies < 0)[0]
    above = np.where(energies > 0)[0]
    if len(below) == 0 or len(above) == 0:
        raise ConfigurationError(
            "tracked modes must include at least one particle-hole pair")
    # Pick the pair closest in |energy| so the comparison is symmetric.
    pair = min(((b, a) for b in below for a in above),
               key=lambda ba: abs(abs(energies[ba[0]]) - abs(energies[ba[1]])))
    n_below = 0.5 * (1.0 + series.sz[:, pair[0]])
    n_above = 0.5 * (1.0 + series.sz[:, pair[1]])
    t = series.t
    for i in range(len(t)):
        if t[i] < average_window:
            continue
        mask = (t >= t[i] - average_window) & (t <= t[i])
        if np.mean(n_below[mask]) < np.mean(n_above[mask]):
            return float(t[i])
    return None
