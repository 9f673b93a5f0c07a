"""Post-processing: power-law fits, plateau detection, inversion times."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_MIN_FIT_SAMPLES = 10
# Plateau rule: log-slope bound, least span and slope-window span (time ratios).
_PLATEAU_SLOPE = 0.02
_PLATEAU_MIN_RATIO = 2.0
_PLATEAU_SMOOTH_RATIO = 2.0


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line in (ln t, ln y) over a time window."""

    exponent: float
    intercept: float
    r_squared: float
    window: tuple


def fit_power_law(t, y, window):
    """Fit y ~ t^p on the window (t_lo, t_hi); its samples must be finite and positive."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ConfigurationError("fit window must satisfy t_lo < t_hi")
    mask = (t >= t_lo) & (t <= t_hi)
    if np.count_nonzero(mask) < _MIN_FIT_SAMPLES:
        raise ConfigurationError(
            f"fewer than {_MIN_FIT_SAMPLES} samples in window ({t_lo}, {t_hi})")
    t, y = t[mask], y[mask]
    if not np.all((0 < t) & (t < np.inf) & (0 < y) & (y < np.inf)):  # NaN fails these
        raise ConfigurationError("power-law fit requires finite, strictly positive data")
    lx, ly = np.log(t), np.log(y)
    if not lx.min() < lx.max():
        raise ConfigurationError(f"the times in window ({t_lo}, {t_hi}) span no interval")
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
    """Latest low-log-slope window of a (log-sampled) series."""

    found: bool
    value: float
    window: tuple


def _local_log_slopes(lx, ly):
    """Least-squares slope of ly on lx over each sample's centered window of
    _PLATEAU_SMOOTH_RATIO in time, from cumulative sums; a central difference
    where the window holds fewer than 3 samples. lx must increase."""
    half = 0.5 * np.log(_PLATEAU_SMOOTH_RATIO)
    lo = np.searchsorted(lx, lx - half, side="left")
    hi = np.searchsorted(lx, lx + half, side="right")
    sums = [np.concatenate(([0.0], np.cumsum(v))) for v in (lx, ly, lx * lx, lx * ly)]
    sx, sy, sxx, sxy = (s[hi] - s[lo] for s in sums)
    count = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (count * sxy - sx * sy) / (count * sxx - sx * sx)
    sparse = count < 3
    slope[sparse] = np.gradient(ly, lx)[sparse]
    return slope


def detect_plateau(t, y):
    """Latest window where |d ln y / d ln t| stays below _PLATEAU_SLOPE.

    The local slope is a least-squares line on (ln t, ln y) over a centered
    window spanning a factor _PLATEAU_SMOOTH_RATIO in time, which averages
    out the persistent oscillations the no-click dynamics rides on top of a
    flat trend (see _local_log_slopes). A plateau must span at least
    _PLATEAU_MIN_RATIO in time. The last such window wins, which skips an
    initial frozen transient in favor of the late quasi-steady regime.
    t must increase and be positive: at t[0] = 0 a single sample would span
    the factor in time. Returns found=False when no qualifying window exists.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(t > 0):  # NaN fails this
        raise ConfigurationError("plateau detection requires strictly positive times")
    if np.any(y <= 0) or len(t) < 3:
        return PlateauReport(False, np.nan, (np.nan, np.nan))
    slope = _local_log_slopes(np.log(t), np.log(y))
    ok = np.abs(slope) <= _PLATEAU_SLOPE
    edges = np.flatnonzero(np.diff(np.concatenate(([0], ok.astype(int), [0]))))
    starts, ends = edges[0::2], edges[1::2] - 1
    wide = np.flatnonzero(t[ends] >= _PLATEAU_MIN_RATIO * t[starts])
    if len(wide) == 0:
        return PlateauReport(False, np.nan, (np.nan, np.nan))
    i, j = starts[wide[-1]], ends[wide[-1]]
    return PlateauReport(
        found=True,
        value=float(np.mean(y[i:j + 1])),
        window=(float(t[i]), float(t[j])),
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
