import csv
import json

import numpy as np
import pytest

from hybridbcs.dynamics import BcsState, pseudospin
from hybridbcs.errors import ConfigurationError
from hybridbcs.integrator import TimeSeries
from hybridbcs import cli, observables
from hybridbcs.lattice import build_flat_band
from hybridbcs.observables import (
    collapse_index,
    detect_plateau,
    exponent_drift,
    fit_power_law,
    population_inversion_time,
)


def test_pseudospin_hand_values():
    grid = build_flat_band(1.0, 2)
    state = BcsState(t=0.0, n_k=np.array([0.75, 0.5]),
                     d_k=np.array([0.1 + 0.2j, 0.0j]))
    sx, sy, sz, zeta_k, zeta_mean = pseudospin(state, grid)
    assert np.allclose(sx, [0.2, 0.0])
    assert np.allclose(sy, [0.4, 0.0])
    assert np.allclose(sz, [0.5, 0.0])
    assert np.allclose(zeta_k, [0.45, 0.0])
    assert abs(zeta_mean - 0.225) < 1e-15


def test_fit_recovers_exact_power_law():
    t = np.geomspace(1.0, 100.0, 50)
    y = 3.0 * t ** -2.0
    fit = fit_power_law(t, y, (1.0, 100.0))
    assert abs(fit.exponent + 2.0) < 1e-12
    assert abs(fit.intercept - np.log(3.0)) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12


def test_fit_scale_equivariance():
    # Rescaling t -> c t leaves the exponent unchanged.
    t = np.geomspace(1.0, 100.0, 60)
    y = t ** -1.5 * (1.0 + 0.01 * np.sin(np.log(t)))
    a = fit_power_law(t, y, (1.0, 100.0))
    b = fit_power_law(7.0 * t, y, (7.0, 700.0))
    assert abs(a.exponent - b.exponent) < 1e-12


def test_fit_window_errors():
    t = np.geomspace(1.0, 100.0, 50)
    y = t ** -1.0
    with pytest.raises(ConfigurationError):
        fit_power_law(t, y, (10.0, 10.0))
    with pytest.raises(ConfigurationError):
        fit_power_law(t, y, (90.0, 100.0))
    with pytest.raises(ConfigurationError):
        fit_power_law(t, -y, (1.0, 100.0))
    # A time at or below 0 in the window used to reach np.log and make
    # np.polyfit raise LinAlgError.
    for t0 in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="strictly positive"):
            fit_power_law(np.r_[t0, t], np.r_[1.0, y], (t0, 100.0))


def test_exponent_drift_vanishes_on_exact_law():
    t = np.geomspace(1.0, 400.0, 120)
    drift, base, doubled = exponent_drift(t, 2.0 * t ** -1.0, (20.0, 400.0))
    assert drift < 1e-12
    assert doubled.window[0] == 10.0


def test_exponent_drift_flags_exponential():
    t = np.geomspace(1.0, 400.0, 120)
    drift, _, _ = exponent_drift(t, np.exp(-0.05 * t), (20.0, 400.0))
    assert drift > 0.5


def test_detect_plateau_finds_flat_segment():
    t = np.geomspace(0.1, 1000.0, 300)
    y = 0.05 + 0.5 * np.exp(-t)
    report = detect_plateau(t, y)
    assert report.found
    assert abs(report.value - 0.05) < 0.002
    assert report.window[1] / report.window[0] > 10.0


def test_detect_plateau_rejects_pure_power_law():
    t = np.geomspace(1.0, 1000.0, 200)
    report = detect_plateau(t, t ** -1.0)
    assert not report.found


def test_local_log_slopes_match_polyfit_loop():
    # Reference: one least-squares line per sample over the samples within a
    # factor 2 in time, a central difference where fewer than 3 fall inside.
    rng = np.random.default_rng(8)
    dense = np.geomspace(1e-2, 1e3, 350)
    sparse = np.geomspace(1.0, 1e6, 20)
    for t, y in ((dense, (2e-3 + np.exp(-dense / 20.0))
                  * (1.0 + 0.02 * rng.standard_normal(350))),
                 (sparse, sparse ** -0.5 * (2.0 + np.sin(sparse)))):
        lx, ly = np.log(t), np.log(y)
        loop = np.gradient(ly, lx)
        for i in range(len(t)):
            mask = np.abs(lx - lx[i]) <= 0.5 * np.log(2.0)
            if np.count_nonzero(mask) >= 3:
                loop[i] = np.polyfit(lx[mask], ly[mask], 1)[0]
        assert np.max(np.abs(observables._local_log_slopes(lx, ly) - loop)) < 1e-9


def test_detect_plateau_reports_latest_window():
    # Two flat segments, the early one the wider: the later one is reported.
    t = np.geomspace(1e-2, 1e3, 400)
    y = np.where(t < 10.0, 1.0, np.where(t < 40.0, (t / 10.0) ** -2.0, 1.0 / 16.0))
    report = detect_plateau(t, y)
    assert report.found
    assert abs(report.value - 1.0 / 16.0) < 1e-12
    assert 40.0 < report.window[0] < 100.0 and report.window[1] == t[-1]


def test_zeno_scan_without_losses(tmp_path):
    # No losses: the ground state is stationary, the scan's plateau is the
    # full series at the initial density 1.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "band": {"width": 1.0, "n_modes": 64},
        "interaction": {"u_over_w": 1.0},
        "dissipation": {"gamma_over_u": 0.0, "p_over_u": 0.0, "alpha": 0.0},
        "time": {"t_max_w": 50.0, "samples": 60, "spacing": "log"},
        "output": {"path": str(tmp_path / "out.csv")},
    }))
    assert cli.main(["scan", "--config", str(config), "--axis", "gamma",
                     "--values", "0"]) == 0
    with open(tmp_path / "out_gamma_summary.csv", newline="") as handle:
        plateau_n = float(list(csv.reader(handle))[1][7])
    assert abs(plateau_n - 1.0) < 1e-7
    with open(tmp_path / "out_gamma_0.csv", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    t, n = data[:, header.index("t_w")], data[:, header.index("n")]
    assert collapse_index(data[:, header.index("abs_delta")]) == 0
    report = detect_plateau(t, n)
    assert report.found and report.value == plateau_n
    assert report.window == (t[0], t[-1])


def test_detect_plateau_handles_bad_input():
    assert not detect_plateau(np.array([1.0, 2.0]), np.array([1.0, 1.0])).found
    t = np.geomspace(1.0, 10.0, 20)
    assert not detect_plateau(t, np.zeros(20)).found


def test_detect_plateau_rejects_non_positive_times():
    # With t[0] = 0 the width test t[end] >= 2 t[start] passed for one sample,
    # so a decaying series reported found=True, value 1.0 on (0.0, 0.0).
    t = np.linspace(0.0, 10.0, 50)
    for times in (t, t - 1.0, np.where(t == t[3], np.nan, t + 1.0)):
        with pytest.raises(ConfigurationError, match="strictly positive times"):
            detect_plateau(times, np.exp(-t))


def test_detect_plateau_rejects_decreasing_times():
    # Flat to t = 30 and falling as 1/t after it: the reversed samples used to
    # give found=False with no error.
    t = np.geomspace(1.0, 1000.0, 200)
    y = np.minimum(1.0, 30.0 / t)
    assert detect_plateau(t, y).found
    for times, values in ((t[::-1], y[::-1]), (np.repeat(t, 2), np.repeat(y, 2))):
        with pytest.raises(ConfigurationError, match="strictly increasing times"):
            detect_plateau(times, values)


def make_series(t, sz, energies):
    m = sz.shape[1]
    empty = np.zeros((len(t), m))
    return TimeSeries(t=t, n=np.zeros(len(t)), delta=np.zeros(len(t), dtype=complex),
                      zeta_mean=np.zeros(len(t)), tracked_modes=np.arange(m),
                      tracked_energies=np.asarray(energies),
                      sx=empty, sy=empty, sz=sz, zeta=empty,
                      metadata={"bandwidth": 1.0})


def test_population_inversion_time():
    t = np.linspace(1.0, 100.0, 400)
    # Below-Fermi occupation decays through the above-Fermi one at t ~ 40.
    n_below = 0.9 * np.exp(-t / 40.0)
    n_above = np.full_like(t, 0.33)
    sz = np.stack([2 * n_below - 1, 2 * n_above - 1], axis=1)
    series = make_series(t, sz, [-0.2, 0.2])
    t_inv = population_inversion_time(series, average_window=5.0)
    assert t_inv is not None
    assert 35.0 < t_inv < 50.0


def test_population_inversion_never_happens():
    t = np.linspace(1.0, 50.0, 100)
    sz = np.stack([np.full_like(t, 0.5), np.full_like(t, -0.5)], axis=1)
    series = make_series(t, sz, [-0.2, 0.2])
    assert population_inversion_time(series, average_window=5.0) is None


def test_population_inversion_requires_pair():
    t = np.linspace(1.0, 50.0, 100)
    sz = np.zeros((100, 2))
    series = make_series(t, sz, [0.1, 0.2])
    with pytest.raises(ConfigurationError):
        population_inversion_time(series)
