"""End-to-end acceptance suite.

Each test covers one numbered criterion and records exactly one pass/fail
summary line (echoed after the pytest run). Tolerances and windows are
pinned; where the simulated physics genuinely disagrees with a pinned
expectation the test fails and the summary line carries the measured
values.
"""

import csv
import json
import time

import numpy as np
import pytest

from hybridbcs import cli
from hybridbcs.dynamics import (
    SystemParams,
    _split,
    particle_hole_transform,
    rhs_total,
)
from hybridbcs.equilibrium import build_ground_state, continuum_gap, solve_gap
from hybridbcs.integrator import Protocol, run_protocol
from hybridbcs.lattice import build_flat_band
from hybridbcs.observables import collapse_index, detect_plateau, exponent_drift, \
    fit_power_law, population_inversion_time
from hybridbcs.oracle import random_physical_state, run_all_checks

U_OVER_W = 1.0
GAMMA_OVER_U = 0.08
ALPHAS = (1.0, 0.5, 0.1, 0.01, 0.0)


def verdict(record, number, passed, detail):
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} -- {detail}"
    record(line)
    assert passed, line


# (n_modes, t_max, samples) per alpha of the loss family; the rest run on
# 1024 modes to tW = 1000 with 400 samples.
LOSS_RUNS = {1.0: (4096, 2000.0, 400), 0.0: (2048, 2500.0, 500)}


@pytest.fixture(scope="module")
def loss_family():
    """Loss quench from the BCS ground state for every interpolation alpha.

    The Lindblad member runs to tW = 2000, where criterion 3 fits its late
    power laws, on a grid whose exponents agree with twice as many modes.
    The no-click member runs longer (its late power law needs the extra
    decade), at tighter tolerance (the pseudospin-length conservation check
    is at 1e-8), and with every mode tracked; its grid is the smallest power
    of two whose revival guard admits tW = 2500.
    """
    family = {}
    for alpha in ALPHAS:
        n_modes, t_max, samples = LOSS_RUNS.get(alpha, (1024, 1000.0, 400))
        grid = build_flat_band(1.0, n_modes)
        ground = build_ground_state(grid, solve_gap(grid, U_OVER_W))
        if alpha == 0.0:
            record, rtol, atol = tuple(range(n_modes)), 1e-10, 1e-13
        else:
            record, rtol, atol = (), 1e-9, 1e-12
        protocol = Protocol(sample_times=np.geomspace(1e-2, t_max, samples),
                            record_modes=record)
        params = SystemParams(u=U_OVER_W, gamma=GAMMA_OVER_U * U_OVER_W, pump=0.0,
                              alpha=alpha, grid=grid)
        family[alpha] = run_protocol(ground, params, protocol, rtol=rtol, atol=atol)
    return family


@pytest.fixture(scope="module")
def balanced_family():
    """Balanced loss/pump drive at alpha = 1 and alpha = 0 with tracked
    particle-hole mode pairs."""
    grid = build_flat_band(1.0, 512)
    ground = build_ground_state(grid, solve_gap(grid, U_OVER_W))
    track = tuple(grid.nearest_mode(e) for e in (-0.25, -0.05, 0.05, 0.25))
    protocol = Protocol(sample_times=np.geomspace(1e-2, 300.0, 400),
                        record_modes=track)
    family = {}
    for alpha, rtol in ((1.0, 1e-9), (0.0, 1e-10)):
        params = SystemParams(u=U_OVER_W, gamma=GAMMA_OVER_U * U_OVER_W,
                              pump=GAMMA_OVER_U * U_OVER_W,
                              alpha=alpha, grid=grid)
        family[alpha] = run_protocol(ground, params, protocol,
                                     rtol=rtol, atol=rtol * 1e-3)
    return family


def test_criterion_1_oracle(record_criterion):
    start = time.monotonic()
    reports = run_all_checks(seeds=20)
    elapsed = time.monotonic() - start
    all_ok = all(r.passed for r in reports)
    detail = (f"{sum(r.passed for r in reports)}/{len(reports)} checks passed, "
              f"worst residuals "
              + ", ".join(f"{r.name}={r.worst_residual:.2e}" for r in reports)
              + f", runtime {elapsed:.1f}s")
    verdict(record_criterion, 1, all_ok and elapsed <= 60.0, detail)


def test_criterion_2_equilibrium(record_criterion):
    grid_fine = build_flat_band(1.0, 4096)
    gap_errors = [abs(solve_gap(grid_fine, u) - continuum_gap(1.0, u))
                  for u in (0.5, 1.0)]

    grid = build_flat_band(1.0, 512)
    drift = 0.0
    for u in (0.5, 1.0):
        ground = build_ground_state(grid, solve_gap(grid, u))
        params = SystemParams(u=u, gamma=0.0, pump=0.0, alpha=1.0, grid=grid)
        protocol = Protocol(sample_times=np.geomspace(1.0, 100.0, 50))
        series = run_protocol(ground, params, protocol, rtol=1e-10, atol=1e-13)
        n0 = 2.0 * np.sum(grid.weights * ground.n_k)
        delta0 = np.sum(grid.weights * ground.d_k)
        drift = max(drift,
                    np.max(np.abs(series.n - n0)),
                    np.max(np.abs(series.delta - delta0)),
                    np.max(np.abs(series.zeta_mean - series.zeta_mean[0])))
    passed = drift <= 1e-8 and max(gap_errors) <= 1e-6
    detail = (f"max observable drift {drift:.2e} (tol 1e-8), "
              f"gap error {max(gap_errors):.2e} (tol 1e-6)")
    verdict(record_criterion, 2, passed, detail)


def test_criterion_3_lindblad_exponents(record_criterion, loss_family):
    # Once Delta has collapsed, n = 1/(1/n0 + Gamma t) reaches its t^-1 law
    # only from tW ~ 500 on, and on the flat band |Delta| decays as
    # 1/(t^2 ln^2(W t)) (derivation in README.md): the |Delta| fit divides
    # out the logarithm (W = 1 here).
    series = loss_family[1.0]
    window = (500.0, 2000.0)
    drift_n, fit_n, _ = exponent_drift(series.t, series.n, window)
    reduced = series.abs_delta * np.log(series.t) ** 2
    drift_d, fit_d, _ = exponent_drift(series.t, reduced, window)
    ok_n = abs(fit_n.exponent + 1.0) <= 0.05 and drift_n < 0.1
    ok_d = abs(fit_d.exponent + 2.0) <= 0.1 and drift_d < 0.1
    detail = (f"window {window}: n exponent {fit_n.exponent:+.3f} "
              f"(want -1.00 +/- 0.05, drift {drift_n:.3f}), "
              f"|Delta| ln^2(Wt) exponent {fit_d.exponent:+.3f} "
              f"(want -2.0 +/- 0.1, drift {drift_d:.3f})")
    verdict(record_criterion, 3, ok_n and ok_d, detail)


def test_criterion_4_no_click_limit(record_criterion, loss_family):
    series = loss_family[0.0]
    lindblad = loss_family[1.0]

    zeta_dev = float(np.max(np.abs(series.zeta - 1.0)))
    ok_a = zeta_dev <= 1e-8

    # Plateau detection after the order-parameter collapse, at the pinned
    # log-log slope bound, with the plateau window opening before tW = 100.
    start = collapse_index(series.abs_delta)
    plateau = detect_plateau(series.t[start:], series.n[start:])
    ok_b = plateau.found and plateau.window[0] <= 100.0

    fit_d = fit_power_law(series.t, series.abs_delta, (250.0, 2500.0))
    ok_c = abs(fit_d.exponent + 1.0) <= 0.1

    # Quasi-steady density against the Lindblad density at the same time.
    t_ref = plateau.window[0] if plateau.found else 100.0
    n_nh = float(np.interp(t_ref, series.t, series.n))
    n_lindblad = float(np.interp(t_ref, lindblad.t, lindblad.n))
    ok_d = (plateau.value if plateau.found else n_nh) > n_lindblad

    detail = (f"(a) max |zeta-1| {zeta_dev:.2e} (tol 1e-8); "
              f"(b) plateau found={plateau.found}"
              + (f" window {plateau.window[0]:.0f}-{plateau.window[1]:.0f}"
                 if plateau.found else "")
              + f" (slope bound 0.02, need start <= 100); "
              f"(c) |Delta| exponent {fit_d.exponent:+.3f} on (250, 2500) "
              f"(want -1.0 +/- 0.1); "
              f"(d) quasi-steady n {n_nh:.2e} vs Lindblad n {n_lindblad:.2e} "
              f"at tW = {t_ref:.0f} (need NH larger)")
    verdict(record_criterion, 4, ok_a and ok_b and ok_c and ok_d, detail)


def test_criterion_5_interpolation(record_criterion, loss_family):
    crossings = []
    for alpha in ALPHAS:
        series = loss_family[alpha]
        below = np.where(series.n < 0.5)[0]
        assert len(below), f"density never crosses 0.5 at alpha={alpha}"
        i = below[0]
        t_cross = float(np.interp(0.5, [series.n[i], series.n[i - 1]],
                                  [series.t[i], series.t[i - 1]]))
        crossings.append(t_cross)
    increasing = all(b > a for a, b in zip(crossings, crossings[1:]))
    detail = ("n = 0.5 crossing times for alpha "
              + ", ".join(f"{a:g}: {t:.2f}" for a, t in zip(ALPHAS, crossings))
              + " (need strictly increasing as alpha decreases)")
    verdict(record_criterion, 5, increasing, detail)


def test_criterion_6_zeno(record_criterion, tmp_path):
    # No-click loss scan through the CLI: 1024 modes is the smallest
    # power-of-two grid whose revival guard admits tW = 1000, and the log
    # samples start at 1e-5 t_max = 1e-2. The plateau is searched after the
    # collapse, at the plateau rule's pinned slope bound 0.02.
    gammas = [0.04, 0.08, 0.16, 0.32]
    cfg = {
        "band": {"width": 1.0, "n_modes": 1024},
        "interaction": {"u_over_w": U_OVER_W},
        "dissipation": {"gamma_over_u": gammas[0], "p_over_u": 0.0, "alpha": 0.0},
        "time": {"t_max_w": 1000.0, "samples": 350, "spacing": "log"},
        "output": {"path": str(tmp_path / "zeno.csv")},
    }
    config = tmp_path / "zeno.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["scan", "--config", str(config), "--axis", "gamma",
                     "--values", ",".join(f"{g:g}" for g in gammas),
                     "--workers", "2"]) == 0
    with open(tmp_path / "zeno_gamma_summary.csv", newline="") as handle:
        plateau_n = [float(row[7]) for row in list(csv.reader(handle))[1:]]
    values = [None if np.isnan(v) else v for v in plateau_n]
    all_found = all(v is not None for v in values)
    increasing = all_found and all(b > a for a, b in zip(values, values[1:]))
    detail = ("plateau density per Gamma/|U| "
              + ", ".join(f"{g:g}: " + (f"{v:.2e}" if v is not None else "none")
                          for g, v in zip(gammas, values))
              + " (slope bound 0.02, need all found and strictly increasing)")
    verdict(record_criterion, 6, increasing, detail)


def test_criterion_7_balanced_drive(record_criterion, balanced_family):
    n_dev = max(float(np.max(np.abs(s.n - 1.0)))
                for s in balanced_family.values())
    ok_a = n_dev <= 1e-10

    lind = balanced_family[1.0]
    late = lind.t >= 250.0
    occ_dev = float(np.max(np.abs(0.5 * (1.0 + lind.sz[-1]) - 0.5)))
    amp_lind = float(np.max(np.sqrt(lind.sx[late] ** 2 + lind.sy[late] ** 2)))
    ok_b = occ_dev <= 1e-3 and amp_lind < 1e-3

    nh = balanced_family[0.0]
    zeta_dev = float(np.max(np.abs(nh.zeta_mean - 1.0)))
    amp = np.sqrt(nh.sx ** 2 + nh.sy ** 2)
    early = (nh.t >= 1.0) & (nh.t <= 10.0)
    final = nh.t >= 250.0
    ratio = float(np.min(np.max(amp[final], axis=0) / np.max(amp[early], axis=0)))
    fit_d = fit_power_law(nh.t, nh.abs_delta, (30.0, 300.0))
    t_inv = population_inversion_time(nh)
    ok_c = (zeta_dev <= 1e-8 and ratio >= 0.5
            and abs(fit_d.exponent + 1.0) <= 0.2 and t_inv is not None)

    passed = ok_a and ok_b and ok_c
    detail = (f"(a) max |n-1| {n_dev:.1e} (tol 1e-10); "
              f"(b) alpha=1 occupation dev {occ_dev:.1e}, late transverse "
              f"amplitude {amp_lind:.1e} (tol 1e-3); "
              f"(c) alpha=0 |zeta_mean-1| {zeta_dev:.1e} (tol 1e-8), "
              f"amplitude retention {ratio:.2f} (need >= 0.5), "
              f"|Delta| exponent {fit_d.exponent:+.3f} (want -1.0 +/- 0.2), "
              f"inversion at tW = "
              + (f"{t_inv:.1f}" if t_inv is not None else "never"))
    verdict(record_criterion, 7, passed, detail)


def test_criterion_8_duality_and_determinism(record_criterion, tmp_path,
                                             monkeypatch):
    grid = build_flat_band(1.0, 128)
    rng = np.random.default_rng(42)
    duality = 0.0
    for _ in range(100):
        state = random_physical_state(rng, 128)
        # (Gamma, P, alpha) maps to (P, Gamma, alpha).
        alpha = rng.uniform(0.0, 1.0)
        forward = SystemParams(u=1.0, gamma=0.3, pump=0.2, alpha=alpha, grid=grid)
        dual = SystemParams(u=1.0, gamma=0.2, pump=0.3, alpha=alpha, grid=grid)
        dn1, dd1 = _split(rhs_total(state, forward))
        dn2, dd2 = _split(rhs_total(particle_hole_transform(state, grid), dual))
        duality = max(duality,
                      float(np.max(np.abs(dn2 + dn1[::-1]))),
                      float(np.max(np.abs(dd2 + np.conj(dd1[::-1])))))
    ok_duality = duality <= 1e-12

    ground = build_ground_state(grid, solve_gap(grid, 1.0))
    params = SystemParams(u=1.0, gamma=0.08, pump=0.0, alpha=0.5, grid=grid)
    protocol = Protocol(sample_times=np.geomspace(0.1, 50.0, 40))
    first = run_protocol(ground, params, protocol)
    second = run_protocol(ground, params, protocol)
    ok_repeat = (np.array_equal(first.n, second.n)
                 and np.array_equal(first.delta, second.delta))

    cfg = {
        "band": {"width": 1.0, "n_modes": 64},
        "interaction": {"u_over_w": 1.0},
        "dissipation": {"gamma_over_u": 0.08, "p_over_u": 0.0, "alpha": 1.0},
        "time": {"t_max_w": 20.0, "samples": 25, "spacing": "log"},
        "output": {"path": str(tmp_path / "serial.csv")},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["scan", "--config", str(config), "--axis", "alpha",
                     "--values", "1.0,0.5", "--workers", "1"]) == 0
    cfg["output"]["path"] = str(tmp_path / "pooled.csv")
    config.write_text(json.dumps(cfg))
    assert cli.main(["scan", "--config", str(config), "--axis", "alpha",
                     "--values", "1.0,0.5", "--workers", "2"]) == 0
    cross = 0.0
    for value in ("1", "0.5"):
        serial = np.loadtxt(tmp_path / f"serial_alpha_{value}.csv",
                            delimiter=",", skiprows=1)
        pooled = np.loadtxt(tmp_path / f"pooled_alpha_{value}.csv",
                            delimiter=",", skiprows=1)
        cross = max(cross, float(np.max(np.abs(serial - pooled))))
    ok_cross = cross <= 1e-12

    passed = ok_duality and ok_repeat and ok_cross
    detail = (f"duality residual {duality:.2e} (tol 1e-12); repeat runs "
              f"bit-identical: {ok_repeat}; cross-worker deviation {cross:.1e} "
              f"(tol 1e-12)")
    verdict(record_criterion, 8, passed, detail)
