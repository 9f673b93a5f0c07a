"""Command line interface: run, scan, fit, oracle.

Configuration is a single JSON document with dimensionless parameter ratios
(u_over_w, gamma_over_u, ...); runs write a CSV of sampled observables plus
a JSON sidecar holding the resolved configuration, the grid checksum, and
integrator statistics. Exit codes: 0 success, 2 configuration error,
3 integration failure, 4 oracle failure.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial

import numpy as np

from . import __version__
from .dynamics import SystemParams
from .equilibrium import build_ground_state, solve_gap
from .errors import ConfigurationError, IntegrationError, NoGapSolutionError
from .integrator import Protocol, linear_sample_times, log_sample_times, run_protocol
from .lattice import build_flat_band
from .observables import collapse_index, detect_plateau, fit_power_law
from . import oracle

EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_ORACLE = 4

_SCHEMA = {
    "band": {"width": float, "n_modes": int},
    "interaction": {"u_over_w": float},
    "dissipation": {"gamma_over_u": float, "p_over_u": float, "alpha": float},
    "time": {"t_max_w": float, "samples": int, "spacing": str},
    "integrator": {"rtol": float, "atol": float, "max_step_w": float},
    "output": {"path": str, "track_energies": list},
}
_REQUIRED = {
    "band": ("width", "n_modes"),
    "interaction": ("u_over_w",),
    "dissipation": ("gamma_over_u", "p_over_u", "alpha"),
    "time": ("t_max_w", "samples", "spacing"),
    "output": ("path",),
}
_INTEGRATOR_DEFAULTS = {"rtol": 1e-9, "atol": 1e-12}


def validate_config(raw):
    """Type-check a config dict; unknown keys are rejected with their path."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    for section, content in raw.items():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config key: {section}")
        if not isinstance(content, dict):
            raise ConfigurationError(f"section {section} must be an object")
        for key, value in content.items():
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown config key: {section}.{key}")
            expected = _SCHEMA[section][key]
            if expected is float and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                if not math.isfinite(value):
                    raise ConfigurationError(f"config key {section}.{key} must be finite")
                continue
            if not isinstance(value, expected) or isinstance(value, bool):
                raise ConfigurationError(
                    f"config key {section}.{key} must be {expected.__name__}")
    for section, keys in _REQUIRED.items():
        if section not in raw:
            raise ConfigurationError(f"missing config section: {section}")
        for key in keys:
            if key not in raw[section]:
                raise ConfigurationError(f"missing config key: {section}.{key}")
    if raw["time"]["spacing"] not in ("log", "linear"):
        raise ConfigurationError("config key time.spacing must be 'log' or 'linear'")


def resolve_config(raw):
    """Validate and fill defaults; returns a fully explicit config dict."""
    validate_config(raw)
    cfg = {section: dict(content) for section, content in raw.items()}
    integ = dict(_INTEGRATOR_DEFAULTS)
    # No step can exceed the horizon, so t_max_w bounds the step as
    # infinity would, and keeps the sidecar strict JSON.
    integ["max_step_w"] = cfg["time"]["t_max_w"]
    integ.update(cfg.get("integrator", {}))
    cfg["integrator"] = integ
    cfg["output"].setdefault("track_energies", [])
    return cfg


def grid_checksum(grid):
    digest = hashlib.sha256()
    digest.update(grid.energies.tobytes())
    digest.update(grid.weights.tobytes())
    return digest.hexdigest()


def assemble(cfg):
    """Build (grid, params, protocol, initial state) from a resolved config."""
    width = cfg["band"]["width"]
    grid = build_flat_band(width, cfg["band"]["n_modes"])
    u = cfg["interaction"]["u_over_w"] * width
    dis = cfg["dissipation"]
    params = SystemParams(u=u, gamma=dis["gamma_over_u"] * u,
                          pump=dis["p_over_u"] * u, alpha=dis["alpha"], grid=grid)
    t_max = cfg["time"]["t_max_w"] / width
    samples = cfg["time"]["samples"]
    if samples < 2:
        raise ConfigurationError("config key time.samples must be at least 2")
    if cfg["time"]["spacing"] == "log":
        times = log_sample_times(t_max * 1e-5, t_max, samples)
    else:
        times = linear_sample_times(t_max, samples)
    track = [grid.nearest_mode(e * width) for e in cfg["output"]["track_energies"]]
    protocol = Protocol(t_max=t_max, sample_times=times, record_modes=track)
    initial = build_ground_state(grid, solve_gap(grid, u))
    return grid, params, protocol, initial


def write_csv(path, series):
    names = series.column_names()
    columns = [series.column(name) for name in names]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in zip(*columns):
            writer.writerow([f"{value:.17e}" for value in row])


def write_sidecar(path, cfg, grid, series):
    meta = {
        "config": cfg,
        "grid_checksum": grid_checksum(grid),
        "tracked_modes": [int(m) for m in series.tracked_modes],
        "tracked_energies": [float(e) for e in series.tracked_energies],
        "integrator": series.metadata["integrator"],
        "version": __version__,
    }
    with open(path, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def execute_run(cfg, out_path=None):
    """One full run from a resolved config; returns the TimeSeries."""
    grid, params, protocol, initial = assemble(cfg)
    integ = cfg["integrator"]
    max_step = integ["max_step_w"] / cfg["band"]["width"]
    series = run_protocol(initial, params, protocol,
                          rtol=integ["rtol"], atol=integ["atol"], max_step=max_step)
    path = out_path if out_path is not None else cfg["output"]["path"]
    write_csv(path, series)
    write_sidecar(_sidecar_path(path), cfg, grid, series)
    return series


def _sidecar_path(csv_path):
    root, ext = os.path.splitext(csv_path)
    return root + ".json"


def _load_config(path):
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    return resolve_config(raw)


def cmd_run(args):
    cfg = _load_config(args.config)
    series = execute_run(cfg)
    print(f"wrote {cfg['output']['path']} ({len(series.t)} samples)")
    return 0


_AXIS_KEYS = {"alpha": ("dissipation", "alpha"), "gamma": ("dissipation", "gamma_over_u"),
              "pump": ("dissipation", "p_over_u")}


def _scan_one(cfg_and_path):
    cfg, path = cfg_and_path
    series = execute_run(cfg, out_path=path)
    t_hi = float(series.t[-1])
    window = (t_hi / 10.0, t_hi)
    try:
        exponent_n = fit_power_law(series.t, series.n, window).exponent
    except ConfigurationError:
        exponent_n = float("nan")
    try:
        exponent_d = fit_power_law(series.t, series.abs_delta, window).exponent
    except ConfigurationError:
        exponent_d = float("nan")
    start = collapse_index(series.abs_delta)
    plateau = detect_plateau(series.t[start:], series.n[start:])
    return {
        "n_final": float(series.n[-1]),
        "abs_delta_final": float(series.abs_delta[-1]),
        "exponent_n": exponent_n,
        "exponent_abs_delta": exponent_d,
        "plateau_n": plateau.value if plateau.found else float("nan"),
    }


def cmd_scan(args):
    cfg = _load_config(args.config)
    if args.axis not in _AXIS_KEYS:
        raise ConfigurationError(f"unknown scan axis: {args.axis}")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"invalid scan values: {args.values}")
    if not values:
        raise ConfigurationError("scan needs at least one value")
    if args.workers < 1:
        raise ConfigurationError(f"--workers must be at least 1, got {args.workers}")
    section, key = _AXIS_KEYS[args.axis]

    base = cfg["output"]["path"]
    root, ext = os.path.splitext(base)
    ext = ext or ".csv"
    jobs, writers = [], {}
    for value in values:
        path = f"{root}_{args.axis}_{value:g}{ext}"
        if path in writers:
            raise ConfigurationError(
                f"scan values {writers[path]!r} and {value!r} would both write {path}")
        writers[path] = value
        run_cfg = json.loads(json.dumps(cfg))
        run_cfg[section][key] = value
        run_cfg["output"]["path"] = path
        jobs.append((run_cfg, path))

    rows = []
    failures = 0
    serial = args.workers == 1
    with nullcontext() if serial else ProcessPoolExecutor(max_workers=args.workers) as pool:
        if pool is None:
            results = [partial(_scan_one, job) for job in jobs]
        else:
            results = [pool.submit(_scan_one, job).result for job in jobs]
        for value, job, result in zip(values, jobs, results):
            try:
                rows.append((value, job[1], result(), None))
            except (IntegrationError, ConfigurationError) as exc:
                failures += 1
                rows.append((value, job[1], None, str(exc)))

    summary = f"{root}_{args.axis}_summary{ext}"
    with open(summary, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([args.axis, "path", "status", "n_final", "abs_delta_final",
                         "exponent_n", "exponent_abs_delta", "plateau_n"])
        for value, path, stats, error in rows:
            if stats is None:
                writer.writerow([f"{value:g}", path, f"failed: {error}",
                                 "", "", "", "", ""])
            else:
                writer.writerow([f"{value:g}", path, "ok",
                                 f"{stats['n_final']:.17e}",
                                 f"{stats['abs_delta_final']:.17e}",
                                 f"{stats['exponent_n']:.6f}",
                                 f"{stats['exponent_abs_delta']:.6f}",
                                 f"{stats['plateau_n']:.17e}"])
    print(f"wrote {summary} ({len(rows) - failures}/{len(rows)} runs ok)")
    return 0 if failures == 0 else EXIT_INTEGRATION


def cmd_fit(args):
    try:
        t_lo, t_hi = (float(v) for v in args.window.split(","))
    except ValueError:
        raise ConfigurationError(f"invalid window: {args.window} (expected t_lo,t_hi)")
    try:
        with open(args.input, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            data = np.array([[float(v) for v in row] for row in reader])
    except OSError as exc:
        raise ConfigurationError(f"cannot read input: {exc}")
    except (ValueError, StopIteration):
        raise ConfigurationError(f"{args.input} is not a run CSV")
    if "t_w" not in header or args.column not in header:
        raise ConfigurationError(
            f"column {args.column} not found; file has: {', '.join(header)}")
    t = data[:, header.index("t_w")]
    y = data[:, header.index(args.column)]
    fit = fit_power_law(t, y, (t_lo, t_hi))
    report = {"column": args.column, "window": list(fit.window),
              "exponent": fit.exponent, "intercept": fit.intercept,
              "r_squared": fit.r_squared}
    print(json.dumps(report, indent=2, allow_nan=False))
    return 0


def cmd_oracle(args):
    reports = oracle.run_all_checks(seeds=args.seeds, n_sites=args.sites)
    for report in reports:
        print(report)
    if all(report.passed for report in reports):
        print("oracle: all checks passed")
        return 0
    print("oracle: FAILURE")
    return EXIT_ORACLE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hybridbcs",
        description="Hybrid Lindblad / no-click dynamics of lossy BCS superconductors")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured protocol")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser("scan", help="sweep one parameter axis")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--axis", required=True, choices=sorted(_AXIS_KEYS))
    p_scan.add_argument("--values", required=True,
                        help="comma-separated list, e.g. 1.0,0.5,0.1")
    p_scan.add_argument("--workers", type=int, default=1,
                        help="worker pool size (default: 1)")
    p_scan.set_defaults(func=cmd_scan)

    p_fit = sub.add_parser("fit", help="power-law fit of one CSV column")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--column", required=True)
    p_fit.add_argument("--window", required=True, help="t_lo,t_hi")
    p_fit.set_defaults(func=cmd_fit)

    p_oracle = sub.add_parser("oracle", help="run the exact-cluster validation")
    p_oracle.add_argument("--seeds", type=int, default=20)
    p_oracle.add_argument("--sites", type=int, default=2)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, NoGapSolutionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
