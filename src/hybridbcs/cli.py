"""Command line interface: run, scan, fit, oracle.

Configuration is a single JSON document with dimensionless parameter ratios
(u_over_w, gamma_over_u, ...); runs write a CSV of sampled observables plus
a JSON sidecar holding the resolved configuration, the grid checksum, and
integrator statistics. Exit codes: 0 success, 2 configuration error,
3 integration failure, 4 oracle failure.
"""

import argparse
import copy
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np

from . import __version__
from .dynamics import SystemParams
from .equilibrium import build_ground_state, solve_gap
from .errors import ConfigurationError, IntegrationError, NoGapSolutionError
from .integrator import Protocol, check_run, run_protocol
from .lattice import build_flat_band
from .observables import collapse_index, detect_plateau, fit_power_law
from . import oracle

EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_ORACLE = 4

# Each key's type and, where it has one, its default; a key without a default is required.
_SCHEMA = {
    "band": {"width": (float,), "n_modes": (int,)},
    "interaction": {"u_over_w": (float,)},
    "dissipation": {"gamma_over_u": (float,), "p_over_u": (float,), "alpha": (float,)},
    "time": {"t_max_w": (float,), "samples": (int,), "spacing": (str,)},
    "integrator": {"rtol": (float, 1e-9), "atol": (float, 1e-12)},
    "output": {"path": (str,), "track_energies": (list, [])},
}
# numpy must size every array an integer key sets, in bytes as well as in items.
# The largest is the stepper's (16, 3M) float64 stage buffer: 384 bytes per mode.
_INT_MAX = int(np.iinfo(np.intp).max) // 384


def resolve_config(raw):
    """The fully explicit config: one pass over _SCHEMA checks each key and fills defaults."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a JSON object")
    for section in raw:
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config key: {section}")
    cfg = {}
    for section, keys in _SCHEMA.items():
        content = raw.get(section, {})
        if not isinstance(content, dict):
            raise ConfigurationError(f"section {section} must be an object")
        for key in content:
            if key not in keys:
                raise ConfigurationError(f"unknown config key: {section}.{key}")
        resolved = cfg[section] = {}
        for key, (expected, *default) in keys.items():
            if key not in content and not default:
                raise ConfigurationError(f"missing config key: {section}.{key}")
            value = resolved[key] = content[key] if key in content else copy.copy(default[0])
            name = f"config key {section}.{key}"
            # type() rather than isinstance(), which would let bools in; the bound
            # rejects NaN, inf and an int too large for a float (isfinite raises).
            if expected is float and type(value) in (int, float):
                if not abs(value) <= sys.float_info.max:
                    raise ConfigurationError(f"{name} must be finite")
            elif not isinstance(value, expected) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be {expected.__name__}")
            elif expected is int and value > _INT_MAX:
                raise ConfigurationError(f"{name} must be at most {_INT_MAX}")
            elif expected is list and not all(
                    type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value):
                raise ConfigurationError(f"{name} must hold finite numbers")
    if cfg["time"]["spacing"] not in ("log", "linear"):
        raise ConfigurationError("config key time.spacing must be 'log' or 'linear'")
    if not cfg["time"]["t_max_w"] > 0:
        raise ConfigurationError("config key time.t_max_w must be positive")
    if cfg["time"]["samples"] < 2:
        raise ConfigurationError("config key time.samples must be at least 2")
    if not os.path.basename(cfg["output"]["path"]):
        raise ConfigurationError("config key output.path must name a file")
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
    if cfg["time"]["spacing"] == "log":
        times = np.geomspace(t_max * 1e-5, t_max, samples)
    else:
        times = np.linspace(t_max / samples, t_max, samples)
    track = [grid.nearest_mode(e * width) for e in cfg["output"]["track_energies"]]
    protocol = Protocol(sample_times=times, record_modes=track)
    initial = build_ground_state(grid, solve_gap(grid, u))
    return grid, params, protocol, initial


def write_csv(path, series):
    names, columns = zip(*series.columns())
    row = ",".join(["%.17e"] * len(names)) + "\r\n"  # csv.writer's line ending
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(names)
        handle.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


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


def run_outputs(path):
    """The files a run with output.path `path` writes: its CSV and its .json sidecar."""
    return path, os.path.splitext(path)[0] + ".json"


def execute_run(cfg):
    """One full run from a resolved config into its output.path; returns the TimeSeries."""
    grid, params, protocol, initial = assemble(cfg)
    integ = cfg["integrator"]
    series = run_protocol(initial, params, protocol, rtol=integ["rtol"], atol=integ["atol"])
    csv_path, sidecar_path = run_outputs(cfg["output"]["path"])
    write_csv(csv_path, series)
    write_sidecar(sidecar_path, cfg, grid, series)
    return series


def _load_config(path):
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    return resolve_config(raw)


def _check_outputs(config_path, paths):
    """Check, before any run, every file a command will write.

    Each must lie in an existing directory, and be no directory, not the
    config and not a file that another of `paths` also writes.
    """
    config, written = os.path.realpath(config_path), set()
    for path in paths:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ConfigurationError(f"output directory {directory} does not exist")
        if os.path.isdir(path):
            raise ConfigurationError(f"output path {path} is a directory")
        real = os.path.realpath(path)
        if real == config:
            raise ConfigurationError(f"output path {path} would overwrite the config")
        if real in written:
            raise ConfigurationError(f"two outputs would both write {path}")
        written.add(real)


def cmd_run(args):
    cfg = _load_config(args.config)
    _check_outputs(args.config, run_outputs(cfg["output"]["path"]))
    series = execute_run(cfg)
    print(f"wrote {cfg['output']['path']} ({len(series.t)} samples)")
    return 0


_AXIS_KEYS = {"alpha": ("dissipation", "alpha"), "gamma": ("dissipation", "gamma_over_u"),
              "pump": ("dissipation", "p_over_u"), "n_modes": ("band", "n_modes"),
              "rtol": ("integrator", "rtol")}


# The per-run columns of a scan summary, with their formats.
_SUMMARY = (("n_final", ".17e"), ("abs_delta_final", ".17e"), ("exponent_n", ".6f"),
            ("exponent_abs_delta", ".6f"), ("plateau_n", ".17e"))


def _exponent(t, y):
    """Power-law exponent of y over the last decade of t; NaN if it cannot be fitted."""
    try:
        return fit_power_law(t, y, (t[-1] / 10.0, t[-1])).exponent
    except ConfigurationError:
        return float("nan")


def _scan_one(cfg):
    """One scan run; returns its _SUMMARY cells, formatted."""
    series = execute_run(cfg)
    t, n, abs_delta = series.t, series.n, series.abs_delta
    start = collapse_index(abs_delta)
    values = (n[-1], abs_delta[-1], _exponent(t, n), _exponent(t, abs_delta),
              detect_plateau(t[start:], n[start:]).value)
    return [format(value, spec) for value, (_, spec) in zip(values, _SUMMARY)]


def _scan_row(cfg):
    """The status and _SUMMARY cells of one scan run; an integration failure is a row too."""
    try:
        return ["ok", *_scan_one(cfg)]
    except IntegrationError as exc:
        return [f"failed: {exc}"] + [""] * len(_SUMMARY)


def cmd_scan(args):
    cfg = _load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"invalid scan values: {args.values}")
    if not values:
        raise ConfigurationError("scan needs at least one value")
    if args.workers < 1:
        raise ConfigurationError(f"--workers must be at least 1, got {args.workers}")
    section, key = _AXIS_KEYS[args.axis]
    root, ext = os.path.splitext(cfg["output"]["path"])
    ext = ext or ".csv"
    labels, jobs = [], []
    for value in values:
        if key == "n_modes" and value.is_integer():  # 2.5, NaN, inf stay floats: refused
            value = int(value)  # named by its digits: %g prints 1048576 and 1048578 alike
        labels.append(str(value) if isinstance(value, int) else f"{value:g}")
        run_cfg = copy.deepcopy(cfg)
        run_cfg[section][key] = value
        run_cfg["output"]["path"] = f"{root}_{args.axis}_{labels[-1]}{ext}"
        run_cfg = resolve_config(run_cfg)
        _, params, protocol, initial = assemble(run_cfg)
        check_run(initial, params, protocol, **run_cfg["integrator"])
        jobs.append(run_cfg)
    summary = f"{root}_{args.axis}_summary{ext}"
    _check_outputs(args.config, [*(path for job in jobs for path in run_outputs(
        job["output"]["path"])), summary])

    workers = min(args.workers, len(jobs))
    with nullcontext() if workers == 1 else ProcessPoolExecutor(workers) as pool:
        rows = [[label, job["output"]["path"], *row] for label, job, row
                in zip(labels, jobs, (pool.map if pool else map)(_scan_row, jobs))]
    failures = sum(row[2] != "ok" for row in rows)

    with open(summary, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([args.axis, "path", "status", *(name for name, _ in _SUMMARY)])
        writer.writerows(rows)
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
        data = None
    if data is None or data.ndim != 2 or data.shape[1] != len(header):
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
    except (ConfigurationError, NoGapSolutionError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
