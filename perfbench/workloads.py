"""The benchmark's three workloads: inputs drawn from a seed, one repetition
of each, and the reference data their outputs are checked against.

The module imports only the standard library, so that a set-up probe can
time the import of numpy, scipy and hybridbcs itself.
"""

import csv
import hashlib
import io
import json
import os
import random
import shutil
import sys
import time
import types
from contextlib import redirect_stdout

NAMES = ("lindblad_quench", "noclick_drive", "zeno_scan_cli")
# Seed 0 runs the nominal inputs; every other seed selects one of VARIANTS
# jittered input sets, each with a committed tight-tolerance reference.
VARIANTS = 10
SCAN_RATES = (0.04, 0.08, 0.16, 0.32)
TIGHT = {"rtol": 1e-12, "atol": 1e-15}
TIMED = {"rtol": 1e-9, "atol": 1e-12}
SCAN_DIR = os.path.join(".perfbench_run", "scan")
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def load_program(root):
    """Import hybridbcs from root/src; None when the tree holds no source."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hybridbcs", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import hybridbcs
    from hybridbcs import cli, integrator, oracle
    if not os.path.abspath(hybridbcs.__file__).startswith(os.path.abspath(src)):
        return None
    return types.SimpleNamespace(cli=cli, integrator=integrator, oracle=oracle,
                                 version=hybridbcs.__version__)


def variant(seed):
    return 0 if seed == 0 else 1 + (seed - 1) % VARIANTS


def _factors(seed, count):
    """Multipliers within +-10% of 1 (all exactly 1 for the nominal variant)."""
    v = variant(seed)
    if v == 0:
        return [1.0] * count
    rng = random.Random(v)
    return [rng.uniform(0.9, 1.1) for _ in range(count)]


def inputs(name, seed):
    """The dimensionless inputs of one workload; U/W = 1 and 400 log samples."""
    if name == "lindblad_quench":
        gamma = 0.08 * _factors(seed, 1)[0]
        return {"n_modes": 1024, "gamma_over_u": gamma, "p_over_u": 0.0,
                "alpha": 1.0, "t_max_w": 1000.0}
    if name == "noclick_drive":
        rate = 0.08 * _factors(seed, 1)[0]
        return {"n_modes": 4096, "gamma_over_u": rate, "p_over_u": rate,
                "alpha": 0.0, "t_max_w": 150.0}
    if name == "zeno_scan_cli":
        rates = [r * f for r, f in zip(SCAN_RATES, _factors(seed, len(SCAN_RATES)))]
        return {"n_modes": 256, "gamma_over_u": rates[0], "p_over_u": 0.0,
                "alpha": 0.0, "t_max_w": 250.0, "rates": rates,
                "track_energies": [-0.25, 0.25]}
    raise ValueError(f"unknown workload: {name}")


def config(inp, tolerances, path="run.csv"):
    """A hybridbcs JSON config for the inputs (samples start at 1e-5 t_max)."""
    return {
        "band": {"width": 1.0, "n_modes": inp["n_modes"]},
        "interaction": {"u_over_w": 1.0},
        "dissipation": {"gamma_over_u": inp["gamma_over_u"],
                        "p_over_u": inp["p_over_u"], "alpha": inp["alpha"]},
        "time": {"t_max_w": inp["t_max_w"], "samples": 400, "spacing": "log"},
        "integrator": dict(tolerances),
        "output": {"path": path, "track_energies": inp.get("track_energies", [])},
    }


def ref_path(name, seed):
    return os.path.join(REF_DIR, f"{name}-v{variant(seed)}.json")


def _sha256_files(directory):
    digest = hashlib.sha256()
    for entry in sorted(os.listdir(directory)):
        digest.update(entry.encode())
        with open(os.path.join(directory, entry), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _series_outcome(hb, inp, tolerances):
    t0 = time.perf_counter()
    cfg = hb.cli.resolve_config(config(inp, tolerances))
    grid, params, protocol, initial = hb.cli.assemble(cfg)
    series = hb.integrator.run_protocol(initial, params, protocol,
                                        rtol=tolerances["rtol"],
                                        atol=tolerances["atol"])
    wall = time.perf_counter() - t0
    digest = hashlib.sha256()
    for array in (series.t, series.n, series.delta, series.zeta_mean,
                  series.sx, series.sy, series.sz, series.zeta):
        digest.update(array.tobytes())
    stats = series.metadata["integrator"]
    return {
        "wall_s": wall,
        "steps": stats["steps"], "rejections": stats["rejections"],
        "fingerprint": digest.hexdigest(),
        "values": {"n": series.n.tolist(), "abs_delta": series.abs_delta.tolist()},
        "max_abs_n_minus_1": float(abs(series.n - 1.0).max()),
        "max_abs_zeta_mean_minus_1": float(abs(series.zeta_mean - 1.0).max()),
        "oracle_passed": 0, "bytes_written": 0,
    }


def _scan_outcome(hb, inp, tolerances, workers, with_oracle, workdir):
    """`hybridbcs oracle` then `hybridbcs scan`, both through cli.main."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w") as handle:
        json.dump(config(inp, tolerances, os.path.join(workdir, "run.csv")), handle)
    values = ",".join(repr(r) for r in inp["rates"])
    log = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(log):
        rc_oracle = hb.cli.main(["oracle"]) if with_oracle else 0
        t1 = time.perf_counter()
        rc_scan = hb.cli.main(["scan", "--config", cfg_path, "--axis", "gamma",
                               "--values", values, "--workers", str(workers)])
    t2 = time.perf_counter()

    with open(os.path.join(workdir, "run_gamma_summary.csv"), newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    steps = rejections = written = 0
    for entry in os.listdir(workdir):
        path = os.path.join(workdir, entry)
        if entry != "config.json":
            written += os.path.getsize(path)
        if entry.endswith(".json") and entry != "config.json":
            with open(path) as handle:
                stats = json.load(handle)["integrator"]
            steps += stats["steps"]
            rejections += stats["rejections"]
    report = log.getvalue()
    return {
        "wall_s": t2 - t0, "scan_s": t2 - t1,
        "steps": steps, "rejections": rejections,
        "fingerprint": _sha256_files(workdir),
        "values": {"n_final": [float(r[3]) for r in rows if r[2] == "ok"],
                   "abs_delta_final": [float(r[4]) for r in rows if r[2] == "ok"]},
        "oracle_passed": report.count("[PASS]"),
        "oracle_ok": rc_oracle == 0 and "[FAIL]" not in report,
        "scan_rows_ok": rc_scan == 0 and len(rows) == len(inp["rates"])
                        and all(r[2] == "ok" for r in rows),
        "bytes_written": written,
    }


def repeat(hb, name, seed, tolerances=TIMED, workers=2, with_oracle=True,
           workdir=SCAN_DIR):
    """Run the workload once; `hb` holds the imported hybridbcs modules."""
    inp = inputs(name, seed)
    if name == "zeno_scan_cli":
        return _scan_outcome(hb, inp, tolerances, workers, with_oracle, workdir)
    return _series_outcome(hb, inp, tolerances)
