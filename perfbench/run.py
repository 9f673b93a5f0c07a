"""Benchmark of hybridbcs: three quench workloads timed from outside.

    python3 perfbench/run.py --workload lindblad_quench --seed 0 --seconds 40 --trace 0

Run from the root of a source tree (it imports hybridbcs from ./src). With
--trace 0 it reports the end-to-end metrics of untraced repetitions, with
--trace 1 the per-layer metrics of traced ones. Every repetition's output is checked; the
last line of standard output is one JSON object, and the exit code is 0
only when every check passed. See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy is imported, so the
# scan's two pool workers do not oversubscribe two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = ".perfbench_run"
SETUP_PROBES = 5
SCAN_WORKERS = 2
# Largest relative deviation from the rtol = 1e-12 reference a run may show.
MAX_REL_ERR = 1e-4
# Invariants of the balanced no-click drive: n == 1 and zeta_mean == 1.
DRIVE_N_TOL = 1e-12
DRIVE_ZETA_TOL = 1e-8

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def probe_setup(name, seed):
    """Child process: import, config, grid, gap and ground state; prints seconds."""
    t0 = time.perf_counter()
    hb = workloads.load_program(ROOT)
    cfg = hb.cli.resolve_config(workloads.config(workloads.inputs(name, seed),
                                                 workloads.TIMED))
    hb.cli.assemble(cfg)
    print(time.perf_counter() - t0)
    return 0


def setup_seconds(name, seed):
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def environment(hb):
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "hybridbcs": hb.version,
           "threads": os.environ["OMP_NUM_THREADS"], "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key)) as handle:
                    fields[key] = handle.read().strip()
        except OSError:
            continue
        env["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
    return env


def program_digest():
    """Hash of the program's source, so fingerprints never span two versions."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for entry in sorted(files):
            if entry.endswith(".py"):
                with open(os.path.join(folder, entry), "rb") as handle:
                    digest.update(entry.encode() + handle.read())
    return digest.hexdigest()


def max_rel_err(values, ref_values):
    """Largest |value - reference| / |reference|; a missing value counts as 1."""
    worst = 0.0
    for key, expected in ref_values.items():
        got = values.get(key, [])
        if len(got) != len(expected):
            return 1.0
        for a, b in zip(got, expected):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    return worst


class Checks:
    """Named pass/fail checks; a failure is reported, never averaged away."""

    def __init__(self):
        self.results = []

    def add(self, name, passed, detail=""):
        self.results.append((name, bool(passed), detail))

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def check_outcome(checks, name, seed, out, ref, first):
    """Reference, invariant and repeat checks of one repetition."""
    if ref is None:
        checks.add("reference present", False, workloads.ref_path(name, seed))
    else:
        checks.add("reference inputs match", ref["inputs"] == workloads.inputs(name, seed))
        err = max_rel_err(out["values"], ref["values"])
        out["max_rel_err"] = err
        checks.add("max_rel_err", err <= MAX_REL_ERR, f"{err:.3e} <= {MAX_REL_ERR:.0e}")
    if name == "noclick_drive":
        checks.add("max |n - 1|", out["max_abs_n_minus_1"] <= DRIVE_N_TOL,
                   f"{out['max_abs_n_minus_1']:.3e}")
        checks.add("max |zeta_mean - 1|", out["max_abs_zeta_mean_minus_1"] <= DRIVE_ZETA_TOL,
                   f"{out['max_abs_zeta_mean_minus_1']:.3e}")
    if name == "zeno_scan_cli":
        checks.add("oracle checks all pass", out["oracle_ok"], f"{out['oracle_passed']} passed")
        checks.add("scan rows all ok", out["scan_rows_ok"])
    if first is not out:
        for key in ("steps", "rejections", "fingerprint"):
            checks.add(f"repeat identical: {key}", out[key] == first[key])


def check_fingerprint(checks, name, seed, out, rhs_calls=None):
    """Counts and output digest must equal those of earlier runs of this program."""
    path = os.path.join(RUN_DIR, "fingerprints.json")
    try:
        with open(path) as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    key = f"{program_digest()}:{name}:v{workloads.variant(seed)}"
    entry = {"steps": out["steps"], "rejections": out["rejections"],
             "fingerprint": out["fingerprint"]}
    if rhs_calls is not None:
        entry["rhs_calls"] = rhs_calls
    earlier = known.get(key, {})
    for field in entry:
        if field in earlier:
            checks.add(f"same as earlier runs: {field}", earlier[field] == entry[field])
    known[key] = {**earlier, **entry}
    with open(path + ".tmp", "w") as handle:
        json.dump(known, handle, indent=1)
    os.replace(path + ".tmp", path)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load_ref(name, seed):
    try:
        with open(workloads.ref_path(name, seed)) as handle:
            return json.load(handle)
    except OSError:
        return None


def another_fits(start, seconds, walls):
    """True until a repetition ran and while the next one should end in time."""
    return not walls or time.perf_counter() - start + statistics.mean(walls) <= seconds


def measure(hb, name, seed, seconds, checks, tag):
    """Untraced repetitions for `seconds`; returns the end-to-end metrics."""
    setup = setup_seconds(name, seed)
    ref = load_ref(name, seed)
    outcomes = []
    start = time.perf_counter()
    while another_fits(start, seconds, [o["wall_s"] for o in outcomes]):
        outcomes.append(workloads.repeat(hb, name, seed, workers=SCAN_WORKERS))
        check_outcome(checks, name, seed, outcomes[-1], ref, outcomes[0])
    check_fingerprint(checks, name, seed, outcomes[0])
    walls = [o["wall_s"] for o in outcomes]
    errors = [o["max_rel_err"] for o in outcomes if "max_rel_err" in o]
    if errors:
        print(f"max_rel_err = {max(errors):.6g}")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, walls


def measure_layers(hb, name, seed, seconds, checks, tag):
    """One untraced repetition, then traced ones for the rest of `seconds`."""
    ref = load_ref(name, seed)
    start = time.perf_counter()
    untraced = workloads.repeat(hb, name, seed, workers=SCAN_WORKERS)
    check_outcome(checks, name, seed, untraced, ref, untraced)
    per_rep, walls = [], []
    while another_fits(start, seconds, walls):
        with tracing.Tracer(hb) as tracer:
            # Serial, so every span lands in this process.
            out = tracer.span(f"workload.{name}", workloads.repeat, hb, name, seed,
                              workers=1)
        check_outcome(checks, name, seed, out, ref, untraced)
        walls.append(out["wall_s"])
        layers = tracing.layer_metrics(tracer, out, untraced, SCAN_WORKERS)
        cost = tracing.span_cost()
        layers["trace.span_cost_us"] = 1e6 * cost
        layers["trace.overhead_s"] = len(tracer.spans) * cost
        layers["trace.wall_delta_s"] = out["wall_s"] - untraced["wall_s"]
        per_rep.append(layers)
        if len(per_rep) == 1:
            tracer.write(os.path.join(RUN_DIR, f"spans-{tag}.jsonl"))
            check_fingerprint(checks, name, seed, out, layers["dynamics.rhs_total.calls"])
    metrics = {}
    for key in per_rep[0]:
        values = [rep[key] for rep in per_rep]
        # Counts stay whole numbers; they repeat exactly across repetitions.
        median = statistics.median_low if isinstance(values[0], int) else statistics.median
        value = median(values)
        unit = tracing.UNITS.get(key.rsplit(".", 1)[-1], "s")
        metrics[key] = {"value": value, "unit": unit}
    return metrics, [untraced["wall_s"]] + walls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    hb = workloads.load_program(ROOT)
    if hb is None:
        print(f"perfbench: no hybridbcs source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    env = environment(hb)
    print("environment: " + json.dumps(env))

    checks = Checks()
    measure_fn = measure_layers if args.trace else measure
    try:
        metrics, walls = measure_fn(hb, args.workload, args.seed, args.seconds, checks,
                                    tag)
    except Exception as exc:  # a raised run is a failed check, reported below
        checks.add("repetition completed", False, f"{type(exc).__name__}: {exc}")
        metrics, walls = {}, []

    for name, passed, detail in checks.results:
        print(f"check {'PASS' if passed else 'FAIL'}: {name} {detail}".rstrip())
    attempted = len(checks.results)
    failed = len(checks.failed)
    print(f"failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    print("wall_s of each repetition: " + ", ".join(f"{w:.3f}" for w in walls))
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(RUN_DIR, f"result-{tag}.json"), "w") as handle:
        json.dump({"environment": env, "checks": checks.results,
                   "wall_s_each_repetition": walls, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
