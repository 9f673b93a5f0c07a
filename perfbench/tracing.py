"""Spans around hybridbcs's public functions, and the per-layer metrics.

The tracer replaces a function in the module namespace where its callers
look it up (for example `hybridbcs.integrator.rhs_total`, which the stepper
calls), records one span (name, start, end, parent) per call in memory,
and restores the original functions on exit. No file of the program
changes.
"""

import json
import statistics
import time
from collections import defaultdict

# (module attribute on the hb namespace, function, span name)
WRAPPED = (
    ("integrator", "rhs_total", "dynamics.rhs_total"),
    ("oracle", "rhs_total", "dynamics.rhs_total"),
    ("integrator", "run_protocol", "integrator.run_protocol"),
    ("cli", "run_protocol", "integrator.run_protocol"),
    ("cli", "build_flat_band", "lattice.build_flat_band"),
    ("cli", "solve_gap", "equilibrium.solve_gap"),
    ("cli", "build_ground_state", "equilibrium.build_ground_state"),
    ("cli", "execute_run", "cli.execute_run"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "write_sidecar", "cli.write_sidecar"),
    ("cli", "fit_power_law", "observables.fit_power_law"),
    ("cli", "detect_plateau", "observables.detect_plateau"),
    ("oracle", "run_eom_suite", "oracle.run_eom_suite"),
    ("oracle", "run_hf_suite", "oracle.run_hf_suite"),
    ("oracle", "run_norm_conserving_suite", "oracle.run_norm_conserving_suite"),
    ("oracle", "run_nh_suite", "oracle.run_nh_suite"),
)
# Bytes an RHS call reads and writes per mode: n_k and Delta_k in (8 + 16),
# dn_k and dDelta_k out (8 + 16). Computed from the mode count, not measured.
RHS_BYTES_PER_MODE = 48
# Unit of a per-layer metric by the last part of its name; seconds otherwise.
UNITS = {"calls": "count", "computed_bytes": "bytes", "us_per_call": "us",
         "bytes_written": "bytes", "steps_accepted": "count",
         "steps_rejected": "count", "checks_passed": "count",
         "self_share": "ratio", "accept_ratio": "ratio",
         "rhs_calls_per_step": "calls/step", "imbalance": "ratio",
         "pool_efficiency": "ratio", "span_cost_us": "us"}


class Tracer:
    """Context manager that wraps WRAPPED on the hb namespace while active."""

    def __init__(self, hb):
        self.hb = hb
        self.spans = []  # [name, start, end, parent index or -1]
        self.rhs_bytes = 0
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        if name != "dynamics.rhs_total":
            return traced

        def traced_rhs(state, params):
            self.rhs_bytes += RHS_BYTES_PER_MODE * state.n_k.size
            return traced(state, params)

        return traced_rhs

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self._wrap(name, fn)(*args, **kwargs)

    def __enter__(self):
        for module_name, attr, name in WRAPPED:
            module = getattr(self.hb, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def write(self, path):
        """One JSON object per line: id, parent, name, start and end in seconds."""
        with open(path, "w") as handle:
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")


def span_stats(spans):
    """Per span name: calls, total time, self time; plus RHS calls under runs."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "each": []})
    rhs_in_runs = 0
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[i]
        entry["each"].append(end - start)
        if name == "dynamics.rhs_total" and parent >= 0 \
                and spans[parent][0] == "integrator.run_protocol":
            rhs_in_runs += 1
    return stats, rhs_in_runs


def layer_metrics(tracer, outcome, untraced, workers):
    """The per-layer metrics of one traced repetition.

    `outcome` is the traced repetition, `untraced` an untraced one of the
    same workload, `workers` the pool size of the untraced scan.
    """
    stats, rhs_in_runs = span_stats(tracer.spans)

    def total(name):
        return stats[name]["total"] if name in stats else 0.0

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    rhs_calls = calls("dynamics.rhs_total")
    rhs_self = stats["dynamics.rhs_total"]["self"] if rhs_calls else 0.0
    run_s = total("integrator.run_protocol")
    run_self = stats["integrator.run_protocol"]["self"] if run_s else 0.0
    accepted, rejected = outcome["steps"], outcome["rejections"]
    runs = stats["cli.execute_run"]["each"] if "cli.execute_run" in stats else []
    m = {
        "dynamics.rhs_total.calls": rhs_calls,
        "dynamics.rhs_total.self_s": rhs_self,
        "dynamics.rhs_total.us_per_call": 1e6 * rhs_self / rhs_calls if rhs_calls else 0.0,
        "dynamics.rhs_total.computed_bytes": tracer.rhs_bytes,
        "integrator.run_protocol.s": run_s,
        "integrator.self_s": run_self,
        "integrator.self_share": run_self / run_s if run_s else 0.0,
        "integrator.steps_accepted": accepted,
        "integrator.steps_rejected": rejected,
        "integrator.accept_ratio": accepted / (accepted + rejected) if accepted else 0.0,
        "integrator.rhs_calls_per_step": rhs_in_runs / accepted if accepted else 0.0,
        "lattice.build_flat_band.s": total("lattice.build_flat_band"),
        "equilibrium.solve_gap.s": total("equilibrium.solve_gap"),
        "equilibrium.build_ground_state.s": total("equilibrium.build_ground_state"),
        "observables.fit_power_law.s": total("observables.fit_power_law"),
        "observables.fit_power_law.calls": calls("observables.fit_power_law"),
        "observables.detect_plateau.s": total("observables.detect_plateau"),
        "observables.detect_plateau.calls": calls("observables.detect_plateau"),
        "cli.write_csv.s": total("cli.write_csv"),
        "cli.write_sidecar.s": total("cli.write_sidecar"),
        "cli.bytes_written": outcome["bytes_written"],
        "cli.scan.run_s_max": max(runs) if runs else 0.0,
        "cli.scan.imbalance": max(runs) / statistics.mean(runs) if runs else 0.0,
        "cli.scan.pool_efficiency":
            sum(runs) / (workers * untraced["scan_s"]) if runs else 0.0,
        "oracle.run_eom_suite.s": total("oracle.run_eom_suite"),
        "oracle.run_hf_suite.s": total("oracle.run_hf_suite"),
        "oracle.run_norm_conserving_suite.s": total("oracle.run_norm_conserving_suite"),
        "oracle.run_nh_suite.s": total("oracle.run_nh_suite"),
        "oracle.checks_passed": outcome["oracle_passed"],
    }
    return m


def span_cost(calls=50000):
    """Seconds one traced call adds, measured on a no-op function."""
    def noop():
        return None

    traced = Tracer(None)._wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls
