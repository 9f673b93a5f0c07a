"""Compute the tight-tolerance references the benchmark checks against.

    python3 perfbench/make_refs.py [--variants 0 1 ...] [workload ...]

Each workload is integrated at rtol = 1e-12, atol = 1e-15 for the nominal
inputs (variant 0) and every jittered variant, and written to
perfbench/refs/. The scan workload's reference is the serial scan alone
(the oracle has no reference data). One reference takes about a minute on
a 2-core machine; run two invocations with disjoint variants to use both
cores.
"""

import argparse
import json
import os
import shutil
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=workloads.NAMES)
    parser.add_argument("--variants", type=int, nargs="+",
                        default=range(workloads.VARIANTS + 1))
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    hb = workloads.load_program(ROOT)
    if hb is None:
        print("no hybridbcs source under src/", file=sys.stderr)
        return 2
    os.makedirs(workloads.REF_DIR, exist_ok=True)
    workdir = os.path.join(".perfbench_run", f"ref-{os.getpid()}")
    for name in args.workloads:
        for seed in args.variants:  # seed v selects variant v for v <= VARIANTS
            t0 = time.perf_counter()
            out = workloads.repeat(hb, name, seed, workloads.TIGHT, workers=1,
                                   with_oracle=False, workdir=workdir)
            ref = {"workload": name, "variant": workloads.variant(seed),
                   "inputs": workloads.inputs(name, seed),
                   "tolerances": workloads.TIGHT, "values": out["values"],
                   "steps": out["steps"], "rejections": out["rejections"],
                   "program_version": hb.version}
            with open(workloads.ref_path(name, seed), "w") as handle:
                json.dump(ref, handle)
                handle.write("\n")
            print(f"{name} v{seed}: {time.perf_counter() - t0:.1f} s", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
