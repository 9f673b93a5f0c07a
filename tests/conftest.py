import os
import subprocess
import sys

import pytest

import hybridbcs

# The longest child, a 16,384-mode run, takes about 5 s on a quiet 2-vCPU VM.
_CHILD_TIMEOUT_S = 120

_criterion_lines = []


@pytest.fixture(scope="session")
def record_criterion():
    """Collect one pass/fail summary line per acceptance criterion; the
    lines are echoed in the terminal summary so they survive capture."""

    def record(line):
        _criterion_lines.append(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def run_with_blas_threads():
    """run(args, threads): `python *args` with OPENBLAS_NUM_THREADS set in the
    child only, on this checkout's package; returns the child's stdout."""
    src = os.path.dirname(os.path.dirname(hybridbcs.__file__))

    def run(args, threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, *args], env=env, check=True,
                              capture_output=True, timeout=_CHILD_TIMEOUT_S).stdout

    return run
