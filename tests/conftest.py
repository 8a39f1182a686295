import ast
import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sfas import CouplingModel, Scenario, SourceTruth, estimators, simulate

# tools/cli_digest.py, a script, loaded by path: `build()` names the numpy and
# BLAS build and the kernels that pinned hashes depend on.
_SPEC = importlib.util.spec_from_file_location(
    "cli_digest", Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)


# CPUs this process may run on: a pooled campaign forks at most CPUS - 1 workers.
CPUS = len(os.sched_getaffinity(0))

# The address space a `limited_child` may take.
CHILD_MEMORY = 1 << 30


def limited_child(code: str, *args: str, cwd=None) -> subprocess.Popen:
    """Start `python -c code *args` on this checkout's `src` at one BLAS
    thread, its address space limited to CHILD_MEMORY in the child only,
    its output piped as text: an allocation that a bound should have
    refused fails there, not on the host."""
    limit = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({CHILD_MEMORY},) * 2)\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.Popen(
        [sys.executable, "-c", limit + code, *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


class ProcessLog:
    """Records appended to a file, one write each, with the pid of the
    process that made them: the records of the workers a campaign forks
    reach the test too, where a list in memory would keep the caller's only."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def clear(self) -> None:
        self.path.write_text("")

    def add(self, record) -> None:
        with open(self.path, "a") as log:
            log.write(repr((os.getpid(), record)) + "\n")

    def records(self) -> list[tuple[int, object]]:
        return [ast.literal_eval(line) for line in self.path.read_text().splitlines()]


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fails a test that returns with more Python threads alive than it
    started with: a pooled campaign forks no worker beside another thread,
    so a leaked one would quietly run every later pooled campaign serially."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, f"threads left alive: {threading.enumerate()}"


def clear_steering_caches():
    """Empty every memo of `estimators` and `simulate` (each module-level
    object with a `cache_clear`), so the next run starts cold."""
    for module in (estimators, simulate):
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()


def mixed_field_sources():
    return tuple(
        SourceTruth.from_degrees(a, r)
        for a, r in [(-40.0, 30.0), (-20.0, 300.0), (10.0, 1000.0), (30.0, 5000.0)]
    )


@pytest.fixture
def mixed_scenario():
    """Four sources spanning near-field to far-field, 32 elements."""
    return Scenario(
        sources=mixed_field_sources(),
        snapshots=500,
        snr_db=20.0,
        seed=20260810,
    )


@pytest.fixture
def noiseless_mixed_scenario():
    return Scenario(
        sources=mixed_field_sources(),
        snapshots=500,
        snr_db=float("inf"),
        seed=20260810,
    )


@pytest.fixture
def coupled_extended_scenario():
    """Residual coupling in the extended configuration, symmetric band 2."""
    return Scenario(
        sources=(
            SourceTruth.from_degrees(-20.66, 30.0),
            SourceTruth.from_degrees(10.77, 200.0),
        ),
        coupling=CouplingModel(band=2),
        coupling_extended=CouplingModel(0.3, 1.0, 0.0, band=2, symmetric=True),
        snapshots=500,
        snr_db=float("inf"),
        seed=31,
    )


def assert_allclose(actual, desired, rtol=1e-12, atol=0.0):
    np.testing.assert_allclose(actual, desired, rtol=rtol, atol=atol)
