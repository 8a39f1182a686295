import importlib.util
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
