"""Host-speed probe: puts wall times on a fixed host-speed scale.

The benchmark host is shared.  Its speed drifts by up to ~1.7x over
seconds to minutes as other tenants load the physical cores, far more
than the changes the benchmark has to resolve.  A fixed numpy kernel is
timed before and after every trial, and the trial's wall time is rescaled
to the speed at which the probe takes ``REFERENCE_S``:

    normalized = wall * REFERENCE_S / mean(probe before, probe after)

The probe mirrors the library's two kinds of hot loop: the manifold
builder's complex exp, and the coupling-robust kernel's small-matrix
einsum and batched eigvalsh.  They slow down by different amounts when the
host is busy (about 1.6x and 1.3x), so a probe of either kind alone
over- or under-corrects one workload.  On the reference host the combined
probe cut the quartile spread of 10-second trial-time medians from 0.22-0.24
(raw) to 0.02-0.03 on all three workloads; the exp part alone left 0.12 on
coupled_mc.  A campaign pass, which the probe cannot enter, is rescaled by
probes on either side of it.  Set-up is not rescaled: it reads packages
from disk, which the probe does not measure.

``REFERENCE_S`` is the probe's median on the reference host (2-vCPU Intel
Xeon KVM guest, numpy 2.4, OpenBLAS 0.3.31) when no other tenant loads it,
so normalized times read as that host's quiet-state milliseconds.  The
probe is the benchmark's own code and never changes with the library, so
parent and child commits are scaled alike; raw wall times are reported too.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 2.0e-3

_X = np.linspace(0.0, 1.0, 20_000)
_rng = np.random.default_rng(0)
_NOISE_BASIS = _rng.standard_normal((32, 29)) + 1j * _rng.standard_normal((32, 29))
_TRANSFORMS = _rng.standard_normal((100, 32, 3)) + 1j * _rng.standard_normal((100, 32, 3))


def probe() -> float:
    """Seconds for one run of the reference kernel."""
    t0 = time.perf_counter()
    np.exp(1j * _X)
    proj = np.einsum("mn,gmp->gnp", _NOISE_BASIS.conj(), _TRANSFORMS)
    np.linalg.eigvalsh(np.einsum("gnp,gnq->gpq", proj.conj(), proj))
    return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor that turns a wall time measured at this probe speed into reference time."""
    return REFERENCE_S / probe_s
