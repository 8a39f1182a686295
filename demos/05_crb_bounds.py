#!/usr/bin/env python3
"""Cramer-Rao bounds across geometry and field regimes.

Demonstrates the three structural facts the estimator design leans on:
doubling the aperture quarters the angle variance, range information
dies with distance (reported as an unbounded marker, not a huge float),
and every bound scales exactly as 1/N.
"""

import math

from sfas import ArrayConfig, SourceTruth
from sfas.crb import crb

cfg1 = ArrayConfig(32, 0.5, 1.0)
cfg2 = ArrayConfig(32, 0.5, 2.0)
noise = 0.1  # SNR 10 dB at unit source power


def angle_rmse_deg(res, k=0):
    return math.degrees(math.sqrt(res.angle_variance[k]))


def range_rmse(res, k=0):
    v = res.range_variance[k]
    return "unbounded" if math.isinf(v) else f"{math.sqrt(v):.3g} wl"


print("Single source, N = 500, SNR 10 dB, bounds by range (center frame):\n")
print(f"{'range_wl':>9} {'angle_deg (d=0.5)':>18} {'angle_deg (d=1)':>16} {'range (d=1)':>12}")
for r in (30.0, 200.0, 1000.0, 5000.0, 1e6):
    src = (SourceTruth.from_degrees(10.77, r),)
    b1 = crb(src, cfg1, 500, noise)
    b2 = crb(src, cfg2, 500, noise)
    print(
        f"{r:9.0f} {angle_rmse_deg(b1):18.5f} {angle_rmse_deg(b2):16.5f} "
        f"{range_rmse(b2):>12}"
    )

src = (SourceTruth.from_degrees(10.77, 5000.0),)
ratio = (
    crb(src, cfg2, 500, noise).angle_variance[0]
    / crb(src, cfg1, 500, noise).angle_variance[0]
)
print(f"\nextended/baseline angle-variance ratio at 5000 wl: {ratio:.4f} (aperture-squared gain)")

n_scaling = [
    crb(src, cfg2, n, noise).angle_variance[0] for n in (250, 500, 1000)
]
print(
    "1/N scaling check (N=250,500,1000): "
    + ", ".join(f"{v:.3e}" for v in n_scaling)
)
print("\nRange bounds collapse to 'unbounded' once the wavefront is planar")
print("across the aperture; angle bounds stay finite throughout.")
