"""Cramer-Rao bounds for joint angle/range estimation with exact geometry.

The bound used everywhere is the stochastic (unconditional) one for
circular Gaussian signals in white Gaussian noise:

    FIM = (2N / sigma^2) * Re[ (D^H P D) . G^T ]
    CRB = diag(FIM^-1)

where D stacks the steering derivatives for the parameter vector
(theta_1..theta_K, r_1..r_K), P = I - A (A^H A)^-1 A^H projects onto the
orthogonal complement of the manifold, "." is the elementwise product, and
G tiles W = R_s A^H R^-1 A R_s (with R = A R_s A^H + sigma^2 I) across the
two parameter blocks so entry (i, j) weighs the sources the parameters
belong to.  Bounds are always evaluated on the uncoupled manifold, which
is how reference curves are conventionally drawn even for coupled data,
with sources located from the array center as in every scenario.

Angle variances are rad^2, range variances wl^2.  A parameter whose Fisher
information vanishes (a planar-wavefront source carries no range
curvature) is reported as an infinite bound rather than a huge float, and
the remaining parameters keep their finite bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    ArrayConfig,
    SourceTruth,
    _centered_positions,
    _manifold_from_positions,
)

__all__ = [
    "FisherBlock",
    "CrbResult",
    "steering_jacobian",
    "fisher_information",
    "crb",
    "crb_for_scenario",
]

_SINGULAR_COND = 1e12


@dataclass(frozen=True)
class FisherBlock:
    """2K x 2K real symmetric Fisher information, order (angles..., ranges...)."""

    matrix: np.ndarray
    sources: tuple[SourceTruth, ...]
    config: ArrayConfig
    snapshots: int
    noise_variance: float


@dataclass(frozen=True)
class CrbResult:
    """Per-source variance bounds; inf marks an unidentifiable parameter."""

    angle_variance: np.ndarray
    range_variance: np.ndarray
    fisher: FisherBlock


def _steering_and_jacobian(
    source: SourceTruth, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, da/dtheta, da/drange) for a source at (theta, r) from the frame
    origin, with entries normalized at the first listed element.

    Differentiates log a_m = log(d_0) - log(d_m) + j*2*pi*(d_m - d_0)
    through the exact distances d_m.  The near-cancelling combinations
    (notably d(d_m)/dr - 1, which shrinks like 1/r^2 in the far field) are
    evaluated in factored form so the derivatives keep full relative
    precision at any range; the first entry is the constant 1, so its
    derivatives are pinned to exactly 0.
    """
    r = source.range
    q = positions
    q0 = q[0]
    sin_t = np.sin(source.angle)
    cos_t = np.cos(source.angle)
    dist = np.sqrt(r * r + q * q - 2.0 * r * q * sin_t)
    d0 = dist[0]

    vec = _manifold_from_positions([source.angle], [r], q)[:, 0]

    # (d ddist/dtheta at ref)/d0 - (ddist/dtheta)/d, factored through
    # q/d^2 - q0/d0^2 = (q - q0)(r^2 - q q0) / (d0^2 d^2)
    amp_theta = r * cos_t * (q - q0) * (r * r - q * q0) / (d0 * d0 * dist * dist)
    # ddist/dtheta - (same at ref) = -r cos * (q/d - q0/d0); rationalize when
    # both offsets share a sign, otherwise the plain difference is stable
    num = (q - q0) * (r * r * (q + q0) - 2.0 * r * sin_t * q * q0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rationalized = num / (d0 * dist * (q * d0 + q0 * dist))
    ratio_diff = np.where(q * q0 > 0.0, rationalized, q / dist - q0 / d0)
    phase_theta = -r * cos_t * ratio_diff
    d_theta = vec * (amp_theta + 2j * np.pi * phase_theta)

    # ddist/drange - 1 = -q^2 cos^2 / (d (r - q sin + d)), exact at any range
    excess = -(q * q * cos_t * cos_t) / (dist * (r - q * sin_t + dist))
    amp_range = (
        (q - q0)
        * (r * (q + q0) - sin_t * (r * r + q * q0))
        / (d0 * d0 * dist * dist)
    )
    d_range = vec * (amp_range + 2j * np.pi * (excess - excess[0]))

    d_theta[0] = 0.0
    d_range[0] = 0.0
    return vec, d_theta, d_range


def steering_jacobian(source: SourceTruth, config: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form partials of the exact steering vector of a source located
    from the array center.

    Both the amplitude taper d_0/d_m and the phase 2*pi*(d_m - d_0) are
    differentiated through the exact distances.  Returns
    (d/dtheta, d/drange); the first-element entries are identically 0
    because that entry is the constant 1.
    """
    _, d_theta, d_range = _steering_and_jacobian(source, _centered_positions(config))
    return d_theta, d_range


def fisher_information(
    sources: Sequence[SourceTruth],
    config: ArrayConfig,
    snapshots: int,
    noise_variance: float,
) -> FisherBlock:
    """Stochastic-signal Fisher information for (angles..., ranges...)."""
    if noise_variance <= 0.0:
        raise ValueError("noise_variance must be > 0 for a finite-information model")
    if snapshots < 1:
        raise ValueError(f"snapshots must be >= 1, got {snapshots}")
    sources = tuple(sources)
    positions = _centered_positions(config)
    parts = [_steering_and_jacobian(src, positions) for src in sources]
    manifold = np.column_stack([p[0] for p in parts])
    deriv = np.column_stack([p[1] for p in parts] + [p[2] for p in parts])

    gram = manifold.conj().T @ manifold
    # pinv tolerates coincident sources (rank-deficient manifold); the
    # resulting singular information surfaces as unbounded markers later
    proj_deriv = deriv - manifold @ (np.linalg.pinv(gram) @ (manifold.conj().T @ deriv))
    quad = deriv.conj().T @ proj_deriv

    # R A = A (S + sigma^2 I) with S = R_s A^H A, so W = R_s A^H R^-1 A R_s
    # = S (S + sigma^2 I)^-1 R_s: one K x K solve (S commutes with the
    # inverse) in place of an O(M^3) solve against the M x M covariance R
    powers = np.diag([src.power for src in sources])
    signal = powers @ gram
    weight = np.linalg.solve(signal + noise_variance * np.eye(len(sources)), signal) @ powers
    tiled = np.kron(np.ones((2, 2)), weight)

    fim = (2.0 * snapshots / noise_variance) * np.real(quad * tiled.T)
    fim = 0.5 * (fim + fim.T)
    return FisherBlock(fim, sources, config, int(snapshots), float(noise_variance))


def _invert_with_markers(fim: np.ndarray) -> np.ndarray:
    """Diagonal of the inverse, with inf for parameters in the null space.

    A near-singular matrix is split along its eigen-spectrum: parameters
    carrying weight in the numerically null directions get an infinite
    bound; the rest are bounded by inverting the identifiable submatrix.
    """
    n = fim.shape[0]
    w, v = np.linalg.eigh(fim)
    if w[0] > 0.0 and w[-1] < _SINGULAR_COND * w[0]:
        return np.diag(np.linalg.inv(fim)).copy()
    # A Fisher matrix is positive semi-definite: a negative eigenvalue is
    # rounding, and no eigenvalue within its size of zero is resolved.
    null = w < max(max(w[-1], 0.0) * 1e-12, -w[0])
    weight_in_null = np.sum(v[:, null] ** 2, axis=1)
    unbounded = weight_in_null > 1e-8
    out = np.full(n, np.inf)
    keep = np.flatnonzero(~unbounded)
    if keep.size:
        sub = fim[np.ix_(keep, keep)]
        out[keep] = np.diag(np.linalg.inv(sub))
    return out


def crb(
    sources: Sequence[SourceTruth],
    config: ArrayConfig,
    snapshots: int,
    noise_variance: float,
) -> CrbResult:
    """Per-source angle (rad^2) and range (wl^2) variance bounds."""
    fisher = fisher_information(sources, config, snapshots, noise_variance)
    k = len(fisher.sources)
    diag = _invert_with_markers(fisher.matrix)
    return CrbResult(diag[:k].copy(), diag[k:].copy(), fisher)


def crb_for_scenario(scenario, config: ArrayConfig | None = None) -> CrbResult:
    """Bounds at a scenario's snapshot count and noise level.

    Defaults to the extended configuration; pass any other config to rate
    alternative geometries on the same sources.
    """
    if config is None:
        config = scenario.config_extended
    return crb(scenario.sources, config, scenario.snapshots, scenario.noise_variance)
