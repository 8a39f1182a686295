"""Mutual-coupling synthesis and the central-subarray decoupling machinery.

The coupling between two elements separated by `lag` positions decays
exponentially with their physical separation and carries a phase
proportional to it, so compressing the array strengthens coupling and
extending it weakens coupling.  Selecting the central rows of a coupled
far-field manifold confines the coupling to a per-source diagonal factor,
which is what makes the compressed-stage MUSIC search consistent; the
residual of that identity is exposed here as a testable number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayConfig, _integral, _require_real, ff_manifold

__all__ = [
    "CouplingModel",
    "coupling_coefficient",
    "coupling_coefficients",
    "coupling_matrix",
    "selection_matrix",
    "gamma_matrix",
    "decoupling_residual",
]


@dataclass(frozen=True)
class CouplingModel:
    """Parametric model of inter-element coupling.

    Attributes
    ----------
    reference_strength:
        Coupling magnitude c0 at zero separation, in [0, 1) so the coupling
        matrix stays diagonally dominated.
    decay:
        Exponential decay rate per wavelength of separation, finite and
        >= 0 (> 0 decays; a negative rate would grow the coupling with
        separation).
    phase_offset:
        Constant phase added to every coefficient, radians, finite.
    band:
        Number of nonzero off-diagonal lags P, an integer >= 0; coefficients
        beyond it are exactly zero.
    symmetric:
        If True the matrix is complex-symmetric (lower triangle repeats the
        upper coefficients); if False it is Hermitian (lower triangle is
        conjugated).  The diagonal-factor identity below is exact only in
        the symmetric convention.
    """

    reference_strength: float = 0.3
    decay: float = 1.0
    phase_offset: float = 0.0
    band: int = 2
    symmetric: bool = False

    def __post_init__(self):
        _require_real(self, "reference_strength", "decay", "phase_offset")
        rules = [
            (0.0 <= self.reference_strength < 1.0,
             f"0 <= reference_strength < 1 (got {self.reference_strength})"),
            (0.0 <= self.decay < np.inf,
             f"decay finite and >= 0 (got {self.decay})"),
            (np.isfinite(self.phase_offset), f"phase_offset finite (got {self.phase_offset})"),
            (_integral(self.band), f"band a whole number (got {self.band!r})"),
            (not _integral(self.band) or self.band >= 0, f"band >= 0 (got {self.band})"),
        ]
        broken = [rule for ok, rule in rules if not ok]
        if broken:
            raise ValueError("model must satisfy " + "; ".join(broken))


def coupling_coefficient(lag: int, config: ArrayConfig, model: CouplingModel) -> complex:
    """Coupling coefficient between elements `lag` positions apart.

    c_lag = c0 * exp(-decay * lag * d) * exp(j * (2*pi*lag*d + phase_offset))
    for lag within the band, identically 0 beyond it.  The zero-lag (self)
    coefficient is pinned to 1 by the matrix structure, so lag 0 is rejected.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1 (the diagonal is fixed to 1), got {lag}")
    if lag > config.element_count - 1:
        raise ValueError(
            f"lag {lag} exceeds the largest separation {config.element_count - 1}"
        )
    if lag > model.band:
        return 0.0 + 0.0j
    sep = lag * config.spacing
    return complex(
        model.reference_strength
        * np.exp(-model.decay * sep)
        * np.exp(1j * (2.0 * np.pi * sep + model.phase_offset))
    )


def coupling_coefficients(config: ArrayConfig, model: CouplingModel) -> np.ndarray:
    """All lag coefficients [1, c_1, ..., c_{M-1}] (zeros beyond the band)."""
    out = np.zeros(config.element_count, dtype=complex)
    out[0] = 1.0
    for lag in range(1, config.element_count):
        out[lag] = coupling_coefficient(lag, config, model)
    return out


def coupling_matrix(config: ArrayConfig, model: CouplingModel) -> np.ndarray:
    """Banded Toeplitz coupling matrix with unit diagonal.

    Upper-triangle lags come from :func:`coupling_coefficient`; the lower
    triangle is conjugated (Hermitian) or copied (complex-symmetric)
    depending on the model convention.
    """
    if model.band > config.element_count - 1:
        raise ValueError(
            f"band {model.band} exceeds the largest lag {config.element_count - 1}"
        )
    coeff = coupling_coefficients(config, model)
    lower = coeff if model.symmetric else coeff.conj()
    m = config.element_count
    lags = np.arange(m)
    # Entry (i, j) reads lag j - i: lower[i - j] below the diagonal, coeff[j - i] on and above.
    return np.concatenate((lower[::-1], coeff[1:]))[lags[None, :] - lags[:, None] + m - 1]


def selection_matrix(element_count: int, trim: int) -> np.ndarray:
    """Zero/one matrix [0 | I | 0] that keeps the central M - 2*trim elements."""
    if trim < 0:
        raise ValueError(f"trim must be >= 0, got {trim}")
    kept = element_count - 2 * trim
    if kept < 2:
        raise ValueError(
            f"trim {trim} leaves {kept} central elements; need at least 2"
        )
    sel = np.zeros((kept, element_count))
    sel[np.arange(kept), trim + np.arange(kept)] = 1.0
    return sel


def gamma_matrix(angles, config: ArrayConfig, model: CouplingModel) -> np.ndarray:
    """Per-source diagonal coupling gains for the central-subarray identity.

    Entry k is sum_{q=-P..P} c_|q| * exp(j*q*w_k) with spatial frequency
    w_k = 2*pi*d*sin(theta_k) and the zero-lag coefficient pinned to 1.
    Returns the K x K complex diagonal matrix.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    omega = 2.0 * np.pi * config.spacing * np.sin(angles)
    gains = np.ones(angles.shape, dtype=complex)
    for lag in range(1, model.band + 1):
        c = coupling_coefficient(lag, config, model)
        gains += 2.0 * c * np.cos(lag * omega)
    return np.diag(gains)


def decoupling_residual(angles, config: ArrayConfig, model: CouplingModel, trim: int) -> float:
    """Frobenius norm of F @ C @ A - A_central @ Gamma.

    Zero to machine precision whenever the model uses the symmetric
    convention and `trim` is at least the coupling band; strictly positive
    when the trim is too small to shield the edge rows.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    sel = selection_matrix(config.element_count, trim)
    cpl = coupling_matrix(config, model)
    manifold = ff_manifold(angles, config)
    gains = gamma_matrix(angles, config, model)
    residual = sel @ cpl @ manifold - (sel @ manifold) @ gains
    return float(np.linalg.norm(residual))
