"""Array geometry and steering-vector families for a scalable-aperture ULA.

All lengths are expressed in carrier wavelengths (lambda = 1), so spacings,
positions, apertures and source ranges are directly comparable across
configurations.  Angles are radians internally; degrees appear only at
user-facing interfaces (see :mod:`sfas.harness`).

Sources are located by (angle, range) from the *array center*, which
stays put while the array stretches and compresses about it;
:func:`esg_steering_centered` and :func:`esg_manifold_centered` evaluate
the exact steering there.  The single-source formulas
(:func:`esg_distance`, :func:`esg_steering`, :func:`fresnel_steering`,
:func:`ff_steering`) are the paper's, measured from the first element at
position 0.  Every steering vector is normalized so its first entry is
exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayConfig",
    "SourceTruth",
    "element_positions",
    "array_center",
    "aperture",
    "rayleigh_distance",
    "fresnel_lower_bound",
    "esg_distance",
    "esg_steering",
    "ff_steering",
    "fresnel_steering",
    "ff_manifold",
    "esg_steering_centered",
    "esg_manifold_centered",
]

TWO_PI = 2.0 * np.pi

# The largest source range, and estimator range_max, in wavelengths.  The
# exact-geometry phase 2*pi*(r_m - r_0) subtracts two numbers near r: at
# r = 1e9 one ulp of r is 1.2e-7 wl, so the phase rounds by under about
# 1e-6 rad, while near 1e154 r * r overflows and the manifold turns NaN.
_MAX_RANGE_WL = 1e9

# The smallest element spacing, in wavelengths: well above the ulp of a
# range at _MAX_RANGE_WL (1.2e-7 wl).  Near 1e-154 wl the squared aperture
# in the Rayleigh distance underflows to 0.
_MIN_SPACING_WL = 1e-6

# The most elements M.  The verbs build M x M arrays: the covariance, the
# coupling matrix's lag gather, the selection matrix and the CRB's Fisher
# matrix.  A complex one takes 268 MB at 4096 and 6.4 GB at 20,000.
_MAX_ELEMENTS = 4096

# The largest source power, relative to the unit power the SNR refers to
# (90 dB).  At 1e308 the sample covariance overflows, and the CRB's Fisher
# information holds the power squared.
_MAX_POWER = 1e9


def _integral(value) -> bool:
    """An int or a numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int, a float or a numpy real; a bool is not a quantity."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _require_real(obj, *names: str) -> None:
    """Reject, by name, each field of `obj` that is not a real number
    (:func:`_is_real`), before a rule compares it."""
    for name in names:
        value = getattr(obj, name)
        if not _is_real(value):
            raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array whose inter-element spacing scales by a factor.

    Attributes
    ----------
    element_count:
        Number of elements M, an integer from 2 to 4096 (`_MAX_ELEMENTS`).
    baseline_spacing:
        Baseline spacing d0 in wavelengths, finite and > 0 (default 0.5).
    scale:
        Scaling factor applied to the baseline spacing, finite and > 0;
        < 1 compresses the array, > 1 extends it.  The spacing they give
        must be at least 1e-6 wl (`_MIN_SPACING_WL`).
    """

    element_count: int
    baseline_spacing: float = 0.5
    scale: float = 1.0

    def __post_init__(self):
        if not _integral(self.element_count):
            raise ValueError(f"element_count must be a whole number, got {self.element_count!r}")
        if self.element_count < 2:
            raise ValueError(f"element_count must be >= 2, got {self.element_count}")
        if self.element_count > _MAX_ELEMENTS:
            raise ValueError(f"element_count must be <= {_MAX_ELEMENTS}, got {self.element_count}")
        _require_real(self, "baseline_spacing", "scale")
        if not 0 < self.baseline_spacing < np.inf:
            raise ValueError(
                f"baseline_spacing must be finite and > 0, got {self.baseline_spacing}")
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
        if self.spacing < _MIN_SPACING_WL:
            raise ValueError(
                f"spacing baseline_spacing * scale must be >= {_MIN_SPACING_WL:g} wl, "
                f"got {self.spacing:g}")

    @property
    def spacing(self) -> float:
        """Actual inter-element spacing in wavelengths."""
        return self.scale * self.baseline_spacing

    def with_scale(self, scale: float) -> "ArrayConfig":
        return ArrayConfig(self.element_count, self.baseline_spacing, scale)


@dataclass(frozen=True)
class SourceTruth:
    """Ground-truth source location and power.

    Attributes
    ----------
    angle:
        Direction of arrival in radians, strictly inside (-pi/2, pi/2).
    range:
        Distance in wavelengths, in (0, 1e9] (`_MAX_RANGE_WL`): from the
        array center, or from element 0 in the paper's single-source formulas.
    power:
        Source signal power, > 0 and <= 1e9 (`_MAX_POWER`).
    """

    angle: float
    range: float
    power: float = 1.0

    def __post_init__(self):
        _require_real(self, "angle", "range", "power")
        if not -np.pi / 2 < self.angle < np.pi / 2:
            raise ValueError(f"angle must lie in (-pi/2, pi/2) rad, got {self.angle}")
        if not 0 < self.range <= _MAX_RANGE_WL:
            raise ValueError(f"range must be > 0 and <= {_MAX_RANGE_WL:g} wl, got {self.range}")
        if not 0 < self.power <= _MAX_POWER:
            raise ValueError(f"power must be > 0 and <= {_MAX_POWER:g}, got {self.power}")

    @classmethod
    def from_degrees(cls, angle_deg: float, range_wl: float, power: float = 1.0) -> "SourceTruth":
        # An angle that is not a number reaches the field rules unconverted.
        return cls(np.deg2rad(angle_deg) if _is_real(angle_deg) else angle_deg, range_wl, power)

    @property
    def angle_deg(self) -> float:
        return float(np.rad2deg(self.angle))


def element_positions(config: ArrayConfig) -> np.ndarray:
    """Element positions [0, d, 2d, ...] in wavelengths for spacing d."""
    return np.arange(config.element_count) * config.spacing


def aperture(config: ArrayConfig) -> float:
    """Total array aperture (M-1)*d in wavelengths."""
    return (config.element_count - 1) * config.spacing


def array_center(config: ArrayConfig) -> float:
    """Midpoint of the element positions, (M-1)*d/2 in wavelengths."""
    return 0.5 * aperture(config)


def rayleigh_distance(config: ArrayConfig) -> float:
    """Near/far-field boundary 2*D^2/lambda in wavelengths.

    Scales with the square of the configuration scale factor.
    """
    d = aperture(config)
    return 2.0 * d * d


def fresnel_lower_bound(config: ArrayConfig) -> float:
    """Lower edge 0.62*sqrt(D^3/lambda) of the Fresnel region, in wavelengths.

    Exposed for diagnostics only; no estimator branches on it.
    """
    return 0.62 * np.sqrt(aperture(config) ** 3)


def esg_distance(source: SourceTruth, position) -> np.ndarray | float:
    """Exact source-to-element distance sqrt(r^2 + p^2 - 2*r*p*sin(theta)).

    `position` may be a scalar or an array of element positions (wavelengths).
    Raises ValueError if the source coincides with an element (radicand <= 0),
    which can only happen at |theta| = pi/2 with r equal to the position.
    """
    p = np.asarray(position, dtype=float)
    r = source.range
    radicand = r * r + p * p - 2.0 * r * p * np.sin(source.angle)
    if np.any(radicand <= 0.0):
        raise ValueError(
            f"source at (theta={source.angle}, r={source.range}) coincides with an element"
        )
    out = np.sqrt(radicand)
    return out if out.ndim else float(out)


def esg_steering(source: SourceTruth, config: ArrayConfig) -> np.ndarray:
    """Exact spatial-geometry steering vector, valid at any range.

    Entry m is (r / r_m) * exp(j*2*pi*(r_m - r)) with r_m the exact distance
    from the source to element m.  The first entry is exactly 1 because the
    reference element sits at the origin.
    """
    return _steering_from_positions(source, element_positions(config))


def ff_steering(angle: float, config: ArrayConfig) -> np.ndarray:
    """Planar-wavefront steering vector exp(-j*2*pi*(m-1)*d*sin(theta)).

    Unit-magnitude entries; accurate only far beyond the Rayleigh distance.
    """
    phase = -TWO_PI * element_positions(config) * np.sin(angle)
    return np.exp(1j * phase)


def fresnel_steering(source: SourceTruth, config: ArrayConfig) -> np.ndarray:
    """Second-order (Fresnel) near-field approximation of the steering vector.

    Entry m is exp(-j*2*pi*(m-1)*d*sin(theta) + j*pi*((m-1)*d)^2*cos(theta)^2/r):
    the quadratic wavefront-curvature correction on top of the planar term.
    """
    p = element_positions(config)
    sin_t = np.sin(source.angle)
    cos_t = np.cos(source.angle)
    phase = -TWO_PI * p * sin_t + np.pi * p * p * cos_t * cos_t / source.range
    return np.exp(1j * phase)


def ff_manifold(angles: np.ndarray, config: ArrayConfig) -> np.ndarray:
    """Far-field manifold, shape (M, len(angles)); angles in radians."""
    p = element_positions(config)
    return np.exp(-1j * TWO_PI * np.outer(p, np.sin(np.asarray(angles, dtype=float))))


def _manifold_from_positions(angles, ranges, positions: np.ndarray) -> np.ndarray:
    """Steering columns for sources at (angle, range) from `positions`' frame
    origin, normalized so the row of the first element is exactly 1."""
    th = np.asarray(angles, dtype=float)
    r = np.asarray(ranges, dtype=float)
    if th.shape != r.shape:
        raise ValueError(f"angles and ranges must pair up, got {th.shape} vs {r.shape}")
    p = positions[:, None]
    radicand = r * r + p * p - 2.0 * r * p * np.sin(th)
    dist = np.sqrt(np.maximum(radicand, np.finfo(float).tiny))
    man = (dist[0] / dist) * np.exp(1j * TWO_PI * (dist - dist[0]))
    man[0, :] = 1.0 + 0.0j
    return man


def _centered_positions(config: ArrayConfig) -> np.ndarray:
    return element_positions(config) - array_center(config)


def _steering_from_positions(source: SourceTruth, positions: np.ndarray) -> np.ndarray:
    esg_distance(source, positions)  # rejects a source on top of an element
    return _manifold_from_positions([source.angle], [source.range], positions)[:, 0]


def esg_steering_centered(source: SourceTruth, config: ArrayConfig) -> np.ndarray:
    """Exact steering for a source located relative to the array center.

    One column of :func:`esg_manifold_centered`; the first entry is
    exactly 1.
    """
    return _steering_from_positions(source, _centered_positions(config))


def esg_manifold_centered(angles, ranges, config: ArrayConfig) -> np.ndarray:
    """Exact-geometry manifold over paired center-frame (angle, range) points.

    `angles` (radians) and `ranges` (wavelengths) must have equal length G;
    returns shape (M, G), first row exactly 1.
    """
    return _manifold_from_positions(angles, ranges, _centered_positions(config))
