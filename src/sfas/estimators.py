"""Two-stage subspace localization plus baselines and scoring utilities.

Stage 1 runs a far-field MUSIC scan on the central subarray of the
compressed-configuration covariance, where coupling reduces to a per-source
diagonal factor and grating lobes cannot occur.  Stage 2 takes each coarse
angle to the extended configuration: a 1-D range scan with the exact
spatial-geometry steering seeds a windowed 2-D search that refines angle
and range together.  A rank-reduction variant replaces the stage-2 spectrum
when residual coupling in the extended configuration cannot be ignored.

Angles cross this module's public surface in degrees; ranges are in
wavelengths; both are measured from the array center, the scenario frame
shared by every configuration of the same physical array.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .geometry import (
    _MAX_RANGE_WL, ArrayConfig, _integral, _require_real, esg_manifold_centered, ff_manifold
)
from .simulate import CovarianceEstimate, SnapshotBlock, sample_covariance

__all__ = [
    "EstimatorSettings",
    "SubspaceDecomposition",
    "SpectrumGrid",
    "DegenerateSubspaceError",
    "UnderResolutionError",
    "decompose",
    "find_spectrum_peaks",
    "stage1_music",
    "stage2_range_search",
    "stage2_refine",
    "mc_music_spectrum",
    "mc_music_refine",
    "baseline_ff_music",
    "oracle_2d_music",
    "pair_estimates",
    "two_stage_localize",
    "RangeSearchResult",
    "RefineResult",
    "SourceEstimate",
    "LocalizationEstimate",
    "PairingResult",
]


class DegenerateSubspaceError(RuntimeError):
    """Signal/noise eigenvalue split is numerically ambiguous."""


class UnderResolutionError(RuntimeError):
    """Fewer spectrum peaks than sources.  Carries the peaks that were found."""

    def __init__(self, needed: int, peaks_found):
        self.needed = needed
        self.peaks_found = np.asarray(peaks_found, dtype=float)
        super().__init__(
            f"found {len(self.peaks_found)} separated peaks, need {needed}"
        )

    def __reduce__(self):  # the default would call __init__ with the message alone
        return type(self), (self.needed, self.peaks_found)


# The most points a search axis may hold (stage-1 angles, ranges, both axes
# of both passes), and the most entries, elements times points, of the
# manifold over one axis: at M = 32 a 10^6-angle stage-1 manifold takes
# 0.51 GB, so above M = 32 an axis holds at most _MAX_AXIS_ENTRIES // M.
# A pass lattice holds at most _MAX_AXIS_POINTS cells too, each a float64
# value and an int64 column slot (16 MB at the bound), and, as the
# single-shot export builds the manifold of the whole pass-1 lattice, at
# most _MAX_AXIS_ENTRIES // M.
_MAX_AXIS_POINTS = 10**6
_MAX_AXIS_ENTRIES = 32 * _MAX_AXIS_POINTS

# Each pass step, the factor on its span and the span it steps across.
_PASS_STEPS = (
    ("pass1_angle_step_deg", 1.0, "window_angle_deg"),
    ("pass1_range_fraction", 1.0, "window_range_fraction"),
    ("pass2_angle_step_deg", 1.5, "pass1_angle_step_deg"),
    ("pass2_range_fraction", 1.5, "pass1_range_fraction"),
)


@dataclass(frozen=True)
class EstimatorSettings:
    """Grids, windows and peak policy for the two-stage search.

    `trim` of None defers to the coupling band of the scenario in play;
    it and `range_points` are whole numbers, every other field a real
    number, each checked by name before any rule compares it.
    The two refinement passes use (angle step in degrees, range step as a
    fraction of the initial range estimate); each step must fit the span
    it steps across: the window for pass 1, 1.5 pass-1 steps for pass 2.
    """

    trim: int | None = None
    angle_min_deg: float = -90.0
    angle_max_deg: float = 90.0
    angle_step_deg: float = 0.1
    range_min: float = 5.0
    range_max: float = 2.0e4
    range_points: int = 200
    window_angle_deg: float = 2.0
    window_range_fraction: float = 0.3
    pass1_angle_step_deg: float = 0.05
    pass1_range_fraction: float = 0.01
    pass2_angle_step_deg: float = 0.005
    pass2_range_fraction: float = 0.001
    min_peak_separation_deg: float = 1.0
    flat_spectrum_ratio: float = 3.0

    def __post_init__(self):
        _require_real(self, *(f.name for f in fields(self) if isinstance(f.default, float)))
        for name, value in (("trim", self.trim), ("range_points", self.range_points)):
            if not (_integral(value) or name == "trim" and value is None):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
        steps = ("angle_step_deg", "window_angle_deg", *(step for step, _, _ in _PASS_STEPS))
        rules = [(getattr(self, n) > 0.0, f"{n} > 0 (got {getattr(self, n)})") for n in steps]
        rules += [
            (self.trim is None or self.trim >= 0, f"trim >= 0 (got {self.trim})"),
            (self.range_points >= 2, f"range_points >= 2 (got {self.range_points})"),
            (0.0 < self.range_min < self.range_max,
             f"0 < range_min < range_max (got {self.range_min}, {self.range_max})"),
            (self.range_max <= _MAX_RANGE_WL,
             f"range_max <= {_MAX_RANGE_WL:g} (got {self.range_max})"),
            (0.0 < self.window_range_fraction < 1.0,
             f"0 < window_range_fraction < 1 (got {self.window_range_fraction})"),
            (-90.0 <= self.angle_min_deg < self.angle_max_deg <= 90.0,
             f"-90 <= angle_min_deg < angle_max_deg <= 90 "
             f"(got {self.angle_min_deg}, {self.angle_max_deg})"),
        ]
        for step, k, span in _PASS_STEPS:
            value, bound = getattr(self, step), getattr(self, span)
            within = span if k == 1.0 else f"{k} * {span}"
            rules.append((value <= k * bound, f"{step} <= {within} (got {value}, {bound})"))
        broken = [rule for ok, rule in rules if not ok] + self._size_rules(_MAX_AXIS_POINTS)
        if broken:
            raise ValueError("settings must satisfy " + "; ".join(broken))

    def _size_rules(self, limit: int, where: str = "") -> list[str]:
        """Each search axis (by the field that sets it) and each pass
        lattice (the product of its two axes) that holds more than `limit`
        points or cells, as a broken rule ending in `where`; an axis whose
        step is not > 0 is left out, and a NaN size breaks its rule."""
        axes = {"range_points": self.range_points}
        if self.angle_step_deg > 0.0:
            width = self.angle_max_deg - self.angle_min_deg
            axes["angle_step_deg"] = width / self.angle_step_deg + 1.0
        for step, k, span in _PASS_STEPS:
            value = getattr(self, step)
            if value > 0.0:  # a `_window_grid` of half-width k * span
                axes[step] = 2.0 * round(k * getattr(self, span) / value, 0) + 1.0
        sizes = [(name, size, "points on its axis") for name, size in axes.items()]
        for (angle_step, _, _), (range_step, _, _) in zip(_PASS_STEPS[::2], _PASS_STEPS[1::2]):
            if angle_step in axes and range_step in axes:
                cells = axes[angle_step] * axes[range_step]
                sizes.append((f"{angle_step} x {range_step}", cells, "cells in its lattice"))
        return [
            f"{name} gives at most {limit} {what}{where} (got {size:.7g})"
            for name, size, what in sizes
            if not size <= limit
        ]

    def manifold_rules(self, element_count: int) -> list[str]:
        """The axes and lattices whose manifold at `element_count` elements
        would hold more than _MAX_AXIS_ENTRIES entries, each as a broken rule."""
        where = f" at element_count {element_count}"
        return self._size_rules(_MAX_AXIS_ENTRIES // element_count, where)

    def angle_grid_deg(self) -> np.ndarray:
        return _step_grid(self.angle_min_deg, self.angle_max_deg, self.angle_step_deg)

    def range_grid(self) -> np.ndarray:
        """`range_points` log-spaced ranges, range_min and range_max exact,
        each from `math.exp`, which does not change with numpy's SIMD
        dispatch as `np.geomspace` does."""
        lo, n = self.range_min, self.range_points
        step = math.log(self.range_max / lo) / (n - 1)
        grid = np.array([lo * math.exp(k * step) for k in range(n)])
        grid[-1] = self.range_max
        return grid

    def resolve_trim(self, coupling_band: int) -> int:
        return self.trim if self.trim is not None else coupling_band


def _step_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive grid lo..hi; integer-ratio steps divide exactly so that
    round decimals (e.g. 10.0 at step 0.1) appear as exact grid values."""
    denom = round(1.0 / step)
    if denom >= 1 and abs(denom * step - 1.0) < 1e-9:
        return np.arange(round(lo * denom), round(hi * denom) + 1) / denom
    n = int(np.floor((hi - lo) / step + 1e-12))
    return lo + step * np.arange(n + 1)


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Eigen-split of a covariance into signal and noise subspaces."""

    eigenvalues: np.ndarray
    signal_basis: np.ndarray
    noise_basis: np.ndarray

    @property
    def source_count(self) -> int:
        return self.signal_basis.shape[1]


@dataclass(frozen=True)
class SpectrumGrid:
    """Sampled pseudo-spectrum over one or two strictly increasing axes."""

    axes: tuple[np.ndarray, ...]
    axis_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.axes) != len(self.axis_names):
            raise ValueError("one name per axis required")
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError(
                f"values shape {self.values.shape} does not match axes"
            )
        for ax in self.axes:
            if len(ax) > 1 and not np.all(np.diff(ax) > 0):
                raise ValueError("axes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")


def decompose(covariance: CovarianceEstimate, source_count: int) -> SubspaceDecomposition:
    """Eigendecomposition sorted descending, split after `source_count` values.

    Raises DegenerateSubspaceError when the split falls inside a numerically
    repeated eigenvalue (relative gap below 1e-8), e.g. on an identity
    covariance, where any subspace split would be arbitrary.
    """
    mat = covariance.matrix
    if source_count < 1 or source_count >= mat.shape[0]:
        raise ValueError(
            f"source_count must be in [1, {mat.shape[0] - 1}], got {source_count}"
        )
    vals, vecs = np.linalg.eigh(mat)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    gap = vals[source_count - 1] - vals[source_count]
    scale = max(abs(vals[0]), np.finfo(float).tiny)
    if gap <= 1e-8 * scale:
        raise DegenerateSubspaceError(
            f"eigenvalues {source_count} and {source_count + 1} coincide "
            f"(relative gap {gap / scale:.2e}); subspace split is ambiguous"
        )
    return SubspaceDecomposition(
        eigenvalues=vals,
        signal_basis=vecs[:, :source_count],
        noise_basis=vecs[:, source_count:],
    )


def _noise_quadratic(noise_basis: np.ndarray, manifold: np.ndarray) -> np.ndarray:
    """The MUSIC denominator ||U_n^H a||^2 per manifold column."""
    proj = noise_basis.conj().T @ manifold
    return (proj.real**2 + proj.imag**2).sum(axis=0)


# An exact-geometry column's signal form ||a||^2 - ||U_s^H a||^2 is within
# 8 M eps ||a||^2 of its noise form (`test_signal_form_matches_noise_form`).
# A cell keeps it while that bound is at most 2^-24 of its value, so at or
# above _CANCELLATION_PER_ELEMENT * M * ||a||^2: M * 2^-25, about 1e-6 at
# M = 32; a cell below goes through `_noise_quadratic`.  The band-2
# coupling-robust Gram T^H T - (U_s^H T)^H (U_s^H T) is within
# 8 M eps tr(T^H T) of its noise form, and so, by Weyl's inequality, is its
# lambda_min (`TestMcSignalForm`): the same floor holds with tr(T^H T).
_CANCELLATION_PER_ELEMENT = 8.0 * np.finfo(float).eps * 2.0**24


def _row_order_sum(terms: np.ndarray) -> np.ndarray:
    """`terms` summed over its second-to-last axis, rows added in order, so
    that a column's sum does not depend on its batch.  numpy's sum adds
    rows in order for two or more columns but sums a lone column pairwise;
    `np.add.accumulate`, slower on wide batches, never does."""
    if terms.shape[-1] > 1:
        return terms.sum(axis=-2)
    return np.add.accumulate(terms, axis=-2)[..., -1, :]


def _squared_norms(manifold: np.ndarray) -> np.ndarray:
    """||a||^2 per manifold column (`_row_order_sum`)."""
    return _row_order_sum(manifold.real**2 + manifold.imag**2)


def _signal_quadratic(decomp: SubspaceDecomposition):
    """The MUSIC denominator ||U_n^H a||^2 = ||a||^2 - ||U_s^H a||^2 per
    manifold column, as a function of the manifold and its `_squared_norms`:
    a K-row product in place of the M - K rows of `_noise_quadratic`, which
    recomputes the columns whose value falls below the cancellation floor
    (`_CANCELLATION_PER_ELEMENT`)."""
    adjoint = decomp.signal_basis.conj().T
    noise_basis = decomp.noise_basis
    floor = _CANCELLATION_PER_ELEMENT * noise_basis.shape[0]

    def cost(manifold: np.ndarray, norms: np.ndarray) -> np.ndarray:
        proj = adjoint @ manifold
        values = norms - (proj.real**2 + proj.imag**2).sum(axis=0)
        low = values < floor * norms
        if low.any():
            values[low] = _noise_quadratic(noise_basis, manifold[:, low])
        return values

    return cost


def _spectrum(denominator: np.ndarray) -> np.ndarray:
    return 1.0 / np.maximum(denominator, np.finfo(float).tiny)


def find_spectrum_peaks(
    axis: np.ndarray,
    values: np.ndarray,
    count: int,
    min_separation: float = 1.0,
) -> np.ndarray:
    """The `count` dominant interior local maxima, ascending.

    A peak must strictly exceed both neighbors; candidates are taken in
    order of decreasing value (ties toward the smaller axis position) and
    a candidate closer than `min_separation` to an accepted peak is
    dropped as a sidelobe.  Raises UnderResolutionError when fewer than
    `count` survive.
    """
    interior = np.flatnonzero(
        (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    ) + 1
    return np.sort(axis[_accept_peaks(interior, values, axis, count, min_separation)])


def _accept_peaks(candidates, values, angles, count: int, min_separation: float) -> list:
    """Greedy peak policy shared by the 1-D and 2-D searches.

    Candidates (indices into `values` and `angles`) are taken by decreasing
    value, ties toward the smaller angle; one closer than `min_separation`
    in angle to an accepted peak is a sidelobe.  Returns the accepted
    indices, or raises UnderResolutionError with the angles of those found.
    """
    order = sorted(candidates, key=lambda i: (-values[i], angles[i]))
    accepted: list = []
    for i in order:
        if all(abs(angles[i] - angles[j]) >= min_separation - 1e-12 for j in accepted):
            accepted.append(i)
            if len(accepted) == count:
                break
    if len(accepted) < count:
        raise UnderResolutionError(count, np.sort(angles[accepted]))
    return accepted


def stage1_music(
    block: SnapshotBlock | CovarianceEstimate,
    trim: int,
    source_count: int,
    angle_grid_deg: np.ndarray | None = None,
    min_peak_separation_deg: float = 1.0,
) -> tuple[SpectrumGrid, np.ndarray]:
    """Coarse angles from the compressed configuration.

    Selects the central M - 2*trim rows/columns of the sample covariance
    (of the block, or the covariance given), decomposes, and scans the
    matching rows of the far-field manifold.  Returns the spectrum and the
    `source_count` peak angles in degrees.
    """
    cov = _covariance(block)
    m = cov.config.element_count
    if m - 2 * trim <= source_count:
        raise ValueError(
            f"trim {trim} leaves {m - 2 * trim} elements for {source_count} sources"
        )
    grid = _far_field_scan(cov, trim, source_count, angle_grid_deg)
    peaks = find_spectrum_peaks(grid.axes[0], grid.values, source_count, min_peak_separation_deg)
    return grid, peaks


def _covariance(block: SnapshotBlock | CovarianceEstimate) -> CovarianceEstimate:
    """The covariance an estimator reads, and the array it reads from its
    `config`: a block's sample covariance, or the covariance given."""
    cov = sample_covariance(block) if isinstance(block, SnapshotBlock) else block
    if cov.config is None:
        raise ValueError("config must be the ArrayConfig of the covariance, got None")
    return cov


def _far_field_scan(
    block: SnapshotBlock | CovarianceEstimate, trim: int, source_count: int, angle_grid_deg
):
    """Far-field MUSIC spectrum of the central M - 2*trim rows/columns of
    the sample covariance, its denominator from the lag sums of the noise
    projector (:func:`_lag_sum_cost`)."""
    if angle_grid_deg is None:
        angle_grid_deg = EstimatorSettings().angle_grid_deg()
    cov = _covariance(block)
    m = cov.config.element_count
    central = cov.matrix[trim : m - trim, trim : m - trim]
    decomp = decompose(CovarianceEstimate(central, cov.snapshot_count), source_count)
    grid = np.asarray(angle_grid_deg)
    manifold = _far_field_manifold(cov.config, grid.dtype.str, grid.tobytes())
    values = _spectrum(_lag_sum_cost(decomp.noise_basis, manifold))
    return SpectrumGrid((angle_grid_deg,), ("angle_deg",), values)


def _lag_sum_cost(noise_basis: np.ndarray, manifold: np.ndarray) -> np.ndarray:
    """||U_n^H a||^2 per far-field manifold column, for the M' rows of U_n.

    On a uniform aperture a^H P a, P = U_n U_n^H, is the root-MUSIC
    polynomial c_0 + 2 Re sum_l c_l a_l over lags l = 1..M'-1, with c_l the
    sum of the l-th superdiagonal of P and a_l = exp(-j 2 pi l d sin(theta))
    row l of the manifold (lags alone enter, so the subarray's offset does
    not): one (1 x M') (M' x G) product in place of the (M' - K) x M' x G
    projection of `_noise_quadratic`, its test oracle.
    """
    n = noise_basis.shape[0]
    proj = (noise_basis @ noise_basis.conj().T).ravel()
    # bin n - 1 + l gathers the l-th superdiagonal, in row order
    lag = (np.arange(n) - np.arange(n)[:, None]).ravel() + n - 1
    sums = np.bincount(lag, proj.real, 2 * n - 1) + 1j * np.bincount(lag, proj.imag, 2 * n - 1)
    return sums[n - 1].real + 2.0 * (sums[n:] @ manifold[1:n]).real


@functools.lru_cache(maxsize=4)
def _far_field_manifold(config: ArrayConfig, dtype: str, grid_bytes: bytes) -> np.ndarray:
    """The far-field manifold over an angle grid given by its bytes, built
    once per (config, grid) and shared read-only by every scan."""
    manifold = ff_manifold(np.deg2rad(np.frombuffer(grid_bytes, dtype)), config)
    manifold.flags.writeable = False
    return manifold


@dataclass(frozen=True)
class RangeSearchResult:
    spectrum: SpectrumGrid
    initial_range: float
    flat_spectrum: bool


def stage2_range_search(
    decomp_extended: SubspaceDecomposition,
    coarse_angle_deg: float,
    range_grid: np.ndarray,
    config_extended: ArrayConfig,
    flat_spectrum_ratio: float = 3.0,
) -> RangeSearchResult:
    """1-D exact-geometry MUSIC scan in range at a fixed coarse angle.

    The global maximum of the scan seeds the 2-D refinement.  When the peak
    barely rises above the spectrum's median (ratio below
    `flat_spectrum_ratio`) the source is effectively planar and the result
    is flagged: its range is reported but carries little information.
    """
    ranges = np.asarray(range_grid, float)
    cells = np.arange(len(ranges))
    values = _spectrum(_plain_cost(decomp_extended, config_extended).cells(
        np.array([float(coarse_angle_deg)]), ranges, np.zeros_like(cells), cells
    ))
    best = int(np.argmax(values))
    # np.median's value, without the numpy.ma import its first call makes
    ordered, half = np.sort(values), len(values) // 2
    median = ordered[half] if len(values) % 2 else 0.5 * (ordered[half - 1] + ordered[half])
    flat = bool(values[best] < flat_spectrum_ratio * median)
    grid = SpectrumGrid((ranges,), ("range_wl",), values)
    return RangeSearchResult(grid, float(range_grid[best]), flat)


@dataclass(frozen=True)
class RefineResult:
    angle_deg: float
    range_wl: float
    boundary_hit: bool


# Pass 1 first scans every _SUBLATTICE_STRIDE-th row and column of its
# lattice, then the full-resolution block of that half-width around the
# best cell seen.
_SUBLATTICE_STRIDE = 5


# Pass axes kept built: a campaign revisits the same seeds, so the same
# windows, trial after trial (each axis holds at most 81 points by default).
_CACHED_AXES = 256


@functools.lru_cache(maxsize=_CACHED_AXES)
def _window_grid(center: float, halfwidth: float, step: float, lo: float, hi: float) -> np.ndarray:
    """The points center + k * step within halfwidth of center, clipped to
    [lo, hi]; built once per argument tuple and shared read-only."""
    n = int(round(halfwidth / step))
    grid = center + step * np.arange(-n, n + 1)
    grid = np.clip(grid[(grid >= lo - 1e-12) & (grid <= hi + 1e-12)], lo, hi)
    grid.flags.writeable = False
    return grid


def _refine_window(coarse_angle_deg: float, initial_range: float, settings: EstimatorSettings):
    """(angle lo, angle hi, range lo, range hi) around the stage-2 seed;
    the angle bounds stop at endfire, +-90 deg."""
    half_r = settings.window_range_fraction * initial_range
    return (
        max(coarse_angle_deg - settings.window_angle_deg, -90.0),
        min(coarse_angle_deg + settings.window_angle_deg, 90.0),
        initial_range - half_r,
        initial_range + half_r,
    )


def _pass1_lattice(coarse_angle_deg: float, initial_range: float, settings: EstimatorSettings):
    """(angles in degrees, ranges) of pass 1: the whole window at the pass-1 steps."""
    ang_lo, ang_hi, rng_lo, rng_hi = _refine_window(coarse_angle_deg, initial_range, settings)
    return (
        _window_grid(
            coarse_angle_deg, settings.window_angle_deg, settings.pass1_angle_step_deg,
            ang_lo, ang_hi,
        ),
        _window_grid(
            initial_range, settings.window_range_fraction * initial_range,
            settings.pass1_range_fraction * initial_range, rng_lo, rng_hi,
        ),
    )


def _around(index: int, size: int, half: int = 1) -> np.ndarray:
    """Lattice indices within `half` of `index`."""
    return np.arange(max(index - half, 0), min(index + half + 1, size))


def _sublattice(size: int) -> np.ndarray:
    """Every _SUBLATTICE_STRIDE-th index of an axis and its last one,
    ascending (`np.union1d` would import numpy.ma on its first call)."""
    indices = np.arange(0, size, _SUBLATTICE_STRIDE)
    return indices if indices[-1] == size - 1 else np.append(indices, size - 1)


class _Lattice:
    """A pass lattice whose cost values are computed on demand, once per cell.

    `values` holds NaN where a cell has not been evaluated.  Cells compare
    by (value, angle index, range index), the order of `np.argmin` on the
    full grid.
    """

    def __init__(self, cost, angles_deg: np.ndarray, ranges: np.ndarray):
        self.angles_deg = angles_deg
        self.ranges = ranges
        self.values = np.full((len(angles_deg), len(ranges)), np.nan)
        self._cost = cost

    def best(self, rows: np.ndarray, cols: np.ndarray) -> tuple[int, int]:
        """The least cell of rows x cols (ascending indices); its unseen
        cells are evaluated first, row-major, in one cost call."""
        block = self.values[rows[:, None], cols]
        a, b = np.nonzero(np.isnan(block))
        if len(a):
            i, j = rows[a], cols[b]
            block[a, b] = self.values[i, j] = self._cost.cells(self.angles_deg, self.ranges, i, j)
        k, m = divmod(int(np.argmin(block)), len(cols))
        return int(rows[k]), int(cols[m])

    def descend(self, i: int, j: int) -> tuple[int, int]:
        """Greedy 3x3 steps to a cell that is also the least of its 5x5
        neighbourhood, which is evaluated on return.  The 5x5 check lets
        the walk go on along a narrow valley that runs between the lattice
        directions, where a 3x3 local minimum need not be the lowest."""
        n_a, n_r = self.values.shape
        while True:
            for half in (1, 2):
                step = self.best(_around(i, n_a, half), _around(j, n_r, half))
                if step != (i, j):
                    i, j = step
                    break
            else:
                return i, j

    def coarse_to_fine(self) -> tuple[int, int]:
        """The sub-lattice minimum (last row and column included), the
        full-resolution block around it, then descent."""
        n_a, n_r = self.values.shape
        s = _SUBLATTICE_STRIDE
        i, j = self.best(_sublattice(n_a), _sublattice(n_r))
        return self.descend(*self.best(_around(i, n_a, s), _around(j, n_r, s)))


def _clamp(value: float, lo: float, hi: float) -> float:
    """`value` clipped to [lo, hi], as a float (cheaper than `np.clip` on a scalar)."""
    return float(min(max(value, lo), hi))


def _parabolic_vertex(d_lo: float, d_mid: float, d_hi: float) -> float:
    """Sub-grid offset (in grid steps) of the minimum of a 3-point parabola."""
    curvature = d_lo - 2.0 * d_mid + d_hi
    if curvature <= 0.0:
        return 0.0
    return _clamp(0.5 * (d_lo - d_hi) / curvature, -1.0, 1.0)


# Design matrix of the 3x3 quadratic fit: the terms 1, x, y, x^2, y^2, xy
# at the unit offsets (x, y) of the patch cells, row-major; it has full
# column rank, so its pseudo-inverse maps a patch to its least-squares fit.
_QUADRATIC_BASIS = np.array(
    [[1.0, x, y, x * x, y * y, x * y] for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
)
_QUADRATIC_PINV = np.linalg.pinv(_QUADRATIC_BASIS)


def _quadratic_vertex_2d(patch: np.ndarray) -> tuple[float, float] | None:
    """Sub-grid offsets of the minimum of a quadratic fit to a 3x3 patch.

    Least-squares fit of d = p0 + p1 x + p2 y + p3 x^2 + p4 y^2 + p5 xy on
    unit-spaced offsets; exact for any quadratic surface, cross term
    included, which matters on tilted angle/range ridges.  None when the
    fitted Hessian is not positive definite.
    """
    p = _QUADRATIC_PINV @ patch.ravel()
    hess = np.array([[2.0 * p[3], p[5]], [p[5], 2.0 * p[4]]])
    det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
    if hess[0, 0] <= 0.0 or det <= 0.0:
        return None
    dx, dy = np.linalg.solve(hess, [-p[1], -p[2]])
    return _clamp(dx, -1.0, 1.0), _clamp(dy, -1.0, 1.0)


def _subcell_offsets(values: np.ndarray, i: int, j: int) -> tuple[float, float]:
    """Offsets, in lattice steps, of the minimum near cell (i, j): the 2-D
    fit on an interior cell, else (or where that fit is not convex) a
    parabola along each axis on which the cell is interior."""
    inner_a = 0 < i < values.shape[0] - 1
    inner_r = 0 < j < values.shape[1] - 1
    if inner_a and inner_r:
        fit = _quadratic_vertex_2d(values[i - 1 : i + 2, j - 1 : j + 2])
        if fit is not None:
            return fit
    return (
        _parabolic_vertex(*values[i - 1 : i + 2, j]) if inner_a else 0.0,
        _parabolic_vertex(*values[i, j - 1 : j + 2]) if inner_r else 0.0,
    )


def _search_passes(
    cost, coarse_angle_deg: float, initial_range: float, settings: EstimatorSettings
):
    """The two pass lattices and the argmin cell found on each.

    Pass 1 spans the whole window at the pass-1 steps, pass 2 1.5 pass-1
    steps around the pass-1 cell at the pass-2 steps: the lattices a
    full-grid search fills.  Pass 1 takes the stride-5 sub-lattice, the
    full-resolution block around the sub-lattice minimum and descent from
    there; pass 2 descends from the cell nearest the vertex that the
    sub-cell fit (:func:`_subcell_offsets`) puts near the pass-1 cell,
    which is most often a step or two from where the descent ends.  Where
    the cost has one lattice local minimum per pass, the cells are the
    full-grid argmin.
    """
    pass1 = _Lattice(cost, *_pass1_lattice(coarse_angle_deg, initial_range, settings))
    i1, j1 = pass1.coarse_to_fine()
    angle1, range1 = pass1.angles_deg[i1], pass1.ranges[j1]
    step1_a, step1_r = settings.pass1_angle_step_deg, settings.pass1_range_fraction * initial_range
    ang_lo, ang_hi, rng_lo, rng_hi = _refine_window(coarse_angle_deg, initial_range, settings)
    pass2 = _Lattice(
        cost,
        _window_grid(angle1, 1.5 * step1_a, settings.pass2_angle_step_deg, ang_lo, ang_hi),
        _window_grid(
            range1, 1.5 * step1_r, settings.pass2_range_fraction * initial_range, rng_lo, rng_hi
        ),
    )
    da, dr = _subcell_offsets(pass1.values, i1, j1)
    cell2 = pass2.descend(
        int(np.argmin(np.abs(pass2.angles_deg - (angle1 + step1_a * da)))),
        int(np.argmin(np.abs(pass2.ranges - (range1 + step1_r * dr)))),
    )
    return pass1, (i1, j1), pass2, cell2


def _refine_search(
    cost,
    coarse_angle_deg: float,
    initial_range: float,
    settings: EstimatorSettings,
) -> RefineResult:
    """Two-pass windowed minimization of a spectrum denominator.

    Each pass finds the argmin cell of its lattice by a sparse search that
    evaluates a few hundred of its cells (:func:`_search_passes`).  A
    quadratic fit to the 3x3 pass-2 patch around that cell, with per-axis
    parabolas where the cell sits on a lattice edge or the fit is not
    convex, pulls the estimate off the grid; it is clamped to the window
    around (coarse angle, initial range).
    """
    ang_lo, ang_hi, rng_lo, rng_hi = _refine_window(coarse_angle_deg, initial_range, settings)
    _, _, pass2, (i2, j2) = _search_passes(cost, coarse_angle_deg, initial_range, settings)
    step2_a, step2_r = settings.pass2_angle_step_deg, settings.pass2_range_fraction * initial_range
    da, dr = _subcell_offsets(pass2.values, i2, j2)
    angle = _clamp(pass2.angles_deg[i2] + step2_a * da, ang_lo, ang_hi)
    rng = _clamp(pass2.ranges[j2] + step2_r * dr, rng_lo, rng_hi)

    edge_a = min(angle - ang_lo, ang_hi - angle) < 0.5 * step2_a
    edge_r = min(rng - rng_lo, rng_hi - rng) < 0.5 * step2_r
    boundary_hit = bool(edge_a or edge_r)
    if boundary_hit:
        warnings.warn(
            f"refined estimate ({angle:.4f} deg, {rng:.4f} wl) sits on the "
            "search-window edge; widen the windows",
            RuntimeWarning,
            stacklevel=3,
        )
    return RefineResult(angle, rng, boundary_hit)


def _pass1_patch(cost, coarse_angle_deg: float, initial_range: float, settings) -> SpectrumGrid:
    """The spectrum over the whole pass-1 lattice, for export."""
    lattice = _pass1_lattice(coarse_angle_deg, initial_range, settings)
    angles, ranges = (axis.copy() for axis in lattice)  # the memo's axes are read-only
    values = _spectrum(_on_mesh(cost, np.deg2rad(angles), ranges))
    return SpectrumGrid((angles, ranges), ("angle_deg", "range_wl"), values)


@dataclass(frozen=True)
class _GridCost:
    """Cost function of paired (angles_rad, ranges) points, one value per
    point: `column_cost` maps the (M, G) exact-geometry manifold and the
    per-column `terms` of its G columns (their `_squared_norms`, or their
    `_transform_gram`) to G values (the MUSIC denominator or the
    rank-reduction eigenvalue).  `cells` evaluates lattice cells from the
    steering-column cache, whose stores are kept per lattice and term."""

    column_cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    config: ArrayConfig
    terms: Callable[[np.ndarray], np.ndarray] = _squared_norms

    def __call__(self, angles_rad, ranges) -> np.ndarray:
        manifold = esg_manifold_centered(angles_rad, ranges, self.config)
        return self.column_cost(manifold, self.terms(manifold))

    def cells(self, angles_deg, ranges, rows, cols) -> np.ndarray:
        """The cost at distinct cells (angles_deg[rows], ranges[cols]) of a
        lattice, from its column store.  A column does not depend on the
        batch it is computed in, so the manifold holds the bytes
        `esg_manifold_centered` gives for the same cells.  A cell's cost
        does: the BLAS product may round a column differently with the
        width and offset of the batch (OpenBLAS did for 178 of 522 batches
        tried at M = 32), so a change to which cells a walk asks for
        together moves the last bits of costs whose columns stay fixed.
        Missing columns and their terms are computed once, together."""
        store = _lattice_columns(self.config, self.terms, angles_deg.tobytes(), ranges.tobytes())
        miss = store.slots[rows, cols] < 0
        if miss.any():
            r, c = rows[miss], cols[miss]
            new = esg_manifold_centered(np.deg2rad(angles_deg[r]), ranges[c], self.config)
            count = store.columns.shape[1]
            store.slots[r, c] = np.arange(count, count + new.shape[1])
            store.columns = np.concatenate((store.columns, new), axis=1)
            store.terms = np.concatenate((store.terms, self.terms(new)))
        slots = store.slots[rows, cols]
        return self.column_cost(np.take(store.columns, slots, axis=1), store.terms[slots])


# Lattices whose exact-geometry columns stay cached.  A 4-source campaign
# revisits 28 (about 4,300 columns, 2 MiB at M = 32); a lattice holds only
# the columns of the cells it was asked for.
_CACHED_LATTICES = 32


@dataclass
class _LatticeColumns:
    """Exact-geometry steering columns of one lattice and one cost's
    per-column terms.  `slots` is -1 for a cell until its column is
    computed and then the column's index in `columns`, where new columns
    are appended in request order, and their `terms` rows with them: the
    store holds one column per distinct cell requested."""

    slots: np.ndarray
    columns: np.ndarray
    terms: np.ndarray


@functools.lru_cache(maxsize=_CACHED_LATTICES)
def _lattice_columns(config: ArrayConfig, term, angle_bytes: bytes, range_bytes: bytes):
    """The column store, holding the `term` of each column (`_squared_norms`
    or `_transform_gram`), of the lattice whose float64 axes (angles in
    degrees, ranges) have these bytes: a lattice that two costs with
    different terms search has a store for each."""
    shape = (np.frombuffer(angle_bytes).size, np.frombuffer(range_bytes).size)
    columns = np.empty((config.element_count, 0), complex)
    return _LatticeColumns(np.full(shape, -1), columns, term(columns))


def _on_mesh(cost, angles_rad: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """`cost` over the mesh of two axes, shape (angles, ranges)."""
    mesh_t, mesh_r = np.meshgrid(angles_rad, ranges, indexing="ij")
    return cost(mesh_t.ravel(), mesh_r.ravel()).reshape(len(angles_rad), len(ranges))


def _plain_cost(decomp: SubspaceDecomposition, config: ArrayConfig):
    return _GridCost(_signal_quadratic(decomp), config)


def stage2_refine(
    decomp_extended: SubspaceDecomposition,
    coarse_angle_deg: float,
    initial_range: float,
    config_extended: ArrayConfig,
    settings: EstimatorSettings = EstimatorSettings(),
) -> RefineResult:
    """Windowed 2-D exact-geometry MUSIC refinement around the stage-1 seed.

    The refined pair always satisfies |angle - coarse| <= window_angle_deg
    and |range - initial| <= window_range_fraction * initial.
    """
    return _refine_search(
        _plain_cost(decomp_extended, config_extended), coarse_angle_deg, initial_range, settings
    )


def _mc_transform_batch(manifold: np.ndarray, band: int) -> np.ndarray:
    """Stack of transforms T with columns [a, shift(a,-q)+shift(a,+q)]_q.

    For a banded complex-symmetric Toeplitz coupling C with coefficient
    vector c = [1, c_1, ..., c_P], C @ a equals T @ c for every a, which is
    what lets the spectrum search over coupled steering without knowing c.
    `manifold` is (M, G); returns (band + 1, M, G), slice q holding S_q a.
    """
    m = manifold.shape[0]
    t = np.zeros((band + 1, *manifold.shape), dtype=complex)
    t[0] = manifold
    for q in range(1, band + 1):
        t[q, q:] += manifold[: m - q]
        t[q, : m - q] += manifold[q:]
    return t


def _mc_noise_stack(basis: np.ndarray, band: int) -> np.ndarray:
    """Rows [U^H S_q for q = 0..band] of an (M, r) basis U (the noise
    basis U_n, or the signal basis U_s), stacked ((band + 1) r, M).

    Column q of T is S_q a, with S_q the symmetric 0/1 matrix that sums the
    -q and +q shifts (S_0 = I), so U^H T_q = (U^H S_q) a and the rows
    U^H S_q = (S_q conj(U))^T are the transform of the basis columns.
    """
    t = _mc_transform_batch(basis.conj(), band)
    return t.transpose(0, 2, 1).reshape(-1, basis.shape[0])


def _mc_min_eigenvalues(noise_stack: np.ndarray, manifold: np.ndarray, band: int) -> np.ndarray:
    """lambda_min(T^H U_n U_n^H T) per manifold column: the projection
    U_n^H T of every column and every q as one product with the stack, then
    one batched `eigvalsh` of the (G, band + 1, band + 1) Gram stack."""
    proj = (noise_stack @ manifold).reshape(band + 1, -1, manifold.shape[1])
    return np.linalg.eigvalsh(np.einsum("ing,jng->gij", proj.conj(), proj))[:, 0]


# Row and column of the six distinct entries of a 3 x 3 Gram: the diagonal,
# then (0, 1), (0, 2) and (1, 2).
_GRAM_ROWS, _GRAM_COLS = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])


def _gram_entries(proj: np.ndarray) -> np.ndarray:
    """The six distinct entries (`_GRAM_ROWS`, `_GRAM_COLS`) of each 3 x 3
    Gram proj[:, :, g]^H proj[:, :, g] of a (3, n, G) projection, (6, G)."""
    return np.einsum("ing,jng->ijg", proj.conj(), proj)[_GRAM_ROWS, _GRAM_COLS]


# The share of lambda_max below which the gap lambda_mid - lambda_min sends
# a cell from the closed form to `eigvalsh`.
_CUBIC_GAP = 1e-3
_TINY = np.finfo(float).tiny


def _min_eigenvalues_3x3(gram: np.ndarray) -> np.ndarray:
    """lambda_min of each 3 x 3 Hermitian Gram A from its six distinct
    entries (`_gram_entries`), NaN where the gap rule sends it elsewhere.

    With m = tr(A)/3, B = A - m I, h = sqrt(tr(B^2)/6) and
    phi = arccos(det(B) / 2h^3)/3, the eigenvalues are
    m + 2h cos(phi + 2 pi k/3), largest at k = 0 and smallest at k = 1
    (Smith 1961).  That root loses accuracy where the two smallest
    eigenvalues meet: an O(eps) error in the determinant moves it by
    O(sqrt eps), about 1e-8 lambda_max at a relative gap of 1e-6 (Kopp
    2008, arXiv:physics/0610206).  So cells whose computed gap
    lambda_mid - lambda_min is below `_CUBIC_GAP` of lambda_max (or NaN)
    come back NaN, for `eigvalsh`; above the gap the two agree to about
    1e-13 lambda_max.  The two largest meeting (phi -> pi/3) costs no
    accuracy, since d lambda_min / d phi vanishes there.
    """
    diag, off = gram[:3].real, gram[3:]
    mean = diag.sum(axis=0) / 3.0
    b0, b1, b2 = b = diag - mean
    s01, s02, s12 = s = off.real**2 + off.imag**2
    half = np.sqrt(((b * b).sum(axis=0) + 2.0 * s.sum(axis=0)) / 6.0)
    g01, g02, g12 = off
    det = b0 * (b1 * b2 - s12) - b1 * s02 - b2 * s01 + 2.0 * (g01 * g12 * g02.conj()).real
    # a scalar Gram has half = det = 0: the ratio is then 0, not NaN
    ratio = det / np.maximum(2.0 * half**3, _TINY)
    phi = np.arccos(np.minimum(np.maximum(ratio, -1.0), 1.0)) / 3.0
    lam_max = mean + 2.0 * half * np.cos(phi)
    lam_min = mean + 2.0 * half * np.cos(phi + 2.0 * np.pi / 3.0)
    lam_min[~(3.0 * mean - lam_max - 2.0 * lam_min >= _CUBIC_GAP * lam_max)] = np.nan
    return lam_min


def _transform_gram(manifold: np.ndarray) -> np.ndarray:
    """The Gram T^H T of the band-2 transform T = [a, S_1 a, S_2 a] of each
    manifold column, as a row of its six distinct entries (`_gram_entries`'
    order), each a `_row_order_sum` so that a column's entries do not
    depend on its batch.  It depends on the column alone, so the column
    store keeps it."""
    t = _mc_transform_batch(manifold, 2)
    return _row_order_sum(t[_GRAM_ROWS].conj() * t[_GRAM_COLS]).T


def _mc_signal_form(decomp: SubspaceDecomposition):
    """lambda_min(T^H U_n U_n^H T) at band 2 per manifold column from the
    K signal vectors, as a function of the manifold and its
    `_transform_gram`: the Gram is T^H T - (U_s^H T)^H (U_s^H T), a 3K-row
    product in place of the 3(M - K) rows of `_mc_min_eigenvalues`, which
    recomputes the cells whose value falls below the cancellation floor,
    `_CANCELLATION_PER_ELEMENT` times M tr(T^H T), is negative, or fails
    the gap rule of `_min_eigenvalues_3x3`."""
    signal_stack = _mc_noise_stack(decomp.signal_basis, 2)
    noise_basis = decomp.noise_basis
    floor = _CANCELLATION_PER_ELEMENT * noise_basis.shape[0]

    def cost(manifold: np.ndarray, gram: np.ndarray) -> np.ndarray:
        proj = (signal_stack @ manifold).reshape(3, -1, manifold.shape[1])
        lam_min = _min_eigenvalues_3x3(gram.T - _gram_entries(proj))
        low = ~(lam_min >= floor * gram[:, :3].real.sum(axis=1))
        if low.any():
            lam_min[low] = _mc_min_eigenvalues(_mc_noise_stack(noise_basis, 2), manifold[:, low], 2)
        return lam_min

    return cost


def _mc_cost(decomp: SubspaceDecomposition, band: int, config: ArrayConfig):
    m = config.element_count
    if not _integral(band):
        raise ValueError(f"band must be a whole number, got {band!r}")
    if not 1 <= band <= m - 1:
        raise ValueError(f"band must be in [1, M - 1] = [1, {m - 1}], got {band}")
    if band == 2:
        return _GridCost(_mc_signal_form(decomp), config, _transform_gram)
    stack = _mc_noise_stack(decomp.noise_basis, band)
    return _GridCost(lambda manifold, norms: _mc_min_eigenvalues(stack, manifold, band), config)


def mc_music_spectrum(
    decomp_extended: SubspaceDecomposition,
    angle_deg: float,
    range_wl: float,
    band: int,
    config_extended: ArrayConfig,
) -> float:
    """Coupling-robust spectrum value 1/lambda_min(T^H U_n U_n^H T).

    At a true source location the quadratic form is rank-deficient for any
    banded symmetric coupling of bandwidth <= `band`, so the spectrum peaks
    there regardless of the unknown coupling coefficients.
    """
    cost = _mc_cost(decomp_extended, band, config_extended)
    return float(_spectrum(cost(np.deg2rad([angle_deg]), np.array([float(range_wl)])))[0])


def mc_music_refine(
    decomp_extended: SubspaceDecomposition,
    coarse_angle_deg: float,
    initial_range: float,
    band: int,
    config_extended: ArrayConfig,
    settings: EstimatorSettings = EstimatorSettings(),
) -> RefineResult:
    """Windowed 2-D refinement maximizing the coupling-robust spectrum."""
    return _refine_search(
        _mc_cost(decomp_extended, band, config_extended), coarse_angle_deg, initial_range, settings
    )


def baseline_ff_music(
    block: SnapshotBlock | CovarianceEstimate,
    source_count: int,
    angle_grid_deg: np.ndarray | None = None,
) -> SpectrumGrid:
    """Conventional far-field MUSIC on the full, unsmoothed covariance.

    Comparison baseline for a fixed half-wavelength array; peaks (when
    resolvable) come from :func:`find_spectrum_peaks`.
    """
    return _far_field_scan(block, 0, source_count, angle_grid_deg)


def oracle_2d_music(
    block_extended: SnapshotBlock | CovarianceEstimate,
    source_count: int,
    angle_grid_deg: np.ndarray | None = None,
    range_grid: np.ndarray | None = None,
    min_peak_separation_deg: float = 1.0,
) -> tuple[list[tuple[float, float]], SpectrumGrid]:
    """Exhaustive 2-D exact-geometry MUSIC over the full grid.

    Brute-force reference for the two-stage decomposition: returns the
    `source_count` dominant 2-D local maxima (strictly above all eight
    neighbors, deduplicated by angle separation) sorted by angle, plus the
    full spectrum.
    """
    settings = EstimatorSettings()
    if angle_grid_deg is None:
        angle_grid_deg = settings.angle_grid_deg()
    if range_grid is None:
        range_grid = settings.range_grid()
    angle_grid_deg = np.asarray(angle_grid_deg, float)
    cov = _covariance(block_extended)
    decomp = decompose(cov, source_count)
    cost = _plain_cost(decomp, cov.config)
    angles_rad = np.deg2rad(angle_grid_deg)
    denom = np.empty((len(angle_grid_deg), len(range_grid)))
    chunk = max(1, 131072 // len(range_grid))
    for start in range(0, len(angles_rad), chunk):
        denom[start : start + chunk, :] = _on_mesh(
            cost, angles_rad[start : start + chunk], range_grid
        )
    values = _spectrum(denom)

    core = values[1:-1, 1:-1]
    mask = np.ones_like(core, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mask &= core > values[1 + di : values.shape[0] - 1 + di,
                                  1 + dj : values.shape[1] - 1 + dj]
    cand_i, cand_j = np.nonzero(mask)
    cand_i += 1
    cand_j += 1
    accepted = _accept_peaks(
        range(len(cand_i)), values[cand_i, cand_j], angle_grid_deg[cand_i],
        source_count, min_peak_separation_deg,
    )
    pairs = [(float(angle_grid_deg[cand_i[n]]), float(range_grid[cand_j[n]])) for n in accepted]
    grid = SpectrumGrid(
        (angle_grid_deg, np.asarray(range_grid, float)), ("angle_deg", "range_wl"), values
    )
    return sorted(pairs), grid


@dataclass(frozen=True)
class PairingResult:
    """Truth-ordered assignment of estimates and the signed errors."""

    assignment: np.ndarray
    angle_errors: np.ndarray
    range_errors: np.ndarray | None


def pair_estimates(
    estimated_angles_deg,
    true_angles_deg,
    estimated_ranges=None,
    true_ranges=None,
) -> PairingResult:
    """Match estimates to truth by minimum total angular error.

    Solved exactly for any source count by sorted matching: the k-th
    smallest estimate goes to the k-th smallest true angle.  The cost
    |estimate - truth| is convex in the difference, so for x1 <= x2 and
    y1 <= y2, |x1 - y1| + |x2 - y2| <= |x1 - y2| + |x2 - y1|, and uncrossing
    pairs never raises the total.  Where several assignments tie, this
    sorted one is returned.  Entry k of the outputs refers to truth source
    k; errors are signed (estimate - truth).  Raises ValueError for a count
    mismatch or a non-finite angle.
    """
    est = np.atleast_1d(np.asarray(estimated_angles_deg, dtype=float))
    true = np.atleast_1d(np.asarray(true_angles_deg, dtype=float))
    if est.shape != true.shape:
        raise ValueError(f"got {len(est)} estimates for {len(true)} sources")
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(true))):
        raise ValueError(f"angles must be finite, got estimates {est} for sources {true}")
    assignment = np.empty(len(true), dtype=int)
    assignment[np.argsort(true, kind="stable")] = np.argsort(est, kind="stable")
    angle_errors = est[assignment] - true
    range_errors = None
    if estimated_ranges is not None and true_ranges is not None:
        est_r = np.atleast_1d(np.asarray(estimated_ranges, dtype=float))
        true_r = np.atleast_1d(np.asarray(true_ranges, dtype=float))
        range_errors = est_r[assignment] - true_r
    return PairingResult(assignment, angle_errors, range_errors)


@dataclass(frozen=True)
class SourceEstimate:
    """Stage-1 and stage-2 outputs for one detected source."""

    coarse_angle_deg: float
    initial_range: float
    refined_angle_deg: float
    refined_range: float
    range_flat: bool
    boundary_hit: bool


@dataclass(frozen=True)
class LocalizationEstimate:
    """Full two-stage output with the search windows that produced it."""

    sources: tuple[SourceEstimate, ...]
    window_angle_deg: float
    window_range_fraction: float

    @property
    def coarse_angles_deg(self) -> np.ndarray:
        return np.array([s.coarse_angle_deg for s in self.sources])

    @property
    def refined_angles_deg(self) -> np.ndarray:
        return np.array([s.refined_angle_deg for s in self.sources])

    @property
    def refined_ranges(self) -> np.ndarray:
        return np.array([s.refined_range for s in self.sources])


@dataclass
class _Spectra:
    """Spectra a trial computes on its way: the stage-1 scan, the range
    scans and the pass-1 refinement patches of the two-stage pipeline, and
    the conventional baseline scan.  Filled in as they appear, so a run
    that fails part-way keeps the ones it reached."""

    stage1: SpectrumGrid | None = None
    range_scans: list[SpectrumGrid] = field(default_factory=list)
    refine_patches: list[SpectrumGrid] = field(default_factory=list)
    conventional: SpectrumGrid | None = None


def two_stage_localize(
    block_compressed: SnapshotBlock | CovarianceEstimate,
    block_extended: SnapshotBlock | CovarianceEstimate,
    source_count: int,
    trim: int,
    settings: EstimatorSettings = EstimatorSettings(),
    mc_band: int | None = None,
    spectra: _Spectra | None = None,
) -> LocalizationEstimate:
    """Run the complete pipeline on one pair of snapshot blocks, or on
    their covariances.

    With `mc_band` set, the 2-D refinement uses the coupling-robust
    rank-reduction spectrum instead of the plain exact-geometry one.  With
    a `spectra` collector given, the spectra along the way are recorded
    in it too, each whole pass-1 patch evaluated for it.
    """
    stage1, coarse = stage1_music(
        block_compressed,
        trim,
        source_count,
        settings.angle_grid_deg(),
        settings.min_peak_separation_deg,
    )
    if spectra is not None:
        spectra.stage1 = stage1
    cov = _covariance(block_extended)
    decomp = decompose(cov, source_count)
    range_grid = settings.range_grid()
    config = cov.config
    if spectra is not None:
        export_cost = (
            _plain_cost(decomp, config) if mc_band is None else _mc_cost(decomp, mc_band, config)
        )
    results = []
    for angle in map(float, coarse):
        search = stage2_range_search(
            decomp, angle, range_grid, config, settings.flat_spectrum_ratio
        )
        if spectra is not None:
            spectra.range_scans.append(search.spectrum)
        if mc_band is None:
            refined = stage2_refine(decomp, angle, search.initial_range, config, settings)
        else:
            refined = mc_music_refine(
                decomp, angle, search.initial_range, mc_band, config, settings
            )
        if spectra is not None:
            spectra.refine_patches.append(
                _pass1_patch(export_cost, angle, search.initial_range, settings)
            )
        results.append(
            SourceEstimate(
                coarse_angle_deg=angle,
                initial_range=search.initial_range,
                refined_angle_deg=refined.angle_deg,
                refined_range=refined.range_wl,
                range_flat=search.flat_spectrum,
                boundary_hit=refined.boundary_hit,
            )
        )
    return LocalizationEstimate(
        tuple(results), settings.window_angle_deg, settings.window_range_fraction
    )
