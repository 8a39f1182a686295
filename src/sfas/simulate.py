"""Ground-truth snapshot generation and sample covariance estimation.

Scenario sources are located by (angle, range) from the array center, the
one point both configurations share (see :mod:`sfas.geometry`).  Data is
always synthesized from the exact-geometry propagation model (the
far-field form is an estimator-side approximation, never the truth), with
coupling applied in the compressed configuration and optionally in the
extended one.  Every random draw comes from a named stream keyed by
(seed, trial, stage, role[, source]), so adding sources, snapshots or
stages never perturbs the draws of the others and trials can run in any
order on any number of workers.  The draws do not depend on the SNR, so
the cells of an SNR sweep share them through a small memo.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, replace

import numpy as np

from .coupling import CouplingModel, coupling_matrix
from .geometry import ArrayConfig, SourceTruth, array_center, esg_steering_centered

__all__ = [
    "Scenario",
    "SnapshotBlock",
    "CovarianceEstimate",
    "generate_snapshots_compressed",
    "generate_snapshots_extended",
    "generate_snapshots_baseline",
    "sample_covariance",
    "save_snapshot_block",
    "load_snapshot_block",
]

_STAGE_CODES = {"compressed": 0, "extended": 1, "baseline": 2}
_ROLE_SIGNAL = 0
_ROLE_NOISE = 1


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulated localization problem."""

    sources: tuple[SourceTruth, ...]
    config_compressed: ArrayConfig = ArrayConfig(32, 0.5, 0.2)
    config_extended: ArrayConfig = ArrayConfig(32, 0.5, 2.0)
    coupling: CouplingModel = CouplingModel()
    coupling_extended: CouplingModel | None = None
    snapshots: int = 500
    snr_db: float = 0.0
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        problems = self.validation_errors()
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))

    def validation_errors(self) -> list[str]:
        """All violated invariants, as human-readable messages.

        A source-free scenario is legal (pure-noise data for covariance
        sanity checks); estimators demand at least one source themselves.
        """
        problems = []
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            problems.append(
                f"snr_db must be finite, or +inf for noiseless data, got {self.snr_db}"
            )
        for name, cfg in (("compressed", self.config_compressed),
                          ("extended", self.config_extended)):
            if not np.all(np.isfinite([cfg.baseline_spacing, cfg.scale])):
                problems.append(
                    f"{name} baseline spacing and scale must be finite, "
                    f"got {cfg.baseline_spacing}, {cfg.scale}"
                )
        for i, src in enumerate(self.sources):
            if not np.all(np.isfinite([src.angle, src.range, src.power])):
                problems.append(
                    f"source {i} angle, range and power must be finite, "
                    f"got {src.angle}, {src.range}, {src.power}"
                )
        if self.config_compressed.scale >= 1.0:
            problems.append(
                f"compressed scale must be < 1, got {self.config_compressed.scale}"
            )
        if self.config_extended.scale <= 1.0:
            problems.append(
                f"extended scale must be > 1, got {self.config_extended.scale}"
            )
        if self.config_compressed.element_count != self.config_extended.element_count:
            problems.append("both configurations must share the element count")
        if self.config_compressed.baseline_spacing != self.config_extended.baseline_spacing:
            problems.append("both configurations must share the baseline spacing")
        m = self.config_compressed.element_count
        k = len(self.sources)
        if k >= m - 2 * self.coupling.band:
            problems.append(
                f"{k} sources exceed the identifiability limit "
                f"M - 2*band - 1 = {m - 2 * self.coupling.band - 1}"
            )
        ext = self.coupling_extended
        if ext is not None and ext.band > m - 1:
            problems.append(
                f"extended coupling band {ext.band} exceeds the largest lag {m - 1}"
            )
        # Center-frame ranges must clear the half-aperture even when extended,
        # otherwise the source sits on top of the array.
        reach = array_center(self.config_extended)
        for i, src in enumerate(self.sources):
            if src.range <= reach:
                problems.append(
                    f"source {i} range {src.range} is inside the extended "
                    f"half-aperture {reach}"
                )
        if self.snapshots < 1:
            problems.append(f"snapshots must be >= 1, got {self.snapshots}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        return problems

    @property
    def source_count(self) -> int:
        return len(self.sources)

    @property
    def noise_variance(self) -> float:
        """Noise power from SNR relative to unit source power; inf SNR means noiseless."""
        if np.isinf(self.snr_db):
            return 0.0
        return float(10.0 ** (-self.snr_db / 10.0))

    def with_snr(self, snr_db: float) -> "Scenario":
        return replace(self, snr_db=snr_db)

    def with_snapshots(self, snapshots: int) -> "Scenario":
        return replace(self, snapshots=int(snapshots))


@dataclass(frozen=True)
class SnapshotBlock:
    """M x N complex observations plus the noise variance they were drawn with."""

    data: np.ndarray
    noise_variance: float
    config: ArrayConfig

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] != self.config.element_count:
            raise ValueError(
                f"data shape {self.data.shape} does not match M={self.config.element_count}"
            )

    @property
    def snapshot_count(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class CovarianceEstimate:
    """Hermitian sample covariance and the number of snapshots behind it."""

    matrix: np.ndarray
    snapshot_count: int


def _stream(seed: int, trial: int, stage: str, role: int, sub: int = 0) -> np.random.Generator:
    key = (int(trial), _STAGE_CODES[stage], int(role), int(sub))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


# Blocks whose draws the memo below keeps: the stages of two trials.  A
# campaign runs the sweep cells of a trial back to back (see
# `harness.run_campaign`), so a pool no wider than the sweep works on one
# or two trials at a time.  A miss only draws the same bytes again.
_MEMO_BLOCKS = 2 * len(_STAGE_CODES)


@functools.lru_cache(maxsize=_MEMO_BLOCKS)
def _draws(
    seed: int, trial: int, stage: str, snapshots: int, powers: tuple[float, ...], m: int
) -> tuple[np.ndarray, np.ndarray]:
    """A block's read-only draws, shared by the cells of an SNR sweep: the
    K x N signal (each source's sqrt(power)-scaled circular Gaussian row from
    its own stream, snapshot-major, so the first N snapshots do not depend on
    N or K) and the (N, m, 2) unit (re, im) noise pairs; m = 0 draws none."""
    rows = []
    for k, power in enumerate(powers):
        pairs = _stream(seed, trial, stage, _ROLE_SIGNAL, k).standard_normal((snapshots, 2))
        rows.append(np.sqrt(power / 2.0) * (pairs[:, 0] + 1j * pairs[:, 1]))
    signal = np.asarray(rows) if rows else np.zeros((0, snapshots), dtype=complex)
    noise = np.zeros((snapshots, 0, 2))
    if m:
        noise = _stream(seed, trial, stage, _ROLE_NOISE).standard_normal((snapshots, m, 2))
    signal.flags.writeable = noise.flags.writeable = False
    return signal, noise


@functools.lru_cache(maxsize=32)
def _channel_matrix(
    sources: tuple[SourceTruth, ...], config: ArrayConfig, model: CouplingModel | None
) -> np.ndarray:
    """The (M, K) steering columns, coupled when `model` couples: they do
    not depend on the trial, so they are built once per (sources, config,
    model) and shared read-only by every trial."""
    if not sources:
        channel = np.zeros((config.element_count, 0), dtype=complex)
    else:
        channel = np.column_stack([esg_steering_centered(src, config) for src in sources])
        if model is not None and model.reference_strength != 0.0:
            channel = coupling_matrix(config, model) @ channel
    channel.flags.writeable = False
    return channel


def _synthesize(
    scenario: Scenario, trial: int, stage: str, config: ArrayConfig, model: CouplingModel | None
) -> SnapshotBlock:
    var = scenario.noise_variance
    m = config.element_count if var else 0
    powers = tuple(src.power for src in scenario.sources)
    signal, noise = _draws(scenario.seed, trial, stage, scenario.snapshots, powers, m)
    data = _channel_matrix(scenario.sources, config, model) @ signal
    # Each (re, im) pair of the last axis is one complex sample.  A noiseless
    # block adds zeros, so a -0.0 of the product reads +0.0.
    data += (noise * np.sqrt(var / 2.0)).view(complex)[:, :, 0].T if m else 0.0
    return SnapshotBlock(data, var, config)


def generate_snapshots_compressed(scenario: Scenario, trial: int = 0) -> SnapshotBlock:
    """Coupled exact-geometry snapshots from the compressed configuration."""
    config = scenario.config_compressed
    return _synthesize(scenario, trial, "compressed", config, scenario.coupling)


def generate_snapshots_extended(
    scenario: Scenario, include_coupling: bool = False, trial: int = 0
) -> SnapshotBlock:
    """Extended-configuration snapshots; coupling only on request.

    With coupling enabled the scenario's `coupling_extended` model is used
    when present, otherwise the compressed-stage model re-evaluated at the
    extended spacing.  Signal and noise realizations are independent of the
    compressed stage (fresh streams), while the source positions are shared.
    """
    model = None
    if include_coupling:
        model = scenario.coupling_extended or scenario.coupling
    return _synthesize(scenario, trial, "extended", scenario.config_extended, model)


def generate_snapshots_baseline(scenario: Scenario, trial: int = 0) -> SnapshotBlock:
    """Snapshots from a fixed half-wavelength array (scale 1), uncoupled.

    Reference data for the conventional far-field MUSIC comparison.
    """
    config = scenario.config_compressed.with_scale(1.0)
    return _synthesize(scenario, trial, "baseline", config, None)


def sample_covariance(block: SnapshotBlock) -> CovarianceEstimate:
    """(1/N) X X^H, forced exactly Hermitian against rounding drift."""
    n = block.snapshot_count
    mat = block.data @ block.data.conj().T / n
    mat = 0.5 * (mat + mat.conj().T)
    return CovarianceEstimate(mat, n)


# Binary snapshot interchange: little-endian header
#   magic "SFASBLK1", uint8 dtype (0: complex64, 1: complex128),
#   uint32 M, uint32 N, float64 noise_variance, float64 scale,
#   float64 baseline_spacing
# followed by row-major complex data (interleaved re/im pairs).
_MAGIC = b"SFASBLK1"
_HEADER = struct.Struct("<8sBIIddd")
_DTYPES = {0: np.complex64, 1: np.complex128}


def save_snapshot_block(block: SnapshotBlock, path, dtype=np.complex128) -> None:
    dtype = np.dtype(dtype)
    code = {np.dtype(t): c for c, t in _DTYPES.items()}[dtype]
    header = _HEADER.pack(
        _MAGIC,
        code,
        block.config.element_count,
        block.snapshot_count,
        block.noise_variance,
        block.config.scale,
        block.config.baseline_spacing,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(block.data.astype(dtype)).tobytes())


def load_snapshot_block(path) -> SnapshotBlock:
    """Read a block written by :func:`save_snapshot_block`; a malformed file
    raises ValueError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {_HEADER.size}-byte header")
    magic, code, m, n, variance, scale, d0 = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path} is not a snapshot block file")
    if code not in _DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    if m < 2 or n < 1:
        raise ValueError(f"{path}: M={m} elements and N={n} snapshots, need M >= 2 and N >= 1")
    if not np.all(np.isfinite([scale, d0])) or min(scale, d0) <= 0.0:
        raise ValueError(
            f"{path}: scale {scale} and baseline spacing {d0} must be finite and > 0"
        )
    if not np.isfinite(variance) or variance < 0.0:
        raise ValueError(f"{path}: noise variance {variance} must be finite and >= 0")
    dtype = np.dtype(_DTYPES[code])
    payload = memoryview(raw)[_HEADER.size :]
    if len(payload) != m * n * dtype.itemsize:
        raise ValueError(f"{path}: {len(payload)} payload bytes do not hold {m}x{n} {dtype}")
    data = np.frombuffer(payload, dtype=dtype).reshape(m, n).astype(np.complex128)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: the payload holds a non-finite sample")
    return SnapshotBlock(data, variance, ArrayConfig(m, d0, scale))
