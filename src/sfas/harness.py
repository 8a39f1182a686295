"""Monte-Carlo campaigns, single-shot spectrum dumps, and scenario files.

Scenario and campaign descriptions live in YAML files (key/value with
nested sections); every output CSV embeds the fully resolved configuration
and package version in `#`-prefixed header lines so any result can be
reproduced from the artifact alone.  A single shot and every campaign
trial take one path, `_run_trial`: draw the trial's covariances, then run
estimators of the `_ESTIMATORS` registry on them, each giving a
`_TrialRecord`.  Trials are deterministic functions of (seed, trial
index), so a campaign can split its jobs over forked worker processes:
the worker count changes wall time only, never a byte of output.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import pickle
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from ._blas import one_blas_thread
from .coupling import CouplingModel, decoupling_residual, selection_matrix
from .crb import CrbResult, crb
from .estimators import (
    DegenerateSubspaceError,
    EstimatorSettings,
    LocalizationEstimate,
    SpectrumGrid,
    UnderResolutionError,
    _Spectra,
    baseline_ff_music,
    find_spectrum_peaks,
    oracle_2d_music,
    pair_estimates,
    two_stage_localize,
)
from .geometry import (
    ArrayConfig,
    SourceTruth,
    ff_steering,
    rayleigh_distance,
)
# Trials draw covariances; generate_snapshots_* stay for perfbench/tracing.py:SITES.
from .simulate import (
    Scenario,
    draw_covariance,
    generate_snapshots_baseline,
    generate_snapshots_compressed,
    generate_snapshots_extended,
)

__all__ = [
    "Campaign",
    "RmseRecord",
    "SingleShotBundle",
    "ScenarioFileError",
    "load_scenario",
    "load_file",
    "dump_scenario",
    "run_single_shot",
    "run_campaign",
    "write_crb_csv",
    "validate_scenario",
    "ESTIMATOR_NAMES",
]

SWEEP_AXES = ("snr_db", "snapshots", "none")
# The most trials per sweep point: `run_campaign` builds every (sweep point,
# trial) job and keeps every scored outcome until it reduces, about 0.6 kB a
# job with two estimators, so 10^6 trials hold about 0.6 GB per point.
_MAX_TRIALS = 10**6
# Columns of rmse.csv and crb.csv, so bound curves overlay the RMSE rows.
_LONG_FORM_HEADER = ["sweep_value", "estimator", "source", "metric", "value"]


class ScenarioFileError(ValueError):
    """Parse or validation failure, with every violated invariant listed."""


@dataclass(frozen=True)
class Campaign:
    """A sweep of Monte-Carlo trials over one scenario template.  `cells`
    holds the scenario of each sweep value, built and checked with the
    campaign."""

    scenario: Scenario
    sweep: str = "none"
    values: tuple[float, ...] = ()
    trials: int = 1000
    estimators: tuple[str, ...] = ("two_stage",)
    settings: EstimatorSettings = EstimatorSettings()
    out_dir: str | None = None
    cells: tuple[Scenario, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.sweep not in SWEEP_AXES:
            raise ScenarioFileError(f"sweep must be one of {SWEEP_AXES}, got {self.sweep!r}")
        values = self.values
        if self.sweep == "none":
            values = (0.0,)
            object.__setattr__(self, "values", values)
        if not values:
            raise ScenarioFileError("values must not be empty in a swept campaign")
        if len(values) > 1 and not all(b > a for a, b in zip(values, values[1:])):
            raise ScenarioFileError("values must be strictly increasing")
        whole = all(v >= 1 and float(v).is_integer() for v in values)
        if self.sweep == "snapshots" and not whole:
            raise ScenarioFileError(
                f"values must be whole numbers >= 1 in a snapshot sweep, got {list(values)}"
            )
        cells = []
        for value in values:
            try:
                cells.append(self.scenario_at(value))
            except ValueError as exc:
                raise ScenarioFileError(f"values {value!r}: {exc}") from exc
        object.__setattr__(self, "cells", tuple(cells))
        if self.trials < 1:
            raise ScenarioFileError(f"trials must be >= 1, got {self.trials}")
        if self.trials > _MAX_TRIALS:
            raise ScenarioFileError(f"trials must be <= {_MAX_TRIALS}")
        if not self.estimators:
            raise ScenarioFileError("estimators must name at least one estimator")
        for name in self.estimators:
            if name not in ESTIMATOR_NAMES:
                raise ScenarioFileError(
                    f"estimators must each be one of {ESTIMATOR_NAMES}, got {name!r}"
                )

    def scenario_at(self, value: float) -> Scenario:
        if self.sweep == "snr_db":
            return self.scenario.with_snr(float(value))
        if self.sweep == "snapshots":
            return self.scenario.with_snapshots(int(value))
        return self.scenario


@dataclass(frozen=True)
class RmseRecord:
    """Aggregated errors for one (sweep value, estimator) cell.

    Arrays are truth-source-ordered; NaN marks a metric with no samples
    (e.g. range error of a source that always flagged flat).  `crb1` /
    `crb2` hold the baseline (scale 1) and extended-configuration bounds.
    """

    sweep_value: float
    estimator: str
    trials_total: int
    trials_failed: int
    acc_angle_rmse: np.ndarray | None
    aar_angle_rmse: np.ndarray
    range_rmse: np.ndarray | None
    range_rmse_rel: np.ndarray | None
    range_excluded: np.ndarray | None
    acc_angle_rmse_pooled: float | None
    aar_angle_rmse_pooled: float
    range_rmse_pooled: float | None
    crb1: CrbResult | None = None
    crb2: CrbResult | None = None


# ---------------------------------------------------------------------------
# Scenario / campaign files


def _whole(value) -> int:
    """An int, or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be a whole number, got {value!r}")
    return value


def _number(value) -> float:
    """A number; text such as `1e3`, which YAML leaves a string, is read too."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"must be a number, got {value!r}")


def _real(value) -> float:
    """A finite number."""
    number = _number(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {value!r}")
    return number


def _real_or_inf(value) -> float:
    """A finite number or `.inf`, which an SNR in dB takes for noiseless data."""
    number = _number(value)
    if math.isnan(number) or number == -math.inf:
        raise ValueError(f"must be finite or .inf, got {value!r}")
    return number


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be text, got {value!r}")
    return value


def _directory(value) -> str:
    if not _text(value):
        raise ValueError("must name a directory, got ''")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _list_of(read):
    def read_list(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"must be a list, got {value!r}")
        return tuple(read(item) for item in value)

    return read_list


def _optional(read):
    return lambda value: None if value is None else read(value)


def _read(raw: dict, readers: dict, where: str, problems: list[str]) -> dict:
    """The keys that mapping `raw` sets, each passed through its reader.
    A `raw` that is not a mapping, an unknown key or a value its reader
    rejects goes to `problems`, prefixed with `where`."""
    if not isinstance(raw, dict):
        problems.append(f"{where}must be a mapping, got {raw!r}")
        return {}
    out = {}
    for key, value in raw.items():
        if key not in readers:
            problems.append(f"{where}unknown key {key!r}")
            continue
        try:
            out[key] = readers[key](value)
        except ValueError as exc:
            problems.append(f"{where}{key} {exc}")
    return out


def _fields_from_dict(cls, raw: dict, where: str, problems: list[str]):
    """Build `cls` (settings or coupling) from a file section, field by
    field, each read as the type of its default (a None default, `trim`,
    takes a whole number or None); omitted keys keep their defaults."""
    kinds = {bool: _flag, int: _whole, float: _real}
    readers = {
        f.name: _optional(_whole) if f.default is None else kinds[type(f.default)]
        for f in fields(cls)
    }
    try:
        return cls(**_read(raw, readers, f"{where}: ", problems))
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return cls()


# Sections and source entries pass as they are; their keys are read next.
_TOP_LEVEL_KEYS = dict.fromkeys(
    ("array", "coupling", "extended_coupling", "estimator", "campaign"), lambda section: section
)
_TOP_LEVEL_KEYS.update(
    label=_text,
    seed=_whole,
    snapshots=_whole,
    snr_db=lambda value: math.inf if value is None else _real_or_inf(value),
    sources=_list_of(lambda entry: entry),
)
_ARRAY_KEYS = {
    "element_count": _whole,
    "baseline_spacing": _real,
    "scale_compressed": _real,
    "scale_extended": _real,
}
_SOURCE_KEYS = dict.fromkeys(("angle_deg", "range", "power"), _real)
_CAMPAIGN_KEYS = {
    "sweep": _text,
    "values": _list_of(_real_or_inf),
    "trials": _whole,
    "estimators": _list_of(_text),
    "out_dir": _optional(_directory),
}


def scenario_to_dict(scenario: Scenario, settings: EstimatorSettings | None = None) -> dict:
    out = {
        "label": scenario.label,
        "seed": scenario.seed,
        "snapshots": scenario.snapshots,
        "snr_db": scenario.snr_db,
        "array": {
            "element_count": scenario.config_compressed.element_count,
            "baseline_spacing": scenario.config_compressed.baseline_spacing,
            "scale_compressed": scenario.config_compressed.scale,
            "scale_extended": scenario.config_extended.scale,
        },
        "sources": [
            {"angle_deg": src.angle_deg, "range": src.range, "power": src.power}
            for src in scenario.sources
        ],
        "coupling": asdict(scenario.coupling),
        "extended_coupling": (
            None if scenario.coupling_extended is None else asdict(scenario.coupling_extended)
        ),
    }
    if settings is not None:
        out["estimator"] = asdict(settings)
    return out


def campaign_to_dict(campaign: Campaign) -> dict:
    out = scenario_to_dict(campaign.scenario, campaign.settings)
    out["campaign"] = {
        "sweep": campaign.sweep,
        "values": list(campaign.values),
        "trials": campaign.trials,
        "estimators": list(campaign.estimators),
        "out_dir": campaign.out_dir,
    }
    return out


def _scenario_from_dict(top: dict, problems: list[str]) -> Scenario | None:
    arr = _read(top.get("array") or {}, _ARRAY_KEYS, "array: ", problems)
    sources = []
    for i, entry in enumerate(top.get("sources", ())):
        src = _read(entry, _SOURCE_KEYS, f"sources[{i}]: ", problems)
        try:
            power = src.get("power", SourceTruth.power)
            sources.append(SourceTruth.from_degrees(src["angle_deg"], src["range"], power))
        except KeyError as exc:
            if isinstance(entry, dict) and exc.args[0] not in entry:  # else already reported
                problems.append(f"sources[{i}]: missing field {exc}")
        except ValueError as exc:
            problems.append(f"sources[{i}]: {exc}")
    if not sources:
        problems.append("sources: at least one source is required")

    coupling = _fields_from_dict(CouplingModel, top.get("coupling") or {}, "coupling", problems)
    coupling_ext = top.get("extended_coupling")
    if coupling_ext is not None:
        coupling_ext = _fields_from_dict(CouplingModel, coupling_ext, "extended_coupling", problems)
    # The shared fields first, then each scale, so a message names its key.
    comp, ext = Scenario.config_compressed, Scenario.config_extended
    configs = {}
    try:
        shared = ArrayConfig(
            arr.get("element_count", comp.element_count),
            arr.get("baseline_spacing", comp.baseline_spacing),
        )
    except ValueError as exc:
        problems.append(f"array: {exc}")
    else:
        for key, default in (("scale_compressed", comp.scale), ("scale_extended", ext.scale)):
            try:
                configs[key] = shared.with_scale(arr.get(key, default))
            except ValueError as exc:
                problems.append(f"array: {key}: {exc}")
    if problems:
        return None
    try:
        return Scenario(
            sources=tuple(sources),
            config_compressed=configs["scale_compressed"],
            config_extended=configs["scale_extended"],
            coupling=coupling,
            coupling_extended=coupling_ext,
            **{k: top[k] for k in ("snapshots", "snr_db", "seed", "label") if k in top},
        )
    except ValueError as exc:
        problems.append(str(exc))
        return None


def load_file(path) -> tuple[Scenario, EstimatorSettings, Campaign | None]:
    """Parse a scenario or campaign file, resolving every default.

    Raises ScenarioFileError with parse diagnostics or the full list of
    violated invariants.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioFileError(f"{path}: YAML parse error{at}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioFileError(f"{path}: expected a mapping at the top level")

    problems: list[str] = []
    top = _read(raw, _TOP_LEVEL_KEYS, "", problems)
    scenario = _scenario_from_dict(top, problems)
    settings = _fields_from_dict(
        EstimatorSettings, top.get("estimator") or {}, "estimator", problems
    )
    if scenario is not None and settings.trim is not None:
        kept = scenario.config_compressed.element_count - 2 * settings.trim
        if kept <= scenario.source_count:
            problems.append(
                f"estimator: trim {settings.trim} leaves {kept} central elements "
                f"for {scenario.source_count} sources; need more than {scenario.source_count}"
            )
    campaign = None
    if top.get("campaign") is not None and scenario is not None:
        keys = _read(top["campaign"], _CAMPAIGN_KEYS, "campaign: ", problems)
        try:
            campaign = Campaign(scenario=scenario, settings=settings, **keys)
        except ScenarioFileError as exc:
            problems.append(f"campaign: {exc}")
    if problems:
        raise ScenarioFileError(f"{path}: " + "; ".join(problems))
    assert scenario is not None
    return scenario, settings, campaign


def load_scenario(path) -> Scenario | Campaign:
    """A Campaign when the file has a campaign section, else a Scenario."""
    scenario, _, campaign = load_file(path)
    return campaign if campaign is not None else scenario


def dump_scenario(obj, path, settings: EstimatorSettings | None = None) -> None:
    """Write a Scenario or Campaign back to YAML (the loader's inverse)."""
    if isinstance(obj, Campaign):
        payload = campaign_to_dict(obj)
    else:
        payload = scenario_to_dict(obj, settings)
    Path(path).write_text(yaml.safe_dump(payload, sort_keys=False))


# ---------------------------------------------------------------------------
# Output files


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return repr(float(value))


def _metadata_lines(metadata: dict) -> list[str]:
    blob = json.dumps(metadata, sort_keys=True, separators=(",", ":"))
    return [f"# version: sfas {__version__}", f"# config: {blob}"]


def _write_csv(path, header: list[str], rows, metadata: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in _metadata_lines(metadata):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _output_directory(out_dir) -> Path | None:
    """`out_dir` as a Path (None stays None).  Raises NotADirectoryError,
    naming it, when it or its nearest existing parent is not a directory,
    so that a run never computes what it cannot write."""
    if out_dir is None:
        return None
    path = Path(out_dir)
    existing = next(p for p in (path, *path.absolute().parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"out_dir {path} is not a directory")
    return path


def _write_manifest(out_dir: Path, meta: dict, outputs: list[str]) -> None:
    manifest = {"version": __version__, "config": meta, "outputs": outputs}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def write_spectrum_csv(path, grid: SpectrumGrid, metadata: dict) -> None:
    """Axis columns plus a value column; 2-D grids are written long-form."""
    rows = (
        [*map(_fmt, point), _fmt(v)]
        for point, v in zip(itertools.product(*grid.axes), grid.values.flat)
    )
    _write_csv(path, [*grid.axis_names, "value"], rows, metadata)


# ---------------------------------------------------------------------------
# Single shot


@dataclass(frozen=True)
class SingleShotBundle:
    """Everything one run of the pipeline produced, ready for export."""

    scenario: Scenario
    settings: EstimatorSettings
    stage1_proposed: SpectrumGrid | None
    stage1_conventional: SpectrumGrid | None
    conventional_peaks: np.ndarray
    range_spectra: tuple[SpectrumGrid, ...]
    refine_spectra: tuple[SpectrumGrid, ...]
    estimate: LocalizationEstimate | None
    errors: tuple[str, ...]


@one_blas_thread()
def run_single_shot(
    scenario: Scenario,
    settings: EstimatorSettings = EstimatorSettings(),
    out_dir=None,
) -> SingleShotBundle:
    """Campaign trial 0 of the conventional baseline and the two-stage
    pipeline, optionally exporting every artifact.

    Emits the proposed and conventional stage-1 spectra, the per-source
    range scans and local 2-D refinement patches, and the final estimate
    record.  Estimator failures are captured in the bundle, not raised.
    When the scenario declares extended-stage coupling the pipeline runs
    as `two_stage_mc`, with the coupling-robust refinement.  OpenBLAS runs
    at one thread meanwhile (see `_blas`), so the artifacts do not depend
    on the host's core count.
    """
    out_dir = _output_directory(out_dir)
    two_stage = "two_stage" if scenario.coupling_extended is None else "two_stage_mc"
    labels = {"baseline_ff_music": "conventional baseline", two_stage: "two-stage pipeline"}
    spectra = _Spectra()
    records = _run_trial(scenario, settings, tuple(labels), 0, spectra)
    base = records["baseline_ff_music"]
    # An under-resolved baseline keeps the peaks it found; a degenerate one has none.
    peaks = base.angles if base.error is None else getattr(base.error, "peaks_found", [])

    bundle = SingleShotBundle(
        scenario=scenario,
        settings=settings,
        stage1_proposed=spectra.stage1,
        stage1_conventional=spectra.conventional,
        conventional_peaks=np.asarray(peaks, dtype=float),
        range_spectra=tuple(spectra.range_scans),
        refine_spectra=tuple(spectra.refine_patches),
        estimate=records[two_stage].estimate,
        errors=tuple(
            f"{labels[name]}: {record.error}"
            for name, record in records.items()
            if record.error is not None
        ),
    )
    if out_dir is not None:
        _export_single_shot(bundle, out_dir)
    return bundle


def _export_single_shot(bundle: SingleShotBundle, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = scenario_to_dict(bundle.scenario, bundle.settings)
    written: list[str] = []

    def emit(name: str, grid: SpectrumGrid | None):
        if grid is None:
            return
        write_spectrum_csv(out_dir / name, grid, meta)
        written.append(name)

    emit("stage1_proposed.csv", bundle.stage1_proposed)
    emit("stage1_conventional.csv", bundle.stage1_conventional)
    for i, grid in enumerate(bundle.range_spectra, start=1):
        emit(f"range_search_source{i}.csv", grid)
    for i, grid in enumerate(bundle.refine_spectra, start=1):
        emit(f"refine2d_source{i}.csv", grid)

    record = {
        "version": __version__,
        "config": meta,
        "estimate": None if bundle.estimate is None else asdict(bundle.estimate),
        "conventional_peaks_deg": [float(a) for a in bundle.conventional_peaks],
        "errors": list(bundle.errors),
    }
    (out_dir / "estimate.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n"
    )
    written.append("estimate.json")
    _write_manifest(out_dir, meta, sorted(written))


# ---------------------------------------------------------------------------
# Campaigns


@dataclass(frozen=True)
class _TrialRecord:
    """One estimator's output on one trial: the final angles, plus what
    else it reports (ranges, flat-range flags, stage-1 angles, the
    two-stage estimate); or only the error that stopped it."""

    angles: np.ndarray | None = None
    ranges: np.ndarray | None = None
    range_flat: tuple[bool, ...] | None = None
    acc_angles: np.ndarray | None = None
    estimate: LocalizationEstimate | None = None
    error: UnderResolutionError | DegenerateSubspaceError | None = None


def _score(scenario: Scenario, record: _TrialRecord) -> list[tuple] | None:
    """Pair a trial record with the truth.  Per truth source, the error
    cells of a trial_errors.csv row: (ACC angle, AAR angle, range, range
    excluded), each None where the estimator does not report it; None for
    a failed trial."""
    if record.error is not None:
        return None
    ranges = record.ranges
    true_angles = [s.angle_deg for s in scenario.sources]
    true_ranges = None if ranges is None else [s.range for s in scenario.sources]
    pairing = pair_estimates(record.angles, true_angles, ranges, true_ranges)
    acc = [None] * len(true_angles)
    if record.acc_angles is not None:
        acc = pair_estimates(record.acc_angles, true_angles).angle_errors
    cells = []
    for src, aar in enumerate(pairing.angle_errors):
        flat = None if ranges is None else bool(record.range_flat[pairing.assignment[src]])
        rng = None if ranges is None or flat else pairing.range_errors[src]
        cells.append((acc[src], aar, rng, flat))
    return cells


def _two_stage_trial(scenario, settings, cov_c, cov_e, trial, spectra, mc=False):
    trim = settings.resolve_trim(scenario.coupling.band)
    band = max(1, (scenario.coupling_extended or scenario.coupling).band) if mc else None
    est = two_stage_localize(cov_c, cov_e, scenario.source_count, trim, settings, band, spectra)
    flat = tuple(s.range_flat for s in est.sources)
    return _TrialRecord(
        est.refined_angles_deg, est.refined_ranges, flat, est.coarse_angles_deg, est
    )


def _baseline_trial(scenario, settings, cov_c, cov_e, trial, spectra):
    k = scenario.source_count
    cov_b = draw_covariance(scenario, "baseline", trial)
    grid = baseline_ff_music(cov_b, k, settings.angle_grid_deg())
    if spectra is not None:
        spectra.conventional = grid
    peaks = find_spectrum_peaks(grid.axes[0], grid.values, k, settings.min_peak_separation_deg)
    return _TrialRecord(peaks)


def _oracle_trial(scenario, settings, cov_c, cov_e, trial, spectra):
    k = scenario.source_count
    pairs, _ = oracle_2d_music(
        cov_e, k, settings.angle_grid_deg(), settings.range_grid(),
        settings.min_peak_separation_deg,
    )
    return _TrialRecord([a for a, _ in pairs], [r for _, r in pairs], (False,) * k)


# name -> (trial function, reports ACC angles, reports ranges)
_ESTIMATORS = {
    "two_stage": (_two_stage_trial, True, True),
    "two_stage_mc": (partial(_two_stage_trial, mc=True), True, True),
    "baseline_ff_music": (_baseline_trial, False, False),
    "oracle_2d": (_oracle_trial, False, True),
}
ESTIMATOR_NAMES = tuple(_ESTIMATORS)


def _run_trial(
    scenario: Scenario,
    settings: EstimatorSettings,
    estimators: tuple[str, ...],
    trial: int,
    spectra: _Spectra | None = None,
) -> dict[str, _TrialRecord]:
    """Each named estimator's record of one trial, all on the same drawn
    sample covariances (see `simulate.draw_covariance`).  A failed
    estimator's record holds its error; with `spectra` given, the spectra
    the estimators compute are kept there."""
    cov_c = draw_covariance(scenario, "compressed", trial)
    cov_e = draw_covariance(scenario, "extended", trial)

    out: dict[str, _TrialRecord] = {}
    for name in estimators:
        try:
            out[name] = _ESTIMATORS[name][0](scenario, settings, cov_c, cov_e, trial, spectra)
        except (UnderResolutionError, DegenerateSubspaceError) as exc:
            out[name] = _TrialRecord(error=exc)
    return out


def _rms(squares) -> float:
    return math.sqrt(sum(squares) / len(squares)) if squares else math.nan


def _aggregate(
    sweep_value: float,
    estimator: str,
    outcomes: list[list | None],
    scenario: Scenario,
    crb1: CrbResult | None,
    crb2: CrbResult | None,
) -> tuple[RmseRecord, list[list[str]]]:
    true_ranges = np.array([s.range for s in scenario.sources])
    # Squared ACC, AAR, range and relative range errors, per source.
    squares = [[[] for _ in true_ranges] for _ in range(4)]
    excluded = np.zeros(len(true_ranges), dtype=int)
    dump_rows: list[list[str]] = []
    for trial, cells in enumerate(outcomes):
        if cells is None:
            dump_rows.append(
                [_fmt(sweep_value), estimator, str(trial), "", "", "", "", "", "true"]
            )
            continue
        for src, (acc, aar, rng, flat) in enumerate(cells):
            rel = None if rng is None else rng / true_ranges[src]
            for per_source, err in zip(squares, (acc, aar, rng, rel)):
                if err is not None:
                    per_source[src].append(err**2)
            excluded[src] += bool(flat)
            dump_rows.append(
                [_fmt(sweep_value), estimator, str(trial), str(src),
                 *map(_fmt, (acc, aar, rng, flat)), "false"]
            )

    rmse = [np.array([_rms(b) for b in per_source]) for per_source in squares]
    pooled = [_rms([x for b in per_source for x in b]) for per_source in squares]
    _, has_acc, has_range = _ESTIMATORS[estimator]
    record = RmseRecord(
        sweep_value=sweep_value,
        estimator=estimator,
        trials_total=len(outcomes),
        trials_failed=sum(cells is None for cells in outcomes),
        acc_angle_rmse=rmse[0] if has_acc else None,
        aar_angle_rmse=rmse[1],
        range_rmse=rmse[2] if has_range else None,
        range_rmse_rel=rmse[3] if has_range else None,
        range_excluded=excluded if has_range else None,
        acc_angle_rmse_pooled=pooled[0] if has_acc else None,
        aar_angle_rmse_pooled=pooled[1],
        range_rmse_pooled=pooled[2] if has_range else None,
        crb1=crb1,
        crb2=crb2,
    )
    return record, dump_rows


def _bounds(scenario: Scenario) -> tuple[CrbResult, CrbResult]:
    """Bounds on the fixed half-wavelength baseline array (scale 1) and on
    the extended configuration, at the scenario's snapshots and noise."""
    crb1, crb2 = (
        crb(scenario.sources, config, scenario.snapshots, scenario.noise_variance)
        for config in (scenario.config_compressed.with_scale(1.0), scenario.config_extended)
    )
    return crb1, crb2


def _crb_rows(sweep_value: float, crb1: CrbResult, crb2: CrbResult) -> list[list[str]]:
    def rmse_deg(var) -> float:
        return math.degrees(math.sqrt(var)) if math.isfinite(var) else math.inf

    bounds = [
        ("crb1_angle_rmse_deg", crb1.angle_variance, rmse_deg),
        ("crb2_angle_rmse_deg", crb2.angle_variance, rmse_deg),
        ("crb1_range_rmse_wl", crb1.range_variance, math.sqrt),
        ("crb2_range_rmse_wl", crb2.range_variance, math.sqrt),
    ]
    rows = []
    for src in [*range(len(crb1.angle_variance)), "pooled"]:
        for metric, variance, to_rmse in bounds:
            var = float(np.mean(variance)) if src == "pooled" else variance[src]
            rows.append([_fmt(sweep_value), "crb", str(src), metric, _fmt(to_rmse(var))])
    return rows


# rmse.csv metric -> (RmseRecord per-source field, pooled field), in row order.
# A None field, or a field the record leaves None, writes no row.
_METRICS = {
    "acc_angle_rmse_deg": ("acc_angle_rmse", "acc_angle_rmse_pooled"),
    "aar_angle_rmse_deg": ("aar_angle_rmse", "aar_angle_rmse_pooled"),
    "range_rmse_wl": ("range_rmse", "range_rmse_pooled"),
    "range_rmse_rel": ("range_rmse_rel", None),
    "range_excluded_trials": ("range_excluded", None),
    "trials_total": (None, "trials_total"),
    "trials_failed": (None, "trials_failed"),
}


def _record_rows(record: RmseRecord) -> list[list[str]]:
    rows = []
    for src in [*range(len(record.aar_angle_rmse)), "pooled"]:
        for metric, (per_source, pooled) in _METRICS.items():
            field = pooled if src == "pooled" else per_source
            value = None if field is None else getattr(record, field)
            if value is not None:
                value = value if src == "pooled" else value[src]
                rows.append(
                    [_fmt(record.sweep_value), record.estimator, str(src), metric, _fmt(value)]
                )
    return rows


def _fork_chunk(trial_fn, jobs: list) -> tuple[int, int]:
    """Fork a child that runs `jobs` through `trial_fn` and writes to a
    pipe the pickled (True, outcomes), or (False, exception) for the first
    exception a trial raises; (child pid, read end of the pipe).  The child
    ends with `os._exit`, so it runs no exit handler and flushes no buffer
    it inherited."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, [trial_fn(job) for job in jobs])
            except Exception as exc:
                payload = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(payload))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _chunk_outcomes(pid: int, payload: bytes, status: int) -> list:
    """The outcomes a reaped child wrote, or its trial's exception
    re-raised; a RuntimeError if the child failed or its payload does not load."""
    code = os.waitstatus_to_exitcode(status)
    try:
        ok, value = pickle.loads(payload)
    except Exception:
        ok = None
    if code != 0 or ok is None:
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(
            f"campaign worker {pid} ended with {how} after writing {len(payload)} bytes, "
            "not a whole payload"
        )
    if not ok:
        raise value
    return value


@one_blas_thread()
def run_campaign(
    campaign: Campaign,
    out_dir=None,
    threads: int = 1,
) -> list[RmseRecord]:
    """Monte-Carlo sweep with deterministic per-trial seeding.

    The (sweep cell, trial) jobs of the campaign run cell-major, so the
    trials of one cell run back to back: they refine around the same
    seeds, so consecutive jobs reuse the same lattice column stores (see
    `estimators._GridCost.cells`) before other cells evict them.  The job
    list is cut into `workers` contiguous chunks, `workers` being the
    least of `threads`, the CPUs this process may run on and the job
    count.  Each chunk after the first runs in a child forked for this
    call, which inherits the caller's warm caches and writes its pickled
    outcomes to a pipe; the caller runs the first chunk and the CRB bounds
    meanwhile, then reads and reaps each child in chunk order.  One worker
    forks nothing, and neither does a platform without `os.fork`.  If any
    exception reaches the caller, a child's included, every child still
    running is killed and reaped.  OpenBLAS is held at one thread
    meanwhile, in the children too (see `_blas`), so the workers are the
    only parallelism.

    The cells of an SNR sweep, the noiseless one included, share each
    trial's random draws, because a trial's covariances are built from one
    Wishart factor per stage that does not depend on the SNR (see
    `simulate.draw_covariance`); the cells of a snapshot sweep draw
    independently.  Each cell is reduced from its contiguous slice of the
    outcomes, in (cell, trial) order, so the outputs depend neither on
    `threads` nor on the host's BLAS thread count.  Per-trial estimator
    failures are counted and excluded, never fatal.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    out_dir = _output_directory(out_dir)
    cells = campaign.cells
    jobs = [(scenario, trial) for scenario in cells for trial in range(campaign.trials)]

    def trial_fn(job: tuple[Scenario, int]) -> dict[str, list[tuple] | None]:
        scenario, trial = job
        records = _run_trial(scenario, campaign.settings, campaign.estimators, trial)
        return {name: _score(scenario, record) for name, record in records.items()}

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cpus or 1, len(jobs)) if hasattr(os, "fork") else 1
    cuts = [len(jobs) * k // workers for k in range(workers + 1)]
    children: list[tuple[int, int]] = []  # (pid, read end) of each child not yet reaped
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            children.append(_fork_chunk(trial_fn, jobs[start:stop]))
        outcomes = [trial_fn(job) for job in jobs[: cuts[1]]]
        bounds = [
            _bounds(scenario) if scenario.noise_variance > 0.0 else (None, None)
            for scenario in cells
        ]
        while children:
            pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            os.close(read_fd)
            outcomes += _chunk_outcomes(pid, payload, status)
    finally:
        if children:
            import signal  # only on this path: `import sfas` does not load it

            for pid, read_fd in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read_fd)

    records: list[RmseRecord] = []
    rmse_rows: list[list[str]] = []
    dump_rows: list[list[str]] = []
    for i, (value, scenario, (crb1, crb2)) in enumerate(zip(campaign.values, cells, bounds)):
        cell = outcomes[i * campaign.trials : (i + 1) * campaign.trials]
        for name in campaign.estimators:
            record, rows = _aggregate(
                value, name, [o[name] for o in cell], scenario, crb1, crb2
            )
            records.append(record)
            rmse_rows.extend(_record_rows(record))
            dump_rows.extend(rows)
        if crb1 is not None and crb2 is not None:
            rmse_rows.extend(_crb_rows(value, crb1, crb2))

    if out_dir is not None:
        meta = campaign_to_dict(campaign)
        _write_csv(out_dir / "rmse.csv", _LONG_FORM_HEADER, rmse_rows, meta)
        _write_csv(
            out_dir / "trial_errors.csv",
            [
                "sweep_value", "estimator", "trial", "source",
                "acc_angle_error_deg", "aar_angle_error_deg", "range_error_wl",
                "range_excluded", "failed",
            ],
            dump_rows,
            meta,
        )
        _write_manifest(out_dir, meta, ["rmse.csv", "trial_errors.csv"])
    return records


def write_crb_csv(campaign: Campaign, out_dir) -> Path:
    """Bound curves alone, in the same schema as the RMSE export."""
    out_dir = _output_directory(out_dir)
    cells = list(zip(campaign.values, campaign.cells))
    if any(scenario.noise_variance == 0.0 for _, scenario in cells):
        raise ScenarioFileError("CRB export needs a finite SNR")
    rows = [row for value, scenario in cells for row in _crb_rows(value, *_bounds(scenario))]
    path = out_dir / "crb.csv"
    _write_csv(path, _LONG_FORM_HEADER, rows, campaign_to_dict(campaign))
    return path


# ---------------------------------------------------------------------------
# Scenario validation suite


def validate_scenario(
    scenario: Scenario, settings: EstimatorSettings = EstimatorSettings()
) -> list[tuple[str, bool, str]]:
    """Quick numeric invariant suite for the `validate` CLI verb.

    Each entry is (check name, passed, detail).  Covers the geometry,
    coupling and selection contracts on the scenario's own configurations;
    the selection and decoupling checks use the trim the estimator runs with.
    """
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(99,)))

    config_c = scenario.config_compressed
    config_e = scenario.config_extended

    ratio = rayleigh_distance(config_e) / rayleigh_distance(config_c)
    expect = (config_e.scale / config_c.scale) ** 2
    ok = abs(ratio - expect) <= 1e-12 * expect
    checks.append(
        ("rayleigh distance scales with scale^2", ok, f"ratio {ratio!r} vs {expect!r}")
    )

    mags = np.abs(ff_steering(0.3, config_c))
    checks.append(
        (
            "far-field entries unit magnitude",
            bool(np.max(np.abs(mags - 1.0)) < 1e-14),
            f"max |.|-1 = {np.max(np.abs(mags - 1.0)):.2e}",
        )
    )

    trim = settings.resolve_trim(scenario.coupling.band)
    m = config_c.element_count
    sel = selection_matrix(m, trim)
    orth = np.linalg.norm(sel @ sel.T - np.eye(m - 2 * trim))
    checks.append(("selection matrix rows orthonormal", orth == 0.0, f"residual {orth:.2e}"))

    sym_model = replace(scenario.coupling, symmetric=True)
    residuals = [
        decoupling_residual(
            rng.uniform(-np.pi / 3, np.pi / 3, size=scenario.source_count),
            config_c,
            sym_model,
            trim,
        )
        for _ in range(20)
    ]
    worst_res = max(residuals)
    checks.append(
        (
            "central-subarray decoupling identity",
            worst_res < 1e-10,
            f"max residual {worst_res:.2e} over 20 draws",
        )
    )
    return checks
