"""Monte-Carlo campaigns, single-shot spectrum dumps, and scenario files.

Scenario and campaign descriptions live in YAML files (key/value with
nested sections); every output CSV embeds the fully resolved configuration
and package version in `#`-prefixed header lines so any result can be
reproduced from the artifact alone.  Campaign trials are deterministic
functions of (seed, trial index), so the worker count changes wall time
only, never a byte of output.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
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
    _two_stage,
    baseline_ff_music,
    find_spectrum_peaks,
    oracle_2d_music,
    pair_estimates,
    two_stage_localize,
)
from .geometry import (
    ArrayConfig,
    SourceTruth,
    esg_steering,
    ff_steering,
    rayleigh_distance,
)
from .simulate import (
    Scenario,
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
# Columns of rmse.csv and crb.csv, so bound curves overlay the RMSE rows.
_LONG_FORM_HEADER = ["sweep_value", "estimator", "source", "metric", "value"]


class ScenarioFileError(ValueError):
    """Parse or validation failure, with every violated invariant listed."""


@dataclass(frozen=True)
class Campaign:
    """A sweep of Monte-Carlo trials over one scenario template."""

    scenario: Scenario
    sweep: str = "none"
    values: tuple[float, ...] = ()
    trials: int = 100
    estimators: tuple[str, ...] = ("two_stage",)
    settings: EstimatorSettings = EstimatorSettings()
    out_dir: str | None = None

    def __post_init__(self):
        if self.sweep not in SWEEP_AXES:
            raise ScenarioFileError(f"sweep must be one of {SWEEP_AXES}, got {self.sweep!r}")
        values = self.values
        if self.sweep == "none":
            values = (0.0,)
            object.__setattr__(self, "values", values)
        if not values:
            raise ScenarioFileError("a swept campaign needs at least one value")
        if len(values) > 1 and not all(b > a for a, b in zip(values, values[1:])):
            raise ScenarioFileError("sweep values must be strictly increasing")
        whole = all(v >= 1 and float(v).is_integer() for v in values)
        if self.sweep == "snapshots" and not whole:
            raise ScenarioFileError(
                f"snapshot sweep values must be whole numbers >= 1, got {list(values)}"
            )
        if self.trials < 1:
            raise ScenarioFileError(f"trials must be >= 1, got {self.trials}")
        if not self.estimators:
            raise ScenarioFileError("at least one estimator is required")
        for name in self.estimators:
            if name not in ESTIMATOR_NAMES:
                raise ScenarioFileError(
                    f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}"
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


def _coerce(default, value):
    """`value` as the type of the field's default; a None default (`trim`)
    takes an int or None."""
    if default is None:
        return None if value is None else int(value)
    return type(default)(value)


def _fields_from_dict(cls, raw: dict, where: str, problems: list[str]):
    """Build `cls` (settings or coupling) from a file section, field by
    field; omitted keys keep their defaults, problems go to `problems`."""
    defaults = cls()
    names = [f.name for f in fields(cls)]
    for key in raw:
        if key not in names:
            problems.append(f"{where}: unknown key {key!r}")
    try:
        return cls(**{n: _coerce(getattr(defaults, n), raw[n]) for n in names if n in raw})
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return defaults


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


def _scenario_from_dict(raw: dict, problems: list[str]) -> Scenario | None:
    known = {
        "label", "seed", "snapshots", "snr_db", "array", "sources",
        "coupling", "extended_coupling", "estimator", "campaign",
    }
    for key in raw:
        if key not in known:
            problems.append(f"unknown top-level key {key!r}")

    arr = raw.get("array", {}) or {}
    for key in arr:
        if key not in {"element_count", "baseline_spacing", "scale_compressed", "scale_extended"}:
            problems.append(f"array: unknown key {key!r}")
    element_count = int(arr.get("element_count", 32))
    baseline = float(arr.get("baseline_spacing", 0.5))
    scale_c = float(arr.get("scale_compressed", 0.2))
    scale_e = float(arr.get("scale_extended", 2.0))

    sources = []
    for i, entry in enumerate(raw.get("sources", []) or []):
        try:
            sources.append(
                SourceTruth.from_degrees(
                    float(entry["angle_deg"]),
                    float(entry["range"]),
                    float(entry.get("power", 1.0)),
                )
            )
        except KeyError as exc:
            problems.append(f"sources[{i}]: missing field {exc}")
        except (TypeError, ValueError) as exc:
            problems.append(f"sources[{i}]: {exc}")
    if not sources:
        problems.append("sources: at least one source is required")

    coupling = _fields_from_dict(
        CouplingModel, raw.get("coupling", {}) or {}, "coupling", problems
    )
    ext_raw = raw.get("extended_coupling")
    coupling_ext = (
        None
        if ext_raw is None
        else _fields_from_dict(CouplingModel, ext_raw, "extended_coupling", problems)
    )
    if problems:
        return None
    try:
        config_c = ArrayConfig(element_count, baseline, scale_c)
        config_e = ArrayConfig(element_count, baseline, scale_e)
        snr = raw.get("snr_db", 0.0)
        scenario = Scenario(
            sources=tuple(sources),
            config_compressed=config_c,
            config_extended=config_e,
            coupling=coupling,
            coupling_extended=coupling_ext,
            snapshots=int(raw.get("snapshots", 500)),
            snr_db=float("inf") if snr is None else float(snr),
            seed=int(raw.get("seed", 0)),
            label=str(raw.get("label", "")),
        )
    except ValueError as exc:
        problems.append(str(exc))
        return None
    more = scenario.validation_errors()
    if more:
        problems.extend(more)
        return None
    return scenario


def load_file(path) -> tuple[Scenario, EstimatorSettings, Campaign | None]:
    """Parse a scenario or campaign file, resolving every default.

    Raises ScenarioFileError with parse diagnostics or the full list of
    violated invariants.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioFileError(f"{path}: YAML parse error{at}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioFileError(f"{path}: expected a mapping at the top level")

    problems: list[str] = []
    scenario = _scenario_from_dict(raw, problems)
    settings = _fields_from_dict(
        EstimatorSettings, raw.get("estimator", {}) or {}, "estimator", problems
    )
    if scenario is not None and settings.trim is not None:
        kept = scenario.config_compressed.element_count - 2 * settings.trim
        if kept <= scenario.source_count:
            problems.append(
                f"estimator: trim {settings.trim} leaves {kept} central elements "
                f"for {scenario.source_count} sources; need more than {scenario.source_count}"
            )
    campaign = None
    camp_raw = raw.get("campaign")
    if camp_raw is not None and scenario is not None:
        known = {"sweep", "values", "trials", "estimators", "out_dir"}
        for key in camp_raw:
            if key not in known:
                problems.append(f"campaign: unknown key {key!r}")
        try:
            campaign = Campaign(
                scenario=scenario,
                sweep=str(camp_raw.get("sweep", "none")),
                values=tuple(float(v) for v in camp_raw.get("values", []) or []),
                trials=int(camp_raw.get("trials", 1000)),
                estimators=tuple(camp_raw.get("estimators", ["two_stage"])),
                settings=settings,
                out_dir=camp_raw.get("out_dir"),
            )
        except ScenarioFileError as exc:
            problems.append(str(exc))
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


def _write_manifest(out_dir: Path, meta: dict, outputs: list[str]) -> None:
    manifest = {"version": __version__, "config": meta, "outputs": outputs}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def write_spectrum_csv(path, grid: SpectrumGrid, metadata: dict) -> None:
    """Axis columns plus a value column; 2-D grids are written long-form."""
    if len(grid.axes) == 1:
        rows = (
            [_fmt(x), _fmt(v)] for x, v in zip(grid.axes[0], grid.values)
        )
        _write_csv(path, [grid.axis_names[0], "value"], rows, metadata)
    else:
        ax0, ax1 = grid.axes
        rows = (
            [_fmt(ax0[i]), _fmt(ax1[j]), _fmt(grid.values[i, j])]
            for i in range(len(ax0))
            for j in range(len(ax1))
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
    trial: int = 0,
    mc_band: int | None = None,
) -> SingleShotBundle:
    """One full pipeline pass, optionally exporting every artifact.

    Emits the proposed and conventional stage-1 spectra, the per-source
    range scans and local 2-D refinement patches, and the final estimate
    record.  Estimator failures are captured in the bundle, not raised.
    When the scenario declares extended-stage coupling the refinement
    defaults to the coupling-robust spectrum (pass `mc_band` to override
    the assumed bandwidth).  OpenBLAS runs at one thread meanwhile (see
    `_blas`), so the artifacts do not depend on the host's core count.
    """
    k = scenario.source_count
    trim = settings.resolve_trim(scenario.coupling.band)
    if mc_band is None and scenario.coupling_extended is not None:
        mc_band = _mc_band(scenario)
    errors: list[str] = []

    block_c = generate_snapshots_compressed(scenario, trial)
    block_e = generate_snapshots_extended(
        scenario, include_coupling=scenario.coupling_extended is not None, trial=trial
    )
    block_b = generate_snapshots_baseline(scenario, trial)

    stage1_conventional = None
    conventional_peaks = np.array([])
    try:
        stage1_conventional = baseline_ff_music(block_b, k, settings.angle_grid_deg())
        conventional_peaks = find_spectrum_peaks(
            stage1_conventional.axes[0],
            stage1_conventional.values,
            k,
            settings.min_peak_separation_deg,
        )
    except UnderResolutionError as exc:
        conventional_peaks = exc.peaks_found
        errors.append(f"conventional baseline: {exc}")
    except DegenerateSubspaceError as exc:
        errors.append(f"conventional baseline: {exc}")

    spectra = _Spectra()
    estimate = None
    try:
        estimate = _two_stage(block_c, block_e, k, trim, settings, mc_band, spectra)
    except (UnderResolutionError, DegenerateSubspaceError) as exc:
        errors.append(f"two-stage pipeline: {exc}")

    bundle = SingleShotBundle(
        scenario=scenario,
        settings=settings,
        stage1_proposed=spectra.stage1,
        stage1_conventional=stage1_conventional,
        conventional_peaks=conventional_peaks,
        range_spectra=tuple(spectra.range_scans),
        refine_spectra=tuple(spectra.refine_patches),
        estimate=estimate,
        errors=tuple(errors),
    )
    if out_dir is not None:
        _export_single_shot(bundle, Path(out_dir))
    return bundle


def _export_single_shot(bundle: SingleShotBundle, out_dir: Path) -> list[str]:
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
    return written


# ---------------------------------------------------------------------------
# Campaigns


@dataclass(frozen=True)
class _TrialOutcome:
    ok: bool
    error: str
    acc_angles: np.ndarray | None
    angles: np.ndarray | None
    ranges: np.ndarray | None
    range_flat: np.ndarray | None


def _mc_band(scenario: Scenario) -> int:
    model = scenario.coupling_extended or scenario.coupling
    return max(1, model.band)


def _two_stage_trial(scenario, settings, block_c, block_e, trial, mc=False):
    trim = settings.resolve_trim(scenario.coupling.band)
    band = _mc_band(scenario) if mc else None
    est = two_stage_localize(block_c, block_e, scenario.source_count, trim, settings, band)
    return _TrialOutcome(
        True, "", est.coarse_angles_deg, est.refined_angles_deg, est.refined_ranges,
        np.array([s.range_flat for s in est.sources]),
    )


def _baseline_trial(scenario, settings, block_c, block_e, trial):
    k = scenario.source_count
    block_b = generate_snapshots_baseline(scenario, trial)
    grid = baseline_ff_music(block_b, k, settings.angle_grid_deg())
    peaks = find_spectrum_peaks(grid.axes[0], grid.values, k, settings.min_peak_separation_deg)
    return _TrialOutcome(True, "", None, peaks, None, None)


def _oracle_trial(scenario, settings, block_c, block_e, trial):
    k = scenario.source_count
    pairs, _ = oracle_2d_music(
        block_e, k, settings.angle_grid_deg(), settings.range_grid(),
        settings.min_peak_separation_deg,
    )
    angles = np.array([a for a, _ in pairs])
    ranges = np.array([r for _, r in pairs])
    return _TrialOutcome(True, "", None, angles, ranges, np.zeros(k, dtype=bool))


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
) -> dict[str, _TrialOutcome]:
    include_coupling = scenario.coupling_extended is not None
    block_c = generate_snapshots_compressed(scenario, trial)
    block_e = generate_snapshots_extended(scenario, include_coupling, trial)

    out: dict[str, _TrialOutcome] = {}
    for name in estimators:
        try:
            run = _ESTIMATORS[name][0]
            out[name] = run(scenario, settings, block_c, block_e, trial)
        except (UnderResolutionError, DegenerateSubspaceError) as exc:
            out[name] = _TrialOutcome(False, str(exc), None, None, None, None)
    return out


def _aggregate(
    sweep_value: float,
    estimator: str,
    outcomes: list[_TrialOutcome],
    scenario: Scenario,
    crb1: CrbResult | None,
    crb2: CrbResult | None,
) -> tuple[RmseRecord, list[list[str]]]:
    k = scenario.source_count
    true_angles = np.array([s.angle_deg for s in scenario.sources])
    true_ranges = np.array([s.range for s in scenario.sources])

    acc_sq = [[] for _ in range(k)]
    aar_sq = [[] for _ in range(k)]
    rng_sq = [[] for _ in range(k)]
    rel_sq = [[] for _ in range(k)]
    excluded = np.zeros(k, dtype=int)
    failed = 0
    dump_rows: list[list[str]] = []
    _, has_acc, has_range = _ESTIMATORS[estimator]

    for trial, res in enumerate(outcomes):
        if not res.ok:
            failed += 1
            dump_rows.append(
                [_fmt(sweep_value), estimator, str(trial), "", "", "", "", "", "true"]
            )
            continue
        pairing = pair_estimates(
            res.angles, true_angles,
            res.ranges if has_range else None,
            true_ranges if has_range else None,
        )
        acc_errors = None
        if has_acc:
            acc_errors = pair_estimates(res.acc_angles, true_angles).angle_errors
        for src in range(k):
            aar_err = pairing.angle_errors[src]
            aar_sq[src].append(aar_err**2)
            acc_err = acc_errors[src] if acc_errors is not None else None
            if acc_err is not None:
                acc_sq[src].append(acc_err**2)
            rng_err = None
            rng_excluded = False
            if has_range:
                flat = bool(res.range_flat[pairing.assignment[src]])
                if flat:
                    excluded[src] += 1
                    rng_excluded = True
                else:
                    rng_err = pairing.range_errors[src]
                    rng_sq[src].append(rng_err**2)
                    rel_sq[src].append((rng_err / true_ranges[src]) ** 2)
            dump_rows.append(
                [
                    _fmt(sweep_value), estimator, str(trial), str(src),
                    _fmt(acc_err) if acc_err is not None else "",
                    _fmt(aar_err),
                    _fmt(rng_err) if rng_err is not None else "",
                    "true" if rng_excluded else ("false" if has_range else ""),
                    "false",
                ]
            )

    def rmse(buckets) -> np.ndarray:
        return np.array(
            [math.sqrt(sum(b) / len(b)) if b else math.nan for b in buckets]
        )

    def pooled(buckets) -> float:
        flat = [x for b in buckets for x in b]
        return math.sqrt(sum(flat) / len(flat)) if flat else math.nan

    record = RmseRecord(
        sweep_value=sweep_value,
        estimator=estimator,
        trials_total=len(outcomes),
        trials_failed=failed,
        acc_angle_rmse=rmse(acc_sq) if has_acc else None,
        aar_angle_rmse=rmse(aar_sq),
        range_rmse=rmse(rng_sq) if has_range else None,
        range_rmse_rel=rmse(rel_sq) if has_range else None,
        range_excluded=excluded if has_range else None,
        acc_angle_rmse_pooled=pooled(acc_sq) if has_acc else None,
        aar_angle_rmse_pooled=pooled(aar_sq),
        range_rmse_pooled=pooled(rng_sq) if has_range else None,
        crb1=crb1,
        crb2=crb2,
    )
    return record, dump_rows


def _bounds(scenario: Scenario) -> tuple[CrbResult, CrbResult]:
    """Bounds on the fixed half-wavelength baseline array (scale 1) and on
    the extended configuration, at the scenario's snapshots and noise."""
    crb1, crb2 = (
        crb(scenario.sources, config, scenario.snapshots, scenario.noise_variance, centered=True)
        for config in (scenario.config_compressed.with_scale(1.0), scenario.config_extended)
    )
    return crb1, crb2


def _crb_rows(sweep_value: float, crb1: CrbResult, crb2: CrbResult) -> list[list[str]]:
    rows = []

    def rmse_deg(var) -> float:
        return math.degrees(math.sqrt(var)) if math.isfinite(var) else math.inf

    def add(source, metric, value):
        rows.append([_fmt(sweep_value), "crb", source, metric, _fmt(value)])

    k = len(crb1.angle_variance)
    for src in range(k):
        add(str(src), "crb1_angle_rmse_deg", rmse_deg(crb1.angle_variance[src]))
        add(str(src), "crb2_angle_rmse_deg", rmse_deg(crb2.angle_variance[src]))
        add(str(src), "crb1_range_rmse_wl", math.sqrt(crb1.range_variance[src]))
        add(str(src), "crb2_range_rmse_wl", math.sqrt(crb2.range_variance[src]))
    add("pooled", "crb1_angle_rmse_deg", rmse_deg(float(np.mean(crb1.angle_variance))))
    add("pooled", "crb2_angle_rmse_deg", rmse_deg(float(np.mean(crb2.angle_variance))))
    add("pooled", "crb1_range_rmse_wl", math.sqrt(float(np.mean(crb1.range_variance))))
    add("pooled", "crb2_range_rmse_wl", math.sqrt(float(np.mean(crb2.range_variance))))
    return rows


def _record_rows(record: RmseRecord) -> list[list[str]]:
    rows = []

    def add(source, metric, value):
        rows.append(
            [_fmt(record.sweep_value), record.estimator, source, metric, _fmt(value)]
        )

    k = len(record.aar_angle_rmse)
    for src in range(k):
        if record.acc_angle_rmse is not None:
            add(str(src), "acc_angle_rmse_deg", record.acc_angle_rmse[src])
        add(str(src), "aar_angle_rmse_deg", record.aar_angle_rmse[src])
        if record.range_rmse is not None:
            add(str(src), "range_rmse_wl", record.range_rmse[src])
            add(str(src), "range_rmse_rel", record.range_rmse_rel[src])
            add(str(src), "range_excluded_trials", record.range_excluded[src])
    if record.acc_angle_rmse_pooled is not None:
        add("pooled", "acc_angle_rmse_deg", record.acc_angle_rmse_pooled)
    add("pooled", "aar_angle_rmse_deg", record.aar_angle_rmse_pooled)
    if record.range_rmse_pooled is not None:
        add("pooled", "range_rmse_wl", record.range_rmse_pooled)
    add("pooled", "trials_total", record.trials_total)
    add("pooled", "trials_failed", record.trials_failed)
    return rows


@one_blas_thread()
def run_campaign(
    campaign: Campaign,
    out_dir=None,
    threads: int = 1,
    compute_crb: bool = True,
) -> list[RmseRecord]:
    """Monte-Carlo sweep with deterministic per-trial seeding.

    Every (sweep cell, trial) of the campaign is scheduled on one bounded
    thread pool of at most `threads` workers, with OpenBLAS held at one
    thread meanwhile (see `_blas`), so the pool is the only parallelism.
    Results are reduced in (cell, trial) order, so the outputs depend
    neither on `threads` nor on the host's BLAS thread count.  Per-trial
    estimator failures are counted and excluded, never fatal.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cells = [campaign.scenario_at(value) for value in campaign.values]
    jobs = [(scenario, trial) for scenario in cells for trial in range(campaign.trials)]

    def trial_fn(job: tuple[Scenario, int]) -> dict[str, _TrialOutcome]:
        return _run_trial(job[0], campaign.settings, campaign.estimators, job[1])

    workers = min(threads, len(jobs))
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # The pool starts on every trial at once; the bounds overlap them.
        pending = pool.map(trial_fn, jobs) if pool else map(trial_fn, jobs)
        bounds = [
            _bounds(scenario) if compute_crb and scenario.noise_variance > 0.0 else (None, None)
            for scenario in cells
        ]
        outcomes = list(pending)

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
        out_dir = Path(out_dir)
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
    rows: list[list[str]] = []
    for value in campaign.values:
        scenario = campaign.scenario_at(value)
        if scenario.noise_variance == 0.0:
            raise ScenarioFileError("CRB export needs a finite SNR")
        rows.extend(_crb_rows(value, *_bounds(scenario)))
    path = Path(out_dir) / "crb.csv"
    _write_csv(path, _LONG_FORM_HEADER, rows, campaign_to_dict(campaign))
    return path


# ---------------------------------------------------------------------------
# Scenario validation suite


def validate_scenario(scenario: Scenario) -> list[tuple[str, bool, str]]:
    """Quick numeric invariant suite for the `validate` CLI verb.

    Each entry is (check name, passed, detail).  Covers the geometry,
    coupling and selection contracts on the scenario's own configurations.
    """
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(99,)))

    config_c = scenario.config_compressed
    config_e = scenario.config_extended

    first_entries = [
        esg_steering(src, cfg)[0]
        for src in scenario.sources
        for cfg in (config_c, config_e)
    ]
    worst = max(abs(e - 1.0) for e in first_entries)
    checks.append(
        ("esg reference entry is exactly 1", worst == 0.0, f"max deviation {worst:.2e}")
    )

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

    trim = scenario.coupling.band
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
