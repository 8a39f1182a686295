import contextlib
import csv
import io
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings as hyp_settings, strategies as st

from conftest import CPUS, ProcessLog, clear_steering_caches
from sfas import estimators, harness, simulate
from sfas.cli import main as cli_main
from sfas.estimators import DegenerateSubspaceError, EstimatorSettings
from sfas.coupling import CouplingModel
from sfas.geometry import ArrayConfig, SourceTruth
from sfas.harness import (
    Campaign,
    ScenarioFileError,
    campaign_to_dict,
    dump_scenario,
    load_file,
    load_scenario,
    run_campaign,
    run_single_shot,
    scenario_to_dict,
    validate_scenario,
    write_crb_csv,
)
from sfas.simulate import Scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Values a hand-edited file could hold where a shipped file has a number or
# a word: wrong kinds, empty containers, zero, signs and magnitudes at the
# edges of a float (the largest, the least subnormal, past int64), and
# text that `float()` reads as a number.
HOSTILE_LEAVES = (
    None, True, False, 0, -1, 1.0e308, math.nan, math.inf, -math.inf,
    "", "x" * 50, [], {}, 2.5, 1.0e-300, 10**30,
    -0.0, 5e-324, 2**63, 1.7976931348623157e308,
    "1e3", " 7 ", "1_000", "-0", "NaN", "Infinity", "1e999", "\u0663",
)
# Grids coarse enough for a single shot in a fraction of a second.
COARSE_SETTINGS = {
    "angle_step_deg": 1.0, "range_points": 20,
    "pass1_angle_step_deg": 0.5, "pass1_range_fraction": 0.05,
    "pass2_angle_step_deg": 0.25, "pass2_range_fraction": 0.025,
}


def leaf_paths(node, path=()):
    """The key paths of the scalars under `node`, a loaded YAML tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in leaf_paths(child, (*path, key))]


@contextlib.contextmanager
def forks_checked(threads: int):
    """Checks that a campaign run in the block at `threads` forks workers
    where the host has the CPUs for them, and none at one thread."""
    with mock.patch.object(harness, "_fork_chunk", wraps=harness._fork_chunk) as fork:
        yield
    assert (fork.call_count > 0) == (threads > 1 and CPUS > 1), (threads, fork.call_count)


def small_scenario(**kw):
    defaults = dict(
        sources=(
            SourceTruth.from_degrees(-20.66, 4000.0),
            SourceTruth.from_degrees(10.77, 5000.0),
        ),
        snapshots=200,
        snr_db=10.0,
        seed=99,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def read_csv(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
            else:
                rows.append(dict(zip(header, cells)))
    return rows


class TestScenarioFiles:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "minimal.yaml"
        path.write_text("seed: 7\nsources:\n  - {angle_deg: 10.0, range: 100.0}\n")
        scenario = load_scenario(path)
        assert isinstance(scenario, Scenario)
        assert scenario.config_compressed.scale == 0.2
        assert scenario.config_extended.scale == 2.0
        assert scenario.snapshots == 500
        assert scenario.seed == 7

    def test_minimal_campaign_defaults(self, tmp_path):
        path = tmp_path / "camp.yaml"
        path.write_text(
            "seed: 7\nsources:\n  - {angle_deg: 10.0, range: 100.0}\n"
            "campaign: {sweep: snr_db, values: [0.0, 10.0]}\n"
        )
        campaign = load_scenario(path)
        assert isinstance(campaign, Campaign)
        assert campaign.trials == 1000
        assert campaign.estimators == ("two_stage",)

    def test_malformed_angle_names_invariant(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: 1\nsources:\n  - {angle_deg: 95.0, range: 100.0}\n")
        with pytest.raises(ScenarioFileError, match="angle"):
            load_scenario(path)

    def test_all_violations_reported(self, tmp_path):
        path = tmp_path / "bad2.yaml"
        path.write_text(
            "seed: 1\nsnapshots: 0\n"
            "array: {scale_compressed: 1.5, scale_extended: 0.5}\n"
            "sources:\n  - {angle_deg: 10.0, range: 100.0}\n"
        )
        with pytest.raises(ScenarioFileError) as exc:
            load_scenario(path)
        message = str(exc.value)
        for fragment in ("compressed scale", "extended scale", "snapshots"):
            assert fragment in message

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "extra.yaml"
        path.write_text(
            "seed: 1\nbogus: 3\nsources:\n  - {angle_deg: 1.0, range: 100.0}\n"
        )
        with pytest.raises(ScenarioFileError, match="bogus"):
            load_scenario(path)

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [unclosed\n")
        with pytest.raises(ScenarioFileError, match="line"):
            load_scenario(path)

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_shipped_files_round_trip(self, tmp_path, name):
        first = load_file(SCENARIO_DIR / name)
        out = tmp_path / name
        if first[2] is not None:
            dump_scenario(first[2], out)
        else:
            dump_scenario(first[0], out, settings=first[1])
        second = load_file(out)
        assert first == second

    @hyp_settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_settings_round_trip(self, data):
        """Any valid settings and coupling survive dump -> load unchanged,
        with int, None and bool fields keeping their types."""

        def step(span):
            # within the span it steps across, at most about 10^5 steps of it
            return data.draw(st.floats(span / 1e5, span, exclude_min=True))

        angle_min = data.draw(st.floats(-90.0, 89.0))
        angle_max = data.draw(st.floats(angle_min, 90.0, exclude_min=True))
        range_min = data.draw(st.floats(0.0, 1e5, exclude_min=True))
        window_angle = data.draw(st.floats(0.0, 10.0, exclude_min=True))
        window_range = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        pass1_angle = step(window_angle)
        pass1_range = step(window_range)
        settings = EstimatorSettings(
            trim=data.draw(st.none() | st.integers(0, 10)),
            angle_min_deg=angle_min,
            angle_max_deg=angle_max,
            angle_step_deg=data.draw(
                st.floats((angle_max - angle_min) / 1e5, 10.0, exclude_min=True)
            ),
            range_min=range_min,
            range_max=data.draw(st.floats(range_min, 1e7, exclude_min=True)),
            range_points=data.draw(st.integers(2, 5000)),
            window_angle_deg=window_angle,
            window_range_fraction=window_range,
            pass1_angle_step_deg=pass1_angle,
            pass1_range_fraction=pass1_range,
            pass2_angle_step_deg=step(1.5 * pass1_angle),
            pass2_range_fraction=step(1.5 * pass1_range),
            min_peak_separation_deg=data.draw(st.floats(-10.0, 10.0)),
            flat_spectrum_ratio=data.draw(st.floats(-10.0, 10.0)),
        )
        couplings = st.builds(
            CouplingModel,
            reference_strength=st.floats(0.0, 1.0, exclude_max=True),
            decay=st.floats(0.0, 10.0),
            phase_offset=st.floats(-10.0, 10.0),
            band=st.integers(0, 10),
            symmetric=st.booleans(),
        )
        scenario = small_scenario(
            coupling=data.draw(couplings),
            coupling_extended=data.draw(st.none() | couplings),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.yaml"
            dump_scenario(scenario, path, settings=settings)
            loaded = load_file(path)
        assert loaded == (scenario, settings, None)
        assert type(loaded[1].range_points) is int
        assert loaded[1].trim is None or type(loaded[1].trim) is int
        assert type(loaded[0].coupling.band) is int
        assert type(loaded[0].coupling.symmetric) is bool

    @hyp_settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_shipped_files_raise_only_scenario_errors(self, data):
        """A shipped file with one key, at the top level or inside a section
        or source entry, set to a value of any kind either loads or raises
        ScenarioFileError, never another exception.  What loads holds
        finite numbers, bar a noiseless SNR of +inf, and text where text is
        read."""
        name = data.draw(st.sampled_from(sorted(p.name for p in SCENARIO_DIR.glob("*.yaml"))))
        raw = yaml.safe_load((SCENARIO_DIR / name).read_text())
        sections = [raw, *(v for v in raw.values() if isinstance(v, dict)), *raw["sources"]]
        section = data.draw(st.sampled_from(sections))
        key = data.draw(st.sampled_from(sorted(section)))
        scalars = (
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10)
            | st.sampled_from((math.nan, math.inf, -math.inf))
        )
        section[key] = data.draw(
            scalars
            | st.lists(scalars, max_size=3)
            | st.dictionaries(st.text(max_size=10), scalars, max_size=3)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_text(yaml.safe_dump(raw))
            try:
                scenario, settings, campaign = load_file(path)
            except ScenarioFileError:
                return
        loaded = (
            campaign_to_dict(campaign) if campaign else scenario_to_dict(scenario, settings)
        )

        def numbers(node, key=None):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield from numbers(v, k)
            elif isinstance(node, list):
                for v in node:
                    yield from numbers(v, key)
            elif isinstance(node, float):
                yield key, node

        for key, value in numbers(loaded):
            snr = key == "snr_db" or (key == "values" and campaign.sweep == "snr_db")
            assert math.isfinite(value) or (snr and value == math.inf), (key, value)
        assert isinstance(scenario.label, str)
        assert campaign is None or all(
            isinstance(text, str) for text in (campaign.sweep, *campaign.estimators)
        ) and isinstance(campaign.out_dir, (str, type(None)))

    def test_campaign_invariants(self):
        scen = small_scenario()
        with pytest.raises(ScenarioFileError, match="increasing"):
            Campaign(scenario=scen, sweep="snr_db", values=(5.0, 1.0))
        with pytest.raises(ScenarioFileError, match="estimator"):
            Campaign(scenario=scen, sweep="snr_db", values=(0.0,), estimators=("nope",))
        with pytest.raises(ScenarioFileError, match="trials"):
            Campaign(scenario=scen, sweep="snr_db", values=(0.0,), trials=0)


class TestSingleShot:
    def test_trivial_scenario_bundle_shape(self, tmp_path):
        scen = Scenario(
            sources=(SourceTruth.from_degrees(10.0, 30.0),),
            snapshots=100,
            snr_db=20.0,
            seed=5,
        )
        bundle = run_single_shot(scen, out_dir=tmp_path / "out")
        assert len(bundle.range_spectra) == 1
        assert len(bundle.refine_spectra) == 1
        assert bundle.estimate is not None
        record = json.loads((tmp_path / "out" / "estimate.json").read_text())
        assert len(record["estimate"]["sources"]) == 1
        assert record["config"]["seed"] == 5

    def test_extended_failure_keeps_stage1_spectrum(self, tmp_path, monkeypatch):
        """A degenerate extended block after a good stage 1 still exports the
        stage-1 spectrum and records the failure instead of raising."""
        real = estimators.decompose

        def decompose(covariance, source_count):
            if covariance.matrix.shape[0] == 32:  # full M=32 covariance, not stage 1's
                raise DegenerateSubspaceError("forced")
            return real(covariance, source_count)

        monkeypatch.setattr(estimators, "decompose", decompose)
        bundle = run_single_shot(small_scenario(), out_dir=tmp_path)
        assert bundle.estimate is None
        assert "two-stage pipeline: forced" in bundle.errors
        assert (tmp_path / "stage1_proposed.csv").exists()

    def test_mixed_scene_refined_angles_tight(self, mixed_scenario):
        bundle = run_single_shot(mixed_scenario)
        assert bundle.estimate is not None
        truth = np.array([-40.0, -20.0, 10.0, 30.0])
        from sfas.estimators import pair_estimates

        errors = pair_estimates(bundle.estimate.refined_angles_deg, truth).angle_errors
        assert np.max(np.abs(errors)) <= 0.1

    def test_rerun_is_byte_identical(self, tmp_path, mixed_scenario):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_single_shot(mixed_scenario, out_dir=a)
        run_single_shot(mixed_scenario, out_dir=b)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_estimator_failure_recorded_not_raised(self, tmp_path):
        # co-located noiseless sources leave a rank-one covariance: the
        # two-source subspace split is degenerate and must be reported as
        # a captured error, never an exception
        scen = Scenario(
            sources=(
                SourceTruth.from_degrees(10.0, 3000.0),
                SourceTruth.from_degrees(10.0, 3000.0),
            ),
            snapshots=20,
            snr_db=float("inf"),
            seed=11,
        )
        bundle = run_single_shot(scen, out_dir=tmp_path / "out")
        assert bundle.estimate is None
        assert len(bundle.errors) == 2
        for error, label in zip(bundle.errors, ("conventional baseline: ", "two-stage pipeline: ")):
            assert error.startswith(label) and error.endswith("subspace split is ambiguous")
        assert bundle.conventional_peaks.size == 0

    def test_baseline_under_resolution_keeps_found_peaks(self, tmp_path, monkeypatch):
        def one_peak(axis, values, count, min_separation=1.0):
            raise estimators.UnderResolutionError(count, np.array([7.0]))

        monkeypatch.setattr(harness, "find_spectrum_peaks", one_peak)
        bundle = run_single_shot(small_scenario(), out_dir=tmp_path)
        assert list(bundle.conventional_peaks) == [7.0]
        assert bundle.errors == ("conventional baseline: found 1 separated peaks, need 2",)
        assert bundle.estimate is not None
        assert (tmp_path / "stage1_conventional.csv").exists()
        record = json.loads((tmp_path / "estimate.json").read_text())
        assert record["conventional_peaks_deg"] == [7.0]

    # Low SNR and few snapshots put many refinements on their window edge.
    @pytest.mark.filterwarnings("ignore:refined estimate.*search-window edge:RuntimeWarning")
    @hyp_settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(6, 10),
        angles=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=2, unique=True),
        ranges=st.lists(st.sampled_from([20.0, 300.0, 4000.0]), min_size=2, max_size=2),
        coupled=st.booleans(),
        snr_db=st.sampled_from([-10.0, 0.0, 10.0]),
        snapshots=st.integers(4, 40),
        seed=st.integers(0, 2**16),
    )
    def test_single_shot_is_campaign_trial_zero(
        self, m, angles, ranges, coupled, snr_db, snapshots, seed
    ):
        scen = Scenario(
            sources=tuple(SourceTruth.from_degrees(a, r) for a, r in zip(angles, ranges)),
            config_compressed=ArrayConfig(m, 0.5, 0.2),
            config_extended=ArrayConfig(m, 0.5, 2.0),
            coupling=CouplingModel(band=1),
            coupling_extended=CouplingModel(band=1, symmetric=True) if coupled else None,
            snapshots=snapshots,
            snr_db=snr_db,
            seed=seed,
        )
        two_stage = "two_stage_mc" if coupled else "two_stage"
        bundle = run_single_shot(scen)
        camp = Campaign(scenario=scen, trials=1, estimators=(two_stage, "baseline_ff_music"))
        with tempfile.TemporaryDirectory() as tmp:
            run_campaign(camp, out_dir=tmp)
            rows = read_csv(Path(tmp) / "trial_errors.csv")

        def cells(name):
            return [
                tuple(r[c] for c in ("acc_angle_error_deg", "aar_angle_error_deg",
                                     "range_error_wl", "range_excluded", "failed"))
                for r in rows if r["estimator"] == name
            ]

        truth = [s.angle_deg for s in scen.sources]
        true_ranges = [s.range for s in scen.sources]
        failed = ("", "", "", "", "true")
        est = bundle.estimate
        if est is None:
            assert cells(two_stage) == [failed]
        else:
            pairing = estimators.pair_estimates(
                est.refined_angles_deg, truth, est.refined_ranges, true_ranges
            )
            acc = estimators.pair_estimates(est.coarse_angles_deg, truth).angle_errors
            expected = []
            for src, aar in enumerate(pairing.angle_errors):
                flat = est.sources[pairing.assignment[src]].range_flat
                rng = None if flat else pairing.range_errors[src]
                expected.append((*map(harness._fmt, (acc[src], aar, rng, flat)), "false"))
            assert cells(two_stage) == expected
        if any(e.startswith("conventional baseline: ") for e in bundle.errors):
            assert cells("baseline_ff_music") == [failed]
        else:
            aar = estimators.pair_estimates(bundle.conventional_peaks, truth).angle_errors
            assert cells("baseline_ff_music") == [
                ("", harness._fmt(err), "", "", "false") for err in aar
            ]


class TestCampaign:
    def test_single_trial_rmse_equals_error(self):
        scen = small_scenario()
        camp = Campaign(scenario=scen, sweep="none", trials=1)
        record = run_campaign(camp)[0]
        # with one trial the pooled RMSE is the RMS of that trial's errors
        assert record.trials_total == 1
        assert record.trials_failed == 0
        assert record.aar_angle_rmse_pooled == pytest.approx(
            math.sqrt(float(np.mean(record.aar_angle_rmse**2)))
        )

    def test_exclusion_accounting_and_dump_consistency(self, tmp_path):
        scen = small_scenario(snr_db=0.0)
        camp = Campaign(
            scenario=scen,
            sweep="snr_db",
            values=(0.0, 10.0),
            trials=8,
            estimators=("two_stage", "baseline_ff_music"),
        )
        out = tmp_path / "camp"
        records = run_campaign(camp, out_dir=out)
        rows = read_csv(out / "rmse.csv")
        errors = read_csv(out / "trial_errors.csv")
        for rec in records:
            sub = [
                r for r in errors
                if r["estimator"] == rec.estimator
                and float(r["sweep_value"]) == rec.sweep_value
            ]
            failed = {r["trial"] for r in sub if r["failed"] == "true"}
            succeeded = {r["trial"] for r in sub if r["failed"] == "false"}
            assert len(failed) + len(succeeded) == rec.trials_total
            assert len(failed) == rec.trials_failed
            # recompute pooled AAR RMSE from the dump
            sq = [
                float(r["aar_angle_error_deg"]) ** 2
                for r in sub
                if r["failed"] == "false"
            ]
            if sq:
                recomputed = math.sqrt(sum(sq) / len(sq))
                assert recomputed == pytest.approx(rec.aar_angle_rmse_pooled, rel=1e-12)
        pooled = [
            r for r in rows
            if r["source"] == "pooled" and r["metric"] == "aar_angle_rmse_deg"
        ]
        assert len(pooled) == 4  # 2 sweep values x 2 estimators

    def test_oracle_estimator_path(self):
        # exhaustive-search estimator wired through the campaign registry
        scen = Scenario(
            sources=(SourceTruth.from_degrees(10.0, 100.0),),
            config_compressed=ArrayConfig(8, 0.5, 0.2),
            config_extended=ArrayConfig(8, 0.5, 2.0),
            snapshots=64,
            snr_db=20.0,
            seed=3,
        )
        camp = Campaign(
            scenario=scen, sweep="none", trials=2, estimators=("oracle_2d",)
        )
        record = run_campaign(camp)[0]
        assert record.estimator == "oracle_2d"
        assert record.trials_failed == 0
        assert record.aar_angle_rmse_pooled <= 0.1
        assert record.acc_angle_rmse is None

    def test_estimator_output_shapes(self, tmp_path, monkeypatch):
        """Which trial_errors.csv cells each estimator fills, what a failed
        trial writes, and the rmse.csv metrics each estimator reports."""
        scen = Scenario(
            sources=(
                SourceTruth.from_degrees(-30.0, 20.0),
                SourceTruth.from_degrees(20.0, 300.0),  # flat range in two_stage(_mc)
            ),
            config_compressed=ArrayConfig(8, 0.5, 0.2),
            config_extended=ArrayConfig(8, 0.5, 2.0),
            coupling=CouplingModel(band=1),
            coupling_extended=CouplingModel(0.3, 1.0, 0.0, band=1, symmetric=True),
            snapshots=64,
            snr_db=20.0,
            seed=3,
        )
        names = ("two_stage", "two_stage_mc", "baseline_ff_music", "oracle_2d")
        camp = Campaign(scenario=scen, sweep="none", trials=2, estimators=names)
        calls = []
        real = harness.two_stage_localize

        def first_call_fails(*args):
            calls.append(args)
            if len(calls) == 1:  # trial 0 of two_stage
                raise estimators.UnderResolutionError(2, [1.0])
            return real(*args)

        monkeypatch.setattr(harness, "two_stage_localize", first_call_fails)
        out = tmp_path / "camp"
        records = run_campaign(camp, out_dir=out)
        assert [(r.estimator, r.trials_failed) for r in records] == [
            ("two_stage", 1), ("two_stage_mc", 0), ("baseline_ff_music", 0), ("oracle_2d", 0),
        ]
        excluded = [None if r.range_excluded is None else list(r.range_excluded) for r in records]
        assert excluded == [[0, 1], [0, 2], None, [0, 0]]

        # Per row: which of the ACC, AAR and range cells are filled, then
        # range_excluded and failed.
        cells = ("acc_angle_error_deg", "aar_angle_error_deg", "range_error_wl")
        shape = {
            ("two_stage", "0"): ("yyy", "false"),
            ("two_stage", "1"): ("yyn", "true"),
            ("baseline_ff_music", "0"): ("nyn", ""),
            ("baseline_ff_music", "1"): ("nyn", ""),
            ("oracle_2d", "0"): ("nyy", "false"),
            ("oracle_2d", "1"): ("nyy", "false"),
        }
        shape.update({("two_stage_mc", s): v for (n, s), v in shape.items() if n == "two_stage"})
        expected = [("two_stage", "0", "", "nnn", "", "true")] + [
            (name, trial, src, *shape[name, src], "false")
            for name in names for trial in "01" for src in "01"
            if (name, trial) != ("two_stage", "0")
        ]
        errors = read_csv(out / "trial_errors.csv")
        assert [
            (r["estimator"], r["trial"], r["source"],
             "".join("y" if r[c] else "n" for c in cells), r["range_excluded"], r["failed"])
            for r in errors
        ] == expected
        assert {r["sweep_value"] for r in errors} == {"0.0"}
        assert all(math.isfinite(float(r[c])) for r in errors for c in cells if r[c])

        per_source = {
            "two_stage": ["acc_angle_rmse_deg", "aar_angle_rmse_deg", "range_rmse_wl",
                          "range_rmse_rel", "range_excluded_trials"],
            "baseline_ff_music": ["aar_angle_rmse_deg"],
            "oracle_2d": ["aar_angle_rmse_deg", "range_rmse_wl", "range_rmse_rel",
                          "range_excluded_trials"],
        }
        per_source["two_stage_mc"] = per_source["two_stage"]
        pooled = {
            name: [m for m in metrics if m not in ("range_rmse_rel", "range_excluded_trials")]
            + ["trials_total", "trials_failed"]
            for name, metrics in per_source.items()
        }
        bounds = ["crb1_angle_rmse_deg", "crb2_angle_rmse_deg",
                  "crb1_range_rmse_wl", "crb2_range_rmse_wl"]
        rows = read_csv(out / "rmse.csv")
        assert [(r["estimator"], r["source"], r["metric"]) for r in rows] == [
            *(
                (name, src, metric)
                for name in names
                for src in ("0", "1", "pooled")
                for metric in (pooled if src == "pooled" else per_source)[name]
            ),
            *(("crb", src, metric) for src in ("0", "1", "pooled") for metric in bounds),
        ]
        # Source 1 of two_stage has no range sample left: its range RMSE is NaN.
        two_stage = {
            (r["source"], r["metric"]): r["value"] for r in rows if r["estimator"] == "two_stage"
        }
        assert two_stage["1", "range_rmse_wl"] == "nan"
        assert two_stage["1", "range_excluded_trials"] == "1"
        assert two_stage["pooled", "trials_failed"] == "1"

    def test_coupled_scenario_single_shot_uses_robust_spectrum(self):
        scen = Scenario(
            sources=(
                SourceTruth.from_degrees(-20.66, 30.0),
                SourceTruth.from_degrees(10.77, 200.0),
            ),
            coupling_extended=CouplingModel(0.3, 1.0, 0.0, band=2, symmetric=True),
            snapshots=200,
            snr_db=float("inf"),
            seed=13,
        )
        bundle = run_single_shot(scen)
        from sfas.estimators import pair_estimates

        errors = pair_estimates(
            bundle.estimate.refined_angles_deg, [-20.66, 10.77]
        ).angle_errors
        # rank-reduction refinement is selected automatically and removes
        # the coupling bias to below the finest grid step
        assert np.max(np.abs(errors)) <= EstimatorSettings().pass2_angle_step_deg

    def test_crb_overlay_rows_present(self, tmp_path):
        scen = small_scenario()
        camp = Campaign(scenario=scen, sweep="snr_db", values=(0.0,), trials=2)
        out = tmp_path / "camp"
        run_campaign(camp, out_dir=out)
        rows = read_csv(out / "rmse.csv")
        crb_rows = [r for r in rows if r["estimator"] == "crb"]
        metrics = {r["metric"] for r in crb_rows}
        assert "crb1_angle_rmse_deg" in metrics
        assert "crb2_angle_rmse_deg" in metrics

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        scen = small_scenario()
        camp = Campaign(scenario=scen, sweep="snr_db", values=(5.0, 15.0), trials=4)
        out1 = tmp_path / "one"
        out4 = tmp_path / "four"
        run_campaign(camp, out_dir=out1, threads=1)
        with forks_checked(4):
            run_campaign(camp, out_dir=out4, threads=4)
        assert (out1 / "rmse.csv").read_bytes() == (out4 / "rmse.csv").read_bytes()
        assert (out1 / "trial_errors.csv").read_bytes() == (out4 / "trial_errors.csv").read_bytes()

    @hyp_settings(max_examples=4, deadline=None)
    @given(threads=st.integers(1, 4))
    def test_thread_count_property(self, threads):
        # 2 cells x 3 trials: with 2-4 workers, trials of both cells overlap.
        camp = Campaign(scenario=small_scenario(), sweep="snr_db", values=(5.0, 15.0), trials=3)
        names = ("rmse.csv", "trial_errors.csv")
        with tempfile.TemporaryDirectory() as tmp:
            run_campaign(camp, out_dir=Path(tmp) / "serial", threads=1)
            with forks_checked(threads):
                run_campaign(camp, out_dir=Path(tmp) / "pool", threads=threads)
            for name in names:
                serial = (Path(tmp) / "serial" / name).read_bytes()
                assert (Path(tmp) / "pool" / name).read_bytes() == serial, (threads, name)

    @staticmethod
    def outputs_at_threads(camp, tmp_path):
        """rmse.csv and trial_errors.csv of `camp` at 1, 2 and 3 threads."""
        outputs = []
        for threads in (1, 2, 3):
            out = tmp_path / f"threads{threads}"
            with forks_checked(threads):
                run_campaign(camp, out_dir=out, threads=threads)
            outputs.append([(out / name).read_bytes() for name in ("rmse.csv", "trial_errors.csv")])
        return outputs

    def test_thread_count_does_not_change_coupled_bytes(self, tmp_path):
        # two_stage_mc's products cross OpenBLAS's threading threshold and
        # share the column stores with two_stage's
        _, _, camp = load_file(SCENARIO_DIR / "coupled_extended_single_shot.yaml")
        camp = replace(camp, trials=3)
        assert camp.estimators == ("two_stage", "two_stage_mc")
        first, *others = self.outputs_at_threads(camp, tmp_path)
        assert all(run == first for run in others)

    def test_thread_count_does_not_change_oracle_bytes(self, tmp_path):
        # oracle_2d scores a full (angle, range) grid, the longest numpy calls of any trial
        scen = small_scenario(
            sources=(SourceTruth.from_degrees(10.0, 100.0),),
            config_compressed=ArrayConfig(8, 0.5, 0.2),
            config_extended=ArrayConfig(8, 0.5, 2.0),
        )
        camp = Campaign(
            scenario=scen, sweep="snr_db", values=(5.0, 15.0), trials=2,
            estimators=("oracle_2d",),
        )
        first, *others = self.outputs_at_threads(camp, tmp_path)
        assert all(run == first for run in others)

    def test_outputs_do_not_depend_on_cache_state(self, tmp_path):
        # cold, warm, and warmed on another scene: the same bytes at 1 and 2 threads
        camp = Campaign(
            scenario=small_scenario(), sweep="snr_db", values=(5.0, 15.0), trials=3,
            estimators=("two_stage", "baseline_ff_music"),
        )
        other = Campaign(
            scenario=small_scenario(sources=(SourceTruth.from_degrees(-5.0, 60.0),)), trials=3
        )
        runs = []

        def outputs(threads):
            out = tmp_path / f"run{len(runs)}"
            with forks_checked(threads):
                run_campaign(camp, out_dir=out, threads=threads)
            runs.append([(out / name).read_bytes() for name in ("rmse.csv", "trial_errors.csv")])

        for threads in (1, 2):
            clear_steering_caches()
            outputs(threads)
            outputs(threads)
            run_campaign(other, threads=threads)
            outputs(threads)
        assert all(run == runs[0] for run in runs)

    def test_snr_cells_of_a_trial_share_one_wishart_factor(self, monkeypatch, tmp_path):
        """The cells of an SNR sweep, the noiseless one included, build each
        (trial, stage) covariance from one Wishart factor; the cells of a
        snapshot sweep key theirs apart, so they draw independently.  The
        keys are logged from the caller and its forked worker alike."""
        log = ProcessLog(tmp_path / "keys.log")
        factor = simulate._wishart_factor
        monkeypatch.setattr(
            simulate, "_wishart_factor", lambda *key: log.add(key) or factor(*key)
        )
        scen = small_scenario(snapshots=40)
        estimators_ = ("two_stage", "baseline_ff_music")  # three stages a trial
        snr = Campaign(scenario=scen, sweep="snr_db", values=(0.0, 10.0, 20.0, math.inf),
                       trials=5, estimators=estimators_)
        snapshots = Campaign(scenario=scen, sweep="snapshots", values=(30, 40, 50),
                             trials=3, estimators=estimators_)
        # (campaign, distinct factors): one per (trial, stage), and per cell
        # too in a snapshot sweep.
        for camp, distinct in ((snr, 5 * 3), (snapshots, 3 * 3 * 3)):
            log.clear()
            run_campaign(camp, threads=2)
            assert len({pid for pid, _ in log.records()}) == min(2, CPUS)
            keys = [key for _, key in log.records()]
            assert len(keys) == len(camp.values) * camp.trials * 3
            assert len(set(keys)) == distinct, camp.sweep

    def test_serial_campaign_runs_cell_major(self, monkeypatch):
        """At one thread the jobs run cell by cell, each cell's trials back
        to back in trial order, so consecutive trials share lattices."""
        ran = []
        run_trial = harness._run_trial
        monkeypatch.setattr(
            harness, "_run_trial",
            lambda scenario, *args: ran.append((scenario.snr_db, args[-1]))
            or run_trial(scenario, *args),
        )
        camp = Campaign(
            scenario=small_scenario(), sweep="snr_db", values=(5.0, 15.0, 25.0), trials=3
        )
        run_campaign(camp, threads=1)
        assert ran == [(value, trial) for value in camp.values for trial in range(3)]

    def test_cells_reduce_as_single_cell_sweeps(self, tmp_path):
        """Each cell is reduced from its contiguous run of trials in the
        cell-major schedule, so its rows are those of a sweep over that
        cell alone, in trial order, at any thread count."""
        camp = Campaign(scenario=small_scenario(), sweep="snr_db", values=(5.0, 15.0), trials=3)
        run_campaign(camp, out_dir=tmp_path / "all", threads=2)
        rows = read_csv(tmp_path / "all" / "trial_errors.csv")
        for value in camp.values:
            out = tmp_path / f"only{value}"
            run_campaign(replace(camp, values=(value,)), out_dir=out)
            assert [r for r in rows if float(r["sweep_value"]) == value] == read_csv(
                out / "trial_errors.csv"
            )

    def test_bad_out_dir_raises_before_any_trial(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_run_trial", lambda *args: calls.append(args))
        monkeypatch.setattr(harness, "_bounds", lambda *args: calls.append(args))
        taken = tmp_path / "taken.txt"
        taken.write_text("")
        camp = Campaign(scenario=small_scenario(), sweep="snr_db", values=(5.0, 15.0), trials=3)
        for out in (taken, taken / "sub", str(taken)):
            with pytest.raises(NotADirectoryError, match=f"out_dir {out} is not a directory"):
                run_campaign(camp, out_dir=out, threads=2)
            with pytest.raises(NotADirectoryError, match=f"out_dir {out} is not a directory"):
                run_single_shot(camp.scenario, out_dir=out)
            with pytest.raises(NotADirectoryError, match=f"out_dir {out} is not a directory"):
                write_crb_csv(camp, out)
        assert calls == []
        assert taken.read_text() == ""

    def test_crb_export_checks_every_snr_before_any_bound(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_bounds", lambda *args: calls.append(args))
        camp = Campaign(scenario=small_scenario(), sweep="snr_db", values=(0.0, 10.0, math.inf))
        with pytest.raises(ScenarioFileError, match="CRB export needs a finite SNR"):
            write_crb_csv(camp, tmp_path / "bounds")
        assert calls == []
        assert not (tmp_path / "bounds").exists()

    def test_thread_count_checked_and_capped(self, monkeypatch):
        camp = Campaign(scenario=small_scenario(), sweep="none", trials=2)
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"threads must be >= 1, got {bad}"):
                run_campaign(camp, threads=bad)
        started: list[int] = []  # the job count of each forked chunk
        fork_chunk = harness._fork_chunk
        monkeypatch.setattr(
            harness, "_fork_chunk", lambda fn, jobs: started.append(len(jobs)) or fork_chunk(fn, jobs)
        )
        # Two jobs get the caller and one child; one job forks nothing.
        run_campaign(camp, threads=8)
        assert started == ([1] if CPUS >= 2 else [])
        started.clear()
        run_campaign(replace(camp, trials=1), threads=8)
        assert started == []
        # Eight jobs get one worker per CPU, the caller being one of them.
        run_campaign(replace(camp, trials=8), threads=8)
        assert len(started) == min(8, CPUS) - 1
        started.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        run_campaign(replace(camp, trials=8), threads=8)
        assert started == []

    def test_metadata_header_embeds_config(self, tmp_path):
        scen = small_scenario()
        camp = Campaign(scenario=scen, sweep="none", trials=1)
        out = tmp_path / "camp"
        run_campaign(camp, out_dir=out)
        head = (out / "rmse.csv").read_text().splitlines()[:2]
        assert head[0].startswith("# version: sfas")
        blob = json.loads(head[1].removeprefix("# config: "))
        assert blob["seed"] == scen.seed


class TestWorkers:
    """The forked workers of a pooled campaign: each forks while no thread
    holds an sfas lock, what stops one reaches the caller, and no child
    outlives the call."""

    @staticmethod
    def campaign():
        # 6 jobs; at 3 workers, chunks of 2 in job order: the caller runs
        # (5 dB, trials 0-1), one child (5 dB, 2) and (15 dB, 0), the other
        # (15 dB, 1-2).
        return Campaign(scenario=small_scenario(), sweep="snr_db", values=(5.0, 15.0), trials=3)

    @pytest.fixture
    def three_workers(self, monkeypatch):
        """Three CPUs as far as `run_campaign` sees, on any host."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

    @staticmethod
    def replace_jobs(monkeypatch, **actions):
        """Run `actions["<snr>_<trial>"]()` in place of that job's trial."""
        run_trial = harness._run_trial

        def trial(scenario, settings, estimators_, index, *rest):
            action = actions.get(f"{scenario.snr_db:g}_{index}")
            if action is not None:
                return action()
            return run_trial(scenario, settings, estimators_, index, *rest)

        monkeypatch.setattr(harness, "_run_trial", trial)

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_concurrent_pooled_campaigns_match_serial(self, tmp_path):
        camp = self.campaign()
        names = ("rmse.csv", "trial_errors.csv")
        run_campaign(camp, out_dir=tmp_path / "serial")
        errors: list[Exception] = []

        def pooled(k):
            try:
                run_campaign(camp, out_dir=tmp_path / f"pool{k}", threads=2)
            except Exception as exc:  # re-checked by the main thread
                errors.append(exc)

        # A short switch interval, so one thread forks while the other is
        # inside a column store or the BLAS pin.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [threading.Thread(target=pooled, args=(k,), daemon=True) for k in range(2)]
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(run.is_alive() for run in runs)
        assert not errors
        for name in names:
            serial = (tmp_path / "serial" / name).read_bytes()
            assert [(tmp_path / f"pool{k}" / name).read_bytes() for k in range(2)] == [serial] * 2
        self.assert_no_children()

    def test_child_exception_reraised_and_every_child_reaped(self, monkeypatch, three_workers):
        def fail():
            raise ZeroDivisionError("trial 2 divided by zero")

        # The first child fails while the second is still busy.
        self.replace_jobs(monkeypatch, **{"5_2": fail, "15_1": lambda: time.sleep(60)})
        t0 = time.monotonic()
        with pytest.raises(ZeroDivisionError, match="trial 2 divided by zero"):
            run_campaign(self.campaign(), threads=3)
        assert time.monotonic() - t0 < 30
        self.assert_no_children()

    def test_caller_interrupt_kills_every_child(self, monkeypatch, three_workers):
        def interrupt():
            raise KeyboardInterrupt

        sleep = lambda: time.sleep(60)  # noqa: E731
        self.replace_jobs(monkeypatch, **{"5_1": interrupt, "5_2": sleep, "15_1": sleep})
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_campaign(self.campaign(), threads=3)
        assert time.monotonic() - t0 < 30
        self.assert_no_children()

    @pytest.mark.parametrize(
        "death, message",
        [
            (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)} "),
            (lambda: os._exit(3), "exit status 3 after writing 0 bytes"),
        ],
        ids=["killed", "exited"],
    )
    def test_dead_child_raises_runtime_error(self, monkeypatch, three_workers, death, message):
        # The first child dies while the second is still busy.
        self.replace_jobs(monkeypatch, **{"5_2": death, "15_1": lambda: time.sleep(60)})
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=f"campaign worker \\d+ ended with {message}"):
            run_campaign(self.campaign(), threads=3)
        assert time.monotonic() - t0 < 30
        self.assert_no_children()

    def test_truncated_payload_raises_runtime_error(self, monkeypatch, three_workers):
        cut = SimpleNamespace(dumps=lambda obj: pickle.dumps(obj)[:-3], loads=pickle.loads)
        monkeypatch.setattr(harness, "pickle", cut)
        with pytest.raises(
            RuntimeError, match=r"ended with exit status 0 after writing \d+ bytes, not a whole"
        ):
            run_campaign(self.campaign(), threads=3)
        self.assert_no_children()


class TestValidateSuite:
    def test_default_scenario_passes(self, mixed_scenario):
        checks = validate_scenario(mixed_scenario)
        assert checks
        assert all(ok for _, ok, _ in checks)


class TestCli:
    def test_validate_verb(self, capsys):
        rc = cli_main(["validate", str(SCENARIO_DIR / "single_shot_mixed.yaml")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_validate_uses_estimator_trim(self, tmp_path, capsys):
        # trim 1 does not shield the band-2 coupling of the mixed scene, so
        # the decoupling identity fails at the trim the estimator runs with
        path = tmp_path / "trim1.yaml"
        base = (SCENARIO_DIR / "single_shot_mixed.yaml").read_text()
        path.write_text(f"{base}\nestimator: {{trim: 1}}\n")
        assert cli_main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  central-subarray decoupling identity" in out

    def test_runs_without_scipy(self, tmp_path):
        # scipy is the test suite's oracle only: a fresh interpreter runs a
        # single shot and a one-trial campaign without importing it.
        scenario = str(SCENARIO_DIR / "campaign_mixed_field_snr.yaml")
        code = (
            "import sys\n"
            "from sfas.cli import main\n"
            f"assert main(['single-shot', {scenario!r}, '--out', 'shot']) == 0\n"
            f"assert main(['campaign', {scenario!r}, '--trials', '1', '--out', 'runs']) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        src = str(SCENARIO_DIR.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_single_shot_verb(self, tmp_path, capsys):
        path = tmp_path / "scen.yaml"
        path.write_text(
            "seed: 3\nsnapshots: 100\nsnr_db: 20.0\n"
            "sources:\n  - {angle_deg: 10.0, range: 30.0}\n"
        )
        rc = cli_main(["single-shot", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "stage1_proposed.csv").exists()
        assert "source" in capsys.readouterr().out

    def test_single_snapshot_file_runs(self, tmp_path):
        """With `snapshots: 1`, fewer than K + M, trials draw the covariance
        from the direct (K + M) x 1 factor; a single shot and a campaign
        both run and score every trial."""
        path = tmp_path / "one.yaml"
        path.write_text(
            "seed: 3\nsnapshots: 1\nsnr_db: 20.0\n"
            "sources:\n  - {angle_deg: 10.0, range: 30.0}\n"
            "campaign: {sweep: snr_db, values: [10.0, .inf], trials: 2}\n"
        )
        for verb in ("single-shot", "campaign"):
            assert cli_main([verb, str(path), "--out", str(tmp_path / verb)]) == 0
        estimate = json.loads((tmp_path / "single-shot" / "estimate.json").read_text())
        assert len(estimate["estimate"]["sources"]) == 1
        rows = read_csv(tmp_path / "campaign" / "rmse.csv")
        totals = [r["value"] for r in rows if r["metric"] == "trials_total"]
        failed = [r["value"] for r in rows if r["metric"] == "trials_failed"]
        assert totals == ["2", "2"] and failed == ["0", "0"]

    def test_campaign_verb_with_overrides(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "camp.yaml"
        path.write_text(
            "seed: 3\nsnapshots: 100\n"
            "sources:\n  - {angle_deg: 10.0, range: 4000.0}\n"
            "campaign: {sweep: snr_db, values: [10.0], trials: 50}\n"
        )
        rc = cli_main(
            ["campaign", str(path), "--out", str(tmp_path / "out"), "--trials", "2"]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "out" / "rmse.csv")
        trials_rows = [r for r in rows if r["metric"] == "trials_total"]
        assert trials_rows and all(r["value"] == "2" for r in trials_rows)

        # A thread or trial count below 1 is a usage error (exit 2), not a traceback.
        for option, bad in [*(("threads", b) for b in ("0", "-1", "two")),
                            *(("trials", b) for b in ("0", "-1", "2.5", "abc"))]:
            with pytest.raises(SystemExit) as exit_info:
                cli_main(["campaign", str(path), f"--{option}", bad])
            assert exit_info.value.code == 2
            assert f"{option} must be a whole number >= 1, got '{bad}'" in capsys.readouterr().err

        # So is a negative seed, on every verb that takes one; nothing is written.
        for verb in ("single-shot", "campaign", "crb"):
            with pytest.raises(SystemExit) as exit_info:
                cli_main([verb, str(path), "--seed", "-1", "--out", str(tmp_path / "neg")])
            assert exit_info.value.code == 2
            assert "seed must be a whole number >= 0, got '-1'" in capsys.readouterr().err
        assert not (tmp_path / "neg").exists()

        # An --out that names a file, or lies under one, exits 2 before any
        # trial or bound is computed; nothing is written.
        calls = []
        monkeypatch.setattr(harness, "_run_trial", lambda *args: calls.append(args))
        monkeypatch.setattr(harness, "_bounds", lambda *args: calls.append(args))
        taken = tmp_path / "taken.txt"
        taken.write_text("")
        for verb in ("single-shot", "campaign", "crb"):
            for out in (taken, taken / "sub"):
                assert cli_main([verb, str(path), "--out", str(out)]) == 2
                assert f"error: --out {out} is not a directory" in capsys.readouterr().err
        path.write_text(path.read_text().replace("trials: 50}", f"trials: 1, out_dir: {taken}}}"))
        assert cli_main(["campaign", str(path)]) == 2
        assert f"error: out_dir {taken} is not a directory" in capsys.readouterr().err
        assert calls == []
        assert taken.read_text() == ""

    def test_seed_option_matches_seed_in_file(self, tmp_path):
        # --seed N writes the bytes that the same file with `seed: N` writes
        text = (
            "seed: 3\nsnapshots: 100\n"
            "sources:\n  - {angle_deg: 10.0, range: 40.0}\n"
            "campaign: {sweep: snr_db, values: [0.0, 10.0], trials: 2}\n"
        )
        (tmp_path / "seed3.yaml").write_text(text)
        (tmp_path / "seed7.yaml").write_text(text.replace("seed: 3", "seed: 7"))
        for verb in ("single-shot", "campaign", "crb"):
            runs = {}
            for name, extra in (("seed3", ["--seed", "7"]), ("seed7", [])):
                out = tmp_path / verb / name
                file = str(tmp_path / f"{name}.yaml")
                assert cli_main([verb, file, "--out", str(out), *extra]) == 0
                runs[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            assert runs["seed3"] and runs["seed3"] == runs["seed7"], verb

    def test_crb_verb(self, tmp_path):
        rc = cli_main(
            [
                "crb",
                str(SCENARIO_DIR / "campaign_near_field_snr.yaml"),
                "--out",
                str(tmp_path / "bounds"),
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "bounds" / "crb.csv")
        assert {r["metric"] for r in rows} >= {
            "crb1_angle_rmse_deg",
            "crb2_angle_rmse_deg",
            "crb1_range_rmse_wl",
            "crb2_range_rmse_wl",
        }

    def test_bad_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("sources:\n  - {angle_deg: 95.0, range: 100.0}\n")
        rc = cli_main(["validate", str(path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

        # Bad estimator settings: each violated key is named, exit code 2.
        base = (SCENARIO_DIR / "single_shot_mixed.yaml").read_text()
        cases = {
            "angle_step_deg: 0": ["angle_step_deg"],
            "range_points: 0": ["range_points"],
            "range_min: -1": ["range_min"],
            "range_min: 500.0, range_max: 50.0": ["range_min"],
            "window_range_fraction: 1.0": ["window_range_fraction"],
            "pass2_range_fraction: -0.001": ["pass2_range_fraction"],
            "angle_min_deg: -95.0": ["angle_min_deg"],
            "angle_min_deg: 10.0, angle_max_deg: -10.0": ["angle_min_deg"],
            "angle_step_deg: 0, range_points: 1, window_angle_deg: -2.0":
                ["angle_step_deg", "range_points", "window_angle_deg"],
            "trim: -1": ["trim >= 0"],
            "trim: 20": ["trim 20 leaves -8"],
            "pass1_angle_step_deg: 5": ["pass1_angle_step_deg <= window_angle_deg"],
            "pass1_range_fraction: 0.5": ["pass1_range_fraction <= window_range_fraction"],
            "pass2_angle_step_deg: 0.08":
                ["pass2_angle_step_deg <= 1.5 * pass1_angle_step_deg"],
            "pass2_range_fraction: 0.02":
                ["pass2_range_fraction <= 1.5 * pass1_range_fraction"],
            "angle_step_deg: 1.0e-300": ["angle_step_deg gives at most 1000000 points"],
            "pass2_angle_step_deg: 1.0e-12":
                ["pass2_angle_step_deg gives at most 1000000 points"],
        }
        for override, keys in cases.items():
            path.write_text(f"{base}\nestimator: {{{override}}}\n")
            for verb in ("single-shot", "validate"):
                assert cli_main([verb, str(path)]) == 2, override
                err = capsys.readouterr().err
                assert "estimator:" in err and all(k in err for k in keys), (override, err)

        # Bad coupling and campaign sections: exit code 2 from the verb that
        # would otherwise crash at run time, every violated rule named.
        coupled = (SCENARIO_DIR / "coupled_extended_single_shot.yaml").read_text()
        snapshots = (SCENARIO_DIR / "campaign_far_field_snapshots.yaml").read_text()
        cases = [
            (coupled.replace("band: 2\n  symmetric: true", "band: 40\n  symmetric: true"),
             "single-shot", ["extended coupling band 40"]),
            (snapshots.replace("[100, 200, 400, 800]", "[0.5, 100, 200]"),
             "campaign", ["campaign: values must be whole numbers >= 1 in a snapshot sweep"]),
            (base.replace("reference_strength: 0.3", "reference_strength: 1.5")
             .replace("band: 2\n", "band: -1\n"),
             "single-shot", ["reference_strength < 1", "band >= 0"]),
            (base.replace("decay: 1.0", "decay: -10000"),
             "single-shot", ["coupling: model must satisfy decay finite and >= 0"]),
            (coupled.replace("decay: 1.0\n  phase_offset: 0.0\n  band: 2\n  symmetric: true",
                             "decay: -1000\n  phase_offset: 0.0\n  band: 2\n  symmetric: true"),
             "campaign", ["extended_coupling: model must satisfy decay finite and >= 0"]),
        ]
        # Sections of the wrong shape and values of the wrong kind: one
        # problem naming the section and key, never a traceback or a
        # silently truncated value.
        shapes = {
            "array: 5": "array: must be a mapping, got 5",
            "sources: 5": "sources must be a list, got 5",
            "coupling: 5": "coupling: must be a mapping, got 5",
            "estimator: 5": "estimator: must be a mapping, got 5",
            "campaign: 5": "campaign: must be a mapping, got 5",
            "campaign: {values: 3}": "campaign: values must be a list, got 3",
            "array: {element_count: abc}": "array: element_count must be a whole number",
            "campaign: {values: [a, b]}": "campaign: values must be a number, got 'a'",
            "campaign: {trials: many}": "campaign: trials must be a whole number, got 'many'",
            "seed: 1.9": "seed must be a whole number, got 1.9",
            "seed: -5": "seed must be >= 0, got -5",
            "coupling: {band: 2.5}": "coupling: band must be a whole number, got 2.5",
            "campaign: {trials: 2.5}": "campaign: trials must be a whole number, got 2.5",
            "array: {element_count: 2.7}": "array: element_count must be a whole number, got 2.7",
            "campaign: {estimators: two_stage}":
                "campaign: estimators must be a list, got 'two_stage'",
            'coupling: {symmetric: "false"}':
                "coupling: symmetric must be true or false, got 'false'",
            "snr_db: .nan": "snr_db must be finite or .inf, got nan",
            "snr_db: -.inf": "snr_db must be finite or .inf, got -inf",
            "array: {scale_compressed: .nan}": "array: scale_compressed must be finite, got nan",
            "array: {scale_compressed: -1}":
                "array: scale_compressed: scale must be finite and > 0, got -1.0",
            "array: {scale_extended: 0}": "array: scale_extended: scale must be finite and > 0",
            "array: {element_count: 1}": "array: element_count must be >= 2, got 1",
            "sources: [{angle_deg: 10.0, range: .inf}]":
                "sources[0]: range must be finite, got inf",
            "estimator: {flat_spectrum_ratio: .nan}":
                "estimator: flat_spectrum_ratio must be finite, got nan",
            "label: [a, b]": "label must be text, got ['a', 'b']",
            "campaign: {out_dir: {a: 1}}": "campaign: out_dir must be text, got {'a': 1}",
            'campaign: {out_dir: ""}': "campaign: out_dir must name a directory, got ''",
            # each exited 1 with a traceback: an overflow in the Wishart draw,
            # an infinite spectrum and a division by a Rayleigh distance of 0
            "snapshots: 1.0e+308": "snapshots must be <= 4294967295",
            "sources: [{angle_deg: 10.0, range: 100.0, power: 1.0e+308}]":
                "sources[0]: power must be > 0 and <= 1e+09, got 1e+308",
            "array: {baseline_spacing: 1.0e-300}":
                "array: spacing baseline_spacing * scale must be >= 1e-06 wl, got 1e-300",
        }
        cases += [
            (f"{base}\n{line}\n", "campaign" if "campaign" in line else "single-shot", [key])
            for line, key in shapes.items()
        ]
        for text, run_verb, keys in cases:
            path.write_text(text)
            for verb in (run_verb, "validate"):
                assert cli_main([verb, str(path)]) == 2, keys
                err = capsys.readouterr().err
                assert all(k in err for k in keys), (keys, err)

        # Each of these exits 2 before any trial or bound.  Near a range of
        # 1e154 wl, r * r overflows in the manifold.  A snapshot-sweep value of
        # 1e308 crashed `crb` in its cell's Scenario, and an SNR of -4000 dB
        # overflowed the noise power in `single-shot` and `crb`.
        huge = {
            base.replace("range: 5000.0", "range: 1.0e+160"):
                ("single-shot", "sources[3]: range must be > 0 and <= 1e+09 wl, got 1e+160"),
            f"{base}\nestimator: {{range_max: 1.0e+160}}\n":
                ("single-shot", "estimator: settings must satisfy range_max <= 1e+09 (got 1e+160)"),
            snapshots.replace("[100, 200, 400, 800]", "[100, 1.0e+308]"):
                ("campaign", "campaign: values 1e+308: invalid scenario: snapshots must be <= "),
            base.replace("snr_db: 20.0", "snr_db: -4000.0"):
                ("single-shot", "snr_db must be >= -90, got -4000.0"),
            # passed `validate`, and `campaign` would have built 10^30 jobs
            snapshots.replace("trials: 100", "trials: 1.0e+30"):
                ("campaign", "campaign: trials must be <= 1000000"),
        }
        # Every rule of the campaign section names it and its key.
        for old, new in (
            ("trials: 100", "trials: 0"),
            ("values: [100, 200, 400, 800]", "values: [200, 100]"),
            ("sweep: snapshots", "sweep: frequency"),
            ("estimators: [two_stage]", "estimators: [music3d]"),
        ):
            key = new.split(":")[0]
            huge[snapshots.replace(old, new)] = ("campaign", f"campaign: {key}")
        for text, (run_verb, key) in huge.items():
            path.write_text(text)
            for verb in ("validate", "crb", run_verb):
                out = [] if verb == "validate" else ["--out", str(tmp_path / "huge")]
                assert cli_main([verb, str(path), *out]) == 2, (verb, key)
                assert key in capsys.readouterr().err, (verb, key)
        # The bound itself loads (nothing runs it); one trial more from the
        # command line is a usage error naming the option.
        path.write_text(snapshots.replace("trials: 100", "trials: 1000000"))
        assert cli_main(["validate", str(path)]) == 0
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["campaign", str(path), "--trials", "1000001",
                      "--out", str(tmp_path / "huge")])
        assert exit_info.value.code == 2
        assert "argument --trials: trials must be <= 1000000, got '1000001'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "huge").exists()

    @hyp_settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_hostile_leaf_gives_a_result_or_a_diagnosis(self, data):
        """A shipped file with one or two leaves set to hostile values either
        runs (`validate` may exit 1 on a failed check) or exits 2 with an
        `error:` line; no verb raises."""
        name = data.draw(st.sampled_from(sorted(p.name for p in SCENARIO_DIR.glob("*.yaml"))))
        tree = yaml.safe_load((SCENARIO_DIR / name).read_text())
        paths = st.lists(st.sampled_from(leaf_paths(tree)), min_size=1, max_size=2, unique=True)
        for *parents, leaf in data.draw(paths, "leaves"):
            node = tree
            for key in parents:
                node = node[key]
            node[leaf] = data.draw(st.sampled_from(HOSTILE_LEAVES), "value")
        tree["estimator"] = COARSE_SETTINGS
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_text(yaml.safe_dump(tree))
            for verb, *out in (["validate"], ["crb", "--out", f"{tmp}/crb"], ["single-shot"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli_main([verb, str(path), *out])
                diagnosed = rc == 2 and err.getvalue().startswith("error: ")
                assert rc in (0, 1) or diagnosed, (verb, rc, err.getvalue())
