"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line with the measured figures (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a failure raises
with the offending numbers.  Budgets are wall-clock seconds.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from sfas.coupling import CouplingModel, decoupling_residual
from sfas.crb import crb, steering_jacobian
from sfas.estimators import (
    EstimatorSettings,
    _mc_cost,
    _on_mesh,
    _plain_cost,
    _search_passes,
    decompose,
    oracle_2d_music,
    pair_estimates,
    stage1_music,
    stage2_range_search,
    two_stage_localize,
)
from sfas.geometry import (
    ArrayConfig,
    SourceTruth,
    array_center,
    element_positions,
    esg_manifold_centered,
)
from sfas.harness import Campaign, run_campaign, run_single_shot
from sfas.simulate import (
    Scenario,
    generate_snapshots_compressed,
    generate_snapshots_extended,
    sample_covariance,
)

SETTINGS = EstimatorSettings()

MIXED_SOURCES = tuple(
    SourceTruth.from_degrees(a, r)
    for a, r in [(-40.0, 30.0), (-20.0, 300.0), (10.0, 1000.0), (30.0, 5000.0)]
)
FAR_SOURCES = (
    SourceTruth.from_degrees(-20.66, 4000.0),
    SourceTruth.from_degrees(10.77, 5000.0),
)
NEAR_SOURCES = (
    SourceTruth.from_degrees(-20.66, 30.0),
    SourceTruth.from_degrees(10.77, 200.0),
)


def report(name: str, elapsed: float, detail: str):
    print(f"\n[PASS] {name} ({elapsed:.1f} s): {detail}")


def test_criterion_1_decoupling_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        band = int(rng.integers(1, 4))
        trim = band + int(rng.integers(0, 2))
        m = int(rng.integers(2 * trim + 3, 33))
        cfg = ArrayConfig(m, 0.5, float(rng.uniform(0.1, 2.0)))
        model = CouplingModel(
            reference_strength=float(rng.uniform(0.05, 0.9)),
            decay=float(rng.uniform(0.2, 2.0)),
            phase_offset=float(rng.uniform(-np.pi, np.pi)),
            band=band,
            symmetric=True,
        )
        k = int(rng.integers(1, min(5, m - 2 * trim)))
        angles = rng.uniform(-np.pi / 2.2, np.pi / 2.2, size=k)
        worst = max(worst, decoupling_residual(angles, cfg, model, trim))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"decoupling residual {worst:.3e} over 100 draws"
    assert elapsed < 1.0, f"took {elapsed:.2f} s, budget 1 s"
    report("criterion 1: decoupling identity", elapsed, f"max residual {worst:.2e}")


def test_criterion_2_noiseless_exactness():
    start = time.perf_counter()
    scen = Scenario(
        sources=MIXED_SOURCES, snapshots=500, snr_db=float("inf"), seed=20260810
    )
    block_c = generate_snapshots_compressed(scen)
    block_e = generate_snapshots_extended(scen)
    est = two_stage_localize(block_c, block_e, 4, 2, SETTINGS)

    truth_angles = np.array([s.angle_deg for s in MIXED_SOURCES])
    truth_ranges = np.array([s.range for s in MIXED_SOURCES])
    pairing = pair_estimates(
        est.refined_angles_deg, truth_angles, est.refined_ranges, truth_ranges
    )
    angle_errors = np.abs(pairing.angle_errors)
    assert np.max(angle_errors) <= SETTINGS.pass2_angle_step_deg, (
        f"angle errors {angle_errors} exceed {SETTINGS.pass2_angle_step_deg} deg"
    )
    finest = np.array(
        [SETTINGS.pass2_range_fraction * s.initial_range for s in est.sources]
    )[pairing.assignment]
    range_errors = np.abs(pairing.range_errors)
    assert np.all(range_errors <= finest), (
        f"range errors {range_errors} exceed finest steps {finest}"
    )

    # reduced instance: two-stage refinement must land in the same grid
    # cells the exhaustive 2-D search selects
    range_grid = SETTINGS.range_grid()
    small = Scenario(
        sources=(
            SourceTruth.from_degrees(-25.0, float(range_grid[60])),
            SourceTruth.from_degrees(10.0, float(range_grid[100])),
        ),
        config_compressed=ArrayConfig(8, 0.5, 0.2),
        config_extended=ArrayConfig(8, 0.5, 2.0),
        snapshots=64,
        snr_db=float("inf"),
        seed=9,
    )
    sb_c = generate_snapshots_compressed(small)
    sb_e = generate_snapshots_extended(small)
    two_stage = two_stage_localize(sb_c, sb_e, 2, 2, SETTINGS)
    oracle_pairs, _ = oracle_2d_music(sb_e, 2)
    angle_grid = SETTINGS.angle_grid_deg()
    for src, (o_ang, o_rng) in zip(two_stage.sources, oracle_pairs):
        ang_cell = angle_grid[np.argmin(np.abs(angle_grid - src.refined_angle_deg))]
        rng_cell = range_grid[np.argmin(np.abs(range_grid - src.refined_range))]
        assert (ang_cell, rng_cell) == (o_ang, o_rng), "oracle cell mismatch"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s"
    report(
        "criterion 2: noiseless exactness",
        elapsed,
        f"max angle err {np.max(angle_errors):.2e} deg, "
        f"max range err {np.max(range_errors):.2e} wl, oracle cells matched",
    )


def test_criterion_3_single_shot_reproduction():
    start = time.perf_counter()
    scen = Scenario(sources=MIXED_SOURCES, snapshots=500, snr_db=20.0, seed=20260810)
    bundle = run_single_shot(scen)
    truth_angles = np.array([s.angle_deg for s in MIXED_SOURCES])

    # (a) conventional half-wavelength far-field MUSIC must not deliver
    # four separated peaks at the truth
    conventional_ok = False
    if len(bundle.conventional_peaks) == 4:
        errors = pair_estimates(bundle.conventional_peaks, truth_angles).angle_errors
        conventional_ok = np.max(np.abs(errors)) <= 1.0
    assert not conventional_ok, "conventional baseline unexpectedly resolves the scene"

    # (b) proposed compressed stage: four peaks, each within 1 degree
    assert bundle.estimate is not None, bundle.errors
    coarse = bundle.estimate.coarse_angles_deg
    coarse_errors = pair_estimates(coarse, truth_angles).angle_errors
    assert len(coarse) == 4
    assert np.max(np.abs(coarse_errors)) <= 1.0, f"stage-1 errors {coarse_errors}"

    # (c) range scans: near/Fresnel/1000 wl within 10 percent; the 5000 wl
    # source may flag a flat spectrum or land within 25 percent
    pairing = pair_estimates(
        bundle.estimate.refined_angles_deg,
        truth_angles,
        bundle.estimate.refined_ranges,
        np.array([s.range for s in MIXED_SOURCES]),
    )
    by_truth = [bundle.estimate.sources[i] for i in pairing.assignment]
    for src, truth in zip(by_truth[:3], MIXED_SOURCES[:3]):
        rel = abs(src.initial_range - truth.range) / truth.range
        assert rel <= 0.10, f"range scan for {truth.range} wl off by {rel:.1%}"
    far = by_truth[3]
    rel_far = abs(far.initial_range - 5000.0) / 5000.0
    assert far.range_flat or rel_far <= 0.25, f"far source off by {rel_far:.1%}, no flag"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f} s, budget 120 s"
    report(
        "criterion 3: single-shot reproduction",
        elapsed,
        f"stage-1 errors {np.round(coarse_errors, 3)} deg, "
        f"range scans within tolerance, conventional baseline fails as expected",
    )


def _check_curves(records, sweep_is_snr: bool):
    """(a) AAR within sqrt(2) of the extended-config bound at SNR >= 10,
    (b) AAR below ACC at SNR >= 0, (c) non-increasing within 20 percent."""
    ratios = []
    aar = [r.aar_angle_rmse_pooled for r in records]
    acc = [r.acc_angle_rmse_pooled for r in records]
    for rec in records:
        assert rec.trials_failed == 0 or rec.trials_failed < rec.trials_total
        if sweep_is_snr and rec.sweep_value >= 0.0:
            assert rec.aar_angle_rmse_pooled < rec.acc_angle_rmse_pooled, (
                f"AAR above ACC at SNR {rec.sweep_value}"
            )
        if sweep_is_snr and rec.sweep_value >= 10.0:
            bound = math.degrees(math.sqrt(float(np.mean(rec.crb2.angle_variance))))
            ratio = rec.aar_angle_rmse_pooled / bound
            ratios.append((rec.sweep_value, ratio))
            assert ratio <= math.sqrt(2.0), (
                f"AAR {rec.aar_angle_rmse_pooled:.4g} vs bound {bound:.4g} "
                f"(ratio {ratio:.2f}) at SNR {rec.sweep_value}"
            )
    for name, curve in (("AAR", aar), ("ACC", acc)):
        for prev, cur in zip(curve, curve[1:]):
            assert cur <= 1.2 * prev, f"{name} curve rises: {prev:.4g} -> {cur:.4g}"
    return ratios


def test_criterion_4_rmse_crb_tracking():
    start = time.perf_counter()
    snr_values = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    snapshot_values = (100.0, 200.0, 400.0, 800.0)
    all_ratios = []
    for label, sources, seed in (
        ("far", FAR_SOURCES, 42001),
        ("near", NEAR_SOURCES, 43001),
    ):
        scen = Scenario(sources=sources, snapshots=500, snr_db=0.0, seed=seed)
        snr_records = run_campaign(
            Campaign(scenario=scen, sweep="snr_db", values=snr_values, trials=100),
            threads=4,
        )
        all_ratios += _check_curves(snr_records, sweep_is_snr=True)
        snap_records = run_campaign(
            Campaign(
                scenario=scen, sweep="snapshots", values=snapshot_values, trials=100
            ),
            threads=4,
        )
        _check_curves(snap_records, sweep_is_snr=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.1f} s, budget 900 s"
    worst = max(r for _, r in all_ratios)
    report(
        "criterion 4: RMSE/CRB tracking",
        elapsed,
        f"worst AAR/CRB2 ratio {worst:.3f} (limit {math.sqrt(2.0):.3f}), "
        "AAR < ACC and curves monotone on all four sweeps",
    )


def test_criterion_5_mc_music_robustness():
    start = time.perf_counter()
    scen = Scenario(
        sources=NEAR_SOURCES,
        coupling=CouplingModel(band=2),
        coupling_extended=CouplingModel(0.3, 1.0, 0.0, band=2, symmetric=True),
        snapshots=500,
        snr_db=float("inf"),
        seed=31,
    )
    # noiseless rank deficiency of the transformed quadratic form at truth
    from sfas.estimators import _mc_transform_batch

    block = generate_snapshots_extended(scen, include_coupling=True)
    dec = decompose(sample_covariance(block), 2)
    worst_ratio = 0.0
    for src in scen.sources:
        man = esg_manifold_centered(
            np.array([src.angle]), np.array([src.range]), scen.config_extended
        )
        t = _mc_transform_batch(man, 2)[0]
        q = t.conj().T @ dec.noise_basis @ dec.noise_basis.conj().T @ t
        lam = np.linalg.eigvalsh(q).real
        worst_ratio = max(worst_ratio, lam[0] / lam[-1])
    assert worst_ratio < 1e-8, f"rank-deficiency ratio {worst_ratio:.2e}"

    # 50 noisy trials: robust refinement beats the plain one on median error
    noisy = scen.with_snr(10.0)
    truth_angles = np.array([s.angle_deg for s in NEAR_SOURCES])
    plain_err, robust_err = [], []
    for trial in range(50):
        bc = generate_snapshots_compressed(noisy, trial)
        be = generate_snapshots_extended(noisy, True, trial)
        plain = two_stage_localize(bc, be, 2, 2, SETTINGS)
        robust = two_stage_localize(bc, be, 2, 2, SETTINGS, mc_band=2)
        plain_err.extend(
            np.abs(pair_estimates(plain.refined_angles_deg, truth_angles).angle_errors)
        )
        robust_err.extend(
            np.abs(pair_estimates(robust.refined_angles_deg, truth_angles).angle_errors)
        )
    med_plain = float(np.median(plain_err))
    med_robust = float(np.median(robust_err))
    assert med_robust < med_plain, (
        f"robust median {med_robust:.5f} not below plain {med_plain:.5f}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f} s, budget 300 s"
    report(
        "criterion 5: coupling-robust refinement",
        elapsed,
        f"rank ratio {worst_ratio:.1e}, median angle error "
        f"{med_robust:.4f} vs {med_plain:.4f} deg over 50 trials",
    )


def _refinement_cells(scen, mc_band=None):
    """Per source of a trial-0 two-stage run, the (pass-1, pass-2) lattice
    cells of the sparse search, each checked against the full-grid argmin."""
    block_c = generate_snapshots_compressed(scen)
    block_e = generate_snapshots_extended(scen, scen.coupling_extended is not None)
    _, coarse = stage1_music(block_c, 2, scen.source_count)
    dec = decompose(sample_covariance(block_e), scen.source_count)
    config = block_e.config
    cost = _plain_cost(dec, config) if mc_band is None else _mc_cost(dec, mc_band, config)
    cells = []
    for angle in coarse:
        initial = stage2_range_search(dec, angle, SETTINGS.range_grid(), config).initial_range
        found = _search_passes(cost, angle, initial, SETTINGS)
        for lattice, cell in (found[:2], found[2:]):
            full = _on_mesh(cost, np.deg2rad(lattice.angles_deg), lattice.ranges)
            assert cell == np.unravel_index(np.argmin(full), full.shape), "not the full-grid cell"
        cells.append((found[1], found[3]))
    return cells


CRITERION_SCENES = {
    "2: noiseless mixed": (
        Scenario(sources=MIXED_SOURCES, snapshots=500, snr_db=float("inf"), seed=20260810), None
    ),
    "3: single-shot mixed": (
        Scenario(sources=MIXED_SOURCES, snapshots=500, snr_db=20.0, seed=20260810), None
    ),
    "4: far, -10 dB": (Scenario(sources=FAR_SOURCES, snr_db=-10.0, seed=42001), None),
    "4: far, 20 dB": (Scenario(sources=FAR_SOURCES, snr_db=20.0, seed=42001), None),
    "4: near, -10 dB": (Scenario(sources=NEAR_SOURCES, snr_db=-10.0, seed=43001), None),
    "4: near, 20 dB": (Scenario(sources=NEAR_SOURCES, snr_db=20.0, seed=43001), None),
    **{
        f"5: coupled, 10 dB, {kind}": (
            Scenario(
                sources=NEAR_SOURCES,
                coupling=CouplingModel(band=2),
                coupling_extended=CouplingModel(0.3, 1.0, 0.0, band=2, symmetric=True),
                snapshots=500,
                snr_db=10.0,
                seed=31,
            ),
            band,
        )
        for kind, band in (("plain", None), ("robust", 2))
    },
}

# ((pass-1 cell), (pass-2 cell)) per source, in stage-1 angle order, as
# the full-grid search of both pass lattices selects them.
PINNED_CELLS = {
    "2: noiseless mixed": [
        ((40, 30), (16, 15)), ((40, 31), (15, 15)), ((40, 31), (15, 10)), ((40, 29), (15, 14))
    ],
    "3: single-shot mixed": [
        ((38, 30), (16, 15)), ((40, 31), (15, 15)), ((40, 30), (15, 18)), ((40, 28), (15, 19))
    ],
    "4: far, -10 dB": [((41, 31), (17, 14)), ((44, 36), (13, 8))],
    "4: far, 20 dB": [((41, 30), (13, 10)), ((39, 29), (19, 10))],
    "4: near, -10 dB": [((39, 30), (11, 14)), ((39, 29), (13, 17))],
    "4: near, 20 dB": [((39, 30), (13, 15)), ((39, 32), (19, 16))],
    "5: coupled, 10 dB, plain": [((39, 30), (14, 15)), ((39, 32), (16, 14))],
    "5: coupled, 10 dB, robust": [((39, 30), (13, 15)), ((39, 32), (19, 14))],
}


@pytest.mark.parametrize("name", sorted(CRITERION_SCENES))
def test_criteria_2_to_5_refinement_cells(name):
    assert _refinement_cells(*CRITERION_SCENES[name]) == PINNED_CELLS[name]


def _mp_entry(theta, r, p, p0):
    theta, r, p, p0 = mp.mpf(theta), mp.mpf(r), mp.mpf(p), mp.mpf(p0)
    dist = mp.sqrt(r * r + p * p - 2 * r * p * mp.sin(theta))
    d0 = mp.sqrt(r * r + p0 * p0 - 2 * r * p0 * mp.sin(theta))
    return (d0 / dist) * mp.e ** (1j * 2 * mp.pi * (dist - d0))


def test_criterion_6_crb_self_consistency():
    start = time.perf_counter()
    mp.mp.dps = 40
    rng = np.random.default_rng(202)
    worst_fd = 0.0
    for _ in range(100):
        cfg = ArrayConfig(6, 0.5, float(rng.uniform(0.1, 5.0)))
        theta = float(rng.uniform(-1.3, 1.3))
        r = float(10 ** rng.uniform(0.8, 6.0))
        pos = element_positions(cfg) - array_center(cfg)
        if r <= pos[-1]:
            continue
        d_theta, d_range = steering_jacobian(SourceTruth(theta, r), cfg)
        p0 = pos[0]
        for analytic, wrt in ((d_theta, "theta"), (d_range, "range")):
            h = mp.mpf("1e-12") * (1 if wrt == "theta" else r)
            for m, p in enumerate(pos[1:], start=1):
                if wrt == "theta":
                    hi, lo = _mp_entry(theta + h, r, p, p0), _mp_entry(theta - h, r, p, p0)
                else:
                    hi, lo = _mp_entry(theta, r + h, p, p0), _mp_entry(theta, r - h, p, p0)
                oracle = complex((hi - lo) / (2 * h))
                worst_fd = max(
                    worst_fd, abs(analytic[m] - oracle) / max(abs(oracle), 1e-30)
                )
    assert worst_fd < 1e-5, f"jacobian-vs-FD relative error {worst_fd:.2e}"

    src = (SourceTruth.from_degrees(-20.66, 30.0),)
    cfg = ArrayConfig(32, 0.5, 2.0)
    one = crb(src, cfg, 500, 0.1)
    two = crb(src, cfg, 1000, 0.1)
    np.testing.assert_allclose(two.angle_variance, one.angle_variance / 2, rtol=1e-12)
    np.testing.assert_allclose(two.range_variance, one.range_variance / 2, rtol=1e-12)

    far = (SourceTruth.from_degrees(10.77, 5000.0),)
    ratio = (
        crb(far, ArrayConfig(32, 0.5, 2.0), 500, 0.1).angle_variance[0]
        / crb(far, ArrayConfig(32, 0.5, 1.0), 500, 0.1).angle_variance[0]
    )
    assert ratio == pytest.approx(0.25, rel=0.10), f"aperture gain ratio {ratio:.4f}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s"
    report(
        "criterion 6: CRB self-consistency",
        elapsed,
        f"FD mismatch {worst_fd:.1e}, exact 1/N scaling, aperture ratio {ratio:.3f}",
    )


def test_criterion_7_determinism(tmp_path):
    start = time.perf_counter()
    scen = Scenario(sources=FAR_SOURCES, snapshots=200, snr_db=5.0, seed=77)
    camp = Campaign(scenario=scen, sweep="snr_db", values=(0.0, 10.0), trials=6)
    out1 = tmp_path / "threads1"
    out4 = tmp_path / "threads4"
    run_campaign(camp, out_dir=out1, threads=1)
    run_campaign(camp, out_dir=out4, threads=4)
    for name in ("rmse.csv", "trial_errors.csv"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes(), name
    elapsed = time.perf_counter() - start
    report(
        "criterion 7: determinism",
        elapsed,
        "byte-identical CSVs across thread counts at a fixed seed",
    )
