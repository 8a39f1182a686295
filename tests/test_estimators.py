import itertools
import os
import sys
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import CPUS, ProcessLog, clear_steering_caches
from sfas import estimators, harness
from sfas.coupling import CouplingModel
from sfas.estimators import (
    _CACHED_LATTICES,
    _QUADRATIC_BASIS,
    _QUADRATIC_PINV,
    _SUBLATTICE_STRIDE,
    DegenerateSubspaceError,
    EstimatorSettings,
    SpectrumGrid,
    UnderResolutionError,
    baseline_ff_music,
    decompose,
    find_spectrum_peaks,
    mc_music_refine,
    mc_music_spectrum,
    oracle_2d_music,
    pair_estimates,
    stage1_music,
    stage2_range_search,
    stage2_refine,
    two_stage_localize,
    _GridCost,
    _Lattice,
    _around,
    _mc_cost,
    _min_eigenvalues_3x3,
    _on_mesh,
    _plain_cost,
    _search_passes,
    _stack_min_eigenvalues,
    _subcell_offsets,
)
from sfas.geometry import (
    ArrayConfig,
    SourceTruth,
    array_center,
    esg_manifold_centered,
    ff_manifold,
)
from sfas.harness import Campaign, run_campaign, run_single_shot
from sfas.simulate import (
    CovarianceEstimate,
    Scenario,
    generate_snapshots_baseline,
    generate_snapshots_compressed,
    generate_snapshots_extended,
    sample_covariance,
)

SETTINGS = EstimatorSettings()


def extended_decomp(scenario, include_coupling=False, trial=0):
    block = generate_snapshots_extended(scenario, include_coupling, trial)
    return decompose(sample_covariance(block), scenario.source_count), block


class TestDecompose:
    def test_identity_is_degenerate(self):
        cov = CovarianceEstimate(np.eye(4, dtype=complex), 10)
        with pytest.raises(DegenerateSubspaceError):
            decompose(cov, 1)

    def test_diagonal_split(self):
        cov = CovarianceEstimate(np.diag([10.0, 1.0, 1.0]).astype(complex), 10)
        dec = decompose(cov, 1)
        np.testing.assert_allclose(dec.eigenvalues, [10.0, 1.0, 1.0])
        # noise basis spans e2, e3
        proj = dec.noise_basis @ dec.noise_basis.conj().T
        expected = np.diag([0.0, 1.0, 1.0])
        np.testing.assert_allclose(proj, expected, atol=1e-12)

    def test_noiseless_rank_structure(self, noiseless_mixed_scenario):
        dec, _ = extended_decomp(noiseless_mixed_scenario)
        k = noiseless_mixed_scenario.source_count
        assert np.all(dec.eigenvalues[k:] < 1e-10 * dec.eigenvalues[0])

    def test_orthonormal_bases(self, mixed_scenario):
        dec, _ = extended_decomp(mixed_scenario)
        basis = np.hstack([dec.signal_basis, dec.noise_basis])
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(32)) < 1e-10
        cross = dec.signal_basis.conj().T @ dec.noise_basis
        assert np.linalg.norm(cross) < 1e-10

    def test_bad_source_count(self):
        cov = CovarianceEstimate(np.eye(4, dtype=complex), 10)
        with pytest.raises(ValueError):
            decompose(cov, 4)


class TestPeakPicking:
    def test_basic_peaks(self):
        axis = np.arange(0.0, 10.0, 0.5)
        values = np.zeros_like(axis)
        values[4] = 3.0
        values[12] = 5.0
        np.testing.assert_allclose(
            find_spectrum_peaks(axis, values, 2, min_separation=1.0), [2.0, 6.0]
        )

    def test_sidelobe_suppression(self):
        axis = np.arange(0.0, 5.0, 0.1)
        values = np.zeros_like(axis)
        values[10] = 5.0
        values[14] = 4.0  # within 1.0 of the first peak: suppressed
        values[30] = 3.0
        peaks = find_spectrum_peaks(axis, values, 2, min_separation=1.0)
        np.testing.assert_allclose(peaks, [1.0, 3.0])

    def test_under_resolution_carries_peaks(self):
        axis = np.arange(0.0, 5.0, 0.1)
        values = np.zeros_like(axis)
        values[20] = 1.0
        with pytest.raises(UnderResolutionError) as exc:
            find_spectrum_peaks(axis, values, 3, min_separation=1.0)
        np.testing.assert_allclose(exc.value.peaks_found, [2.0])

    def test_tie_breaks_toward_smaller_axis(self):
        axis = np.arange(0.0, 5.0, 0.1)
        values = np.zeros_like(axis)
        values[10] = 2.0
        values[40] = 2.0
        peaks = find_spectrum_peaks(axis, values, 1, min_separation=1.0)
        np.testing.assert_allclose(peaks, [1.0])


class TestStage1:
    def test_on_grid_single_source_exact(self):
        scen = Scenario(
            sources=(SourceTruth.from_degrees(10.0, 1e6),),
            snapshots=64,
            snr_db=float("inf"),
            seed=4,
        )
        block = generate_snapshots_compressed(scen)
        _, coarse = stage1_music(block, 2, 1)
        assert coarse[0] == 10.0

    def test_mixed_scenario_four_distinct_peaks(self, noiseless_mixed_scenario):
        block = generate_snapshots_compressed(noiseless_mixed_scenario)
        spectrum, coarse = stage1_music(block, 2, 4)
        assert len(np.unique(coarse)) == 4
        errors = pair_estimates(coarse, [-40.0, -20.0, 10.0, 30.0]).angle_errors
        assert np.max(np.abs(errors)) < 1.0
        assert isinstance(spectrum, SpectrumGrid)

    def test_conventional_half_wavelength_fails_mixed(self, mixed_scenario):
        # the same four sources through a fixed d = 0.5 wl array and plain
        # far-field MUSIC: near-field mismatch displaces or merges peaks
        block = generate_snapshots_baseline(mixed_scenario)
        grid = baseline_ff_music(block, 4)
        try:
            peaks = find_spectrum_peaks(grid.axes[0], grid.values, 4)
            errors = pair_estimates(peaks, [-40.0, -20.0, 10.0, 30.0]).angle_errors
            assert np.max(np.abs(errors)) > 1.0
        except UnderResolutionError:
            pass

    def test_trim_too_large(self, mixed_scenario):
        block = generate_snapshots_compressed(mixed_scenario)
        with pytest.raises(ValueError):
            stage1_music(block, 14, 4)


class TestStage2:
    def test_range_peak_within_one_cell(self):
        scen = Scenario(
            sources=(SourceTruth.from_degrees(10.0, 30.0),),
            snapshots=64,
            snr_db=float("inf"),
            seed=4,
        )
        dec, _ = extended_decomp(scen)
        grid = SETTINGS.range_grid()
        result = stage2_range_search(dec, 10.0, grid, scen.config_extended)
        idx = int(np.argmin(np.abs(grid - result.initial_range)))
        true_idx = int(np.argmin(np.abs(grid - 30.0)))
        assert abs(idx - true_idx) <= 1
        assert not result.flat_spectrum

    def test_far_source_flat_or_close(self, noiseless_mixed_scenario):
        dec, _ = extended_decomp(noiseless_mixed_scenario)
        result = stage2_range_search(
            dec, 30.0, SETTINGS.range_grid(), noiseless_mixed_scenario.config_extended
        )
        assert result.flat_spectrum or abs(result.initial_range - 5000.0) < 0.25 * 5000.0

    def test_refine_recovers_on_grid_truth(self):
        scen = Scenario(
            sources=(SourceTruth.from_degrees(10.0, 30.0),),
            snapshots=64,
            snr_db=float("inf"),
            seed=4,
        )
        dec, _ = extended_decomp(scen)
        refined = stage2_refine(dec, 10.0, 30.0, scen.config_extended, SETTINGS)
        assert abs(refined.angle_deg - 10.0) < SETTINGS.pass2_angle_step_deg
        assert abs(refined.range_wl - 30.0) < SETTINGS.pass2_range_fraction * 30.0

    def test_window_contract_always_holds(self, mixed_scenario):
        dec, _ = extended_decomp(mixed_scenario)
        for coarse, init in [(-40.0, 28.0), (10.0, 900.0), (29.5, 4000.0)]:
            refined = stage2_refine(dec, coarse, init, mixed_scenario.config_extended, SETTINGS)
            assert abs(refined.angle_deg - coarse) <= SETTINGS.window_angle_deg + 1e-12
            assert abs(refined.range_wl - init) <= SETTINGS.window_range_fraction * init + 1e-9

    @pytest.mark.filterwarnings("ignore:refined estimate.*search-window edge:RuntimeWarning")
    @hyp_settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_refined_angle_stops_at_endfire(self, data):
        # a source within one window of endfire: no refined angle beyond
        # +-90 deg, plain or coupling-robust, and the window still holds
        truth = data.draw(st.sampled_from((-1.0, 1.0))) * data.draw(st.floats(87.5, 89.9))
        distance = data.draw(st.floats(20.0, 200.0))
        scen = Scenario(
            sources=(SourceTruth.from_degrees(truth, distance),),
            snapshots=200,
            snr_db=data.draw(st.sampled_from((0.0, 10.0, 30.0))),
            seed=data.draw(st.integers(0, 2**32 - 1)),
        )
        dec, _ = extended_decomp(scen)
        coarse = float(np.clip(truth + data.draw(st.floats(-0.3, 0.3)), -90.0, 90.0))
        initial = distance * data.draw(st.floats(0.8, 1.25))
        band = data.draw(st.sampled_from((None, 2)))
        config = scen.config_extended
        refined = (
            stage2_refine(dec, coarse, initial, config, SETTINGS) if band is None
            else mc_music_refine(dec, coarse, initial, band, config, SETTINGS)
        )
        assert -90.0 <= refined.angle_deg <= 90.0
        assert abs(refined.angle_deg - coarse) <= SETTINGS.window_angle_deg + 1e-12
        assert abs(refined.range_wl - initial) <= SETTINGS.window_range_fraction * initial + 1e-9

    def test_boundary_hit_warns(self):
        scen = Scenario(
            sources=(SourceTruth.from_degrees(10.0, 30.0),),
            snapshots=64,
            snr_db=float("inf"),
            seed=4,
        )
        dec, _ = extended_decomp(scen)
        tiny = EstimatorSettings(
            window_angle_deg=0.02, window_range_fraction=0.001,
            pass1_angle_step_deg=0.01, pass1_range_fraction=0.0005, pass2_range_fraction=0.0005,
        )
        with pytest.warns(RuntimeWarning, match="window"):
            refined = stage2_refine(dec, 10.2, 30.0, scen.config_extended, tiny)
        assert refined.boundary_hit

    def test_noise_subspace_orthogonality_both_stages(self, noiseless_mixed_scenario):
        scen = noiseless_mixed_scenario
        dec_e, _ = extended_decomp(scen)
        for src in scen.sources:
            vec = esg_manifold_centered(
                np.array([src.angle]), np.array([src.range]), scen.config_extended
            )[:, 0]
            denom = np.linalg.norm(dec_e.noise_basis.conj().T @ vec) ** 2
            assert denom < 1e-10 * np.linalg.norm(vec) ** 2

    def test_stage1_orthogonality_on_planar_model_data(self):
        # data built from the planar model with Hermitian coupling: after
        # central-subarray selection the coupling collapses to per-source
        # scalars, so the noise subspace is exactly orthogonal to the
        # central far-field manifold rows at the true angles
        from sfas.coupling import coupling_matrix

        cfg = ArrayConfig(32, 0.5, 0.2)
        angles = np.deg2rad([-40.0, -20.0, 10.0, 30.0])
        trim, m, n = 2, 32, 400
        cpl = coupling_matrix(cfg, CouplingModel(band=2))
        channel = cpl @ ff_manifold(angles, cfg)
        rng = np.random.default_rng(14)
        signals = (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))) / np.sqrt(2)
        data = channel @ signals
        cov = (data @ data.conj().T / n)[trim : m - trim, trim : m - trim]
        dec = decompose(CovarianceEstimate(cov, n), 4)
        central = ff_manifold(angles, cfg)[trim : m - trim, :]
        for k in range(4):
            vec = central[:, k]
            denom = np.linalg.norm(dec.noise_basis.conj().T @ vec) ** 2
            assert denom < 1e-10 * np.linalg.norm(vec) ** 2

    def test_refine_patch_shape_near_vs_far(self, noiseless_mixed_scenario):
        # the exported pass-1 patches: the near-field spot is peaked along
        # both axes; the far-field ridge stays sharp in angle but nearly
        # flat along range
        bundle = run_single_shot(noiseless_mixed_scenario)
        assert bundle.estimate.coarse_angles_deg[[0, -1]] == pytest.approx([-40.0, 30.0], abs=0.1)
        near, far = bundle.refine_spectra[0], bundle.refine_spectra[-1]

        def axis_contrast(spectrum):
            i, j = np.unravel_index(np.argmax(spectrum.values), spectrum.values.shape)
            angle_cut = spectrum.values[:, j]
            range_cut = spectrum.values[i, :]
            return (
                angle_cut.max() / np.median(angle_cut),
                range_cut.max() / np.median(range_cut),
            )

        near_angle, near_range = axis_contrast(near)
        far_angle, far_range = axis_contrast(far)
        assert near_angle > 10.0 and near_range > 10.0
        assert far_angle > 10.0
        assert far_range < near_range


class TestQuadraticFit:
    @hyp_settings(max_examples=200, deadline=None)
    @given(patch=st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9))
    def test_pseudo_inverse_fit_is_lstsq(self, patch):
        """The constant pseudo-inverse gives the least-squares coefficients
        of any 3x3 patch, to rounding."""
        values = np.array(patch)
        fit = _QUADRATIC_PINV @ values
        oracle, *_ = np.linalg.lstsq(_QUADRATIC_BASIS, values, rcond=None)
        np.testing.assert_allclose(fit, oracle, rtol=0, atol=1e-13 * max(1.0, abs(values).max()))


def draw_refine_window(data, band):
    """A drawn scene of 1-3 sources with symmetric extended coupling of
    `band` (none for None), its extended decomposition and array config,
    and a refinement seed (coarse angle, initial range) near one source."""
    m = data.draw(st.sampled_from((12, 16, 32)), "elements")
    k = data.draw(st.integers(1, 3), "sources")
    angles = np.sort(data.draw(st.lists(
        st.floats(-60.0, 60.0), min_size=k, max_size=k,
        unique_by=lambda a: round(a / 8.0)), "angles"))
    extended = ArrayConfig(m, 0.5, 2.0)
    near = 1.5 * array_center(extended)
    ranges = [data.draw(st.floats(near, 3000.0), "range") for _ in range(k)]
    scen = Scenario(
        sources=tuple(SourceTruth.from_degrees(a, r) for a, r in zip(angles, ranges)),
        config_compressed=ArrayConfig(m, 0.5, 0.2),
        config_extended=extended,
        coupling=CouplingModel(band=1),
        coupling_extended=None if band is None else CouplingModel(0.3, 1.0, 0.0, band, True),
        snapshots=data.draw(st.integers(50, 500), "snapshots"),
        snr_db=data.draw(st.sampled_from((-5.0, 5.0, 20.0, float("inf"))), "snr_db"),
        seed=data.draw(st.integers(0, 2**32 - 1), "seed"),
    )
    dec, block = extended_decomp(scen, include_coupling=band is not None)
    src = data.draw(st.integers(0, k - 1), "window source")
    coarse = angles[src] + data.draw(st.floats(-1.0, 1.0), "angle offset")
    initial = ranges[src] * data.draw(st.floats(0.8, 1.25), "range factor")
    return dec, block.config, coarse, initial


def full_grid_argmin(cost, angles_deg, ranges):
    """Every cell of one pass lattice and the `np.argmin` cell: the search
    the sparse lattice search replaces."""
    values = _on_mesh(cost, np.deg2rad(angles_deg), ranges)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    return values, (int(i), int(j))


def lattice_local_minima(values):
    """Cells that are the least, by (value, row, column), of their 3x3
    neighbourhood on the lattice."""
    n_a, n_r = values.shape
    padded = np.pad(values, 1, constant_values=np.inf)
    minimum = np.ones(values.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) == (0, 0):
                continue
            other = padded[1 + di : 1 + di + n_a, 1 + dj : 1 + dj + n_r]
            # a neighbour earlier in row-major order wins a tie
            minimum &= values < other if (di, dj) < (0, 0) else values <= other
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(minimum))}


def sublattice_minimum(values, stride=_SUBLATTICE_STRIDE):
    rows = np.union1d(np.arange(0, values.shape[0], stride), [values.shape[0] - 1])
    cols = np.union1d(np.arange(0, values.shape[1], stride), [values.shape[1] - 1])
    return values[np.ix_(rows, cols)].min()


def assert_full_grid_cell(values, cell, full_cell, floor):
    """The sparse cell is the full-grid argmin; where the lattice holds more
    than one local minimum it is at least one of them, no worse than
    `floor` (the sub-lattice minimum in pass 1, the start in pass 2)."""
    minima = lattice_local_minima(values)
    if len(minima) == 1:
        assert cell == full_cell
    else:
        assert cell in minima
        assert values[cell] <= floor


class TestSparseRefinement:
    """The sparse lattice search against the full-grid search it replaces."""

    @hyp_settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_full_grid_argmin_in_both_passes(self, data):
        band = data.draw(st.sampled_from((None, 1, 2)), "mc_band")
        dec, config, coarse, initial = draw_refine_window(data, band)
        m = config.element_count
        cost = _plain_cost(dec, config) if band is None else _mc_cost(dec, band, config)

        pass1, cell1, pass2, cell2 = _search_passes(cost, coarse, initial, SETTINGS)
        values1, full1 = full_grid_argmin(cost, pass1.angles_deg, pass1.ranges)
        assert_full_grid_cell(values1, cell1, full1, sublattice_minimum(values1))
        values2, full2 = full_grid_argmin(cost, pass2.angles_deg, pass2.ranges)
        # pass 2 descends from the cell nearest the vertex fitted to the
        # pass-1 patch
        da, dr = _subcell_offsets(pass1.values, *cell1)
        angle1, range1 = pass1.angles_deg[cell1[0]], pass1.ranges[cell1[1]]
        vertex = (
            angle1 + SETTINGS.pass1_angle_step_deg * da,
            range1 + SETTINGS.pass1_range_fraction * initial * dr,
        )
        axes2 = (pass2.angles_deg, pass2.ranges)
        warm = tuple(int(np.argmin(np.abs(axis - x))) for axis, x in zip(axes2, vertex))
        assert_full_grid_cell(values2, cell2, full2, values2[warm])
        # from the cell nearest the pass-1 cell, the start it replaced, the
        # descent ends on the same cell wherever the lattice holds one local
        # minimum (where it holds more, either start may end on either)
        cold = tuple(int(np.argmin(np.abs(axis - x))) for axis, x in zip(axes2, (angle1, range1)))
        if len(lattice_local_minima(values2)) == 1:
            assert _Lattice(cost, pass2.angles_deg, pass2.ranges).descend(*cold) == cell2
        # every value the sparse search read is the full-grid value, up to
        # rounding on the scale of the column energy M
        seen = ~np.isnan(pass2.values)
        np.testing.assert_allclose(pass2.values[seen], values2[seen], rtol=0.0, atol=1e-12 * m)

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    def test_walk_follows_a_valley_between_lattice_directions(self, mixed_scenario, snr_db):
        # trial 4 of the mixed scene: the pass-2 valley of the 30 wl source
        # runs between the lattice directions, and a walk that stops at a
        # 3x3 minimum ends two cells short of the full-grid argmin
        scen = mixed_scenario.with_snr(snr_db)
        _, coarse = stage1_music(generate_snapshots_compressed(scen, 4), 2, 4)
        dec, block = extended_decomp(scen, trial=4)
        cost = _plain_cost(dec, block.config)
        search = stage2_range_search(dec, coarse[0], SETTINGS.range_grid(), block.config)
        pass1, cell1, pass2, cell2 = _search_passes(cost, coarse[0], search.initial_range, SETTINGS)
        assert cell1 == full_grid_argmin(cost, pass1.angles_deg, pass1.ranges)[1]
        assert cell2 == full_grid_argmin(cost, pass2.angles_deg, pass2.ranges)[1]


class RecordingCost:
    """A lattice cost read from a table, keeping every batch it is asked for."""

    def __init__(self, table):
        self.table = table
        self.batches = []

    def cells(self, angles_deg, ranges, rows, cols):
        self.batches.append((rows.dtype.str, rows.tolist(), cols.dtype.str, cols.tolist()))
        return self.table[rows, cols]


def meshgrid_best(lattice, rows, cols):
    """`_Lattice.best` as it was written with `np.meshgrid`: the oracle."""
    ii, jj = np.meshgrid(rows, cols, indexing="ij")
    new = np.isnan(lattice.values[ii, jj])
    if new.any():
        i, j = ii[new], jj[new]
        lattice.values[i, j] = lattice._cost.cells(lattice.angles_deg, lattice.ranges, i, j)
    k, m = divmod(int(np.argmin(lattice.values[ii, jj])), len(cols))
    return int(rows[k]), int(cols[m])


class TestLatticeStep:
    @hyp_settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_step_matches_meshgrid_oracle(self, data):
        # few distinct values make ties, which argmin must break the same way
        n_a, n_r = data.draw(st.integers(1, 30), "angles"), data.draw(st.integers(1, 30), "ranges")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        levels = data.draw(st.sampled_from((2, 5, 1000)), "levels")
        table = rng.integers(0, levels, (n_a, n_r)) / levels
        axes = (np.linspace(-30.0, 30.0, n_a), np.linspace(100.0, 200.0, n_r))
        fast, slow = _Lattice(RecordingCost(table), *axes), _Lattice(RecordingCost(table), *axes)
        s = _SUBLATTICE_STRIDE

        def indices(size, label):
            kind = data.draw(st.sampled_from(("around", "stride", "subset")), label)
            if kind == "around":
                centre = data.draw(st.integers(0, size - 1), label)
                return _around(centre, size, data.draw(st.sampled_from((1, 2, s)), label))
            if kind == "stride":
                return np.union1d(np.arange(0, size, s), [size - 1])
            return np.array(sorted(data.draw(st.sets(
                st.integers(0, size - 1), min_size=1, max_size=size), label)))

        for _ in range(data.draw(st.integers(1, 8), "steps")):
            rows, cols = indices(n_a, "rows"), indices(n_r, "cols")
            assert fast.best(rows, cols) == meshgrid_best(slow, rows, cols)
            assert fast.values.tobytes() == slow.values.tobytes()
        assert fast._cost.batches == slow._cost.batches


class TestMcMusic:
    def test_positive_away_from_sources(self, coupled_extended_scenario):
        dec, _ = extended_decomp(coupled_extended_scenario, include_coupling=True)
        val = mc_music_spectrum(dec, -55.0, 77.0, 2, coupled_extended_scenario.config_extended)
        assert np.isfinite(val) and val > 0.0

    def test_rank_deficiency_at_truth(self, coupled_extended_scenario):
        scen = coupled_extended_scenario
        dec, _ = extended_decomp(scen, include_coupling=True)
        from sfas.estimators import _mc_transform_batch

        for src in scen.sources:
            man = esg_manifold_centered(
                np.array([src.angle]), np.array([src.range]), scen.config_extended
            )
            t = _mc_transform_batch(man, 2)[0]
            q = t.conj().T @ dec.noise_basis @ dec.noise_basis.conj().T @ t
            lam = np.linalg.eigvalsh(q).real
            assert lam[0] / lam[-1] < 1e-8

    def test_uncoupled_matches_plain_argmax(self):
        scen = Scenario(
            sources=(SourceTruth.from_degrees(-20.66, 30.0),),
            coupling=CouplingModel(band=2),
            snapshots=200,
            snr_db=float("inf"),
            seed=12,
        )
        dec, _ = extended_decomp(scen)
        plain = stage2_refine(dec, -20.7, 31.0, scen.config_extended, SETTINGS)
        robust = mc_music_refine(dec, -20.7, 31.0, 2, scen.config_extended, SETTINGS)
        assert abs(plain.angle_deg - robust.angle_deg) <= SETTINGS.pass2_angle_step_deg
        assert abs(plain.range_wl - robust.range_wl) <= 0.002 * 31.0

    def test_coupled_bias_removed(self, coupled_extended_scenario):
        scen = coupled_extended_scenario
        block_c = generate_snapshots_compressed(scen)
        block_e = generate_snapshots_extended(scen, include_coupling=True)
        plain = two_stage_localize(block_c, block_e, 2, 2, SETTINGS)
        robust = two_stage_localize(block_c, block_e, 2, 2, SETTINGS, mc_band=2)
        truth = np.array([s.angle_deg for s in scen.sources])
        err_plain = np.abs(pair_estimates(plain.refined_angles_deg, truth).angle_errors)
        err_robust = np.abs(pair_estimates(robust.refined_angles_deg, truth).angle_errors)
        assert np.max(err_robust) < SETTINGS.pass2_angle_step_deg
        assert np.max(err_plain) > np.max(err_robust)

    def test_window_contract(self, coupled_extended_scenario):
        scen = coupled_extended_scenario
        dec, _ = extended_decomp(scen, include_coupling=True)
        refined = mc_music_refine(dec, 10.5, 180.0, 2, scen.config_extended, SETTINGS)
        assert abs(refined.angle_deg - 10.5) <= SETTINGS.window_angle_deg
        assert abs(refined.range_wl - 180.0) <= SETTINGS.window_range_fraction * 180.0

    @hyp_settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_stacked_kernel_matches_einsum_oracle(self, data):
        """The stacked-product kernel gives the smallest eigenvalue of the
        einsum over the explicit transform T, for any orthonormal noise basis
        and for random as well as exact-geometry columns."""
        from sfas.estimators import _mc_min_eigenvalues, _mc_noise_stack, _mc_transform_batch

        m = data.draw(st.integers(6, 40))
        k = data.draw(st.integers(1, m - 1))
        band = data.draw(st.integers(1, min(3, m - 1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cols = data.draw(st.integers(1, 24))
        square = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        noise = np.linalg.qr(square)[0][:, k:]
        if data.draw(st.booleans()):
            manifold = rng.standard_normal((m, cols)) + 1j * rng.standard_normal((m, cols))
        else:
            config = ArrayConfig(m, 0.5, data.draw(st.sampled_from([0.2, 1.0, 2.0])))
            angles = np.deg2rad(rng.uniform(-89.0, 89.0, cols))
            manifold = esg_manifold_centered(angles, rng.uniform(m, 1e4, cols), config)

        t = _mc_transform_batch(manifold, band)
        proj = np.einsum("mn,gmp->gnp", noise.conj(), t)
        lam = np.linalg.eigvalsh(np.einsum("gnp,gnq->gpq", proj.conj(), proj))
        fast = _mc_min_eigenvalues(_mc_noise_stack(noise, band), manifold, band)
        assert fast.shape == (cols,)
        assert np.all(np.abs(fast - lam[:, 0]) <= 1e-12 * lam[:, -1])

    @hyp_settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_closed_form_near_repeated_eigenvalues(self, data):
        """The 3 x 3 closed form on Grams X diag(lam) X^H whose two smallest
        or two largest eigenvalues (nearly) meet, or whose smallest is about
        0, against `eigvalsh` of the same Gram, to the oracle tolerance."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cells = data.draw(st.integers(1, 24))
        n = data.draw(st.integers(3, 30))
        gap = data.draw(st.just(0.0) | st.floats(-15.0, -1.0).map(lambda e: 10.0**e))
        kind = data.draw(st.sampled_from(("smallest meet", "largest meet", "smallest zero")))
        spread = gap * rng.uniform(0.5, 2.0, cells)
        if kind == "smallest meet":
            low = rng.uniform(0.0, 0.5, cells)
            lam = np.stack([low, low + spread, np.ones(cells)], axis=1)
        elif kind == "largest meet":
            lam = np.stack([rng.uniform(0.0, 0.99, cells), 1.0 - spread, np.ones(cells)], axis=1)
        else:
            lam = np.stack([spread, rng.uniform(0.0, 1.0, cells), np.ones(cells)], axis=1)
        lam *= 10.0 ** rng.uniform(-3.0, 3.0, (cells, 1))

        def orthonormal(rows):
            z = rng.standard_normal((cells, rows, 3)) + 1j * rng.standard_normal((cells, rows, 3))
            return np.linalg.qr(z)[0]

        # proj[:, :, g]^T = Q sqrt(lam) X^H, so the Gram is X diag(lam) X^H
        x, q = orthonormal(3), orthonormal(n)
        w = q @ (np.sqrt(lam)[:, :, None] * x.conj().transpose(0, 2, 1))
        proj = np.ascontiguousarray(w.transpose(2, 1, 0))
        oracle = np.linalg.eigvalsh(np.einsum("ing,jng->gij", proj.conj(), proj))
        fast = _min_eigenvalues_3x3(proj)
        assert np.all(np.abs(fast - oracle[:, 0]) <= 1e-12 * oracle[:, -1])

    @hyp_settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_closed_form_leaves_refinement_cells(self, data):
        """Band 2 searches end on the same pass-1 and pass-2 cells with the
        closed form as with `eigvalsh` in its place."""
        dec, config, coarse, initial = draw_refine_window(data, 2)

        def cells():
            _, cell1, _, cell2 = _search_passes(_mc_cost(dec, 2, config), coarse, initial, SETTINGS)
            return cell1, cell2

        fast = cells()
        with mock.patch.object(estimators, "_min_eigenvalues_3x3", _stack_min_eigenvalues):
            assert cells() == fast

    def test_band_must_be_whole(self, coupled_extended_scenario):
        # 2.0 used to fail inside the transform, and True ran as band 1
        dec, _ = extended_decomp(coupled_extended_scenario, include_coupling=True)
        config = coupled_extended_scenario.config_extended
        for band in (2.0, np.float64(2.0), True):
            with pytest.raises(ValueError, match="band"):
                mc_music_refine(dec, 10.5, 180.0, band, config, SETTINGS)

    def test_band_must_be_positive(self, coupled_extended_scenario):
        dec, _ = extended_decomp(coupled_extended_scenario, include_coupling=True)
        config = coupled_extended_scenario.config_extended
        for band in (0, config.element_count):
            with pytest.raises(ValueError):
                mc_music_spectrum(dec, 0.0, 100.0, band, config)


class TestBaselineMusic:
    def test_far_field_only_peaks_at_truth(self):
        scen = Scenario(
            sources=(
                SourceTruth.from_degrees(-20.7, 5e4),
                SourceTruth.from_degrees(10.8, 6e4),
            ),
            snapshots=500,
            snr_db=20.0,
            seed=6,
        )
        grid = baseline_ff_music(generate_snapshots_baseline(scen), 2)
        peaks = find_spectrum_peaks(grid.axes[0], grid.values, 2)
        errors = pair_estimates(peaks, [-20.7, 10.8]).angle_errors
        assert np.max(np.abs(errors)) <= 0.1

    def test_single_broadside_source(self):
        scen = Scenario(
            sources=(SourceTruth.from_degrees(0.0, 1e5),),
            snapshots=100,
            snr_db=float("inf"),
            seed=6,
        )
        grid = baseline_ff_music(generate_snapshots_baseline(scen), 1)
        peaks = find_spectrum_peaks(grid.axes[0], grid.values, 1)
        assert peaks[0] == 0.0


class TestOracle:
    def test_recovers_truth_to_grid_resolution(self):
        range_grid = SETTINGS.range_grid()
        scen = Scenario(
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
        block = generate_snapshots_extended(scen)
        pairs, spectrum = oracle_2d_music(block, 2)
        assert spectrum.values.shape == (1801, 200)
        for (ang, rng), src in zip(pairs, scen.sources):
            assert abs(ang - src.angle_deg) <= 0.1
            assert abs(rng - src.range) / src.range <= 0.05

    def test_single_source_global_max(self):
        scen = Scenario(
            sources=(SourceTruth.from_degrees(5.0, 100.0),),
            config_compressed=ArrayConfig(8, 0.5, 0.2),
            config_extended=ArrayConfig(8, 0.5, 2.0),
            snapshots=16,
            snr_db=float("inf"),
            seed=10,
        )
        block = generate_snapshots_extended(scen)
        pairs, spectrum = oracle_2d_music(block, 1)
        i, j = np.unravel_index(np.argmax(spectrum.values), spectrum.values.shape)
        assert pairs[0] == (spectrum.axes[0][i], spectrum.axes[1][j])

    def test_two_stage_matches_oracle_cells(self):
        # noiseless small instance: both routes pick the same maximizing cell
        range_grid = SETTINGS.range_grid()
        scen = Scenario(
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
        block_c = generate_snapshots_compressed(scen)
        block_e = generate_snapshots_extended(scen)
        est = two_stage_localize(block_c, block_e, 2, 2, SETTINGS)
        pairs, _ = oracle_2d_music(block_e, 2)
        angle_grid = SETTINGS.angle_grid_deg()
        for src, (o_ang, o_rng) in zip(est.sources, pairs):
            ang_cell = angle_grid[np.argmin(np.abs(angle_grid - src.refined_angle_deg))]
            rng_cell = range_grid[np.argmin(np.abs(range_grid - src.refined_range))]
            assert ang_cell == o_ang
            assert rng_cell == o_rng


class TestCovarianceInput:
    """Every estimator reads a block only through its sample covariance, so
    that covariance, which carries the block's array config, in place of
    the block gives the same bytes."""

    @pytest.mark.parametrize("mc_band", [None, 2])
    def test_two_stage_on_covariances_is_two_stage_on_blocks(
        self, coupled_extended_scenario, mc_band
    ):
        scen = coupled_extended_scenario.with_snr(10.0)
        block_c = generate_snapshots_compressed(scen, 1)
        block_e = generate_snapshots_extended(scen, True, 1)
        runs = []
        covariances = (sample_covariance(block_c), sample_covariance(block_e))
        for inputs in ((block_c, block_e), covariances):
            spectra = estimators._Spectra()
            est = two_stage_localize(*inputs, 2, 2, SETTINGS, mc_band, spectra)
            grids = [spectra.stage1, *spectra.range_scans, *spectra.refine_patches]
            runs.append((est, [g.values.tobytes() for g in grids]))
        assert runs[0] == runs[1]
        assert covariances[1].config == block_e.config
        peaks = [stage1_music(b, 2, 2)[1].tobytes() for b in (block_c, sample_covariance(block_c))]
        assert peaks[0] == peaks[1]

    def test_baseline_and_oracle_on_covariances(self, mixed_scenario):
        scen = replace(mixed_scenario, snapshots=60)
        block_b = generate_snapshots_baseline(scen, 2)
        assert (
            baseline_ff_music(sample_covariance(block_b), 4).values.tobytes()
            == baseline_ff_music(block_b, 4).values.tobytes()
        )
        block_e = generate_snapshots_extended(scen, False, 2)
        coarse = dict(angle_grid_deg=np.arange(-60.0, 60.5, 0.5),
                      range_grid=np.geomspace(20.0, 6000.0, 40))
        pairs, grid = oracle_2d_music(sample_covariance(block_e), 4, **coarse)
        pairs_b, grid_b = oracle_2d_music(block_e, 4, **coarse)
        assert pairs == pairs_b and grid.values.tobytes() == grid_b.values.tobytes()


class TestPairing:
    def test_identity(self):
        res = pair_estimates([1.0, 2.0], [1.0, 2.0], [10.0, 20.0], [10.0, 20.0])
        np.testing.assert_array_equal(res.assignment, [0, 1])
        np.testing.assert_array_equal(res.angle_errors, [0.0, 0.0])
        np.testing.assert_array_equal(res.range_errors, [0.0, 0.0])

    def test_swap_recovered(self):
        res = pair_estimates([2.0, 1.0], [1.0, 2.0])
        np.testing.assert_array_equal(res.assignment, [1, 0])
        np.testing.assert_array_equal(res.angle_errors, [0.0, 0.0])

    def test_small_perturbations_never_misassign(self):
        rng = np.random.default_rng(21)
        truth = np.array([-40.0, -20.0, 10.0, 30.0])
        half_min_sep = np.min(np.diff(np.sort(truth))) / 2.0
        for _ in range(1000):
            noise = rng.uniform(-1.0, 1.0, 4) * (half_min_sep * 0.999)
            shuffled = rng.permutation(4)
            res = pair_estimates((truth + noise)[shuffled], truth)
            np.testing.assert_allclose(res.angle_errors, noise, atol=1e-12)

    def test_rmse_permutation_invariant(self):
        rng = np.random.default_rng(22)
        truth = np.array([-30.0, 0.0, 25.0])
        est = truth + rng.normal(0, 0.3, 3)
        base = np.sqrt(np.mean(pair_estimates(est, truth).angle_errors ** 2))
        for _ in range(10):
            p = rng.permutation(3)
            q = rng.permutation(3)
            rmse = np.sqrt(np.mean(pair_estimates(est[p], truth[q]).angle_errors ** 2))
            assert rmse == pytest.approx(base, rel=1e-12)

    @hyp_settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_permutation_property(self, data):
        """The assignment is a permutation reaching the least total angular
        error; permuting the estimates permutes nothing in the errors
        whenever that optimum is unique, and never changes its total.  A
        unique optimum is scipy's assignment; a tied one is the sorted
        matching.  Small integer angles make ties common."""
        k = data.draw(st.integers(1, 5), "size")
        angles = data.draw(st.sampled_from([
            st.floats(-90.0, 90.0, allow_subnormal=False), st.integers(-3, 3).map(float),
        ]), "angle kind")
        truth = np.array(data.draw(st.lists(angles, min_size=k, max_size=k), "truth"))
        est = np.array(data.draw(st.lists(angles, min_size=k, max_size=k), "estimates"))
        ranges = np.arange(1.0, k + 1.0)
        res = pair_estimates(est, truth, 10.0 * ranges, ranges)
        assert sorted(res.assignment) == list(range(k))
        np.testing.assert_array_equal(res.angle_errors, est[res.assignment] - truth)
        np.testing.assert_array_equal(res.range_errors, 10.0 * ranges[res.assignment] - ranges)
        assert np.all(np.diff(est[res.assignment][np.argsort(truth, kind="stable")]) >= 0.0)

        costs = {p: np.abs(est[list(p)] - truth).sum() for p in itertools.permutations(range(k))}
        best = min(costs.values())
        assert np.abs(res.angle_errors).sum() == pytest.approx(best, rel=1e-12, abs=1e-12)
        unique = sum(c <= best + 1e-9 for c in costs.values()) == 1
        shuffle = np.array(data.draw(st.permutations(range(k)), "shuffle"))
        moved = pair_estimates(est[shuffle], truth)
        assert np.abs(moved.angle_errors).sum() == pytest.approx(best, rel=1e-12, abs=1e-12)
        if unique:
            np.testing.assert_array_equal(moved.angle_errors, res.angle_errors)
            np.testing.assert_array_equal(shuffle[moved.assignment], res.assignment)
            rows, cols = linear_sum_assignment(np.abs(est[:, None] - truth[None, :]))
            np.testing.assert_array_equal(res.assignment[cols], rows)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair_estimates([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, bad):
        for est, truth in (([1.0, bad], [1.0, 2.0]), ([1.0, 2.0], [bad, 2.0])):
            with pytest.raises(ValueError, match="finite"):
                pair_estimates(est, truth)


class TestSpectrumSanity:
    def test_positive_finite_under_noise(self, mixed_scenario):
        block_c = generate_snapshots_compressed(mixed_scenario)
        spectrum, _ = stage1_music(block_c, 2, 4)
        assert np.all(spectrum.values > 0)
        assert np.all(np.isfinite(spectrum.values))
        dec, _ = extended_decomp(mixed_scenario)
        result = stage2_range_search(
            dec, -40.0, SETTINGS.range_grid(), mixed_scenario.config_extended
        )
        assert np.all(result.spectrum.values > 0)
        assert np.all(np.isfinite(result.spectrum.values))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            SpectrumGrid((np.array([1.0, 0.5]),), ("x",), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            SpectrumGrid((np.array([0.0, 1.0]),), ("x",), np.array([1.0, np.inf]))

    @hyp_settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 40),
        rank=st.integers(1, 30),
        n=st.integers(2, 3) | st.integers(2, 2000),
        exponent=st.floats(-8.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noise_quadratic_is_einsum_bytes(self, m, rank, n, exponent, seed):
        """The MUSIC denominator is the einsum of the projection with its
        conjugate, byte for byte, for two or more columns (numpy sums a
        lone column pairwise; the next test bounds it)."""
        rng = np.random.default_rng(seed)
        shape = (m, n)
        basis_shape = (m, min(rank, m))
        basis = rng.standard_normal(basis_shape) + 1j * rng.standard_normal(basis_shape)
        manifold = 10.0**exponent * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        proj = basis.conj().T @ manifold
        oracle = np.einsum("ij,ij->j", proj.conj(), proj).real
        assert estimators._noise_quadratic(basis)(manifold).tobytes() == oracle.tobytes()

    @hyp_settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 40),
        rank=st.integers(1, 30),
        n=st.integers(1, 64),
        exponent=st.floats(-8.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=32, rank=28, n=1, exponent=0.0, seed=0)
    def test_noise_quadratic_matches_column_norms(self, m, rank, n, exponent, seed):
        """Every batch width, a lone column included, gives each column's
        ||U_n^H a||^2 to a few M eps of ||U_n||_F^2 ||a||^2, the scale
        whose rounding a length-M dot product and the sum of its squares
        are bounded by."""
        rng = np.random.default_rng(seed)
        basis_shape = (m, min(rank, m))
        basis = rng.standard_normal(basis_shape) + 1j * rng.standard_normal(basis_shape)
        manifold = 10.0**exponent * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        oracle = [np.linalg.norm(basis.conj().T @ column) ** 2 for column in manifold.T]
        scale = np.linalg.norm(basis) ** 2 * np.linalg.norm(manifold, axis=0) ** 2
        error = np.abs(estimators._noise_quadratic(basis)(manifold) - oracle)
        assert np.all(error <= 8 * m * np.finfo(float).eps * scale)


class TestLagSums:
    """The far-field scan's lag-sum denominator against the projection it
    replaces, `_noise_quadratic` on the manifold rows."""

    @hyp_settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lag_sum_cost_matches_noise_quadratic(self, data):
        size = data.draw(st.integers(4, 40), "M'")
        k = data.draw(st.integers(1, size - 1), "sources")
        trim = data.draw(st.integers(0, 4), "trim")
        config = ArrayConfig(size + 2 * trim, 0.5, data.draw(st.sampled_from((0.2, 0.5, 1.0))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        grid = estimators._step_grid(-90.0, 90.0, data.draw(st.sampled_from((0.1, 0.25, 1.0))))
        manifold = ff_manifold(np.deg2rad(grid), config)
        rows = manifold[trim : trim + size]
        # a signal subspace through on-grid sources, where the cost is ~0,
        # completed by random directions; the noise basis is its complement
        on_grid = rng.choice(len(grid), min(k, len(grid)), replace=False)
        spread = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        spread[:, : len(on_grid)] = rows[:, on_grid]
        noise = np.linalg.qr(spread)[0][:, k:]
        proj = noise @ noise.conj().T
        largest = max(abs(np.trace(proj, offset=lag)) for lag in range(size))
        tol = 8.0 * size**2 * np.finfo(float).eps * largest
        oracle = estimators._noise_quadratic(noise)(rows)
        np.testing.assert_allclose(
            estimators._lag_sum_cost(noise, manifold), oracle, rtol=0.0, atol=tol
        )
        assert np.all(oracle[on_grid] <= tol)

    @pytest.mark.parametrize("angles", [(-40.0, -20.0, 10.0, 30.0), (0.0,), (-63.2, 71.5)])
    def test_noiseless_on_grid_peaks_do_not_move(self, angles):
        scen = Scenario(
            sources=tuple(SourceTruth.from_degrees(a, 1e6) for a in angles),
            snapshots=200,
            snr_db=float("inf"),
            seed=11,
        )
        k, grid = len(angles), SETTINGS.angle_grid_deg()
        for block, trim in (
            (generate_snapshots_compressed(scen), 2),
            (generate_snapshots_baseline(scen), 0),
        ):
            scan = estimators._far_field_scan(block, trim, k, grid)
            m = block.config.element_count
            central = sample_covariance(block).matrix[trim : m - trim, trim : m - trim]
            noise = decompose(CovarianceEstimate(central, 200), k).noise_basis
            rows = ff_manifold(np.deg2rad(grid), block.config)[trim : m - trim]
            oracle = estimators._spectrum(estimators._noise_quadratic(noise)(rows))
            peaks = find_spectrum_peaks(grid, scan.values, k)
            assert peaks.tolist() == find_spectrum_peaks(grid, oracle, k).tolist()
            assert peaks.tolist() == sorted(angles)


class TestColumnCache:
    """Steering columns served from the cache are the bytes computed afresh."""

    @staticmethod
    def assert_one_column_per_cell(store, cells=()):
        """The memory bound: a store holds the columns of the cells it was
        asked for (`cells` among them) and no others."""
        assert store.columns.shape[1] == int((store.slots >= 0).sum())
        assert all(store.slots[cell] >= 0 for cell in cells)

    @hyp_settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_served_manifold_is_computed_manifold(self, data):
        # every lattice is asked for once, in turn, and then some again:
        # with more lattices than the cache holds, stores are evicted and
        # rebuilt, and two element counts share the cache
        clear_steering_caches()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        lattices = []
        for _ in range(_CACHED_LATTICES + data.draw(st.integers(1, 8), "extra lattices")):
            m = data.draw(st.sampled_from((4, 7)), "elements")
            config = ArrayConfig(m, 0.5, data.draw(st.sampled_from((0.2, 1.0, 2.0)), "scale"))
            n_a, n_r = data.draw(st.integers(1, 7), "angles"), data.draw(st.integers(1, 7), "ranges")
            lattices.append((
                config,
                np.sort(rng.uniform(-89.9, 89.9, n_a)),
                np.sort(rng.uniform(1.0, 1e4, n_r)),
            ))
        revisits = data.draw(st.lists(st.integers(0, len(lattices) - 1), max_size=20), "revisits")
        for k in [*range(len(lattices)), *revisits]:
            config, angles, ranges = lattices[k]
            cells = data.draw(st.lists(
                st.integers(0, len(angles) * len(ranges) - 1), min_size=1, unique=True
            ), "cells")
            rows, cols = np.divmod(np.array(cells), len(ranges))
            served = _GridCost(lambda manifold: manifold, config).cells(angles, ranges, rows, cols)
            fresh = esg_manifold_centered(np.deg2rad(angles[rows]), ranges[cols], config)
            assert served.flags["C_CONTIGUOUS"] and served.shape == fresh.shape
            assert served.tobytes() == fresh.tobytes()
            store = estimators._lattice_columns(config, angles.tobytes(), ranges.tobytes())
            self.assert_one_column_per_cell(store, zip(rows, cols))
        assert estimators._lattice_columns.cache_info().currsize == _CACHED_LATTICES

    @pytest.mark.parametrize("mc_band", [None, 2])
    def test_two_stage_same_uncached_cold_and_warm(self, coupled_extended_scenario, mc_band):
        scen = coupled_extended_scenario
        block_c = generate_snapshots_compressed(scen)
        block_e = generate_snapshots_extended(scen, include_coupling=True)

        def localize():
            return two_stage_localize(block_c, block_e, 2, 2, SETTINGS, mc_band)

        with mock.patch.object(
            _GridCost, "cells", lambda cost, a, r, rows, cols: cost(np.deg2rad(a[rows]), r[cols])
        ):
            uncached = localize()
        clear_steering_caches()
        cold = localize()
        assert estimators._lattice_columns.cache_info().currsize
        assert cold == uncached
        assert localize() == uncached

    def test_second_pass_of_mixed_trials_computes_no_exact_column(self, mixed_scenario):
        # 150 trials of the 4-source scene revisit 27 lattices holding
        # 4,144 columns: the cache keeps them all, so a second pass finds
        # every column it needs
        campaign = Campaign(scenario=mixed_scenario, trials=150, estimators=("two_stage",))
        clear_steering_caches()
        with mock.patch.object(
            estimators, "esg_manifold_centered", wraps=esg_manifold_centered
        ) as computed:
            run_campaign(campaign)
            assert computed.call_count > 0
            computed.reset_mock()
            run_campaign(campaign)
        assert computed.call_count == 0

    @staticmethod
    def count_columns(monkeypatch):
        """A list that gets the size of every batch of exact-geometry
        columns computed through `estimators.esg_manifold_centered` from now on."""
        counted = []

        def counting(angles_rad, ranges, config):
            counted.append(len(angles_rad))
            return esg_manifold_centered(angles_rad, ranges, config)

        monkeypatch.setattr(estimators, "esg_manifold_centered", counting)
        return counted

    def test_cold_campaign_columns_do_not_depend_on_threads(
        self, mixed_scenario, monkeypatch, tmp_path
    ):
        # a store computes each missing column once, and a forked worker
        # starts from the caller's cold stores, so each process of a pooled
        # cold pass computes the columns of a serial cold run of its chunk
        campaign = Campaign(scenario=replace(mixed_scenario, seed=1401), trials=16)
        log = ProcessLog(tmp_path / "columns.log")

        def counting(angles_rad, ranges, config):
            log.add(len(angles_rad))
            return esg_manifold_centered(angles_rad, ranges, config)

        monkeypatch.setattr(estimators, "esg_manifold_centered", counting)
        chunks = {}  # pid -> the jobs that process ran
        fork_chunk = harness._fork_chunk

        def forking(trial_fn, jobs):
            pid, read_fd = fork_chunk(trial_fn, jobs)
            chunks[pid] = jobs
            return pid, read_fd

        monkeypatch.setattr(harness, "_fork_chunk", forking)
        clear_steering_caches()
        run_campaign(campaign, threads=2)
        pooled = log.records()
        jobs = [(scenario, trial) for scenario in campaign.cells for trial in range(16)]
        chunks[os.getpid()] = jobs[: len(jobs) - sum(map(len, chunks.values()))]
        assert len(chunks) == min(2, CPUS)
        for pid, chunk in chunks.items():
            clear_steering_caches()
            log.clear()
            for scenario, trial in chunk:
                harness._run_trial(scenario, campaign.settings, campaign.estimators, trial)
            serial = sum(n for _, n in log.records())
            assert serial > 0 and sum(n for p, n in pooled if p == pid) == serial, pid

    def test_threads_filling_one_lattice_agree(self, monkeypatch):
        # in each round 4 threads fill one new 36-cell lattice at once, each
        # in its own order of 5-cell batches; each cell's column is computed once
        config = ArrayConfig(16, 0.5, 2.0)
        ranges = np.geomspace(20.0, 2000.0, 6)
        lattices = [np.linspace(lo, lo + 10.0, 6) for lo in np.linspace(-60.0, 60.0, 30)]
        rows, cols = np.divmod(np.arange(36), 6)
        fresh = [esg_manifold_centered(np.deg2rad(a[rows]), ranges[cols], config) for a in lattices]
        orders = [np.random.default_rng(k).permutation(36) for k in range(4)]
        cost = _GridCost(lambda manifold: manifold, config)
        clear_steering_caches()
        counted = self.count_columns(monkeypatch)
        barrier = threading.Barrier(4)
        served = [[] for _ in range(4)]

        def work(k):
            for angles, columns in zip(lattices, fresh):
                barrier.wait(timeout=10)
                for batch in np.array_split(orders[k], 8):
                    blob = cost.cells(angles, ranges, rows[batch], cols[batch]).tobytes()
                    served[k].append(blob == columns[:, batch].tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(s) == 8 * len(lattices) and all(s) for s in served)
        assert sum(counted) == 36 * len(lattices)
        for angles in lattices:
            store = estimators._lattice_columns(config, angles.tobytes(), ranges.tobytes())
            self.assert_one_column_per_cell(store, zip(rows, cols))

    def test_far_field_manifold_is_read_only(self):
        config = ArrayConfig(8)
        grid = SETTINGS.angle_grid_deg()
        cached = estimators._far_field_manifold(config, grid.dtype.str, grid.tobytes())
        assert cached.tobytes() == ff_manifold(np.deg2rad(grid), config).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 0.0


# Arguments of each memoized axis builder, drawn near the values that
# collide as cache keys: signed zeros, ints for floats, repeats.
_AXIS_NUMBERS = st.sampled_from([0.0, -0.0, 1.0, 2, 0.5]) | st.floats(-100.0, 100.0)


@st.composite
def _window_args(draw):
    center = draw(_AXIS_NUMBERS)
    halfwidth = draw(st.sampled_from([1, 1.0, 0.5]) | st.floats(1e-3, 10.0))
    step = halfwidth / draw(st.sampled_from([1, 2, 30]) | st.floats(0.5, 50.0))
    lo = center - draw(_AXIS_NUMBERS.map(abs) | st.floats(0.0, 2.0 * halfwidth))
    hi = center + draw(_AXIS_NUMBERS.map(abs) | st.floats(0.0, 2.0 * halfwidth))
    return center, halfwidth, step, lo, hi


_MEMOIZED_BUILDERS = {"_window_grid": _window_args()}


class TestAxisMemos:
    """Search axes are built once per distinct arguments and shared
    read-only."""

    @hyp_settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_memo_serves_what_the_builder_builds(self, data):
        # the memos are not cleared between examples, so equal keys of
        # different types or zero signs meet an entry another example left
        name = data.draw(st.sampled_from(sorted(_MEMOIZED_BUILDERS)), "builder")
        args = data.draw(_MEMOIZED_BUILDERS[name], "args")
        memo = getattr(estimators, name)
        out, fresh = memo(*args), memo.__wrapped__(*args)
        assert not out.flags.writeable
        assert out.dtype == fresh.dtype and out.shape == fresh.shape
        assert out.tobytes() == fresh.tobytes()

    def test_range_grid_is_a_fresh_writable_array(self):
        grid = SETTINGS.range_grid()
        assert grid.flags.writeable
        grid[0] = -1.0
        assert SETTINGS.range_grid()[0] == SETTINGS.range_min

    def test_clear_steering_caches_empties_every_memo(self, mixed_scenario):
        memos = (
            estimators._lattice_columns, estimators._far_field_manifold,
            estimators._window_grid,
        )
        run_single_shot(mixed_scenario)
        assert all(memo.cache_info().currsize for memo in memos)
        clear_steering_caches()
        assert not any(memo.cache_info().currsize for memo in memos)
