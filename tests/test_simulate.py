import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from sfas import simulate
from sfas.coupling import CouplingModel, coupling_matrix
from sfas.geometry import ArrayConfig, SourceTruth, esg_steering_centered
from sfas.simulate import (
    Scenario,
    SnapshotBlock,
    generate_snapshots_baseline,
    generate_snapshots_compressed,
    generate_snapshots_extended,
    load_snapshot_block,
    sample_covariance,
    save_snapshot_block,
)

# Regression digest of the mixed-field compressed block (seed 20260810,
# SNR 20 dB, N=500), frozen when synthesis moved onto the center-frame
# steering kernel the estimators use (the block moved by 1.9e-12 of max|X|).
MIXED_BLOCK_SHA256 = "f9d72a8c399ae735ea42ececa6ba5657983f7a72bf95b8ebfc876cf943954038"


def single_source_scenario(**kw):
    defaults = dict(
        sources=(SourceTruth.from_degrees(10.0, 30.0),),
        snapshots=1,
        snr_db=float("inf"),
        seed=1,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestScenarioInvariants:
    def test_scale_ordering_enforced(self):
        with pytest.raises(ValueError, match="compressed scale"):
            Scenario(
                sources=(SourceTruth.from_degrees(0, 100),),
                config_compressed=ArrayConfig(32, 0.5, 1.5),
            )
        with pytest.raises(ValueError, match="extended scale"):
            Scenario(
                sources=(SourceTruth.from_degrees(0, 100),),
                config_extended=ArrayConfig(32, 0.5, 0.9),
            )

    def test_identifiability_limit(self):
        sources = tuple(
            SourceTruth.from_degrees(a, 100.0) for a in np.linspace(-60, 60, 5)
        )
        with pytest.raises(ValueError, match="identifiability"):
            Scenario(sources=sources, config_compressed=ArrayConfig(8, 0.5, 0.2),
                     config_extended=ArrayConfig(8, 0.5, 2.0))

    def test_source_inside_array_rejected(self):
        with pytest.raises(ValueError, match="half-aperture"):
            Scenario(sources=(SourceTruth.from_degrees(0.0, 10.0),))

    def test_non_finite_numbers_rejected(self):
        source = SourceTruth.from_degrees(10.0, 100.0)
        cases = {
            "snr_db must be finite": dict(snr_db=float("nan")),
            "snr_db must be finite, or": dict(snr_db=-float("inf")),
            "compressed baseline spacing and scale must be finite":
                dict(config_compressed=ArrayConfig(32, 0.5, float("nan"))),
            "extended baseline spacing and scale must be finite":
                dict(config_extended=ArrayConfig(32, 0.5, float("inf"))),
            "source 0 angle, range and power must be finite":
                dict(sources=(SourceTruth.from_degrees(10.0, float("inf")),)),
        }
        for message, override in cases.items():
            with pytest.raises(ValueError, match=message):
                Scenario(**{"sources": (source,), **override})
        assert Scenario(sources=(source,), snr_db=float("inf")).noise_variance == 0.0

    def test_noise_variance_from_snr(self):
        scen = single_source_scenario(snr_db=20.0)
        assert scen.noise_variance == pytest.approx(0.01)
        assert single_source_scenario(snr_db=float("inf")).noise_variance == 0.0


class TestDeterminism:
    def test_bit_identical_rerun(self, mixed_scenario):
        a = generate_snapshots_compressed(mixed_scenario, trial=3)
        b = generate_snapshots_compressed(mixed_scenario, trial=3)
        assert a.data.tobytes() == b.data.tobytes()

    def test_trials_differ(self, mixed_scenario):
        a = generate_snapshots_compressed(mixed_scenario, trial=0)
        b = generate_snapshots_compressed(mixed_scenario, trial=1)
        assert not np.array_equal(a.data, b.data)

    def test_stages_draw_independent_streams(self, mixed_scenario):
        c = generate_snapshots_compressed(mixed_scenario)
        e = generate_snapshots_extended(mixed_scenario)
        assert not np.array_equal(c.data, e.data)

    def test_regression_checksum(self, mixed_scenario):
        block = generate_snapshots_compressed(mixed_scenario)
        assert hashlib.sha256(block.data.tobytes()).hexdigest() == MIXED_BLOCK_SHA256

    def test_adding_snapshots_preserves_prefix(self):
        short = single_source_scenario(snapshots=50, snr_db=10.0)
        long = single_source_scenario(snapshots=80, snr_db=10.0)
        a = generate_snapshots_compressed(short).data
        b = generate_snapshots_compressed(long).data
        np.testing.assert_array_equal(a, b[:, :50])

    def test_adding_sources_preserves_other_draws(self):
        one = single_source_scenario(snapshots=40, snr_db=10.0)
        two = single_source_scenario(
            snapshots=40,
            snr_db=10.0,
            sources=(
                SourceTruth.from_degrees(10.0, 30.0),
                SourceTruth.from_degrees(-30.0, 500.0),
            ),
        )
        h_one = esg_steering_centered(one.sources[0], one.config_compressed)
        cpl = coupling_matrix(one.config_compressed, one.coupling)
        # subtracting source 2's exact contribution recovers the K=1 block
        h_two = esg_steering_centered(two.sources[1], two.config_compressed)
        a = generate_snapshots_compressed(one).data
        b = generate_snapshots_compressed(two).data
        np.testing.assert_allclose(
            a, b - np.outer(cpl @ h_two, _signal_row(two, 1)), atol=1e-12
        )
        assert h_one is not None  # silence linters; channel checked implicitly


def _signal_row(scenario, source_index, trial=0, stage="compressed"):
    powers = tuple(src.power for src in scenario.sources)
    signal, _ = simulate._draws(scenario.seed, trial, stage, scenario.snapshots, powers, 0)
    return signal[source_index]


class TestGeneration:
    def test_noiseless_single_source_column(self):
        scen = single_source_scenario()
        block = generate_snapshots_compressed(scen)
        chan = coupling_matrix(scen.config_compressed, scen.coupling) @ esg_steering_centered(
            scen.sources[0], scen.config_compressed
        )
        s = _signal_row(scen, 0)[0]
        np.testing.assert_allclose(block.data[:, 0], chan * s, rtol=1e-12)

    def test_extended_column_parallel_to_steering(self):
        scen = single_source_scenario()
        block = generate_snapshots_extended(scen)
        vec = esg_steering_centered(scen.sources[0], scen.config_extended)
        col = block.data[:, 0]
        ratio = col / vec
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)

    def test_extended_coupling_flag_noop_when_uncoupled(self):
        scen = single_source_scenario(
            coupling=CouplingModel(reference_strength=0.0),
            snr_db=5.0,
            snapshots=16,
        )
        a = generate_snapshots_extended(scen, include_coupling=False)
        b = generate_snapshots_extended(scen, include_coupling=True)
        np.testing.assert_array_equal(a.data, b.data)

    def test_baseline_block_is_half_wavelength(self, mixed_scenario):
        block = generate_snapshots_baseline(mixed_scenario)
        assert block.config.scale == 1.0
        assert block.data.shape == (32, 500)

    def test_noise_power_tracks_snr(self):
        # measured over 1e4 samples per SNR point at fixed seed
        for snr in (0.0, 10.0):
            scen = Scenario(sources=(), snapshots=10_000, snr_db=snr, seed=9)
            block = generate_snapshots_compressed(scen)
            measured = np.mean(np.abs(block.data) ** 2)
            assert measured == pytest.approx(10 ** (-snr / 10.0), rel=0.05)

    def test_noise_only_covariance_approaches_identity(self):
        # expected relative Frobenius error is sqrt(M/N); N = 2e4 puts the
        # 5% bound comfortably above the 4% expectation for M = 32
        scen = Scenario(sources=(), snapshots=20_000, snr_db=0.0, seed=2)
        cov = sample_covariance(generate_snapshots_compressed(scen)).matrix
        eye = np.eye(32)
        rel = np.linalg.norm(cov - eye) / np.linalg.norm(eye)
        assert rel < 0.05


class TestSynthesisFastPaths:
    """The noise view, the draw memo and the channel cache against what
    they replace."""

    @hyp_settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        m=st.integers(2, 12),
        snr_db=st.one_of(st.floats(-40.0, 60.0), st.just(float("inf"))),
        seed=st.integers(0, 2**32 - 1),
        trial=st.integers(0, 9),
        stage=st.sampled_from(("compressed", "extended", "baseline")),
    )
    def test_noise_matrix_is_complex_sum_of_draws(self, n, m, snr_db, seed, trial, stage):
        """The memo's noise pairs are the stream's draws, and a source-free
        block is those pairs as complex samples scaled by sqrt(var / 2)."""
        pairs = simulate._stream(seed, trial, stage, simulate._ROLE_NOISE).standard_normal(
            (n, m, 2)
        )
        noise = simulate._draws(seed, trial, stage, n, (), m)[1]
        assert noise.dtype == pairs.dtype and noise.shape == pairs.shape
        assert noise.tobytes() == pairs.tobytes()

        scen = Scenario(sources=(), snapshots=n, snr_db=snr_db, seed=seed)
        var = scen.noise_variance
        if var == 0.0:
            oracle = np.zeros((m, n), dtype=complex)
        else:
            oracle = np.sqrt(var / 2.0) * (pairs[:, :, 0] + 1j * pairs[:, :, 1]).T
        data = simulate._synthesize(scen, trial, stage, ArrayConfig(m), None).data
        assert data.dtype == oracle.dtype and data.shape == oracle.shape
        assert data.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("coupled", [False, True])
    def test_blocks_same_with_cold_and_warm_channel_cache(self, mixed_scenario, coupled):
        scen = replace(
            mixed_scenario,
            snapshots=40,
            coupling_extended=CouplingModel(0.3, 1.0, 0.0, band=2, symmetric=True)
            if coupled else None,
        )

        def blocks():
            return [
                block.data.tobytes()
                for trial in (0, 3)
                for block in (
                    generate_snapshots_compressed(scen, trial),
                    generate_snapshots_extended(scen, coupled, trial),
                    generate_snapshots_baseline(scen, trial),
                )
            ]

        simulate._channel_matrix.cache_clear()
        cold = blocks()
        assert simulate._channel_matrix.cache_info().misses == 3
        assert blocks() == cold
        simulate._channel_matrix.cache_clear()
        assert blocks() == cold

    @hyp_settings(max_examples=30, deadline=None)
    @given(
        snrs=st.lists(st.floats(-30.0, 50.0) | st.just(float("inf")), min_size=1, max_size=6),
        trial=st.integers(0, 1000),
        stage=st.sampled_from(("compressed", "extended", "baseline")),
        coupled=st.booleans(),
    )
    def test_sweep_cells_share_draws_with_unchanged_bytes(self, snrs, trial, stage, coupled):
        """The finite SNR cells of one (trial, stage) draw once, and a
        noiseless cell once more: blocks built from a warm draw memo, in
        any order of SNRs, are the cold blocks."""
        scen = Scenario(
            sources=(SourceTruth.from_degrees(-20.0, 30.0, 0.5),
                     SourceTruth.from_degrees(15.0, 900.0, 2.0)),
            coupling_extended=CouplingModel(0.3, 1.0, 0.0, band=2, symmetric=True)
            if coupled else None,
            snapshots=40,
            seed=trial + 7,
        )
        generate = {
            "compressed": generate_snapshots_compressed,
            "extended": lambda s, t: generate_snapshots_extended(s, coupled, t),
            "baseline": generate_snapshots_baseline,
        }[stage]

        def block(snr):
            return generate(scen.with_snr(snr), trial).data.tobytes()

        cold = []
        for snr in snrs:
            simulate._draws.cache_clear()
            cold.append(block(snr))
        simulate._draws.cache_clear()
        assert [block(snr) for snr in snrs] == cold
        # One miss for the finite SNRs, one for the noiseless cell (m = 0).
        element_counts = {32 if snr != float("inf") else 0 for snr in snrs}
        assert simulate._draws.cache_info().misses == len(element_counts)

        powers = tuple(src.power for src in scen.sources)
        for m in element_counts:
            for array in simulate._draws(scen.seed, trial, stage, scen.snapshots, powers, m):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    def test_noiseless_block_adds_zero_noise(self, monkeypatch):
        """A noiseless block is `channel @ signal` plus zeros, so a -0.0 of
        the product reads +0.0 in the block."""

        class NegativeZeroChannel:
            def __matmul__(self, signal):
                return np.full((32, signal.shape[1]), complex(-0.0, -0.0))

        monkeypatch.setattr(simulate, "_channel_matrix", lambda *args: NegativeZeroChannel())
        data = generate_snapshots_compressed(single_source_scenario(snapshots=8)).data
        assert data.tobytes() == np.zeros((32, 8), complex).tobytes()

    def test_cached_channel_is_read_only(self, mixed_scenario):
        cfg = mixed_scenario.config_compressed
        for sources, model in (
            (mixed_scenario.sources, mixed_scenario.coupling),
            (mixed_scenario.sources, None),
            ((), None),
        ):
            channel = simulate._channel_matrix(sources, cfg, model)
            assert channel.shape == (cfg.element_count, len(sources))
            with pytest.raises(ValueError, match="read-only"):
                channel[...] = 0.0


class TestSampleCovariance:
    def test_zero_data(self):
        block = SnapshotBlock(np.zeros((4, 3), complex), 0.0, ArrayConfig(4))
        np.testing.assert_array_equal(sample_covariance(block).matrix, np.zeros((4, 4)))

    def test_single_snapshot_rank_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        block = SnapshotBlock(x[:, None], 1.0, ArrayConfig(5))
        np.testing.assert_allclose(
            sample_covariance(block).matrix, np.outer(x, x.conj()), rtol=1e-12
        )

    def test_hermitian_and_psd(self, mixed_scenario):
        cov = sample_covariance(generate_snapshots_compressed(mixed_scenario)).matrix
        herm = np.linalg.norm(cov - cov.conj().T) / np.linalg.norm(cov)
        assert herm < 1e-14
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() > -1e-10 * np.trace(cov).real

    def test_eigenvalues_match_population_form(self):
        scen = Scenario(
            sources=(SourceTruth.from_degrees(10.0, 5000.0),),
            snapshots=100_000,
            snr_db=20.0,
            seed=3,
        )
        block = generate_snapshots_extended(scen)
        eigs = np.linalg.eigvalsh(sample_covariance(block).matrix)[::-1]
        h = esg_steering_centered(scen.sources[0], scen.config_extended)
        var = scen.noise_variance
        top_expected = var + np.linalg.norm(h) ** 2
        assert eigs[0] == pytest.approx(top_expected, rel=0.05)
        assert np.sum(eigs[1:]) == pytest.approx(var * 31, rel=0.05)

    def test_consistency_rate(self):
        # relative covariance error should fall like 1/sqrt(N)
        sources = (SourceTruth.from_degrees(-20.0, 300.0), SourceTruth.from_degrees(25.0, 2000.0))
        errors = []
        for n in (100, 1000, 10_000):
            per_trial = []
            for trial in range(3):
                scen = Scenario(sources=sources, snapshots=n, snr_db=10.0, seed=77)
                block = generate_snapshots_extended(scen, trial=trial)
                cov = sample_covariance(block).matrix
                h = np.column_stack(
                    [esg_steering_centered(s, scen.config_extended) for s in sources]
                )
                theory = h @ h.conj().T + scen.noise_variance * np.eye(32)
                per_trial.append(
                    np.linalg.norm(cov - theory) / np.linalg.norm(theory)
                )
            errors.append(np.mean(per_trial))
        slope = np.polyfit(np.log10([100, 1000, 10_000]), np.log10(errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_trace_accounting_noiseless(self):
        sources = (
            SourceTruth.from_degrees(-10.0, 100.0),
            SourceTruth.from_degrees(30.0, 800.0, power=1.0),
        )
        scen = Scenario(
            sources=sources,
            coupling=CouplingModel(reference_strength=0.0),
            snapshots=50_000,
            snr_db=float("inf"),
            seed=8,
        )
        block = generate_snapshots_extended(scen)
        trace = np.trace(sample_covariance(block).matrix).real
        expected = sum(
            s.power * np.linalg.norm(esg_steering_centered(s, scen.config_extended)) ** 2
            for s in sources
        )
        assert trace == pytest.approx(expected, rel=0.02)


class TestBinaryInterchange:
    def test_round_trip(self, tmp_path, mixed_scenario):
        block = generate_snapshots_compressed(mixed_scenario)
        path = tmp_path / "block.bin"
        save_snapshot_block(block, path)
        loaded = load_snapshot_block(path)
        np.testing.assert_array_equal(loaded.data, block.data)
        assert loaded.noise_variance == block.noise_variance
        assert loaded.config == block.config

    def test_complex64_round_trip(self, tmp_path, mixed_scenario):
        block = generate_snapshots_compressed(mixed_scenario)
        path = tmp_path / "block32.bin"
        save_snapshot_block(block, path, dtype=np.complex64)
        loaded = load_snapshot_block(path)
        np.testing.assert_allclose(loaded.data, block.data, rtol=1e-6, atol=1e-6)

    @hyp_settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 8),
        n=st.integers(1, 12),
        dtype=st.sampled_from((np.complex64, np.complex128)),
        variance=st.floats(0.0, 1e6),
        scale=st.floats(0.01, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_round_trip(self, tmp_path_factory, m, n, dtype, variance, scale, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        block = SnapshotBlock(data, variance, ArrayConfig(m, 0.5, scale))
        path = tmp_path_factory.mktemp("blocks") / "block.bin"
        save_snapshot_block(block, path, dtype=dtype)
        loaded = load_snapshot_block(path)
        assert loaded.data.dtype == np.complex128 and loaded.data.shape == (m, n)
        np.testing.assert_array_equal(loaded.data, data.astype(dtype))
        assert (loaded.noise_variance, loaded.config) == (variance, block.config)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTABLOCK" + b"\0" * 64)
        with pytest.raises(ValueError, match="not a snapshot block"):
            load_snapshot_block(path)

        # Every other malformed block also fails with a ValueError naming the file.
        block = SnapshotBlock(np.ones((2, 3), dtype=complex), 0.5, ArrayConfig(2))
        save_snapshot_block(block, path)
        good = path.read_bytes()
        header = 8 + 1 + 4 + 4 + 3 * 8

        def with_header(m=2, n=3, variance=0.5, scale=1.0, d0=0.5):
            # same 6-sample payload, header values replaced
            fields = struct.pack("<IIddd", m, n, variance, scale, d0)
            return good[:9] + fields + good[header:]

        cases = {
            "truncated payload": good[:-1],
            "extra payload": good + b"\0",
            "short header": good[: header - 1],
            "unknown dtype code": good[:8] + bytes([7]) + good[9:],
            "one element": with_header(m=1, n=6),
            "no snapshots": with_header(n=0)[:header],
            "nan sample": good[:header] + struct.pack("<d", float("nan")) + good[header + 8 :],
            "zero scale": with_header(scale=0.0),
            "negative scale": with_header(scale=-2.0),
            "nan scale": with_header(scale=float("nan")),
            "infinite scale": with_header(scale=float("inf")),
            "zero spacing": with_header(d0=0.0),
            "nan spacing": with_header(d0=float("nan")),
            "infinite noise variance": with_header(variance=float("inf")),
            "negative noise variance": with_header(variance=-0.5),
            "nan noise variance": with_header(variance=float("nan")),
        }
        for raw in cases.values():
            path.write_bytes(raw)
            with pytest.raises(ValueError, match="junk.bin"):
                load_snapshot_block(path)
        path.write_bytes(with_header())
        assert load_snapshot_block(path).config == ArrayConfig(2)

    @hyp_settings(max_examples=60, deadline=None)
    @given(bits=st.lists(st.integers(0, 8 * simulate._HEADER.size - 1), min_size=1, max_size=4))
    def test_flipped_header_bits_load_or_are_diagnosed(self, tmp_path_factory, bits):
        """A block whose header has bits flipped loads, with at least one
        snapshot and finite samples, or raises a ValueError naming the
        file; never another exception."""
        path = tmp_path_factory.mktemp("flipped") / "flipped.bin"
        block = SnapshotBlock(np.ones((2, 3), dtype=complex), 0.5, ArrayConfig(2))
        save_snapshot_block(block, path)
        raw = bytearray(path.read_bytes())
        for bit in bits:
            raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            loaded = load_snapshot_block(path)
        except ValueError as exc:
            assert "flipped.bin" in str(exc)
        else:
            assert loaded.snapshot_count >= 1 and np.all(np.isfinite(loaded.data))
