import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from conftest import cli_digest
from sfas.crb import (
    _invert_with_markers,
    crb,
    crb_for_scenario,
    fisher_information,
    steering_jacobian,
)
from sfas.geometry import (
    ArrayConfig,
    SourceTruth,
    array_center,
    element_positions,
    esg_steering_centered,
)


def mp_steering_entry(theta, r, p, p0):
    """One exact steering entry at 40-digit precision: element at p,
    normalized at the first element p0, source located from the origin."""
    theta, r, p, p0 = mp.mpf(theta), mp.mpf(r), mp.mpf(p), mp.mpf(p0)
    dist = mp.sqrt(r * r + p * p - 2 * r * p * mp.sin(theta))
    d0 = mp.sqrt(r * r + p0 * p0 - 2 * r * p0 * mp.sin(theta))
    return (d0 / dist) * mp.e ** (1j * 2 * mp.pi * (dist - d0))


def mp_jacobian(theta, r, positions, wrt):
    """High-precision central finite differences, immune to the double
    -precision cancellation that plagues far-range derivatives."""
    h = mp.mpf("1e-12") * (1 if wrt == "theta" else r)
    out = []
    for p in positions:
        if wrt == "theta":
            hi = mp_steering_entry(theta + h, r, p, positions[0])
            lo = mp_steering_entry(theta - h, r, p, positions[0])
        else:
            hi = mp_steering_entry(theta, r + h, p, positions[0])
            lo = mp_steering_entry(theta, r - h, p, positions[0])
        out.append(complex((hi - lo) / (2 * h)))
    return np.array(out)


class TestSteeringJacobian:
    def test_reference_entries_zero(self):
        d_theta, d_range = steering_jacobian(
            SourceTruth.from_degrees(33.0, 50.0), ArrayConfig(8, 0.5, 1.0)
        )
        assert d_theta[0] == 0.0
        assert d_range[0] == 0.0

    def test_theta_matches_plain_finite_difference(self):
        # double precision suffices for the angle derivative at short range
        cfg = ArrayConfig(8, 0.5, 1.0)
        src = SourceTruth.from_degrees(-25.0, 40.0)
        d_theta, _ = steering_jacobian(src, cfg)
        h = 1e-6
        fd = (
            esg_steering_centered(SourceTruth(src.angle + h, src.range), cfg)
            - esg_steering_centered(SourceTruth(src.angle - h, src.range), cfg)
        ) / (2 * h)
        rel = np.abs(d_theta[1:] - fd[1:]) / np.abs(fd[1:])
        assert np.max(rel) < 1e-5

    def test_matches_high_precision_fd_hundred_draws(self):
        mp.mp.dps = 40
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            cfg = ArrayConfig(6, 0.5, float(rng.uniform(0.1, 5.0)))
            theta = float(rng.uniform(-1.3, 1.3))
            r = float(10 ** rng.uniform(0.8, 6.0))
            src = SourceTruth(theta, r)
            pos = element_positions(cfg) - array_center(cfg)
            if r <= pos[-1]:
                continue
            d_theta, d_range = steering_jacobian(src, cfg)
            for analytic, wrt in ((d_theta, "theta"), (d_range, "range")):
                oracle = mp_jacobian(theta, r, pos, wrt)
                denom = np.maximum(np.abs(oracle[1:]), 1e-30)
                worst = max(worst, float(np.max(np.abs(analytic[1:] - oracle[1:]) / denom)))
        assert worst < 1e-5

    def test_range_derivative_vanishes_far_away(self):
        cfg = ArrayConfig(8, 0.5, 1.0)
        norms = []
        for r in (1e2, 1e3, 1e4, 1e5, 1e6):
            _, d_range = steering_jacobian(SourceTruth.from_degrees(20.0, r), cfg)
            norms.append(np.linalg.norm(d_range))
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-8

    def test_centered_variant_consistent(self):
        cfg = ArrayConfig(8, 0.5, 2.0)
        src = SourceTruth.from_degrees(15.0, 60.0)
        d_theta, d_range = steering_jacobian(src, cfg)
        h = 1e-7
        fd_t = (
            esg_steering_centered(SourceTruth(src.angle + h, src.range), cfg)
            - esg_steering_centered(SourceTruth(src.angle - h, src.range), cfg)
        ) / (2 * h)
        np.testing.assert_allclose(d_theta[1:], fd_t[1:], rtol=1e-4)
        hr = src.range * 1e-7
        fd_r = (
            esg_steering_centered(SourceTruth(src.angle, src.range + hr), cfg)
            - esg_steering_centered(SourceTruth(src.angle, src.range - hr), cfg)
        ) / (2 * hr)
        np.testing.assert_allclose(d_range[1:], fd_r[1:], rtol=1e-4)


class TestFisherAndCrb:
    def test_fisher_symmetric(self):
        sources = (
            SourceTruth.from_degrees(-20.0, 60.0),
            SourceTruth.from_degrees(15.0, 400.0),
        )
        block = fisher_information(sources, ArrayConfig(16, 0.5, 2.0), 200, 0.1)
        rel = np.linalg.norm(block.matrix - block.matrix.T) / np.linalg.norm(block.matrix)
        assert rel < 1e-12
        assert block.matrix.shape == (4, 4)

    def test_doubling_snapshots_halves_bounds(self):
        src = (SourceTruth.from_degrees(-20.66, 30.0),)
        cfg = ArrayConfig(32, 0.5, 2.0)
        one = crb(src, cfg, 500, 0.1)
        two = crb(src, cfg, 1000, 0.1)
        np.testing.assert_allclose(two.angle_variance, one.angle_variance / 2, rtol=1e-12)
        np.testing.assert_allclose(two.range_variance, one.range_variance / 2, rtol=1e-12)

    def test_far_field_range_unbounded_angle_finite(self):
        res = crb((SourceTruth.from_degrees(10.0, 1e8),), ArrayConfig(32, 0.5, 2.0), 500, 0.1)
        assert np.isinf(res.range_variance[0])
        assert np.isfinite(res.angle_variance[0])

    def test_aperture_squared_gain(self):
        src = (SourceTruth.from_degrees(10.77, 5000.0),)
        base = crb(src, ArrayConfig(32, 0.5, 1.0), 500, 0.1)
        extended = crb(src, ArrayConfig(32, 0.5, 2.0), 500, 0.1)
        ratio = extended.angle_variance[0] / base.angle_variance[0]
        assert ratio == pytest.approx(0.25, rel=0.10)

    def test_monotone_in_snr_and_snapshots(self):
        src = (SourceTruth.from_degrees(-20.66, 30.0),)
        cfg = ArrayConfig(32, 0.5, 2.0)
        angle_bounds = [
            crb(src, cfg, 500, 10 ** (-snr / 10)).angle_variance[0]
            for snr in (-10, 0, 10, 20)
        ]
        assert all(b < a for a, b in zip(angle_bounds, angle_bounds[1:]))
        by_n = [
            crb(src, cfg, n, 1.0).angle_variance[0]
            for n in (100, 200, 400, 800)
        ]
        assert all(b < a for a, b in zip(by_n, by_n[1:]))

    def test_near_source_all_finite(self):
        res = crb(
            (SourceTruth.from_degrees(-20.66, 30.0), SourceTruth.from_degrees(10.77, 200.0)),
            ArrayConfig(32, 0.5, 2.0),
            500,
            0.1,
        )
        assert np.all(np.isfinite(res.angle_variance))
        assert np.all(np.isfinite(res.range_variance))

    def test_scenario_wrapper_uses_center_frame(self, mixed_scenario):
        res = crb_for_scenario(mixed_scenario)
        assert res.fisher.config == mixed_scenario.config_extended
        assert len(res.angle_variance) == 4
        direct = crb(
            mixed_scenario.sources,
            mixed_scenario.config_extended,
            mixed_scenario.snapshots,
            mixed_scenario.noise_variance,
        )
        np.testing.assert_allclose(res.angle_variance, direct.angle_variance)

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            fisher_information((SourceTruth.from_degrees(0.0, 100.0),), ArrayConfig(8), 10, 0.0)

    def test_coincident_sources_marked_unbounded(self):
        src = SourceTruth.from_degrees(10.0, 100.0)
        res = crb((src, src), ArrayConfig(16, 0.5, 2.0), 100, 0.1)
        assert np.all(np.isinf(res.angle_variance))

    def test_rounded_indefinite_fisher_gives_no_negative_bound(self):
        # Two sources 0.016 deg apart on 7 elements: rounding leaves the
        # Fisher matrix an eigenvalue of -8e-9 beside a largest of 1.5e-4,
        # and its plain inverse had a diagonal of -6e7.
        sources = (SourceTruth.from_degrees(0.0, 20.0), SourceTruth.from_degrees(0.015625, 20.0))
        for scale in (1.0, 2.0):
            res = crb(sources, ArrayConfig(7, 0.5, scale), 4, 10.0)
            assert np.linalg.eigvalsh(res.fisher.matrix)[0] < 0.0, (
                f"rounding left the Fisher matrix definite; {cli_digest.PIN.name} "
                f"was pinned on {cli_digest.pinned()[0]}; "
                f"this run: {cli_digest.build()}"
            )
            bounds = np.concatenate([res.angle_variance, res.range_variance])
            assert np.all(bounds >= 0.0), bounds

    @hyp_settings(max_examples=50, deadline=None)
    @given(size=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_indefinite_matrix_gives_no_negative_bound(self, size, seed):
        """The case above on every BLAS kernel, where rounding may leave the
        scene's Fisher matrix definite: eigenvalues 1.5e-4 down to -8e-9 in
        a random orthogonal basis, beside one parameter resolved on its own.
        The plain inverse has a negative diagonal; the bounds have none."""
        basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((size, size)))
        values = np.append(np.geomspace(1.5e-4, 1e-6, size - 1), -8e-9)
        fim = np.zeros((size + 1, size + 1))
        fim[:size, :size] = (basis * values) @ basis.T
        fim[size, size] = 1e-4
        fim = 0.5 * (fim + fim.T)
        assert np.diag(np.linalg.inv(fim)).min() < 0.0
        bounds = _invert_with_markers(fim)
        assert np.all(bounds >= 0.0), bounds
        assert bounds[size] == pytest.approx(1e4)
