import numpy as np
import pytest

from sfas.geometry import (
    ArrayConfig,
    SourceTruth,
    aperture,
    array_center,
    element_positions,
    esg_distance,
    esg_manifold_centered,
    esg_steering,
    esg_steering_centered,
    ff_manifold,
    ff_steering,
    fresnel_lower_bound,
    fresnel_steering,
    rayleigh_distance,
)

# Second-order expansion vs exact steering at (20 deg, 30 wl, M=32, d=0.5):
# largest per-element phase discrepancy, frozen from a reference evaluation.
# Deep inside the Fresnel zone the quadratic expansion is off by radians,
# which is the regime the exact model exists for.
FRESNEL_VS_EXACT_PHASE_DEV = 2.7587776528913377


def to_element_frame(source, config):
    """Oracle: the same physical point as (angle, range) from the first
    element instead of the array center."""
    c = array_center(config)
    x = source.range * np.sin(source.angle) + c
    y = source.range * np.cos(source.angle)
    return SourceTruth(float(np.arctan2(x, y)), float(np.hypot(x, y)), source.power)


class TestArrayConfig:
    def test_positions_baseline(self):
        np.testing.assert_allclose(
            element_positions(ArrayConfig(3, 0.5, 1.0)), [0.0, 0.5, 1.0]
        )

    def test_positions_compressed(self):
        pos = element_positions(ArrayConfig(32, 0.5, 0.2))
        np.testing.assert_allclose(np.diff(pos), 0.1)
        np.testing.assert_allclose(pos[0], 0.0)
        np.testing.assert_allclose(pos[-1], 3.1)

    def test_positions_extended(self):
        np.testing.assert_allclose(np.diff(element_positions(ArrayConfig(32, 0.5, 2.0))), 1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ArrayConfig(1)
        with pytest.raises(ValueError):
            ArrayConfig(4, -0.5)
        with pytest.raises(ValueError):
            ArrayConfig(4, 0.5, 0.0)

    def test_aperture_and_center(self):
        cfg = ArrayConfig(32, 0.5, 2.0)
        assert aperture(cfg) == 31.0
        assert array_center(cfg) == 15.5


class TestRayleighDistance:
    def test_baseline_value(self):
        # D = 15.5, 2*D^2 = 480.5
        assert rayleigh_distance(ArrayConfig(32, 0.5, 1.0)) == pytest.approx(480.5)

    def test_two_elements(self):
        assert rayleigh_distance(ArrayConfig(2, 0.5, 1.0)) == pytest.approx(0.5)

    def test_doubling_scale_quadruples(self):
        cfg = ArrayConfig(16, 0.5, 0.7)
        assert rayleigh_distance(cfg.with_scale(1.4)) / rayleigh_distance(cfg) == pytest.approx(4.0)

    @pytest.mark.parametrize("scale", [0.1, 0.2, 2.0, 5.0])
    def test_scale_squared_law(self, scale):
        base = rayleigh_distance(ArrayConfig(32, 0.5, 1.0))
        scaled = rayleigh_distance(ArrayConfig(32, 0.5, scale))
        assert scaled / base == pytest.approx(scale**2, rel=1e-14)

    def test_fresnel_lower_bound(self):
        cfg = ArrayConfig(32, 0.5, 1.0)
        assert fresnel_lower_bound(cfg) == pytest.approx(0.62 * np.sqrt(15.5**3))


class TestEsgDistance:
    def test_broadside(self):
        src = SourceTruth(0.0, 10.0)
        assert esg_distance(src, 3.0) == pytest.approx(np.sqrt(109.0))

    def test_collinear(self):
        src = SourceTruth(np.pi / 2 - 1e-15, 10.0)
        assert esg_distance(src, 3.0) == pytest.approx(7.0)

    def test_anti_collinear(self):
        src = SourceTruth(-np.pi / 2 + 1e-15, 10.0)
        assert esg_distance(src, 3.0) == pytest.approx(13.0)

    def test_coincident_element_rejected(self):
        src = SourceTruth(np.pi / 2 - 1e-9, 3.0)
        with pytest.raises(ValueError):
            esg_distance(src, 3.0)

    def test_vectorized(self):
        src = SourceTruth(0.3, 50.0)
        pos = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            esg_distance(src, pos), [esg_distance(src, p) for p in pos]
        )


class TestEsgSteering:
    def test_first_entry_exactly_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            src = SourceTruth(rng.uniform(-1.4, 1.4), rng.uniform(5.0, 1e4))
            cfg = ArrayConfig(rng.integers(2, 40), 0.5, rng.uniform(0.1, 3.0))
            vec = esg_steering(src, cfg)
            assert vec[0] == 1.0 + 0.0j

    def test_second_entry_value(self):
        # theta=0, r=10, p_2=0.5: magnitude 10/sqrt(100.25), phase 2*pi*(sqrt(100.25)-10)
        vec = esg_steering(SourceTruth(0.0, 10.0), ArrayConfig(2, 0.5, 1.0))
        dist = np.sqrt(100.25)
        assert abs(vec[1]) == pytest.approx(10.0 / dist)
        assert np.angle(vec[1]) == pytest.approx(2 * np.pi * (dist - 10.0))

    def test_far_field_limit(self):
        cfg = ArrayConfig(8, 0.5, 1.0)
        src = SourceTruth.from_degrees(20.0, 1e6)
        dev = np.abs(esg_steering(src, cfg) - ff_steering(src.angle, cfg))
        assert np.max(dev) < 1e-3

    def test_far_field_monotone_convergence(self):
        cfg = ArrayConfig(16, 0.5, 1.0)
        ladder = 100.0 * rayleigh_distance(cfg) * np.logspace(0, 4, 9)
        devs = []
        for r in ladder:
            src = SourceTruth.from_degrees(35.0, r)
            devs.append(np.max(np.abs(esg_steering(src, cfg) - ff_steering(src.angle, cfg))))
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_mirror_symmetry(self):
        cfg = ArrayConfig(12, 0.5, 0.7)
        src = SourceTruth.from_degrees(24.0, 80.0)
        mirrored = esg_steering(SourceTruth(-src.angle, src.range), cfg)
        # evaluating at negated positions reproduces the mirrored vector
        neg_dist = esg_distance(SourceTruth(src.angle, src.range), -element_positions(cfg))
        expected = (src.range / neg_dist) * np.exp(2j * np.pi * (neg_dist - src.range))
        expected[0] = 1.0
        np.testing.assert_allclose(mirrored, expected, rtol=1e-12)

    def test_magnitude_bounds(self):
        cfg = ArrayConfig(16, 0.5, 2.0)
        src = SourceTruth.from_degrees(55.0, 40.0)
        mags = np.abs(esg_steering(src, cfg))
        p_last = element_positions(cfg)[-1]
        assert mags[0] == 1.0
        assert np.all(mags > 0.0)
        assert np.all(mags <= src.range / (src.range - p_last) + 1e-12)


class TestFfSteering:
    def test_broadside_all_ones(self):
        np.testing.assert_array_equal(ff_steering(0.0, ArrayConfig(8, 0.5, 1.3)), np.ones(8))

    def test_thirty_degrees(self):
        vec = ff_steering(np.deg2rad(30.0), ArrayConfig(4, 0.5, 1.0))
        assert vec[1] == pytest.approx(-1j)

    def test_compressed_scaling(self):
        vec = ff_steering(np.deg2rad(30.0), ArrayConfig(4, 0.5, 0.2))
        assert vec[1] == pytest.approx(np.exp(-1j * np.pi / 10))

    def test_unit_magnitude_and_conjugate_symmetry(self):
        cfg = ArrayConfig(16, 0.5, 0.4)
        vec = ff_steering(0.61, cfg)
        np.testing.assert_allclose(np.abs(vec), 1.0, rtol=1e-14)
        np.testing.assert_allclose(ff_steering(-0.61, cfg), np.conj(vec), rtol=1e-14)


class TestFresnelSteering:
    def test_broadside_quadratic_term(self):
        vec = fresnel_steering(SourceTruth(0.0, 30.0), ArrayConfig(2, 0.5, 1.0))
        assert vec[1] == pytest.approx(np.exp(1j * np.pi * 0.25 / 30.0))

    def test_far_limit_matches_ff(self):
        cfg = ArrayConfig(16, 0.5, 1.0)
        src = SourceTruth.from_degrees(-33.0, 1e9)
        np.testing.assert_allclose(
            fresnel_steering(src, cfg), ff_steering(src.angle, cfg), atol=1e-5
        )

    def test_deviation_from_exact_fixture(self):
        src = SourceTruth.from_degrees(20.0, 30.0)
        cfg = ArrayConfig(32, 0.5, 1.0)
        dev = np.abs(np.angle(esg_steering(src, cfg) * np.conj(fresnel_steering(src, cfg))))
        assert np.max(dev) == pytest.approx(FRESNEL_VS_EXACT_PHASE_DEV, rel=1e-9)


class TestFrames:
    def test_to_element_frame_geometry(self):
        cfg = ArrayConfig(32, 0.5, 2.0)
        src = SourceTruth.from_degrees(-40.0, 30.0)
        conv = to_element_frame(src, cfg)
        c = array_center(cfg)
        # same Cartesian point in both frames
        assert conv.range * np.sin(conv.angle) == pytest.approx(
            src.range * np.sin(src.angle) + c
        )
        assert conv.range * np.cos(conv.angle) == pytest.approx(src.range * np.cos(src.angle))

    def test_centered_steering_equals_converted(self):
        cfg = ArrayConfig(16, 0.5, 2.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            src = SourceTruth(rng.uniform(-1.2, 1.2), rng.uniform(9.0, 5000.0))
            direct = esg_steering_centered(src, cfg)
            converted = esg_steering(to_element_frame(src, cfg), cfg)
            np.testing.assert_allclose(direct, converted, rtol=1e-10, atol=1e-12)

    def test_centered_coincident_source_rejected(self):
        # the last element sits half an aperture from the center, at 90 deg
        cfg = ArrayConfig(7, 0.5, 1.0)
        with pytest.raises(ValueError, match="coincides"):
            esg_steering_centered(SourceTruth(np.pi / 2 - 1e-9, array_center(cfg)), cfg)

    def test_manifold_matches_steering_columns(self):
        cfg = ArrayConfig(8, 0.5, 1.0)
        angles = np.deg2rad([-20.0, 5.0, 40.0])
        ranges = np.array([25.0, 300.0, 4e3])
        man = esg_manifold_centered(angles, ranges, cfg)
        for j, (a, r) in enumerate(zip(angles, ranges)):
            np.testing.assert_allclose(
                man[:, j], esg_steering_centered(SourceTruth(a, r), cfg), rtol=1e-12
            )

    def test_ff_manifold_matches_columns(self):
        cfg = ArrayConfig(8, 0.5, 0.2)
        angles = np.deg2rad([-50.0, 0.0, 10.0])
        man = ff_manifold(angles, cfg)
        for j, a in enumerate(angles):
            np.testing.assert_allclose(man[:, j], ff_steering(a, cfg), rtol=1e-12)


class TestSourceTruth:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SourceTruth(np.pi / 2, 10.0)
        with pytest.raises(ValueError):
            SourceTruth(0.0, 0.0)
        with pytest.raises(ValueError):
            SourceTruth(0.0, 10.0, power=0.0)

    def test_degree_round_trip(self):
        src = SourceTruth.from_degrees(-20.66, 30.0, 2.0)
        assert src.angle_deg == pytest.approx(-20.66)
        assert src.power == 2.0
