import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from sfas.coupling import (
    CouplingModel,
    coupling_coefficient,
    coupling_matrix,
    decoupling_residual,
    gamma_matrix,
    selection_matrix,
)
from sfas.geometry import ArrayConfig


class TestCouplingCoefficient:
    def test_zero_strength(self):
        cfg = ArrayConfig(8, 0.5, 1.0)
        model = CouplingModel(reference_strength=0.0, band=7)
        assert all(coupling_coefficient(lag, cfg, model) == 0 for lag in range(1, 8))

    def test_reference_value(self):
        cfg = ArrayConfig(8, 0.5, 1.0)
        model = CouplingModel(reference_strength=0.3, decay=1.0, phase_offset=0.0, band=2)
        expected = 0.3 * np.exp(-0.5) * np.exp(1j * np.pi)
        assert coupling_coefficient(1, cfg, model) == pytest.approx(expected)

    def test_zero_lag_rejected(self):
        with pytest.raises(ValueError):
            coupling_coefficient(0, ArrayConfig(8), CouplingModel())

    def test_lag_beyond_array_rejected(self):
        with pytest.raises(ValueError):
            coupling_coefficient(8, ArrayConfig(8), CouplingModel(band=7))

    def test_decay_must_be_finite_and_non_negative(self):
        for decay in (-1e-9, -10000.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="decay finite and >= 0"):
                CouplingModel(decay=decay)
        assert coupling_coefficient(2, ArrayConfig(8), CouplingModel(decay=0.0)) != 0.0

    def test_zero_beyond_band(self):
        cfg = ArrayConfig(8, 0.5, 0.2)
        model = CouplingModel(band=2)
        assert coupling_coefficient(3, cfg, model) == 0.0

    def test_magnitude_decreasing_in_lag_and_scale(self):
        model = CouplingModel(reference_strength=0.3, decay=1.0, band=5)
        for scale in (0.1, 0.2, 0.5, 1.0, 2.0):
            cfg = ArrayConfig(8, 0.5, scale)
            mags = [abs(coupling_coefficient(lag, cfg, model)) for lag in range(1, 6)]
            assert all(b < a for a, b in zip(mags, mags[1:]))
        lag1 = [
            abs(coupling_coefficient(1, ArrayConfig(8, 0.5, s), model))
            for s in (0.1, 0.2, 0.5, 1.0, 2.0)
        ]
        assert all(b < a for a, b in zip(lag1, lag1[1:]))


class TestCouplingMatrix:
    def test_identity_when_uncoupled(self):
        mat = coupling_matrix(ArrayConfig(6), CouplingModel(reference_strength=0.0))
        np.testing.assert_array_equal(mat, np.eye(6))

    def test_three_by_three_structure(self):
        cfg = ArrayConfig(3, 0.5, 0.4)
        model = CouplingModel(band=1)
        a = coupling_coefficient(1, cfg, model)
        mat = coupling_matrix(cfg, model)
        expected = np.array([[1, a, 0], [np.conj(a), 1, a], [0, np.conj(a), 1]])
        np.testing.assert_allclose(mat, expected, rtol=1e-15)

    def test_hermitian_toeplitz_banded(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            cfg = ArrayConfig(int(rng.integers(4, 20)), 0.5, rng.uniform(0.1, 2.5))
            model = CouplingModel(
                reference_strength=rng.uniform(0, 0.9),
                decay=rng.uniform(0.2, 3.0),
                phase_offset=rng.uniform(-np.pi, np.pi),
                band=int(rng.integers(0, 4)),
            )
            mat = coupling_matrix(cfg, model)
            assert np.linalg.norm(mat - mat.conj().T) == 0.0
            for lag in range(cfg.element_count):
                diag = np.diagonal(mat, lag)
                assert np.all(diag == diag[0])
                if lag > model.band:
                    assert np.all(diag == 0.0)

    def test_symmetric_convention(self):
        cfg = ArrayConfig(6, 0.5, 0.3)
        mat = coupling_matrix(cfg, CouplingModel(band=2, symmetric=True))
        np.testing.assert_array_equal(mat, mat.T)

    def test_compressed_default_conditioning(self):
        # At the compressed spacing the default model's off-diagonal mass is
        # 2(|c1|+|c2|) = 1.034, so rho(C - I) lands just above 1 (measured
        # 1.0232); what stage 1 actually needs is an invertible C, which holds
        # with a comfortable margin.  Frozen from the eigenvalue computation.
        mat = coupling_matrix(ArrayConfig(32, 0.5, 0.2), CouplingModel())
        radius = np.max(np.abs(np.linalg.eigvals(mat - np.eye(32))))
        assert radius == pytest.approx(1.0232, abs=1e-3)
        assert np.min(np.abs(np.linalg.eigvals(mat))) > 0.01

    def test_band_beyond_array_rejected(self):
        with pytest.raises(ValueError):
            coupling_matrix(ArrayConfig(4), CouplingModel(band=4))


class TestSelectionMatrix:
    def test_five_elements_trim_one(self):
        sel = selection_matrix(5, 1)
        expected = np.zeros((3, 5))
        expected[0, 1] = expected[1, 2] = expected[2, 3] = 1.0
        np.testing.assert_array_equal(sel, expected)

    def test_zero_trim_identity(self):
        np.testing.assert_array_equal(selection_matrix(4, 0), np.eye(4))

    def test_rows_orthonormal(self):
        sel = selection_matrix(32, 2)
        np.testing.assert_array_equal(sel @ sel.T, np.eye(28))

    def test_too_large_trim_rejected(self):
        with pytest.raises(ValueError):
            selection_matrix(6, 3)


class TestGammaMatrix:
    def test_uncoupled_identity(self):
        cfg = ArrayConfig(8, 0.5, 0.2)
        gains = gamma_matrix([0.1, -0.4], cfg, CouplingModel(reference_strength=0.0))
        np.testing.assert_array_equal(gains, np.eye(2))

    def test_broadside_single_lag(self):
        cfg = ArrayConfig(8, 0.5, 1.0)
        model = CouplingModel(band=1)
        c1 = coupling_coefficient(1, cfg, model)
        gains = gamma_matrix([0.0], cfg, model)
        assert gains[0, 0] == pytest.approx(1.0 + 2.0 * c1)
        # the default model's lag-1 coefficient is real at unit scale
        assert gains[0, 0] == pytest.approx(1.0 + 2.0 * np.real(c1))


class TestDecouplingResidual:
    def test_uncoupled_zero(self):
        cfg = ArrayConfig(16, 0.5, 0.2)
        res = decoupling_residual([0.2, -0.7], cfg, CouplingModel(reference_strength=0.0), 2)
        assert res == 0.0

    def test_randomized_identity(self):
        cfg = ArrayConfig(16, 0.5, 0.2)
        model = CouplingModel(band=2, symmetric=True)
        rng = np.random.default_rng(5)
        angles = rng.uniform(-np.pi / 3, np.pi / 3, size=3)
        assert decoupling_residual(angles, cfg, model, 2) < 1e-12

    def test_identity_breaks_with_small_trim(self):
        cfg = ArrayConfig(16, 0.5, 0.2)
        model = CouplingModel(band=2, symmetric=True)
        assert decoupling_residual([0.3, -0.5, 0.9], cfg, model, 1) > 1e-3

    def test_load_bearing_property_hundred_draws(self):
        # stage-1 correctness rests on this identity
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            band = int(rng.integers(1, 4))
            trim = band + int(rng.integers(0, 2))
            m = int(rng.integers(2 * trim + 3, 33))
            cfg = ArrayConfig(m, 0.5, rng.uniform(0.1, 2.0))
            model = CouplingModel(
                reference_strength=rng.uniform(0.05, 0.9),
                decay=rng.uniform(0.2, 2.0),
                phase_offset=rng.uniform(-np.pi, np.pi),
                band=band,
                symmetric=True,
            )
            k = int(rng.integers(1, min(5, m - 2 * trim)))
            angles = rng.uniform(-np.pi / 2.2, np.pi / 2.2, size=k)
            worst = max(worst, decoupling_residual(angles, cfg, model, trim))
        assert worst < 1e-10

    @hyp_settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_identity_property(self, data):
        """Symmetric convention: rounding level whenever trim >= band; below
        it, the kept row band - 1 misses its lag-`band` neighbour outside the
        array, so the residual is at least |c_band| (>= 5e-3 on these draws)."""
        band = data.draw(st.integers(1, 3), "band")
        trim = data.draw(st.integers(0, band + 2), "trim")
        m = data.draw(st.integers(2 * max(trim, band) + 3, 32), "elements")
        cfg = ArrayConfig(m, 0.5, data.draw(st.floats(0.1, 1.0), "scale"))
        model = CouplingModel(
            reference_strength=data.draw(st.floats(0.1, 0.9), "strength"),
            decay=data.draw(st.floats(0.2, 2.0), "decay"),
            phase_offset=data.draw(st.floats(-np.pi, np.pi), "phase"),
            band=band,
            symmetric=True,
        )
        k = data.draw(st.integers(1, 4), "sources")
        angles = data.draw(
            st.lists(st.floats(-np.pi / 2.2, np.pi / 2.2), min_size=k, max_size=k), "angles"
        )
        residual = decoupling_residual(angles, cfg, model, trim)
        if trim >= band:
            assert residual < 1e-10
        else:
            edge = abs(coupling_coefficient(band, cfg, model))
            assert residual >= (1.0 - 1e-9) * edge > 1e-3
