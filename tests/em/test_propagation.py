"""Unit tests for the near/far-field propagation model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.em import propagation
from repro.em.propagation import (
    NearFarModel,
    fit_near_far,
    interpolate_matrix,
)
from repro.errors import CalibrationError, ConfigurationError


class TestNearFarModel:
    def test_reference_power(self):
        model = NearFarModel(near=3.0, far=1.0, reference_m=0.1)
        assert model.power_at(0.1) == pytest.approx(4.0)

    def test_near_field_dominates_close(self):
        model = NearFarModel(near=1.0, far=1.0, reference_m=0.1)
        # At half the reference distance, near term grows 2^6, far 2^2.
        assert model.power_at(0.05) == pytest.approx(64.0 + 4.0)

    def test_far_field_dominates_far(self):
        model = NearFarModel(near=1.0, far=1.0, reference_m=0.1)
        power_1m = model.power_at(1.0)
        assert power_1m == pytest.approx(1e-6 + 1e-2)
        # Essentially all far-field at 1 m.
        assert power_1m == pytest.approx(1e-2, rel=1e-3)

    def test_amplitude_ratio(self):
        model = NearFarModel(near=0.0, far=4.0, reference_m=0.1)
        assert model.amplitude_ratio(0.2) == pytest.approx(0.5)

    def test_far_fraction(self):
        assert NearFarModel(near=3.0, far=1.0).far_fraction == pytest.approx(0.25)

    def test_negative_contributions_rejected(self):
        with pytest.raises(ConfigurationError):
            NearFarModel(near=-1.0, far=0.0)

    def test_zero_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            NearFarModel(near=1.0, far=1.0).power_at(0.0)


class TestFit:
    def test_recovers_known_model(self):
        truth = NearFarModel(near=5.0, far=0.5, reference_m=0.1)
        distances = np.array([0.1, 0.5, 1.0])
        powers = np.array([truth.power_at(d) for d in distances])
        fitted = fit_near_far(distances, powers)
        assert fitted.near == pytest.approx(5.0, rel=1e-6)
        assert fitted.far == pytest.approx(0.5, rel=1e-6)

    def test_pure_far_field(self):
        distances = np.array([0.1, 0.5, 1.0])
        powers = np.array([(0.1 / d) ** 2 for d in distances])
        fitted = fit_near_far(distances, powers)
        assert fitted.near == pytest.approx(0.0, abs=1e-9)

    def test_fit_is_nonnegative_even_for_noisy_data(self):
        distances = np.array([0.1, 0.5, 1.0])
        powers = np.array([0.1, 0.5, 1.0])  # increasing with distance (weird)
        fitted = fit_near_far(distances, powers)
        assert fitted.near >= 0.0
        assert fitted.far >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        distances=st.lists(
            st.floats(min_value=0.05, max_value=2.0), min_size=2, max_size=4, unique=True
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.sampled_from([1e-21, 1.0, 1e5]),
    )
    def test_nnls_equals_scipy_optimize(self, distances, seed, scale):
        from scipy.optimize import nnls

        ratios = 0.1 / np.array(distances)
        design = np.stack([ratios**6, ratios**2], axis=1)
        target = np.random.default_rng(seed).uniform(0.0, scale, size=len(distances))
        assert np.array_equal(propagation._nnls(design, target), nnls(design, target)[0])

    def test_single_distance_rejected(self):
        with pytest.raises(CalibrationError):
            fit_near_far(np.array([0.1, 0.1]), np.array([1.0, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CalibrationError):
            fit_near_far(np.array([0.1, 0.5]), np.array([1.0]))


class TestInterpolateMatrix:
    def test_exact_at_anchor_distances(self):
        truth_near = NearFarModel(near=9.0, far=1.0)
        distances = [0.1, 0.5, 1.0]
        matrices = [
            np.full((2, 2), truth_near.power_at(d)) + 0.5 for d in distances
        ]
        result = interpolate_matrix(distances, matrices, 0.5, floor=0.5)
        assert np.allclose(result, matrices[1], rtol=1e-6)

    def test_floor_preserved(self):
        distances = [0.1, 1.0]
        matrices = [np.full((2, 2), 10.0), np.full((2, 2), 0.6)]
        result = interpolate_matrix(distances, matrices, 5.0, floor=0.6)
        assert np.all(result >= 0.6 - 1e-9)

    def test_too_few_anchors_rejected(self):
        with pytest.raises(CalibrationError):
            interpolate_matrix([0.1], [np.zeros((2, 2))], 0.5, floor=0.0)
