"""Tests for the EM-model calibration machinery."""

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.isa.events import EVENT_ORDER
from repro.machines import calibrated, calibration
from repro.machines.calibrated import reference_for
from repro.machines.calibration import (
    classical_mds,
    fit_coupling_weights,
    pair_geometry_factor,
    profile_event,
)
from repro.machines.catalog import CORE2DUO
from repro.uarch.components import COMPONENT_INDEX, Component, NUM_COMPONENTS


class TestGeometryFactor:
    def test_symmetric(self):
        assert pair_geometry_factor(9, 200, 2.4e9) == pytest.approx(
            pair_geometry_factor(200, 9, 2.4e9)
        )

    def test_equal_duty_maximizes_shape_term(self):
        balanced = pair_geometry_factor(100, 100, 1e9)
        skewed = pair_geometry_factor(10, 190, 1e9)
        assert balanced > skewed

    def test_scales_with_period(self):
        short = pair_geometry_factor(10, 10, 1e9)
        long = pair_geometry_factor(20, 20, 1e9)
        assert long == pytest.approx(2 * short)

    def test_known_value(self):
        # duty 0.5: G = 2 * 1 * (cpi_a+cpi_b) / (pi^2 R f).
        expected = 2 * 200 / (np.pi**2 * 50.0 * 1e9)
        assert pair_geometry_factor(100, 100, 1e9) == pytest.approx(expected)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(CalibrationError):
            pair_geometry_factor(0, 10, 1e9)


class TestClassicalMds:
    def test_recovers_planted_points(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(8, 2))
        deltas = points[:, None, :] - points[None, :, :]
        squared = (deltas**2).sum(axis=2)
        recovered, stress = classical_mds(squared, 2)
        assert stress == pytest.approx(0.0, abs=1e-9)
        recovered_deltas = recovered[:, None, :] - recovered[None, :, :]
        assert np.allclose((recovered_deltas**2).sum(axis=2), squared, atol=1e-9)

    def test_rank_reduction_reports_stress(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(8, 5))
        deltas = points[:, None, :] - points[None, :, :]
        squared = (deltas**2).sum(axis=2)
        _recovered, stress = classical_mds(squared, 2)
        assert stress > 0.0

    def test_invalid_dims_rejected(self):
        with pytest.raises(CalibrationError):
            classical_mds(np.zeros((4, 4)), 4)

    def test_non_square_rejected(self):
        with pytest.raises(CalibrationError):
            classical_mds(np.zeros((4, 5)), 2)


class TestCouplingFit:
    def test_exact_fit_when_points_in_row_space(self):
        rng = np.random.default_rng(5)
        rates = rng.uniform(0, 2, size=(6, NUM_COMPONENTS))
        true_weights = rng.normal(size=(2, NUM_COMPONENTS))
        points = (rates - rates.mean(axis=0)) @ true_weights.T
        weights, fitted = fit_coupling_weights(rates, points)
        assert np.allclose(fitted, points - points.mean(axis=0), atol=1e-8)

    def test_count_mismatch_rejected(self):
        with pytest.raises(CalibrationError):
            fit_coupling_weights(np.zeros((5, NUM_COMPONENTS)), np.zeros((4, 2)))


class TestEventProfiles:
    @pytest.fixture(scope="class")
    def profiles(self):
        return {
            name: profile_event(CORE2DUO, name)
            for name in ("ADD", "DIV", "LDM", "STM", "LDL2", "STL2", "LDL1", "NOI")
        }

    def test_div_occupies_divider(self, profiles):
        index = COMPONENT_INDEX[Component.DIV]
        assert profiles["DIV"].activity_rates[index] > 0
        assert profiles["ADD"].activity_rates[index] == 0

    def test_memory_events_touch_bus(self, profiles):
        index = COMPONENT_INDEX[Component.MEM_BUS]
        assert profiles["LDM"].activity_rates[index] > 0
        assert profiles["LDL2"].activity_rates[index] == 0

    def test_stm_moves_more_bus_traffic_than_ldm(self, profiles):
        """STM's dirty write-backs add off-chip transfers."""
        index = COMPONENT_INDEX[Component.MEM_BUS]
        stm_per_iter = (
            profiles["STM"].activity_rates[index] * profiles["STM"].cycles_per_iteration
        )
        ldm_per_iter = (
            profiles["LDM"].activity_rates[index] * profiles["LDM"].cycles_per_iteration
        )
        assert stm_per_iter > 1.5 * ldm_per_iter

    def test_stl2_doubles_l2_traffic_vs_ldl2(self, profiles):
        """The paper's STL2 explanation: fill + dirty write-back = two
        L2 accesses per store."""
        index = COMPONENT_INDEX[Component.L2]
        stl2_per_iter = (
            profiles["STL2"].activity_rates[index]
            * profiles["STL2"].cycles_per_iteration
        )
        ldl2_per_iter = (
            profiles["LDL2"].activity_rates[index]
            * profiles["LDL2"].cycles_per_iteration
        )
        assert stl2_per_iter == pytest.approx(2 * ldl2_per_iter, rel=0.1)

    def test_noi_differs_from_add_only_in_front_end_and_alu(self, profiles):
        delta = profiles["ADD"].activity_rates - profiles["NOI"].activity_rates
        active = {
            component
            for component, index in COMPONENT_INDEX.items()
            if abs(delta[index]) > 1e-9
        }
        assert Component.MEM_BUS not in active
        assert Component.DIV not in active


@pytest.mark.slow
class TestFullCalibration:
    def test_core2duo_fit_quality(self, core2duo_10cm):
        """The calibrated analytic model must reproduce Figure 9's shape."""
        from scipy import stats

        predicted = core2duo_10cm.calibration.predicted_matrix_zj()
        reference = core2duo_10cm.calibration.reference.symmetrized()
        upper = np.triu_indices(11, 1)
        spearman = stats.spearmanr(predicted[upper], reference[upper]).statistic
        relative = np.mean(np.abs(predicted[upper] - reference[upper]) / reference[upper])
        assert spearman > 0.85
        assert relative < 0.35

    def test_self_noise_matches_diagonal(self, core2duo_10cm):
        reference = core2duo_10cm.calibration.reference.symmetrized()
        for i, name in enumerate(EVENT_ORDER):
            assert core2duo_10cm.self_noise_j(name) == pytest.approx(
                reference[i, i] * 1e-21 / 2
            )

    def test_coupling_distance_recorded(self, core2duo_10cm):
        assert core2duo_10cm.coupling.distance_m == pytest.approx(0.10)


class TestProfileMemo:
    """Profiles are computed once per spec and shared across distances."""

    @pytest.fixture
    def profile_calls(self, monkeypatch):
        monkeypatch.setattr(calibration, "_PROFILES", {})
        calls = []
        original = calibration.profile_event

        def spy(spec, event_name):
            calls.append(event_name)
            return original(spec, event_name)

        monkeypatch.setattr(calibration, "profile_event", spy)
        return calls

    def test_second_distance_profiles_nothing(self, profile_calls):
        calibration.calibrate(CORE2DUO, reference_for("core2duo", 0.10), refine=False)
        assert len(profile_calls) == len(EVENT_ORDER)
        del profile_calls[:]
        memoized = calibration.calibrate(
            CORE2DUO, reference_for("core2duo", 0.50), refine=False
        )
        assert profile_calls == []

        calibration.clear_profile_cache()
        fresh = calibration.calibrate(CORE2DUO, reference_for("core2duo", 0.50), refine=False)
        assert len(profile_calls) == len(EVENT_ORDER)
        assert np.array_equal(memoized.coupling.weights, fresh.coupling.weights)
        assert memoized.self_noise_j == fresh.self_noise_j
        assert np.array_equal(memoized.points, fresh.points)
        assert np.array_equal(memoized.fitted_points, fresh.fitted_points)
        assert memoized.stress == fresh.stress
        for name, profile in fresh.profiles.items():
            assert memoized.profiles[name].cycles_per_iteration == profile.cycles_per_iteration
            assert np.array_equal(memoized.profiles[name].activity_rates, profile.activity_rates)

    def test_cached_profiles_are_not_mutable_through_a_result(self, profile_calls):
        result = calibration.calibrate(
            CORE2DUO, reference_for("core2duo", 0.10), refine=False
        )
        with pytest.raises(ValueError):
            result.profiles["ADD"].activity_rates[0] = 1.0
        result.profiles.pop("ADD")
        assert "ADD" in calibration.profile_all_events(CORE2DUO)

    def test_clear_calibration_cache_clears_the_memo(self, profile_calls, monkeypatch):
        monkeypatch.setattr(calibrated, "_CACHE", {})
        calibration.profile_all_events(CORE2DUO)
        assert calibration._PROFILES
        calibrated.clear_calibration_cache()
        assert not calibration._PROFILES
