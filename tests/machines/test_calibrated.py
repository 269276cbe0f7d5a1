"""Tests for calibrated-machine loading and distance synthesis."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import CalibrationError, ConfigurationError
from repro.em import propagation
from repro.em.environment import NoiseEnvironment
from repro.machines import calibrated
from repro.machines.calibrated import (
    clear_calibration_cache,
    load_calibrated_machine,
    reference_for,
)
from repro.machines.reference_data import REFERENCE_MATRICES


class TestReferenceFor:
    def test_published_distances_pass_through(self):
        reference = reference_for("core2duo", 0.10)
        assert reference.exact
        assert reference.figure.startswith("Fig")

    def test_core2duo_interpolated_distance(self):
        reference = reference_for("core2duo", 0.25)
        assert not reference.exact
        # Interpolated values sit (to fit tolerance) between the 10 cm
        # and 50 cm anchors.
        assert reference.cell("ADD", "LDM") <= reference_for("core2duo", 0.10).cell("ADD", "LDM")
        assert (
            reference.cell("ADD", "LDM")
            >= 0.9 * reference_for("core2duo", 0.50).cell("ADD", "LDM")
        )

    def test_other_machine_scaled_distance(self):
        reference = reference_for("pentium3m", 0.50)
        assert not reference.exact
        base = reference_for("pentium3m", 0.10)
        assert reference.cell("ADD", "LDM") < base.symmetrized()[7, 0]

    @pytest.mark.parametrize("machine", ["core2duo", "pentium3m"])
    @pytest.mark.parametrize("distance", [0.104, 0.0951, 0.105])
    def test_nearby_distance_is_not_snapped_to_a_published_one(
        self, machine, distance
    ):
        reference = reference_for(machine, distance)
        assert not reference.exact
        assert reference.distance_m == distance

    @pytest.mark.parametrize(
        "distance, published", [(0.10, 0.10), (0.1000000001, 0.10), (1.00004, 1.00)]
    )
    def test_published_distance_matches_to_a_tenth_of_a_millimetre(
        self, distance, published
    ):
        assert reference_for("core2duo", distance) is REFERENCE_MATRICES[
            ("core2duo", published)
        ]

    def test_unknown_machine_rejected(self):
        with pytest.raises(Exception):
            reference_for("imaginary", 0.10)

    @pytest.mark.parametrize("machine", ["core2duo", "pentium3m", "turionx2"])
    @pytest.mark.parametrize("distance", [0.25, 0.75])
    def test_synthesized_reference_equals_the_scipy_optimize_fit(
        self, monkeypatch, machine, distance
    ):
        from scipy.optimize import nnls

        direct = reference_for(machine, distance).values_zj
        monkeypatch.setattr(
            propagation, "_nnls", lambda design, target: nnls(design, target)[0]
        )
        assert np.array_equal(reference_for(machine, distance).values_zj, direct)

    def test_unpublished_distance_imports_neither_scipy_package(self):
        source = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from repro.machines.calibrated import load_calibrated_machine\n"
            "load_calibrated_machine('core2duo', 0.25).calibration  # fits\n"
            "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])\n"
        )
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert result.stdout.strip() == "[]"


class TestLoadCalibratedMachine:
    def test_cached_instances_shared(self, core2duo_10cm):
        again = load_calibrated_machine("core2duo", 0.10)
        assert again.calibration is core2duo_10cm.calibration

    def test_environment_override_does_not_recalibrate(self, core2duo_10cm):
        quiet = NoiseEnvironment(instrument_floor_w_per_hz=0.0, include_thermal=False)
        machine = load_calibrated_machine("core2duo", 0.10, environment=quiet)
        assert machine.environment is quiet
        assert machine.calibration is core2duo_10cm.calibration

    @pytest.mark.slow
    def test_nearby_distance_calibrates_at_that_distance(self, core2duo_10cm):
        machine = load_calibrated_machine("core2duo", 0.104)
        assert machine.distance_m == 0.104
        assert machine.calibration.reference.distance_m == 0.104
        assert machine.coupling.distance_m == pytest.approx(0.104)
        assert machine.calibration is not core2duo_10cm.calibration

    def test_describe(self, core2duo_10cm):
        text = core2duo_10cm.describe()
        assert "Core 2 Duo" in text
        assert "10 cm" in text

    def test_self_noise_lookup_case_insensitive(self, core2duo_10cm):
        assert core2duo_10cm.self_noise_j("add") == core2duo_10cm.self_noise_j("ADD")

    def test_make_core_is_fresh(self, core2duo_10cm):
        core1 = core2duo_10cm.make_core()
        core2 = core2duo_10cm.make_core()
        assert core1 is not core2


@pytest.fixture
def fit_calls(monkeypatch):
    """Machines ``calibrated.calibrate`` fits, over an empty fit memo."""
    monkeypatch.setattr(calibrated, "_CACHE", {})
    calls = []
    fit = calibrated.calibrate

    def counting(spec, reference, **kwargs):
        calls.append((spec.name, reference.distance_m))
        return fit(spec, reference, **kwargs)

    monkeypatch.setattr(calibrated, "calibrate", counting)
    return calls


class TestLazyFit:
    """A handle fits on its first read, once per (machine, distance, modes)."""

    def test_loading_fits_nothing(self, fit_calls):
        machine = load_calibrated_machine("core2duo", 0.10)
        assert not machine.fitted
        assert machine.describe().endswith("at 10 cm")
        assert machine.reference is reference_for("core2duo", 0.10)
        assert fit_calls == []

    @pytest.mark.parametrize(
        "read",
        [
            lambda machine: machine.calibration,
            lambda machine: machine.coupling,
            lambda machine: machine.self_noise_j("ADD"),
        ],
        ids=["calibration", "coupling", "self_noise_j"],
    )
    def test_first_read_fits_once(self, fit_calls, read):
        machine = load_calibrated_machine("core2duo", 0.10)
        read(machine)
        read(machine)
        assert fit_calls == [("core2duo", 0.10)]
        assert machine.fitted

    def test_fit_equals_the_session_fit(self, fit_calls, core2duo_10cm):
        fresh = load_calibrated_machine("core2duo", 0.10).calibration
        assert fresh is not core2duo_10cm.calibration
        assert np.array_equal(
            fresh.coupling.weights, core2duo_10cm.calibration.coupling.weights
        )
        assert fresh.self_noise_j == core2duo_10cm.calibration.self_noise_j

    def test_environment_variants_share_one_fit(self, fit_calls):
        quiet = NoiseEnvironment(instrument_floor_w_per_hz=0.0, include_thermal=False)
        loud = load_calibrated_machine("core2duo", 0.10)
        variant = load_calibrated_machine("core2duo", 0.10, environment=quiet)
        assert variant.calibration is loud.calibration
        assert loud.fitted
        assert len(fit_calls) == 1

    def test_distance_and_modes_each_get_their_own_fit(self, fit_calls):
        base = load_calibrated_machine("core2duo", 0.10)
        two_modes = load_calibrated_machine("core2duo", 0.10, num_modes=2)
        base.calibration
        assert not two_modes.fitted
        assert two_modes.coupling.num_modes == 2
        assert len(fit_calls) == 2

    def test_pickled_fitted_handle_carries_its_fit(self, fit_calls):
        machine = load_calibrated_machine("core2duo", 0.10)
        machine.calibration
        payload = pickle.dumps(machine)
        clear_calibration_cache()
        restored = pickle.loads(payload)
        assert restored.fitted
        assert np.array_equal(
            restored.coupling.weights, machine.coupling.weights
        )
        assert len(fit_calls) == 1

    def test_handle_pickled_after_another_handle_fitted_carries_the_fit(
        self, fit_calls
    ):
        first = load_calibrated_machine("core2duo", 0.10)
        unread = load_calibrated_machine("core2duo", 0.10)
        first.calibration
        payload = pickle.dumps(unread)
        clear_calibration_cache()
        pickle.loads(payload).calibration
        assert len(fit_calls) == 1

    def test_unfitted_handle_pickles_without_a_fit(self, fit_calls):
        restored = pickle.loads(pickle.dumps(load_calibrated_machine("core2duo", 0.10)))
        assert not restored.fitted
        assert fit_calls == []

    def test_clear_calibration_cache_drops_the_fits(self, fit_calls):
        first = load_calibrated_machine("core2duo", 0.10).calibration
        clear_calibration_cache()
        again = load_calibrated_machine("core2duo", 0.10)
        assert not again.fitted
        assert again.calibration is not first
        assert len(fit_calls) == 2

    @pytest.mark.parametrize("modes", [0, 11, 2.5, True])
    def test_bad_mode_count_fails_at_load(self, fit_calls, modes):
        with pytest.raises(CalibrationError, match="num_modes must be in"):
            load_calibrated_machine("core2duo", 0.10, num_modes=modes)

    def test_unknown_machine_fails_at_load(self, fit_calls):
        with pytest.raises(ConfigurationError, match="unknown machine"):
            load_calibrated_machine("imaginary", 0.10)

    def test_machine_without_published_matrices_fails_at_load(
        self, fit_calls, monkeypatch
    ):
        from repro.machines import catalog

        spec = catalog.CORE2DUO.__class__(
            name="unpublished",
            display_name="Unpublished",
            clock_hz=1e9,
            l1_geometry=catalog.CORE2DUO.l1_geometry,
            l2_geometry=catalog.CORE2DUO.l2_geometry,
        )
        monkeypatch.setitem(catalog.MACHINES, "unpublished", spec)
        with pytest.raises(CalibrationError, match="no published matrices"):
            load_calibrated_machine("unpublished", 0.10)
        assert fit_calls == []


class TestDistanceValidation:
    """Bad distances fail at the loader with one clear error line.

    A zero or negative distance used to surface deep inside the
    propagation model (divide-by-zero in the near-field roll-off, or an
    inverted attenuation ratio); NaN/inf produced nonsense calibrations.
    """

    @pytest.mark.parametrize(
        "distance", [0.0, -0.10, float("nan"), float("inf"), float("-inf")]
    )
    def test_invalid_distances_rejected(self, distance):
        with pytest.raises(ConfigurationError, match="positive, finite"):
            load_calibrated_machine("core2duo", distance)

    def test_error_names_the_offending_value(self):
        with pytest.raises(ConfigurationError, match="-0.25"):
            load_calibrated_machine("core2duo", -0.25)

    def test_validation_happens_before_the_calibration_cache(self):
        # A rejected distance must not poison the loader cache.
        with pytest.raises(ConfigurationError):
            load_calibrated_machine("core2duo", -1.0)
        machine = load_calibrated_machine("core2duo", 0.10)
        assert machine.distance_m == 0.10
