"""Tests for the EM-model calibration machinery."""

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.savat import MeasurementConfig
from repro.core.study import run_study
from repro.errors import CalibrationError
from repro.isa.events import EVENT_ORDER
from repro.machines import calibrated, calibration
from repro.machines.calibrated import reference_for
from repro.machines.calibration import (
    classical_mds,
    fit_coupling_weights,
    pair_geometry_factor,
    profile_event,
    refine_coupling_weights,
)
from repro.machines.catalog import CORE2DUO, get_machine
from repro.machines.reference_data import ReferenceMatrix
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

    @pytest.mark.parametrize(
        "cpi_a, cpi_b, clock_hz",
        [(math.nan, 10, 1e9), (10, math.nan, 1e9), (10, 10, math.nan)],
    )
    def test_nan_inputs_rejected(self, cpi_a, cpi_b, clock_hz):
        with pytest.raises(CalibrationError):
            pair_geometry_factor(cpi_a, cpi_b, clock_hz)

    def test_infinite_clock_rejected(self):
        with pytest.raises(CalibrationError):
            pair_geometry_factor(10, 10, math.inf)

    def test_infinite_clock_fails_calibration_with_one_line(self, monkeypatch):
        # MachineSpec accepts an infinite clock; the geometry factor is
        # where calibration must stop (it used to be G = 0, then a
        # ZeroDivisionError in the squared-distance loop).
        spec = dataclasses.replace(CORE2DUO, clock_hz=math.inf)
        monkeypatch.setitem(
            calibration._PROFILES, spec, calibration.profile_all_events(CORE2DUO)
        )
        with pytest.raises(CalibrationError):
            calibration.calibrate(spec, reference_for("core2duo", 0.10), refine=False)


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


def _small_problem(seed: int = 0):
    """Inputs of a five-event, two-mode refinement (fast to fit)."""
    rng = np.random.default_rng(seed)
    events = 5
    rates = rng.uniform(0.1, 1.0, size=(events, NUM_COMPONENTS))
    initial = rng.normal(size=(2, NUM_COMPONENTS))
    geometry = np.ones((events, events))
    noise = np.full(events, 0.01)
    reference = rng.uniform(0.5, 2.0, size=(events, events))
    return initial, rates, geometry, noise, (reference + reference.T) / 2.0


def _restarts(
    initial_weights,
    activity_rates,
    geometry,
    self_noise,
    reference_j,
    restarts=3,
    seed=20141213,
):
    """The pair problem, every restart's start and the column scale, in trial order."""
    num_modes = initial_weights.shape[0]
    rates_centered = activity_rates - activity_rates.mean(axis=0)
    scale = np.abs(rates_centered).max(axis=0)
    scale[scale == 0] = 1.0
    design = rates_centered / scale

    upper = np.triu_indices(reference_j.shape[0], 1)
    problem = calibration._PairProblem(
        pair_design=design[upper[0]] - design[upper[1]],
        pair_geometry=geometry[upper],
        pair_noise=self_noise[upper[0]] + self_noise[upper[1]],
        pair_reference=reference_j[upper],
        num_modes=num_modes,
    )

    rng = np.random.default_rng(seed)
    scaled_initial = initial_weights * scale
    starts = []
    for trial in range(restarts):
        start = scaled_initial
        if trial:
            start = start * rng.normal(1.0, 0.3, start.shape) + rng.normal(
                0.0, 0.1 * np.abs(start).mean() + 1e-30, start.shape
            )
        starts.append(start)
    return problem, starts, scale


def _pair_fit(problem):
    """``(residuals, jacobian)`` of one restart, written independently of ``src``."""
    pair_design, pair_geometry, pair_noise, pair_reference, num_modes = problem
    num_components = pair_design.shape[1]

    def predict(weights):
        levels = pair_design @ weights.T
        return pair_geometry * np.sum(levels**2, axis=1) + pair_noise, levels

    def residuals(flat):
        predicted, _levels = predict(flat.reshape(num_modes, num_components))
        return np.log(predicted) - np.log(pair_reference)

    def jacobian(flat):
        weights = flat.reshape(num_modes, num_components)
        predicted, levels = predict(weights)
        rows = (
            (2.0 * pair_geometry / predicted)[:, None, None]
            * levels[:, :, None]
            * pair_design[:, None, :]
        )
        return rows.reshape(len(pair_reference), num_modes * num_components)

    return residuals, jacobian


def _least_squares_restart(problem, start, max_nfev=3000):
    """One restart fitted by scipy's ``least_squares``: the solver's oracle."""
    from scipy.optimize import least_squares

    residuals, jacobian = _pair_fit(problem)
    return least_squares(
        residuals, start.ravel(), jac=jacobian, method="trf", max_nfev=max_nfev
    )


def _serial_refine(*args, **kwargs):
    """The restarts fitted one after another by ``least_squares``: the oracle."""
    problem, starts, scale = _restarts(*args, **kwargs)
    best = None
    for start in starts:
        solution = _least_squares_restart(problem, start)
        if best is None or solution.cost < best.cost:
            best = solution
    return best.x.reshape(problem.num_modes, -1) / scale


class _WorkerFitError(Exception):
    """Raised by :func:`_fail_in_worker` inside a pool worker."""


_REAL_FIT_RESTART = calibration._fit_restart


def _fail_in_worker(problem, start):
    """A restart that fails in pool workers and fits normally in the parent."""
    if multiprocessing.parent_process() is not None:
        raise _WorkerFitError("restart failed in a worker")
    return _REAL_FIT_RESTART(problem, start)


def _new_children(before):
    return [child for child in multiprocessing.active_children() if child not in before]


class TestConcurrentRestarts:
    """The restarts run concurrently and choose exactly what a serial loop did."""

    @pytest.mark.slow
    @pytest.mark.parametrize("machine", ["core2duo", "turionx2"])
    def test_weights_match_the_serial_loop_bit_for_bit(self, machine, monkeypatch):
        captured = []
        original = calibration.refine_coupling_weights

        def spy(*args, **kwargs):
            captured.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(calibration, "refine_coupling_weights", spy)
        result = calibration.calibrate(get_machine(machine), reference_for(machine, 0.10))
        (args, kwargs), = captured
        expected = _serial_refine(*args, **kwargs)
        assert result.coupling.weights.tobytes() == expected.tobytes()

    def test_small_problem_matches_the_serial_loop(self):
        problem = _small_problem()
        for restarts in (1, 2, 3):
            concurrent = refine_coupling_weights(*problem, restarts=restarts)
            serial = _serial_refine(*problem, restarts=restarts)
            assert concurrent.tobytes() == serial.tobytes()

    def test_calibrate_leaves_no_child_process(self):
        before = multiprocessing.active_children()
        calibration.calibrate(CORE2DUO, reference_for("core2duo", 0.50))
        assert _new_children(before) == []

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_failing_restarts_leave_no_child_process(self):
        # A zero reference entry makes every restart's residuals infinite
        # at its start, in this process and in both workers.
        before = multiprocessing.active_children()
        initial, rates, geometry, noise, reference = _small_problem()
        reference[0, 1] = reference[1, 0] = 0.0
        with pytest.raises(CalibrationError, match="not finite"):
            refine_coupling_weights(initial, rates, geometry, noise, reference)
        assert _new_children(before) == []

    @pytest.mark.parametrize("value", (0.0, math.nan, math.inf))
    def test_unusable_reference_entry_fails_before_any_pool(self, value, monkeypatch):
        def no_pool(*_args, **_kwargs):
            raise AssertionError("a bad reference must fail before a pool starts")

        monkeypatch.setattr(calibration, "ProcessPoolExecutor", no_pool)
        values = reference_for("core2duo", 0.10).values_zj.copy()
        values[0, 1] = value
        reference = ReferenceMatrix(
            machine="core2duo", distance_m=0.10, values_zj=values, figure="test"
        )
        with pytest.raises(CalibrationError) as raised:
            calibration.calibrate(CORE2DUO, reference)
        message = str(raised.value)
        assert "\n" not in message
        assert "finite, positive off-diagonal" in message
        assert f"{EVENT_ORDER[0]}/{EVENT_ORDER[1]}" in message

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        before = multiprocessing.active_children()
        monkeypatch.setattr(calibration, "_fit_restart", _fail_in_worker)
        with pytest.raises(_WorkerFitError):
            refine_coupling_weights(*_small_problem())
        assert _new_children(before) == []

    def test_one_restart_builds_no_pool(self, monkeypatch):
        def no_pool(*_args, **_kwargs):
            raise AssertionError("a single restart must not start a pool")

        monkeypatch.setattr(calibration, "ProcessPoolExecutor", no_pool)
        problem = _small_problem()
        weights = refine_coupling_weights(*problem, restarts=1)
        assert weights.tobytes() == _serial_refine(*problem, restarts=1).tobytes()

    def test_zero_restarts_rejected(self):
        with pytest.raises(CalibrationError):
            refine_coupling_weights(*_small_problem(), restarts=0)

    @pytest.mark.slow
    def test_pooled_study_with_cold_calibrations_equals_serial(self, monkeypatch):
        def study(workers):
            monkeypatch.setattr(calibrated, "_CACHE", {})
            return run_study(
                ["core2duo"],
                [0.10, 0.50],
                events=("ADD", "LDM"),
                config=MeasurementConfig(alternation_frequency_hz=800e3),
                repetitions=1,
                workers=workers,
            )

        pooled = study(workers=2)
        serial = study(workers=0)
        assert len(pooled.matrices) == len(serial.matrices) == 2
        for pooled_matrix, serial_matrix in zip(pooled.matrices, serial.matrices):
            assert pooled_matrix.distance_m == serial_matrix.distance_m
            assert np.array_equal(pooled_matrix.samples_zj, serial_matrix.samples_zj)


@st.composite
def _svd_inputs(draw):
    """Float matrices: tall, wide, calibration-sized, rank-deficient."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, columns = draw(
        st.one_of(
            st.just((55, 39)),
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
        )
    )
    rank = draw(st.integers(0, min(rows, columns)))
    matrix = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, columns))
    return matrix * draw(st.sampled_from([1e-12, 1.0, 1e9]))


class TestThinSvd:
    """The solver's direct ``dgesdd`` call is ``scipy.linalg.svd``'s."""

    @given(matrix=_svd_inputs())
    @settings(max_examples=80, deadline=None)
    def test_equals_scipy_linalg_svd(self, matrix):
        from scipy.linalg import svd as scipy_svd

        U, s, Vt = calibration._thin_svd(*matrix.shape)(matrix)
        expected_U, expected_s, expected_Vt = scipy_svd(matrix, full_matrices=False)
        assert np.array_equal(U, expected_U)
        assert np.array_equal(s, expected_s)
        assert np.array_equal(Vt, expected_Vt)

    def test_a_later_scipy_linalg_import_reuses_the_extension(self):
        source = str(Path(calibration.__file__).resolve().parents[2])
        code = (
            "import sys\n"
            "from repro.machines import calibration\n"
            "flapack = calibration._load_flapack()\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "print(scipy.linalg.lapack._flapack is flapack)\n"
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
        assert result.stdout.strip() == "True"

    def test_nan_entry_raises_calibration_error(self):
        matrix = np.ones((4, 3))
        matrix[1, 2] = math.nan
        with pytest.raises(CalibrationError, match="dgesdd"):
            calibration._thin_svd(4, 3)(matrix)


@st.composite
def _fit_problems(draw):
    """A small calibration-shaped fit: rank-deficient, maybe under-determined."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = draw(st.integers(2, 12))
    components = draw(st.integers(1, 5))
    rank = draw(st.integers(1, components))
    modes = draw(st.integers(1, 3))
    design = rng.normal(size=(pairs, rank)) @ rng.normal(size=(rank, components))
    problem = calibration._PairProblem(
        pair_design=design,
        pair_geometry=rng.uniform(0.5, 2.0, pairs),
        pair_noise=rng.uniform(0.01, 0.1, pairs),
        pair_reference=rng.uniform(0.5, 5.0, pairs),
        num_modes=modes,
    )
    start = rng.normal(size=(modes, components))
    return problem, start, draw(st.sampled_from([1, 2, 3, 5, 3000]))


def _calibration_restarts(machine, distance_m, monkeypatch):
    """Every restart ``calibrate`` fits for one target, in trial order."""
    captured = []

    def capture(*args, **kwargs):
        captured.append(_restarts(*args, **kwargs))
        return args[0]

    with monkeypatch.context() as patch:
        patch.setattr(calibration, "refine_coupling_weights", capture)
        calibration.calibrate(get_machine(machine), reference_for(machine, distance_m))
    (problem, starts, _scale), = captured
    return problem, starts


class TestTrustRegionFit:
    """The trust-region solver returns ``least_squares``'s bits."""

    @given(case=_fit_problems())
    @settings(max_examples=60, deadline=None)
    def test_matches_least_squares_on_small_problems(self, case):
        problem, start, max_nfev = case
        residuals, jacobian = _pair_fit(problem)
        x, cost = calibration._trust_region_fit(residuals, jacobian, start.ravel(), max_nfev)
        expected = _least_squares_restart(problem, start, max_nfev=max_nfev)
        assert np.array_equal(x, expected.x)
        assert cost == expected.cost

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "machine, distance_m, restarts",
        [
            ("core2duo", 0.10, 3),
            ("core2duo", 0.25, 1),
            ("core2duo", 0.50, 1),
            ("core2duo", 1.00, 1),
            ("pentium3m", 0.10, 1),
            ("turionx2", 0.10, 1),
        ],
    )
    def test_calibration_restarts_match_least_squares(
        self, machine, distance_m, restarts, monkeypatch
    ):
        problem, starts = _calibration_restarts(machine, distance_m, monkeypatch)
        for start in starts[:restarts]:
            x, cost = calibration._fit_restart(problem, start)
            expected = _least_squares_restart(problem, start)
            assert x.tobytes() == expected.x.tobytes()
            assert cost == expected.cost

    def test_calibration_never_imports_scipy_optimize(self):
        """Nor ``scipy.linalg``: the solver loads only scipy's LAPACK
        extension."""
        source = str(Path(calibration.__file__).resolve().parents[2])
        code = (
            "import sys\n"
            "from repro.machines.calibrated import load_calibrated_machine\n"
            "for machine, distance in [('core2duo', 0.10), ('core2duo', 0.50),\n"
            "                          ('core2duo', 1.00), ('pentium3m', 0.10),\n"
            "                          ('turionx2', 0.10)]:\n"
            "    load_calibrated_machine(machine, distance).calibration  # fits\n"
            "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        )
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=300,
        )
        assert result.stdout.strip() == "False False"
