"""Tests for the pairwise SAVAT measurement pipeline."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from repro.codegen.frequency import measure_cycles_per_iteration, plan_for_cycles
from repro.core.executor import execute_campaign
from repro.core.savat import (
    MeasurementConfig,
    _plan_pair,
    clear_cpi_cache,
    measure_savat,
    measure_savat_samples,
    simulate_alternation_period,
)
from repro.errors import ConfigurationError
from repro.isa.events import EVENT_ORDER, get_event
from repro.machines import calibration
from repro.machines.calibration import clear_profile_cache
from repro.machines.reference_data import CORE2DUO_10CM
from repro.uarch.activity import ActivityRecorder
from repro.uarch.core import Core

#: A 10x higher alternation frequency shrinks each simulated period 10x
#: without changing the code paths.
FAST_CONFIG = MeasurementConfig(alternation_frequency_hz=800e3)


class TestMeasurementConfig:
    def test_paper_defaults(self):
        config = MeasurementConfig()
        assert config.alternation_frequency_hz == pytest.approx(80e3)
        assert config.band_half_width_hz == pytest.approx(1e3)
        assert config.rbw_hz == pytest.approx(1.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(method="guesswork")

    def test_with_method(self):
        config = MeasurementConfig().with_method("full")
        assert config.method == "full"

    def test_synthesis_alias_normalizes_to_full(self):
        config = MeasurementConfig().with_method("synthesis")
        assert config.method == "full"

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(alternation_frequency_hz=0.0)

    def test_negative_duration_rejected_regardless_of_rbw(self):
        # Regression: the old check compared duration (s) against RBW
        # (Hz) and let a negative duration through whenever the RBW was
        # numerically smaller.
        with pytest.raises(ConfigurationError):
            MeasurementConfig(duration_s=-1.0, rbw_hz=-2.0)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(duration_s=-1.0)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(duration_s=0.0)

    def test_non_positive_rbw_rejected(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(rbw_hz=0.0)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(rbw_hz=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alternation_frequency_hz", float("nan")),
            ("band_half_width_hz", float("nan")),
            ("rbw_hz", float("inf")),
            ("duration_s", float("nan")),
            ("loop_noise_fraction", float("nan")),
        ],
    )
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            MeasurementConfig(**{field: value})


@pytest.mark.slow
class TestMeasureSavat:
    def test_deterministic_without_rng(self, core2duo_10cm):
        first = measure_savat(core2duo_10cm, "ADD", "MUL")
        second = measure_savat(core2duo_10cm, "ADD", "MUL")
        assert first.savat_zj == pytest.approx(second.savat_zj)

    def test_event_names_accepted(self, core2duo_10cm):
        result = measure_savat(core2duo_10cm, "add", get_event("LDL1"))
        assert result.event_a == "ADD"
        assert result.event_b == "LDL1"

    def test_diagonal_reproduces_reference_floor(self, core2duo_10cm):
        result = measure_savat(core2duo_10cm, "ADD", "ADD")
        assert result.savat_zj == pytest.approx(CORE2DUO_10CM.cell("ADD", "ADD"), rel=0.2)

    def test_high_savat_pair_tracks_reference(self, core2duo_10cm):
        result = measure_savat(core2duo_10cm, "STL2", "DIV")
        assert result.savat_zj == pytest.approx(CORE2DUO_10CM.cell("STL2", "DIV"), rel=0.4)

    def test_achieved_frequency_near_target(self, core2duo_10cm):
        for pair in (("ADD", "SUB"), ("LDM", "STM"), ("STL2", "STM")):
            result = measure_savat(core2duo_10cm, *pair)
            assert result.achieved_frequency_hz == pytest.approx(80e3, rel=0.03)

    def test_rng_repetitions_vary_about_five_percent(self, core2duo_10cm, rng):
        config = MeasurementConfig()
        plan = _plan_pair(core2duo_10cm, get_event("ADD"), get_event("LDL2"), 80e3)
        trace, plan = simulate_alternation_period(core2duo_10cm, plan)
        samples = np.array(
            [
                measure_savat(
                    core2duo_10cm, "ADD", "LDL2", config, rng=rng, trace=trace, plan=plan
                ).savat_zj
                for _ in range(40)
            ]
        )
        ratio = samples.std() / samples.mean()
        assert 0.02 < ratio < 0.12  # the paper reports ~0.05

    def test_pairs_per_second_consistent(self, core2duo_10cm):
        result = measure_savat(core2duo_10cm, "ADD", "MUL")
        expected = result.plan.spec.inst_loop_count * result.achieved_frequency_hz
        assert result.pairs_per_second == pytest.approx(expected)

    def test_str(self, core2duo_10cm):
        text = str(measure_savat(core2duo_10cm, "ADD", "MUL"))
        assert "SAVAT(ADD/MUL)" in text
        assert "zJ" in text


class TestPlanPair:
    def test_plan_follows_the_spec_not_its_name(self, core2duo_10cm):
        """A spec that keeps the name ``core2duo`` but has a 3x divider
        is planned from its own CPIs, even after the stock spec's."""
        div, add = get_event("DIV"), get_event("ADD")
        stock = _plan_pair(core2duo_10cm, div, add, 80e3)
        spec = core2duo_10cm.spec
        slow_spec = dataclasses.replace(
            spec, timings=dataclasses.replace(spec.timings, div_cycles=3 * spec.timings.div_cycles)
        )
        slow = dataclasses.replace(core2duo_10cm, spec=slow_spec)
        assert slow.name == core2duo_10cm.name

        planned = _plan_pair(slow, div, add, 80e3)
        expected = plan_for_cycles(
            div,
            add,
            measure_cycles_per_iteration(slow_spec.make_core(), div),
            measure_cycles_per_iteration(slow_spec.make_core(), add),
            slow_spec.clock_hz,
            slow_spec.l1_geometry,
            slow_spec.l2_geometry,
            80e3,
        )
        assert planned == expected
        assert planned.spec.inst_loop_count < stock.spec.inst_loop_count

    def test_clear_cpi_cache_drops_the_profiles_it_plans_from(self, core2duo_10cm):
        _plan_pair(core2duo_10cm, get_event("DIV"), get_event("ADD"), 80e3)
        assert core2duo_10cm.spec in calibration._PROFILES
        clear_cpi_cache()
        assert not calibration._PROFILES


@pytest.mark.slow
class TestSynthesisMethod:
    def test_synthesis_agrees_with_analytic(self, core2duo_10cm):
        """The two measurement paths are independent implementations of
        the same physics; they must agree on a strong pair."""
        analytic = measure_savat(core2duo_10cm, "ADD", "LDL2")
        config = MeasurementConfig(method="synthesis", duration_s=0.25, rbw_hz=8.0)
        synthesis = measure_savat(core2duo_10cm, "ADD", "LDL2", config)
        assert synthesis.savat_zj == pytest.approx(analytic.savat_zj, rel=0.25)

    def test_synthesis_returns_spectrum(self, core2duo_10cm):
        config = MeasurementConfig(method="synthesis", duration_s=0.1, rbw_hz=20.0)
        result = measure_savat(core2duo_10cm, "ADD", "LDM", config)
        assert result.spectrum is not None
        peak = result.spectrum.peak_hz(75e3, 85e3)
        assert peak == pytest.approx(result.achieved_frequency_hz, rel=0.02)


@pytest.mark.slow
class TestStreamedCapture:
    def test_warm_full_cell_allocates_no_capture(self, core2duo_10cm):
        """The paper's 1 s, 1 Hz RBW full-method cell never holds a
        capture-sized array: once the analyzer's workspace, window and
        zoom plan exist, measuring a cell again allocates less at its
        peak than one mode of the capture would take."""
        plan = _plan_pair(core2duo_10cm, get_event("ADD"), get_event("LDM"), 80e3)
        trace, plan = simulate_alternation_period(core2duo_10cm, plan)
        config = MeasurementConfig(method="full")

        def cell(seed):
            return measure_savat_samples(
                core2duo_10cm, "ADD", "LDM", config,
                rng=np.random.default_rng(seed), trace=trace, plan=plan,
                repetitions=2,
            )

        warm = cell(1)
        tracemalloc.start()
        try:
            again = cell(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(again, warm)
        num_samples = round(config.duration_s * 32 / trace.duration_s)
        assert num_samples > 2_000_000
        assert peak < 8 * num_samples


@pytest.mark.slow
class TestSteadyStateEffects:
    def test_stl2_with_stm_partner_stays_on_frequency(self, core2duo_10cm):
        """Pair-context cache interference (the STM sweep evicting the
        STL2 array from L2) must be handled by the frequency re-tuning."""
        result = measure_savat(core2duo_10cm, "STL2", "STM")
        assert result.achieved_frequency_hz == pytest.approx(80e3, rel=0.03)

    def test_order_is_nearly_symmetric(self, core2duo_10cm):
        forward = measure_savat(core2duo_10cm, "ADD", "LDL2")
        backward = measure_savat(core2duo_10cm, "LDL2", "ADD")
        assert forward.savat_zj == pytest.approx(backward.savat_zj, rel=0.15)


@pytest.mark.slow
class TestKeptTracesOnly:
    """Trace production materializes only the trace each cell keeps."""

    @staticmethod
    def _campaign(machine):
        events = [get_event("ADD"), get_event("LDM")]
        return execute_campaign(machine, events, config=FAST_CONFIG, repetitions=1)

    def test_finish_runs_once_per_kept_trace(self, core2duo_10cm, monkeypatch):
        calls = {"run": 0, "finish": 0}
        run = Core.run
        finish = ActivityRecorder.finish

        def counting_run(self, *args, **kwargs):
            calls["run"] += 1
            return run(self, *args, **kwargs)

        def counting_finish(self, num_cycles):
            calls["finish"] += 1
            return finish(self, num_cycles)

        monkeypatch.setattr(Core, "run", counting_run)
        monkeypatch.setattr(ActivityRecorder, "finish", counting_finish)
        clear_profile_cache()
        self._campaign(core2duo_10cm)
        # Profiling runs a CPI probe and an activity run per paper event,
        # and each cell a warm-up and a measured run, yet only the
        # activity runs and the four measured periods are materialized.
        assert calls["run"] >= 2 * len(EVENT_ORDER) + 2 * 4
        assert calls["finish"] == len(EVENT_ORDER) + 4

    def test_kept_trace_is_timed_as_core_run(self, core2duo_10cm, monkeypatch):
        finish = ActivityRecorder.finish

        def slow_finish(self, num_cycles):
            time.sleep(0.05)
            return finish(self, num_cycles)

        monkeypatch.setattr(ActivityRecorder, "finish", slow_finish)
        _samples, stats = self._campaign(core2duo_10cm)
        cell_seconds = stats.cell_seconds
        assert len(stats.cell_phase_seconds) == 4
        for pair, phases in stats.cell_phase_seconds.items():
            assert phases["core_run"] >= 0.05
            assert sum(phases.values()) <= cell_seconds[pair]
