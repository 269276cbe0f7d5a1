"""Parity of the band-limited analyzer against the reference analyzer.

Mirrors ``tests/core/test_fastpath_bit_identity.py``: the band-limited
spectral path (the default for ``method="full"`` measurements) is only
allowed to exist because the full-spectrum reference analyzer produces
the same ``savat_zj`` to better than 1e-9 relative, with bit-identical
noise realizations (the rng streams stay in lockstep).  These tests pin
the toggle semantics, the per-sample agreement budget, and the
bit-identity of the batched repetition path against the historical
per-repetition loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.savat import (
    MeasurementConfig,
    _plan_pair,
    measure_savat,
    measure_savat_samples,
    simulate_alternation_period,
)
from repro.instruments.analyzer_path import (
    REFERENCE_ANALYZER_ENV,
    band_analyzer_enabled,
    reference_analyzer_enabled,
    set_band_analyzer,
    use_band_analyzer,
    use_reference_analyzer,
)
from repro.isa.events import get_event
from repro.machines.calibrated import load_calibrated_machine

#: Small full-signal-path configuration: 0.04 s at RBW 25 Hz keeps the
#: reference analyzer's full-length transforms fast while exercising the
#: whole synthesize -> analyze -> integrate pipeline.
SMALL_FULL = MeasurementConfig(method="full", duration_s=0.04, rbw_hz=25.0)


@pytest.fixture(autouse=True)
def follow_environment(monkeypatch):
    """Start every test on the default path with a clean environment."""
    monkeypatch.delenv(REFERENCE_ANALYZER_ENV, raising=False)
    set_band_analyzer(None)
    yield
    set_band_analyzer(None)


@pytest.fixture(scope="module")
def add_ldm_period(core2duo_10cm):
    """One simulated ADD/LDM alternation period, shared by the module."""
    plan = _plan_pair(core2duo_10cm, get_event("ADD"), get_event("LDM"), 80e3)
    return simulate_alternation_period(core2duo_10cm, plan)


class TestToggle:
    def test_band_analyzer_is_the_default(self):
        assert band_analyzer_enabled()
        assert not reference_analyzer_enabled()

    @pytest.mark.parametrize("value", ("1", "true", "YES", " on "))
    def test_truthy_environment_forces_reference(self, monkeypatch, value):
        monkeypatch.setenv(REFERENCE_ANALYZER_ENV, value)
        assert reference_analyzer_enabled()

    @pytest.mark.parametrize("value", ("", "0", "off", "banana"))
    def test_other_environment_values_keep_band(self, monkeypatch, value):
        monkeypatch.setenv(REFERENCE_ANALYZER_ENV, value)
        assert band_analyzer_enabled()

    def test_context_managers_nest_and_restore(self, monkeypatch):
        monkeypatch.setenv(REFERENCE_ANALYZER_ENV, "1")
        assert reference_analyzer_enabled()
        with use_band_analyzer():
            assert band_analyzer_enabled()
            with use_reference_analyzer():
                assert reference_analyzer_enabled()
            assert band_analyzer_enabled()
        # Back to following the (reference-forcing) environment.
        assert reference_analyzer_enabled()

    def test_force_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(REFERENCE_ANALYZER_ENV, "1")
        set_band_analyzer(True)
        assert band_analyzer_enabled()
        set_band_analyzer(None)
        assert reference_analyzer_enabled()


class TestBandReferenceParity:
    def test_seeded_measurement_within_budget(self, core2duo_10cm, add_ldm_period):
        """Same seed, both analyzers: savat_zj within 1e-9 relative."""
        trace, plan = add_ldm_period
        with use_band_analyzer():
            fast = measure_savat(
                core2duo_10cm, "ADD", "LDM", SMALL_FULL,
                rng=np.random.default_rng(2014), trace=trace, plan=plan,
            )
        with use_reference_analyzer():
            reference = measure_savat(
                core2duo_10cm, "ADD", "LDM", SMALL_FULL,
                rng=np.random.default_rng(2014), trace=trace, plan=plan,
            )
        assert fast.savat_zj == pytest.approx(reference.savat_zj, rel=1e-9)
        assert fast.signal_band_power_w == pytest.approx(
            reference.signal_band_power_w, rel=1e-9
        )
        assert fast.noise_band_power_w == pytest.approx(
            reference.noise_band_power_w, rel=1e-9, abs=1e-30
        )

    def test_deterministic_measurement_within_budget(self, core2duo_10cm, add_ldm_period):
        trace, plan = add_ldm_period
        with use_band_analyzer():
            fast = measure_savat(
                core2duo_10cm, "ADD", "LDM", SMALL_FULL, trace=trace, plan=plan
            )
        with use_reference_analyzer():
            reference = measure_savat(
                core2duo_10cm, "ADD", "LDM", SMALL_FULL, trace=trace, plan=plan
            )
        assert fast.savat_zj == pytest.approx(reference.savat_zj, rel=1e-9)

    def test_band_spectrum_is_the_reference_slice(self, core2duo_10cm, add_ldm_period):
        """The band path's recorded spectrum holds exactly the reference
        sweep's bins over the measurement band."""
        trace, plan = add_ldm_period
        with use_band_analyzer():
            fast = measure_savat(
                core2duo_10cm, "ADD", "LDM", SMALL_FULL, trace=trace, plan=plan
            )
        with use_reference_analyzer():
            reference = measure_savat(
                core2duo_10cm, "ADD", "LDM", SMALL_FULL, trace=trace, plan=plan
            )
        f_center = SMALL_FULL.alternation_frequency_hz
        half = SMALL_FULL.band_half_width_hz
        window = reference.spectrum.slice(f_center - half, f_center + half)
        assert np.array_equal(fast.spectrum.freqs_hz, window.freqs_hz)
        scale = float(np.max(window.psd_w_per_hz))
        assert np.max(
            np.abs(fast.spectrum.psd_w_per_hz - window.psd_w_per_hz)
        ) <= 1e-9 * scale


#: Full-method ``measure_savat_samples`` of ADD/LDM under ``SMALL_FULL``
#: per mode count, as ``float.hex``: two seeded repetitions (seed 2014)
#: and the deterministic sample.  How the analyzer stages the field
#: modes must not move a bit of them.
FULL_METHOD_PINS = {
    1: (("0x1.a2f8ea368d924p+3", "0x1.3353a0b4f217cp+2"), "0x1.0a58b92bd5715p+4"),
    2: (("0x1.8bb7698e1bacfp+1", "0x1.767b076c98e0cp+1"), "0x1.476ab43a41459p+1"),
    3: (("0x1.8d7ce59820c28p+1", "0x1.7931de37b6859p+1"), "0x1.500247084494cp+1"),
}


class TestFullMethodPins:
    @pytest.mark.parametrize("num_modes", sorted(FULL_METHOD_PINS))
    def test_samples_are_pinned_bit_for_bit(self, add_ldm_period, num_modes):
        machine = load_calibrated_machine("core2duo", 0.10, num_modes=num_modes)
        trace, plan = add_ldm_period
        seeded = measure_savat_samples(
            machine, "ADD", "LDM", SMALL_FULL,
            rng=np.random.default_rng(2014), trace=trace, plan=plan, repetitions=2,
        )
        deterministic = measure_savat_samples(
            machine, "ADD", "LDM", SMALL_FULL, trace=trace, plan=plan, repetitions=1,
        )
        pinned_seeded, pinned_deterministic = FULL_METHOD_PINS[num_modes]
        assert [float(value).hex() for value in seeded] == list(pinned_seeded)
        assert float(deterministic[0]).hex() == pinned_deterministic


class TestBatchedRepetitions:
    @staticmethod
    def _looped_and_batched(machine, trace, plan, config, repetitions=4):
        loop_rng = np.random.default_rng(99)
        looped = np.array(
            [
                measure_savat(
                    machine, "ADD", "LDM", config,
                    rng=loop_rng, trace=trace, plan=plan,
                ).savat_zj
                for _ in range(repetitions)
            ]
        )
        batched = measure_savat_samples(
            machine, "ADD", "LDM", config,
            rng=np.random.default_rng(99), trace=trace, plan=plan,
            repetitions=repetitions,
        )
        return looped, batched

    def test_batched_analytic_is_bit_identical(self, core2duo_10cm, add_ldm_period):
        """The analytic batch hoists only a pure function of the trace,
        so it reproduces the historical per-repetition loop bit for bit
        (the campaign golden values and checksums depend on this)."""
        trace, plan = add_ldm_period
        looped, batched = self._looped_and_batched(
            core2duo_10cm, trace, plan, MeasurementConfig()
        )
        assert np.array_equal(batched, looped)

    def test_batched_full_matches_repeated_loop(self, core2duo_10cm, add_ldm_period):
        """The full-method batch re-tiles a hoisted envelope through a
        reused sample buffer; every random draw happens in the same
        order as the loop, and the samples agree to the last couple of
        ulp (buffer alignment can flip the final bit of SIMD
        reductions), far inside the pipeline's 1e-9 budget."""
        trace, plan = add_ldm_period
        looped, batched = self._looped_and_batched(
            core2duo_10cm, trace, plan, SMALL_FULL
        )
        np.testing.assert_allclose(batched, looped, rtol=1e-12)

    def test_nonpositive_repetitions_rejected(self, core2duo_10cm, add_ldm_period):
        from repro.errors import ConfigurationError

        trace, plan = add_ldm_period
        with pytest.raises(ConfigurationError):
            measure_savat_samples(
                core2duo_10cm, "ADD", "LDM", trace=trace, plan=plan, repetitions=0
            )

    def test_deterministic_batch_constant(self, core2duo_10cm, add_ldm_period):
        """Without an rng every repetition is the expected-value sample."""
        trace, plan = add_ldm_period
        batched = measure_savat_samples(
            core2duo_10cm, "ADD", "LDM", SMALL_FULL,
            trace=trace, plan=plan, repetitions=3,
        )
        assert np.all(batched == batched[0])


@pytest.mark.slow
def test_full_size_measurement_within_budget(core2duo_10cm):
    """Paper-scale geometry (1 s at RBW 1 Hz): the acceptance bound.

    One seeded ADD/LDM repetition through both analyzers; every measured
    band power and the SAVAT agree within 1e-9 relative.
    """
    config = MeasurementConfig(method="full")
    plan = _plan_pair(core2duo_10cm, get_event("ADD"), get_event("LDM"), 80e3)
    trace, plan = simulate_alternation_period(core2duo_10cm, plan)
    with use_band_analyzer():
        fast = measure_savat(
            core2duo_10cm, "ADD", "LDM", config,
            rng=np.random.default_rng(7), trace=trace, plan=plan,
        )
    with use_reference_analyzer():
        reference = measure_savat(
            core2duo_10cm, "ADD", "LDM", config,
            rng=np.random.default_rng(7), trace=trace, plan=plan,
        )
    assert fast.savat_zj == pytest.approx(reference.savat_zj, rel=1e-9)
    assert fast.signal_band_power_w == pytest.approx(
        reference.signal_band_power_w, rel=1e-9
    )
    assert fast.noise_band_power_w == pytest.approx(
        reference.noise_band_power_w, rel=1e-9, abs=1e-30
    )
