"""Unit tests for the time-domain signal synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.em.coupling import CouplingMatrix, band_power_from_modes, fourier_coefficient
from repro.em import synthesis
from repro.em.synthesis import (
    JitterModel,
    period_envelope,
    sample_boundaries,
    synthesize_measurement,
    tile_period_indices,
)
from repro.errors import ConfigurationError, MeasurementError
from repro.instruments.signal_processing import band_power, periodogram_psd
from repro.uarch.activity import ActivityTrace
from repro.uarch.components import NUM_COMPONENTS


def _square_trace(cycles=1000, clock_hz=80e6) -> ActivityTrace:
    """One alternation-like period: component 0 active in the first half."""
    data = np.zeros((NUM_COMPONENTS, cycles))
    data[0, : cycles // 2] = 1.0
    return ActivityTrace(data, clock_hz=clock_hz)


def _unit_coupling(num_modes=1) -> CouplingMatrix:
    weights = np.zeros((num_modes, NUM_COMPONENTS))
    weights[:, 0] = 1.0
    return CouplingMatrix(weights, distance_m=0.1)


class TestJitterModel:
    def test_no_jitter_is_exactly_one(self, rng):
        model = JitterModel(period_sigma=0.0, drift_sigma=0.0)
        assert np.allclose(model.period_multipliers(10, rng), 1.0)

    def test_multipliers_bounded(self, rng):
        model = JitterModel(period_sigma=0.5, drift_sigma=0.1)
        multipliers = model.period_multipliers(1000, rng)
        assert np.all(multipliers >= 0.5)
        assert np.all(multipliers <= 1.5)

    def test_drift_produces_correlated_walk(self, rng):
        model = JitterModel(period_sigma=0.0, drift_sigma=1e-3)
        multipliers = model.period_multipliers(5000, rng)
        # A random walk's late values correlate with adjacent ones.
        correlation = np.corrcoef(multipliers[:-1], multipliers[1:])[0, 1]
        assert correlation > 0.9

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            JitterModel(period_sigma=-0.1)

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf")))
    @pytest.mark.parametrize("name", ("period_sigma", "drift_sigma"))
    def test_non_finite_sigma_rejected(self, name, value):
        # ``nan > 0`` is False, so a NaN sigma would otherwise switch its
        # jitter off silently; an infinite drift would give NaN periods.
        with pytest.raises(ConfigurationError, match=name):
            JitterModel(**{name: value})

    def test_zero_periods_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            JitterModel().period_multipliers(0, rng)


class TestPeriodEnvelope:
    def test_shape(self):
        envelope = period_envelope(_square_trace(), _unit_coupling(2), 64)
        assert envelope.shape[0] == 2
        assert envelope.shape[1] <= 64

    def test_preserves_mean(self):
        trace = _square_trace()
        envelope = period_envelope(trace, _unit_coupling(), 50)
        assert envelope.mean() == pytest.approx(0.5, rel=1e-6)

    def test_minimum_samples_enforced(self):
        with pytest.raises(ConfigurationError):
            period_envelope(_square_trace(), _unit_coupling(), 2)


class TestSynthesizeMeasurement:
    def test_output_shape_and_rate(self, rng):
        trace = _square_trace()
        signal = synthesize_measurement(
            trace, _unit_coupling(), duration_s=0.01, rng=rng
        )
        expected_samples = int(round(0.01 * signal.sample_rate_hz))
        assert signal.samples.shape == (1, expected_samples)
        assert signal.nominal_frequency_hz == pytest.approx(1.0 / trace.duration_s)

    def test_band_power_matches_analytic_without_jitter(self, rng):
        """The synthesized signal's fundamental band power must equal the
        analytic Fourier prediction from the one-period trace."""
        trace = _square_trace()
        coupling = _unit_coupling()
        signal = synthesize_measurement(
            trace,
            coupling,
            duration_s=0.05,
            rng=rng,
            jitter=JitterModel(period_sigma=0.0, drift_sigma=0.0),
        )
        freqs, psd = periodogram_psd(signal.samples, signal.sample_rate_hz)
        f_alt = signal.nominal_frequency_hz
        measured = band_power(freqs, psd, f_alt, 0.02 * f_alt) / 50.0
        coefficient = fourier_coefficient(coupling.project_trace(trace))
        analytic = band_power_from_modes(coefficient, impedance=50.0)
        assert measured == pytest.approx(analytic, rel=0.05)

    def test_jitter_disperses_but_conserves_band_power(self, rng):
        trace = _square_trace()
        coupling = _unit_coupling()
        signal = synthesize_measurement(
            trace,
            coupling,
            duration_s=0.05,
            rng=rng,
            jitter=JitterModel(period_sigma=2e-3, drift_sigma=1e-4),
        )
        freqs, psd = periodogram_psd(signal.samples, signal.sample_rate_hz)
        f_alt = signal.nominal_frequency_hz
        narrow = band_power(freqs, psd, f_alt, 0.001 * f_alt)
        wide = band_power(freqs, psd, f_alt, 0.05 * f_alt)
        coefficient = fourier_coefficient(coupling.project_trace(trace))
        analytic = band_power_from_modes(coefficient, impedance=50.0)
        # Dispersion: narrow band misses some power, wide band recovers it.
        assert narrow < wide
        assert wide / 50.0 == pytest.approx(analytic, rel=0.10)

    def test_nonpositive_duration_rejected(self, rng):
        with pytest.raises(MeasurementError):
            synthesize_measurement(_square_trace(), _unit_coupling(), 0.0, rng)

    @pytest.mark.parametrize("duration_s", (float("nan"), float("inf"), -float("inf")))
    def test_non_finite_duration_rejected(self, rng, duration_s):
        # A NaN duration used to end in "cannot convert float NaN to
        # integer", an infinite one in OverflowError.
        with pytest.raises(MeasurementError, match="duration") as raised:
            synthesize_measurement(_square_trace(), _unit_coupling(), duration_s, rng)
        assert "\n" not in str(raised.value)

    @pytest.mark.parametrize(
        "sample_rate_hz", (0.0, -5.0, float("nan"), float("inf"))
    )
    def test_bad_sample_rate_rejected(self, rng, sample_rate_hz):
        # A zero or negative rate used to return an empty capture.
        with pytest.raises(MeasurementError, match="sample rate") as raised:
            synthesize_measurement(
                _square_trace(), _unit_coupling(), 0.01, rng,
                sample_rate_hz=sample_rate_hz,
            )
        assert "\n" not in str(raised.value)

    def test_multimode(self, rng):
        signal = synthesize_measurement(
            _square_trace(), _unit_coupling(3), duration_s=0.005, rng=rng
        )
        assert signal.num_modes == 3

    def test_precomputed_envelope_is_bit_identical(self):
        """Passing the hoisted period envelope (the batched repetition
        path) must not change a single output bit."""
        trace = _square_trace()
        coupling = _unit_coupling(2)
        kwargs = dict(duration_s=0.01, rng=None, jitter=JitterModel(0.0, 0.0))
        baseline = synthesize_measurement(trace, coupling, **kwargs)
        hoisted = synthesize_measurement(
            trace, coupling, envelope=period_envelope(trace, coupling), **kwargs
        )
        assert np.array_equal(baseline.samples, hoisted.samples)

    @staticmethod
    def _jittered_signal(coupling, seed=11, duration_s=0.01):
        trace = _square_trace()
        jitter = JitterModel(period_sigma=5e-3, drift_sigma=1e-4)
        return synthesize_measurement(
            trace, coupling, duration_s, np.random.default_rng(seed), jitter=jitter,
            sample_rate_hz=32 / trace.duration_s,
        )

    def test_samples_equal_fancy_index_gather(self):
        """The streamed samples are bit-identical to gathering the
        envelope at the whole-grid tiling indices."""
        trace = _square_trace()
        coupling = _unit_coupling(3)
        duration_s, sample_rate_hz = 0.01, 32 / trace.duration_s
        signal = self._jittered_signal(coupling, duration_s=duration_s)
        # The same jittered tiling, rebuilt step by step.
        envelope = period_envelope(trace, coupling)
        jitter = JitterModel(period_sigma=5e-3, drift_sigma=1e-4)
        num_periods = int(np.ceil(duration_s / trace.duration_s * 1.1)) + 4
        rng = np.random.default_rng(11)
        durations = trace.duration_s * jitter.period_multipliers(num_periods, rng)
        starts = np.concatenate(([0.0], np.cumsum(durations)))
        times = np.arange(signal.num_samples) / sample_rate_hz
        index = tile_period_indices(starts, durations, times, envelope.shape[1])
        assert np.array_equal(signal.samples, envelope[:, index])

    @pytest.mark.parametrize("chunk", (1, 7, 31, 1 << 15))
    def test_fill_any_run_matches_samples(self, monkeypatch, chunk):
        """Every run of samples fills the same values, whatever the
        chunking: runs and chunks start and end inside periods, and the
        sample count is no multiple of the chunk."""
        signal = self._jittered_signal(_unit_coupling(2), seed=3)
        monkeypatch.setattr(synthesis, "FILL_CHUNK_SAMPLES", chunk)
        whole = signal.samples
        assert whole.shape == (2, signal.num_samples)
        assert signal.num_samples % 7 != 0
        for start, stop in ((0, 1), (5, 40), (33, 1000), (999, signal.num_samples)):
            # A strided view, as the band analyzer's workspace slice is.
            workspace = np.full((2, stop - start + 9), -1.0)
            view = workspace[:, 4 : 4 + stop - start]
            signal.fill(view, start)
            assert np.array_equal(view, whole[:, start:stop])
            assert np.all(workspace[:, :4] == -1.0)
            assert np.all(workspace[:, 4 + stop - start :] == -1.0)

    @pytest.mark.parametrize("chunk", (7, 1 << 15))
    def test_one_row_fill_yields_each_mode_in_turn(self, monkeypatch, chunk):
        """Filling one shared row mode by mode writes, at each step, the
        row that filling a row per mode writes for that mode."""
        signal = self._jittered_signal(_unit_coupling(3), seed=5)
        monkeypatch.setattr(synthesis, "FILL_CHUNK_SAMPLES", chunk)
        whole = signal.samples
        start, stop = 33, signal.num_samples - 2
        workspace = np.full((1, stop - start + 4), -1.0)
        row = workspace[:, 2 : 2 + stop - start]
        seen = []
        for mode in signal.fill_modes(row, start):
            assert np.array_equal(row[0], whole[mode, start:stop])
            seen.append(mode)
        assert seen == [0, 1, 2]
        assert np.all(workspace[:, :2] == -1.0) and np.all(workspace[:, -2:] == -1.0)

    @pytest.mark.parametrize(
        "envelope_samples, dtype",
        # A 1000-cycle period collapses to 62 and to 500 envelope points.
        ((64, np.uint8), (600, np.uint16)),
    )
    def test_sample_map_is_the_narrowest_unsigned_dtype(self, envelope_samples, dtype):
        signal = synthesize_measurement(
            _square_trace(), _unit_coupling(2), 0.01, None,
            jitter=JitterModel(0.0, 0.0), envelope_samples=envelope_samples,
        )
        sample_map = signal._sample_map(0, signal.num_samples)
        assert sample_map.dtype == dtype
        assert int(sample_map.max()) == signal.envelope.shape[1] - 1

    def test_deterministic_tiling_fills_the_same_samples(self):
        signal = synthesize_measurement(
            _square_trace(), _unit_coupling(2), 0.01, None, jitter=JitterModel(0.0, 0.0)
        )
        out = np.empty((2, 100))
        signal.fill(out, 250)
        assert np.array_equal(out, signal.samples[:, 250:350])

    def test_fill_outside_the_capture_rejected(self):
        signal = synthesize_measurement(
            _square_trace(), _unit_coupling(), 0.01, None, jitter=JitterModel(0.0, 0.0)
        )
        end = signal.num_samples
        for modes, start, length in ((2, 0, 10), (1, -1, 10), (1, end - 5, 10)):
            with pytest.raises(MeasurementError, match="cannot fill"):
                signal.fill(np.empty((modes, length)), start)
            with pytest.raises(MeasurementError, match="cannot fill"):
                next(signal.fill_modes(np.empty((modes, length)), start))

    def test_fill_needs_a_row_per_mode(self):
        """Only :meth:`fill_modes` shares one row between modes."""
        signal = synthesize_measurement(
            _square_trace(), _unit_coupling(2), 0.01, None, jitter=JitterModel(0.0, 0.0)
        )
        with pytest.raises(MeasurementError, match="cannot fill"):
            signal.fill(np.empty((1, 10)), 0)
        with pytest.raises(MeasurementError, match="cannot fill"):
            next(signal.fill_modes(np.empty((3, 10)), 0))


class TestSampleBoundaries:
    @given(
        num_samples=st.integers(0, 5000),
        sample_rate_hz=st.floats(1e3, 1e8),
        fractions=st.lists(st.floats(-0.1, 1.2), min_size=1, max_size=40),
        jitter=st.sampled_from((0.0, 0.5, 1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_searchsorted_on_the_grid(
        self, num_samples, sample_rate_hz, fractions, jitter
    ):
        """Property: the grid-free search equals ``searchsorted`` on the
        materialized time grid, including starts exactly on a sample
        time (``jitter=0``) and a quarter or half step past one."""
        grid = np.arange(num_samples) / sample_rate_hz
        span = max(num_samples, 1) / sample_rate_hz
        starts = np.sort(np.array(fractions)) * span
        on_grid = np.round(np.array(fractions) * num_samples) + jitter / 2
        on_grid /= sample_rate_hz
        for candidate in (starts, np.sort(on_grid)):
            expected = np.searchsorted(grid, candidate, "left")
            assert np.array_equal(
                sample_boundaries(candidate, num_samples, sample_rate_hz), expected
            )

    def test_synthesis_geometry(self):
        """Jittered cumsum starts on a 1 s, 32x-oversampled capture."""
        rng = np.random.default_rng(2014)
        fs = 32 * 80e3
        durations = JitterModel().period_multipliers(88004, rng) / 80e3
        starts = np.concatenate(([0.0], np.cumsum(durations)))
        num_samples = int(round(fs))
        expected = np.searchsorted(np.arange(num_samples) / fs, starts, "left")
        assert np.array_equal(sample_boundaries(starts, num_samples, fs), expected)


def _reference_tile_indices(starts, durations, times, points_per_period):
    """The pre-vectorization formulation, kept as the executable spec."""
    num_periods = len(durations)
    period_index = np.clip(
        np.searchsorted(starts, times, "right") - 1, 0, num_periods - 1
    )
    phase = (times - starts[period_index]) / durations[period_index]
    return np.clip(
        (phase * points_per_period).astype(np.int64), 0, points_per_period - 1
    )


class TestTilePeriodIndices:
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_periods=st.integers(1, 50),
        num_samples=st.integers(1, 2000),
        points_per_period=st.integers(1, 128),
        period_sigma=st.floats(0.0, 0.4),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_formulation(
        self, seed, num_periods, num_samples, points_per_period, period_sigma
    ):
        """Property: the repeat-expanded search is bit-identical to the
        reference gather over jittered period boundaries."""
        rng = np.random.default_rng(seed)
        nominal = 1.25e-5
        durations = nominal * np.clip(
            1.0 + rng.normal(0.0, period_sigma, num_periods), 0.5, 1.5
        )
        starts = np.concatenate(([0.0], np.cumsum(durations)))
        # Sample only within the covered interval, as synthesis does.
        times = np.sort(rng.uniform(0.0, starts[-1] * 0.999, num_samples))
        fast = tile_period_indices(starts, durations, times, points_per_period)
        reference = _reference_tile_indices(
            starts, durations, times, points_per_period
        )
        assert np.array_equal(fast, reference)
        assert fast.dtype == np.int64

    def test_uniform_measurement_grid(self):
        """The synthesis geometry itself (regular grid, cumsum starts)
        matches the reference gather, boundary rounding included."""
        duration = 1.0 / 80e3
        durations = np.full(10, duration)
        starts = np.concatenate(([0.0], np.cumsum(durations)))
        times = np.arange(320) / (32 * 80e3)
        indices = tile_period_indices(starts, durations, times, 64)
        reference = _reference_tile_indices(starts, durations, times, 64)
        assert np.array_equal(indices, reference)
        # Each 32-sample period walks the 64-point envelope start to end.
        assert indices[0] == 0
        assert np.all(np.diff(indices[:32]) >= 1)
        assert indices[31] >= 60
