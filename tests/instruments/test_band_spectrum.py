"""Band-limited estimators against the full-spectrum reference.

The band path (:class:`ZoomBandPlan`, :func:`band_periodogram_psd`,
:func:`band_welch_psd`, :meth:`SpectrumAnalyzer.measure_band`) is only
allowed to exist because slicing the reference full-spectrum result to
the same bins is indistinguishable within the pipeline's 1e-9 agreement
budget — and bit-identical wherever the implementations share code
paths (frequency grids, noise realizations, interferer spreading).
These tests prove those properties over randomized signals, band
placements, and adversarial transform lengths.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.em import synthesis
from repro.em.coupling import CouplingMatrix
from repro.em.environment import (
    NoiseEnvironment,
    RadioInterferer,
    quiet_lab_environment,
)
from repro.errors import MeasurementError
from repro.instruments.signal_processing import (
    ZoomBandPlan,
    band_bin_range,
    band_periodogram_psd,
    band_power,
    band_welch_psd,
    get_zoom_plan,
    periodogram_psd,
    rfft_bin_width,
    welch_psd,
)
from repro.instruments import signal_processing, spectrum_analyzer
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.uarch.activity import ActivityTrace
from repro.uarch.components import NUM_COMPONENTS


def _mixed_signal(rng, modes, num_samples, fs):
    """Tones riding on noise, exercising both coherent and broad bins."""
    t = np.arange(num_samples) / fs
    samples = rng.normal(0.0, 0.3, size=(modes, num_samples))
    for mode in range(modes):
        f0 = fs * (0.05 + 0.4 * rng.random())
        samples[mode] += np.cos(2 * np.pi * f0 * t + rng.random())
    return samples


class TestBandBinRange:
    @given(
        num_samples=st.integers(16, 5000),
        center_fraction=st.floats(0.01, 0.49),
        width_fraction=st.floats(1e-4, 0.2),
        fs=st.floats(1e3, 1e7),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_band_power_mask(
        self, num_samples, center_fraction, width_fraction, fs
    ):
        """Property: the arithmetic bin range selects exactly the bins
        the reference boolean mask in band_power selects."""
        f_center = center_fraction * fs
        half_width = width_fraction * fs
        freqs = np.fft.rfftfreq(num_samples, d=1.0 / fs)
        mask = (freqs >= f_center - half_width) & (freqs <= f_center + half_width)
        if not mask.any():
            with pytest.raises(MeasurementError):
                band_bin_range(num_samples, fs, f_center, half_width)
            return
        k_lo, k_hi = band_bin_range(num_samples, fs, f_center, half_width)
        indices = np.where(mask)[0]
        assert (k_lo, k_hi) == (indices[0], indices[-1])

    def test_band_outside_range_rejected(self):
        with pytest.raises(MeasurementError):
            band_bin_range(1024, 1e4, 1e6, 10.0)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(MeasurementError):
            band_bin_range(1024, 1e4, 1e3, 0.0)

    @pytest.mark.parametrize(
        "f_center, half_width",
        ((float("nan"), 10.0), (1e3, float("nan")), (float("inf"), 10.0),
         (1e3, float("inf")), (-float("inf"), 10.0)),
    )
    def test_non_finite_edges_rejected(self, f_center, half_width):
        # A NaN edge used to select the DC bin alone (the reference
        # band_power raises); an infinite one ended in OverflowError.
        with pytest.raises(MeasurementError, match="finite"):
            band_bin_range(1024, 1e4, f_center, half_width)
        with pytest.raises(MeasurementError, match="finite"):
            SpectrumAnalyzer().measure_band(
                np.ones(1024), f_center, half_width, sample_rate_hz=1024.0
            )

    def test_bin_width_matches_rfftfreq(self):
        for n in (7, 64, 1023, 2_562_392):
            freqs = np.fft.rfftfreq(n, d=1.0 / 31977.0)
            assert rfft_bin_width(n, 31977.0) == freqs[1]


class TestZoomBandPlan:
    @pytest.mark.parametrize(
        "num_samples",
        # Powers of two, primes, prime*2 (Bluestein territory), and the
        # smallest legal lengths.
        (2, 3, 16, 17, 997, 1024, 1031, 2 * 1499, 4096),
    )
    def test_transform_matches_rfft(self, rng, num_samples):
        k_hi = num_samples // 2
        k_lo = max(0, k_hi - 40)
        plan = ZoomBandPlan(num_samples, k_lo, k_hi)
        samples = rng.normal(0.0, 1.0, size=(2, num_samples))
        reference = np.fft.rfft(samples, axis=-1)[:, k_lo : k_hi + 1]
        zoomed = plan.transform(samples)
        assert np.max(np.abs(zoomed - reference)) <= 1e-10 * max(
            1.0, np.max(np.abs(reference))
        )

    @given(
        num_samples=st.integers(8, 3000),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_transform_matches_rfft_property(self, num_samples, seed, data):
        top = num_samples // 2
        k_lo = data.draw(st.integers(0, top))
        k_hi = data.draw(st.integers(k_lo, top))
        rng = np.random.default_rng(seed)
        samples = rng.normal(0.0, 1.0, size=num_samples)
        plan = ZoomBandPlan(num_samples, k_lo, k_hi)
        reference = np.fft.rfft(samples)[k_lo : k_hi + 1]
        zoomed = plan.transform(samples)[0]
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(zoomed - reference)) <= 1e-9 * scale

    def test_frequencies_bit_equal_to_rfftfreq(self):
        fs = 2_562_392.0 / 1.0  # a SAVAT-like non-round rate
        n = 102_400
        plan = ZoomBandPlan(n, 3100, 3300)
        reference = np.fft.rfftfreq(n, d=1.0 / fs)[3100:3301]
        assert np.array_equal(plan.frequencies(fs), reference)

    def test_frequencies_cached_and_read_only(self):
        plan = ZoomBandPlan(256, 10, 20)
        first = plan.frequencies(1e4)
        assert plan.frequencies(1e4) is first
        with pytest.raises(ValueError):
            first[0] = -1.0

    def test_invalid_bin_range_rejected(self):
        with pytest.raises(MeasurementError):
            ZoomBandPlan(64, 20, 10)
        with pytest.raises(MeasurementError):
            ZoomBandPlan(64, 0, 33)

    def test_plan_cache_reuses_geometry(self):
        first = get_zoom_plan(512, 5, 9)
        assert get_zoom_plan(512, 5, 9) is first
        assert get_zoom_plan(512, 5, 10) is not first


class TestBandPeriodogram:
    @given(
        seed=st.integers(0, 2**32 - 1),
        modes=st.integers(1, 3),
        num_samples=st.integers(32, 4096),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_sliced_reference(self, seed, modes, num_samples, data):
        """Property: band bins equal the reference estimator's slice."""
        top = num_samples // 2
        k_lo = data.draw(st.integers(0, top))
        k_hi = data.draw(st.integers(k_lo, top))
        rng = np.random.default_rng(seed)
        fs = 1e5
        samples = _mixed_signal(rng, modes, num_samples, fs)
        ref_freqs, ref_psd = periodogram_psd(samples, fs)
        freqs, psd = band_periodogram_psd(samples, fs, k_lo, k_hi)
        assert np.array_equal(freqs, ref_freqs[k_lo : k_hi + 1])
        reference = ref_psd[k_lo : k_hi + 1]
        scale = max(float(reference.max()), 1e-300)
        assert np.max(np.abs(psd - reference)) <= 1e-10 * scale

    def test_full_range_satisfies_parseval(self, rng):
        """Integrating the band PSD over the whole spectrum recovers the
        windowed signal's variance (boxcar window: exact Parseval)."""
        fs = 10_000.0
        num_samples = 2_000
        samples = rng.normal(0.0, 1.3, num_samples)
        freqs, psd = band_periodogram_psd(
            samples, fs, 0, num_samples // 2, window=np.ones(num_samples)
        )
        total = psd.sum() * (freqs[1] - freqs[0])
        assert total == pytest.approx(samples.var(), rel=1e-9)

    def test_mismatched_plan_rejected(self, rng):
        plan = ZoomBandPlan(256, 10, 20)
        with pytest.raises(MeasurementError):
            band_periodogram_psd(rng.normal(size=256), 1e4, 11, 20, plan=plan)

    def test_workspace_reuse_is_clean(self, rng):
        """Back-to-back calls through the shared workspace must not leak
        samples from the previous call into the next."""
        fs = 1e5
        a = _mixed_signal(rng, 1, 999, fs)
        b = _mixed_signal(rng, 1, 999, fs)
        band_periodogram_psd(a, fs, 50, 80)
        _freqs, psd_b = band_periodogram_psd(b, fs, 50, 80)
        reference = periodogram_psd(b, fs)[1][50:81]
        assert np.max(np.abs(psd_b - reference)) <= 1e-10 * reference.max()

    def test_shorter_capture_reuses_the_grown_buffers_cleanly(self, rng, monkeypatch):
        """A shorter capture after a longer one is windowed and staged in
        prefixes of the same buffers, with nothing of the longer one's
        window or samples left in its result."""
        monkeypatch.setattr(signal_processing, "_BUFFERS", {})
        monkeypatch.setattr(signal_processing, "_HANN_CACHE", {})
        fs = 1e5
        band_periodogram_psd(_mixed_signal(rng, 2, 1499, fs), fs, 50, 80)
        buffers = dict(signal_processing._BUFFERS)
        shorter = _mixed_signal(rng, 2, 999, fs)
        _freqs, psd = band_periodogram_psd(shorter, fs, 50, 80)
        assert signal_processing._BUFFERS.keys() == buffers.keys()
        assert all(signal_processing._BUFFERS[role] is buffers[role] for role in buffers)
        reference = periodogram_psd(shorter, fs)[1][50:81]
        assert np.max(np.abs(psd - reference)) <= 1e-10 * reference.max()
        window, energy = signal_processing._cached_hann(999, np.empty(999))
        assert np.array_equal(window, np.hanning(999))
        assert energy == np.sum(np.hanning(999) ** 2)


class TestBandWelch:
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_sliced_reference(self, seed, data):
        rng = np.random.default_rng(seed)
        fs = 1e5
        num_samples = data.draw(st.integers(256, 4096))
        segment_length = data.draw(st.integers(32, num_samples))
        top = segment_length // 2
        k_lo = data.draw(st.integers(0, top))
        k_hi = data.draw(st.integers(k_lo, top))
        samples = _mixed_signal(rng, 2, num_samples, fs)
        ref_freqs, ref_psd = welch_psd(samples, fs, segment_length)
        freqs, psd = band_welch_psd(samples, fs, segment_length, k_lo, k_hi)
        assert np.array_equal(freqs, ref_freqs[k_lo : k_hi + 1])
        reference = ref_psd[k_lo : k_hi + 1]
        scale = max(float(reference.max()), 1e-300)
        assert np.max(np.abs(psd - reference)) <= 1e-10 * scale

    def test_band_power_agreement_within_budget(self, rng):
        """The headline acceptance property: integrated band power from
        the band path agrees with the reference to <= 1e-9 relative."""
        fs = 2.56e6
        duration = 0.04
        num_samples = int(round(duration * fs))
        samples = _mixed_signal(rng, 3, num_samples, fs)
        segment = int(round(fs / 25.0))
        f_center, half_width = 80e3, 1e3
        ref = band_power(*welch_psd(samples, fs, segment), f_center, half_width)
        k_lo, k_hi = band_bin_range(segment, fs, f_center, half_width)
        freqs, psd = band_welch_psd(samples, fs, segment, k_lo, k_hi)
        fast = band_power(freqs, psd, f_center, half_width)
        assert fast == pytest.approx(ref, rel=1e-9)


class TestMeasureBand:
    def _analyzer(self, environment):
        return SpectrumAnalyzer(rbw_hz=25.0, environment=environment)

    @pytest.mark.parametrize(
        "environment",
        (None, quiet_lab_environment()),
        ids=("noiseless", "quiet_lab"),
    )
    def test_matches_sliced_full_sweep(self, rng, environment):
        """measure_band == measure + slice: frequencies bit-equal, noise
        bit-identical (lockstep rng), signal PSD within 1e-10."""
        fs = 2.56e6
        samples = _mixed_signal(rng, 2, int(0.04 * fs), fs)
        analyzer = self._analyzer(environment)
        rng_full = np.random.default_rng(7)
        rng_band = np.random.default_rng(7)
        full = analyzer.measure(samples, sample_rate_hz=fs, rng=rng_full)
        band = analyzer.measure_band(samples, 80e3, 1e3, sample_rate_hz=fs, rng=rng_band)
        mask = (full.freqs_hz >= 79e3) & (full.freqs_hz <= 81e3)
        assert np.array_equal(band.freqs_hz, full.freqs_hz[mask])
        reference = full.psd_w_per_hz[mask]
        scale = max(float(reference.max()), 1e-300)
        assert np.max(np.abs(band.psd_w_per_hz - reference)) <= 1e-9 * scale
        # The generators stay in lockstep: identical draws afterwards.
        assert rng_full.standard_normal(4).tolist() == rng_band.standard_normal(4).tolist()

    def test_seeded_noise_is_bit_identical(self):
        """With no signal the band sweep is pure noise: the seeded floor
        realization equals the reference sweep's slice bit for bit, and
        both generators end in the same state."""
        fs = 2.56e6
        samples = np.zeros((2, int(0.04 * fs)))
        analyzer = self._analyzer(quiet_lab_environment())
        rng_full = np.random.default_rng(2014)
        rng_band = np.random.default_rng(2014)
        full = analyzer.measure(samples, sample_rate_hz=fs, rng=rng_full)
        band = analyzer.measure_band(samples, 80e3, 1e3, sample_rate_hz=fs, rng=rng_band)
        mask = (full.freqs_hz >= 79e3) & (full.freqs_hz <= 81e3)
        assert np.array_equal(band.psd_w_per_hz, full.psd_w_per_hz[mask])
        assert rng_band.bit_generator.state == rng_full.bit_generator.state

    def test_interferer_spread_uses_full_grid_bin_count(self, rng):
        """An interferer wider than the measured band must divide its
        power by its full-grid bin count, not the overlap count."""
        fs = 2.56e6
        samples = np.zeros((1, int(0.04 * fs)))
        environment = NoiseEnvironment(
            instrument_floor_w_per_hz=0.0,
            include_thermal=False,
            interferers=(
                RadioInterferer(frequency_hz=80_500.0, power_w=1e-12, bandwidth_hz=4_000.0),
            ),
        )
        analyzer = self._analyzer(environment)
        full = analyzer.measure(samples, sample_rate_hz=fs)
        band = analyzer.measure_band(samples, 80e3, 1e3, sample_rate_hz=fs)
        mask = (full.freqs_hz >= 79e3) & (full.freqs_hz <= 81e3)
        assert np.array_equal(band.psd_w_per_hz, full.psd_w_per_hz[mask])

    def test_deterministic_band_power_agreement(self, rng):
        fs = 2.56e6
        samples = _mixed_signal(rng, 2, int(0.04 * fs), fs)
        analyzer = self._analyzer(quiet_lab_environment())
        full = analyzer.measure(samples, sample_rate_hz=fs)
        band = analyzer.measure_band(samples, 80e3, 1e3, sample_rate_hz=fs)
        assert band.band_power_w(80e3, 1e3) == pytest.approx(
            full.band_power_w(80e3, 1e3), rel=1e-9
        )


class TestBandExponentials:
    """The floor realization is drawn in chunks but equals one big draw."""

    COUNT = 3 * spectrum_analyzer.NOISE_DRAW_CHUNK + 1_001

    @pytest.mark.parametrize(
        "k_lo, k_hi",
        [
            (0, 2_000),  # grid start
            (COUNT // 2 - 1_000, COUNT // 2 + 1_000),  # middle
            (COUNT - 2_001, COUNT - 1),  # grid end
            (  # across the first chunk boundary
                spectrum_analyzer.NOISE_DRAW_CHUNK - 10,
                spectrum_analyzer.NOISE_DRAW_CHUNK + 9,
            ),
            (0, COUNT - 1),  # the whole grid
        ],
        ids=("start", "middle", "end", "chunk_boundary", "whole"),
    )
    def test_equals_one_draw_sliced(self, k_lo, k_hi):
        chunked_rng = np.random.default_rng(2014)
        one_shot_rng = np.random.default_rng(2014)
        band = spectrum_analyzer._band_exponentials(chunked_rng, self.COUNT, k_lo, k_hi)
        expected = one_shot_rng.standard_exponential(self.COUNT)[k_lo : k_hi + 1]
        assert np.array_equal(band, expected)
        assert chunked_rng.bit_generator.state == one_shot_rng.bit_generator.state

    def test_multi_chunk_grid_matches_sliced_full_sweep(self):
        """A 10 Hz RBW at 2.56 MHz makes a 128,001-bin grid, two chunks;
        the band at 700 kHz lies in the second."""
        fs = 2.56e6
        samples = np.zeros((1, int(0.1 * fs)))
        analyzer = SpectrumAnalyzer(rbw_hz=10.0, environment=quiet_lab_environment())
        rng_full = np.random.default_rng(31)
        rng_band = np.random.default_rng(31)
        full = analyzer.measure(samples, sample_rate_hz=fs, rng=rng_full)
        band = analyzer.measure_band(samples, 700e3, 1e3, sample_rate_hz=fs, rng=rng_band)
        assert band.freqs_hz[0] / 10.0 > spectrum_analyzer.NOISE_DRAW_CHUNK
        mask = (full.freqs_hz >= 699e3) & (full.freqs_hz <= 701e3)
        assert np.array_equal(band.psd_w_per_hz, full.psd_w_per_hz[mask])
        assert rng_band.bit_generator.state == rng_full.bit_generator.state


def _synthesized(duration_s, rng, modes=3):
    """A capture of a random one-period activity trace at 80 kHz."""
    shape_rng = np.random.default_rng(2014)
    trace = ActivityTrace(shape_rng.random((NUM_COMPONENTS, 1000)), clock_hz=80e6)
    coupling = CouplingMatrix(shape_rng.random((modes, NUM_COMPONENTS)), distance_m=0.1)
    jitter = None if rng is not None else synthesis.JitterModel(0.0, 0.0)
    return synthesis.synthesize_measurement(
        trace, coupling, duration_s, rng, jitter=jitter
    )


class TestStreamedSignal:
    """measure_band(signal) fills its workspace from the signal's tiling
    and must equal measuring the materialized samples bit for bit."""

    @pytest.mark.parametrize("modes", (1, 2, 3), ids=("1mode", "2modes", "3modes"))
    @pytest.mark.parametrize("jittered", (True, False), ids=("jittered", "rng_none"))
    @pytest.mark.parametrize(
        "rbw_hz, duration_s",
        # One segment; two RBW lengths (three half-overlapped segments).
        ((25.0, 0.04), (25.0, 2 / 25.0)),
        ids=("one_segment", "welch"),
    )
    @pytest.mark.parametrize(
        "chunks",
        # The module constants, then small odd chunks: the 102,400 or
        # 204,800-sample captures are no multiple of them and jittered
        # 32-sample periods straddle every chunk edge.
        (None, (997, 1531)),
        ids=("default_chunks", "odd_chunks"),
    )
    def test_equals_measuring_the_samples(
        self, monkeypatch, jittered, rbw_hz, duration_s, chunks, modes
    ):
        """Both inputs stage each mode in turn in the one-row workspace:
        the signal gathers its rows from one sample map per segment, the
        array copies its rows."""
        if chunks is not None:
            monkeypatch.setattr(synthesis, "FILL_CHUNK_SAMPLES", chunks[0])
            monkeypatch.setattr(signal_processing, "_STAGE_CHUNK_SAMPLES", chunks[1])
        rng = np.random.default_rng(5) if jittered else None
        signal = _synthesized(duration_s, rng, modes=modes)
        assert signal.num_samples % 997 and signal.num_samples % 1531
        analyzer = SpectrumAnalyzer(rbw_hz=rbw_hz, environment=quiet_lab_environment())
        rng_streamed = np.random.default_rng(7)
        rng_array = np.random.default_rng(7)
        f_center = signal.nominal_frequency_hz
        streamed = analyzer.measure_band(signal, f_center, 1e3, rng=rng_streamed)
        materialized = analyzer.measure_band(
            signal.samples, f_center, 1e3,
            sample_rate_hz=signal.sample_rate_hz, rng=rng_array,
        )
        assert np.array_equal(streamed.freqs_hz, materialized.freqs_hz)
        assert np.array_equal(streamed.psd_w_per_hz, materialized.psd_w_per_hz)
        assert rng_streamed.bit_generator.state == rng_array.bit_generator.state

    def test_cold_caches_stay_under_three_capture_rows(self, monkeypatch):
        """From empty analyzer caches, measuring a 3-mode capture and then
        one of another length never holds more than three sample rows'
        worth of memory: the one-row workspace and the window, with each
        old window and row freed before its replacement is built."""
        monkeypatch.setattr(signal_processing, "_HANN_CACHE", {})
        monkeypatch.setattr(signal_processing, "_BUFFERS", {})
        monkeypatch.setattr(signal_processing, "_PLAN_CACHE", {})
        rng = np.random.default_rng(5)
        captures = [
            # One Welch segment per capture: RBW = 1 / duration.
            (_synthesized(duration_s, rng), SpectrumAnalyzer(
                rbw_hz=1.0 / duration_s, environment=quiet_lab_environment()
            ))
            for duration_s in (0.1, 0.09)
        ]
        num_samples = captures[0][0].num_samples
        assert captures[0][0].num_modes == 3
        assert captures[1][0].num_samples != num_samples
        tracemalloc.start()
        try:
            for signal, analyzer in captures:
                analyzer.measure_band(
                    signal, signal.nominal_frequency_hz, 1e3,
                    rng=np.random.default_rng(7),
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * num_samples

    def test_welch_reads_every_segment(self):
        """The multi-segment capture really averages distinct segments:
        its streamed band PSD differs from its first segment's alone."""
        signal = _synthesized(2 / 25.0, np.random.default_rng(5))
        segment = int(round(signal.sample_rate_hz / 25.0))
        k_lo, k_hi = band_bin_range(segment, signal.sample_rate_hz, 80e3, 1e3)
        _, welch = band_welch_psd(signal, signal.sample_rate_hz, segment, k_lo, k_hi)
        _, first = band_welch_psd(
            signal.samples[:, :segment], signal.sample_rate_hz, segment, k_lo, k_hi
        )
        assert not np.array_equal(welch, first)
