"""Unit and property tests for the DSP helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MeasurementError
from repro.instruments.signal_processing import (
    band_power,
    hann_window,
    peak_frequency,
    periodogram_psd,
    welch_psd,
)


def _tone(amplitude=1.0, frequency=1000.0, fs=65536.0, duration=1.0):
    t = np.arange(int(fs * duration)) / fs
    return amplitude * np.cos(2 * np.pi * frequency * t)


class TestHannWindow:
    @pytest.mark.parametrize("length", (1, 2, 3, 64, 1023, 2_562_392))
    def test_bit_identical_to_numpy(self, length):
        assert np.array_equal(hann_window(length), np.hanning(length))

    @given(length=st.integers(1, 20_000))
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_numpy_property(self, length):
        assert np.array_equal(hann_window(length), np.hanning(length))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(MeasurementError):
            hann_window(0)


class TestPeriodogram:
    def test_tone_power_recovered(self):
        fs = 65536.0
        amplitude = 2.0
        samples = _tone(amplitude=amplitude, fs=fs)
        freqs, psd = periodogram_psd(samples, fs)
        power = band_power(freqs, psd, 1000.0, 50.0)
        assert power == pytest.approx(amplitude**2 / 2, rel=0.01)

    def test_peak_at_tone_frequency(self):
        fs = 65536.0
        samples = _tone(frequency=1234.0, fs=fs)
        freqs, psd = periodogram_psd(samples, fs)
        assert peak_frequency(freqs, psd) == pytest.approx(1234.0, abs=2.0)

    def test_dc_removed(self):
        fs = 4096.0
        samples = np.full(4096, 5.0)
        freqs, psd = periodogram_psd(samples, fs)
        assert psd.max() < 1e-12

    def test_white_noise_psd_level(self, rng):
        fs = 100_000.0
        sigma = 0.5
        samples = rng.normal(0, sigma, 400_000)
        freqs, psd = periodogram_psd(samples, fs)
        # One-sided PSD of white noise: 2*sigma^2/fs (bins are chi-square
        # distributed around it, so compare the mean, not the median).
        assert np.mean(psd) == pytest.approx(2 * sigma**2 / fs, rel=0.1)

    def test_modes_sum(self):
        fs = 8192.0
        one = periodogram_psd(_tone(fs=fs, duration=0.5), fs)[1]
        stacked = periodogram_psd(
            np.vstack([_tone(fs=fs, duration=0.5)] * 2), fs
        )[1]
        assert np.allclose(stacked, 2 * one, rtol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(MeasurementError):
            periodogram_psd(np.array([1.0]), 100.0)

    def test_window_length_mismatch_rejected(self):
        with pytest.raises(MeasurementError):
            periodogram_psd(np.zeros(100), 100.0, window=hann_window(50))


class TestWelch:
    def test_rbw_sets_bin_spacing(self):
        fs = 65536.0
        samples = _tone(fs=fs, duration=2.0)
        freqs, _psd = welch_psd(samples, fs, segment_length=int(fs))
        assert freqs[1] - freqs[0] == pytest.approx(1.0)

    def test_averaging_reduces_variance(self, rng):
        fs = 65536.0
        samples = rng.normal(0, 1, int(fs))
        _freqs, single = periodogram_psd(samples, fs)
        _freqs2, averaged = welch_psd(samples, fs, segment_length=4096)
        assert averaged.std() < single.std()

    def test_segment_longer_than_signal_rejected(self):
        with pytest.raises(MeasurementError):
            welch_psd(np.zeros(100), 100.0, segment_length=200)

    def test_invalid_overlap_rejected(self):
        with pytest.raises(MeasurementError):
            welch_psd(np.zeros(100), 100.0, segment_length=50, overlap=1.0)


class TestBandPower:
    def test_band_outside_range_rejected(self):
        freqs = np.linspace(0, 100, 101)
        psd = np.ones(101)
        with pytest.raises(MeasurementError):
            band_power(freqs, psd, 1e6, 10.0)

    def test_flat_psd_integrates_to_width(self):
        freqs = np.linspace(0, 1000, 1001)
        psd = np.ones(1001)
        assert band_power(freqs, psd, 500.0, 100.0) == pytest.approx(201.0, rel=0.01)

    def test_peak_range_filter(self):
        freqs = np.linspace(0, 100, 101)
        psd = np.zeros(101)
        psd[10] = 5.0
        psd[90] = 10.0
        assert peak_frequency(freqs, psd, f_high_hz=50.0) == pytest.approx(10.0)

    def test_peak_empty_range_rejected(self):
        freqs = np.linspace(0, 100, 101)
        with pytest.raises(MeasurementError):
            peak_frequency(freqs, np.ones(101), f_low_hz=200.0)


@given(sigma=st.floats(min_value=0.1, max_value=3.0), seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_parseval_total_power(sigma, seed):
    """Property: integrating the PSD recovers the signal's variance."""
    rng = np.random.default_rng(seed)
    fs = 10_000.0
    samples = rng.normal(0, sigma, 20_000)
    freqs, psd = periodogram_psd(samples, fs, window=np.ones(len(samples)))
    total = psd.sum() * (freqs[1] - freqs[0])
    assert total == pytest.approx(samples.var(), rel=0.02)
