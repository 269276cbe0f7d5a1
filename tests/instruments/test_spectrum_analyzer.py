"""Unit tests for the spectrum-analyzer model."""

import numpy as np
import pytest

from repro.em.environment import NoiseEnvironment
from repro.errors import MeasurementError
from repro.instruments.spectrum_analyzer import Spectrum, SpectrumAnalyzer


def _tone(amplitude, frequency, fs, duration):
    t = np.arange(int(fs * duration)) / fs
    return amplitude * np.cos(2 * np.pi * frequency * t)


class TestSpectrumAnalyzer:
    def test_tone_band_power_in_watts(self):
        fs = 2.56e6
        amplitude = 1e-3
        samples = _tone(amplitude, 80e3, fs, duration=0.1)
        analyzer = SpectrumAnalyzer(rbw_hz=10.0, environment=None)
        spectrum = analyzer.measure(samples, sample_rate_hz=fs)
        measured = spectrum.band_power_w(80e3, 1e3)
        assert measured == pytest.approx(amplitude**2 / 2 / 50.0, rel=0.02)

    def test_noise_floor_added(self):
        fs = 1e6
        samples = np.zeros(int(fs * 0.05))
        environment = NoiseEnvironment(
            instrument_floor_w_per_hz=6e-18, include_thermal=False
        )
        analyzer = SpectrumAnalyzer(rbw_hz=20.0, environment=environment)
        spectrum = analyzer.measure(samples, sample_rate_hz=fs)
        assert np.median(spectrum.psd_w_per_hz) == pytest.approx(6e-18, rel=0.01)

    def test_noise_floor_randomized_with_rng(self, rng):
        fs = 1e6
        samples = np.zeros(int(fs * 0.05))
        environment = NoiseEnvironment(
            instrument_floor_w_per_hz=6e-18, include_thermal=False
        )
        analyzer = SpectrumAnalyzer(rbw_hz=20.0, environment=environment)
        spectrum = analyzer.measure(samples, sample_rate_hz=fs, rng=rng)
        assert spectrum.psd_w_per_hz.std() > 0
        assert np.mean(spectrum.psd_w_per_hz) == pytest.approx(6e-18, rel=0.05)

    def test_interferer_appears_in_spectrum(self):
        from repro.em.environment import RadioInterferer

        fs = 1e6
        samples = np.zeros(int(fs * 0.1))
        environment = NoiseEnvironment(
            instrument_floor_w_per_hz=1e-18,
            include_thermal=False,
            interferers=(RadioInterferer(81.45e3, 2.5e-16, 30.0),),
        )
        analyzer = SpectrumAnalyzer(rbw_hz=10.0, environment=environment)
        spectrum = analyzer.measure(samples, sample_rate_hz=fs)
        assert spectrum.peak_hz(70e3, 90e3) == pytest.approx(81.45e3, abs=30.0)

    def test_insufficient_samples_for_rbw_rejected(self):
        analyzer = SpectrumAnalyzer(rbw_hz=1.0)
        with pytest.raises(MeasurementError, match="RBW"):
            analyzer.measure(np.zeros(1000), sample_rate_hz=1e6)

    def test_raw_input_requires_sample_rate(self):
        analyzer = SpectrumAnalyzer(rbw_hz=1.0)
        with pytest.raises(MeasurementError):
            analyzer.measure(np.zeros(1000))

    @pytest.mark.parametrize("method", ("measure", "measure_band"))
    @pytest.mark.parametrize("rate", (float("nan"), float("inf"), 0.0, -5.0))
    def test_non_finite_or_non_positive_sample_rate_rejected(self, method, rate):
        # Without the check these end in "cannot convert float NaN to
        # integer", OverflowError, or a misleading segment-length error.
        analyzer = SpectrumAnalyzer(rbw_hz=1.0)
        band = (10.0, 1.0) if method == "measure_band" else ()
        with pytest.raises(MeasurementError, match="sample_rate_hz must be finite and positive"):
            getattr(analyzer, method)(np.ones(100), *band, sample_rate_hz=rate)

    def test_invalid_rbw_rejected(self):
        with pytest.raises(MeasurementError):
            SpectrumAnalyzer(rbw_hz=0.0)

    @pytest.mark.parametrize(
        "setting", ("rbw_hz", "impedance"), ids=("rbw", "impedance")
    )
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -1.0))
    def test_non_finite_or_negative_setting_rejected(self, setting, value):
        # A NaN RBW would otherwise fail deep in numpy with "cannot
        # convert float NaN to integer".
        with pytest.raises(MeasurementError, match="finite and positive"):
            SpectrumAnalyzer(**{setting: value})


class TestSpectrum:
    def _spectrum(self):
        freqs = np.linspace(0, 1000, 1001)
        psd = np.ones(1001) * 1e-18
        psd[500] = 1e-15
        return Spectrum(freqs, psd, rbw_hz=1.0)

    def test_peak(self):
        assert self._spectrum().peak_hz() == pytest.approx(500.0)

    def test_slice(self):
        sliced = self._spectrum().slice(400, 600)
        assert sliced.freqs_hz[0] >= 400
        assert sliced.freqs_hz[-1] <= 600
        assert sliced.peak_hz() == pytest.approx(500.0)

    def test_slice_outside_range_rejected(self):
        with pytest.raises(MeasurementError):
            self._spectrum().slice(2000, 3000)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MeasurementError):
            Spectrum(np.zeros(10), np.zeros(5), rbw_hz=1.0)
