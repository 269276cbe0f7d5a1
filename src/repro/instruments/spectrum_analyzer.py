"""Spectrum-analyzer model (the paper's Agilent MXA N9020A stand-in).

The analyzer turns voltage samples into a W/Hz spectrum at a chosen
resolution bandwidth, adds its own noise floor (and whatever external
interference the environment contains), and integrates band power — the
exact signal path Section IV describes: "the spectrum around the
alternation frequency was recorded with a resolution bandwidth of 1 Hz
... the measured value we use is the total received signal power in the
frequency band from 1 kHz below to 1 kHz above the alternation
frequency."
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import MeasurementError
from repro.em.environment import NoiseEnvironment
from repro.em.synthesis import SynthesizedSignal
from repro.instruments.signal_processing import (
    _comparison_bin_range,
    band_bin_range,
    band_power,
    band_welch_psd,
    peak_frequency,
    rfft_bin_width,
    welch_psd,
)
from repro.units import REFERENCE_IMPEDANCE


@dataclass
class Spectrum:
    """A recorded spectrum: frequencies (Hz) and PSD (W/Hz)."""

    freqs_hz: np.ndarray
    psd_w_per_hz: np.ndarray
    rbw_hz: float

    def __post_init__(self) -> None:
        self.freqs_hz = np.asarray(self.freqs_hz, dtype=np.float64)
        self.psd_w_per_hz = np.asarray(self.psd_w_per_hz, dtype=np.float64)
        if self.freqs_hz.shape != self.psd_w_per_hz.shape:
            raise MeasurementError("spectrum frequency and PSD arrays differ in shape")

    def band_power_w(self, f_center_hz: float, half_width_hz: float) -> float:
        """Total power (W) in ``f_center +/- half_width``."""
        return band_power(self.freqs_hz, self.psd_w_per_hz, f_center_hz, half_width_hz)

    def peak_hz(self, f_low_hz: float | None = None, f_high_hz: float | None = None) -> float:
        """Frequency of the strongest bin, optionally within a range."""
        return peak_frequency(self.freqs_hz, self.psd_w_per_hz, f_low_hz, f_high_hz)

    def slice(self, f_low_hz: float, f_high_hz: float) -> "Spectrum":
        """Sub-spectrum covering ``[f_low, f_high]`` (for plots/reports)."""
        mask = (self.freqs_hz >= f_low_hz) & (self.freqs_hz <= f_high_hz)
        if not np.any(mask):
            raise MeasurementError(
                f"slice [{f_low_hz}, {f_high_hz}] Hz is outside the recorded span"
            )
        return Spectrum(self.freqs_hz[mask], self.psd_w_per_hz[mask], self.rbw_hz)


@dataclass
class SpectrumAnalyzer:
    """Welch-based spectrum analyzer with an additive noise floor.

    Attributes
    ----------
    rbw_hz:
        Resolution bandwidth.  Requires at least ``1/rbw`` seconds of
        signal.
    environment:
        Noise environment whose floor and interferers are added to every
        sweep.  ``None`` measures noiselessly (useful in unit tests).
    impedance:
        Input impedance used to convert V^2/Hz to W/Hz.
    """

    rbw_hz: float = 1.0
    environment: NoiseEnvironment | None = None
    impedance: float = REFERENCE_IMPEDANCE

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rbw_hz) and self.rbw_hz > 0):
            raise MeasurementError(
                f"resolution bandwidth must be finite and positive, got {self.rbw_hz}"
            )
        if not (math.isfinite(self.impedance) and self.impedance > 0):
            raise MeasurementError(
                f"impedance must be finite and positive, got {self.impedance}"
            )

    def measure(
        self,
        signal: SynthesizedSignal | np.ndarray,
        sample_rate_hz: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> Spectrum:
        """Record one spectrum sweep.

        Parameters
        ----------
        signal:
            A :class:`~repro.em.synthesis.SynthesizedSignal`, or raw
            voltage samples (1-D, or 2-D mode-stacked) with
            ``sample_rate_hz`` supplied.
        rng:
            Randomness for the noise-floor realization; without it the
            expected (mean) noise PSD is added, making the sweep
            deterministic.
        """
        source, num_samples, sample_rate_hz = self._resolve_input(signal, sample_rate_hz)
        samples = source.samples if isinstance(source, SynthesizedSignal) else source
        segment_length = self._segment_length(num_samples, sample_rate_hz)
        freqs, psd_v2 = welch_psd(samples, sample_rate_hz, segment_length)
        psd_w = psd_v2 / self.impedance
        psd_w = psd_w + self._noise_psd(freqs, rng)
        return Spectrum(freqs, psd_w, self.rbw_hz)

    def measure_band(
        self,
        signal: SynthesizedSignal | np.ndarray,
        f_center_hz: float,
        half_width_hz: float,
        sample_rate_hz: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> Spectrum:
        """Record only the sweep bins covering ``f_center +/- half_width``.

        The returned :class:`Spectrum` holds exactly the bins a full
        :meth:`measure` sweep sliced to that band would hold — same
        frequencies, same per-bin signal PSD to ~1e-12 relative, and
        *bit-identical* per-bin noise: the noise floor realization is
        drawn over the full sweep grid (the same draws the reference
        path's ``chisquare`` call makes, keeping ``rng`` streams in
        lockstep) and then sliced, and interferer power is spread over
        the full-grid bin counts.  Only the signal transform itself is
        band-limited — which is where all the time goes.

        A :class:`~repro.em.synthesis.SynthesizedSignal` is never
        materialized: each Welch segment is filled, one mode at a time,
        straight into the band estimator's one-row workspace, with the
        same result as measuring its ``samples``.
        """
        source, num_samples, sample_rate_hz = self._resolve_input(signal, sample_rate_hz)
        segment_length = self._segment_length(num_samples, sample_rate_hz)
        k_lo, k_hi = band_bin_range(
            segment_length, sample_rate_hz, f_center_hz, half_width_hz
        )
        freqs, psd_v2 = band_welch_psd(
            source, sample_rate_hz, segment_length, k_lo, k_hi
        )
        psd_w = psd_v2 / self.impedance
        psd_w = psd_w + self._noise_psd_band(
            segment_length, sample_rate_hz, k_lo, k_hi, rng
        )
        return Spectrum(freqs, psd_w, self.rbw_hz)

    def _resolve_input(
        self,
        signal: SynthesizedSignal | np.ndarray,
        sample_rate_hz: float | None,
    ) -> tuple[SynthesizedSignal | np.ndarray, int, float]:
        """The signal or 2-D sample array, its sample count and rate."""
        if isinstance(signal, SynthesizedSignal):
            return signal, signal.num_samples, signal.sample_rate_hz
        samples = np.atleast_2d(np.asarray(signal, dtype=np.float64))
        if sample_rate_hz is None:
            raise MeasurementError("sample_rate_hz is required for raw sample input")
        if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
            raise MeasurementError(
                f"sample_rate_hz must be finite and positive, got {sample_rate_hz}"
            )
        return samples, samples.shape[-1], sample_rate_hz

    def _segment_length(self, num_samples: int, sample_rate_hz: float) -> int:
        segment_length = int(round(sample_rate_hz / self.rbw_hz))
        if segment_length > num_samples:
            raise MeasurementError(
                f"RBW {self.rbw_hz} Hz needs {segment_length} samples "
                f"({segment_length / sample_rate_hz:.3f} s) but only "
                f"{num_samples} were captured"
            )
        return segment_length

    def _noise_psd(self, freqs: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
        """Per-bin noise PSD contribution (W/Hz)."""
        if self.environment is None:
            return np.zeros_like(freqs)
        floor = self.environment.total_floor_w_per_hz
        if rng is not None:
            noise = floor * rng.chisquare(2, size=freqs.shape) / 2.0
        else:
            noise = np.full_like(freqs, floor)
        if len(freqs) > 1:
            df = float(freqs[1] - freqs[0])
            for interferer in self.environment.interferers:
                low = interferer.frequency_hz - interferer.bandwidth_hz / 2.0
                high = interferer.frequency_hz + interferer.bandwidth_hz / 2.0
                mask = (freqs >= low) & (freqs <= high)
                bins = int(mask.sum())
                if bins:
                    noise[mask] += interferer.power_w / (bins * df)
        return noise

    def _noise_psd_band(
        self,
        segment_length: int,
        sample_rate_hz: float,
        k_lo: int,
        k_hi: int,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """Band slice of :meth:`_noise_psd`, bit-identical per bin.

        The floor realization is drawn for the *full* sweep grid with
        the draw the reference path's ``chisquare(2)`` makes (same
        count, so the generator state advances identically) and sliced
        before scaling; interferer PSD contributions divide by their
        full-grid bin counts, reconstructed arithmetically via the same
        boundary comparisons the reference masks apply.
        """
        num_bins = k_hi - k_lo + 1
        if self.environment is None:
            return np.zeros(num_bins)
        floor = self.environment.total_floor_w_per_hz
        grid_size = segment_length // 2 + 1
        if rng is not None:
            # ``chisquare(2)`` is ``2 * standard_exponential`` draw for
            # draw, so this advances the generator exactly as the
            # reference call does; only the band slice is scaled.
            draws = _band_exponentials(rng, grid_size, k_lo, k_hi)
            noise = floor * (2.0 * draws) / 2.0
        else:
            noise = np.full(num_bins, floor)
        if grid_size > 1:
            bin_width = rfft_bin_width(segment_length, sample_rate_hz)
            # The reference path's df comes from freqs[1] - freqs[0]
            # with freqs[0] exactly 0.0, so it equals the bin width.
            df = bin_width
            top_bin = grid_size - 1
            for interferer in self.environment.interferers:
                low = interferer.frequency_hz - interferer.bandwidth_hz / 2.0
                high = interferer.frequency_hz + interferer.bandwidth_hz / 2.0
                bounds = _comparison_bin_range(low, high, bin_width, top_bin)
                if bounds is None:
                    continue
                first, last = bounds
                bins = last - first + 1
                overlap_lo = max(first, k_lo)
                overlap_hi = min(last, k_hi)
                if overlap_lo <= overlap_hi:
                    noise[overlap_lo - k_lo : overlap_hi - k_lo + 1] += (
                        interferer.power_w / (bins * df)
                    )
        return noise


#: Exponentials :func:`_band_exponentials` draws at a time.
NOISE_DRAW_CHUNK = 1 << 16


def _band_exponentials(
    rng: np.random.Generator, count: int, k_lo: int, k_hi: int
) -> np.ndarray:
    """Entries ``k_lo..k_hi`` of ``rng.standard_exponential(count)``.

    The ``count`` draws are made :data:`NOISE_DRAW_CHUNK` at a time into
    one reused buffer.  Each draw consumes the generator's stream in
    turn, so the kept entries and the generator's state afterwards are
    those of the single draw, without holding all ``count`` values.
    """
    band = np.empty(k_hi - k_lo + 1)
    buffer = np.empty(min(NOISE_DRAW_CHUNK, count))
    for start in range(0, count, NOISE_DRAW_CHUNK):
        chunk = buffer[: min(NOISE_DRAW_CHUNK, count - start)]
        rng.standard_exponential(out=chunk)
        lo = max(k_lo, start)
        hi = min(k_hi + 1, start + len(chunk))
        if lo < hi:
            band[lo - k_lo : hi - k_lo] = chunk[lo - start : hi - start]
    return band
