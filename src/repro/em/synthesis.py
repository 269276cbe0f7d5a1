"""Time-domain synthesis of the received EM signal.

The measurement methodology's signal is periodic at the alternation
frequency, but — as Figure 7 shows — the real alternation frequency is
shifted from the intended one and *drifts* during the measurement
(OS interference, DVFS, timer activity), dispersing the received power
over tens to hundreds of hertz.  Synthesis therefore tiles the simulated
one-period activity envelope over the measurement interval with a
per-period jitter/drift model, producing per-mode voltage sample streams
that the spectrum-analyzer model then digests exactly like a real
instrument would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, MeasurementError
from repro.em.coupling import CouplingMatrix
from repro.uarch.activity import ActivityTrace

#: Default number of envelope samples per alternation period.
DEFAULT_ENVELOPE_SAMPLES = 64

#: Default sample rate as a multiple of the alternation frequency.
DEFAULT_OVERSAMPLING = 32

#: Cached sample-time grids, keyed by (num_samples, sample_rate_hz).
#: All repetitions of a cell share one grid (the capture geometry is
#: jitter-independent), and campaigns revisit the same geometry whenever
#: two pairs tune to the same achieved frequency.
_TIME_GRID_CACHE: dict[tuple[int, float], np.ndarray] = {}
_TIME_GRID_CACHE_SIZE = 4


def measurement_time_grid(num_samples: int, sample_rate_hz: float) -> np.ndarray:
    """Sample times ``arange(num_samples) / sample_rate_hz``, cached.

    Returns a shared read-only array: building a 2.5M-entry grid per
    repetition is pure waste since the grid only depends on the capture
    geometry.  Values are bit-identical to the inline expression.
    """
    key = (int(num_samples), float(sample_rate_hz))
    cached = _TIME_GRID_CACHE.get(key)
    if cached is None:
        if len(_TIME_GRID_CACHE) >= _TIME_GRID_CACHE_SIZE:
            _TIME_GRID_CACHE.pop(next(iter(_TIME_GRID_CACHE)))
        cached = np.arange(num_samples) / sample_rate_hz
        cached.setflags(write=False)
        _TIME_GRID_CACHE[key] = cached
    return cached


#: Single-slot output buffer for ``reuse_buffer`` synthesis, keyed by
#: (modes, num_samples).
_SAMPLE_BUFFER: dict[tuple[int, int], np.ndarray] = {}


def _sample_buffer(modes: int, num_samples: int) -> np.ndarray:
    key = (modes, num_samples)
    buffer = _SAMPLE_BUFFER.get(key)
    if buffer is None:
        _SAMPLE_BUFFER.clear()
        buffer = np.empty(key)
        _SAMPLE_BUFFER[key] = buffer
    return buffer


def tile_period_indices(
    starts: np.ndarray,
    durations: np.ndarray,
    times: np.ndarray,
    points_per_period: int,
) -> np.ndarray:
    """Envelope-sample index for each output sample of a jittered tiling.

    Bit-identical to the reference formulation

    .. code-block:: python

        period_index = np.clip(np.searchsorted(starts, times, "right") - 1,
                               0, num_periods - 1)
        phase = (times - starts[period_index]) / durations[period_index]
        np.clip((phase * points_per_period).astype(np.int64),
                0, points_per_period - 1)

    but searches the short period-boundary array against the long time
    grid instead of the other way round (``P log N`` comparisons instead
    of ``N log P``) and expands the per-period start/duration with
    ``np.repeat`` — the same float values land in the same arithmetic,
    only far fewer gathers run.
    """
    num_periods = len(durations)
    boundaries = np.searchsorted(times, starts, side="left")
    counts = np.diff(boundaries)
    # Samples past the last period boundary belong to the final period
    # (the reference formulation's upper clip).
    counts[-1] += len(times) - boundaries[-1]
    start_grid = np.repeat(starts[:num_periods], counts)
    duration_grid = np.repeat(durations, counts)
    # phase = (times - start) / duration, scaled to envelope points —
    # computed in place over the expanded grids (same operations in the
    # same order as the reference, without the intermediate arrays).
    np.subtract(times, start_grid, out=start_grid)
    np.divide(start_grid, duration_grid, out=start_grid)
    np.multiply(start_grid, points_per_period, out=start_grid)
    # The duration grid is spent: truncate into its bytes (the same
    # float -> int64 cast ``astype`` makes) instead of a third array.
    indices = duration_grid.view(np.int64)
    np.copyto(indices, start_grid, casting="unsafe")
    np.clip(indices, 0, points_per_period - 1, out=indices)
    return indices


@dataclass(frozen=True)
class JitterModel:
    """Per-period timing imperfection of the alternation loop.

    Attributes
    ----------
    period_sigma:
        Standard deviation of independent per-period duration error, as
        a fraction of the nominal period (fast jitter — spreads power
        into a pedestal around the carrier).
    drift_sigma:
        Per-period step of a random walk in the duration multiplier
        (slow drift — wanders the instantaneous alternation frequency,
        the "frequency dispersion" annotation of Figure 7).  The default
        wanders a ~0.5 s capture by a few hundred hertz at 80 kHz,
        matching the dispersion the paper shows.
    """

    period_sigma: float = 2e-3
    drift_sigma: float = 1.5e-5

    def __post_init__(self) -> None:
        for name in ("period_sigma", "drift_sigma"):
            value = getattr(self, name)
            # ``nan > 0`` is False, so a NaN sigma would silently switch
            # its jitter off; reject every non-finite value up front.
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"jitter {name} must be finite and non-negative, got {value}"
                )

    def period_multipliers(
        self, num_periods: int, rng: np.random.Generator | None
    ) -> np.ndarray:
        """Duration multiplier for each of ``num_periods`` periods.

        ``rng`` may be ``None`` only when both sigmas are zero (the
        deterministic expected-value path synthesizes without jitter).
        """
        if num_periods <= 0:
            raise ConfigurationError(f"num_periods must be positive, got {num_periods}")
        if rng is None and (self.period_sigma > 0 or self.drift_sigma > 0):
            raise ConfigurationError("jitter with non-zero sigma requires an rng")
        multipliers = np.ones(num_periods)
        if self.drift_sigma > 0:
            multipliers += np.cumsum(rng.normal(0.0, self.drift_sigma, num_periods))
        if self.period_sigma > 0:
            multipliers += rng.normal(0.0, self.period_sigma, num_periods)
        return np.clip(multipliers, 0.5, 1.5)


@dataclass
class SynthesizedSignal:
    """Per-mode voltage streams covering one measurement interval.

    ``samples`` has shape ``(num_modes, num_samples)``; the spectrum
    analyzer sums mode powers (incoherent carriers — see
    :mod:`repro.em.coupling`).
    """

    samples: np.ndarray
    sample_rate_hz: float
    nominal_frequency_hz: float

    @property
    def num_modes(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.num_samples / self.sample_rate_hz


def period_envelope(
    trace: ActivityTrace,
    couplings: CouplingMatrix,
    envelope_samples: int = DEFAULT_ENVELOPE_SAMPLES,
) -> np.ndarray:
    """Collapse a one-period activity trace to a per-mode envelope.

    Returns shape ``(num_modes, P)`` where ``P <= envelope_samples``:
    the cycle-resolution trace is block-averaged, then projected through
    the couplings.  Block-averaging is the physical statement that the
    antenna/analyzer chain cannot follow single-cycle structure at these
    measurement frequencies — only the activity *envelope* matters.
    """
    if envelope_samples < 4:
        raise ConfigurationError(f"need >= 4 envelope samples, got {envelope_samples}")
    factor = max(-(-trace.num_cycles // envelope_samples), 1)
    coarse = trace.downsample(factor)
    return couplings.project_trace(coarse)


def synthesize_measurement(
    trace: ActivityTrace,
    couplings: CouplingMatrix,
    duration_s: float,
    rng: np.random.Generator | None,
    jitter: JitterModel | None = None,
    sample_rate_hz: float | None = None,
    envelope_samples: int = DEFAULT_ENVELOPE_SAMPLES,
    envelope: np.ndarray | None = None,
    reuse_buffer: bool = False,
) -> SynthesizedSignal:
    """Tile one alternation period into a full measurement interval.

    Parameters
    ----------
    trace:
        Activity trace of exactly one alternation period.
    couplings:
        Component-to-antenna couplings for the measured distance.
    duration_s:
        Measurement length; 1 s supports the paper's 1 Hz RBW.
    rng:
        Randomness source for the jitter model; ``None`` requires a
        zero-sigma jitter model (deterministic tiling).
    jitter:
        Timing imperfection model (default: :class:`JitterModel`).
    sample_rate_hz:
        Output sample rate; defaults to 32x the alternation frequency,
        high enough that envelope-step harmonics alias nowhere near the
        measurement band.
    envelope_samples:
        Per-period envelope resolution.
    envelope:
        Precomputed :func:`period_envelope` of ``trace``/``couplings``.
        The envelope is jitter-independent, so callers measuring many
        repetitions of one cell compute it once and pass it here; only
        the jittered tiling differs per repetition.
    reuse_buffer:
        Write the output samples into a shared process-wide buffer
        instead of a fresh allocation.  Only safe when the returned
        signal is fully consumed before the next ``reuse_buffer`` call
        (the batched repetition loop does this); the default always
        allocates.

    Raises
    ------
    MeasurementError
        If the duration is non-positive.
    """
    if duration_s <= 0:
        raise MeasurementError(f"measurement duration must be positive, got {duration_s}")
    jitter = jitter or JitterModel()
    nominal_period_s = trace.duration_s
    nominal_frequency = 1.0 / nominal_period_s
    if sample_rate_hz is None:
        sample_rate_hz = DEFAULT_OVERSAMPLING * nominal_frequency

    if envelope is None:
        envelope = period_envelope(trace, couplings, envelope_samples)
    points_per_period = envelope.shape[1]

    # Generate enough jittered periods to cover the interval.
    num_periods = int(np.ceil(duration_s / nominal_period_s * 1.1)) + 4
    multipliers = jitter.period_multipliers(num_periods, rng)
    durations = nominal_period_s * multipliers
    starts = np.concatenate(([0.0], np.cumsum(durations)))

    num_samples = int(round(duration_s * sample_rate_hz))
    times = measurement_time_grid(num_samples, sample_rate_hz)
    envelope_index = tile_period_indices(starts, durations, times, points_per_period)

    # The indices are already clipped into range, so ``mode="clip"``
    # changes no value; it spares the default ``mode="raise"`` its
    # hidden full-size temporary behind every ``out=`` gather.
    out = _sample_buffer(envelope.shape[0], num_samples) if reuse_buffer else None
    samples = np.take(envelope, envelope_index, axis=1, out=out, mode="clip")
    return SynthesizedSignal(
        samples=samples,
        sample_rate_hz=float(sample_rate_hz),
        nominal_frequency_hz=nominal_frequency,
    )
