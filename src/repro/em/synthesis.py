"""Time-domain synthesis of the received EM signal.

The measurement methodology's signal is periodic at the alternation
frequency, but — as Figure 7 shows — the real alternation frequency is
shifted from the intended one and *drifts* during the measurement
(OS interference, DVFS, timer activity), dispersing the received power
over tens to hundreds of hertz.  Synthesis therefore tiles the simulated
one-period activity envelope over the measurement interval with a
per-period jitter/drift model.  The result describes per-mode voltage
sample streams rather than holding them: the spectrum-analyzer model
fills its one-row workspace from that description one mode at a time
and then digests the samples exactly like a real instrument would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError, MeasurementError
from repro.em.coupling import CouplingMatrix
from repro.uarch.activity import ActivityTrace

#: Default number of envelope samples per alternation period.
DEFAULT_ENVELOPE_SAMPLES = 64

#: Default sample rate as a multiple of the alternation frequency.
DEFAULT_OVERSAMPLING = 32

#: Samples per :meth:`SynthesizedSignal.fill_modes` step.  Each step
#: builds its sample times, phases and envelope indices, or gathers one
#: mode's samples, through a few chunk-sized temporaries that stay in
#: cache, instead of capture-sized arrays.
FILL_CHUNK_SAMPLES = 1 << 15


def sample_boundaries(
    starts: np.ndarray, num_samples: int, sample_rate_hz: float
) -> np.ndarray:
    """First sample index of each period start, without the time grid.

    Equal to ``np.searchsorted(np.arange(num_samples) / sample_rate_hz,
    starts, "left")``: for each start, the smallest ``k`` whose sample
    time ``k / sample_rate_hz`` is ``>= start`` (``num_samples`` when no
    sample is).  Sample times are monotone in ``k``, so an arithmetic
    guess is walked to the exact boundary with the same float division
    the grid would make; the guess is off by at most a rounding step.
    """
    starts = np.asarray(starts, dtype=np.float64)
    guess = np.clip(np.ceil(starts * sample_rate_hz), 0, num_samples)
    boundaries = guess.astype(np.int64)
    while True:
        down = (boundaries > 0) & ((boundaries - 1) / sample_rate_hz >= starts)
        if not down.any():
            break
        boundaries[down] -= 1
    while True:
        up = (boundaries < num_samples) & (boundaries / sample_rate_hz < starts)
        if not up.any():
            break
        boundaries[up] += 1
    return boundaries


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
    only far fewer gathers run.  ``times`` must not start before
    ``starts[0]``; :meth:`SynthesizedSignal.fill_modes` applies this to one
    chunk of the capture at a time, with the periods that chunk overlaps.
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

    The signal is held as the jittered tiling that defines it — the
    ``(num_modes, P)`` period envelope, the period ``starts`` (one more
    than ``durations``) and ``durations`` in seconds, the sample rate and
    the sample count — not as a sample array.  :meth:`fill_modes` writes
    any run of samples one mode at a time, so the band analyzer streams
    a capture through its one-row workspace without a capture-sized
    copy; :meth:`fill` writes a row per mode, and :attr:`samples`
    materializes the whole ``(num_modes, num_samples)`` capture for the
    reference analyzer and plots.  The spectrum analyzer sums mode powers
    (incoherent carriers — see :mod:`repro.em.coupling`).
    """

    envelope: np.ndarray
    starts: np.ndarray
    durations: np.ndarray
    sample_rate_hz: float
    num_samples: int
    nominal_frequency_hz: float
    #: First sample of each period start (:func:`sample_boundaries`).
    boundaries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.boundaries = sample_boundaries(
            self.starts, self.num_samples, self.sample_rate_hz
        )

    @property
    def num_modes(self) -> int:
        return self.envelope.shape[0]

    @property
    def duration_s(self) -> float:
        return self.num_samples / self.sample_rate_hz

    @property
    def samples(self) -> np.ndarray:
        """The whole capture, shape ``(num_modes, num_samples)``.

        Materialized on every access; the band analyzer never asks for
        it.
        """
        out = np.empty((self.num_modes, self.num_samples))
        self.fill(out, 0)
        return out

    def fill(self, out: np.ndarray, start: int) -> None:
        """Write samples ``[start, start + out.shape[-1])`` into ``out``.

        ``out`` has shape ``(num_modes, n)`` and may be a strided view;
        it is :meth:`fill_modes` with a row per mode.
        """
        if out.shape[0] != self.num_modes:
            raise self._fill_error(out, start)
        for _mode in self.fill_modes(out, start):
            pass

    def fill_modes(self, out: np.ndarray, start: int) -> Iterator[int]:
        """Write samples ``[start, start + out.shape[-1])`` mode by mode.

        ``out`` has shape ``(num_modes, n)``, a row per mode, or
        ``(1, n)``: one row that each mode overwrites in turn, read by
        the caller before it advances.  Yields each mode, in order, once
        its samples are in place.  It may be a strided view (a slice of
        a wider workspace).

        This is the one definition of a sample.  Sample ``k`` lies at
        time ``k / sample_rate_hz`` in the period its boundary search
        puts it in (samples past the last start belong to the last
        period); its value is the envelope point at the truncated,
        clipped phase :func:`tile_period_indices` computes.  The run's
        sample map (that envelope point, per sample) is built once and
        every mode's row is gathered from it, so every sample is the
        same value whichever run, and whichever row, it is filled in.
        """
        stop = start + out.shape[-1]
        if out.shape[0] not in (1, self.num_modes) or not (
            0 <= start <= stop <= self.num_samples
        ):
            raise self._fill_error(out, start)
        sample_map = self._sample_map(start, stop)
        for mode in range(self.num_modes):
            row = out[mode if len(out) > 1 else 0]
            for chunk_start in range(0, len(sample_map), FILL_CHUNK_SAMPLES):
                chunk = slice(chunk_start, chunk_start + FILL_CHUNK_SAMPLES)
                # The map is already clipped into range, so ``mode="clip"``
                # changes no value; it spares the default ``mode="raise"``
                # its hidden temporary behind ``out=``.
                np.take(
                    self.envelope[mode], sample_map[chunk], out=row[chunk], mode="clip"
                )
            yield mode

    def _fill_error(self, out: np.ndarray, start: int) -> MeasurementError:
        return MeasurementError(
            f"cannot fill samples [{start}, {start + out.shape[-1]}) of modes "
            f"{out.shape[0]} from a ({self.num_modes}, {self.num_samples}) capture"
        )

    def _sample_map(self, start: int, stop: int) -> np.ndarray:
        """The envelope point of each sample in ``[start, stop)``.

        Held in the narrowest unsigned dtype that indexes the envelope
        (``uint8`` up to 256 points), an eighth of a sample row.
        """
        num_periods = len(self.durations)
        points_per_period = self.envelope.shape[1]
        sample_map = np.empty(stop - start, np.min_scalar_type(points_per_period - 1))
        for chunk_start in range(start, stop, FILL_CHUNK_SAMPLES):
            chunk_stop = min(chunk_start + FILL_CHUNK_SAMPLES, stop)
            # The periods this chunk overlaps: from the last one starting
            # at or before its first sample to the first one starting at
            # or after its end (the last period absorbs the tail).
            first = min(
                int(np.searchsorted(self.boundaries, chunk_start, "right")) - 1,
                num_periods - 1,
            )
            last = min(
                int(np.searchsorted(self.boundaries, chunk_stop, "left")), num_periods
            )
            times = np.arange(chunk_start, chunk_stop) / self.sample_rate_hz
            sample_map[chunk_start - start : chunk_stop - start] = tile_period_indices(
                self.starts[first : last + 1],
                self.durations[first:last],
                times,
                points_per_period,
            )
        return sample_map


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
) -> SynthesizedSignal:
    """Tile one alternation period into a full measurement interval.

    Draws the jittered period starts and durations and returns the
    :class:`SynthesizedSignal` they define; samples are computed only
    when a consumer fills or materializes them.

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

    Raises
    ------
    MeasurementError
        If the duration is not finite and positive, or a given sample
        rate is not finite and positive.
    """
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise MeasurementError(
            f"measurement duration must be finite and positive, got {duration_s}"
        )
    if sample_rate_hz is not None and not (
        math.isfinite(sample_rate_hz) and sample_rate_hz > 0
    ):
        raise MeasurementError(
            f"sample rate must be finite and positive, got {sample_rate_hz}"
        )
    jitter = jitter or JitterModel()
    nominal_period_s = trace.duration_s
    nominal_frequency = 1.0 / nominal_period_s
    if sample_rate_hz is None:
        sample_rate_hz = DEFAULT_OVERSAMPLING * nominal_frequency

    if envelope is None:
        envelope = period_envelope(trace, couplings, envelope_samples)

    # Generate enough jittered periods to cover the interval.
    num_periods = int(np.ceil(duration_s / nominal_period_s * 1.1)) + 4
    multipliers = jitter.period_multipliers(num_periods, rng)
    durations = nominal_period_s * multipliers
    starts = np.concatenate(([0.0], np.cumsum(durations)))

    return SynthesizedSignal(
        envelope=envelope,
        starts=starts,
        durations=durations,
        sample_rate_hz=float(sample_rate_hz),
        num_samples=int(round(duration_s * sample_rate_hz)),
        nominal_frequency_hz=nominal_frequency,
    )
