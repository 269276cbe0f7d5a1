"""Spectral-estimation helpers shared by the instrument models.

Everything works on voltage samples and produces one-sided power
spectral densities in V^2/Hz; the instrument models convert to W/Hz at
their reference impedance.

Two estimator families live here:

* the **full-spectrum** reference estimators (:func:`periodogram_psd`,
  :func:`welch_psd`) — a windowed rfft over all ``N//2 + 1`` bins; and
* the **band-limited** estimators (:func:`band_periodogram_psd`,
  :func:`band_welch_psd`) built on :class:`ZoomBandPlan`, which compute
  only the bins covering a measurement band.  A SAVAT sweep integrates
  a +/-1 kHz band out of a ~1.3 M-bin spectrum, so evaluating the ~2000
  interesting bins directly is orders of magnitude cheaper than the
  full transform — especially since the capture length ``N`` carries a
  large prime factor that pushes ``numpy`` into its Bluestein rfft.

The band estimators reproduce the reference bins to better than 1e-12
relative (they are the same mathematical quantity, evaluated through an
exactly phase-reduced chirp-Z transform instead of an FFT), which is
how the spectrum-analyzer fast path can stand in for the reference
analyzer within the pipeline's 1e-9 agreement budget.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from repro.errors import MeasurementError
from repro.em.synthesis import SynthesizedSignal


def hann_window(length: int, out: np.ndarray | None = None) -> np.ndarray:
    """Hann window of ``length`` samples, bit-identical to ``np.hanning``.

    Evaluates numpy's ``0.5 + 0.5 * cos(pi * n / (M - 1))`` over
    ``n = arange(1 - M, M, 2)`` in place, in one array: ``np.hanning``
    makes five window-sized temporaries, and for a 1 s capture each is
    20 MB.  Freeing such blocks would raise glibc's mmap threshold,
    after which later mid-size temporaries stay on the heap and a
    process's peak RSS depends on its allocation order.  With ``out``
    (float64, at least ``length`` long) the window is written into its
    prefix, which is returned.
    """
    if length <= 0:
        raise MeasurementError(f"window length must be positive, got {length}")
    window = np.empty(length) if out is None else out[:length]
    if length == 1:
        window[0] = 1.0
        return window
    # The n are whole numbers, exact in float64, so filling them a chunk
    # at a time gives the bits ``np.arange`` would.
    for start in range(0, length, _STAGE_CHUNK_SAMPLES):
        chunk = window[start : start + _STAGE_CHUNK_SAMPLES]
        chunk[:] = np.arange(start, start + len(chunk))
    m = float(length)
    window *= 2.0
    window += 1 - m
    window *= np.pi
    window /= m - 1
    np.cos(window, out=window)
    window *= 0.5
    window += 0.5
    return window


def periodogram_psd(
    samples: np.ndarray,
    sample_rate_hz: float,
    window: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided windowed periodogram PSD in V^2/Hz.

    Accepts 1-D samples or 2-D ``(num_modes, num_samples)``; mode PSDs
    add (incoherent carriers).

    Returns
    -------
    (freqs, psd):
        Frequencies in Hz and PSD in V^2/Hz, both length ``N//2 + 1``.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    num_samples = samples.shape[-1]
    if num_samples < 2:
        raise MeasurementError(f"need >= 2 samples for a PSD, got {num_samples}")
    if sample_rate_hz <= 0:
        raise MeasurementError(f"sample rate must be positive, got {sample_rate_hz}")
    if window is None:
        window = hann_window(num_samples)
    if window.shape != (num_samples,):
        raise MeasurementError(
            f"window length {window.shape} does not match samples ({num_samples})"
        )
    # Remove per-mode DC so window leakage from the (large) DC level
    # does not pollute the measurement band.
    samples = samples - samples.mean(axis=-1, keepdims=True)
    scale = 1.0 / (sample_rate_hz * np.sum(window**2))
    spectrum = np.fft.rfft(samples * window, axis=-1)
    psd = (np.abs(spectrum) ** 2).sum(axis=0) * scale
    # One-sided correction: double everything except DC (and Nyquist for
    # even lengths).
    psd[1:] *= 2.0
    if num_samples % 2 == 0:
        psd[-1] /= 2.0
    freqs = np.fft.rfftfreq(num_samples, d=1.0 / sample_rate_hz)
    return freqs, psd


def welch_psd(
    samples: np.ndarray,
    sample_rate_hz: float,
    segment_length: int,
    overlap: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Welch-averaged PSD with Hann windows.

    ``segment_length`` sets the resolution bandwidth (RBW ~= fs /
    segment_length for a Hann window, up to a shape factor of ~1.5).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    num_samples = samples.shape[-1]
    if segment_length < 2:
        raise MeasurementError(f"segment length must be >= 2, got {segment_length}")
    if segment_length > num_samples:
        raise MeasurementError(
            f"segment length {segment_length} exceeds signal length {num_samples}"
        )
    if not 0.0 <= overlap < 1.0:
        raise MeasurementError(f"overlap must be in [0, 1), got {overlap}")
    step = max(int(segment_length * (1.0 - overlap)), 1)
    window = hann_window(segment_length)
    accumulated: np.ndarray | None = None
    count = 0
    for start in range(0, num_samples - segment_length + 1, step):
        segment = samples[:, start : start + segment_length]
        _freqs, psd = periodogram_psd(segment, sample_rate_hz, window=window)
        accumulated = psd if accumulated is None else accumulated + psd
        count += 1
    assert accumulated is not None  # guaranteed by the length checks
    freqs = np.fft.rfftfreq(segment_length, d=1.0 / sample_rate_hz)
    return freqs, accumulated / count


def band_power(
    freqs: np.ndarray,
    psd: np.ndarray,
    f_center_hz: float,
    half_width_hz: float,
) -> float:
    """Integrate a PSD over ``f_center +/- half_width`` (V^2 or W).

    Raises
    ------
    MeasurementError
        If the band does not overlap the PSD's frequency range.
    """
    freqs = np.asarray(freqs)
    psd = np.asarray(psd)
    if freqs.shape != psd.shape:
        raise MeasurementError(f"freqs {freqs.shape} and psd {psd.shape} differ in shape")
    if half_width_hz <= 0:
        raise MeasurementError(f"band half-width must be positive, got {half_width_hz}")
    mask = (freqs >= f_center_hz - half_width_hz) & (freqs <= f_center_hz + half_width_hz)
    if not np.any(mask):
        raise MeasurementError(
            f"band {f_center_hz} +/- {half_width_hz} Hz lies outside the PSD range "
            f"[{freqs[0]}, {freqs[-1]}] Hz"
        )
    df = float(freqs[1] - freqs[0]) if len(freqs) > 1 else 1.0
    return float(psd[mask].sum() * df)


# ----------------------------------------------------------------------
# Band-limited estimation
# ----------------------------------------------------------------------
#: Capture-sized buffers of the band estimators, by role: ``"window"``
#: holds the cached Hann window, ``"row"`` the one-row workspace in
#: which each mode in turn is staged, demeaned, windowed and transformed
#: (20 MB each for a 1 s capture).  A buffer serves every length up to
#: the largest so far and is replaced, old one freed first, only to
#: grow.  So each new buffer is larger than any block freed before it,
#: and glibc maps it afresh: a freed block raises glibc's mmap threshold
#: to its size, and a smaller block allocated after it would come from
#: the heap and stay resident once freed, making peak RSS depend on the
#: order of the capture lengths.
_BUFFERS: dict[str, np.ndarray] = {}

#: The cached Hann window (a prefix of the ``"window"`` buffer) and its
#: energy (sum of squares), keyed by length.  A campaign evaluates the
#: same multi-megasample window for every repetition; rebuilding it
#: costs more than the band transform.  One entry: each cell tunes to
#: its own achieved frequency, so its capture length is its own.
_HANN_CACHE: dict[int, tuple[np.ndarray, float]] = {}

#: Samples per demean-and-window step over a staged segment: both
#: operations run on a chunk while it is still in cache.
_STAGE_CHUNK_SAMPLES = 1 << 15


def _buffer(role: str, length: int) -> np.ndarray:
    """The first ``length`` floats of buffer ``role``; contents undefined."""
    buffer = _BUFFERS.get(role)
    if buffer is None or len(buffer) < length:
        # Free the old buffer before its replacement exists.
        del buffer
        _BUFFERS.pop(role, None)
        buffer = _BUFFERS[role] = np.empty(length)
    return buffer[:length]


def _cached_hann(length: int, scratch: np.ndarray) -> tuple[np.ndarray, float]:
    """A read-only Hann window and its sum of squares, cached.

    A window of a new length replaces the old one in its buffer, and
    its energy is summed from its squares in ``scratch`` (at least
    ``length`` floats the caller overwrites next), so no second
    window-sized array is ever live.  The sum equals
    ``np.sum(window**2)`` bit for bit.
    """
    cached = _HANN_CACHE.get(length)
    if cached is None:
        _HANN_CACHE.clear()
        window = hann_window(length, out=_buffer("window", length))
        window.setflags(write=False)
        squares = scratch[:length]
        np.square(window, out=squares)
        cached = (window, float(np.sum(squares)))
        _HANN_CACHE[length] = cached
    return cached


def _workspace(padded_length: int) -> np.ndarray:
    """The ``(1, padded_length)`` workspace row; contents undefined."""
    return _buffer("row", padded_length).reshape(1, padded_length)


def rfft_bin_width(num_samples: int, sample_rate_hz: float) -> float:
    """Bin spacing of ``np.fft.rfftfreq(num_samples, d=1/sample_rate_hz)``.

    Computed with the exact floating-point expression ``rfftfreq`` uses
    (``1.0 / (n * d)`` with ``d = 1.0 / fs``), so grids rebuilt from
    this value are bit-identical to the reference grid.
    """
    if num_samples <= 0:
        raise MeasurementError(f"num_samples must be positive, got {num_samples}")
    if sample_rate_hz <= 0:
        raise MeasurementError(f"sample rate must be positive, got {sample_rate_hz}")
    return 1.0 / (num_samples * (1.0 / sample_rate_hz))


def _comparison_bin_range(
    low_hz: float, high_hz: float, bin_width: float, top_bin: int
) -> tuple[int, int] | None:
    """Inclusive rfft-bin range whose frequencies fall in ``[low, high]``.

    Bin ``k``'s frequency is evaluated as ``k * bin_width`` — the same
    product :func:`numpy.fft.rfftfreq` forms — and the boundaries use
    the same ``>=`` / ``<=`` comparisons as the boolean masks in
    :func:`band_power` and the analyzer's interferer model, so the range
    selects exactly the bins those masks would.  Returns ``None`` when
    no bin lands inside the interval.
    """
    if high_hz < low_hz:
        return None
    # Seed with an arithmetic guess, then walk to the exact comparison
    # boundary (the guess is within a couple of ulp-induced bins).
    k_lo = int(np.ceil(low_hz / bin_width)) if low_hz > 0 else 0
    k_lo = min(max(k_lo, 0), top_bin + 1)
    while k_lo > 0 and (k_lo - 1) * bin_width >= low_hz:
        k_lo -= 1
    while k_lo <= top_bin and k_lo * bin_width < low_hz:
        k_lo += 1
    k_hi = int(np.floor(high_hz / bin_width)) if high_hz > 0 else 0
    k_hi = min(max(k_hi, -1), top_bin)
    while k_hi < top_bin and (k_hi + 1) * bin_width <= high_hz:
        k_hi += 1
    while k_hi >= 0 and k_hi * bin_width > high_hz:
        k_hi -= 1
    if k_lo > k_hi:
        return None
    return k_lo, k_hi


def band_bin_range(
    num_samples: int,
    sample_rate_hz: float,
    f_center_hz: float,
    half_width_hz: float,
) -> tuple[int, int]:
    """Inclusive rfft-bin range covering ``f_center +/- half_width``.

    The boundaries are computed with the identical floating-point
    expressions (``f_center_hz - half_width_hz`` etc.) and comparisons
    that :func:`band_power` applies to the full ``rfftfreq`` grid, so
    slicing ``[k_lo : k_hi + 1]`` out of a full spectrum selects exactly
    the bins ``band_power`` would integrate.

    Raises
    ------
    MeasurementError
        If the band edges are not finite, or the band does not overlap
        the spectrum's frequency range (mirroring :func:`band_power`).
    """
    if not (math.isfinite(f_center_hz) and math.isfinite(half_width_hz)):
        raise MeasurementError(
            f"band {f_center_hz} +/- {half_width_hz} Hz must have finite edges"
        )
    if half_width_hz <= 0:
        raise MeasurementError(f"band half-width must be positive, got {half_width_hz}")
    bin_width = rfft_bin_width(num_samples, sample_rate_hz)
    top_bin = num_samples // 2
    bounds = _comparison_bin_range(
        f_center_hz - half_width_hz, f_center_hz + half_width_hz, bin_width, top_bin
    )
    if bounds is None:
        raise MeasurementError(
            f"band {f_center_hz} +/- {half_width_hz} Hz lies outside the PSD range "
            f"[0.0, {top_bin * bin_width}] Hz"
        )
    return bounds


def _fast_fft_length(target: int) -> int:
    """Smallest 5-smooth length >= ``target`` (pocketfft's sweet spot)."""
    if target <= 1:
        return 1
    bound = 1
    while bound < target:
        bound *= 2
    best = bound
    power5 = 1
    while power5 <= bound:
        power35 = power5
        while power35 <= bound:
            length = power35
            while length < target:
                length *= 2
            best = min(best, length)
            power35 *= 3
        power5 *= 5
    return best


class ZoomBandPlan:
    """Precomputed band-limited DFT of real signals (zoom transform).

    Evaluates ``X[k] = sum_t x[t] * exp(-2j*pi*k*t/n)`` for the
    contiguous bin range ``k_lo..k_hi`` only.  The signal is split into
    blocks of ``B`` samples; the per-bin phase inside a block is
    factored as a fixed heterodyne at the band-center bin times a
    low-order Taylor polynomial in the bin offset, so the per-sample
    work collapses to one real matrix product (the block *moments*).
    The across-block phases form a geometric progression per bin, which
    a Bluestein chirp-Z transform evaluates with three small
    power-of-smooth FFTs.  All phase arguments are reduced modulo the
    period with integer arithmetic before entering ``exp``, keeping the
    result within ~1e-13 of the reference rfft bins even at bin indices
    in the hundreds of thousands.

    The plan depends only on ``(num_samples, k_lo, k_hi)`` and is
    reusable across calls and across stacked-mode inputs; building one
    costs milliseconds, applying it to a ``(modes, n)`` stack costs
    ``O(n * order)`` plus the small CZT FFTs instead of a full-length
    transform.
    """

    #: Candidate block sizes, largest first (larger blocks shift work
    #: into the real matrix product, which is the cheapest path, and
    #: shrink the across-block CZT convolution).
    _BLOCK_CANDIDATES = (256, 128, 64, 32, 16, 8, 4, 2, 1)

    #: Taylor truncation target for the within-block phase expansion;
    #: comfortably below the band path's 1e-9 agreement budget.
    _TRUNCATION = 1e-16

    def __init__(self, num_samples: int, k_lo: int, k_hi: int) -> None:
        if num_samples < 1:
            raise MeasurementError(f"need >= 1 sample, got {num_samples}")
        if not 0 <= k_lo <= k_hi <= num_samples // 2:
            raise MeasurementError(
                f"bin range [{k_lo}, {k_hi}] is invalid for {num_samples} samples"
            )
        n = int(num_samples)
        self.num_samples = n
        self.k_lo = int(k_lo)
        self.k_hi = int(k_hi)
        self.num_bins = self.k_hi - self.k_lo + 1
        self._freqs_cache: dict[float, np.ndarray] = {}
        center = (self.k_lo + self.k_hi) // 2
        self.center_bin = center
        offset_max = max(center - self.k_lo, self.k_hi - center, 1)

        # Block size: largest candidate whose worst-case within-block
        # Taylor angle stays small enough for a low-order expansion.
        for block in self._BLOCK_CANDIDATES:
            # Worst-case within-block Taylor angle: 2*pi * offset_max *
            # (block-1)/2 / n; zero for single-sample blocks (the
            # expansion is then exact at order 0 — a plain chirp-Z).
            theta = np.pi * (block - 1) * offset_max / n
            if theta <= 0.4 or block == 1:
                break
        order = 0
        term = 1.0
        while order < 18:
            term = term * theta / (order + 1)
            if term < self._TRUNCATION:
                break
            order += 1
        self.block = block
        self.order = order

        num_blocks = -(-n // block)
        self.num_blocks = num_blocks
        m = self.num_bins

        # Within-block heterodyne x Taylor moment weights, real parts
        # then imaginary parts side by side, so the moment step runs as
        # one real matrix product on the (real) input.
        s = np.arange(block, dtype=np.int64)
        s_center = (block - 1) / 2.0
        hetero = np.exp(-2j * np.pi * ((center * s) % n) / n)
        powers = np.empty((block, order + 1))
        powers[:, 0] = 1.0
        for d in range(1, order + 1):
            powers[:, d] = powers[:, d - 1] * (s - s_center) / d
        weights = hetero[:, None] * powers
        self._weights = np.concatenate((weights.real, weights.imag), axis=1)

        # Bluestein chirp-Z across blocks: phases reduced with integer
        # arithmetic (the raw arguments reach ~1e11 and would otherwise
        # cost ~5 significant digits to pi-reduction).
        u = np.arange(num_blocks, dtype=np.int64)
        start_phase = np.exp(-2j * np.pi * ((self.k_lo * block * u) % n) / n)
        chirp_u = np.exp(-1j * np.pi * ((block * u * u) % (2 * n)) / n)
        self._chirp_in = start_phase * chirp_u

        fft_length = _fast_fft_length(num_blocks + m - 1)
        self._fft_length = fft_length
        j = np.arange(max(num_blocks, m), dtype=np.int64)
        inverse_chirp = np.exp(1j * np.pi * ((block * j * j) % (2 * n)) / n)
        kernel = np.zeros(fft_length, dtype=np.complex128)
        kernel[:m] = inverse_chirp[:m]
        if num_blocks > 1:
            kernel[fft_length - (num_blocks - 1) :] = inverse_chirp[1:num_blocks][::-1]
        self._kernel_fft = np.fft.fft(kernel)

        # Per-bin post factors: CZT output chirp, Taylor coefficients in
        # the bin offset, and the block-center phase shift.
        bins = np.arange(m, dtype=np.int64)
        out_chirp = np.exp(-1j * np.pi * ((block * bins * bins) % (2 * n)) / n)
        delta = (self.k_lo + bins) - center
        coefficients = (-2j * np.pi * delta / n) ** np.arange(order + 1)[:, None]
        center_shift = np.exp(-2j * np.pi * delta * s_center / n)
        self._post = coefficients * (out_chirp * center_shift)[None, :]

    @property
    def bins(self) -> np.ndarray:
        """The absolute rfft bin indices this plan evaluates."""
        return np.arange(self.k_lo, self.k_hi + 1)

    @property
    def padded_length(self) -> int:
        """Sample count after zero-padding to a whole number of blocks."""
        return self.num_blocks * self.block

    def frequencies(self, sample_rate_hz: float) -> np.ndarray:
        """The (cached, read-only) frequency grid of this plan's bins."""
        bin_width = rfft_bin_width(self.num_samples, sample_rate_hz)
        cached = self._freqs_cache.get(bin_width)
        if cached is None:
            cached = np.arange(self.k_lo, self.k_hi + 1) * bin_width
            cached.setflags(write=False)
            if len(self._freqs_cache) >= 4:
                self._freqs_cache.pop(next(iter(self._freqs_cache)))
            self._freqs_cache[bin_width] = cached
        return cached

    def transform(self, samples: np.ndarray) -> np.ndarray:
        """Band DFT bins of 1-D or ``(modes, n)`` real samples.

        Returns complex values matching ``np.fft.rfft(samples)[k_lo :
        k_hi + 1]`` to ~1e-13 relative.
        """
        x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        modes = x.shape[0]
        if x.shape[-1] != self.num_samples:
            raise MeasurementError(
                f"plan built for {self.num_samples} samples, got {x.shape[-1]}"
            )
        if self.padded_length == self.num_samples:
            blocks = x.reshape(modes, self.num_blocks, self.block)
        else:
            padded = np.zeros((modes, self.padded_length))
            padded[:, : self.num_samples] = x
            blocks = padded.reshape(modes, self.num_blocks, self.block)
        return self.transform_blocks(blocks)

    def transform_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Band DFT of pre-padded ``(modes, num_blocks, block)`` samples.

        The hot-path entry: callers that own a reusable padded workspace
        (see :func:`band_periodogram_psd`) hand its block-reshaped view
        straight in, skipping :meth:`transform`'s copy.
        """
        both = blocks @ self._weights
        k = self.order + 1
        # real + 1j * imag, added in place (addition commutes exactly);
        # each intermediate is dropped as soon as the next exists.
        moments = 1j * both[..., k:]
        moments += both[..., :k]
        del both
        chirped = moments.transpose(0, 2, 1) * self._chirp_in
        del moments
        spectrum = np.fft.fft(chirped, n=self._fft_length, axis=-1)
        del chirped
        spectrum *= self._kernel_fft
        convolved = np.fft.ifft(spectrum, axis=-1)[..., : self.num_bins]
        del spectrum
        return np.einsum("mdk,dk->mk", convolved, self._post)


#: Small process-wide plan cache: campaign cells re-measure the same
#: capture geometry for every repetition and segment.
_PLAN_CACHE: dict[tuple[int, int, int], ZoomBandPlan] = {}
_PLAN_CACHE_SIZE = 8


def get_zoom_plan(num_samples: int, k_lo: int, k_hi: int) -> ZoomBandPlan:
    """A (cached) :class:`ZoomBandPlan` for the given geometry."""
    key = (int(num_samples), int(k_lo), int(k_hi))
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = ZoomBandPlan(*key)
        while len(_PLAN_CACHE) >= _PLAN_CACHE_SIZE:
            _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
        _PLAN_CACHE[key] = plan
    return plan


def band_periodogram_psd(
    samples: np.ndarray,
    sample_rate_hz: float,
    k_lo: int,
    k_hi: int,
    window: np.ndarray | None = None,
    plan: ZoomBandPlan | None = None,
    window_sumsq: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Band-limited :func:`periodogram_psd`: bins ``k_lo..k_hi`` only.

    Same demeaning, windowing, scaling, and one-sided correction as the
    reference estimator; the returned arrays equal
    ``periodogram_psd(...)[k_lo : k_hi + 1]`` (frequencies bit-exactly,
    PSD to ~1e-12 relative).  Each mode is staged in turn in a shared
    zero-padded one-row workspace, so the hot path performs no
    full-length allocations.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    num_samples = samples.shape[-1]
    if num_samples < 2:
        raise MeasurementError(f"need >= 2 samples for a PSD, got {num_samples}")
    if sample_rate_hz <= 0:
        raise MeasurementError(f"sample rate must be positive, got {sample_rate_hz}")
    if window is not None and window.shape != (num_samples,):
        raise MeasurementError(
            f"window length {window.shape} does not match samples ({num_samples})"
        )
    if plan is None:
        plan = get_zoom_plan(num_samples, k_lo, k_hi)
    elif (plan.num_samples, plan.k_lo, plan.k_hi) != (num_samples, k_lo, k_hi):
        raise MeasurementError("zoom plan does not match the requested geometry")
    workspace = _workspace(plan.padded_length)
    if window is None:
        window, window_sumsq = _cached_hann(num_samples, workspace[0])
    elif window_sumsq is None:
        window_sumsq = np.sum(window**2)
    return _staged_band_periodogram(
        _array_fill_modes(samples),
        0,
        sample_rate_hz,
        window,
        window_sumsq,
        plan,
        workspace,
    )


_FillModes = Callable[[np.ndarray, int], Iterator[int]]


def _array_fill_modes(samples: np.ndarray) -> _FillModes:
    """A :meth:`~repro.em.synthesis.SynthesizedSignal.fill_modes` for an
    array: copies each mode's row into the one-row ``out`` in turn."""

    def fill_modes(out: np.ndarray, start: int) -> Iterator[int]:
        for mode, row in enumerate(samples):
            np.copyto(out[0], row[start : start + out.shape[-1]])
            yield mode

    return fill_modes


def _staged_band_periodogram(
    fill_modes: _FillModes,
    start: int,
    sample_rate_hz: float,
    window: np.ndarray,
    window_sumsq: float,
    plan: ZoomBandPlan,
    workspace: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The band periodogram of the segment starting at sample ``start``.

    ``fill_modes(out, start)`` writes each mode's raw segment in turn
    into the signal prefix of the ``(1, plan.padded_length)``
    ``workspace``, whose tail is zeroed here.  For each mode the mean is
    taken there, demeaning and
    windowing run in place, chunk by chunk, and the moment product reads
    the whole row.  The modes' ``|X|^2`` add into the PSD in mode order,
    the order a sum over a stacked ``(modes, bins)`` array takes.
    """
    num_samples = plan.num_samples
    if num_samples < plan.padded_length:
        workspace[:, num_samples:] = 0.0
    staged = workspace[:, :num_samples]
    blocks = workspace.reshape(1, plan.num_blocks, plan.block)
    psd: np.ndarray | None = None
    for _mode in fill_modes(staged, start):
        mean = staged.mean(axis=-1, keepdims=True)
        for chunk_start in range(0, num_samples, _STAGE_CHUNK_SAMPLES):
            chunk_stop = chunk_start + _STAGE_CHUNK_SAMPLES
            chunk = staged[:, chunk_start:chunk_stop]
            np.subtract(chunk, mean, out=chunk)
            chunk *= window[chunk_start:chunk_stop]
        power = np.abs(plan.transform_blocks(blocks)[0]) ** 2
        if psd is None:
            psd = power
        else:
            psd += power
    assert psd is not None
    psd *= 1.0 / (sample_rate_hz * window_sumsq)
    # One-sided correction, identical net factors to the reference path
    # (x2 everywhere except DC and, for even lengths, Nyquist).
    first_doubled = 1 if plan.k_lo == 0 else 0
    psd[first_doubled:] *= 2.0
    if num_samples % 2 == 0 and plan.k_hi == num_samples // 2:
        psd[-1] /= 2.0
    return plan.frequencies(sample_rate_hz), psd


def band_welch_psd(
    samples: np.ndarray | SynthesizedSignal,
    sample_rate_hz: float,
    segment_length: int,
    k_lo: int,
    k_hi: int,
    overlap: float = 0.5,
    plan: ZoomBandPlan | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Band-limited :func:`welch_psd`: bins ``k_lo..k_hi`` only.

    Segmenting, stepping, per-segment demeaning/windowing, and
    averaging all mirror the reference estimator; the bin range applies
    to the segment-length grid (the RBW grid), exactly as slicing the
    reference output would.

    ``samples`` is a sample array or a
    :class:`~repro.em.synthesis.SynthesizedSignal`.  A signal fills each
    segment, one mode at a time, straight into the analyzer's one-row
    workspace, so no capture-sized array exists; the result equals that
    of its materialized ``samples`` bit for bit.
    """
    if isinstance(samples, SynthesizedSignal):
        num_samples = samples.num_samples
        fill_modes = samples.fill_modes
    else:
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        num_samples = samples.shape[-1]
        fill_modes = _array_fill_modes(samples)

    if segment_length < 2:
        raise MeasurementError(f"segment length must be >= 2, got {segment_length}")
    if segment_length > num_samples:
        raise MeasurementError(
            f"segment length {segment_length} exceeds signal length {num_samples}"
        )
    if not 0.0 <= overlap < 1.0:
        raise MeasurementError(f"overlap must be in [0, 1), got {overlap}")
    if sample_rate_hz <= 0:
        raise MeasurementError(f"sample rate must be positive, got {sample_rate_hz}")
    if plan is None:
        plan = get_zoom_plan(segment_length, k_lo, k_hi)
    elif (plan.num_samples, plan.k_lo, plan.k_hi) != (segment_length, k_lo, k_hi):
        raise MeasurementError("zoom plan does not match the requested geometry")
    step = max(int(segment_length * (1.0 - overlap)), 1)
    workspace = _workspace(plan.padded_length)
    window, window_sumsq = _cached_hann(segment_length, workspace[0])
    accumulated: np.ndarray | None = None
    count = 0
    freqs: np.ndarray | None = None
    for start in range(0, num_samples - segment_length + 1, step):
        freqs, psd = _staged_band_periodogram(
            fill_modes,
            start,
            sample_rate_hz,
            window,
            window_sumsq,
            plan,
            workspace,
        )
        accumulated = psd if accumulated is None else accumulated + psd
        count += 1
    assert accumulated is not None and freqs is not None
    return freqs, accumulated / count


def peak_frequency(
    freqs: np.ndarray,
    psd: np.ndarray,
    f_low_hz: float | None = None,
    f_high_hz: float | None = None,
) -> float:
    """Frequency of the strongest PSD bin, optionally within a range."""
    freqs = np.asarray(freqs)
    psd = np.asarray(psd)
    mask = np.ones_like(freqs, dtype=bool)
    if f_low_hz is not None:
        mask &= freqs >= f_low_hz
    if f_high_hz is not None:
        mask &= freqs <= f_high_hz
    if not np.any(mask):
        raise MeasurementError("requested peak-search range contains no PSD bins")
    selected = np.where(mask)[0]
    return float(freqs[selected[np.argmax(psd[selected])]])
