"""Pairwise SAVAT measurement — the paper's methodology, end to end.

:func:`measure_savat` performs one A/B measurement exactly as Section III
and IV describe:

1. choose ``inst_loop_count`` so the alternation lands on the target
   frequency (80 kHz by default);
2. run the Figure 4 kernel on the simulated machine in cache steady
   state and capture the switching-activity trace of one full period;
3. project the trace through the machine's calibrated EM couplings to
   get the signal at the antenna;
4. extract the power in the +/-1 kHz band around the alternation
   frequency — either analytically (the Fourier coefficient of the
   periodic waveform; fast, the campaign default) or by synthesizing a
   full one-second capture and running it through the spectrum-analyzer
   model (the ``"full"`` method — the only mode that exercises Figure
   7's jitter/dispersion and the analyzer noise correction end to end;
   ``"synthesis"`` is accepted as a legacy alias);
5. correct for the analyzer's average noise level (as the real
   measurement procedure does), add the alternation-loop's residual
   self-noise, and divide by the number of A/B pairs per second.

The result is the per-pair signal energy in zeptojoules — the SAVAT.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from repro.codegen.alternation import build_alternation_program
from repro.codegen.frequency import FrequencyPlan, plan_for_cycles
from repro.codegen.pointers import advance_pointer, sweep_address_stream
from repro.em.coupling import band_power_from_modes, fourier_coefficient
from repro.em.synthesis import JitterModel, period_envelope, synthesize_measurement
from repro.errors import ConfigurationError
from repro.instruments.analyzer_path import reference_analyzer_enabled
from repro.instruments.spectrum_analyzer import Spectrum, SpectrumAnalyzer
from repro.isa.events import InstructionEvent, get_event
from repro.machines.calibrated import CalibratedMachine
from repro.machines.calibration import clear_profile_cache, profile_all_events
from repro.uarch.activity import ActivityTrace
from repro.uarch.cache import shift_ring_lines
from repro.uarch.fastpath import fast_path_enabled, prime_extrapolation_enabled
from repro.units import REFERENCE_IMPEDANCE, ZEPTOJOULE

#: Supported measurement methods.
METHODS = ("analytic", "full")

#: Legacy method spellings, normalized by ``MeasurementConfig``.
METHOD_ALIASES = {"synthesis": "full"}

#: Pipeline phases timed by :func:`record_phase_seconds`, in pipeline
#: order.  The campaign executor's observability layer labels its
#: ``savat_cell_phase_seconds`` / ``savat_phase_seconds_total`` metrics
#: with exactly these names.
PHASE_NAMES = ("prime", "core_run", "synthesize", "analyze")

#: Active phase-timing sink (``None``: phase timing disabled).
_PHASE_SINK: dict[str, float] | None = None


@contextmanager
def record_phase_seconds(sink: dict[str, float]) -> Iterator[dict[str, float]]:
    """Accumulate per-phase wall-clock seconds into ``sink``.

    While active, the measurement pipeline adds elapsed time under the
    keys ``"prime"`` (cache pre-conditioning), ``"core_run"``
    (instruction-level simulation), ``"synthesize"`` (signal tiling) and
    ``"analyze"`` (spectrum / band-power integration) — see
    :data:`PHASE_NAMES`.  The campaign executor wraps each cell in this
    to build the per-cell breakdown in ``matrix.metadata["execution"]``
    and the phase-labeled series in its metrics registry.
    """
    global _PHASE_SINK
    previous = _PHASE_SINK
    _PHASE_SINK = sink
    try:
        yield sink
    finally:
        _PHASE_SINK = previous


@contextmanager
def _phase(name: str) -> Iterator[None]:
    """Time a pipeline phase when a sink is installed (no-op otherwise)."""
    sink = _PHASE_SINK
    if sink is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        sink[name] = sink.get(name, 0.0) + time.perf_counter() - started


@dataclass(frozen=True)
class MeasurementConfig:
    """Knobs of one SAVAT measurement (paper defaults)."""

    alternation_frequency_hz: float = 80e3
    band_half_width_hz: float = 1e3
    rbw_hz: float = 1.0
    duration_s: float = 1.0
    method: str = "analytic"
    loop_noise_fraction: float = 0.05
    noise_corrected: bool = True
    jitter: JitterModel = field(default_factory=JitterModel)

    def __post_init__(self) -> None:
        if self.method in METHOD_ALIASES:
            object.__setattr__(self, "method", METHOD_ALIASES[self.method])
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown measurement method {self.method!r}; options: {METHODS}"
            )
        for name in (
            "alternation_frequency_hz",
            "band_half_width_hz",
            "rbw_hz",
            "duration_s",
            "loop_noise_fraction",
        ):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.alternation_frequency_hz <= 0:
            raise ConfigurationError("alternation frequency must be positive")
        if self.band_half_width_hz <= 0:
            raise ConfigurationError("band half-width must be positive")
        if self.rbw_hz <= 0:
            raise ConfigurationError(
                f"resolution bandwidth must be positive, got {self.rbw_hz}"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration_s}"
            )
        if self.loop_noise_fraction < 0:
            raise ConfigurationError("loop noise fraction must be non-negative")

    def with_method(self, method: str) -> "MeasurementConfig":
        """Copy of this config with a different measurement method."""
        return replace(self, method=method)


@dataclass
class SavatResult:
    """Outcome of one pairwise SAVAT measurement."""

    event_a: str
    event_b: str
    machine: str
    distance_m: float
    savat_zj: float
    signal_band_power_w: float
    noise_band_power_w: float
    pairs_per_second: float
    achieved_frequency_hz: float
    plan: FrequencyPlan
    spectrum: Spectrum | None = None

    def __str__(self) -> str:
        return (
            f"SAVAT({self.event_a}/{self.event_b}) = {self.savat_zj:.2f} zJ "
            f"on {self.machine} at {self.distance_m * 100:.0f} cm"
        )


def _plan_pair(
    machine: CalibratedMachine,
    event_a: InstructionEvent,
    event_b: InstructionEvent,
    frequency_hz: float,
) -> FrequencyPlan:
    """Frequency plan for a pair, from the spec's memoized event CPIs.

    The CPIs are :func:`profile_all_events`'s, which calibration has
    usually measured already: a 64-iteration probe per event on a fresh
    core of ``machine.spec``, memoized per spec.
    """
    spec = machine.spec
    profiles = profile_all_events(spec)
    return plan_for_cycles(
        event_a,
        event_b,
        profiles[event_a.name].cycles_per_iteration,
        profiles[event_b.name].cycles_per_iteration,
        spec.clock_hz,
        spec.l1_geometry,
        spec.l2_geometry,
        frequency_hz,
    )


#: Cap on replayed warm-up periods (memory-heavy pairs need ~2000 to
#: cycle an entire off-chip footprint through the caches).
MAX_PRIME_PERIODS = 4096

#: Relative frequency error above which ``inst_loop_count`` is re-tuned.
FREQUENCY_TOLERANCE = 0.02

#: Chunk size, in alternation periods, used by the steady-state
#: extrapolation detector: priming is replayed chunk by chunk, and two
#: equal canonical snapshots one chunk apart prove pass-periodicity.
PRIME_CHUNK_PERIODS = 32


def _sweep_chunk_stream(sweeps, count: int, start_period: int, periods: int):
    """Interleaved priming stream for ``periods`` periods from ``start_period``.

    ``sweeps`` lists the memory halves' ``(SweepPlan, is_store)`` in
    execution order; the returned stream interleaves them period by
    period exactly as the alternation loop issues them.
    """
    total = periods * count
    streams = [
        sweep_address_stream(
            plan,
            advance_pointer(plan.base, plan.mask, plan.offset, start_period * count),
            total,
        )
        for plan, _is_store in sweeps
    ]
    if len(sweeps) == 1:
        return streams[0], sweeps[0][1]
    stream = np.empty((periods, 2 * count), dtype=np.int64)
    stream[:, :count] = streams[0].reshape(periods, count)
    stream[:, count:] = streams[1].reshape(periods, count)
    store_a = sweeps[0][1]
    store_b = sweeps[1][1]
    if store_a == store_b:
        return stream.reshape(-1), store_a
    period_writes = np.empty(2 * count, dtype=bool)
    period_writes[:count] = store_a
    period_writes[count:] = store_b
    return stream.reshape(-1), np.tile(period_writes, periods)


def _counter_delta(now, before):
    return (
        {name: now[0][name] - before[0][name] for name in now[0]},
        {name: now[1][name] - before[1][name] for name in now[1]},
        now[2] - before[2],
    )


class _LevelWatch:
    """Steady-state detector for one cache level at chunk boundaries."""

    def __init__(self, cache, rings) -> None:
        self.cache = cache
        self.rings = rings
        self.lines = -1
        self.snapshot = None

    def repeats(self, swept: int, gate: Callable[[], bool] = lambda: True) -> bool:
        """True when the level's canonical state equals the previous boundary's.

        The canonical state rotates every ring back by the ``swept``
        slots already swept.  A snapshot is taken only when the level's
        line count equals the previous boundary's (equal snapshots hold
        equally many lines) and then ``gate()`` holds; otherwise the
        chain of snapshots restarts.  ``gate`` is not called when the
        line count changed.
        """
        lines = self.cache.resident_lines()
        settled, self.lines = lines == self.lines, lines
        previous, self.snapshot = self.snapshot, None
        if not (settled and gate()):
            return False
        self.snapshot = self.cache.ring_shifted_state(self.rings, -swept)
        return previous is not None and all(map(np.array_equal, previous, self.snapshot))


def _prime_fast(hierarchy, sweeps, count: int, periods_needed: int) -> None:
    """Replay priming periods, extrapolating each level's periodic steady state.

    Each period advances every memory sweep by ``count`` ring slots, so
    once a level's state repeats *up to that rotation* its future is
    pure repetition.  Priming replays :data:`PRIME_CHUNK_PERIODS`-period
    chunks and, after each, canonicalizes a level's state by rotating
    every ring back by the slots already swept.  Two detectors compare
    consecutive canonical snapshots:

    * **L1.**  L1 never reads L2 state, and rotating every ring is an
      L1 isomorphism (every ring's slot count divides by the L1 set
      count), so L1 needs no L2-absence check.  Once L1's snapshot
      repeats, each later chunk's L1 behaviour is the reference chunk's
      (the one just replayed) with every ring line advanced by
      ``(start - reference start) * count`` slots.  Full chunks then
      stop replaying L1: they add the reference chunk's L1 counter
      delta, owe L1 one more chunk of rotation, and replay only L2, on
      the reference chunk's L2-bound stream rotated into place.  The
      owed rotation is applied before any real L1 replay (the sub-chunk
      remainder) and on exit.
    * **L2 (whole state).**  Once L1 is periodic, equal L2 snapshots at
      consecutive boundaries mean the whole hierarchy repeats: the
      remaining whole chunks' counter deltas are added arithmetically,
      both levels rotate forward, and only the remainder is replayed.
      L2 rotation is an isomorphism for rings whose slot count divides
      the L2 set count; an L1-sized ring smaller than the L2 set count
      qualifies *dynamically*, while none of its lines are resident in
      L2 — the L2 half of the map is then vacuous (a line that does
      spill into L2 persists there for hundreds of periods, far longer
      than a chunk, so the per-boundary absence check cannot miss it).

    Counters and final state are bit-identical to replaying every access
    (``SAVAT_PRIME_EXTRAPOLATE=0``).  Sweeps that fail L1 divisibility
    replay in full through the array cache engine.  A level is snapshotted
    only once its line count has stopped changing, which can delay
    detection by one chunk but never changes its outcome.
    """
    chunk = PRIME_CHUNK_PERIODS
    line = hierarchy.line_bytes
    rings = [(plan.base // line, plan.num_slots) for plan, _is_store in sweeps]
    check_rings = hierarchy.ring_shift_plan(rings)
    eligible = (
        prime_extrapolation_enabled()
        and periods_needed >= 3 * chunk
        and all(plan.offset == line for plan, _is_store in sweeps)
        and check_rings is not None
    )
    if not eligible:
        stream, writes = _sweep_chunk_stream(sweeps, count, 0, periods_needed)
        hierarchy.access_stream(stream, writes)
        return

    l1, l2 = hierarchy.l1, hierarchy.l2
    l1_watch = _LevelWatch(l1, rings)
    l2_watch = _LevelWatch(l2, rings)
    # (start period, L2-bound ids and writes, L1 counter delta) of the
    # reference chunk, once L1 is periodic.
    reference = None
    owed = 0  # slots of L1 rotation not yet applied
    counters = hierarchy.counters()
    done = 0
    while done < periods_needed:
        todo = min(chunk, periods_needed - done)
        if reference is None or todo < chunk:
            if owed:
                l1.apply_ring_shift(rings, owed)
                owed = 0
            stream, writes = _sweep_chunk_stream(sweeps, count, done, todo)
            l2_ids, l2_writes, _miss_idx, _wb = hierarchy.replay_l1(stream, writes)
        else:
            start, reference_ids, l2_writes, l1_delta = reference
            hierarchy.add_counters((l1_delta, {}, 0))
            owed += chunk * count
            l2_ids = shift_ring_lines(reference_ids, rings, (done - start) * count)
        hierarchy.replay_l2(l2_ids, l2_writes)
        done += todo
        if todo < chunk or done >= periods_needed:
            break
        previous_counters, counters = counters, hierarchy.counters()
        if reference is None and l1_watch.repeats(done * count):
            l1_delta = _counter_delta(counters, previous_counters)[0]
            reference = (done - chunk, l2_ids, l2_writes, l1_delta)
        if l2_watch.repeats(
            done * count,
            lambda: reference is not None and hierarchy.rings_absent_from_l2(check_rings),
        ):
            skip = (periods_needed - done) // chunk
            if skip:
                hierarchy.add_counters(
                    _counter_delta(counters, previous_counters), times=skip
                )
                owed += skip * chunk * count
                l2.apply_ring_shift(rings, skip * chunk * count)
                done += skip * chunk
    if owed:
        l1.apply_ring_shift(rings, owed)


def _prime_lone_ring(hierarchy, sweeps, accesses: int) -> bool:
    """Prime a reset hierarchy for a lone ring in closed form.

    Applies when exactly one half touches memory, one line per slot, and
    extrapolation is on: :meth:`MemoryHierarchy.prime_ring
    <repro.uarch.hierarchy.MemoryHierarchy.prime_ring>` then writes the
    state and counters directly if the ring's geometry allows.  Returns
    False, with ``hierarchy`` untouched, otherwise.
    """
    if len(sweeps) != 1 or not prime_extrapolation_enabled():
        return False
    plan, is_store = sweeps[0]
    line = hierarchy.line_bytes
    if plan.offset != line:
        return False
    return hierarchy.prime_ring(plan.base // line, plan.num_slots, accesses, is_store)


def prime_alternation_steady_state(core, spec) -> tuple[int, int]:
    """Drive the caches to the alternation loop's periodic steady state.

    The two halves' sweeps interact: a big sweep slowly walks the other
    half's lines out of the caches, a few lines per period, and the
    other half re-fetches them at the same slow rate.  Reaching that
    steady state requires cycling the *larger* footprint completely, so
    this replays both halves' address streams (just the cache accesses —
    no instruction simulation) for enough periods, and returns the sweep
    pointers at the start of the next period so the measured run
    continues seamlessly.

    The fast path precomputes both halves' address streams with NumPy
    (the pointer recurrence has a closed form), interleaves them period
    by period in execution order, and replays them through the array
    cache engine behind
    :meth:`~repro.uarch.hierarchy.MemoryHierarchy.access_stream` —
    extrapolating the pass-periodic tail arithmetically when the sweeps
    permit it (see :func:`_prime_fast`).  When only one half touches
    memory, the primed state depends only on its ring and the number of
    accesses, and for rings whose slot count both set counts divide it
    is written in closed form, with no replay at all
    (:func:`_prime_lone_ring`).  ``SAVAT_PRIME_EXTRAPOLATE=0`` disables
    both the extrapolation and the closed form.  State and statistics
    are bit-identical to the scalar reference loop below
    (``SAVAT_REFERENCE_PATH=1`` to force it).
    """
    core.hierarchy.reset()
    count = spec.inst_loop_count
    offset_a = spec.sweep_a.offset
    offset_b = spec.sweep_b.offset

    periods_needed = 2
    for sweep, event in ((spec.sweep_a, spec.event_a), (spec.sweep_b, spec.event_b)):
        if event.is_memory:
            periods_needed = max(periods_needed, -(-sweep.num_slots // count) + 2)
    periods_needed = min(periods_needed, MAX_PRIME_PERIODS)

    mask_a = spec.sweep_a.mask
    mask_b = spec.sweep_b.mask
    a_is_memory = spec.event_a.is_memory
    b_is_memory = spec.event_b.is_memory
    a_is_store = spec.event_a.is_store
    b_is_store = spec.event_b.is_store
    total = periods_needed * count

    if fast_path_enabled():
        sweeps = []
        if a_is_memory:
            sweeps.append((spec.sweep_a, a_is_store))
        if b_is_memory:
            sweeps.append((spec.sweep_b, b_is_store))
        if sweeps and not _prime_lone_ring(core.hierarchy, sweeps, total):
            _prime_fast(core.hierarchy, sweeps, count, periods_needed)
        pointer_a = advance_pointer(spec.sweep_a.base, mask_a, offset_a, total)
        pointer_b = advance_pointer(spec.sweep_b.base, mask_b, offset_b, total)
        return pointer_a, pointer_b

    pointer_a = spec.sweep_a.base
    pointer_b = spec.sweep_b.base
    access = core.hierarchy.access

    for _period in range(periods_needed):
        for _ in range(count):
            pointer_a = (pointer_a & ~mask_a) | ((pointer_a + offset_a) & mask_a)
            if a_is_memory:
                access(pointer_a, a_is_store)
        for _ in range(count):
            pointer_b = (pointer_b & ~mask_b) | ((pointer_b + offset_b) & mask_b)
            if b_is_memory:
                access(pointer_b, b_is_store)
    return pointer_a, pointer_b


def simulate_alternation_period(
    machine: CalibratedMachine,
    plan: FrequencyPlan,
) -> tuple[ActivityTrace, FrequencyPlan]:
    """One steady-state alternation period's activity trace.

    Replays the address streams to periodic steady state, runs one full
    warm-up period through the core, then captures the next period.  If
    the achieved alternation frequency misses the target by more than
    :data:`FREQUENCY_TOLERANCE` (pair-context cache interference can
    change per-iteration cost versus the isolated probes), the
    ``inst_loop_count`` is re-tuned and the simulation repeated — the
    software-side frequency adjustment the paper's methodology allows.

    Returns the measured trace together with the (possibly re-tuned)
    plan actually used.  Only that trace is materialized (inside the
    ``core_run`` phase); the warm-up period and discarded attempts are
    judged by their cycle counts alone.
    """
    for _attempt in range(3):
        core = machine.make_core()
        simulated_plan = plan
        spec = plan.spec
        program = build_alternation_program(spec)
        with _phase("prime"):
            pointer_a, pointer_b = prime_alternation_steady_state(core, spec)
        registers = spec.initial_registers()
        registers["esi"] = pointer_a
        registers["edi"] = pointer_b
        for name, value in registers.items():
            core.registers[name] = value
        with _phase("core_run"):
            core.run(program, warm_hierarchy=True)  # warm-up period
            result = core.run(program, warm_hierarchy=True)  # measured period

        achieved = core.clock_hz / max(result.cycles, 1)
        relative_error = abs(achieved - plan.target_frequency_hz) / plan.target_frequency_hz
        if relative_error <= FREQUENCY_TOLERANCE:
            break
        retuned_count = max(
            round(spec.inst_loop_count * achieved / plan.target_frequency_hz), 1
        )
        if retuned_count == spec.inst_loop_count:
            break
        plan = replace(
            plan,
            spec=replace(spec, inst_loop_count=retuned_count),
            predicted_frequency_hz=plan.target_frequency_hz,
        )
    # On exhausted retune attempts the trace in hand was simulated with
    # ``simulated_plan``, not the freshly re-tuned ``plan`` — return the
    # plan that actually produced it so downstream pairs-per-second and
    # frequency bookkeeping stay consistent with the trace.
    with _phase("core_run"):
        trace = result.trace
    return trace, simulated_plan


def measure_savat(
    machine: CalibratedMachine,
    event_a: InstructionEvent | str,
    event_b: InstructionEvent | str,
    config: MeasurementConfig | None = None,
    rng: np.random.Generator | None = None,
    trace: ActivityTrace | None = None,
    plan: FrequencyPlan | None = None,
) -> SavatResult:
    """Measure the pairwise SAVAT of (A, B) on a calibrated machine.

    Parameters
    ----------
    machine:
        A calibrated machine from
        :func:`repro.machines.load_calibrated_machine`.
    event_a, event_b:
        Paper events (objects or names).
    config:
        Measurement configuration (defaults to the paper's setup).
    rng:
        Randomness for the noise models; omit for the deterministic
        expected-value measurement.
    trace, plan:
        Pre-computed period trace and plan (the campaign runner reuses
        them across repetitions, since repetitions re-draw only the
        environment, as in the paper's multi-day repeats).
    """
    config = config or MeasurementConfig()
    if isinstance(event_a, str):
        event_a = get_event(event_a)
    if isinstance(event_b, str):
        event_b = get_event(event_b)

    if plan is None:
        plan = _plan_pair(machine, event_a, event_b, config.alternation_frequency_hz)
    if trace is None:
        trace, plan = simulate_alternation_period(machine, plan)

    achieved_frequency = 1.0 / trace.duration_s
    pairs_per_second = plan.spec.inst_loop_count * achieved_frequency

    spectrum: Spectrum | None = None
    if config.method == "analytic":
        with _phase("analyze"):
            signal_power = _analytic_signal_power(machine, trace)
            noise_residual = _noise_residual(machine, config, rng)
    else:
        signal_power, noise_residual, spectrum = _measure_by_synthesis(
            machine, trace, config, rng
        )

    total_power = _combine_powers(
        machine, event_a, event_b, config, rng,
        signal_power, noise_residual, pairs_per_second,
    )

    return SavatResult(
        event_a=event_a.name,
        event_b=event_b.name,
        machine=machine.name,
        distance_m=machine.distance_m,
        savat_zj=total_power / pairs_per_second / ZEPTOJOULE,
        signal_band_power_w=signal_power,
        noise_band_power_w=noise_residual,
        pairs_per_second=pairs_per_second,
        achieved_frequency_hz=achieved_frequency,
        plan=plan,
        spectrum=spectrum,
    )


def measure_savat_samples(
    machine: CalibratedMachine,
    event_a: InstructionEvent | str,
    event_b: InstructionEvent | str,
    config: MeasurementConfig | None = None,
    rng: np.random.Generator | None = None,
    trace: ActivityTrace | None = None,
    plan: FrequencyPlan | None = None,
    repetitions: int = 1,
) -> np.ndarray:
    """All ``repetitions`` SAVAT samples of one cell, batched.

    Bit-identical to calling :func:`measure_savat` ``repetitions`` times
    with the shared ``rng``/``trace``/``plan`` (the campaign executor's
    historical loop): every random draw happens in the same order, and
    the jitter-independent per-repetition rework is hoisted instead —
    the analytic band power is computed once (it is a pure function of
    the trace), and the full method's period envelope is projected once
    and re-tiled per repetition.  Phase timings still attribute to
    ``synthesize``/``analyze`` as before.

    Returns the per-repetition ``savat_zj`` values, shape
    ``(repetitions,)``.
    """
    config = config or MeasurementConfig()
    if repetitions <= 0:
        raise ConfigurationError(f"repetitions must be positive, got {repetitions}")
    if isinstance(event_a, str):
        event_a = get_event(event_a)
    if isinstance(event_b, str):
        event_b = get_event(event_b)

    if plan is None:
        plan = _plan_pair(machine, event_a, event_b, config.alternation_frequency_hz)
    if trace is None:
        trace, plan = simulate_alternation_period(machine, plan)

    achieved_frequency = 1.0 / trace.duration_s
    pairs_per_second = plan.spec.inst_loop_count * achieved_frequency

    samples = np.empty(repetitions)
    if config.method == "analytic":
        with _phase("analyze"):
            signal_power = _analytic_signal_power(machine, trace)
        for repetition in range(repetitions):
            with _phase("analyze"):
                noise_residual = _noise_residual(machine, config, rng)
            total_power = _combine_powers(
                machine, event_a, event_b, config, rng,
                signal_power, noise_residual, pairs_per_second,
            )
            samples[repetition] = total_power / pairs_per_second / ZEPTOJOULE
    else:
        with _phase("synthesize"):
            envelope = period_envelope(trace, machine.coupling)
        for repetition in range(repetitions):
            signal_power, noise_residual, _spectrum = _measure_by_synthesis(
                machine, trace, config, rng, envelope=envelope
            )
            total_power = _combine_powers(
                machine, event_a, event_b, config, rng,
                signal_power, noise_residual, pairs_per_second,
            )
            samples[repetition] = total_power / pairs_per_second / ZEPTOJOULE
    return samples


def _analytic_signal_power(machine: CalibratedMachine, trace: ActivityTrace) -> float:
    """Band signal power of the periodic waveform, via Fourier modes."""
    waveform = machine.coupling.project_trace(trace)
    coefficients = fourier_coefficient(waveform)
    return band_power_from_modes(coefficients, REFERENCE_IMPEDANCE)


def _combine_powers(
    machine: CalibratedMachine,
    event_a: InstructionEvent,
    event_b: InstructionEvent,
    config: MeasurementConfig,
    rng: np.random.Generator | None,
    signal_power: float,
    noise_residual: float,
    pairs_per_second: float,
) -> float:
    """Fold self-noise and loop noise into the total band power (W)."""
    self_noise_power = (
        machine.self_noise_j(event_a.name) + machine.self_noise_j(event_b.name)
    ) * pairs_per_second
    loop_factor = 1.0
    if rng is not None and config.loop_noise_fraction > 0:
        loop_factor = max(1.0 + rng.normal(0.0, config.loop_noise_fraction), 0.0)
    total_power = (signal_power + self_noise_power) * loop_factor + noise_residual
    return max(total_power, 0.0)


def _noise_residual(
    machine: CalibratedMachine,
    config: MeasurementConfig,
    rng: np.random.Generator | None,
) -> float:
    """Band noise power left after the analyzer's noise correction."""
    expected = machine.environment.band_noise_power(
        config.alternation_frequency_hz, config.band_half_width_hz, rng=None
    )
    drawn = machine.environment.band_noise_power(
        config.alternation_frequency_hz, config.band_half_width_hz, rng=rng
    )
    if not config.noise_corrected:
        return drawn
    return drawn - expected


def _measure_by_synthesis(
    machine: CalibratedMachine,
    trace: ActivityTrace,
    config: MeasurementConfig,
    rng: np.random.Generator | None,
    envelope: np.ndarray | None = None,
) -> tuple[float, float, Spectrum]:
    """Full signal-path measurement: synthesize, analyze, integrate.

    With ``rng=None`` this is the deterministic expected-value path:
    the period trace is tiled with *no* timing jitter and the analyzer
    adds no noise, instead of silently substituting a fixed-seed
    generator whose jitter draws masqueraded as determinism.

    The spectral step runs through the band-limited analyzer by default
    and the full-sweep reference under ``SAVAT_REFERENCE_ANALYZER=1``
    (see :mod:`repro.instruments.analyzer_path`); the band analyzer's
    spectrum covers only the measurement band, so callers that plot the
    whole sweep should force the reference path.  ``envelope``
    optionally carries a precomputed :func:`period_envelope` so batched
    repetitions skip re-projecting the jitter-independent trace.

    ``synthesize`` only draws the jittered tiling; the samples are
    computed inside ``analyze``, where the band analyzer fills them
    segment by segment, one mode at a time, into its one-row workspace
    (the reference analyzer materializes the whole capture first).
    """
    jitter = config.jitter
    if rng is None:
        jitter = JitterModel(period_sigma=0.0, drift_sigma=0.0)
    with _phase("synthesize"):
        signal = synthesize_measurement(
            trace,
            machine.coupling,
            duration_s=max(config.duration_s, 1.0 / config.rbw_hz),
            rng=rng,
            jitter=jitter,
            envelope=envelope,
        )
    with _phase("analyze"):
        analyzer = SpectrumAnalyzer(
            rbw_hz=config.rbw_hz, environment=machine.environment
        )
        if reference_analyzer_enabled():
            spectrum = analyzer.measure(signal, rng=rng)
        else:
            spectrum = analyzer.measure_band(
                signal,
                config.alternation_frequency_hz,
                config.band_half_width_hz,
                rng=rng,
            )
        band = spectrum.band_power_w(
            config.alternation_frequency_hz, config.band_half_width_hz
        )
    expected_noise = (
        machine.environment.total_floor_w_per_hz * 2.0 * config.band_half_width_hz
    )
    if config.noise_corrected:
        return max(band - expected_noise, 0.0), 0.0, spectrum
    return band, 0.0, spectrum


def clear_cpi_cache() -> None:
    """Drop the memoized per-event loop timings the planner reads.

    They are the per-spec :func:`profile_all_events` profiles, so this
    is :func:`repro.machines.calibration.clear_profile_cache`.
    """
    clear_profile_cache()
