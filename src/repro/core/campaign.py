"""Campaign runner: the full N-by-N, 10-repetition measurement of §IV.

One campaign measures every ordered (A, B) pairing of a chosen event set
with a fixed machine, distance, and alternation frequency, repeating
each measurement ``repetitions`` times.  As in the paper — where the ten
repetitions happened "over a period of multiple days to assess how the
measurement is affected by changes in radio signal interference, room
temperature, errors in positioning the antenna, etc." — the variation
between repetitions comes from the environment and the alternation
loop, not the code under test, so the deterministic kernel simulation is
shared across repetitions and only the noise is re-drawn.

Cell execution is delegated to :mod:`repro.core.executor`, which fans
the independent cells out across worker processes and caches finished
cells on disk, while a per-cell seed schedule keeps parallel, serial,
and cached runs bit-identical.  :func:`run_campaigns` measures several
distances of one machine in one execution, producing each pair's
kernel trace once for all of them; :func:`run_campaign` is its
one-distance case.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.core.executor import (
    DEFAULT_MAX_RETRIES,
    CampaignStats,
    ProgressCallback,
    ResultCache,
    WorkerPool,
    execute_campaign,
)
from repro.core.faults import FaultPlan
from repro.core.trace_cache import TraceCache
from repro.core.matrix import SavatMatrix
from repro.core.savat import MeasurementConfig
from repro.isa.events import EVENT_ORDER, InstructionEvent, get_event
from repro.machines.calibrated import CalibratedMachine
from repro.obs import CampaignObservability

#: Repetitions used in the paper's campaigns.
PAPER_REPETITIONS = 10


def run_campaign(
    machine: CalibratedMachine,
    config: MeasurementConfig | None = None,
    events: Sequence[InstructionEvent | str] | None = None,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = 0,
    progress: ProgressCallback | None = None,
    workers: int = 0,
    cache_dir: str | os.PathLike | None = None,
    cache: ResultCache | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    cell_timeout_s: float | None = None,
    fault_plan: FaultPlan | None = None,
    observability: CampaignObservability | None = None,
    trace_cache: TraceCache | None = None,
    pool: WorkerPool | None = None,
) -> SavatMatrix:
    """Measure the full pairwise SAVAT matrix.

    Execution routes through :mod:`repro.core.executor`: cells carry a
    deterministic per-cell seed schedule, so serial and parallel runs
    of the same campaign produce bit-identical samples, and an optional
    on-disk cache lets repeated campaigns skip simulation entirely.  The
    cache is also how an interrupted campaign resumes: rerun it against
    the same cache and only the cells missing from it are simulated.

    **Timeout semantics** are identical in serial and pool modes: with
    ``cell_timeout_s`` set, each attempt's budget is measured from its
    submission, so a pool then has no more attempts outstanding than
    workers (without a budget it queues one more cell behind each
    running one).  An attempt that finishes over budget counts one timeout
    and its result is discarded; a running attempt that passes its
    deadline is abandoned, and an owned pool's workers are terminated at
    the end.  Either way the cell is retried from its original
    seed-schedule entry (one retry per overrun) until the
    ``max_retries`` budget is exhausted, at which point the campaign
    fails.  A cell that overruns and then succeeds therefore produces
    the same ``timeouts``/``retries`` counters, the same cached cells,
    and bit-identical samples in both modes.

    Parameters
    ----------
    machine:
        Calibrated machine (fixes the distance too).
    config:
        Measurement configuration; the paper's defaults if omitted.
    events:
        Event subset (defaults to all eleven, in paper order).
    repetitions:
        Measurements per cell (paper: 10).
    seed:
        Seed for the campaign's noise randomness, expanded into the
        per-cell schedule by
        :func:`repro.core.executor.spawn_cell_seeds`.
    progress:
        Optional callback ``(event_a, event_b, done, total)`` invoked
        after each cell completes.
    workers:
        Worker processes to fan cells out across (``0`` or ``1``:
        serial, same results bit for bit).
    cache_dir:
        Directory for the on-disk result cache (``None``: no caching).
    cache:
        A pre-built :class:`~repro.core.executor.ResultCache`;
        takes precedence over ``cache_dir``.
    max_retries:
        Transient-fault retry budget per cell; a retried cell replays
        its original seed-schedule entry, so retries never change the
        campaign's samples.
    cell_timeout_s:
        Wall-clock budget per cell attempt, from its submission
        (preemptive when worker processes are in use; see
        :func:`repro.core.executor.execute_campaign`).  With a budget a
        pool submits one attempt per worker, none queued.
    fault_plan:
        Deterministic :class:`~repro.core.faults.FaultPlan` to inject
        (testing/debugging only).
    observability:
        Optional :class:`~repro.obs.CampaignObservability` bundle: a
        JSONL run trace, a live progress line, and a Prometheus metrics
        export, all fed by the same registry that generates the
        matrix's ``metadata["execution"]`` entry.
    trace_cache:
        On-disk :class:`~repro.core.trace_cache.TraceCache` serving the
        prime/core_run trace-production stage across executions
        (``None``: none).  Samples are bit-identical with the cache on
        or off.
    pool:
        Persistent :class:`~repro.core.executor.WorkerPool` to run the
        campaign over (a study shares one pool across its machines);
        overrides ``workers``.

    Returns
    -------
    SavatMatrix
        All repetitions of all ordered pairings, in zJ.  The matrix
        metadata carries an ``"execution"`` entry with cache hit/miss
        counters, worker count, per-cell timings, and the
        fault-tolerance counters (retries, timeouts, quarantined
        cells).
    """
    config = config or MeasurementConfig()
    resolved = resolve_events(events)
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)

    samples, stats = execute_campaign(
        machine,
        resolved,
        config=config,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
        cache=cache,
        progress=progress,
        max_retries=max_retries,
        cell_timeout_s=cell_timeout_s,
        fault_plan=fault_plan,
        observability=observability,
        trace_cache=trace_cache,
        pool=pool,
    )
    return _matrix(machine, resolved, config, repetitions, seed, samples, stats)


def run_campaigns(
    machines: Sequence[CalibratedMachine],
    config: MeasurementConfig | None = None,
    events: Sequence[InstructionEvent | str] | None = None,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = 0,
    progress: ProgressCallback | None = None,
    workers: int = 0,
    cache: ResultCache | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    cell_timeout_s: float | None = None,
    observability: Sequence[CampaignObservability] | None = None,
    trace_cache: TraceCache | None = None,
    pool: WorkerPool | None = None,
) -> list[SavatMatrix]:
    """One campaign per calibration of one machine, in one execution.

    ``machines`` are calibrations of one machine spec at distinct
    distances.  Each ordered pair's kernel trace is produced once and
    measured at every distance, yet each returned matrix equals the
    :func:`run_campaign` call with the same arguments bit for bit and
    carries its own ``metadata["execution"]``.  ``observability`` takes
    one bundle per calibration; the other parameters are
    :func:`run_campaign`'s.
    """
    config = config or MeasurementConfig()
    resolved = resolve_events(events)
    results = execute_campaign(
        list(machines),
        resolved,
        config=config,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
        cache=cache,
        progress=progress,
        max_retries=max_retries,
        cell_timeout_s=cell_timeout_s,
        observability=observability,
        trace_cache=trace_cache,
        pool=pool,
    )
    return [
        _matrix(machine, resolved, config, repetitions, seed, samples, stats)
        for machine, (samples, stats) in zip(machines, results)
    ]


def resolve_events(
    events: Sequence[InstructionEvent | str] | None,
) -> list[InstructionEvent]:
    """Event objects for names or events; every paper event, in order, for ``None``."""
    if events is None:
        return [get_event(name) for name in EVENT_ORDER]
    return [get_event(e) if isinstance(e, str) else e for e in events]


def _matrix(
    machine: CalibratedMachine,
    events: Sequence[InstructionEvent],
    config: MeasurementConfig,
    repetitions: int,
    seed: int,
    samples,
    stats: CampaignStats,
) -> SavatMatrix:
    return SavatMatrix(
        events=tuple(event.name for event in events),
        samples_zj=samples,
        machine=machine.name,
        distance_m=machine.distance_m,
        metadata={
            "alternation_frequency_hz": config.alternation_frequency_hz,
            "band_half_width_hz": config.band_half_width_hz,
            "method": config.method,
            "repetitions": repetitions,
            "seed": seed,
            "execution": stats.as_metadata(),
        },
    )


def selected_pairings_means(
    matrix: SavatMatrix, pairings: Sequence[tuple[str, str]]
) -> list[tuple[str, float]]:
    """Mean SAVAT for a list of (A, B) pairings, as chart-ready rows.

    Used for the paper's bar charts (Figures 11/13/15/16).
    """
    rows: list[tuple[str, float]] = []
    for event_a, event_b in pairings:
        rows.append((f"{event_a}/{event_b}", matrix.cell(event_a, event_b)))
    return rows
