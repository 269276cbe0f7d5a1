"""Study runner: many campaigns, one worker pool, one trace cache.

The paper's headline experiments are *studies*, not single campaigns —
the same 11 events measured across machines and distances (Figs. 9–18),
and §V-B's distance sweep re-measuring identical pairs at 10/25/50/100
cm.  The expensive part of every campaign cell (the ``prime`` +
``core_run`` trace production) depends only on the machine spec, the
pair, and the frequency plan — not on distance, seed, or method — so
every campaign after the first re-derives traces the first already
produced.

:func:`run_study` runs the full ``machines x distances`` grid so that
the work is paid once:

* one shared :class:`~repro.core.trace_cache.TraceCache` with a disk
  tier serves every campaign (the second and later distances of a
  machine skip ``prime``/``core_run`` entirely);
* one persistent :class:`~repro.core.executor.WorkerPool` outlives the
  individual campaigns, so worker processes keep their warm in-memory
  trace LRUs from one campaign to the next (the parent ships the cache
  *path* to workers, never trace payloads);
* each campaign still gets its own result cache namespace, journal,
  and observability bundle (per-campaign trace/metrics files under
  ``output_dir``), exactly as if it had been run standalone — samples
  are bit-identical to independent :func:`~repro.core.campaign.run_campaign`
  calls;
* a study-level :class:`~repro.obs.metrics.MetricsRegistry` aggregates
  per-campaign wall time, cell counts, and trace-cache traffic under
  ``machine``/``distance`` labels.

Campaigns run machine-major (all distances of one machine back to
back), which maximizes trace reuse while the kernels are still warm in
the worker LRUs.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from collections.abc import Sequence
from pathlib import Path

from repro.core.campaign import PAPER_REPETITIONS, run_campaign
from repro.core.executor import (
    DEFAULT_MAX_RETRIES,
    ProgressCallback,
    ResultCache,
    WorkerPool,
    _validate_workers,
)
from repro.core.matrix import SavatMatrix
from repro.core.savat import MeasurementConfig
from repro.core.trace_cache import (
    TRACE_CACHE_DIR_ENV,
    TraceCache,
    trace_cache_enabled,
)
from repro.errors import ConfigurationError
from repro.isa.events import InstructionEvent
from repro.obs import CampaignObservability
from repro.obs.metrics import MetricsRegistry


def _distance_label(distance_m: float) -> str:
    """Filesystem- and label-friendly rendering of a distance."""
    centimetres = distance_m * 100.0
    if abs(centimetres - round(centimetres)) < 1e-9:
        return f"{int(round(centimetres))}cm"
    return f"{centimetres:g}cm"


class StudyResult:
    """Everything one :func:`run_study` call measured.

    Attributes
    ----------
    matrices:
        One :class:`~repro.core.matrix.SavatMatrix` per campaign, in
        execution order (machine-major, then distance); each carries
        its own ``metadata["execution"]`` exactly as a standalone
        campaign would.
    wall_seconds:
        Wall-clock duration of the whole study.
    registry:
        The study-level metrics registry (``savat_study_*`` families
        labelled by machine and distance).
    trace_cache:
        Study-wide totals of the per-campaign trace-cache counters
        (``memory_hits`` / ``disk_hits`` / ``misses`` / ``stores`` /
        ``quarantined``).
    """

    def __init__(
        self,
        matrices: list[SavatMatrix],
        wall_seconds: float,
        registry: MetricsRegistry,
        trace_cache: dict[str, int],
    ) -> None:
        self.matrices = matrices
        self.wall_seconds = wall_seconds
        self.registry = registry
        self.trace_cache = trace_cache

    def matrix_for(self, machine: str, distance_m: float) -> SavatMatrix:
        """The campaign matrix for one (machine, distance) pair."""
        for matrix in self.matrices:
            if (
                matrix.machine == machine.lower()
                and abs(matrix.distance_m - float(distance_m)) < 1e-9
            ):
                return matrix
        raise ConfigurationError(
            f"study has no campaign for machine {machine!r} at "
            f"{distance_m!r} m"
        )

    def campaign_wall_seconds(self) -> dict[tuple[str, float], float]:
        """Per-campaign wall seconds keyed by (machine, distance)."""
        return {
            (matrix.machine, matrix.distance_m): float(
                matrix.metadata["execution"]["wall_seconds"]
            )
            for matrix in self.matrices
        }


def run_study(
    machines: Sequence[str],
    distances_m: Sequence[float],
    events: Sequence[InstructionEvent | str] | None = None,
    config: MeasurementConfig | None = None,
    repetitions: int = PAPER_REPETITIONS,
    seed: int = 0,
    workers: int = 0,
    cache_dir: str | os.PathLike | None = None,
    trace_cache: TraceCache | bool | None = None,
    trace_cache_dir: str | os.PathLike | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    cell_timeout_s: float | None = None,
    progress: ProgressCallback | None = None,
    output_dir: str | os.PathLike | None = None,
    observability: Sequence[CampaignObservability] | None = None,
) -> StudyResult:
    """Run the full ``machines x distances`` campaign grid as one study.

    Every campaign produces exactly the samples an independent
    :func:`~repro.core.campaign.run_campaign` call with the same
    arguments would (bit for bit) — the study only removes *redundant*
    work: kernel traces are produced once and reused across distances
    (and re-analyses), and one persistent worker pool serves every
    campaign so worker trace LRUs stay warm between them.

    Parameters
    ----------
    machines:
        Catalog machine names (``"core2duo"``, ...), one campaign per
        machine per distance, machine-major order.
    distances_m:
        Antenna distances in metres; each must be positive and finite
        (validated by :func:`~repro.machines.calibrated.load_calibrated_machine`).
    events / config / repetitions / seed:
        Per-campaign measurement parameters, identical for every
        campaign (the seed too: campaigns are distinguished by machine
        and distance, exactly like the paper's repeated sweeps).
    workers:
        Worker processes for the shared pool (``0``/``1``: every
        campaign runs serially in-process; the shared trace cache still
        removes the redundant work).
    cache_dir:
        Directory for the per-cell result cache.  One
        :class:`~repro.core.executor.ResultCache` is shared by all
        campaigns — campaign content-hash keys keep their cells apart,
        and per-execution counter resets keep their metadata honest.
        Journals are placed inside each campaign's cache directory.
    trace_cache:
        Pre-built :class:`~repro.core.trace_cache.TraceCache` to use,
        or ``False`` to disable trace caching (every campaign then
        recomputes its traces; useful for benchmarking the win).
        Default: a study-owned cache whose disk tier lives in
        ``trace_cache_dir``, falling back to ``$SAVAT_TRACE_CACHE_DIR``,
        then ``<cache_dir>/traces``, then a temporary directory deleted
        when the study ends.  ``SAVAT_TRACE_CACHE=0`` disables it.
    trace_cache_dir:
        Disk-tier directory for the study-owned trace cache (ignored
        when ``trace_cache`` is given).
    max_retries / cell_timeout_s:
        Per-campaign fault-tolerance settings (see
        :func:`~repro.core.executor.execute_campaign`).
    progress:
        Optional per-cell progress callback, shared by all campaigns.
    output_dir:
        When given, each campaign writes a JSONL trace
        (``<machine>_<distance>.trace.jsonl``), a Prometheus metrics
        export (``.prom``) and its matrix (``.json``) under this
        directory — the inputs ``python -m repro.obs.check`` consumes.
    observability:
        Pre-built per-campaign observability bundles, in campaign
        order (advanced; overrides ``output_dir``'s per-campaign
        bundles).  Must have exactly one entry per campaign.
    """
    workers = _validate_workers(workers)
    machine_names = [str(name) for name in machines]
    distances = [float(distance) for distance in distances_m]
    if not machine_names:
        raise ConfigurationError("study needs at least one machine")
    if not distances:
        raise ConfigurationError("study needs at least one distance")
    for distance in distances:
        # Fail the whole grid up front rather than mid-study, after
        # earlier campaigns have already burned their wall time.
        if not math.isfinite(distance) or distance <= 0:
            raise ConfigurationError(
                f"distance_m must be a positive, finite distance in metres; "
                f"got {distance!r}"
            )
    grid = [
        (machine_name, distance)
        for machine_name in machine_names
        for distance in distances
    ]
    if observability is not None and len(observability) != len(grid):
        raise ConfigurationError(
            f"observability needs one bundle per campaign "
            f"({len(grid)}), got {len(observability)}"
        )

    shared_result_cache = (
        ResultCache(cache_dir) if cache_dir is not None else None
    )

    # Resolve the shared trace cache.  A study wants a disk tier even
    # when the caller did not configure one: the in-process LRU is
    # bounded below the size of a full-event-set campaign, and pool
    # workers can only share traces through disk.
    temp_trace_dir: tempfile.TemporaryDirectory | None = None
    if trace_cache is False or not trace_cache_enabled():
        shared_trace_cache: TraceCache | None = None
    elif isinstance(trace_cache, TraceCache):
        shared_trace_cache = trace_cache
    else:
        directory = trace_cache_dir or os.environ.get(TRACE_CACHE_DIR_ENV)
        if directory is None and cache_dir is not None:
            directory = Path(cache_dir).expanduser() / "traces"
        if directory is None:
            temp_trace_dir = tempfile.TemporaryDirectory(prefix="savat_traces_")
            directory = temp_trace_dir.name
        shared_trace_cache = TraceCache(directory=directory)

    registry = MetricsRegistry()
    campaigns_total = registry.counter(
        "savat_study_campaigns_total", "Campaigns the study completed."
    )
    cells_total = registry.counter(
        "savat_study_cells_total",
        "Cells measured across all campaigns (simulated, cached, or resumed).",
    )
    study_wall = registry.gauge(
        "savat_study_wall_seconds", "Wall-clock duration of the whole study."
    )
    campaign_wall = registry.gauge(
        "savat_study_campaign_wall_seconds",
        "Per-campaign wall seconds.",
        labelnames=("machine", "distance"),
    )
    study_trace_hits = registry.counter(
        "savat_study_trace_cache_hits_total",
        "Study-wide trace-cache hits, by tier.",
        labelnames=("tier",),
    )
    study_trace_hits.labels(tier="memory")
    study_trace_hits.labels(tier="disk")
    study_trace_misses = registry.counter(
        "savat_study_trace_cache_misses_total",
        "Study-wide trace-cache misses.",
    )

    totals = {
        "memory_hits": 0,
        "disk_hits": 0,
        "misses": 0,
        "stores": 0,
        "quarantined": 0,
    }
    output_path = Path(output_dir).expanduser() if output_dir is not None else None
    if output_path is not None:
        output_path.mkdir(parents=True, exist_ok=True)

    matrices: list[SavatMatrix] = []
    pool: WorkerPool | None = None
    started = time.perf_counter()
    try:
        # Calibrate the whole grid before the pool exists: calibration
        # forks processes of its own, which must not inherit the pool's
        # threads, and a grid point that cannot be calibrated fails
        # before any worker starts.
        from repro.machines.calibrated import load_calibrated_machine

        calibrated = [
            load_calibrated_machine(machine_name, distance)
            for machine_name, distance in grid
        ]
        if workers > 1:
            pool = WorkerPool(workers)
        for index, ((_name, distance), machine) in enumerate(zip(grid, calibrated)):
            if observability is not None:
                bundle = observability[index]
            elif output_path is not None:
                stem = f"{machine.name}_{_distance_label(distance)}"
                bundle = CampaignObservability(
                    trace=output_path / f"{stem}.trace.jsonl",
                    metrics_out=output_path / f"{stem}.prom",
                )
            else:
                bundle = CampaignObservability()
            matrix = run_campaign(
                machine,
                config=config,
                events=events,
                repetitions=repetitions,
                seed=seed,
                progress=progress,
                workers=workers,
                cache=shared_result_cache,
                max_retries=max_retries,
                cell_timeout_s=cell_timeout_s,
                journal=True if shared_result_cache is not None else None,
                observability=bundle,
                trace_cache=(
                    shared_trace_cache if shared_trace_cache is not None else False
                ),
                pool=pool,
            )
            matrices.append(matrix)
            if output_path is not None:
                stem = f"{machine.name}_{_distance_label(distance)}"
                (output_path / f"{stem}.json").write_text(matrix.to_json())

            execution = matrix.metadata["execution"]
            label = _distance_label(distance)
            campaigns_total.inc()
            cells_total.inc(len(matrix.events) ** 2)
            campaign_wall.labels(machine=machine.name, distance=label).set(
                execution["wall_seconds"]
            )
            campaign_trace = execution.get("trace_cache") or {}
            for name in totals:
                totals[name] += int(campaign_trace.get(name, 0))
            if campaign_trace.get("memory_hits"):
                study_trace_hits.labels(tier="memory").inc(
                    campaign_trace["memory_hits"]
                )
            if campaign_trace.get("disk_hits"):
                study_trace_hits.labels(tier="disk").inc(
                    campaign_trace["disk_hits"]
                )
            if campaign_trace.get("misses"):
                study_trace_misses.inc(campaign_trace["misses"])
    finally:
        # Teardown order matters when an exception unwinds mid-study:
        # outstanding worker futures must drain *before* the temp trace
        # directory goes away, or in-flight workers race the cleanup
        # and die writing to it.
        if pool is not None:
            pool.drain()
            pool.shutdown()
        if temp_trace_dir is not None:
            temp_trace_dir.cleanup()
        study_wall.set(time.perf_counter() - started)

    return StudyResult(
        matrices=matrices,
        wall_seconds=float(study_wall.value()),
        registry=registry,
        trace_cache=totals,
    )


__all__ = ["StudyResult", "run_study"]
