"""Study runner: a machines x distances grid of campaigns, one trace per cell.

The paper's headline experiments are *studies*, not single campaigns —
the same 11 events measured across machines and distances (Figs. 9–18),
and §V-B's distance sweep re-measuring identical pairs at 10/25/50/100
cm.  The expensive part of every campaign cell (the ``prime`` +
``core_run`` trace production) depends only on the machine spec, the
pair, and the frequency plan — not on distance, seed, or method — so
distance enters only through the calibrated couplings.

:func:`run_study` therefore runs one execution per machine over all of
its distances (:func:`repro.core.campaign.run_campaigns`): each ordered
pair is a *cell group* whose trace is produced once and measured at
every distance in memory, then dropped.  Around that:

* one persistent :class:`~repro.core.executor.WorkerPool` serves every
  machine's execution (the parent ships calibrations and plans to the
  workers, never trace payloads); before it starts, the parent fits
  each grid point with a cell the result cache cannot serve, so no fit
  forks beside the live pool and a fully cached point fits nothing;
* each campaign still gets its own result-cache namespace and
  observability bundle (per-campaign trace/metrics files under
  ``output_dir``), exactly as if it had been run standalone — samples
  are bit-identical to independent :func:`~repro.core.campaign.run_campaign`
  calls;
* an on-disk :class:`~repro.core.trace_cache.TraceCache`, when the
  caller passes one, keeps the traces for later studies and
  re-analyses.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Sequence
from pathlib import Path

from repro.core.campaign import PAPER_REPETITIONS, resolve_events, run_campaigns
from repro.core.executor import (
    DEFAULT_MAX_RETRIES,
    ProgressCallback,
    ResultCache,
    WorkerPool,
    _validate_workers,
    cold_calibrations,
)
from repro.core.matrix import SavatMatrix
from repro.core.savat import MeasurementConfig
from repro.core.trace_cache import TraceCache
from repro.errors import ConfigurationError
from repro.isa.events import InstructionEvent
from repro.obs import CampaignObservability


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
    """

    def __init__(self, matrices: list[SavatMatrix], wall_seconds: float) -> None:
        self.matrices = matrices
        self.wall_seconds = wall_seconds

    @property
    def trace_cache(self) -> dict[str, int]:
        """Study-wide sums of the per-campaign trace-cache counters.

        Keys as in ``metadata["execution"]["trace_cache"]``:
        ``disk_hits`` / ``misses`` / ``stores`` / ``quarantined``.
        """
        totals: dict[str, int] = {}
        for matrix in self.matrices:
            for name, value in matrix.metadata["execution"]["trace_cache"].items():
                totals[name] = totals.get(name, 0) + int(value)
        return totals

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
        """Per-campaign wall seconds keyed by (machine, distance).

        A machine's distances run as one execution, so each reports
        that execution's wall time.
        """
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
    trace_cache: TraceCache | None = None,
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
    work: each machine's distances run as one execution, in which every
    cell's kernel trace is produced once and measured at each distance,
    and one persistent worker pool serves every machine.

    Parameters
    ----------
    machines:
        Catalog machine names (``"core2duo"``, ...), one campaign per
        machine per distance, machine-major order.  Each name at most
        once.
    distances_m:
        Antenna distances in metres; each must be positive and finite,
        and no two may round to the same calibration (4 decimals).
    events / config / repetitions / seed:
        Per-campaign measurement parameters, identical for every
        campaign (the seed too: campaigns are distinguished by machine
        and distance, exactly like the paper's repeated sweeps).
    workers:
        Worker processes for the shared pool (``0``/``1``: every
        execution runs serially in-process, producing each trace once
        all the same).
    cache_dir:
        Directory for the per-cell result cache.  One
        :class:`~repro.core.executor.ResultCache` is shared by all
        campaigns — campaign content-hash keys keep their cells apart,
        and per-campaign counters keep their metadata honest.  A study
        interrupted part-way resumes by being rerun against the same
        directory: only the cells missing from it are simulated.
    trace_cache:
        On-disk :class:`~repro.core.trace_cache.TraceCache` keeping
        traces for later studies, shared by every campaign; ``None``
        (the default) keeps no traces beyond their cell groups.
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
    _reject_duplicates("machine", [name.lower() for name in machine_names])
    _reject_duplicates("distance", [round(distance, 4) for distance in distances])
    config = config or MeasurementConfig()
    resolved = resolve_events(events)
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

    output_path = Path(output_dir).expanduser() if output_dir is not None else None
    if output_path is not None:
        output_path.mkdir(parents=True, exist_ok=True)

    def bundle_for(index: int, name: str, distance: float) -> CampaignObservability:
        if observability is not None:
            return observability[index]
        if output_path is None:
            return CampaignObservability()
        stem = f"{name}_{_distance_label(distance)}"
        return CampaignObservability(
            trace=output_path / f"{stem}.trace.jsonl",
            metrics_out=output_path / f"{stem}.prom",
        )

    matrices: list[SavatMatrix] = []
    pool: WorkerPool | None = None
    started = time.perf_counter()
    try:
        # Load the whole grid before the pool exists, so a grid point
        # that cannot be calibrated fails before any worker starts, and
        # fit each point with a cell the result cache cannot serve: a
        # fit forks processes of its own, which must not inherit the
        # pool's threads.  A fully cached point fits nothing.
        from repro.machines.calibrated import load_calibrated_machine

        calibrated = [
            load_calibrated_machine(machine_name, distance)
            for machine_name, distance in grid
        ]
        for machine in cold_calibrations(
            calibrated, resolved, config, repetitions, seed, shared_result_cache
        ):
            machine.calibration  # the first read fits
        if workers > 1:
            pool = WorkerPool(workers)
        for first in range(0, len(grid), len(distances)):
            machine_grid = calibrated[first:first + len(distances)]
            machine_matrices = run_campaigns(
                machine_grid,
                config=config,
                events=resolved,
                repetitions=repetitions,
                seed=seed,
                progress=progress,
                workers=workers,
                cache=shared_result_cache,
                max_retries=max_retries,
                cell_timeout_s=cell_timeout_s,
                observability=[
                    bundle_for(first + offset, machine.name, machine.distance_m)
                    for offset, machine in enumerate(machine_grid)
                ],
                trace_cache=trace_cache,
                pool=pool,
            )
            for machine, matrix in zip(machine_grid, machine_matrices):
                matrices.append(matrix)
                if output_path is not None:
                    stem = f"{machine.name}_{_distance_label(machine.distance_m)}"
                    (output_path / f"{stem}.json").write_text(matrix.to_json())
    finally:
        if pool is not None:
            pool.shutdown()

    return StudyResult(
        matrices=matrices, wall_seconds=time.perf_counter() - started
    )


def _reject_duplicates(kind: str, keys: list) -> None:
    """One-line :class:`ConfigurationError` naming a repeated grid value."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ConfigurationError(f"study lists {kind} {key!r} more than once")
        seen.add(key)


__all__ = ["StudyResult", "run_study"]
