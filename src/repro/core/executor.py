"""Campaign execution engine: parallel fan-out, determinism, fault tolerance.

The paper's case study is a large measurement fan-out — 11x11 ordered
pairs x 10 repetitions x 3 machines x 3 distances — and every cell is
independent of every other, so the engine here fans the cells of one
campaign out across worker processes while keeping the results
**bit-identical** to a serial run.

Determinism comes from a per-cell seed schedule: the campaign seed
expands through ``np.random.SeedSequence(seed).spawn(count * count)``
and cell ``(i, j)`` always draws its noise from child ``i * count + j``,
no matter which worker simulates it or in what order.  Serial and
parallel execution therefore consume exactly the same random streams —
and so does a **retried** cell, because a retry replays the cell's
original seed-schedule entry, making a campaign with N transient faults
bit-identical to a fault-free run.

A campaign that runs unattended for hours must survive partial failure,
so the executor layers three recovery mechanisms over the fan-out:

* **Per-cell retry** — a worker exception consumes one of the cell's
  ``max_retries`` attempts and the cell is re-dispatched with its
  original seed; only exhausting the budget (or a non-retryable
  configuration error) aborts the campaign.
* **Per-cell wall-clock timeouts** — with ``cell_timeout_s`` set, each
  attempt's budget is measured from its submission.  An attempt that
  finishes over budget counts one timeout and its result is discarded;
  a running attempt that passes its deadline is abandoned (its worker
  slot written off until it returns), and an owned pool's workers are
  terminated at the end.  Either way the cell is retried from its
  original seed, or the campaign fails once the retry budget is
  exhausted.  Serial and pooled runs share one scheduling loop, so the
  counters, cached cells, and final samples are identical in both.
* **Cache quarantine** — a corrupted, truncated, or wrong-shaped cache
  entry is moved to ``<cache_dir>/quarantine/`` (never silently
  deleted) and the cell is recomputed.

Fault injection for all of the above lives in
:mod:`repro.core.faults`: a :class:`~repro.core.faults.FaultPlan`
deterministically raises, hangs, or corrupts at chosen cells, which is
how the recovery paths are tested end to end.

The engine also maintains an on-disk result cache.  Each cell's
repetition samples are stored as an ``.npz`` file under a directory
named by a content hash of everything that determines the cell's value
(machine name and distance, the EM model's mode count, the noise
environment, the full :class:`~repro.core.savat.MeasurementConfig`,
the ordered event list, the repetition count, the campaign seed, and
the cell index).  Each cell is stored atomically as it completes, so
the cache is also the campaign's checkpoint: an interrupted campaign —
killed, or failed on a cell — resumes by being rerun against the same
cache, which simulates only the cells missing from it.  Re-running a
campaign the benchmarks have already measured loads every cell from
disk and performs zero simulations; hit/miss counters, per-cell
timings, and the fault-tolerance counters are reported through
:class:`CampaignStats` and the returned matrix metadata.  Such a rerun
fits no calibration either: once cache hits are resolved, the executor
fits each calibration that a cold cell measures (a lazy
:class:`~repro.machines.calibrated.CalibratedMachine` has not fitted
itself yet), in the parent, before any attempt or pool fork.

The unit of work is a **cell group**: one ordered (A, B) pair whose
kernel trace (the expensive ``prime`` + ``core_run`` stage) is produced
once and then measured for every calibration of the machine in the
execution.  A trace depends on the machine spec, the pair, and the
frequency plan — not on distance, seed, repetitions, or method — so a
multi-distance study (:func:`repro.core.study.run_study`) hands all of
a machine's distances to one execution, and each group measures them
from the trace in memory, each with its own seed-schedule entry, before
dropping it.  A group is pending when any of its distances misses the
result cache, and only those distances are measured.  Result-cache
keys, observability bundles, matrix metadata, retries and
timeouts stay per (machine, distance), exactly as if each distance were
its own campaign.  An on-disk trace cache
(:mod:`repro.core.trace_cache`), when the caller passes one, serves
traces across executions; pool workers receive its directory, never
trace payloads, and their per-group counter deltas surface as
``savat_trace_cache_*`` metrics and the ``execution["trace_cache"]``
metadata.

All instrumentation flows through :mod:`repro.obs`: the counters live
in a :class:`~repro.obs.metrics.MetricsRegistry` (``CampaignStats`` is
a typed view over it), every cache/fault/timeout event and
every simulation attempt is reported to a
:class:`~repro.obs.CampaignObservability` bundle (JSONL trace, live
progress line, Prometheus export), and workers stay trace-silent —
they return span fragments alongside their results and the parent
process merges them, so the trace file needs no cross-process locking.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.codegen.frequency import FrequencyPlan
from repro.core.diskcache import atomic_write as _atomic_write
from repro.core.diskcache import quarantine_entry, require_directory
from repro.core.faults import CORRUPT_PAYLOAD, CellFault, FaultPlan
from repro.core.savat import (
    MeasurementConfig,
    _plan_pair,
    measure_savat_samples,
    record_phase_seconds,
)
from repro.core.trace_cache import TraceCache, produce_cell_trace
from repro.em.coupling import DEFAULT_NUM_MODES
from repro.em.environment import NoiseEnvironment, quiet_lab_environment
from repro.errors import CellExecutionError, ConfigurationError
from repro.isa.events import InstructionEvent
from repro.machines.calibrated import CalibratedMachine
from repro.obs import CampaignObservability
from repro.obs.metrics import MetricsRegistry
from repro.uarch.fastpath import fast_path_enabled

#: Bump whenever the cache layout or the seeding discipline changes;
#: old entries then miss instead of replaying stale numbers.
CACHE_SCHEMA_VERSION = 2

#: Default per-cell retry budget for transient worker faults.
DEFAULT_MAX_RETRIES = 2

ProgressCallback = Callable[[str, str, int, int], None]


def _validate_workers(workers: int) -> int:
    """Validate a ``workers`` count (``0`` and ``1`` both mean serial).

    A bad value used to surface as a pool traceback deep in
    ``concurrent.futures`` (or silently run serial, for negatives);
    rejecting it here gives the caller one actionable line instead.
    """
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise ConfigurationError(
            f"workers must be a non-negative integer (0 means serial); "
            f"got {workers!r}"
        )
    if workers < 0:
        raise ConfigurationError(
            f"workers must be a non-negative integer (0 means serial); "
            f"got {workers}"
        )
    return int(workers)


# ----------------------------------------------------------------------
# Deterministic seed schedule
# ----------------------------------------------------------------------
def spawn_cell_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """Per-cell seed schedule for a ``count x count`` campaign.

    Cell ``(i, j)`` owns entry ``i * count + j``.  The schedule is a
    pure function of ``(seed, count)``, so serial and parallel runs —
    and reruns on other machines — draw identical noise streams per
    cell regardless of execution order.
    """
    return np.random.SeedSequence(seed).spawn(count * count)


def cell_seed(seed: int, count: int, i: int, j: int) -> np.random.SeedSequence:
    """The seed-schedule entry owned by cell ``(i, j)``."""
    if not (0 <= i < count and 0 <= j < count):
        raise ConfigurationError(
            f"cell ({i}, {j}) outside a {count}x{count} campaign"
        )
    return spawn_cell_seeds(seed, count)[i * count + j]


# ----------------------------------------------------------------------
# Execution statistics (a view over the metrics registry)
# ----------------------------------------------------------------------
class CampaignStats:
    """Counters and timings from one campaign execution.

    Every number lives in a
    :class:`~repro.obs.metrics.MetricsRegistry` — the same registry the
    ``--metrics-out`` Prometheus export and the JSONL trace run
    alongside — and this class is a typed view over it: the attribute
    properties read registry values, the ``record_*`` methods increment
    them, and :meth:`as_metadata` renders the registry into the exact
    ``matrix.metadata["execution"]`` mapping previous releases produced
    from loose instance counters.  There is therefore a single source
    of truth; the metadata and the metrics export cannot drift apart.

    Readable properties
    -------------------
    cache_hits / cache_misses:
        Cells loaded from the on-disk cache vs cells that had to be
        simulated because the cache was cold or disabled-but-counted.
        Both stay zero when no cache is configured.
    cells_simulated:
        Cells that actually ran the kernel simulation (always equals
        ``cache_misses`` when a cache is in use).  A cell is either a
        cache hit or simulated, so ``cache_hits + cells_simulated``
        counts every cell.
    workers:
        Worker processes the fan-out ran cells on: the pool's size, or
        1 when every cell ran (or was loaded) in-process.
    wall_seconds:
        Wall-clock duration of the whole campaign execution, including
        the calibration fit when the execution had to make it (a cold
        cell's machine not yet fitted in this process).
    retries:
        Cell attempts that were re-dispatched after a transient worker
        fault or timeout; each retry replays the cell's original seed.
    timeouts:
        Cell attempts that exceeded the ``cell_timeout_s`` budget.
    quarantined:
        Corrupted or truncated cache entries moved to the cache's
        quarantine directory (and recomputed) during this execution.
    trace_cache:
        Kernel-trace cache traffic this campaign caused —
        ``disk_hits`` / ``misses`` / ``stores`` / ``quarantined`` (see
        :mod:`repro.core.trace_cache`); all zero when no trace cache is
        configured.  A group's traffic counts toward the first of its
        campaigns, the one whose cell produced the trace.
    faults_injected:
        Faults fired by an injected :class:`~repro.core.faults.FaultPlan`,
        keyed by kind; empty for production runs.
    cell_seconds:
        Per-cell simulation time keyed by ``"A/B"`` (cache hits record
        their load time, effectively ~0).
    cell_phase_seconds:
        Per-cell pipeline breakdown keyed by ``"A/B"``: seconds spent
        in the ``prime`` / ``core_run`` / ``synthesize`` / ``analyze``
        phases (see :func:`repro.core.savat.record_phase_seconds`).
        Cache hits record no phases, and a cell group's ``prime`` /
        ``core_run`` count toward its first campaign only.
    """

    def __init__(
        self, workers: int = 1, registry: MetricsRegistry | None = None
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._cache_hits = r.counter(
            "savat_cache_hits_total", "Cells served from the on-disk cache."
        )
        self._cache_misses = r.counter(
            "savat_cache_misses_total",
            "Cells absent from (or quarantined out of) the cache.",
        )
        self._cells_simulated = r.counter(
            "savat_cells_simulated_total", "Cells that ran the kernel simulation."
        )
        self._retries = r.counter(
            "savat_cell_retries_total",
            "Cell attempts re-dispatched after a fault or timeout.",
        )
        self._timeouts = r.counter(
            "savat_cell_timeouts_total",
            "Cell attempts that exceeded the wall-clock budget.",
        )
        self._quarantined = r.counter(
            "savat_cache_quarantined_total",
            "Corrupt cache entries moved to quarantine this execution.",
        )
        self._trace_hits = r.counter(
            "savat_trace_cache_hits_total",
            "Kernel traces served from the cross-campaign trace cache, "
            "by tier.",
            labelnames=("tier",),
        )
        # Materialize the tier up front so the Prometheus export (and
        # repro.obs.check's exact comparison) sees a 0 sample even for a
        # campaign that never hit it.
        self._trace_hits.labels(tier="disk")
        self._trace_misses = r.counter(
            "savat_trace_cache_misses_total",
            "Kernel traces the trace cache could not serve.",
        )
        self._trace_stores = r.counter(
            "savat_trace_cache_stores_total",
            "Kernel traces newly stored into the trace cache.",
        )
        self._trace_quarantined = r.counter(
            "savat_trace_cache_quarantined_total",
            "Corrupt trace-cache entries moved to quarantine.",
        )
        self._faults = r.counter(
            "savat_faults_injected_total",
            "Injected faults fired, by kind (testing only).",
            labelnames=("kind",),
        )
        self._worker_cells = r.counter(
            "savat_cells_by_worker_total",
            "Cells simulated per worker process.",
            labelnames=("worker",),
        )
        self._workers = r.gauge(
            "savat_workers",
            "Worker processes cells ran on (1: in-process).",
        )
        self._workers.set(workers)
        self._wall = r.gauge(
            "savat_wall_seconds", "Wall-clock duration of the campaign."
        )
        self._fast_path = r.gauge(
            "savat_fast_path_enabled",
            "Whether the vectorized fast path is active (1) or the scalar "
            "reference path (0).",
        )
        self._fast_path.set(1.0 if fast_path_enabled() else 0.0)
        self._cell_seconds = r.gauge(
            "savat_cell_seconds",
            "Wall-clock seconds of each completed cell.",
            labelnames=("pair",),
        )
        self._cell_phase = r.gauge(
            "savat_cell_phase_seconds",
            "Per-cell pipeline phase breakdown in seconds.",
            labelnames=("pair", "phase"),
        )
        self._phase_totals = r.counter(
            "savat_phase_seconds_total",
            "Campaign-wide seconds per pipeline phase.",
            labelnames=("phase",),
        )
        self._durations = r.histogram(
            "savat_cell_duration_seconds",
            "Distribution of per-cell simulation wall times.",
        )
    # -- readable counter/gauge views ----------------------------------
    @property
    def cache_hits(self) -> int:
        """Cells served from the on-disk cache."""
        return int(self._cache_hits.value())

    @property
    def cache_misses(self) -> int:
        """Cells absent from (or quarantined out of) the cache."""
        return int(self._cache_misses.value())

    @property
    def cells_simulated(self) -> int:
        """Cells that ran the kernel simulation."""
        return int(self._cells_simulated.value())

    @property
    def retries(self) -> int:
        """Cell attempts re-dispatched after a fault or timeout."""
        return int(self._retries.value())

    @property
    def timeouts(self) -> int:
        """Cell attempts that exceeded the wall-clock budget."""
        return int(self._timeouts.value())

    @property
    def quarantined(self) -> int:
        """Corrupt cache entries quarantined during this execution."""
        return int(self._quarantined.value())

    @property
    def trace_cache(self) -> dict[str, int]:
        """Trace-cache traffic this campaign caused, by counter name."""
        return {
            "disk_hits": int(self._trace_hits.labels(tier="disk").get()),
            "misses": int(self._trace_misses.value()),
            "stores": int(self._trace_stores.value()),
            "quarantined": int(self._trace_quarantined.value()),
        }

    @property
    def workers(self) -> int:
        """Worker processes the fan-out used (1 means in-process)."""
        return int(self._workers.value())

    @workers.setter
    def workers(self, count: int) -> None:
        self._workers.set(count)

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration of the whole campaign execution, a fit it
        had to make included."""
        return self._wall.value()

    @wall_seconds.setter
    def wall_seconds(self, seconds: float) -> None:
        self._wall.set(float(seconds))

    @property
    def faults_injected(self) -> dict[str, int]:
        """Injected fault firings by kind (insertion-ordered)."""
        return {
            labels["kind"]: int(child.get())
            for labels, child in self._faults.series()
        }

    @property
    def cell_seconds(self) -> dict[str, float]:
        """Per-cell wall seconds keyed by ``"A/B"`` (completion order)."""
        return {
            labels["pair"]: child.get()
            for labels, child in self._cell_seconds.series()
        }

    @property
    def cell_phase_seconds(self) -> dict[str, dict[str, float]]:
        """Per-cell phase breakdown keyed by ``"A/B"`` then phase name."""
        nested: dict[str, dict[str, float]] = {}
        for labels, child in self._cell_phase.series():
            nested.setdefault(labels["pair"], {})[labels["phase"]] = child.get()
        return nested

    # -- mutators used by the executor ---------------------------------
    def record_cache_hit(self) -> None:
        """Count one cell served from the cache."""
        self._cache_hits.inc()

    def record_cache_miss(self) -> None:
        """Count one cell the cache could not serve."""
        self._cache_misses.inc()

    def record_simulated(self, worker_pid: int | None = None) -> None:
        """Count one simulated cell (attributed to a worker when known)."""
        self._cells_simulated.inc()
        if worker_pid is not None:
            self._worker_cells.labels(worker=str(worker_pid)).inc()

    def record_retry(self) -> None:
        """Count one re-dispatched cell attempt."""
        self._retries.inc()

    def record_timeout(self) -> None:
        """Count one attempt that exceeded the wall-clock budget."""
        self._timeouts.inc()

    def record_quarantined(self, count: int = 1) -> None:
        """Count cache entries moved to quarantine."""
        self._quarantined.inc(count)

    def record_trace_cache(self, delta: dict[str, int]) -> None:
        """Merge one cell group's trace-cache counter delta.

        ``delta`` is a :meth:`repro.core.trace_cache.TraceCache.counters`
        difference — taken around the group either in-process (serial)
        or inside the worker and shipped back in the span fragment.
        """
        if delta.get("disk_hits"):
            self._trace_hits.labels(tier="disk").inc(delta["disk_hits"])
        if delta.get("misses"):
            self._trace_misses.inc(delta["misses"])
        if delta.get("stores"):
            self._trace_stores.inc(delta["stores"])
        if delta.get("quarantined"):
            self._trace_quarantined.inc(delta["quarantined"])

    def record_fault(self, kind: str) -> None:
        """Count one injected fault firing."""
        self._faults.labels(kind=kind).inc()

    def record_cell(
        self,
        event_a: str,
        event_b: str,
        elapsed_s: float,
        phase_seconds: dict[str, float] | None = None,
    ) -> None:
        """Record one finished cell's timing (and optional phase split)."""
        pair = f"{event_a}/{event_b}"
        self._cell_seconds.labels(pair=pair).set(float(elapsed_s))
        self._durations.observe(float(elapsed_s))
        if phase_seconds:
            for name, seconds in phase_seconds.items():
                self._cell_phase.labels(pair=pair, phase=name).set(float(seconds))
                self._phase_totals.labels(phase=name).inc(float(seconds))

    def phase_seconds(self) -> dict[str, float]:
        """Campaign-wide totals of the per-cell phase breakdown."""
        return {
            labels["phase"]: child.get()
            for labels, child in self._phase_totals.series()
        }

    def as_metadata(self) -> dict:
        """JSON-ready summary stored in ``SavatMatrix.metadata``.

        Generated entirely from the metrics registry, preserving the
        exact key set and value types earlier releases produced.
        """
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cells_simulated": self.cells_simulated,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "trace_cache": dict(self.trace_cache),
            "faults_injected": dict(self.faults_injected),
            "cell_seconds": dict(self.cell_seconds),
            "cell_phase_seconds": {
                pair: dict(phases)
                for pair, phases in self.cell_phase_seconds.items()
            },
            "phase_seconds": self.phase_seconds(),
        }


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
def _config_payload(config: MeasurementConfig) -> dict:
    """The measurement config as a stable, JSON-serializable mapping."""
    return dataclasses.asdict(config)


def campaign_cache_key(
    machine_name: str,
    distance_m: float,
    config: MeasurementConfig,
    event_names: Sequence[str],
    repetitions: int,
    seed: int,
    num_modes: int = DEFAULT_NUM_MODES,
    environment: NoiseEnvironment | None = None,
) -> str:
    """Content hash identifying one campaign's results on disk.

    Any change to the machine, distance, EM mode count, noise
    environment (``None``: the quiet lab), measurement configuration,
    ordered event list, repetition count, or seed changes the key, so
    stale entries can never be mistaken for current ones — a rerun
    resumes only the campaign it repeats.  It is the only gate in front
    of a calibration's fit: a campaign whose every cell is found under
    its key fits nothing.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "machine": machine_name,
        "distance_m": float(distance_m),
        "num_modes": int(num_modes),
        "environment": _environment_payload(environment),
        "config": _config_payload(config),
        "events": list(event_names),
        "repetitions": int(repetitions),
        "seed": int(seed),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def _environment_payload(environment: NoiseEnvironment | None) -> dict:
    """The noise environment, interferers included, as a JSON mapping."""
    return dataclasses.asdict(environment or quiet_lab_environment())


def _machine_cache_key(
    machine: CalibratedMachine,
    config: MeasurementConfig,
    event_names: Sequence[str],
    repetitions: int,
    seed: int,
) -> str:
    """:func:`campaign_cache_key` of one calibrated machine's campaign."""
    return campaign_cache_key(
        machine.name, machine.distance_m, config, event_names, repetitions,
        seed, machine.num_modes, machine.environment,
    )


class ResultCache:
    """Per-cell campaign results persisted under a cache directory.

    Layout: ``<cache_dir>/<campaign_key>/cell_<i>_<j>.npz`` holding the
    cell's repetition samples, plus a human-readable ``manifest.json``
    describing the campaign the key hashes.  Writes go through a
    temporary file, ``fsync``, and :func:`os.replace`, so concurrent
    workers (or a worker killed mid-write) never leave a truncated
    entry under a live name.

    Unreadable, truncated, or wrong-shaped entries are **quarantined**:
    moved to ``<cache_dir>/quarantine/<campaign_key>_<name>`` for post
    mortem inspection — never silently deleted — and the cell is
    re-simulated.  Quarantine moves are counted on ``quarantine_count``
    and listed in ``quarantined_paths``.

    Counter semantics (pinned by the executor-cache tests): every
    :meth:`load_cell` call increments exactly one of ``hits`` or
    ``misses``.  A quarantined entry is a **miss** — it increments
    ``quarantine_count`` and ``misses`` exactly once each and never
    ``hits`` — identically in serial and pool campaigns (the cache is
    only ever consulted by the parent process).

    A ``cache_dir`` that exists and is not a directory raises
    :class:`~repro.errors.ConfigurationError` at construction.
    """

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir).expanduser()
        require_directory(self.cache_dir, "result cache directory")
        self.hits = 0
        self.misses = 0
        self.quarantine_count = 0
        self.quarantined_paths: list[Path] = []

    def begin_execution(self) -> None:
        """Zero the per-execution counters (cached entries are kept).

        :func:`execute_campaign` calls this on entry, so a cache object
        shared across the executions of a study reports each
        execution's own hits/misses/quarantines.  Matrix metadata counts
        per campaign regardless, from each campaign's
        :class:`CampaignStats`.
        """
        self.hits = 0
        self.misses = 0
        self.quarantine_count = 0
        self.quarantined_paths = []

    def campaign_dir(self, key: str) -> Path:
        """Directory holding one campaign's cells."""
        return self.cache_dir / key

    def cell_path(self, key: str, i: int, j: int) -> Path:
        """File path of one cell's samples."""
        return self.campaign_dir(key) / f"cell_{i:03d}_{j:03d}.npz"

    def quarantine_dir(self) -> Path:
        """Directory corrupt entries are moved to (shared by campaigns)."""
        return self.cache_dir / "quarantine"

    def quarantine(self, key: str, path: Path) -> Path | None:
        """Move a bad cache entry into the quarantine directory.

        The entry keeps its campaign key as a filename prefix, and an
        existing quarantined file of the same name is never overwritten
        (a numeric suffix is appended instead), so repeated corruption
        of the same cell stays individually inspectable.
        """
        target = quarantine_entry(self.quarantine_dir(), key, path)
        if target is None:
            return None
        self.quarantine_count += 1
        self.quarantined_paths.append(target)
        return target

    def read_cell(
        self, key: str, i: int, j: int, repetitions: int
    ) -> np.ndarray | None:
        """One cell's samples if its entry is present and valid, else ``None``.

        A missing, corrupted, truncated, or wrong-shaped entry reads as
        ``None``.  Unlike :meth:`load_cell` it counts nothing and
        quarantines nothing.
        """
        try:
            with np.load(self.cell_path(key, i, j)) as data:
                samples = np.asarray(data["samples_zj"], dtype=np.float64)
        except Exception:  # noqa: BLE001 — any unreadable entry is a miss
            return None
        if samples.shape != (repetitions,) or not np.all(np.isfinite(samples)):
            return None
        return samples

    def load_cell(self, key: str, i: int, j: int, repetitions: int) -> np.ndarray | None:
        """Load one cell's samples, or ``None`` on a miss.

        A corrupted, truncated, or wrong-shaped file counts as a miss:
        the entry is quarantined and the caller re-simulates the cell.
        Each call increments exactly one of ``hits``/``misses``; a
        quarantined entry therefore counts one ``misses`` and one
        ``quarantine_count`` increment, and never touches ``hits``.
        """
        samples = self.read_cell(key, i, j, repetitions)
        if samples is None:
            path = self.cell_path(key, i, j)
            if path.exists():
                self.quarantine(key, path)
            self.misses += 1
            return None
        self.hits += 1
        return samples

    def store_cell(self, key: str, i: int, j: int, samples: np.ndarray) -> None:
        """Atomically persist one cell's samples."""
        directory = self.campaign_dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        payload = np.asarray(samples, dtype=np.float64)
        _atomic_write(
            directory,
            self.cell_path(key, i, j),
            lambda handle: np.savez(handle, samples_zj=payload),
        )

    def write_manifest(self, key: str, payload: dict) -> None:
        """Record what a campaign key means, for humans debugging the cache."""
        directory = self.campaign_dir(key)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "manifest.json"
        if path.exists():
            return
        _atomic_write(
            directory,
            path,
            lambda handle: handle.write(
                json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
            ),
        )


# ----------------------------------------------------------------------
# Cell-group simulation (shared by the serial path and the worker processes)
# ----------------------------------------------------------------------
def simulate_cell(
    machines: Sequence[CalibratedMachine],
    config: MeasurementConfig,
    event_a: InstructionEvent,
    event_b: InstructionEvent,
    repetitions: int,
    seed_sequence: np.random.SeedSequence,
    plan: FrequencyPlan | None = None,
    phase_seconds: Sequence[dict[str, float]] | None = None,
    trace_cache: TraceCache | None = None,
    elapsed_s: list[float] | None = None,
) -> list[np.ndarray]:
    """Simulate one cell group: the (A, B) trace once, measured per calibration.

    ``machines`` are calibrations of one machine spec (a study's
    distances).  **Trace production** (the ``prime`` + ``core_run``
    phases) is a pure function of the spec, the pair, and the plan, so
    it runs once, through
    :func:`repro.core.trace_cache.produce_cell_trace` (with a
    ``trace_cache``, a kernel an earlier execution stored skips both
    phases).  **Measurement** (the ``synthesize`` / ``analyze`` phases)
    depends on distance, seed, repetitions, and method, and runs once
    per calibration from the trace in memory.  As in the paper's
    multi-day repeats, only the environment noise is re-drawn between
    repetitions — from the cell's seed-schedule entry, which is the
    same for every calibration, so each measurement equals a standalone
    campaign's bit for bit.

    ``plan`` lets the executor pre-compute the frequency plan in the
    parent process (amortizing the per-event CPI probe runs over every
    cell); the plan is a pure function of spec, pair, and frequency, so
    the results are identical either way.

    ``phase_seconds`` (one dict per calibration, when given)
    accumulates each measurement's pipeline breakdown, and ``elapsed_s``
    (when given) receives each measurement's wall seconds.  The trace
    production counts toward the first calibration only.

    Returns the ``(repetitions,)`` samples per calibration, in order.
    """
    if plan is None:
        plan = _plan_pair(
            machines[0], event_a, event_b, config.alternation_frequency_hz
        )
    sinks = phase_seconds if phase_seconds is not None else [{} for _ in machines]
    samples: list[np.ndarray] = []
    trace = None
    for machine, sink in zip(machines, sinks):
        started = time.perf_counter()
        with record_phase_seconds(sink):
            if trace is None:
                trace, plan = produce_cell_trace(
                    machine, event_a, event_b, plan, cache=trace_cache
                )
            samples.append(
                measure_savat_samples(
                    machine,
                    event_a,
                    event_b,
                    config=config,
                    rng=np.random.default_rng(seed_sequence),
                    trace=trace,
                    plan=plan,
                    repetitions=repetitions,
                )
            )
        if elapsed_s is not None:
            elapsed_s.append(time.perf_counter() - started)
    return samples


@dataclass(frozen=True)
class _CellGroup:
    """One ordered pair awaiting measurement at one or more calibrations."""

    i: int
    j: int
    event_a: InstructionEvent
    event_b: InstructionEvent
    seed_sequence: np.random.SeedSequence
    plan: FrequencyPlan
    #: Indices of the execution's campaigns that miss this cell.
    members: tuple[int, ...]

    @property
    def pair(self) -> str:
        return f"{self.event_a.name}/{self.event_b.name}"


def _attempt(
    machines: Sequence[CalibratedMachine],
    config: MeasurementConfig,
    repetitions: int,
    group: _CellGroup,
    fault: CellFault | None,
    cache: TraceCache | None,
) -> tuple[list[np.ndarray], list[dict]]:
    """Run one attempt at a cell group, in-process or inside a worker.

    ``fault`` (set only by an injected
    :class:`~repro.core.faults.FaultPlan`) raises or hangs before the
    simulation starts.  Returns the samples and one **trace span
    fragment** per calibration: the pid that ran it, the measurement's
    own elapsed seconds (the fault excluded; budgets are judged on the
    parent's clock), per-phase seconds, and — on the first — the
    trace-cache counter delta.  Workers never write to the trace file
    themselves — the parent merges each fragment into its campaign's
    ``span_end`` record, keeping every trace single-writer under the
    process pool.
    """
    if fault is not None:
        fault.apply()
    phases: list[dict[str, float]] = [{} for _ in machines]
    elapsed: list[float] = []
    before = cache.counters() if cache is not None else None
    samples = simulate_cell(
        machines, config, group.event_a, group.event_b, repetitions,
        group.seed_sequence, plan=group.plan, phase_seconds=phases,
        trace_cache=cache, elapsed_s=elapsed,
    )
    pid = os.getpid()
    fragments = [
        {"worker_pid": pid, "elapsed_s": seconds, "phase_seconds": phase}
        for seconds, phase in zip(elapsed, phases)
    ]
    if cache is not None:
        fragments[0]["trace_cache"] = TraceCache.counter_delta(
            cache.counters(), before
        )
    return samples, fragments


def _cell_task(
    machines: Sequence[CalibratedMachine],
    config: MeasurementConfig,
    repetitions: int,
    group: _CellGroup,
    fault: CellFault | None,
    trace_cache_dir: str | None,
) -> tuple[list[np.ndarray], list[dict]]:
    """Run one attempt inside a worker process.

    The group ships its execution context (calibrations, config,
    repetitions, pre-computed frequency plan) and the trace cache's
    directory with every task — the pickles are small, and carrying
    them per task is what lets one persistent :class:`WorkerPool` serve
    executions with different machines, configs and caches back to back.
    """
    cache = TraceCache(trace_cache_dir) if trace_cache_dir is not None else None
    return _attempt(machines, config, repetitions, group, fault, cache)


def _is_retryable(error: BaseException) -> bool:
    """Whether a cell failure may be absorbed by the retry budget.

    Configuration mistakes would fail identically on every attempt and
    a broken process pool cannot run further attempts at all, so both
    abort immediately; any other ``Exception`` is treated as transient.
    """
    if isinstance(error, (ConfigurationError, BrokenProcessPool)):
        return False
    return isinstance(error, Exception)


def _limit_blas_threads(threads: int) -> None:
    """Cap the OpenBLAS that numpy loaded at ``threads`` threads.

    A pool's initializer: forked workers inherit the parent's BLAS
    thread count, so on a small host every worker's GEMMs would spin
    threads for cores the other workers already use.  The setter is
    OpenBLAS's own, exported by the library bundled in numpy's wheel
    (``numpy.libs/libscipy_openblas64_*.so``), which is only looked up,
    never loaded; without it this does nothing.  OpenBLAS splits a
    GEMM's output between threads, not its sums, so samples stay
    bit-identical.
    """
    libraries = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libraries.glob("libscipy_openblas64_*.so"):
        try:
            library = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            if library.scipy_openblas_get_num_threads64_() > threads:
                library.scipy_openblas_set_num_threads64_(threads)
        except (OSError, AttributeError):
            continue


class WorkerPool:
    """A persistent worker pool that outlives individual executions.

    A pooled :func:`execute_campaign` normally builds and tears down a
    pool of its own.  Passing one in inverts that ownership: the caller
    (typically :func:`repro.core.study.run_study`, which runs one
    execution per machine) builds the pool once, passes it to each
    execution via ``execute_campaign(pool=...)``, and the same worker
    processes serve every execution's cell groups.  A worker holds a
    group's trace only while it measures that group's calibrations; each
    task carries the trace cache's directory, and trace payloads never
    cross the process boundary.

    Each worker runs numpy's BLAS on its share of the usable CPUs
    (``usable // workers``, at least one thread).

    Use as a context manager, or call :meth:`shutdown` explicitly.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(_validate_workers(workers), 1)
        threads = max(1, len(os.sched_getaffinity(0)) // self.workers)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_limit_blas_threads,
            initargs=(threads,),
        )

    def submit(self, fn, /, *args):
        """Submit one task to the pool (``ProcessPoolExecutor.submit``)."""
        return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Shut the pool down (idempotent)."""
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def terminate(self) -> None:
        """Kill the worker processes, then shut the pool down.

        For a pool whose tasks may never return (abandoned, hung
        attempts): :meth:`shutdown` alone leaves interpreter exit
        joining those workers.  A worker killed mid-write to the trace
        cache's disk tier leaves a temp file behind, so this is only for
        pools with abandoned attempts.
        """
        kill = getattr(self._pool, "terminate_workers", None)  # Python 3.14+
        if kill is not None:
            kill()
        else:
            for process in list((self._pool._processes or {}).values()):
                process.terminate()
        self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class _Campaign:
    """One calibration's share of an execution.

    Everything kept per (machine, distance) lives here: the result-cache
    key, the observability bundle with the stats recorded into its
    registry, and the sample array the matrix is built from.
    """

    def __init__(
        self,
        machine: CalibratedMachine,
        obs: CampaignObservability,
        names: list[str],
        config: MeasurementConfig,
        repetitions: int,
        seed: int,
        progress: ProgressCallback | None,
    ) -> None:
        self.machine = machine
        self.obs = obs
        self.stats = CampaignStats(registry=obs.metrics)
        self.names = names
        self.repetitions = repetitions
        self.progress = progress
        self.samples = np.zeros((len(names), len(names), repetitions))
        self.total = len(names) ** 2
        self.done = 0
        # The key also names the campaign in its trace, so it is
        # computed even without a cache.
        self.key = _machine_cache_key(machine, config, names, repetitions, seed)
        self.header = {
            "machine": machine.name,
            "distance_m": machine.distance_m,
            "num_modes": machine.num_modes,
            "environment": _environment_payload(machine.environment),
            "events": names,
            "repetitions": repetitions,
            "seed": seed,
        }

    def fit(self) -> None:
        """Fit this campaign's calibration unless that already happened."""
        machine = self.machine
        if machine.fitted:
            return
        started = time.perf_counter()
        machine.calibration  # the first read fits
        self.obs.calibrated(
            machine.name, machine.distance_m, time.perf_counter() - started
        )

    def finish(
        self,
        i: int,
        j: int,
        cell_samples: np.ndarray,
        elapsed_s: float,
        phase_seconds: dict[str, float] | None = None,
    ) -> None:
        self.samples[i, j] = cell_samples
        names = self.names
        self.stats.record_cell(names[i], names[j], elapsed_s, phase_seconds)
        self.done += 1
        self.obs.cell_completed(
            f"{names[i]}/{names[j]}", elapsed_s, self.done, self.total
        )
        if self.progress is not None:
            self.progress(names[i], names[j], self.done, self.total)

    def resolve(
        self, i: int, j: int, cache: ResultCache | None,
        fault_plan: FaultPlan | None,
    ) -> bool:
        """Serve cell ``(i, j)`` from the result cache.

        Returns ``True`` when the cell must be measured.
        """
        if cache is None:
            return True
        if fault_plan is not None:
            corrupt = fault_plan.corrupt_fault(i, j)
            if corrupt is not None:
                # Overwrite (or create) the entry with garbage so the
                # load below must quarantine and recompute.
                path = cache.cell_path(self.key, i, j)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(CORRUPT_PAYLOAD)
                self.stats.record_fault(corrupt.kind)
                self.obs.fault_injected(**corrupt.trace_fields())
        load_started = time.perf_counter()
        quarantined_before = cache.quarantine_count
        cached = cache.load_cell(self.key, i, j, self.repetitions)
        newly_quarantined = cache.quarantine_count - quarantined_before
        if newly_quarantined:
            self.stats.record_quarantined(newly_quarantined)
            self.obs.cache_quarantine(i, j)
        if cached is None:
            self.stats.record_cache_miss()
            self.obs.cache_miss(i, j)
            return True
        self.stats.record_cache_hit()
        self.obs.cache_hit(i, j)
        self.finish(i, j, cached, time.perf_counter() - load_started)
        return False

    def complete(
        self, i: int, j: int, cell_samples: np.ndarray, fragment: dict,
        cache: ResultCache | None,
    ) -> None:
        """Record one measured cell: counters, cache, matrix."""
        elapsed, phases = fragment["elapsed_s"], fragment["phase_seconds"]
        self.stats.record_simulated(fragment["worker_pid"])
        trace_delta = fragment.get("trace_cache")
        if trace_delta:
            self.stats.record_trace_cache(trace_delta)
            self.obs.trace_cache(i, j, trace_delta)
        if cache is not None:
            cache.store_cell(self.key, i, j, cell_samples)
        self.finish(i, j, cell_samples, elapsed, phases)


def cold_calibrations(
    machines: Sequence[CalibratedMachine],
    events: Sequence[InstructionEvent],
    config: MeasurementConfig,
    repetitions: int,
    seed: int,
    cache: ResultCache | None,
) -> list[CalibratedMachine]:
    """The calibrations with a cell the result cache cannot serve.

    A cell is served when :meth:`ResultCache.read_cell` finds a valid
    entry under the calibration's campaign key, the read
    :func:`execute_campaign` makes before it fits; without a cache every
    calibration is cold.  A caller that runs these campaigns over a
    :class:`WorkerPool` of its own fits them before starting it, so no
    fit forks beside the live pool.
    """
    if cache is None:
        return list(machines)
    names = [event.name for event in events]
    cells = [(i, j) for i in range(len(names)) for j in range(len(names))]
    cold = []
    for machine in machines:
        key = _machine_cache_key(machine, config, names, repetitions, seed)
        if any(cache.read_cell(key, i, j, repetitions) is None for i, j in cells):
            cold.append(machine)
    return cold


def execute_campaign(
    machine: CalibratedMachine | Sequence[CalibratedMachine],
    events: Sequence[InstructionEvent],
    config: MeasurementConfig | None = None,
    repetitions: int = 10,
    seed: int = 0,
    workers: int = 0,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    cell_timeout_s: float | None = None,
    fault_plan: FaultPlan | None = None,
    observability: CampaignObservability
    | Sequence[CampaignObservability]
    | None = None,
    trace_cache: TraceCache | None = None,
    pool: WorkerPool | None = None,
) -> tuple[np.ndarray, CampaignStats] | list[tuple[np.ndarray, CampaignStats]]:
    """Measure every ordered (A, B) cell of one or more campaigns.

    With one calibrated machine this is one campaign.  With a sequence
    of calibrations of one machine spec (a study's distances), each is
    its own campaign — own result-cache key, observability bundle,
    counters and samples — but every ordered pair is one **cell
    group** whose kernel trace is produced once and measured for every
    calibration that misses the result cache.

    Parameters
    ----------
    machine:
        A calibrated machine (fixes the distance too), or a sequence of
        calibrations of one machine spec at distinct distances.
    events:
        Resolved event objects, in matrix order.
    config:
        Measurement configuration; the paper's defaults if omitted.
    repetitions:
        Measurements per cell.
    seed:
        Campaign seed, expanded into the per-cell schedule by
        :func:`spawn_cell_seeds` (the same schedule for every
        calibration).
    workers:
        Worker processes; ``0`` or ``1`` runs serially in-process.
        Results are bit-identical either way.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely.
        Each measured cell is stored as it completes, so rerunning an
        interrupted execution against the same cache resumes it.
    progress:
        Optional ``(event_a, event_b, done, total)`` callback invoked as
        each cell completes (cache hits included),
        with ``done``/``total`` counted per campaign.
    max_retries:
        Transient-fault retry budget per cell group.  A retried group
        replays its original seed-schedule entry, so retries never
        change the samples; each of its campaigns counts the retry.
    cell_timeout_s:
        Wall-clock budget per group attempt, measured from submission,
        so with a budget a pool submits one attempt per worker (without
        one it queues a group behind each running one).
        An attempt that finishes over budget counts one timeout and its
        result is discarded; a running attempt that passes its deadline
        is abandoned, and an owned pool's workers are terminated at the
        end.  Either way the group is retried from its original seed
        (consuming the retry budget) or the execution fails.  Counters,
        cached cells, and samples are identical serial or pooled.
    fault_plan:
        Deterministic :class:`~repro.core.faults.FaultPlan` to inject
        (testing/debugging only); it addresses cells, so it applies to
        every campaign of the execution.
    observability:
        :class:`~repro.obs.CampaignObservability` bundle receiving
        every execution event (trace spans, cache/fault events,
        live progress) and owning the metrics registry the returned
        :class:`CampaignStats` records into — one per calibration when
        several are given.  Registry-only bundles (no trace, no
        progress, no metrics file) are created when omitted.
    trace_cache:
        On-disk kernel-trace cache
        (:class:`~repro.core.trace_cache.TraceCache`) serving the
        prime/core_run trace-production stage across executions;
        ``None`` (the default) keeps no traces beyond their cell
        groups.  Samples are bit-identical with the cache on or off.
    pool:
        A persistent :class:`WorkerPool` to fan cell groups out over
        instead of creating (and tearing down) a private pool; the
        caller owns its lifetime.  When given, it overrides ``workers``.

    Returns
    -------
    tuple or list
        ``(samples, stats)`` — the ``(N, N, repetitions)`` sample array
        in zJ and the execution counters/timings — for one machine; a
        list of them, in calibration order, for a sequence.

    Raises
    ------
    CellExecutionError
        A cell group failed on every attempt (or every worker slot was
        lost to hung cells).  All cells completed before the failure
        are already in ``cache``, so rerunning against it restarts from
        them.
    """
    config = config or MeasurementConfig()
    single = isinstance(machine, CalibratedMachine)
    machines = [machine] if single else list(machine)
    resolved = list(events)
    count = len(resolved)
    if not machines:
        raise ConfigurationError("execution needs at least one calibrated machine")
    if count == 0:
        raise ConfigurationError("campaign needs at least one event")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be at least 1")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be non-negative")
    if cell_timeout_s is not None and not (
        np.isfinite(cell_timeout_s) and cell_timeout_s > 0
    ):
        raise ConfigurationError(
            f"cell_timeout_s must be a positive finite number of seconds; "
            f"got {cell_timeout_s!r}"
        )
    workers = _validate_workers(workers)
    for other in machines[1:]:
        if other.spec != machines[0].spec:
            raise ConfigurationError(
                f"one execution measures one machine spec; got "
                f"{machines[0].name!r} and {other.name!r}"
            )
    distances = [round(other.distance_m, 4) for other in machines]
    if len(set(distances)) != len(distances):
        raise ConfigurationError(
            f"calibrations must be at distinct distances; got {distances}"
        )
    if single:
        bundles = [observability]
    elif isinstance(observability, CampaignObservability):
        raise ConfigurationError(
            "several calibrations need one observability bundle each"
        )
    else:
        bundles = list(observability or [None] * len(machines))
        if len(bundles) != len(machines):
            raise ConfigurationError(
                f"observability needs one bundle per calibration "
                f"({len(machines)}), got {len(bundles)}"
            )
    names = [event.name for event in resolved]
    if len(set(names)) != len(names):
        repeated = next(name for name in names if names.count(name) > 1)
        raise ConfigurationError(f"event {repeated} listed twice; events must be distinct")

    trace_cache_dir = (
        str(trace_cache.directory) if trace_cache is not None else None
    )

    effective_workers = pool.workers if pool is not None else max(workers, 1)
    campaigns = [
        _Campaign(
            calibrated,
            bundle if bundle is not None else CampaignObservability(),
            names, config, repetitions, seed, progress,
        )
        for calibrated, bundle in zip(machines, bundles)
    ]
    if cache is not None:
        cache.begin_execution()
    seeds = spawn_cell_seeds(seed, count)
    started = time.perf_counter()

    for campaign in campaigns:
        if cache is not None:
            cache.write_manifest(
                campaign.key,
                {
                    "schema": CACHE_SCHEMA_VERSION,
                    "config": _config_payload(config),
                    **campaign.header,
                },
            )
        campaign.obs.campaign_start(
            total_cells=campaign.total,
            campaign_key=campaign.key,
            **campaign.header,
        )

    owned_pool: WorkerPool | None = None
    abandoned: set = set()  # futures of hung attempts still running
    status = "failed"
    try:
        # Resolve cache hits first, so the fan-out only
        # sees the cold cells, grouped by pair.
        groups: list[_CellGroup] = []
        for i in range(count):
            for j in range(count):
                members = tuple(
                    index
                    for index, campaign in enumerate(campaigns)
                    if campaign.resolve(i, j, cache, fault_plan)
                )
                if not members:
                    continue
                # Plan in the parent: the per-event CPIs behind
                # _plan_pair are memoized per machine spec, so workers
                # receive finished plans instead of each re-probing from
                # a cold cache.
                plan = _plan_pair(
                    machines[0],
                    resolved[i],
                    resolved[j],
                    config.alternation_frequency_hz,
                )
                groups.append(
                    _CellGroup(
                        i, j, resolved[i], resolved[j],
                        seeds[i * count + j], plan, members,
                    )
                )

        # Fit each calibration a cold cell measures, here and now: before
        # any attempt or pool fork (workers inherit or receive the fit)
        # and outside every cell's timing and budget.  A caller that owns
        # the pool fits these before starting it (cold_calibrations).
        for index in sorted({index for group in groups for index in group.members}):
            campaigns[index].fit()

        def group_machines(group: _CellGroup) -> list[CalibratedMachine]:
            return [machines[index] for index in group.members]

        def complete_group(
            group: _CellGroup, samples: list[np.ndarray], fragments: list[dict]
        ) -> None:
            for index, cell_samples, fragment in zip(
                group.members, samples, fragments
            ):
                campaigns[index].complete(
                    group.i, group.j, cell_samples, fragment, cache
                )

        def dispatch_fault(group: _CellGroup, attempt: int) -> CellFault | None:
            if fault_plan is None:
                return None
            fault = fault_plan.worker_fault(group.i, group.j, attempt)
            if fault is not None:
                for index in group.members:
                    campaigns[index].stats.record_fault(fault.kind)
                    campaigns[index].obs.fault_injected(
                        attempt=attempt, **fault.trace_fields()
                    )
            return fault

        def run_here(group: _CellGroup, fault: CellFault | None) -> Future:
            # The in-process submit: the execution's own trace cache
            # object (not one rebuilt from its directory), so its
            # counters cover this execution.
            future: Future = Future()
            try:
                future.set_result(_attempt(
                    group_machines(group), config, repetitions, group, fault,
                    trace_cache,
                ))
            except Exception as error:  # noqa: BLE001 — judged by the loop
                future.set_exception(error)
            return future

        def run_in_pool(group: _CellGroup, fault: CellFault | None) -> Future:
            return pool.submit(
                _cell_task, group_machines(group), config, repetitions, group,
                fault, trace_cache_dir,
            )

        # Cache hits are resolved by now, so a warm run builds no pool.
        if not groups or (
            pool is None and (effective_workers <= 1 or len(groups) <= 1)
        ):
            submit, slots = run_here, 1
        else:
            if pool is None:
                pool = owned_pool = WorkerPool(
                    min(effective_workers, len(groups))
                )
            submit, slots = run_in_pool, pool.workers
        for campaign in campaigns:
            campaign.stats.workers = slots
        _run_cells(
            groups, submit, slots, campaigns, dispatch_fault,
            complete_group, max_retries, cell_timeout_s, abandoned, cache,
        )
        status = "ok"
    finally:
        if owned_pool is not None:
            # A hung attempt may never return: kill the workers rather
            # than leave interpreter exit joining them.  Otherwise never
            # block teardown on a failed run's in-flight cells.
            if abandoned:
                owned_pool.terminate()
            else:
                owned_pool.shutdown(wait=status == "ok", cancel_futures=True)
        wall_seconds = time.perf_counter() - started
        for campaign in campaigns:
            campaign.stats.wall_seconds = wall_seconds
            campaign.obs.campaign_end(
                status=status, wall_seconds=wall_seconds,
                workers=campaign.stats.workers,
            )

    results = [(campaign.samples, campaign.stats) for campaign in campaigns]
    return results[0] if single else results


def _run_cells(
    groups: Sequence[_CellGroup],
    submit: Callable[[_CellGroup, CellFault | None], Future],
    slots: int,
    campaigns: Sequence[_Campaign],
    dispatch_fault: Callable[[_CellGroup, int], CellFault | None],
    complete_group: Callable[[_CellGroup, list[np.ndarray], list[dict]], None],
    max_retries: int,
    cell_timeout_s: float | None,
    abandoned: set,
    cache: ResultCache | None,
) -> None:
    """Run the cold cell groups with retries and timeouts, serial or pooled.

    ``submit`` either runs the attempt in-process (and returns a
    finished future) or hands it to a worker.  A pool without a budget
    keeps ``2 * slots`` attempts outstanding: one queued behind each
    running one, so a worker starts its next cell the moment it finishes
    while this process stores the last.  Otherwise at most ``slots`` are
    outstanding, because each attempt's budget runs from just before its
    submission and a queued attempt would spend it waiting for a worker.
    An attempt found over budget when it completes counts one timeout
    and its result is discarded; one still running past its deadline is
    abandoned — added to ``abandoned``, its slot written off until it
    returns — and counts one timeout too.  A failed or timed
    out group is retried from its original seed-schedule entry at the
    *front* of the queue, so a serial run keeps row-major order with a
    retried group re-run before the next one.  Every span, retry and
    timeout is reported to each campaign the group measures.  The error
    that ends a failed run says where its finished cells are: in
    ``cache``, or nowhere.
    """
    queue: deque[tuple[_CellGroup, int]] = deque((group, 0) for group in groups)
    outstanding: dict = {}  # future -> (group, attempt, submitted_monotonic)
    capacity = 2 * slots if cell_timeout_s is None and slots > 1 else slots

    def members(group: _CellGroup) -> list[_Campaign]:
        return [campaigns[index] for index in group.members]

    if cache is None:
        kept = "completed cells were not kept; rerun with --cache-dir to keep them"
    else:
        kept = (
            f"completed cells are in the result cache at {cache.cache_dir}; "
            "rerun the same command to continue"
        )

    def fail(group: _CellGroup, attempts: int, message: str) -> CellExecutionError:
        return CellExecutionError(
            f"cell {group.pair} {message} ({kept})",
            i=group.i, j=group.j, pair=group.pair, attempts=attempts,
        )

    def retry_or_fail(
        group: _CellGroup, attempt: int, reason: str, message: str,
        error: BaseException | None = None,
    ) -> None:
        if attempt < max_retries and (error is None or _is_retryable(error)):
            for campaign in members(group):
                campaign.stats.record_retry()
                campaign.obs.cell_retry(group.i, group.j, attempt + 1, reason=reason)
            queue.appendleft((group, attempt + 1))
            return
        raise fail(group, attempt + 1, message) from error

    def time_out(group: _CellGroup, attempt: int, elapsed: float) -> None:
        for campaign in members(group):
            campaign.stats.record_timeout()
            campaign.obs.cell_timeout(group.i, group.j, attempt, cell_timeout_s)
            campaign.obs.cell_end(
                group.i, group.j, attempt, status="timeout", elapsed_s=elapsed
            )
        retry_or_fail(
            group, attempt, "timeout",
            f"exceeded the {cell_timeout_s:g} s budget on all "
            f"{attempt + 1} attempt(s)",
        )

    def late(submitted: float, now: float) -> bool:
        return cell_timeout_s is not None and now - submitted > cell_timeout_s

    while queue or outstanding:
        # Reclaim slots whose abandoned (hung) attempts finished.
        for future in [f for f in abandoned if f.done()]:
            abandoned.discard(future)
            capacity += 1
        while queue and len(outstanding) < capacity:
            group, attempt = queue.popleft()
            fault = dispatch_fault(group, attempt)
            for campaign in members(group):
                campaign.obs.cell_start(group.i, group.j, attempt, group.pair)
            submitted = time.monotonic()
            outstanding[submit(group, fault)] = (group, attempt, submitted)
        if not outstanding:
            group, attempt = queue[0]
            raise fail(
                group, attempt,
                f"cannot run: all {slots} worker slot(s) are lost to hung "
                f"cells and {len(queue)} cell(s) remain",
            )
        wait_timeout = None
        if cell_timeout_s is not None:
            first = min(submitted for _, _, submitted in outstanding.values())
            wait_timeout = max(0.0, first + cell_timeout_s - time.monotonic())
        completed, _ = wait(
            set(outstanding), timeout=wait_timeout, return_when=FIRST_COMPLETED
        )
        now = time.monotonic()
        # Successes first, so every finished cell reaches the cache
        # even when a failure aborts the run.
        for future in sorted(
            completed,
            key=lambda f: f.exception() is not None
            or late(outstanding[f][2], now),
        ):
            group, attempt, submitted = outstanding.pop(future)
            error = future.exception()
            if error is not None:
                for campaign in members(group):
                    campaign.obs.cell_end(
                        group.i, group.j, attempt, status="error",
                        elapsed_s=now - submitted, error=str(error),
                    )
                retry_or_fail(
                    group, attempt, "error",
                    f"failed on all {attempt + 1} attempt(s): {error}", error,
                )
            elif late(submitted, now):
                time_out(group, attempt, now - submitted)
            else:
                samples, fragments = future.result()
                for campaign, fragment in zip(members(group), fragments):
                    campaign.obs.cell_end(
                        group.i, group.j, attempt, status="ok",
                        elapsed_s=fragment["elapsed_s"], fragment=fragment,
                    )
                complete_group(group, samples, fragments)
        for future, (group, attempt, submitted) in list(outstanding.items()):
            # A future that finished since the wait is judged next pass.
            if future.done() or not late(submitted, now):
                continue
            del outstanding[future]
            if not future.cancel():
                abandoned.add(future)
                capacity -= 1
            time_out(group, attempt, now - submitted)


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MAX_RETRIES",
    "CampaignStats",
    "ResultCache",
    "WorkerPool",
    "campaign_cache_key",
    "cell_seed",
    "execute_campaign",
    "simulate_cell",
    "spawn_cell_seeds",
]
