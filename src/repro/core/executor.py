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
so the executor layers four recovery mechanisms over the fan-out:

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
  counters, journal contents, and final samples are identical in both.
* **Cache quarantine** — a corrupted, truncated, or wrong-shaped cache
  entry is moved to ``<cache_dir>/quarantine/`` (never silently
  deleted) and the cell is recomputed.
* **Campaign journaling** — every completed cell is streamed to an
  append-only JSONL journal, so an interrupted campaign can be resumed
  from the last completed cell instead of from zero, including after a
  fatal error (completed cells are journaled before the re-raise).

Fault injection for all of the above lives in
:mod:`repro.core.faults`: a :class:`~repro.core.faults.FaultPlan`
deterministically raises, hangs, or corrupts at chosen cells, which is
how the recovery paths are tested end to end.

The engine also maintains an on-disk result cache.  Each cell's
repetition samples are stored as an ``.npz`` file under a directory
named by a content hash of everything that determines the cell's value
(machine name and distance, the full :class:`~repro.core.savat.MeasurementConfig`,
the ordered event list, the repetition count, the campaign seed, and
the cell index).  Re-running a campaign the benchmarks have already
measured loads every cell from disk and performs zero simulations;
hit/miss counters, per-cell timings, and the fault-tolerance counters
are reported through :class:`CampaignStats` and the returned matrix
metadata.

Below the per-campaign result cache sits the **cross-campaign trace
cache** (:mod:`repro.core.trace_cache`): the expensive ``prime`` +
``core_run`` trace production inside :func:`simulate_cell` is keyed by
(machine spec, ordered pair, frequency plan) — not by distance, seed,
repetitions, or method — so campaigns that share kernels (a distance
study, a re-seeded rerun, a ``--method full`` re-analysis) skip the
simulation and only redo the cheap measurement stage.  Pool workers
receive the cache's *spec* (its disk path and LRU bound, never trace
payloads) and keep a warm per-process LRU; with a
:class:`WorkerPool` shared across campaigns the LRU survives from one
campaign to the next, which is what :func:`repro.core.study.run_study`
builds on.  Per-cell counter deltas travel back in the span fragments
and surface as ``savat_trace_cache_*`` metrics and the
``execution["trace_cache"]`` metadata.

All instrumentation flows through :mod:`repro.obs`: the counters live
in a :class:`~repro.obs.metrics.MetricsRegistry` (``CampaignStats`` is
a typed view over it), every cache/journal/fault/timeout event and
every simulation attempt is reported to a
:class:`~repro.obs.CampaignObservability` bundle (JSONL trace, live
progress line, Prometheus export), and workers stay trace-silent —
they return span fragments alongside their results and the parent
process merges them, so the trace file needs no cross-process locking.
"""

from __future__ import annotations

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
from repro.core.diskcache import quarantine_entry
from repro.core.faults import CORRUPT_PAYLOAD, CellFault, FaultPlan
from repro.core.savat import (
    MeasurementConfig,
    _plan_pair,
    measure_savat_samples,
    record_phase_seconds,
)
from repro.core.trace_cache import (
    TraceCache,
    get_process_trace_cache,
    produce_cell_trace,
)
from repro.errors import CellExecutionError, ConfigurationError, JournalError
from repro.isa.events import InstructionEvent
from repro.machines.calibrated import CalibratedMachine
from repro.obs import CampaignObservability
from repro.obs.metrics import MetricsRegistry
from repro.uarch.fastpath import fast_path_enabled

#: Bump whenever the cache layout or the seeding discipline changes;
#: old entries then miss instead of replaying stale numbers.
CACHE_SCHEMA_VERSION = 1

#: Bump whenever the journal line format changes; a resume against a
#: journal written by another version is rejected, never reinterpreted.
JOURNAL_VERSION = 1

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
        ``cache_misses`` when a cache is in use and nothing is resumed).
    workers:
        Worker processes the fan-out used (1 means serial).
    wall_seconds:
        Wall-clock duration of the whole campaign execution.
    retries:
        Cell attempts that were re-dispatched after a transient worker
        fault or timeout; each retry replays the cell's original seed.
    timeouts:
        Cell attempts that exceeded the ``cell_timeout_s`` budget.
    quarantined:
        Corrupted or truncated cache entries moved to the cache's
        quarantine directory (and recomputed) during this execution.
    resumed:
        Cells restored from the campaign journal instead of being
        simulated or loaded from the cache.
    trace_cache:
        Kernel-trace cache traffic this campaign caused —
        ``memory_hits`` / ``disk_hits`` / ``misses`` / ``stores`` /
        ``quarantined`` (see :mod:`repro.core.trace_cache`); all zero
        when the trace cache is disabled.
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
        Cache hits record no phases.
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
        # Materialize every tier up front so the Prometheus export (and
        # repro.obs.check's exact comparison) sees 0 samples even for a
        # campaign that never hit a given tier.
        self._trace_hits.labels(tier="memory")
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
        self._resumed = r.counter(
            "savat_cells_resumed_total",
            "Cells restored from the campaign journal.",
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
            "savat_workers", "Worker processes used by the fan-out."
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
    def resumed(self) -> int:
        """Cells restored from the campaign journal."""
        return int(self._resumed.value())

    @property
    def trace_cache(self) -> dict[str, int]:
        """Trace-cache traffic this campaign caused, by counter name."""
        return {
            "memory_hits": int(self._trace_hits.labels(tier="memory").get()),
            "disk_hits": int(self._trace_hits.labels(tier="disk").get()),
            "misses": int(self._trace_misses.value()),
            "stores": int(self._trace_stores.value()),
            "quarantined": int(self._trace_quarantined.value()),
        }

    @property
    def workers(self) -> int:
        """Worker processes the fan-out used (1 means serial)."""
        return int(self._workers.value())

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration of the whole campaign execution."""
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
        """Merge one cell's trace-cache counter delta.

        ``delta`` is a :meth:`repro.core.trace_cache.TraceCache.counters`
        difference — taken around the cell either in-process (serial) or
        inside the worker and shipped back in the span fragment.
        """
        if delta.get("memory_hits"):
            self._trace_hits.labels(tier="memory").inc(delta["memory_hits"])
        if delta.get("disk_hits"):
            self._trace_hits.labels(tier="disk").inc(delta["disk_hits"])
        if delta.get("misses"):
            self._trace_misses.inc(delta["misses"])
        if delta.get("stores"):
            self._trace_stores.inc(delta["stores"])
        if delta.get("quarantined"):
            self._trace_quarantined.inc(delta["quarantined"])

    def record_resumed(self) -> None:
        """Count one cell restored from the journal."""
        self._resumed.inc()

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
            "resumed": self.resumed,
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
) -> str:
    """Content hash identifying one campaign's results on disk.

    Any change to the machine, distance, measurement configuration,
    ordered event list, repetition count, or seed changes the key, so
    stale entries can never be mistaken for current ones.  The same key
    identifies the campaign's journal, so a resume against results from
    a different campaign is rejected instead of replayed.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "machine": machine_name,
        "distance_m": float(distance_m),
        "config": _config_payload(config),
        "events": list(event_names),
        "repetitions": int(repetitions),
        "seed": int(seed),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


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
    """

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir).expanduser()
        self.hits = 0
        self.misses = 0
        self.quarantine_count = 0
        self.quarantined_paths: list[Path] = []

    def begin_execution(self) -> None:
        """Zero the per-execution counters (cached entries are kept).

        :func:`execute_campaign` calls this on entry, so a cache object
        shared across the campaigns of a study reports each campaign's
        own hits/misses/quarantines instead of double-counting the
        previous campaigns' traffic into the next campaign's metadata.
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

    def load_cell(self, key: str, i: int, j: int, repetitions: int) -> np.ndarray | None:
        """Load one cell's samples, or ``None`` on a miss.

        A corrupted, truncated, or wrong-shaped file counts as a miss:
        the entry is quarantined and the caller re-simulates the cell.
        Each call increments exactly one of ``hits``/``misses``; a
        quarantined entry therefore counts one ``misses`` and one
        ``quarantine_count`` increment, and never touches ``hits``.
        """
        path = self.cell_path(key, i, j)
        try:
            with np.load(path) as data:
                samples = np.asarray(data["samples_zj"], dtype=np.float64)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # noqa: BLE001 — any unreadable entry is a miss
            self.quarantine(key, path)
            self.misses += 1
            return None
        if samples.shape != (repetitions,) or not np.all(np.isfinite(samples)):
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
# Campaign journal (checkpoint / resume)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _JournalEntry:
    """One completed cell restored from a journal."""

    samples: np.ndarray
    elapsed_s: float
    phase_seconds: dict[str, float]


class CampaignJournal:
    """Append-only JSONL checkpoint of a campaign's completed cells.

    The first line is a header binding the journal to one campaign (via
    :data:`JOURNAL_VERSION` and the campaign's content-hash key); every
    further line records one completed cell's samples at full float64
    precision (``repr`` round-trip, so a resumed cell is bit-identical
    to the original).  Cells are flushed and fsynced as they complete,
    so a campaign killed at any instant loses at most the cell that was
    in flight — a torn trailing line is tolerated and recomputed.

    A resume against a journal whose version or campaign key does not
    match is rejected with :class:`~repro.errors.JournalError` rather
    than replayed.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path).expanduser()
        self._handle = None

    # ------------------------------------------------------------------
    def start(self, header: dict, resume: bool) -> dict[tuple[int, int], _JournalEntry]:
        """Open the journal and return already-completed cells.

        With ``resume`` false (or no journal file yet), a fresh journal
        is written with the given header and no cells are restored.
        With ``resume`` true, the existing journal is validated against
        the header and its completed cells are returned; new cells are
        appended after them.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        entries: dict[tuple[int, int], _JournalEntry] = {}
        if resume and self.path.exists():
            entries = self._load(header)
            self._handle = open(self.path, "a", encoding="utf-8")
        else:
            self._handle = open(self.path, "w", encoding="utf-8")
            self._append_line({"kind": "header", **header})
        return entries

    def _load(self, header: dict) -> dict[tuple[int, int], _JournalEntry]:
        repetitions = int(header["repetitions"])
        entries: dict[tuple[int, int], _JournalEntry] = {}
        with open(self.path, encoding="utf-8") as handle:
            first = handle.readline()
            try:
                recorded = json.loads(first)
            except json.JSONDecodeError as error:
                raise JournalError(
                    f"journal {self.path} has an unreadable header; refusing "
                    "to resume (delete or point --journal elsewhere)"
                ) from error
            if recorded.get("kind") != "header":
                raise JournalError(
                    f"journal {self.path} does not start with a header line"
                )
            if recorded.get("journal_version") != header["journal_version"]:
                raise JournalError(
                    f"journal {self.path} has version "
                    f"{recorded.get('journal_version')!r} but this executor "
                    f"writes version {header['journal_version']}; refusing "
                    "to reinterpret it"
                )
            if recorded.get("campaign_key") != header["campaign_key"]:
                raise JournalError(
                    f"journal {self.path} belongs to a different campaign "
                    f"(key {recorded.get('campaign_key')!r}, expected "
                    f"{header['campaign_key']!r}); machine, distance, config, "
                    "events, repetitions, and seed must all match to resume"
                )
            for line in handle:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A torn trailing line from a killed campaign: the
                    # in-flight cell is simply recomputed.
                    continue
                if record.get("kind") != "cell":
                    continue
                try:
                    i, j = int(record["i"]), int(record["j"])
                    samples = np.asarray(record["samples_zj"], dtype=np.float64)
                except (KeyError, TypeError, ValueError):
                    continue
                if samples.shape != (repetitions,) or not np.all(np.isfinite(samples)):
                    continue
                entries[(i, j)] = _JournalEntry(
                    samples=samples,
                    elapsed_s=float(record.get("elapsed_s", 0.0)),
                    phase_seconds={
                        name: float(seconds)
                        for name, seconds in (record.get("phase_seconds") or {}).items()
                    },
                )
        return entries

    # ------------------------------------------------------------------
    def append_cell(
        self,
        i: int,
        j: int,
        samples: np.ndarray,
        elapsed_s: float,
        phase_seconds: dict[str, float] | None,
    ) -> None:
        """Stream one completed cell to disk (flushed and fsynced)."""
        self._append_line(
            {
                "kind": "cell",
                "i": int(i),
                "j": int(j),
                "samples_zj": [float(value) for value in np.asarray(samples)],
                "elapsed_s": float(elapsed_s),
                "phase_seconds": {
                    name: float(seconds)
                    for name, seconds in (phase_seconds or {}).items()
                },
            }
        )

    def _append_line(self, record: dict) -> None:
        if self._handle is None:
            raise JournalError("journal is not open")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the journal file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# Cell simulation (shared by the serial path and the worker processes)
# ----------------------------------------------------------------------
def simulate_cell(
    machine: CalibratedMachine,
    config: MeasurementConfig,
    event_a: InstructionEvent,
    event_b: InstructionEvent,
    repetitions: int,
    seed_sequence: np.random.SeedSequence,
    plan: FrequencyPlan | None = None,
    phase_seconds: dict[str, float] | None = None,
    trace_cache: TraceCache | None = None,
) -> np.ndarray:
    """Simulate one (A, B) cell: plan, trace, and all repetitions.

    As in the paper's multi-day repeats, the deterministic kernel
    simulation is shared across repetitions and only the environment
    noise is re-drawn — from this cell's private seed-schedule stream.

    The cell splits into two stages.  **Trace production** (the
    ``prime`` + ``core_run`` phases) is a pure function of the machine
    spec, the pair, and the plan, and routes through
    :func:`repro.core.trace_cache.produce_cell_trace`: with a
    ``trace_cache``, a repeat of the same kernel skips both phases and
    serves the identical trace from the cache.  **Measurement** (the
    ``synthesize`` / ``analyze`` phases) depends on distance, seed,
    repetitions, and method, and always runs — which is why samples are
    bit-identical with the cache on or off.

    ``plan`` lets the campaign executor pre-compute the frequency plan
    in the parent process (amortizing the per-event CPI probe runs over
    every cell) instead of each worker re-probing from a cold cache;
    the plan is a pure function of machine, pair, and frequency, so the
    results are identical either way.

    ``phase_seconds`` (when given) accumulates the cell's pipeline
    breakdown — prime / core_run / synthesize / analyze seconds.  On a
    trace-cache hit the prime/core_run phases never run, so they are
    simply absent.
    """
    rng = np.random.default_rng(seed_sequence)
    if plan is None:
        plan = _plan_pair(machine, event_a, event_b, config.alternation_frequency_hz)
    sink = phase_seconds if phase_seconds is not None else {}
    with record_phase_seconds(sink):
        trace, plan = produce_cell_trace(
            machine, event_a, event_b, plan, cache=trace_cache
        )
        samples = measure_savat_samples(
            machine,
            event_a,
            event_b,
            config=config,
            rng=rng,
            trace=trace,
            plan=plan,
            repetitions=repetitions,
        )
    return samples


#: The worker's persistent trace cache (module-level, so it survives
#: across every campaign executed over the same pool) and the spec it
#: was built from.
_WORKER_TRACE_CACHE: TraceCache | None = None
_WORKER_TRACE_CACHE_SPEC: dict | None = None


def _worker_trace_cache(spec: dict | None) -> TraceCache | None:
    """The per-process trace cache matching ``spec`` (memoized).

    The parent ships the cache *spec* — its disk-tier path and LRU
    bound, never trace payloads — and each worker rebuilds its own
    :class:`~repro.core.trace_cache.TraceCache` over the shared disk
    tier.  The cache is keyed by the spec, so a long-lived pool keeps
    its warm LRU across campaigns that share a cache and transparently
    rebuilds when a campaign arrives with a different one.
    """
    global _WORKER_TRACE_CACHE, _WORKER_TRACE_CACHE_SPEC
    if spec is None:
        return None
    if _WORKER_TRACE_CACHE is None or _WORKER_TRACE_CACHE_SPEC != spec:
        _WORKER_TRACE_CACHE = TraceCache.from_spec(spec)
        _WORKER_TRACE_CACHE_SPEC = dict(spec)
    return _WORKER_TRACE_CACHE


@dataclass(frozen=True)
class _PendingCell:
    """One cold cell awaiting simulation."""

    i: int
    j: int
    event_a: InstructionEvent
    event_b: InstructionEvent
    seed_sequence: np.random.SeedSequence
    plan: FrequencyPlan


def _attempt(
    machine: CalibratedMachine,
    config: MeasurementConfig,
    repetitions: int,
    cell: _PendingCell,
    fault: CellFault | None,
    cache: TraceCache | None,
) -> tuple[np.ndarray, dict]:
    """Run one attempt at a cell, in-process or inside a worker.

    ``fault`` (set only by an injected
    :class:`~repro.core.faults.FaultPlan`) raises or hangs before the
    simulation starts.  Returns the samples and the cell's **trace span
    fragment**: the pid that ran it, the simulation's own elapsed
    seconds (the fault excluded; budgets are judged on the parent's
    clock), per-phase seconds, and the trace-cache counter delta.
    Workers never write to the trace file themselves — the parent
    merges the fragment into the cell's ``span_end`` record, keeping the
    trace single-writer under the process pool.
    """
    if fault is not None:
        fault.apply()
    started = time.perf_counter()
    phases: dict[str, float] = {}
    before = cache.counters() if cache is not None else None
    samples = simulate_cell(
        machine, config, cell.event_a, cell.event_b, repetitions,
        cell.seed_sequence, plan=cell.plan, phase_seconds=phases,
        trace_cache=cache,
    )
    fragment = {
        "worker_pid": os.getpid(),
        "elapsed_s": time.perf_counter() - started,
        "phase_seconds": phases,
    }
    if cache is not None:
        fragment["trace_cache"] = TraceCache.counter_delta(
            cache.counters(), before
        )
    return samples, fragment


def _cell_task(
    machine: CalibratedMachine,
    config: MeasurementConfig,
    repetitions: int,
    cell: _PendingCell,
    fault: CellFault | None,
    trace_cache_spec: dict | None,
) -> tuple[np.ndarray, dict]:
    """Run one attempt inside a worker process.

    The cell ships its campaign context (machine, config, repetitions,
    pre-computed frequency plan) and the trace cache's spec with every
    task — the pickles are small, and carrying them per task is what
    lets one persistent :class:`WorkerPool` serve campaigns with
    different machines, configs and caches back to back.
    """
    return _attempt(
        machine, config, repetitions, cell, fault,
        _worker_trace_cache(trace_cache_spec),
    )


def _is_retryable(error: BaseException) -> bool:
    """Whether a cell failure may be absorbed by the retry budget.

    Configuration mistakes would fail identically on every attempt and
    a broken process pool cannot run further attempts at all, so both
    abort immediately; any other ``Exception`` is treated as transient.
    """
    if isinstance(error, (ConfigurationError, BrokenProcessPool)):
        return False
    return isinstance(error, Exception)


class WorkerPool:
    """A persistent worker pool that outlives individual campaigns.

    A pooled :func:`execute_campaign` normally builds and tears down a
    pool of its own, which also destroys every worker's warm in-process
    trace LRU.  Passing one in inverts that ownership: the caller
    (typically :func:`repro.core.study.run_study`) builds the pool
    once, passes it to each campaign via ``execute_campaign(pool=...)``,
    and the same worker processes — with their
    :mod:`repro.core.trace_cache` LRUs still warm — serve every
    campaign's cold cells.  Each task carries its campaign's trace-cache
    *spec* (its disk path and LRU bound); trace payloads never cross
    the process boundary.

    Use as a context manager, or call :meth:`shutdown` explicitly.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(_validate_workers(workers), 1)
        self._outstanding: set = set()
        self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def submit(self, fn, /, *args):
        """Submit one task to the pool (``ProcessPoolExecutor.submit``)."""
        future = self._pool.submit(fn, *args)
        self._outstanding.add(future)
        future.add_done_callback(self._outstanding.discard)
        return future

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until no submitted task is still running.

        Campaigns normally consume every future they submit, but a
        campaign aborted by :class:`~repro.errors.CellExecutionError`
        (or an abandoned, timed-out attempt) can leave tasks running in
        the pool's workers.  Shared state those workers write — the
        trace cache's disk tier — must only be torn down after they
        finish, so the study runner drains the pool before removing
        anything.  Returns ``False`` when a timeout expired with tasks
        still running.
        """
        pending = set(self._outstanding)
        if not pending:
            return True
        done, not_done = wait(pending, timeout=timeout)
        return not not_done

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
def execute_campaign(
    machine: CalibratedMachine,
    events: Sequence[InstructionEvent],
    config: MeasurementConfig | None = None,
    repetitions: int = 10,
    seed: int = 0,
    workers: int = 0,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    cell_timeout_s: float | None = None,
    journal: str | os.PathLike | bool | None = None,
    resume: bool = False,
    fault_plan: FaultPlan | None = None,
    observability: CampaignObservability | None = None,
    trace_cache: TraceCache | bool | None = None,
    pool: WorkerPool | None = None,
) -> tuple[np.ndarray, CampaignStats]:
    """Measure every ordered (A, B) cell of a campaign, possibly in parallel.

    Parameters
    ----------
    machine:
        Calibrated machine (fixes the distance too).
    events:
        Resolved event objects, in matrix order.
    config:
        Measurement configuration; the paper's defaults if omitted.
    repetitions:
        Measurements per cell.
    seed:
        Campaign seed, expanded into the per-cell schedule by
        :func:`spawn_cell_seeds`.
    workers:
        Worker processes; ``0`` or ``1`` runs serially in-process.
        Results are bit-identical either way.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely.
    progress:
        Optional ``(event_a, event_b, done, total)`` callback invoked as
        each cell completes (cache hits and resumed cells included).
    max_retries:
        Transient-fault retry budget per cell.  A retried cell replays
        its original seed-schedule entry, so retries never change the
        campaign's samples.
    cell_timeout_s:
        Wall-clock budget per cell attempt, measured from submission.
        An attempt that finishes over budget counts one timeout and its
        result is discarded; a running attempt that passes its deadline
        is abandoned, and an owned pool's workers are terminated at the
        end.  Either way the cell is retried from its original seed
        (consuming the retry budget) or the campaign fails.  Counters,
        journal contents, and samples are identical serial or pooled.
    journal:
        Path of the campaign journal to stream completed cells to, or
        ``True`` to place ``journal.jsonl`` inside the cache's campaign
        directory (requires ``cache``).  ``None`` disables journaling.
    resume:
        Restore completed cells from the journal instead of recomputing
        them (requires ``journal``).  The journal's version and campaign
        key must match, else :class:`~repro.errors.JournalError` is
        raised; a missing journal file simply starts a fresh campaign.
    fault_plan:
        Deterministic :class:`~repro.core.faults.FaultPlan` to inject
        (testing/debugging only).
    observability:
        :class:`~repro.obs.CampaignObservability` bundle receiving
        every execution event (trace spans, cache/journal/fault events,
        live progress) and owning the metrics registry the returned
        :class:`CampaignStats` records into.  A registry-only bundle
        (no trace, no progress, no metrics file) is created when
        omitted.
    trace_cache:
        Kernel-trace cache (:class:`~repro.core.trace_cache.TraceCache`)
        serving the prime/core_run trace-production stage.  ``None``
        (the default) uses the process-wide cache configured by
        ``SAVAT_TRACE_CACHE`` / ``SAVAT_TRACE_CACHE_DIR``; ``False``
        disables trace caching for this campaign.  Samples are
        bit-identical with the cache on or off.
    pool:
        A persistent :class:`WorkerPool` to fan cells out over instead
        of creating (and tearing down) a private pool.  The pool's
        workers keep their warm trace LRUs across campaigns; the
        caller owns the pool's lifetime.  When given, it overrides
        ``workers``.

    Returns
    -------
    tuple
        ``(samples, stats)`` — the ``(N, N, repetitions)`` sample array
        in zJ and the execution counters/timings.

    Raises
    ------
    CellExecutionError
        A cell failed on every attempt (or every worker slot was lost
        to hung cells).  All cells completed before the failure have
        already been streamed to the journal, so a ``resume`` run
        restarts from them.
    """
    config = config or MeasurementConfig()
    resolved = list(events)
    count = len(resolved)
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
    if resume and not journal:
        raise ConfigurationError("resume=True needs a journal to resume from")
    workers = _validate_workers(workers)
    names = [event.name for event in resolved]

    if trace_cache is False:
        resolved_trace_cache: TraceCache | None = None
    elif trace_cache is None or trace_cache is True:
        resolved_trace_cache = get_process_trace_cache()
    else:
        resolved_trace_cache = trace_cache
    trace_cache_spec = (
        resolved_trace_cache.spec() if resolved_trace_cache is not None else None
    )

    effective_workers = pool.workers if pool is not None else max(workers, 1)
    obs = observability if observability is not None else CampaignObservability()
    stats = CampaignStats(workers=effective_workers, registry=obs.metrics)
    if cache is not None:
        cache.begin_execution()
    samples = np.zeros((count, count, repetitions))
    seeds = spawn_cell_seeds(seed, count)
    started = time.perf_counter()
    total = count * count
    done = 0

    def finish(
        i: int,
        j: int,
        cell_samples: np.ndarray,
        elapsed_s: float,
        phase_seconds: dict[str, float] | None = None,
    ) -> None:
        nonlocal done
        samples[i, j] = cell_samples
        stats.record_cell(names[i], names[j], elapsed_s, phase_seconds)
        done += 1
        obs.cell_completed(f"{names[i]}/{names[j]}", elapsed_s, done, total)
        if progress is not None:
            progress(names[i], names[j], done, total)

    # The key identifies the campaign both on disk (cache layout) and in
    # the journal header, so it is computed even for cache-less runs.
    key = campaign_cache_key(
        machine.name, machine.distance_m, config, names, repetitions, seed
    )
    if cache is not None:
        cache.write_manifest(
            key,
            {
                "schema": CACHE_SCHEMA_VERSION,
                "machine": machine.name,
                "distance_m": machine.distance_m,
                "config": _config_payload(config),
                "events": names,
                "repetitions": repetitions,
                "seed": seed,
            },
        )

    obs.campaign_start(
        total_cells=total,
        campaign_key=key,
        machine=machine.name,
        distance_m=machine.distance_m,
        events=names,
        repetitions=repetitions,
        seed=seed,
        workers=effective_workers,
    )

    campaign_journal: CampaignJournal | None = None
    owned_pool: WorkerPool | None = None
    abandoned: set = set()  # futures of hung attempts still running
    status = "failed"
    try:
        journaled: dict[tuple[int, int], _JournalEntry] = {}
        if journal is True:
            if cache is None:
                raise ConfigurationError(
                    "journal=True places the journal inside the cache's "
                    "campaign directory and therefore needs a cache; pass "
                    "an explicit journal path instead"
                )
            journal = cache.campaign_dir(key) / "journal.jsonl"
        if journal:
            campaign_journal = CampaignJournal(journal)
            journaled = campaign_journal.start(
                {
                    "journal_version": JOURNAL_VERSION,
                    "campaign_key": key,
                    "machine": machine.name,
                    "distance_m": machine.distance_m,
                    "events": names,
                    "repetitions": repetitions,
                    "seed": seed,
                },
                resume=resume,
            )

        # Resolve journal and cache hits first, so the fan-out only
        # sees the cold cells.
        pending: list[_PendingCell] = []
        for i in range(count):
            for j in range(count):
                entry = journaled.get((i, j))
                if entry is not None:
                    stats.record_resumed()
                    obs.journal_resume(i, j)
                    finish(i, j, entry.samples, entry.elapsed_s, entry.phase_seconds)
                    continue
                if cache is not None and fault_plan is not None:
                    corrupt = fault_plan.corrupt_fault(i, j)
                    if corrupt is not None:
                        # Overwrite (or create) the entry with garbage so
                        # the load below must quarantine and recompute.
                        path = cache.cell_path(key, i, j)
                        path.parent.mkdir(parents=True, exist_ok=True)
                        path.write_bytes(CORRUPT_PAYLOAD)
                        stats.record_fault(corrupt.kind)
                        obs.fault_injected(**corrupt.trace_fields())
                load_started = time.perf_counter()
                quarantined_before = (
                    cache.quarantine_count if cache is not None else 0
                )
                cached = (
                    cache.load_cell(key, i, j, repetitions)
                    if cache is not None
                    else None
                )
                if cache is not None:
                    newly_quarantined = cache.quarantine_count - quarantined_before
                    if newly_quarantined:
                        stats.record_quarantined(newly_quarantined)
                        obs.cache_quarantine(i, j)
                if cached is not None:
                    stats.record_cache_hit()
                    obs.cache_hit(i, j)
                    elapsed = time.perf_counter() - load_started
                    if campaign_journal is not None:
                        campaign_journal.append_cell(i, j, cached, elapsed, None)
                    finish(i, j, cached, elapsed)
                else:
                    if cache is not None:
                        stats.record_cache_miss()
                        obs.cache_miss(i, j)
                    # Plan in the parent: the per-event CPI probes behind
                    # _plan_pair are cached per (machine, event), so every
                    # pending cell after the first reuses them, and workers
                    # receive finished plans instead of each re-probing
                    # from a cold cache.
                    plan = _plan_pair(
                        machine,
                        resolved[i],
                        resolved[j],
                        config.alternation_frequency_hz,
                    )
                    pending.append(
                        _PendingCell(
                            i, j, resolved[i], resolved[j],
                            seeds[i * count + j], plan,
                        )
                    )

        def complete_cell(
            cell: _PendingCell, cell_samples: np.ndarray, fragment: dict
        ) -> None:
            elapsed, phases = fragment["elapsed_s"], fragment["phase_seconds"]
            stats.record_simulated(fragment["worker_pid"])
            trace_delta = fragment.get("trace_cache")
            if trace_delta:
                stats.record_trace_cache(trace_delta)
                obs.trace_cache(cell.i, cell.j, trace_delta)
            if cache is not None:
                cache.store_cell(key, cell.i, cell.j, cell_samples)
            if campaign_journal is not None:
                campaign_journal.append_cell(
                    cell.i, cell.j, cell_samples, elapsed, phases
                )
            finish(cell.i, cell.j, cell_samples, elapsed, phases)

        def dispatch_fault(cell: _PendingCell, attempt: int) -> CellFault | None:
            if fault_plan is None:
                return None
            fault = fault_plan.worker_fault(cell.i, cell.j, attempt)
            if fault is not None:
                stats.record_fault(fault.kind)
                obs.fault_injected(attempt=attempt, **fault.trace_fields())
            return fault

        def run_here(cell: _PendingCell, fault: CellFault | None) -> Future:
            # The in-process submit: the campaign's own trace cache object
            # (not one rebuilt from its spec), so later campaigns in this
            # process reuse its LRU and counters.
            future: Future = Future()
            try:
                future.set_result(_attempt(
                    machine, config, repetitions, cell, fault,
                    resolved_trace_cache,
                ))
            except Exception as error:  # noqa: BLE001 — judged by the loop
                future.set_exception(error)
            return future

        def run_in_pool(cell: _PendingCell, fault: CellFault | None) -> Future:
            return pool.submit(
                _cell_task, machine, config, repetitions, cell, fault,
                trace_cache_spec,
            )

        if pool is None and (effective_workers <= 1 or len(pending) <= 1):
            submit, slots = run_here, 1
        else:
            if pool is None:
                pool = owned_pool = WorkerPool(
                    min(effective_workers, len(pending))
                )
            submit, slots = run_in_pool, pool.workers
        _run_cells(
            pending, submit, slots, stats, obs, dispatch_fault,
            complete_cell, max_retries, cell_timeout_s, abandoned,
        )
        status = "ok"
    finally:
        if campaign_journal is not None:
            campaign_journal.close()
        if owned_pool is not None:
            # A hung attempt may never return: kill the workers rather
            # than leave interpreter exit joining them.  Otherwise never
            # block teardown on a failed run's in-flight cells.
            if abandoned:
                owned_pool.terminate()
            else:
                owned_pool.shutdown(wait=status == "ok", cancel_futures=True)
        stats.wall_seconds = time.perf_counter() - started
        obs.campaign_end(status=status, wall_seconds=stats.wall_seconds)

    return samples, stats


def _run_cells(
    pending: Sequence[_PendingCell],
    submit: Callable[[_PendingCell, CellFault | None], Future],
    slots: int,
    stats: CampaignStats,
    obs: CampaignObservability,
    dispatch_fault: Callable[[_PendingCell, int], CellFault | None],
    complete_cell: Callable[[_PendingCell, np.ndarray, dict], None],
    max_retries: int,
    cell_timeout_s: float | None,
    abandoned: set,
) -> None:
    """Run the cold cells with retries and timeouts, serial or pooled.

    At most ``slots`` attempts are outstanding; ``submit`` either runs
    the attempt in-process (and returns a finished future) or hands it
    to a worker.  Each attempt's budget runs from just before its
    submission.  An attempt found over budget when it completes counts
    one timeout and its result is discarded; one still running past its
    deadline is abandoned — added to ``abandoned``, its slot written off
    until it returns — and counts one timeout too.  A failed or timed
    out cell is retried from its original seed-schedule entry at the
    *front* of the queue, so a serial run keeps row-major order with a
    retried cell re-run before the next one.
    """
    queue: deque[tuple[_PendingCell, int]] = deque((cell, 0) for cell in pending)
    outstanding: dict = {}  # future -> (cell, attempt, submitted_monotonic)
    capacity = slots

    def fail(cell: _PendingCell, attempts: int, message: str) -> CellExecutionError:
        pair = f"{cell.event_a.name}/{cell.event_b.name}"
        return CellExecutionError(
            f"cell {pair} {message} (completed cells are journaled; rerun "
            "with resume to continue)",
            i=cell.i, j=cell.j, pair=pair, attempts=attempts,
        )

    def retry_or_fail(
        cell: _PendingCell, attempt: int, reason: str, message: str,
        error: BaseException | None = None,
    ) -> None:
        if attempt < max_retries and (error is None or _is_retryable(error)):
            stats.record_retry()
            obs.cell_retry(cell.i, cell.j, attempt + 1, reason=reason)
            queue.appendleft((cell, attempt + 1))
            return
        raise fail(cell, attempt + 1, message) from error

    def time_out(cell: _PendingCell, attempt: int, elapsed: float) -> None:
        stats.record_timeout()
        obs.cell_timeout(cell.i, cell.j, attempt, cell_timeout_s)
        obs.cell_end(
            cell.i, cell.j, attempt, status="timeout", elapsed_s=elapsed
        )
        retry_or_fail(
            cell, attempt, "timeout",
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
            cell, attempt = queue.popleft()
            fault = dispatch_fault(cell, attempt)
            obs.cell_start(
                cell.i, cell.j, attempt, f"{cell.event_a.name}/{cell.event_b.name}"
            )
            submitted = time.monotonic()
            outstanding[submit(cell, fault)] = (cell, attempt, submitted)
        if not outstanding:
            cell, attempt = queue[0]
            raise fail(
                cell, attempt,
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
        # Successes first, so every finished cell reaches the journal
        # even when a failure aborts the run.
        for future in sorted(
            completed,
            key=lambda f: f.exception() is not None
            or late(outstanding[f][2], now),
        ):
            cell, attempt, submitted = outstanding.pop(future)
            error = future.exception()
            if error is not None:
                obs.cell_end(
                    cell.i, cell.j, attempt, status="error",
                    elapsed_s=now - submitted, error=str(error),
                )
                retry_or_fail(
                    cell, attempt, "error",
                    f"failed on all {attempt + 1} attempt(s): {error}", error,
                )
            elif late(submitted, now):
                time_out(cell, attempt, now - submitted)
            else:
                cell_samples, fragment = future.result()
                obs.cell_end(
                    cell.i, cell.j, attempt, status="ok",
                    elapsed_s=fragment["elapsed_s"], fragment=fragment,
                )
                complete_cell(cell, cell_samples, fragment)
        for future, (cell, attempt, submitted) in list(outstanding.items()):
            # A future that finished since the wait is judged next pass.
            if future.done() or not late(submitted, now):
                continue
            del outstanding[future]
            if not future.cancel():
                abandoned.add(future)
                capacity -= 1
            time_out(cell, attempt, now - submitted)


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_MAX_RETRIES",
    "JOURNAL_VERSION",
    "CampaignJournal",
    "CampaignStats",
    "ResultCache",
    "WorkerPool",
    "campaign_cache_key",
    "cell_seed",
    "execute_campaign",
    "simulate_cell",
    "spawn_cell_seeds",
]
