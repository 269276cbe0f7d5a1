"""Cross-campaign kernel-trace cache: an on-disk store of activity traces.

The expensive part of every campaign cell — the ``prime`` and
``core_run`` phases that produce the switching-activity
:class:`~repro.uarch.activity.ActivityTrace` — is a pure function of
the machine *microarchitecture*, the ordered event pair, and the
:class:`~repro.codegen.frequency.FrequencyPlan`.  Distance, campaign
seed, repetitions, and the measurement method only enter downstream, at
the EM projection and analysis steps.

Within one execution the campaign executor already produces each trace
once: a *cell group* (one ordered pair) measures its trace for every
distance of the machine in memory and then drops it (see
:mod:`repro.core.executor`).  This cache serves what outlives an
execution — a re-seeded rerun, a ``--method full`` re-analysis, or a
later study over the same kernels — so it exists only where the caller
passes one: ``trace_cache=TraceCache(directory)`` to the campaign and
study entry points, or ``savat campaign|study|groups --trace-cache-dir
DIR`` (default ``$SAVAT_TRACE_CACHE_DIR``).  Campaign workers and a
study's pool all read and write the same directory.

Disk entries follow the executor's cache discipline via
:mod:`repro.core.diskcache`: writes are atomic (temp file + fsync +
``os.replace``), and an unreadable or wrong-shaped entry is quarantined
to ``<dir>/quarantine/`` — never silently deleted — and recomputed.
Hits are read with :func:`~repro.core.diskcache.read_npz`, which skips
the zip CRC pass (most of ``np.load``'s cost for a 3 MB trace); every
entry is still checked for shape and finite, non-negative activity.

Keys are content hashes over everything that determines the trace:
the trace-cache and simulator schema versions, the active simulation
path (fast or reference — the reference path stays an executable
specification, so the two never share entries), the machine *spec
content* (not just its name), the ordered pair, and every
``FrequencyPlan`` field.  Nothing distance-, seed-, repetition-, or
method-dependent participates, which is exactly what makes the entries
reusable across campaigns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.codegen.frequency import FrequencyPlan
from repro.core.diskcache import (
    atomic_write,
    quarantine_entry,
    read_npz,
    require_directory,
)
from repro.isa.events import InstructionEvent
from repro.machines.calibrated import CalibratedMachine
from repro.uarch.activity import ActivityTrace
from repro.uarch.fastpath import UARCH_SCHEMA_VERSION, fast_path_enabled

#: Bump whenever the cache payload layout or the key composition
#: changes; old entries then miss instead of replaying stale traces.
TRACE_CACHE_SCHEMA_VERSION = 1


def _spec_payload(machine: CalibratedMachine) -> dict:
    """The machine spec as a stable, JSON-serializable mapping.

    The full spec *content* is hashed — cache geometry, latencies,
    functional-unit timings, activity quanta — not just the catalog
    name, so an edited spec can never replay a stale trace recorded
    under the same name.
    """
    return dataclasses.asdict(machine.spec)


def _plan_payload(plan: FrequencyPlan) -> dict:
    """Every FrequencyPlan field, as a stable mapping.

    The spec's event objects are identified by name (the ordered pair
    already participates in the key) and the sweeps by their full
    constants, so any plan perturbation changes the key.
    """
    spec = plan.spec
    return {
        "inst_loop_count": int(spec.inst_loop_count),
        "sweep_a": {
            "base": int(spec.sweep_a.base),
            "footprint": int(spec.sweep_a.footprint),
            "offset": int(spec.sweep_a.offset),
        },
        "sweep_b": {
            "base": int(spec.sweep_b.base),
            "footprint": int(spec.sweep_b.footprint),
            "offset": int(spec.sweep_b.offset),
        },
        "target_frequency_hz": float(plan.target_frequency_hz),
        "predicted_frequency_hz": float(plan.predicted_frequency_hz),
        "cycles_per_iteration_a": float(plan.cycles_per_iteration_a),
        "cycles_per_iteration_b": float(plan.cycles_per_iteration_b),
    }


def trace_cache_key(
    machine: CalibratedMachine,
    event_a: InstructionEvent,
    event_b: InstructionEvent,
    plan: FrequencyPlan,
    schema_version: int = TRACE_CACHE_SCHEMA_VERSION,
    uarch_version: int = UARCH_SCHEMA_VERSION,
) -> str:
    """Content hash identifying one kernel trace.

    Covers the schema versions, the active simulation path, the machine
    spec content, the ordered pair, and every plan field — and nothing
    else: distance, seed, repetitions, and measurement method do not
    participate, so one trace serves every campaign that shares the
    kernel.
    """
    payload = {
        "schema": int(schema_version),
        "uarch": int(uarch_version),
        "path": "fast" if fast_path_enabled() else "reference",
        "machine": _spec_payload(machine),
        "pair": [event_a.name, event_b.name],
        "plan": _plan_payload(plan),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class TraceCache:
    """On-disk trace store shared by every process that names its directory.

    Parameters
    ----------
    directory:
        The cache directory, created on the first store.  Multiple
        processes may share it — writes are atomic and corrupt entries
        are quarantined, exactly like the campaign result cache.  A
        path that exists and is not a directory raises
        :class:`~repro.errors.ConfigurationError` here, before any
        cell runs.

    Counter semantics mirror :class:`~repro.core.executor.ResultCache`:
    every :meth:`load` increments exactly one of ``disk_hits`` or
    ``misses``; a quarantined entry is a miss that also increments
    ``quarantine_count``, and never a hit.  :meth:`counters` snapshots
    all counters (the campaign executor ships per-group snapshots from
    workers back to the parent as span fragments) and
    :meth:`reset_counters` zeroes them.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory).expanduser()
        require_directory(self.directory, "trace cache directory")
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantine_count = 0
        self.quarantined_paths: list[Path] = []

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        """File path of one cached trace."""
        return self.directory / f"trace_{key}.npz"

    def quarantine_dir(self) -> Path:
        """Directory corrupt entries are moved to."""
        return self.directory / "quarantine"

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Snapshot of all counters (JSON-ready)."""
        return {
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantine_count,
        }

    def reset_counters(self) -> None:
        """Zero all counters (cached entries are kept)."""
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantine_count = 0
        self.quarantined_paths = []

    @staticmethod
    def counter_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
        """Per-key difference of two :meth:`counters` snapshots."""
        return {name: after[name] - before[name] for name in after}

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, key: str) -> tuple[ActivityTrace, int, float] | None:
        """Load ``(trace, inst_loop_count, predicted_frequency_hz)`` or ``None``.

        The two scalars are the retune outcome of the original
        simulation: :func:`produce_cell_trace` reconstructs the final
        plan from them, so a cache hit returns exactly what
        :func:`~repro.core.savat.simulate_alternation_period` returned.
        """
        entry = self._load_disk(key)
        if entry is None:
            self.misses += 1
            return None
        self.disk_hits += 1
        return entry

    def _load_disk(self, key: str) -> tuple[ActivityTrace, int, float] | None:
        path = self.entry_path(key)
        try:
            data = read_npz(path)
            payload = np.asarray(data["data"], dtype=np.float64)
            clock_hz = float(data["clock_hz"])
            inst_loop_count = int(data["inst_loop_count"])
            predicted_hz = float(data["predicted_frequency_hz"])
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 — any unreadable entry is quarantined
            self.quarantine(key, path)
            return None
        if (
            payload.ndim != 2
            or not np.all(np.isfinite(payload))
            or np.any(payload < 0.0)
            or not (np.isfinite(clock_hz) and clock_hz > 0)
            or inst_loop_count < 1
            or not (np.isfinite(predicted_hz) and predicted_hz > 0)
        ):
            self.quarantine(key, path)
            return None
        try:
            trace = ActivityTrace(data=payload, clock_hz=clock_hz)
        except Exception:  # noqa: BLE001 — wrong component count etc.
            self.quarantine(key, path)
            return None
        return trace, inst_loop_count, predicted_hz

    def quarantine(self, key: str, path: Path) -> Path | None:
        """Move a bad disk entry into the quarantine directory."""
        target = quarantine_entry(self.quarantine_dir(), key, path)
        if target is not None:
            self.quarantine_count += 1
            self.quarantined_paths.append(target)
        return target

    def store(
        self,
        key: str,
        trace: ActivityTrace,
        inst_loop_count: int,
        predicted_frequency_hz: float,
    ) -> None:
        """Persist one trace (atomically)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write(
            self.directory,
            self.entry_path(key),
            lambda handle: np.savez(
                handle,
                data=trace.data,
                clock_hz=np.float64(trace.clock_hz),
                inst_loop_count=np.int64(inst_loop_count),
                predicted_frequency_hz=np.float64(predicted_frequency_hz),
            ),
        )
        self.stores += 1


# ----------------------------------------------------------------------
# The trace-production stage (cache-aware half of simulate_cell)
# ----------------------------------------------------------------------
def produce_cell_trace(
    machine: CalibratedMachine,
    event_a: InstructionEvent,
    event_b: InstructionEvent,
    plan: FrequencyPlan,
    cache: TraceCache | None = None,
) -> tuple[ActivityTrace, FrequencyPlan]:
    """One cell's steady-state period trace, through the cache.

    This is the cacheable stage the campaign executor's
    :func:`~repro.core.executor.simulate_cell` was split around: it
    produces exactly what
    :func:`~repro.core.savat.simulate_alternation_period` returns —
    the measured :class:`~repro.uarch.activity.ActivityTrace` and the
    (possibly re-tuned) plan — but serves repeats from the cache.  A
    hit skips the ``prime`` and ``core_run`` phases entirely; the final
    plan is reconstructed from the cached retune outcome, because
    re-tuning only ever changes ``spec.inst_loop_count`` and
    ``predicted_frequency_hz``.
    """
    from repro.core.savat import simulate_alternation_period

    if cache is None:
        return simulate_alternation_period(machine, plan)

    key = trace_cache_key(machine, event_a, event_b, plan)
    entry = cache.load(key)
    if entry is not None:
        trace, inst_loop_count, predicted_hz = entry
        final_plan = plan
        if (
            inst_loop_count != plan.spec.inst_loop_count
            or predicted_hz != plan.predicted_frequency_hz
        ):
            final_plan = dataclasses.replace(
                plan,
                spec=dataclasses.replace(plan.spec, inst_loop_count=inst_loop_count),
                predicted_frequency_hz=predicted_hz,
            )
        return trace, final_plan

    trace, final_plan = simulate_alternation_period(machine, plan)
    cache.store(
        key,
        trace,
        final_plan.spec.inst_loop_count,
        final_plan.predicted_frequency_hz,
    )
    return trace, final_plan


__all__ = [
    "TRACE_CACHE_SCHEMA_VERSION",
    "TraceCache",
    "produce_cell_trace",
    "trace_cache_key",
]
