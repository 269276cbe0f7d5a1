"""Observability for campaign execution: metrics, tracing, progress.

This package is the campaign executor's instrumentation layer.  It
replaces the ad-hoc counters that used to live as loose integers on
``CampaignStats`` and the post-hoc-only CLI summary with three
composable pieces.  Per-phase timing is the exception: it still flows
through the module-global sink behind
:func:`repro.core.savat.record_phase_seconds`, which the executor reads
back into the ``phase``-labeled metrics below.

The pieces:

* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges,
  and histograms with labels, exported as Prometheus text
  (``--metrics-out``) or a JSON snapshot; ``matrix.metadata["execution"]``
  is generated *from* this registry, so the existing metadata shape is
  a view over the metrics, not a parallel bookkeeping system.
* :class:`~repro.obs.trace.TraceWriter` — versioned JSONL span/event
  records (``--trace``) with monotonic timestamps and per-attempt cell
  identities; workers return span fragments with their results and the
  parent merges and writes, so the file is pool-safe by construction.
* :class:`~repro.obs.progress.ProgressReporter` — a live status line
  (done/total, EWMA ETA, retry/timeout tickers) refreshed on every cell
  completion (``--progress``).

:class:`CampaignObservability` bundles the three behind the hook
methods the executor calls (``campaign_start``, ``cell_start``,
``cell_end``, ``cache_hit``, ``fault_injected``, ...), so execution
code states *what happened* once and every backend renders it its own
way.  A default instance (registry only, no trace/progress/file
output) costs a few dict operations per cell and is always installed,
which is what keeps the metadata and the metrics structurally
identical.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TextIO

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.trace import TRACE_SCHEMA_VERSION, TraceWriter, validate_trace


class CampaignObservability:
    """Bundles metrics, tracing, and progress behind executor hooks.

    Parameters
    ----------
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` to record into;
        a fresh one is created when omitted.
    trace:
        Trace destination: a path (a :class:`TraceWriter` is created)
        or a pre-built writer.  ``None`` disables tracing.
    metrics_out:
        Path to write the registry's Prometheus text to when the
        campaign ends (written even after a fatal cell failure, so a
        crashed run still leaves its counters behind).
    progress:
        ``True``/``False`` force the live progress line on/off; ``None``
        auto-detects (render only on a terminal).
    progress_stream:
        Stream the progress line writes to (default ``stderr``).
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        trace: TraceWriter | str | os.PathLike | None = None,
        metrics_out: str | os.PathLike | None = None,
        progress: bool | None = False,
        progress_stream: TextIO | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if trace is not None and not isinstance(trace, TraceWriter):
            trace = TraceWriter(trace)
        self.trace = trace
        self.metrics_out = Path(metrics_out) if metrics_out is not None else None
        self.progress_setting = progress
        self.progress_stream = progress_stream
        self.progress: ProgressReporter | None = None
        self._ended = False

    # ------------------------------------------------------------------
    # Campaign lifecycle
    # ------------------------------------------------------------------
    def campaign_start(self, total_cells: int, **header_fields) -> None:
        """Open the trace and progress line for one campaign execution."""
        self._ended = False
        if self.trace is not None:
            self.trace.start(total_cells=total_cells, **header_fields)
            self.trace.event("campaign_start", total_cells=total_cells)
        if self.progress_setting is not False:
            self.progress = ProgressReporter(
                total_cells,
                stream=self.progress_stream,
                enabled=self.progress_setting,
            )

    def campaign_end(
        self, status: str = "ok", wall_seconds: float = 0.0, workers: int = 1
    ) -> None:
        """Close the trace/progress and write the metrics file (idempotent).

        ``workers`` is the number of worker processes cells ran on (1
        for an in-process run), known only once cache hits are resolved.
        """
        if self._ended:
            return
        self._ended = True
        if self.progress is not None:
            self.progress.close()
        if self.trace is not None and self.trace.is_open:
            self.trace.event(
                "campaign_end",
                status=status,
                wall_seconds=float(wall_seconds),
                workers=int(workers),
            )
            self.trace.close()
        if self.metrics_out is not None:
            self.metrics_out.parent.mkdir(parents=True, exist_ok=True)
            self.metrics_out.write_text(self.metrics.to_prometheus())

    def calibrated(self, machine: str, distance_m: float, seconds: float) -> None:
        """The execution fitted its machine's calibration (a cold cell
        needed it and no earlier fit in this process could serve it)."""
        if self.trace is not None:
            self.trace.event(
                "calibrate",
                machine=machine,
                distance_m=float(distance_m),
                seconds=float(seconds),
            )

    # ------------------------------------------------------------------
    # Cell lifecycle (one span per simulation attempt)
    # ------------------------------------------------------------------
    def cell_start(self, i: int, j: int, attempt: int, pair: str) -> None:
        """A simulation attempt was dispatched (serial or to a worker)."""
        if self.trace is not None:
            self.trace.span_start("cell", i=i, j=j, attempt=attempt, pair=pair)

    def cell_end(
        self,
        i: int,
        j: int,
        attempt: int,
        status: str,
        elapsed_s: float | None = None,
        fragment: dict | None = None,
        error: str | None = None,
    ) -> None:
        """A simulation attempt finished (ok / error / timeout / failed).

        ``fragment`` is the worker-returned span fragment (worker pid,
        worker-side elapsed time, per-phase seconds) merged into the
        record by the parent.
        """
        if self.trace is not None:
            fields: dict = {"i": i, "j": j, "attempt": attempt}
            if elapsed_s is not None:
                fields["elapsed_s"] = float(elapsed_s)
            if fragment:
                fields["fragment"] = fragment
            if error is not None:
                fields["error"] = error
            self.trace.span_end("cell", status=status, **fields)

    def cell_completed(self, pair: str, elapsed_s: float, done: int, total: int) -> None:
        """A cell reached its final state (simulated, cached, or resumed)."""
        if self.progress is not None:
            self.progress.cell_completed(pair, elapsed_s)

    def cell_retry(self, i: int, j: int, next_attempt: int, reason: str) -> None:
        """A failed or timed-out attempt was re-queued."""
        if self.trace is not None:
            self.trace.event(
                "cell_retry", i=i, j=j, attempt=next_attempt, reason=reason
            )
        if self.progress is not None:
            self.progress.note_retry()

    def cell_timeout(self, i: int, j: int, attempt: int, budget_s: float) -> None:
        """An attempt exceeded the per-cell wall-clock budget."""
        if self.trace is not None:
            self.trace.event(
                "cell_timeout", i=i, j=j, attempt=attempt, budget_s=float(budget_s)
            )
        if self.progress is not None:
            self.progress.note_timeout()

    # ------------------------------------------------------------------
    # Cache, journal, and fault events
    # ------------------------------------------------------------------
    def cache_hit(self, i: int, j: int) -> None:
        """A cell was served from the on-disk result cache."""
        if self.trace is not None:
            self.trace.event("cache_hit", i=i, j=j)

    def cache_miss(self, i: int, j: int) -> None:
        """A cell was absent from (or unusable in) the result cache."""
        if self.trace is not None:
            self.trace.event("cache_miss", i=i, j=j)

    def cache_quarantine(self, i: int, j: int) -> None:
        """A corrupt cache entry was moved to the quarantine directory."""
        if self.trace is not None:
            self.trace.event("cache_quarantine", i=i, j=j)

    def trace_cache(self, i: int, j: int, delta: dict) -> None:
        """One cell's kernel-trace-cache counter delta (hits, misses,
        stores, quarantines — see
        :meth:`repro.core.trace_cache.TraceCache.counters`).  Emitted
        only when the cell touched the trace cache at all."""
        if self.trace is not None and any(delta.values()):
            self.trace.event(
                "trace_cache",
                i=i,
                j=j,
                **{name: int(value) for name, value in delta.items()},
            )

    def journal_resume(self, i: int, j: int) -> None:
        """A completed cell was restored from the campaign journal."""
        if self.trace is not None:
            self.trace.event("journal_resume", i=i, j=j)

    def fault_injected(
        self,
        fault_kind: str,
        i: int,
        j: int,
        attempt: int | None = None,
        **fields,
    ) -> None:
        """An injected fault fired (testing/debugging campaigns only).

        Call as ``fault_injected(attempt=n, **fault.trace_fields())`` —
        :meth:`repro.core.faults.CellFault.trace_fields` supplies the
        ``fault_kind``/``i``/``j`` identity plus kind-specific extras
        (e.g. the hang duration).
        """
        if self.trace is not None:
            record: dict = {"fault_kind": fault_kind, "i": i, "j": j, **fields}
            if attempt is not None:
                record["attempt"] = attempt
            self.trace.event("fault_injected", **record)


__all__ = [
    "TRACE_SCHEMA_VERSION",
    "CampaignObservability",
    "MetricsRegistry",
    "ProgressReporter",
    "TraceWriter",
    "validate_trace",
]
