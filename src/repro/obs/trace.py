"""Structured run tracing: versioned JSONL span/event records.

A campaign trace is an append-only JSONL file telling the full story of
one execution: a header binding the trace to the campaign (schema
version plus the campaign's content-hash key), ``event`` records for
point-in-time occurrences (campaign start/end, the calibration fit when
the execution makes it, cache hits and misses, quarantines, retries,
timeouts, fault injections), and
``span_start`` / ``span_end`` pairs for every simulation *attempt*,
identified by the cell's ``(i, j, attempt)`` triple.

Timestamps come from a monotonic clock (``time.monotonic``), so spans
can be subtracted without worrying about wall-clock steps; records are
written strictly in timestamp order by the parent process only.  Worker
processes never write to the trace — they return their span fragments
(worker pid, per-phase seconds, worker-side elapsed time) together with
the cell result, and the parent merges the fragment into the cell's
``span_end`` record.  That keeps the file safe under the process pool
without any cross-process locking.

:func:`validate_trace` is the schema checker used by the golden tests
and by ``python -m repro.obs.check``: header first, known version,
monotone timestamps, every span closed exactly once, and span
identities unique per attempt.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Callable, Iterable
from pathlib import Path

#: Bump whenever the trace record format changes; the validator rejects
#: traces written by another version instead of reinterpreting them.
TRACE_SCHEMA_VERSION = 1

#: Record kinds a trace may contain.
RECORD_KINDS = ("header", "event", "span_start", "span_end")


class TraceWriter:
    """Streams versioned JSONL trace records to a file.

    The writer is opened by :meth:`start` (which emits the header) and
    closed idempotently by :meth:`close`.  Records are flushed per line,
    so a killed campaign leaves at worst one torn trailing line; the
    validator treats any torn line as an error, which is the correct
    verdict for a trace that claims to describe a completed run.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path).expanduser()
        self.clock = clock
        self._handle = None

    # ------------------------------------------------------------------
    def start(self, **header_fields) -> None:
        """Open the file and write the version-stamped header record."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write(
            {
                "kind": "header",
                "trace_schema_version": TRACE_SCHEMA_VERSION,
                **header_fields,
            }
        )

    def event(self, name: str, **fields) -> None:
        """Record a point-in-time occurrence."""
        self._write({"kind": "event", "name": name, "ts": self.clock(), **fields})

    def span_start(self, name: str, **identity) -> None:
        """Open a span (e.g. one cell simulation attempt)."""
        self._write(
            {"kind": "span_start", "name": name, "ts": self.clock(), **identity}
        )

    def span_end(self, name: str, status: str = "ok", **fields) -> None:
        """Close a span, recording its outcome status."""
        self._write(
            {
                "kind": "span_end",
                "name": name,
                "ts": self.clock(),
                "status": status,
                **fields,
            }
        )

    def _write(self, record: dict) -> None:
        if self._handle is None:
            raise ValueError("trace writer is not open (call start() first)")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    @property
    def is_open(self) -> bool:
        """Whether :meth:`start` has been called and the file is open."""
        return self._handle is not None

    def close(self) -> None:
        """Close the trace file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_trace(path: str | os.PathLike) -> list[dict]:
    """Parse every line of a JSONL trace file.

    Raises ``ValueError`` naming the line number on unparseable input —
    a trace handed to the validator must be complete and well-formed.
    """
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}: line {number} is not valid JSON: {error}"
                ) from error
    return records


def _span_key(record: dict) -> tuple:
    identity = tuple(
        (field, record[field])
        for field in ("i", "j", "attempt")
        if field in record
    )
    return (record.get("name"), identity)


def _calibrate_problems(record: dict) -> list[str]:
    """What a ``calibrate`` event lacks: machine, distance, seconds."""
    problems = []
    if not isinstance(record.get("machine"), str):
        problems.append("names no machine")
    if not isinstance(record.get("distance_m"), (int, float)):
        problems.append("has no numeric distance_m")
    seconds = record.get("seconds")
    if not isinstance(seconds, (int, float)) or not 0 <= seconds < math.inf:
        problems.append(f"has seconds {seconds!r}, not a finite duration")
    return problems


def validate_trace(records: Iterable[dict]) -> list[str]:
    """Schema-check a trace; returns a list of problems (empty = valid).

    Checks, in order: a single leading header with a known schema
    version; every record carrying a known ``kind`` and (except the
    header) a numeric, non-decreasing ``ts``; every ``calibrate`` event
    naming its machine and distance and carrying finite, non-negative
    ``seconds``; every ``span_start``
    carrying a unique ``(name, i, j, attempt)`` identity; every span
    closed by exactly one matching ``span_end`` and no end without a
    start; and a terminal ``campaign_end`` event, which a cleanly
    finished run always writes (even after a fatal cell failure).
    """
    errors: list[str] = []
    records = list(records)
    if not records:
        return ["trace is empty"]
    header = records[0]
    if header.get("kind") != "header":
        errors.append("first record is not a header")
    elif header.get("trace_schema_version") != TRACE_SCHEMA_VERSION:
        errors.append(
            f"unknown trace schema version "
            f"{header.get('trace_schema_version')!r} "
            f"(this validator understands {TRACE_SCHEMA_VERSION})"
        )
    open_spans: dict[tuple, int] = {}
    seen_spans: set[tuple] = set()
    last_ts: float | None = None
    for number, record in enumerate(records[1:], start=2):
        kind = record.get("kind")
        if kind not in RECORD_KINDS:
            errors.append(f"record {number}: unknown kind {kind!r}")
            continue
        if kind == "header":
            errors.append(f"record {number}: duplicate header")
            continue
        ts = record.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"record {number}: missing numeric ts")
        else:
            if last_ts is not None and ts < last_ts:
                errors.append(
                    f"record {number}: timestamp {ts} decreases "
                    f"(previous {last_ts})"
                )
            last_ts = ts
        if not record.get("name"):
            errors.append(f"record {number}: missing name")
            continue
        if kind == "event" and record["name"] == "calibrate":
            errors.extend(
                f"record {number}: calibrate event {problem}"
                for problem in _calibrate_problems(record)
            )
        if kind == "span_start":
            key = _span_key(record)
            if key in seen_spans:
                errors.append(
                    f"record {number}: duplicate span identity {key}"
                )
            seen_spans.add(key)
            open_spans[key] = number
        elif kind == "span_end":
            key = _span_key(record)
            if key not in open_spans:
                errors.append(
                    f"record {number}: span_end without span_start {key}"
                )
            else:
                del open_spans[key]
    for key, number in open_spans.items():
        errors.append(f"span opened at record {number} never closed: {key}")
    tail = records[-1]
    if not (tail.get("kind") == "event" and tail.get("name") == "campaign_end"):
        errors.append("trace does not finish with a campaign_end event")
    return errors


def validate_trace_file(path: str | os.PathLike) -> list[str]:
    """Read and :func:`validate_trace` a JSONL trace file."""
    try:
        records = read_trace(path)
    except (OSError, ValueError) as error:
        return [str(error)]
    return validate_trace(records)


__all__ = [
    "RECORD_KINDS",
    "TRACE_SCHEMA_VERSION",
    "TraceWriter",
    "read_trace",
    "validate_trace",
    "validate_trace_file",
]
