"""Validate observability outputs: JSONL traces and Prometheus metrics.

This is the tiny checker behind the CI observability smoke step and the
golden tests, runnable standalone::

    python -m repro.obs.check --trace t.jsonl --metrics m.prom \\
        --matrix campaign.json

It performs these checks and exits non-zero when any fails:

1. the trace file is schema-valid (header first, known version, every
   span closed, cell identities unique per attempt, monotone
   timestamps) — see :func:`repro.obs.trace.validate_trace`;
2. the metrics file parses as Prometheus text exposition format (every
   non-comment line is ``name{labels} value`` with a finite value);
3. when a campaign JSON (``savat campaign --format json``) is given,
   the registry counters in the metrics file equal the matrix's
   ``metadata["execution"]`` values exactly — the metadata is generated
   *from* the registry, so any mismatch means the two views diverged —
   and every cell is accounted for: a cell is either a cache hit or
   simulated (a quarantined entry counts as a miss, then is simulated),
   so ``cache_hits + cells_simulated`` equals the campaign's cell count.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from repro.obs.trace import validate_trace_file

#: ``name{labels} value`` — one Prometheus text-format sample line.
_SAMPLE_PATTERN = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)

_LABEL_PATTERN = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)

#: metadata["execution"] counters and the registry counter behind each.
EXECUTION_COUNTERS = {
    "cache_hits": "savat_cache_hits_total",
    "cache_misses": "savat_cache_misses_total",
    "cells_simulated": "savat_cells_simulated_total",
    "retries": "savat_cell_retries_total",
    "timeouts": "savat_cell_timeouts_total",
    "quarantined": "savat_cache_quarantined_total",
}

#: metadata["execution"] scalars backed by registry gauges.
EXECUTION_GAUGES = {
    "workers": "savat_workers",
    "wall_seconds": "savat_wall_seconds",
}

#: execution["trace_cache"] entries and the (metric, labels) behind each.
TRACE_CACHE_COUNTERS = {
    "disk_hits": ("savat_trace_cache_hits_total", (("tier", "disk"),)),
    "misses": ("savat_trace_cache_misses_total", ()),
    "stores": ("savat_trace_cache_stores_total", ()),
    "quarantined": ("savat_trace_cache_quarantined_total", ()),
}

def parse_prometheus(text: str) -> tuple[dict, list[str]]:
    """Parse Prometheus text format into ``{(name, labels): value}``.

    Returns the samples (labels as a frozenset of ``(name, value)``
    pairs) and a list of parse errors; an empty error list means every
    non-comment line was a well-formed sample with a finite value.
    """
    samples: dict = {}
    errors: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_PATTERN.match(line)
        if match is None:
            errors.append(f"line {number}: not a sample line: {line!r}")
            continue
        labels = frozenset(
            (m.group("name"), m.group("value"))
            for m in _LABEL_PATTERN.finditer(match.group("labels") or "")
        )
        raw = match.group("value")
        try:
            value = float(raw)
        except ValueError:
            errors.append(f"line {number}: unparseable value {raw!r}")
            continue
        if not math.isfinite(value):
            errors.append(f"line {number}: non-finite value {raw!r}")
            continue
        samples[(match.group("name"), labels)] = value
    if not samples and not errors:
        errors.append("metrics file contains no samples")
    return samples, errors


def check_against_execution(samples: dict, execution: dict) -> list[str]:
    """Compare registry samples with a matrix's execution metadata.

    Every counter and gauge the metadata exposes must appear in the
    metrics file with exactly the same value (the metadata is generated
    from the registry, so equality is exact, not approximate), the
    per-kind fault counters must match both ways, and every per-cell
    timing must round-trip.
    """
    errors: list[str] = []

    def expect(name: str, labels: frozenset, expected: float, what: str) -> None:
        actual = samples.get((name, labels))
        if actual is None:
            errors.append(f"{what}: metric {name} {dict(labels)} is missing")
        elif actual != float(expected):
            errors.append(
                f"{what}: metric {name} {dict(labels)} is {actual!r}, "
                f"execution metadata says {expected!r}"
            )

    for key, metric in EXECUTION_COUNTERS.items():
        expect(metric, frozenset(), execution[key], key)
    for key, metric in EXECUTION_GAUGES.items():
        expect(metric, frozenset(), execution[key], key)
    # Nested trace-cache counters (absent in matrices from releases that
    # predate the trace cache; skipped rather than failed there).
    trace_cache = execution.get("trace_cache")
    if trace_cache is not None:
        for key, (metric, labels) in TRACE_CACHE_COUNTERS.items():
            if key not in trace_cache:
                # Counters added after the matrix was written are
                # skipped, not failed.
                continue
            expect(
                metric,
                frozenset(labels),
                trace_cache[key],
                f"trace_cache[{key}]",
            )
    faults = execution.get("faults_injected") or {}
    for kind, count in faults.items():
        expect(
            "savat_faults_injected_total",
            frozenset({("kind", kind)}),
            count,
            f"faults_injected[{kind}]",
        )
    recorded_kinds = {
        dict(labels).get("kind")
        for (name, labels) in samples
        if name == "savat_faults_injected_total"
    }
    for kind in recorded_kinds - set(faults):
        errors.append(
            f"metric savat_faults_injected_total has kind {kind!r} absent "
            "from execution metadata"
        )
    for pair, seconds in (execution.get("cell_seconds") or {}).items():
        expect(
            "savat_cell_seconds",
            frozenset({("pair", pair)}),
            seconds,
            f"cell_seconds[{pair}]",
        )
    return errors


def check_cell_accounting(execution: dict, events: list) -> list[str]:
    """One line if the hits and simulations do not cover every cell.

    A cell has two sources, a result-cache hit or a simulation, so an
    ``N``-event campaign's ``cache_hits + cells_simulated`` is ``N**2``.
    """
    hits, simulated = execution["cache_hits"], execution["cells_simulated"]
    cells = len(events) ** 2
    if hits + simulated == cells:
        return []
    return [
        f"cell accounting: {hits} cache hit(s) + {simulated} simulated = "
        f"{hits + simulated}, but a {len(events)}x{len(events)} campaign "
        f"has {cells} cells"
    ]


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.obs.check``; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.check",
        description="validate savat trace/metrics observability outputs",
    )
    parser.add_argument("--trace", metavar="FILE", help="JSONL trace to validate")
    parser.add_argument(
        "--metrics", metavar="FILE", help="Prometheus text metrics to validate"
    )
    parser.add_argument(
        "--matrix",
        metavar="FILE",
        help="campaign JSON (savat campaign --format json) to cross-check "
        "metrics counters against",
    )
    args = parser.parse_args(argv)
    if not args.trace and not args.metrics:
        parser.error("nothing to check: pass --trace and/or --metrics")

    failures: list[str] = []
    if args.trace:
        errors = validate_trace_file(args.trace)
        failures.extend(f"trace: {error}" for error in errors)
        print(f"trace {args.trace}: {'OK' if not errors else 'INVALID'}")
    samples: dict = {}
    if args.metrics:
        text = Path(args.metrics).read_text()
        samples, errors = parse_prometheus(text)
        failures.extend(f"metrics: {error}" for error in errors)
        print(
            f"metrics {args.metrics}: {len(samples)} sample(s), "
            f"{'OK' if not errors else 'INVALID'}"
        )
    if args.matrix:
        if not args.metrics:
            parser.error("--matrix requires --metrics to compare against")
        payload = json.loads(Path(args.matrix).read_text())
        execution = (payload.get("metadata") or {}).get("execution")
        if execution is None:
            failures.append(f"matrix: {args.matrix} has no execution metadata")
        else:
            errors = check_against_execution(samples, execution)
            errors += check_cell_accounting(execution, payload["events"])
            failures.extend(f"consistency: {error}" for error in errors)
            print(
                f"metrics vs {args.matrix}: "
                f"{'CONSISTENT' if not errors else 'MISMATCH'}"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "EXECUTION_COUNTERS",
    "EXECUTION_GAUGES",
    "TRACE_CACHE_COUNTERS",
    "check_against_execution",
    "check_cell_accounting",
    "main",
    "parse_prometheus",
]
