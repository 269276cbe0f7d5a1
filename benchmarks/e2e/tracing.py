"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

The traced run patches each layer's public entry point with a wrapper
that records a span ``[layer, start, end, parent, hit]`` in memory and
writes the process's spans to ``<dir>/spans-<pid>.json`` when it ends.
Times come from :func:`time.monotonic`, which is system-wide on Linux,
so spans of the child, its forked pool workers and the benchmark's own
spawn/exit timestamps share one clock.

Pool workers are forked after the wrappers are installed, so they
inherit them; the first span a worker records starts a fresh span list
and registers a ``multiprocessing`` finalizer that writes it on worker
exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path

#: Layer name -> ``(module, attribute path)`` entry points it wraps.  The
#: names are the benchmark's per-layer metric prefixes.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "machines.calibrate": (("repro.machines.calibrated", "calibrate"),),
    "codegen.cpi_probe": (
        ("repro.codegen.frequency", "measure_cycles_per_iteration"),
    ),
    "uarch.prime": (("repro.core.savat", "prime_alternation_steady_state"),),
    "uarch.core_run": (("repro.uarch.core", "Core.run"),),
    "em.project": (("repro.em.coupling", "CouplingMatrix.project_trace"),),
    "em.synthesize": (
        ("repro.core.savat", "synthesize_measurement"),
        ("repro.core.savat", "period_envelope"),
    ),
    "instruments.analyze": (
        ("repro.instruments.spectrum_analyzer", "SpectrumAnalyzer.measure_band"),
        ("repro.instruments.spectrum_analyzer", "SpectrumAnalyzer.measure"),
    ),
    "core.trace_cache.load": (("repro.core.trace_cache", "TraceCache.load"),),
    "core.trace_cache.store": (("repro.core.trace_cache", "TraceCache.store"),),
    "core.result_cache.load": (("repro.core.executor", "ResultCache.load_cell"),),
    "core.result_cache.store": (("repro.core.executor", "ResultCache.store_cell"),),
    "core.executor": (("repro.core.campaign", "execute_campaign"),),
    "core.study": (("repro.core.study", "run_study"),),
    "cli": (("repro.cli", "main"),),
}

#: Cache lookups: the wrapped call returns ``None`` on a miss, so their
#: spans carry a hit flag and the layer reports a hit ratio.
CACHE_LAYERS = {
    "core.trace_cache": "core.trace_cache.load",
    "core.result_cache": "core.result_cache.load",
}

#: The child's ``import repro...`` span; reported as ``import_s``.
IMPORT = "import"


def resolve(module_name: str, attribute: str):
    """``(owner, name, target)`` for an entry point, or ``None`` if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = getattr(owner, name, None)
    if not callable(target):
        return None
    return owner, name, target


class SpanRecorder:
    """In-memory span list of one process, written out when it ends."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished root span measured by the caller."""
        self.spans.append([name, start, end, -1, None])

    def wrap(self, layer: str, target, probe: bool):
        @functools.wraps(target)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._forked()
            parent = self.stack[-1] if self.stack else -1
            span = [layer, time.monotonic(), None, parent, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = target(*args, **kwargs)
                if probe:
                    span[4] = result is not None
                return result
            finally:
                span[2] = time.monotonic()
                self.stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every resolvable entry point; list the rest in ``absent``."""
        for layer, targets in LAYERS.items():
            probe = layer in CACHE_LAYERS.values()
            for module_name, attribute in targets:
                found = resolve(module_name, attribute)
                if found is None:
                    self.absent.append(f"{module_name}:{attribute}")
                    continue
                owner, name, target = found
                setattr(owner, name, self.wrap(layer, target, probe))

    def _forked(self) -> None:
        # A forked worker inherits the parent's spans and open stack;
        # neither is its own.  multiprocessing clears inherited
        # finalizers before the worker runs, so registering here sticks.
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        mp_util.Finalize(None, self.write, exitpriority=100)

    def write(self) -> None:
        payload = {"pid": self.pid, "spans": self.spans, "absent": self.absent}
        path = self.directory / f"spans-{self.pid}.json"
        path.write_text(json.dumps(payload))


def load_spans(directory: str | os.PathLike) -> tuple[dict[int, list], list[str]]:
    """Spans by pid, plus the absent entry points, from a spans directory."""
    spans: dict[int, list] = {}
    absent: set[str] = set()
    for path in sorted(Path(directory).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        spans[int(payload["pid"])] = payload["spans"]
        absent.update(payload["absent"])
    return spans, sorted(absent)


def _self_times(spans: list) -> tuple[list[float], bool]:
    """Each span's duration minus its children's, and whether they nest."""
    self_times = [end - start for _name, start, end, _parent, _hit in spans]
    nested = all(own >= 0 for own in self_times)
    last_child_end: dict[int, float] = {}
    for _name, start, end, parent, _hit in spans:
        if parent < 0:
            continue
        _pname, pstart, pend, _pp, _ph = spans[parent]
        # Children of one parent run one after another, inside it.
        if start < pstart or end > pend or start < last_child_end.get(parent, pstart):
            nested = False
        last_child_end[parent] = end
        self_times[parent] -= end - start
    return self_times, nested


def analyze(
    spans_by_pid: dict[int, list],
    main_pid: int,
    wall_s: float,
    workers: int,
) -> dict:
    """Per-layer metrics of one traced invocation.

    ``<layer>.self_s`` sums self time over every process (pool workers
    run concurrently, so pooled layers can add up to more than wall
    time).  ``untraced_s`` and the sum check use the child process
    only: its self times plus ``untraced_s`` must equal ``wall_s``.
    """
    self_s = {layer: 0.0 for layer in (IMPORT, *LAYERS)}
    calls = dict.fromkeys(self_s, 0)
    hits = dict.fromkeys(CACHE_LAYERS.values(), 0)
    nesting_ok = True
    main_self = 0.0
    main_covered = 0.0
    executor_wall = 0.0
    busy = 0.0
    for pid, spans in spans_by_pid.items():
        times, nested = _self_times(spans)
        nesting_ok = nesting_ok and nested
        for (name, start, end, parent, hit), own in zip(spans, times):
            self_s[name] += own
            calls[name] += 1
            if hit:
                hits[name] += 1
            if pid == main_pid:
                main_self += own
                main_covered += (end - start) if parent < 0 else 0.0
                if name == "core.executor":
                    executor_wall += end - start
            elif parent < 0:
                busy += end - start
    untraced = wall_s - main_covered
    metrics: dict[str, float] = {"import_s": self_s[IMPORT], "untraced_s": untraced}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    for prefix, layer in CACHE_LAYERS.items():
        metrics[f"{prefix}.hit_ratio"] = hits[layer] / calls[layer] if calls[layer] else 0.0
    metrics["pool.busy_s"] = busy
    metrics["pool.utilization"] = (
        busy / (workers * executor_wall) if workers > 1 and executor_wall > 0 else 0.0
    )
    layers = [
        {"layer": name, "self_s": own, "calls": calls[name], "share": own / wall_s}
        for name, own in self_s.items()
    ]
    layers.append({"layer": "untraced", "self_s": untraced, "calls": 0, "share": untraced / wall_s})
    return {
        "metrics": metrics,
        "layers": layers,
        "nesting_ok": nesting_ok and untraced >= 0,
        "sum_error": abs(main_self + untraced - wall_s) / wall_s,
    }
