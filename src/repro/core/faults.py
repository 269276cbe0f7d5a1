"""Deterministic fault injection for campaign executions.

A long measurement campaign — the paper's 11x11 pairs x 10 repetitions
x 3 machines x 3 distances — has to survive the failure modes any
unattended fan-out eventually meets: a worker that dies with an
exception, a worker that hangs past any reasonable budget, and an
on-disk cache entry that a killed process left corrupted.  Testing that
the executor really recovers from all three requires *causing* all
three on demand, reproducibly, at chosen cells.

That is what a :class:`FaultPlan` does.  It is a declarative list of
:class:`CellFault` entries — *raise at cell (0, 1)*, *hang 2 s at cell
(1, 2)*, *corrupt the cache entry of cell (2, 0)* — that the executor
consults at well-defined points:

* ``raise`` and ``hang`` faults fire inside the worker (or the serial
  loop) just before the cell simulates, on attempts ``0 .. count-1``;
  because the executor re-seeds a retried cell from its original
  seed-schedule entry, a campaign with N transient faults is still
  bit-identical to a fault-free run.
* ``corrupt`` faults overwrite the cell's on-disk cache entry with
  garbage just before the executor tries to load it, exercising the
  quarantine-and-recompute path.

Plans are constructed programmatically (the test suites) or parsed from
a compact spec string (the ``savat campaign --inject-faults`` debug
flag, whose default is ``$SAVAT_INJECT_FAULTS``)::

    raise@0,1;hang@1,2:2.5;corrupt@2,0;raise@3,3x2

``kind@i,j`` names the cell, an optional ``:seconds`` sets the hang
duration, and an optional ``xN`` makes the fault fire on the first N
attempts instead of just the first.
"""

from __future__ import annotations

import re
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import ConfigurationError, ReproError

#: Fault kinds a plan may contain.
FAULT_KINDS = ("raise", "hang", "corrupt")

#: Hang duration used when a ``hang`` fault omits ``:seconds``.
DEFAULT_HANG_SECONDS = 30.0

#: Bytes written over a cache entry by a ``corrupt`` fault.  Not a valid
#: ``.npz`` payload, so the loader must quarantine it.
CORRUPT_PAYLOAD = b"savat-fault-injection: deliberately corrupted entry\n"

_SPEC_PATTERN = re.compile(
    r"^(?P<kind>[a-z]+)@(?P<i>\d+),(?P<j>\d+)"
    r"(?::(?P<seconds>\d+(?:\.\d+)?))?"
    r"(?:x(?P<count>\d+))?$"
)


class FaultInjectedError(ReproError):
    """Raised by an injected ``raise`` fault.

    A deliberately transient error: the executor's retry loop treats it
    like any other worker exception, so an injected raise with
    ``count <= max_retries`` is absorbed and the campaign completes.
    """


@dataclass(frozen=True)
class CellFault:
    """One injected fault at one campaign cell.

    Attributes
    ----------
    kind:
        ``"raise"``, ``"hang"``, or ``"corrupt"``.
    i / j:
        The target cell's row and column in the campaign matrix.
    count:
        How many consecutive attempts the fault fires on (``raise`` and
        ``hang`` faults; a ``corrupt`` fault fires once per execution).
    seconds:
        Sleep duration for ``hang`` faults; ignored otherwise.
    """

    kind: str
    i: int
    j: int
    count: int = 1
    seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.i < 0 or self.j < 0:
            raise ConfigurationError(
                f"fault cell ({self.i}, {self.j}) must be non-negative"
            )
        if self.count < 1:
            raise ConfigurationError("fault count must be at least 1")
        if self.seconds < 0:
            raise ConfigurationError("hang seconds must be non-negative")

    def fires_on(self, attempt: int) -> bool:
        """Whether this fault fires on the given zero-based attempt."""
        return attempt < self.count

    def to_spec(self) -> str:
        """The compact one-fault spec (inverse of the parser)."""
        spec = f"{self.kind}@{self.i},{self.j}"
        if self.kind == "hang" and self.seconds != DEFAULT_HANG_SECONDS:
            spec += f":{self.seconds:g}"
        if self.count != 1:
            spec += f"x{self.count}"
        return spec

    def trace_fields(self) -> dict:
        """The fault's identity as flat trace-record fields.

        Returned as ``{"fault_kind": ..., "i": ..., "j": ...}`` plus
        ``"seconds"`` for hang faults, matching the field names the
        observability layer writes into ``fault_injected`` trace events
        (see :meth:`repro.obs.CampaignObservability.fault_injected`).
        """
        fields: dict = {"fault_kind": self.kind, "i": self.i, "j": self.j}
        if self.kind == "hang":
            fields["seconds"] = self.seconds
        return fields

    def apply(self) -> None:
        """Fire a worker-side fault: raise or sleep.

        ``corrupt`` faults are applied by the executor at cache-load
        time, not by workers, so applying one here is a logic error.
        """
        if self.kind == "raise":
            raise FaultInjectedError(
                f"injected worker exception at cell ({self.i}, {self.j})"
            )
        if self.kind == "hang":
            time.sleep(self.seconds)
            return
        raise ConfigurationError(
            f"{self.kind!r} faults are applied by the executor, not workers"
        )


class FaultPlan:
    """A deterministic schedule of faults to inject into one campaign.

    The plan is consulted by cell and attempt, so it is a pure function
    of its spec: the same plan against the same campaign injects the
    same faults in the same places, every run.
    """

    def __init__(self, faults: Iterable[CellFault] = ()) -> None:
        self.faults: tuple[CellFault, ...] = tuple(faults)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``;``-separated fault spec string.

        Each entry is ``kind@i,j``, optionally ``:seconds`` (hang
        duration) and/or ``xN`` (fire on the first N attempts)::

            FaultPlan.from_spec("raise@0,1;hang@1,2:2.5;corrupt@2,0x1")
        """
        faults: list[CellFault] = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            match = _SPEC_PATTERN.match(entry)
            if match is None:
                raise ConfigurationError(
                    f"malformed fault spec entry {entry!r}; expected "
                    "kind@i,j[:seconds][xN] with kind one of "
                    f"{'/'.join(FAULT_KINDS)}"
                )
            kind = match.group("kind")
            seconds = match.group("seconds")
            if seconds is not None and kind != "hang":
                raise ConfigurationError(
                    f"fault spec entry {entry!r}: only hang faults take "
                    "a :seconds duration"
                )
            faults.append(
                CellFault(
                    kind=kind,
                    i=int(match.group("i")),
                    j=int(match.group("j")),
                    seconds=(
                        float(seconds) if seconds is not None
                        else DEFAULT_HANG_SECONDS
                    ),
                    count=int(match.group("count") or 1),
                )
            )
        return cls(faults)

    def to_spec(self) -> str:
        """The compact spec string (round-trips through the parser)."""
        return ";".join(fault.to_spec() for fault in self.faults)

    # ------------------------------------------------------------------
    # Lookup (used by the executor)
    # ------------------------------------------------------------------
    def worker_fault(self, i: int, j: int, attempt: int) -> CellFault | None:
        """The raise/hang fault firing at cell ``(i, j)`` on ``attempt``."""
        for fault in self.faults:
            if (
                fault.kind in ("raise", "hang")
                and fault.i == i
                and fault.j == j
                and fault.fires_on(attempt)
            ):
                return fault
        return None

    def corrupt_fault(self, i: int, j: int) -> CellFault | None:
        """The cache-corruption fault targeting cell ``(i, j)``, if any."""
        for fault in self.faults:
            if fault.kind == "corrupt" and fault.i == i and fault.j == j:
                return fault
        return None

    def counts_by_kind(self) -> dict[str, int]:
        """Number of planned faults per kind (not per attempt)."""
        counts = {kind: 0 for kind in FAULT_KINDS}
        for fault in self.faults:
            counts[fault.kind] += 1
        return {kind: count for kind, count in counts.items() if count}

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[CellFault]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_spec()!r})"


__all__ = [
    "CORRUPT_PAYLOAD",
    "DEFAULT_HANG_SECONDS",
    "FAULT_KINDS",
    "CellFault",
    "FaultInjectedError",
    "FaultPlan",
]
