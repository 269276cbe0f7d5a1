"""Per-cycle, per-component switching-activity traces.

The simulator does not model voltages or currents directly; it records an
abstract *switching activity* quantity for each component on each cycle
(roughly "how many wire/transistor toggles happened here").  The EM
model later projects these traces through per-component coupling
coefficients to obtain the signal at the attacker's antenna.

Recording is two-phase for speed: the core appends lightweight
``(component, start_cycle, duration, amount_per_cycle)`` events to an
:class:`ActivityRecorder` during simulation, and :meth:`ActivityRecorder.finish`
materializes a dense ``[num_components, num_cycles]`` array at the end.
:meth:`repro.uarch.core.Core.run` defers that step until its result's
``trace`` is first read, so runs judged only by their cycle count (the
measurement's warm-up period, CPI probes, discarded frequency retunes)
never materialize at all.  Two refinements keep the hot measurement
path off the Python interpreter:

* Batched loop replay deposits whole *blocks* of events at once — an
  :class:`ActivityBlock` captured from one loop segment is replayed at
  every iteration's base cycle via :meth:`ActivityRecorder.add_block_batch`,
  storing the base cycles instead of re-appending every event.
* :meth:`ActivityRecorder.finish` materializes in two unbuffered
  ``np.add.at`` passes with no per-event Python loop: the duration-1
  majority sorted by amount, then the longer events (divider
  occupancy, L2 windows, mispredict flushes) sorted by (start cell,
  length, amount) and expanded to one entry per covered cycle with
  ``np.repeat``.  Each cell therefore sums its events in an order that
  depends only on the event *multiset*, so two runs that record the same
  events — e.g. the reference interpreter and the block-replay fast
  path — materialize bit-identical traces.  (A difference-array/cumsum
  pass for the long events was rejected: cumsum leaves ~1-ulp residues
  on cycles that should be exactly zero.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.uarch.components import (
    COMPONENT_INDEX,
    COMPONENT_ORDER,
    Component,
    NUM_COMPONENTS,
)


@dataclass
class ActivityTrace:
    """Dense activity history: ``data[c, t]`` is component ``c``'s
    switching activity during cycle ``t``.

    Attributes
    ----------
    data:
        Array of shape ``(NUM_COMPONENTS, num_cycles)``, float64.
    clock_hz:
        Clock frequency the cycle axis corresponds to.
    """

    data: np.ndarray
    clock_hz: float

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] != NUM_COMPONENTS:
            raise SimulationError(
                f"activity trace must have shape ({NUM_COMPONENTS}, T), "
                f"got {self.data.shape}"
            )
        if not (np.isfinite(self.clock_hz) and self.clock_hz > 0):
            raise SimulationError(
                f"clock frequency must be positive and finite, got {self.clock_hz}"
            )

    @property
    def num_cycles(self) -> int:
        """Length of the trace in clock cycles."""
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        """Wall-clock duration of the trace in seconds."""
        return self.num_cycles / self.clock_hz

    def component(self, component: Component) -> np.ndarray:
        """The per-cycle activity series of one component (a view)."""
        return self.data[COMPONENT_INDEX[component]]

    def totals(self) -> dict[Component, float]:
        """Total activity per component over the whole trace."""
        sums = self.data.sum(axis=1)
        return {component: float(sums[i]) for i, component in enumerate(COMPONENT_ORDER)}

    def mean_rates(self) -> np.ndarray:
        """Mean activity per cycle for each component (length-C vector)."""
        return self.data.mean(axis=1)

    def window(self, start_cycle: int, end_cycle: int) -> "ActivityTrace":
        """Sub-trace covering cycles ``[start_cycle, end_cycle)``."""
        if not 0 <= start_cycle < end_cycle <= self.num_cycles:
            raise SimulationError(
                f"invalid window [{start_cycle}, {end_cycle}) "
                f"for a {self.num_cycles}-cycle trace"
            )
        return ActivityTrace(self.data[:, start_cycle:end_cycle].copy(), self.clock_hz)

    def downsample(self, factor: int) -> "ActivityTrace":
        """Average the trace over non-overlapping blocks of ``factor`` cycles.

        The trailing partial block, if any, is dropped.  Downsampling is
        used to build the coarse activity envelope that the EM synthesis
        tiles over a full measurement interval.
        """
        if factor < 1:
            raise SimulationError(f"downsample factor must be >= 1, got {factor}")
        usable = (self.num_cycles // factor) * factor
        if usable == 0:
            raise SimulationError(
                f"trace of {self.num_cycles} cycles too short for factor {factor}"
            )
        blocks = self.data[:, :usable].reshape(NUM_COMPONENTS, usable // factor, factor)
        return ActivityTrace(blocks.mean(axis=2), self.clock_hz / factor)

    def project(self, weights: np.ndarray) -> np.ndarray:
        """Project the trace onto field modes: ``weights @ data``.

        Parameters
        ----------
        weights:
            Array of shape ``(num_modes, NUM_COMPONENTS)`` — per-mode,
            per-component coupling strengths.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(num_modes, num_cycles)``: the per-mode
            waveform seen by the antenna before noise.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim == 1:
            weights = weights[np.newaxis, :]
        if weights.shape[-1] != NUM_COMPONENTS:
            raise SimulationError(
                f"projection weights must have {NUM_COMPONENTS} columns, "
                f"got shape {weights.shape}"
            )
        return weights @ self.data


class ActivityBlock:
    """Immutable bundle of activity events with iteration-relative cycles.

    A block is captured once from a recorded loop segment (component
    indices, cycle *offsets* from the segment's start cycle, durations,
    and amounts) and replayed many times at different base cycles via
    :meth:`ActivityRecorder.add_block_batch`.
    """

    __slots__ = ("components", "offsets", "durations", "amounts")

    def __init__(
        self,
        components: np.ndarray,
        offsets: np.ndarray,
        durations: np.ndarray,
        amounts: np.ndarray,
    ) -> None:
        self.components = np.asarray(components, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.durations = np.asarray(durations, dtype=np.int64)
        self.amounts = np.asarray(amounts, dtype=np.float64)
        if not (
            self.components.shape
            == self.offsets.shape
            == self.durations.shape
            == self.amounts.shape
        ):
            raise SimulationError("activity block arrays must share one shape")
        if self.offsets.size and int(self.offsets.min()) < 0:
            raise SimulationError("activity block offsets must be non-negative")

    @property
    def num_events(self) -> int:
        """Number of events one replay of this block deposits."""
        return self.components.shape[0]


class ActivityRecorder:
    """Accumulates activity events during simulation.

    Events may extend past the currently known end of the trace (e.g. a
    divider still busy when the program halts); :meth:`finish` clips to
    the final cycle count.
    """

    def __init__(self, clock_hz: float) -> None:
        if clock_hz <= 0:
            raise SimulationError(f"clock frequency must be positive, got {clock_hz}")
        self.clock_hz = clock_hz
        self._components: list[int] = []
        self._starts: list[int] = []
        self._durations: list[int] = []
        self._amounts: list[float] = []
        # Block replays, grouped per template: id(block) -> (block, [base cycles]).
        self._block_groups: dict[int, tuple[ActivityBlock, list[int]]] = {}

    def add(
        self,
        component: Component,
        start_cycle: int,
        duration: int,
        amount_per_cycle: float,
    ) -> None:
        """Record ``amount_per_cycle`` activity on ``component`` for
        ``duration`` cycles starting at ``start_cycle``."""
        if duration <= 0 or amount_per_cycle == 0.0:
            return
        if start_cycle < 0:
            raise SimulationError(f"negative start cycle {start_cycle}")
        self._components.append(COMPONENT_INDEX[component])
        self._starts.append(start_cycle)
        self._durations.append(duration)
        self._amounts.append(amount_per_cycle)

    def extract_block(self) -> ActivityBlock:
        """Template of every event recorded so far, start cycles as offsets.

        The recorded events themselves stay in place.
        """
        return ActivityBlock(
            components=np.array(self._components, dtype=np.int64),
            offsets=np.array(self._starts, dtype=np.int64),
            durations=np.array(self._durations, dtype=np.int64),
            amounts=np.array(self._amounts, dtype=np.float64),
        )

    def add_block_batch(self, block: ActivityBlock, base_cycles: np.ndarray) -> None:
        """Replay ``block`` once per entry of ``base_cycles`` (a 1-D int array).

        Each replay records the block's events shifted by that base cycle,
        as :meth:`add` would; the batched loop engine deposits one template
        at every iteration's segment start this way.
        """
        base_array = np.ascontiguousarray(base_cycles, dtype=np.int64)
        if base_array.size == 0:
            return
        if int(base_array.min()) < 0:
            raise SimulationError("negative block base cycle in batch")
        bases = base_array.tolist()
        group = self._block_groups.get(id(block))
        if group is None:
            self._block_groups[id(block)] = (block, bases)
        else:
            group[1].extend(bases)

    def _gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All events (scalar + expanded blocks) as flat arrays."""
        components = [np.asarray(self._components, dtype=np.int64)]
        starts = [np.asarray(self._starts, dtype=np.int64)]
        durations = [np.asarray(self._durations, dtype=np.int64)]
        amounts = [np.asarray(self._amounts, dtype=np.float64)]
        for block, bases in self._block_groups.values():
            if not block.num_events or not bases:
                continue
            base_array = np.asarray(bases, dtype=np.int64)
            instances = base_array.shape[0]
            starts.append((base_array[:, None] + block.offsets[None, :]).ravel())
            components.append(np.tile(block.components, instances))
            durations.append(np.tile(block.durations, instances))
            amounts.append(np.tile(block.amounts, instances))
        return (
            np.concatenate(components),
            np.concatenate(starts),
            np.concatenate(durations),
            np.concatenate(amounts),
        )

    def finish(self, num_cycles: int) -> ActivityTrace:
        """Materialize the dense :class:`ActivityTrace`.

        Each cell adds its single-cycle events in ascending amount, then
        its longer events in (start, length, amount) order.  That order
        depends only on the recorded event multiset, so any two recording
        strategies that produce the same events (per-instruction appends
        vs block replay) materialize bit-identical traces.

        Parameters
        ----------
        num_cycles:
            Final length of the trace; events are clipped to this bound.
        """
        if num_cycles <= 0:
            raise SimulationError(f"trace length must be positive, got {num_cycles}")
        components, starts, durations, amounts = self._gather()
        visible = starts < num_cycles
        starts = starts[visible]
        amounts = amounts[visible]
        lengths = np.minimum(starts + durations[visible], num_cycles) - starts
        cells = components[visible] * num_cycles + starts

        # One index/weight stream for ``np.bincount``, which adds its
        # weights into each bin in stream order starting from 0.0, so
        # only each cell's own order matters: ascending amount for the
        # singles (ties are equal values), then (start, length, amount)
        # for the rest.  The stream is filled in place, so at most one
        # stream-sized temporary is alive besides it.
        single = lengths == 1
        single_order = np.argsort(amounts[single])
        singles = single_order.size

        multi = ~single
        order = np.lexsort((amounts[multi], lengths[multi], cells[multi]))
        multi_cells = cells[multi][order]
        lengths = lengths[multi][order]
        multi_amounts = amounts[multi][order]
        expanded = int(lengths.sum())

        index = np.empty(singles + expanded, dtype=np.int64)
        weights = np.empty(singles + expanded, dtype=np.float64)
        index[:singles] = cells[single][single_order]
        weights[:singles] = amounts[single][single_order]
        # Cell of each expanded step: its event's cell plus its offset
        # into the event, ``arange`` minus the event's first position.
        index[singles:] = np.repeat(multi_cells - (np.cumsum(lengths) - lengths), lengths)
        index[singles:] += np.arange(expanded, dtype=np.int64)
        weights[singles:] = np.repeat(multi_amounts, lengths)
        flat = np.bincount(index, weights=weights, minlength=NUM_COMPONENTS * num_cycles)
        return ActivityTrace(flat.reshape(NUM_COMPONENTS, num_cycles), self.clock_hz)
