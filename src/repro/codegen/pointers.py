"""Pointer-sweep planning: footprints, masks, and cache pre-conditioning.

The paper's kernel (Figure 4) updates the access pointer every iteration
with ``ptr = (ptr & ~mask) | ((ptr + offset) & mask)`` so the memory
access "repeatedly sweeps over an array of appropriate size (fits in L1
cache, does not fit in L1 but fits in L2 cache, or does not fit in L2)".
This module decides those array sizes for a given cache geometry, builds
the mask/offset constants, and can install the sweep's steady-state
cache contents directly so a measurement starts in the same regime the
paper's free-running loop reaches after its warm-up.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.isa.events import Footprint, InstructionEvent
from repro.uarch.cache import Cache, CacheGeometry
from repro.uarch.hierarchy import MemoryHierarchy

#: Base virtual address of the A half's array.  A and B use disjoint
#: regions so their sweeps touch "separate groups of cache blocks"
#: (Section III).
BASE_ADDRESS_A = 0x1000_0000

#: Base virtual address of the B half's array.
BASE_ADDRESS_B = 0x4000_0000


def footprint_bytes(
    event: InstructionEvent,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
) -> int:
    """Array size (bytes) whose cyclic sweep produces ``event``'s cache
    behaviour on the given cache geometry.

    * L1 events sweep half the L1 so every access hits L1 (the other
      half leaves room for the B array and incidental state).
    * L2 events sweep an array at least 4x the L1 but at most half the
      L2, so every access misses L1 and hits L2.
    * Memory events sweep twice the L2, so a cyclic LRU sweep misses
      both levels on every access.
    * Non-memory events get a nominal L1-class footprint: the pointer
      update code still runs (identical surrounding code), but the test
      slot performs no access.
    """
    if event.footprint in (Footprint.L1, Footprint.NONE):
        return l1_geometry.size_bytes // 2
    if event.footprint is Footprint.L2:
        size = max(4 * l1_geometry.size_bytes, l2_geometry.size_bytes // 16)
        size = min(size, l2_geometry.size_bytes // 2)
        if size <= l1_geometry.size_bytes:
            raise ConfigurationError(
                "cannot construct an L2-resident footprint: L1 "
                f"({l1_geometry.size_bytes} B) too close to L2 "
                f"({l2_geometry.size_bytes} B)"
            )
        return size
    if event.footprint is Footprint.MEMORY:
        return 2 * l2_geometry.size_bytes
    raise ConfigurationError(f"unknown footprint {event.footprint!r}")


@dataclass(frozen=True)
class SweepPlan:
    """Constants describing one pointer sweep.

    ``mask`` selects the bits that wrap within the array; the update
    ``ptr = (ptr & ~mask) | ((ptr + offset) & mask)`` then cycles the
    pointer through ``footprint // offset`` line-aligned slots starting
    at ``base``.
    """

    base: int
    footprint: int
    offset: int

    def __post_init__(self) -> None:
        if self.footprint <= 0 or (self.footprint & (self.footprint - 1)) != 0:
            raise ConfigurationError(
                f"sweep footprint must be a positive power of two, got {self.footprint}"
            )
        if self.offset <= 0 or self.footprint % self.offset != 0:
            raise ConfigurationError(
                f"sweep offset {self.offset} must evenly divide footprint {self.footprint}"
            )
        if self.base % self.footprint != 0:
            raise ConfigurationError(
                f"sweep base {self.base:#x} must be aligned to footprint {self.footprint:#x}"
            )

    @property
    def mask(self) -> int:
        """Wrap mask: footprint - 1."""
        return self.footprint - 1

    @property
    def num_slots(self) -> int:
        """Number of distinct addresses the sweep visits."""
        return self.footprint // self.offset

    def addresses(self, start: int | None = None) -> list[int]:
        """The full cycle of addresses, beginning after ``start``.

        ``start`` defaults to :attr:`base`; the returned list has
        :attr:`num_slots` entries and ends back at ``start``.
        """
        pointer = self.base if start is None else start
        sequence: list[int] = []
        for _ in range(self.num_slots):
            pointer = (pointer & ~self.mask) | ((pointer + self.offset) & self.mask)
            sequence.append(pointer)
        return sequence


def advance_pointer(pointer: int, mask: int, offset: int, steps: int) -> int:
    """Pointer value after ``steps`` applications of the kernel's update.

    One update is ``ptr = (ptr & ~mask) | ((ptr + offset) & mask)``.
    Because ``mask`` spans a power-of-two footprint, the low bits evolve
    as ``(low + k * offset) mod (mask + 1)`` while the high bits are
    fixed, so any number of steps collapses to a single expression.
    """
    return (pointer & ~mask) | ((pointer + steps * offset) & mask)


def sweep_address_stream(plan: SweepPlan, start_pointer: int, count: int):
    """The next ``count`` addresses a sweep visits after ``start_pointer``.

    Returns an int64 array: element ``k`` is the pointer after ``k + 1``
    kernel updates (the loop updates the pointer *before* each access,
    so the stream starts one step past ``start_pointer``).  This is the
    vectorized equivalent of iterating the scalar update ``count`` times.
    """
    high = start_pointer & ~plan.mask
    low = start_pointer & plan.mask
    steps = np.arange(1, count + 1, dtype=np.int64)
    return high | ((low + steps * plan.offset) & plan.mask)


def plan_sweep(
    event: InstructionEvent,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    base: int = BASE_ADDRESS_A,
) -> SweepPlan:
    """Build the :class:`SweepPlan` for ``event`` on the given caches."""
    footprint = footprint_bytes(event, l1_geometry, l2_geometry)
    aligned_base = (base // footprint) * footprint
    return SweepPlan(base=aligned_base, footprint=footprint, offset=l1_geometry.line_bytes)


def _install_lines(cache: Cache, line_addresses: Sequence[int], dirty: bool) -> None:
    """Install ``line_addresses`` into ``cache`` in LRU-to-MRU order.

    Uses the normal access path (so LRU bookkeeping is honest) but with
    statistics subtracted afterwards, leaving counters untouched.
    """
    before = vars(cache.stats).copy()
    cache.access_block(line_addresses, is_write=dirty)
    for key, value in before.items():
        setattr(cache.stats, key, value)


def prime_for_sweep(
    hierarchy: MemoryHierarchy,
    plan: SweepPlan,
    is_write: bool,
    reset: bool = True,
) -> None:
    """Pre-condition ``hierarchy`` to the sweep's steady state.

    After priming, a cyclic sweep over ``plan``'s addresses behaves from
    the first access as the paper's free-running loop does after warm-up:

    * a footprint that fits L1 hits L1 on every access (dirty for
      stores);
    * a footprint that fits L2 but not L1 misses L1 and hits L2 on
      every access, with stores producing a dirty L1 victim each time;
    * a footprint exceeding L2 misses both levels on every access, with
      the attendant dirty write-backs for stores.

    Priming fills each level with the most-recently-swept lines that fit
    it, in sweep order, so LRU victims match steady state.

    Pass ``reset=False`` to prime a second sweep on top of an earlier
    one (the alternation kernel's two halves coexist in the caches; the
    half primed *last* holds the most-recently-used lines, so prime in
    execution order).
    """
    if reset:
        hierarchy.reset()
    line = hierarchy.line_bytes
    sweep_lines = range(plan.base, plan.base + plan.footprint // line * line, line)

    l2_capacity = hierarchy.l2_geometry.size_bytes // line
    l1_capacity = hierarchy.l1_geometry.size_bytes // line

    # Most recently touched lines are at the *end* of the sweep cycle
    # (the sweep restarts at the base next).  Install the tail that fits.
    l2_tail = sweep_lines[-l2_capacity:] if len(sweep_lines) > l2_capacity else sweep_lines
    _install_lines(hierarchy.l2, l2_tail, dirty=is_write and len(sweep_lines) > l2_capacity)

    l1_tail = sweep_lines[-l1_capacity:] if len(sweep_lines) > l1_capacity else sweep_lines
    _install_lines(hierarchy.l1, l1_tail, dirty=is_write)
