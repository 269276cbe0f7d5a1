"""Two-level cache hierarchy with an off-chip memory behind it.

The hierarchy stitches the L1 and L2 :class:`~repro.uarch.cache.Cache`
models together with a flat DRAM and reports, for every access, which
level serviced it, how long it took, and how much secondary traffic
(fills, dirty write-backs, off-chip line transfers) it generated.  The
core turns that report into latency and per-component activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch.cache import Cache, CacheGeometry, replay_stream


@dataclass(frozen=True)
class MemoryLatencies:
    """Access latencies (cycles) for each level of the hierarchy."""

    l1_cycles: int = 3
    l2_cycles: int = 14
    memory_cycles: int = 200

    def __post_init__(self) -> None:
        if not (0 < self.l1_cycles <= self.l2_cycles <= self.memory_cycles):
            raise ConfigurationError(
                "latencies must satisfy 0 < L1 <= L2 <= memory, got "
                f"{self.l1_cycles}/{self.l2_cycles}/{self.memory_cycles}"
            )


@dataclass
class MemoryAccessReport:
    """Everything a single load/store did to the memory system.

    Attributes
    ----------
    level:
        ``"L1"``, ``"L2"`` or ``"MEM"`` — the level that serviced the
        demand access.
    latency_cycles:
        Cycles the access stalls the (in-order, blocking) pipeline.
    l2_accesses:
        Number of L2 array accesses generated (demand fill and/or dirty
        L1 write-back).  The paper's STL2 discussion — each store that
        misses L1 but hits L2 causes *two* L2 accesses — shows up here.
    offchip_transfers:
        Number of full cache-line transfers on the processor-memory bus
        (demand fills from DRAM plus dirty L2 write-backs).
    l1_writeback:
        True if a dirty L1 victim was written back to L2.
    l2_writeback:
        True if a dirty L2 victim was written back to DRAM.
    """

    level: str
    latency_cycles: int
    l2_accesses: int = 0
    offchip_transfers: int = 0
    l1_writeback: bool = False
    l2_writeback: bool = False


def _level_counters(accesses: int, misses: int, evictions: int, dirty_evictions: int) -> dict:
    """One level's :class:`~repro.uarch.cache.CacheStats` delta; every miss fills."""
    return {
        "accesses": accesses,
        "hits": accesses - misses,
        "misses": misses,
        "evictions": evictions,
        "dirty_evictions": dirty_evictions,
        "fills": misses,
    }


@dataclass
class MemoryHierarchy:
    """L1 -> L2 -> DRAM, write-back/write-allocate at both cache levels."""

    l1_geometry: CacheGeometry
    l2_geometry: CacheGeometry
    latencies: MemoryLatencies = field(default_factory=MemoryLatencies)

    def __post_init__(self) -> None:
        if self.l2_geometry.size_bytes < self.l1_geometry.size_bytes:
            raise ConfigurationError(
                "L2 must be at least as large as L1 "
                f"({self.l2_geometry.size_bytes} < {self.l1_geometry.size_bytes})"
            )
        if self.l1_geometry.line_bytes != self.l2_geometry.line_bytes:
            raise ConfigurationError("L1 and L2 must share a line size in this model")
        self.l1 = Cache(self.l1_geometry, name="L1D")
        self.l2 = Cache(self.l2_geometry, name="L2")
        self.offchip_accesses = 0

    @property
    def line_bytes(self) -> int:
        """Cache line size shared by both levels."""
        return self.l1_geometry.line_bytes

    def access(self, address: int, is_write: bool) -> MemoryAccessReport:
        """Perform one data access and report its hierarchy behaviour."""
        l1_result = self.l1.access(address, is_write)
        if l1_result.hit:
            return MemoryAccessReport(level="L1", latency_cycles=self.latencies.l1_cycles)

        l2_accesses = 0
        offchip = 0
        l2_writeback = False

        # Dirty L1 victim is written back into L2 before/while the fill
        # proceeds (no extra demand latency: write-back buffers hide it,
        # but the switching activity is real).
        l1_writeback = l1_result.evicted_dirty
        if l1_writeback:
            assert l1_result.evicted_line is not None
            wb_result = self.l2.access(l1_result.evicted_line, is_write=True)
            l2_accesses += 1
            if not wb_result.hit:
                # The victim's line had itself been evicted from L2; the
                # write-back allocates in L2 and may push a dirty L2 line
                # off-chip.
                if wb_result.evicted_dirty:
                    offchip += 1
                    l2_writeback = True
                    self.offchip_accesses += 1

        # Demand fill from L2 (or beyond).
        l2_result = self.l2.access(address, is_write=False)
        l2_accesses += 1
        if l2_result.hit:
            level = "L2"
            latency = self.latencies.l2_cycles
        else:
            level = "MEM"
            latency = self.latencies.memory_cycles
            offchip += 1
            self.offchip_accesses += 1
            if l2_result.evicted_dirty:
                offchip += 1
                l2_writeback = True
                self.offchip_accesses += 1

        return MemoryAccessReport(
            level=level,
            latency_cycles=latency,
            l2_accesses=l2_accesses,
            offchip_transfers=offchip,
            l1_writeback=l1_writeback,
            l2_writeback=l2_writeback,
        )

    def _normalize_stream(self, addresses, is_write) -> tuple[np.ndarray, np.ndarray]:
        address_array = np.ascontiguousarray(addresses, dtype=np.int64)
        if address_array.ndim != 1:
            raise ConfigurationError("access_stream expects a 1-D address stream")
        count = address_array.shape[0]
        if isinstance(is_write, (bool, np.bool_)):
            writes = np.broadcast_to(np.bool_(is_write), (count,))
        else:
            writes = np.ascontiguousarray(is_write, dtype=bool)
            if writes.shape != (count,):
                raise ConfigurationError(
                    "is_write must be a bool or match the address stream length"
                )
        return address_array, writes

    def replay_l1(
        self, addresses, is_write
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """L1 half of :meth:`access_stream`: the stream L1 sends to L2.

        Runs the whole stream through L1 in one engine call and derives the
        exact L2 access sequence the scalar path would have issued: per
        L1 miss, in stream order, the dirty victim's write-back (if any)
        and then the demand fill as a read.  L1 never reads L2 state, so
        this pass stands on its own; :meth:`replay_l2` consumes its
        output.

        Returns ``(l2_line_ids, l2_writes, miss_idx, writeback)``: the
        L2-bound line-id/write stream, the stream positions that missed
        L1, and per miss whether it wrote a dirty victim back.
        """
        address_array, writes = self._normalize_stream(addresses, is_write)
        count = address_array.shape[0]
        n1 = self.l1_geometry.num_sets
        line_ids = address_array // self.line_bytes
        l1_sets = line_ids % n1

        l1 = self.l1
        hit1, evict1, victim_tag1, victim_dirty1 = replay_stream(
            l1._tags, l1._dirty, l1._occupancy, self.l1_geometry.ways,
            l1_sets, line_ids // n1, writes,
        )
        l1_hits = int(hit1.sum())
        l1_stats = l1.stats
        l1_stats.accesses += count
        l1_stats.hits += l1_hits
        l1_stats.misses += count - l1_hits
        l1_stats.fills += count - l1_hits
        l1_stats.evictions += int(evict1.sum())
        l1_stats.dirty_evictions += int(victim_dirty1.sum())

        miss_idx = np.flatnonzero(~hit1)
        wb = victim_dirty1[miss_idx]
        demand_pos = np.cumsum(1 + wb.astype(np.int64)) - 1
        total = miss_idx.size + int(wb.sum())
        l2_line_ids = np.empty(total, dtype=np.int64)
        l2_writes = np.zeros(total, dtype=bool)
        l2_line_ids[demand_pos] = line_ids[miss_idx]
        wb_pos = demand_pos[wb] - 1
        l2_line_ids[wb_pos] = victim_tag1[miss_idx][wb] * n1 + l1_sets[miss_idx][wb]
        l2_writes[wb_pos] = True
        return l2_line_ids, l2_writes, miss_idx, wb

    def replay_l2(
        self, line_ids: np.ndarray, writes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """L2 half of :meth:`access_stream`: replay L1's output through L2.

        ``line_ids``/``writes`` are the L2-bound stream of
        :meth:`replay_l1`.  Updates L2 and ``offchip_accesses`` and
        returns per-entry ``(hit, offchip_transfers)``.
        """
        n2 = self.l2_geometry.num_sets
        l2 = self.l2
        total = line_ids.shape[0]
        hit2, evict2, _victim_tag2, victim_dirty2 = replay_stream(
            l2._tags, l2._dirty, l2._occupancy, self.l2_geometry.ways,
            line_ids % n2, line_ids // n2, writes,
        )
        l2_hits = int(hit2.sum())
        l2_stats = l2.stats
        l2_stats.accesses += total
        l2_stats.hits += l2_hits
        l2_stats.misses += total - l2_hits
        l2_stats.fills += total - l2_hits
        l2_stats.evictions += int(evict2.sum())
        l2_stats.dirty_evictions += int(victim_dirty2.sum())

        # Off-chip: every demand L2 miss fetches a line, and every dirty
        # L2 eviction (write-back or demand fill) pushes one out.
        offchip_per_entry = victim_dirty2.astype(np.int64) + (~hit2 & ~writes)
        self.offchip_accesses += int(offchip_per_entry.sum())
        return hit2, offchip_per_entry

    def access_stream(self, addresses, is_write) -> None:
        """Replay a whole address stream through the hierarchy, batched.

        Performs exactly the same state transitions and statistics
        updates as calling :meth:`access` once per element — the final
        L1/L2 contents (tags, dirty bits, LRU order), all cache
        counters, and ``offchip_accesses`` are bit-identical — but the
        whole stream is processed by the array cache engine
        (:func:`repro.uarch.cache.replay_stream`): no per-access Python
        loop, no list round-trips, no per-access report objects.  The
        sweep-priming fast path uses this to collapse millions of
        warm-up accesses.

        Parameters
        ----------
        addresses:
            Byte addresses, any integer sequence or 1-D integer array.
        is_write:
            A single bool applied to every access, or a boolean sequence
            of the same length as ``addresses``.
        """
        line_ids, writes, _miss_idx, _wb = self.replay_l1(addresses, is_write)
        self.replay_l2(line_ids, writes)

    def access_stream_reports(
        self, addresses, is_write
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`access_stream`, but return per-access report arrays.

        Returns ``(level, l2_accesses, offchip_transfers)`` int64 arrays
        in stream order, where ``level`` codes the servicing level as
        0 = L1, 1 = L2, 2 = MEM — the fields of
        :class:`MemoryAccessReport` that determine latency and activity.
        The steady-state loop replay uses this to cost a whole loop's
        memory accesses in one call.
        """
        address_array, writes = self._normalize_stream(addresses, is_write)
        count = address_array.shape[0]
        line_ids, l2_writes, miss_idx, wb = self.replay_l1(address_array, writes)
        hit2, offchip_per_entry = self.replay_l2(line_ids, l2_writes)
        entry_counts = 1 + wb.astype(np.int64)
        demand_pos = np.cumsum(entry_counts) - 1
        level = np.zeros(count, dtype=np.int64)
        level[miss_idx] = np.where(hit2[demand_pos], 1, 2)
        l2_accesses = np.zeros(count, dtype=np.int64)
        l2_accesses[miss_idx] = entry_counts
        per_miss_offchip = offchip_per_entry[demand_pos]
        per_miss_offchip[wb] += offchip_per_entry[demand_pos[wb] - 1]
        offchip = np.zeros(count, dtype=np.int64)
        offchip[miss_idx] = per_miss_offchip
        return level, l2_accesses, offchip

    # ------------------------------------------------------------------
    # Periodic steady-state (ring shift) support
    # ------------------------------------------------------------------
    def ring_shift_plan(
        self, rings: list[tuple[int, int]]
    ) -> list[tuple[int, int]] | None:
        """Which ring rotations are cache isomorphisms, level by level.

        Each ring is ``(base_line_id, num_slots)``; advancing every ring
        by the same number of slots moves each level's sets uniformly —
        preserving set structure, intra-set LRU order and dirty bits —
        when every slot count is a multiple of that level's set count.

        Returns ``None`` when the rotation is no L1 isomorphism (some
        ring's slot count is not a multiple of the L1 set count — every
        accessed line passes through L1, so L1 divisibility is
        unconditional).  Otherwise the rotation is always an L1
        isomorphism, and the returned list holds the rings whose slot
        count is *not* a multiple of the L2 set count: for L2 the
        rotation is sound only while none of their lines are resident
        there (then the L2 half of the map is vacuous), which the caller
        must verify with :meth:`rings_absent_from_l2` at every L2
        snapshot it compares or shifts.  An empty list means L2 is
        unconditionally eligible too.
        """
        n1 = self.l1_geometry.num_sets
        n2 = self.l2_geometry.num_sets
        if not rings or any(slots <= 0 or slots % n1 != 0 for _base, slots in rings):
            return None
        return [ring for ring in rings if ring[1] % n2 != 0]

    def prime_ring(self, base_line: int, slots: int, accesses: int, is_store: bool) -> bool:
        """Sweep one ring ``accesses`` times through a reset hierarchy, in closed form.

        Access ``i`` touches line ``base_line + (i + 1) % slots``.  Final
        state and every counter equal :meth:`access_stream` on that stream
        when ``slots`` is a multiple of both set counts and ``n1 * w1 <=
        n2`` (L1 sets times ways, L2 sets); otherwise returns False and
        leaves the hierarchy untouched.

        * **L1** holds each set's last visits (:meth:`Cache.load_ring`),
          dirty iff the ring stores.  When it thrashes, access ``i``
          evicts the line of access ``i - n1 * w1``.
        * **L2** sees one read per L1 miss, in access order, and for a
          storing ring each L1 eviction's write-back just before the read
          that caused it.  The written-back line was read ``n1 * w1 <=
          n2`` accesses earlier and nothing else entered its L2 set since,
          so every write-back hits the set's MRU line: it sets the dirty
          bit and moves nothing.  L2 therefore holds each set's last reads
          too, a line dirty iff the read that filled it was written back
          before the end.  Every L2 eviction is of a line read ``n2 * w2
          >= n1 * w1`` accesses earlier, so dirty for a storing ring.
        """
        n1, w1 = self.l1_geometry.num_sets, self.l1_geometry.ways
        n2 = self.l2_geometry.num_sets
        span = n1 * w1
        if slots % n1 or slots % n2 or span > n2:
            return False
        l1_fills, l1_misses = self.l1.load_ring(base_line, slots, accesses)
        l1_evictions = l1_misses - self.l1.resident_lines()
        writebacks = l1_evictions if is_store else 0
        if is_store:
            self.l1._dirty = l1_fills >= 0
        l2_fills, l2_misses = self.l2.load_ring(base_line, slots, l1_misses)
        l2_evictions = l2_misses - self.l2.resident_lines()
        if writebacks:
            # L1 thrashes, so L2's read t is access t, written back at t + span.
            self.l2._dirty = (l2_fills >= 0) & (l2_fills + span < accesses)
        l2_dirty_evictions = l2_evictions if is_store else 0
        l2_accesses = l1_misses + writebacks
        self.add_counters((
            _level_counters(accesses, l1_misses, l1_evictions, writebacks),
            _level_counters(l2_accesses, l2_misses, l2_evictions, l2_dirty_evictions),
            l2_misses + l2_dirty_evictions,
        ))
        return True

    def rings_absent_from_l2(self, rings: list[tuple[int, int]]) -> bool:
        """True when no line of any listed ring is currently valid in L2."""
        return not any(self.l2.holds_lines_in_range(base, slots) for base, slots in rings)

    def counters(self) -> tuple[dict, dict, int]:
        """Snapshot of every hierarchy counter (both levels + off-chip)."""
        return (
            vars(self.l1.stats).copy(),
            vars(self.l2.stats).copy(),
            self.offchip_accesses,
        )

    def add_counters(self, delta: tuple[dict, dict, int], times: int = 1) -> None:
        """Add ``times`` multiples of a counter delta (see :meth:`counters`)."""
        l1_delta, l2_delta, offchip_delta = delta
        for stats, values in ((self.l1.stats, l1_delta), (self.l2.stats, l2_delta)):
            for name, value in values.items():
                setattr(stats, name, getattr(stats, name) + value * times)
        self.offchip_accesses += offchip_delta * times

    def warm(self, addresses: list[int], is_write: bool) -> None:
        """Touch ``addresses`` once each to pre-condition cache state.

        The measurement methodology runs the alternation loop long before
        the instrument starts recording, so the caches are in steady
        state; tests and the measurement path use ``warm`` to reach that
        steady state without simulating the warm-up cycles.
        """
        for address in addresses:
            self.access(address, is_write)

    def reset(self) -> None:
        """Invalidate both caches and clear counters."""
        self.l1.invalidate_all()
        self.l2.invalidate_all()
        self.l1.stats.__init__()
        self.l2.stats.__init__()
        self.offchip_accesses = 0
