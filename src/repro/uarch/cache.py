"""Set-associative write-back cache with LRU replacement.

This is the substrate that makes the paper's memory events (LDM, STM,
LDL2, STL2, LDL1, STL1) arise mechanistically: the alternation kernel
sweeps pointers over arrays of chosen footprints, and the cache model
decides — from the actual address stream — which level services each
access and when dirty lines are written back.  The STL2 "two L2 accesses
per store" effect the paper discusses (fill plus dirty write-back) falls
out of this model rather than being hard-coded.

The state is struct-of-arrays: per level, a ``num_sets x ways`` tag
matrix, a dirty-bit matrix, and a per-set occupancy vector.  Within a
row, column 0 is the LRU victim and column ``occupancy - 1`` the MRU
line; columns at or past the occupancy are invalid.  The scalar
:meth:`Cache.access` walks one row; :func:`replay_stream` replays whole
address streams at once, bit-identically, which is what makes sweep
priming cheap.  It has three paths:

* a **fill kernel** for streams that evict nothing (caches filling,
  streams that only hit): a closed form built from a few sorts and
  scatters;
* **all-full wavefronts** once every set is full: the k-th access of
  every set is updated simultaneously, in place when a wavefront covers
  every set;
* **generic wavefronts** for everything else, with per-set occupancy
  bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line-size triple describing one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        for name in ("size_bytes", "ways", "line_bytes"):
            value = getattr(self, name)
            if not _is_power_of_two(value):
                raise ConfigurationError(f"cache {name} must be a power of two, got {value}")
        if self.size_bytes < self.ways * self.line_bytes:
            raise ConfigurationError(
                f"cache of {self.size_bytes} B cannot hold {self.ways} ways "
                f"of {self.line_bytes} B lines"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.ways * self.line_bytes)

    def set_index(self, address: int) -> int:
        """Set index for a byte address."""
        return (address // self.line_bytes) % self.num_sets

    def tag(self, address: int) -> int:
        """Tag for a byte address."""
        return address // (self.line_bytes * self.num_sets)

    def line_address(self, address: int) -> int:
        """Address of the first byte of the line containing ``address``."""
        return (address // self.line_bytes) * self.line_bytes


@dataclass
class CacheAccessResult:
    """Outcome of a single cache access.

    Attributes
    ----------
    hit:
        Whether the line was present.
    evicted_line:
        Line address of the victim evicted to make room for a fill, or
        ``None`` when no eviction happened (hit, or fill into an invalid
        way).
    evicted_dirty:
        Whether the evicted victim was dirty (must be written back to
        the next level).
    """

    hit: bool
    evicted_line: int | None = None
    evicted_dirty: bool = False


#: Shared results for the two outcomes that carry no victim information.
#: They are never mutated (consumers only read the fields), so the hot
#: ``access`` path allocates a result object only when a line is evicted.
_HIT_RESULT = CacheAccessResult(hit=True)
_MISS_RESULT = CacheAccessResult(hit=False)


@dataclass
class CacheStats:
    """Counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    fills: int = 0

    @property
    def hit_rate(self) -> float:
        """Hit rate over all accesses so far (0.0 if no accesses)."""
        return self.hits / self.accesses if self.accesses else 0.0


class _Line:
    """One cache line's bookkeeping (tag + dirty bit) — a *view* object.

    The engine itself stores no per-line objects; ``Cache._sets`` builds
    these on demand for introspection (tests, digests).
    """

    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int, dirty: bool) -> None:
        self.tag = tag
        self.dirty = dirty


#: Distinct lines whose residency :func:`_replay_fill` checks at once
#: (bounds its ``lines x ways`` comparison temporaries).
_RESIDENCY_BLOCK = 4096

#: Evenly spaced accesses :func:`_replay_fill` probes before sorting.
_PROBES = 8


def _replay_fill(
    tags: np.ndarray,
    dirty: np.ndarray,
    occupancy: np.ndarray,
    ways: int,
    set_indices: np.ndarray,
    target_tags: np.ndarray,
    writes: np.ndarray,
) -> np.ndarray | None:
    """Replay a stream that evicts nothing in closed form; ``None`` if it would.

    When every set's resident lines plus the distinct non-resident
    stream lines mapping to it fit in ``ways``, LRU has nothing to
    decide: the first touch of a non-resident line is a miss that
    appends, every other access hits, and nothing is evicted.  Each
    touched row then ends as its untouched resident lines in their
    current order followed by every touched line in order of last use;
    a line's dirty bit is its old bit (if resident) OR any write to it.
    Columns past the new occupancy are left as they are.

    Returns the per-access hit flags after updating the state in place,
    or ``None`` — with the state untouched — when some set would
    overflow.  Temporaries are O(stream length + touched sets x ways).
    """
    num_sets = tags.shape[0]
    count = set_indices.shape[0]
    # A few probes reject the steady-state case cheaply: an access that
    # misses a full set evicts.
    for index in range(0, count, max(count // _PROBES, 1)):
        row = int(set_indices[index])
        occupied = int(occupancy[row])
        if occupied == ways and int(target_tags[index]) not in tags[row].tolist():
            return None

    # Distinct lines in id order; ``starts`` indexes each one's first use.
    order = np.argsort(target_tags * num_sets + set_indices, kind="stable")
    sorted_sets = set_indices[order]
    sorted_tags = target_tags[order]
    new_line = np.empty(count, dtype=bool)
    new_line[0] = True
    np.not_equal(sorted_tags[1:], sorted_tags[:-1], out=new_line[1:])
    new_line[1:] |= sorted_sets[1:] != sorted_sets[:-1]
    starts = np.flatnonzero(new_line)
    line_sets = sorted_sets[starts]
    line_tags = sorted_tags[starts]
    distinct = np.bincount(line_sets, minlength=num_sets)
    if (distinct > ways).any():
        return None

    # Residency of each line in a non-empty set, compared against its
    # row a block of lines at a time.  A valid match precedes any stale
    # one past the occupancy, so the first match decides.
    resident = np.zeros(starts.shape[0], dtype=bool)
    column = np.zeros(starts.shape[0], dtype=np.int64)
    candidates = np.flatnonzero(occupancy[line_sets])
    for lo in range(0, candidates.shape[0], _RESIDENCY_BLOCK):
        block = candidates[lo : lo + _RESIDENCY_BLOCK]
        block_sets = line_sets[block]
        matches = np.take(tags, block_sets, axis=0) == line_tags[block, None]
        found = matches.argmax(axis=1)
        resident[block] = matches[np.arange(block.shape[0]), found] & (
            found < occupancy[block_sets]
        )
        column[block] = found
    resident_sets = line_sets[resident]
    touched_resident = np.bincount(resident_sets, minlength=num_sets)
    new_per_set = distinct - touched_resident
    if (occupancy + new_per_set > ways).any():
        return None

    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = count - 1
    last_use = order[ends]
    written = np.logical_or.reduceat(writes[order], starts)
    hit = np.ones(count, dtype=bool)
    hit[order[starts[~resident]]] = False

    # Untouched resident lines move left past the touched ones; a row
    # none of whose resident lines was touched keeps its prefix as is.
    held_column = column[resident]
    if held_column.size:
        written[resident] |= dirty[resident_sets, held_column]
        compact = np.flatnonzero(touched_resident)
        keep = np.arange(ways, dtype=np.int64)[None, :] < occupancy[compact][:, None]
        keep[np.searchsorted(compact, resident_sets), held_column] = False
        kept = np.flatnonzero(keep)
        kept_row = kept // ways
        source = kept - kept_row * ways
        kept_count = np.bincount(kept_row, minlength=compact.shape[0])
        dest = np.arange(kept.shape[0], dtype=np.int64) - (
            np.cumsum(kept_count) - kept_count
        )[kept_row]
        moves = dest != source
        moved_sets = compact[kept_row[moves]]
        source = source[moves]
        dest = dest[moves]
        moved_tags = tags[moved_sets, source]
        moved_dirty = dirty[moved_sets, source]
        tags[moved_sets, dest] = moved_tags
        dirty[moved_sets, dest] = moved_dirty

    # Touched lines follow, per set in order of last use.
    by_use = np.argsort(line_sets * count + last_use, kind="stable")
    sets_by_use = line_sets[by_use]
    group_start = np.cumsum(distinct) - distinct
    columns = (occupancy - touched_resident - group_start)[sets_by_use] + np.arange(
        by_use.shape[0], dtype=np.int64
    )
    tags[sets_by_use, columns] = line_tags[by_use]
    dirty[sets_by_use, columns] = written[by_use]
    occupancy += new_per_set
    return hit


def _remove_column(rows: np.ndarray, remove: np.ndarray, way_ids: np.ndarray) -> np.ndarray:
    """Copy of ``rows`` with column ``remove[i]`` of row ``i`` deleted.

    Later columns shift left and the last column keeps its old value,
    which every caller overwrites.  A masked copy, several times cheaper
    than the equivalent 2-D fancy-index gather.
    """
    moved = rows.copy()
    np.copyto(moved[:, :-1], rows[:, 1:], where=way_ids[:-1] >= remove[:, None])
    return moved


def replay_stream(
    tags: np.ndarray,
    dirty: np.ndarray,
    occupancy: np.ndarray,
    ways: int,
    set_indices: np.ndarray,
    target_tags: np.ndarray,
    writes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay an ordered access stream against one level's state arrays.

    Three paths, all bit-identical to looping :meth:`Cache.access`:

    * **Fill kernel** (:func:`_replay_fill`).  A stream that evicts
      nothing (every set's resident lines plus its distinct new lines
      fit in ``ways``) is replayed in closed form, with a few sorts and
      scatters and no per-access loop.  This covers caches filling from
      empty and streams that only hit; a few probed accesses reject
      steady-state streams before any sorting.
    * **Generic wavefronts.**  Any other stream is grouped by set
      (stable sort, so per-set order is the stream order) and processed
      in *wavefronts*: iteration ``k`` updates the ``k``-th access of
      every set at once with pure array operations.  Each wavefront
      touches each set at most once, so the gather/update/scatter below
      is exactly one sequential LRU access per set.  The loop works on a
      packed ``tag * 2 + dirty`` array so every LRU reorder moves one
      array instead of two.
    * **All-full wavefronts.**  Once every set is full, occupancy never
      changes again: the loop drops its bookkeeping, and a wavefront that
      covers every set updates the packed state in place with no
      gather/scatter.

    Parameters
    ----------
    tags, dirty, occupancy:
        The level's state arrays, updated in place.
    ways:
        Associativity (number of columns).
    set_indices, target_tags, writes:
        Equal-length 1-D arrays describing the stream in order.

    Returns
    -------
    tuple
        Per-access arrays ``(hit, evicted, victim_tag, victim_dirty)``
        in stream order; ``victim_tag``/``victim_dirty`` are only
        meaningful where ``evicted`` is True (zero/False elsewhere).
    """
    count = set_indices.shape[0]
    hit_out = np.zeros(count, dtype=bool)
    evicted_out = np.zeros(count, dtype=bool)
    victim_tag_out = np.zeros(count, dtype=np.int64)
    victim_dirty_out = np.zeros(count, dtype=bool)
    if count == 0:
        return hit_out, evicted_out, victim_tag_out, victim_dirty_out
    fill_hit = _replay_fill(
        tags, dirty, occupancy, ways, set_indices, target_tags, writes
    )
    if fill_hit is not None:
        return fill_hit, evicted_out, victim_tag_out, victim_dirty_out

    order = np.argsort(set_indices, kind="stable")
    sorted_sets = set_indices[order]
    new_group = np.empty(count, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=new_group[1:])
    group_starts = np.flatnonzero(new_group)
    group_counts = np.diff(np.append(group_starts, count))

    # Re-lay the stream out wavefront-major once, so the loop below is
    # pure slicing: ``rank`` is each access's position within its set's
    # run, and a stable sort by rank makes wavefront k's accesses (one
    # per set that still has a k-th access, in set order) contiguous.
    rank = np.arange(count, dtype=np.int64) - np.repeat(group_starts, group_counts)
    wf = np.argsort(rank, kind="stable")
    wf_counts = np.bincount(rank)
    boundaries = np.empty(wf_counts.shape[0] + 1, dtype=np.int64)
    boundaries[0] = 0
    np.cumsum(wf_counts, out=boundaries[1:])
    wf_stream_idx = order[wf]
    wf_rows = sorted_sets[wf]
    wf_tags = target_tags[wf_stream_idx]
    wf_writes = writes[wf_stream_idx]
    # Packed representation: one int64 per line, tag in the high bits and
    # the dirty bit in bit 0.  ``packed | 1 == tag * 2 + 1`` is the tag
    # compare; a hit ORs the write bit in; a miss inserts ``tag * 2 + w``.
    comb = tags * 2 + dirty
    wf_w = wf_writes.astype(np.int64)
    wf_new = wf_tags * 2 + wf_w
    wf_keys = wf_new | 1
    wf_hit = np.empty(count, dtype=bool)
    wf_evict = np.zeros(count, dtype=bool)
    wf_victim = np.zeros(count, dtype=np.int64)

    bounds = boundaries.tolist()
    num_sets = tags.shape[0]
    row_range = np.arange(int(wf_counts[0]), dtype=np.intp)
    way_ids = np.arange(ways, dtype=np.int64)
    last_way = ways - 1
    all_full = bool((occupancy == ways).all())
    for k in range(wf_counts.shape[0]):
        lo = bounds[k]
        hi = bounds[k + 1]
        n = hi - lo
        rows = wf_rows[lo:hi]
        ar = row_range[:n]
        # A wavefront's rows are strictly increasing, so covering every
        # set means ``rows`` is the identity — operate on ``comb``
        # directly with no gather/scatter.
        identity = n == num_sets

        if all_full:
            # Steady state: every set is full, the insert slot is always
            # the last way, and occupancy never changes again.
            row_comb = comb if identity else comb[rows]
            matches = (row_comb | 1) == wf_keys[lo:hi, None]
            # Position of the first (only) match; where no way matches,
            # argmax yields 0 and matches[row, 0] is False, so the same
            # gather also yields the hit flag.
            pos = matches.argmax(axis=1)
            hit = matches[ar, pos]
            if not hit.any():
                # Conflict-miss sweep: record every LRU victim, shift
                # every set left in place, append at MRU.
                wf_hit[lo:hi] = False
                wf_evict[lo:hi] = True
                wf_victim[lo:hi] = row_comb[:, 0]
                row_comb[:, :-1] = row_comb[:, 1:]
                row_comb[:, last_way] = wf_new[lo:hi]
                if not identity:
                    comb[rows] = row_comb
                continue
            if hit.all():
                # Pure LRU reorder: move the hit line to MRU, no victims.
                wf_hit[lo:hi] = True
                moved = _remove_column(row_comb, pos, way_ids)
                moved[:, last_way] = row_comb[ar, pos] | wf_w[lo:hi]
                if identity:
                    comb = moved
                else:
                    comb[rows] = moved
                continue
            evict = ~hit
            wf_hit[lo:hi] = hit
            wf_evict[lo:hi] = evict
            wf_victim[lo:hi] = np.where(evict, row_comb[:, 0], 0)
            p_remove = np.where(hit, pos, 0)
            moved = _remove_column(row_comb, p_remove, way_ids)
            moved[:, last_way] = np.where(
                hit, row_comb[ar, pos] | wf_w[lo:hi], wf_new[lo:hi]
            )
            if identity:
                comb = moved
            else:
                comb[rows] = moved
            continue

        row_comb = comb[rows]
        occ = occupancy[rows]
        full = occ == ways
        valid = way_ids < occ[:, None]
        matches = valid & ((row_comb | 1) == wf_keys[lo:hi, None])
        pos = matches.argmax(axis=1)
        hit = matches[ar, pos]
        miss = ~hit
        evict = miss & full

        wf_hit[lo:hi] = hit
        wf_evict[lo:hi] = evict
        wf_victim[lo:hi] = np.where(evict, row_comb[:, 0], 0)

        # Remove the hit line (at pos) or, on a full miss, the LRU line
        # (column 0); a non-full miss removes nothing (p_remove == occ,
        # past every shifted column).  Insert at the new MRU slot.
        p_remove = np.where(hit, pos, np.where(full, 0, occ))
        insert_pos = np.where(hit, occ - 1, np.where(full, last_way, occ))
        moved = _remove_column(row_comb, p_remove, way_ids)
        moved[ar, insert_pos] = np.where(
            hit, row_comb[ar, pos] | wf_w[lo:hi], wf_new[lo:hi]
        )
        comb[rows] = moved
        occupancy[rows] = occ + (miss & ~full)
        all_full = bool((occupancy == ways).all())
    np.right_shift(comb, 1, out=tags)
    np.not_equal(comb & 1, 0, out=dirty)
    hit_out[wf_stream_idx] = wf_hit
    evicted_out[wf_stream_idx] = wf_evict
    victim_tag_out[wf_stream_idx] = wf_victim >> 1
    victim_dirty_out[wf_stream_idx] = (wf_victim & 1) != 0
    return hit_out, evicted_out, victim_tag_out, victim_dirty_out


def shift_ring_lines(
    line_ids: np.ndarray, rings: list[tuple[int, int]], shift: int
) -> np.ndarray:
    """``line_ids`` with every id inside a ring advanced ``shift`` slots.

    ``rings`` lists ``(base_line_id, num_slots)`` line-id intervals; an
    id in a ring maps to ``base + (id - base + shift) % slots``, any
    other id is left as is.  ``shift`` may be negative.
    """
    shifted = line_ids
    for base, slots in rings:
        relative = line_ids - base
        in_ring = (relative >= 0) & (relative < slots)
        shifted = np.where(in_ring, base + (relative + shift) % slots, shifted)
    return shifted


@dataclass
class Cache:
    """A write-back, write-allocate, LRU set-associative cache.

    The cache tracks tags and dirty bits only — data values live in the
    simulator's flat memory model.  ``access`` performs the tag lookup,
    the LRU update, and (on a miss) the fill with victim selection, and
    reports whether a dirty victim needs writing back.
    """

    geometry: CacheGeometry
    name: str = "cache"
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        geometry = self.geometry
        self._tags = np.zeros((geometry.num_sets, geometry.ways), dtype=np.int64)
        self._dirty = np.zeros((geometry.num_sets, geometry.ways), dtype=bool)
        self._occupancy = np.zeros(geometry.num_sets, dtype=np.int64)

    @property
    def _sets(self) -> list[list[_Line]]:
        """Per-set LRU-ordered line views (front = LRU victim, back = MRU).

        Built fresh on each read from the state arrays; mutations of the
        returned objects do not affect the cache.  Kept for tests and
        digests that inspect cache contents line by line.
        """
        tag_rows = self._tags.tolist()
        dirty_rows = self._dirty.tolist()
        occupancy = self._occupancy.tolist()
        return [
            [_Line(tag_row[i], dirty_row[i]) for i in range(occ)]
            for tag_row, dirty_row, occ in zip(tag_rows, dirty_rows, occupancy)
        ]

    def lookup(self, address: int) -> bool:
        """Non-modifying presence check (no LRU update, no stats)."""
        line_id = address // self.geometry.line_bytes
        num_sets = self.geometry.num_sets
        set_index = line_id % num_sets
        occupancy = int(self._occupancy[set_index])
        return (line_id // num_sets) in self._tags[set_index, :occupancy].tolist()

    def access(self, address: int, is_write: bool) -> CacheAccessResult:
        """Access ``address``; allocate on miss; return hit/eviction info.

        On a write hit the line is marked dirty.  On a miss the line is
        filled (write-allocate) and, for writes, immediately marked dirty.
        The caller (the hierarchy) is responsible for propagating the
        miss and any dirty write-back to the next level.
        """
        geometry = self.geometry
        line_id = address // geometry.line_bytes
        num_sets = geometry.num_sets
        set_index = line_id % num_sets
        target_tag = line_id // num_sets
        stats = self.stats
        stats.accesses += 1

        tags = self._tags[set_index]
        dirty = self._dirty[set_index]
        occupancy = int(self._occupancy[set_index])
        try:
            position = tags[:occupancy].tolist().index(target_tag)
        except ValueError:
            position = -1

        if position >= 0:
            stats.hits += 1
            line_dirty = bool(dirty[position]) or is_write
            if position != occupancy - 1:
                # Rotate [position+1, occupancy) down one slot; the MRU
                # slot then takes the accessed line.  NumPy buffers
                # overlapping basic-slice copies, so this is safe.
                tags[position : occupancy - 1] = tags[position + 1 : occupancy]
                dirty[position : occupancy - 1] = dirty[position + 1 : occupancy]
                tags[occupancy - 1] = target_tag
            dirty[occupancy - 1] = line_dirty
            return _HIT_RESULT

        stats.misses += 1
        stats.fills += 1
        if occupancy >= geometry.ways:
            victim_tag = int(tags[0])
            victim_dirty = bool(dirty[0])
            stats.evictions += 1
            if victim_dirty:
                stats.dirty_evictions += 1
            tags[: occupancy - 1] = tags[1:occupancy]
            dirty[: occupancy - 1] = dirty[1:occupancy]
            tags[occupancy - 1] = target_tag
            dirty[occupancy - 1] = is_write
            return CacheAccessResult(
                hit=False,
                evicted_line=(victim_tag * num_sets + set_index) * geometry.line_bytes,
                evicted_dirty=victim_dirty,
            )
        tags[occupancy] = target_tag
        dirty[occupancy] = is_write
        self._occupancy[set_index] = occupancy + 1
        return _MISS_RESULT

    def access_block(self, addresses, is_write: bool) -> None:
        """Batched :meth:`access`: identical state and statistics updates.

        Replays a whole address block through the array engine
        (:func:`replay_stream`), discarding the per-access results.  Used by the sweep
        pre-conditioning helpers, which only care about the final cache
        state.  Misses allocate exactly as in :meth:`access`
        (write-allocate; victims are simply dropped — propagating their
        write-backs is the hierarchy's job, which this method is not a
        substitute for).
        """
        address_array = np.ascontiguousarray(addresses, dtype=np.int64)
        count = address_array.shape[0]
        if count == 0:
            return
        line_ids = address_array // self.geometry.line_bytes
        num_sets = self.geometry.num_sets
        hit, evicted, _victim_tag, victim_dirty = replay_stream(
            self._tags,
            self._dirty,
            self._occupancy,
            self.geometry.ways,
            line_ids % num_sets,
            line_ids // num_sets,
            np.broadcast_to(np.bool_(is_write), (count,)),
        )
        stats = self.stats
        hits = int(hit.sum())
        stats.accesses += count
        stats.hits += hits
        stats.misses += count - hits
        stats.fills += count - hits
        stats.evictions += int(evicted.sum())
        stats.dirty_evictions += int(victim_dirty.sum())

    def invalidate_all(self) -> None:
        """Drop every line (used between independent measurements)."""
        self._tags.fill(0)
        self._dirty.fill(False)
        self._occupancy.fill(0)

    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return int(self._occupancy.sum())

    def dirty_lines(self) -> int:
        """Number of dirty lines currently held."""
        ways = self.geometry.ways
        valid = np.arange(ways, dtype=np.int64)[None, :] < self._occupancy[:, None]
        return int((self._dirty & valid).sum())

    def holds_lines_in_range(self, base: int, slots: int) -> bool:
        """True when any valid line's id falls in ``[base, base + slots)``."""
        num_sets = self.geometry.num_sets
        ways = self.geometry.ways
        valid = np.arange(ways, dtype=np.int64)[None, :] < self._occupancy[:, None]
        ids = self._tags * num_sets + np.arange(num_sets, dtype=np.int64)[:, None]
        return bool((valid & (ids >= base) & (ids < base + slots)).any())

    # ------------------------------------------------------------------
    # Ring-shift support for periodic steady-state extrapolation
    # ------------------------------------------------------------------
    def ring_shifted_state(
        self, rings: list[tuple[int, int]], shift: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """State arrays with every ring-resident line advanced ``shift`` slots.

        ``rings`` lists ``(base_line_id, num_slots)`` line-id intervals.
        When each ring's slot count is a multiple of ``num_sets``, the
        per-line map ``line -> base + (line - base + shift) % slots`` moves
        every set's contents wholesale to set ``(set + shift) % num_sets``
        preserving intra-set order, so the row axis simply rotates — a
        cache isomorphism.  Invalid entries are normalized to ``0``/
        ``False`` so the result is canonical (equality comparisons see
        only the valid region).  ``shift`` may be negative.
        """
        num_sets, ways = self.geometry.num_sets, self.geometry.ways
        occupancy = self._occupancy
        valid = np.arange(ways, dtype=np.int64)[None, :] < occupancy[:, None]
        set_column = np.arange(num_sets, dtype=np.int64)[:, None]
        new_ids = shift_ring_lines(self._tags * num_sets + set_column, rings, shift)
        row_shift = shift % num_sets
        new_tags = np.where(valid, new_ids // num_sets, 0)
        new_dirty = np.where(valid, self._dirty, False)
        return (
            np.roll(new_tags, row_shift, axis=0),
            np.roll(new_dirty, row_shift, axis=0),
            np.roll(occupancy, row_shift),
        )

    def apply_ring_shift(self, rings: list[tuple[int, int]], shift: int) -> None:
        """Replace the state with :meth:`ring_shifted_state` in place."""
        self._tags, self._dirty, self._occupancy = self.ring_shifted_state(rings, shift)

    def load_ring(self, base_line: int, slots: int, reads: int) -> tuple[np.ndarray, int]:
        """Replace the state with a ring's after ``reads`` cyclic reads from empty.

        Read ``t`` touches line ``base_line + (t + 1) % slots`` — a sweep
        moves its pointer before each access — and ``slots`` must be a
        multiple of the set count, so consecutive reads visit the sets
        round robin and every set cycles through ``slots // num_sets``
        lines.  Under LRU a set then holds its last ``min(visits, ways,
        slots // num_sets)`` lines in visit order: when it cycles through
        more lines than it has ways every read misses, otherwise only
        first reads do.  Lines are left clean and the counters untouched.

        Returns ``(fills, misses)``: per entry the read that filled it (-1
        where invalid), and the number of reads that missed.
        """
        num_sets, ways = self.geometry.num_sets, self.geometry.ways
        per_set = slots // num_sets
        thrashes = per_set > ways
        start = max(0, reads - num_sets * min(ways, per_set))
        times = np.arange(start, reads, dtype=np.int64)
        line_ids = base_line + (times + 1) % slots
        sets = line_ids % num_sets
        columns = (times - start) // num_sets
        self._tags = np.zeros((num_sets, ways), dtype=np.int64)
        self._tags[sets, columns] = line_ids // num_sets
        self._dirty = np.zeros((num_sets, ways), dtype=bool)
        self._occupancy = np.bincount(sets, minlength=num_sets).astype(np.int64)
        fills = np.full((num_sets, ways), -1, dtype=np.int64)
        fills[sets, columns] = times if thrashes else times % slots
        return fills, reads if thrashes else min(reads, slots)
