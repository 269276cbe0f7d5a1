"""Steady-state extrapolation must equal brute-force priming replay.

`_prime_fast` may skip whole chunks of priming periods once it proves
the hierarchy is pass-periodic, rotating the state and adding counter
deltas arithmetically.  ``SAVAT_PRIME_EXTRAPOLATE=0`` forces the same
code to replay every chunk through the wavefront engine, so the two
runs must agree bit-for-bit — final tags, dirty bits, LRU order,
occupancy, and every counter — for any period count ``K``.
"""

import numpy as np
import pytest

from repro.codegen.pointers import SweepPlan
from repro.core import savat
from repro.uarch.cache import CacheGeometry
from repro.uarch.fastpath import PRIME_EXTRAPOLATE_ENV
from repro.uarch.hierarchy import MemoryHierarchy, MemoryLatencies

LINE = 64


def _hierarchy() -> MemoryHierarchy:
    """Core2duo-shaped hierarchy: 32KB/8-way L1, 4MB/16-way L2."""
    return MemoryHierarchy(
        l1_geometry=CacheGeometry(32 * 1024, 8, LINE),
        l2_geometry=CacheGeometry(4 * 1024 * 1024, 16, LINE),
        latencies=MemoryLatencies(l1_cycles=3, l2_cycles=14, memory_cycles=200),
    )


def _ring(base: int, slots: int, is_store: bool) -> tuple[SweepPlan, bool]:
    return SweepPlan(base=base, footprint=slots * LINE, offset=LINE), is_store


def _state(hierarchy: MemoryHierarchy):
    return [
        hierarchy.l1._tags.copy(),
        hierarchy.l1._dirty.copy(),
        hierarchy.l1._occupancy.copy(),
        hierarchy.l2._tags.copy(),
        hierarchy.l2._dirty.copy(),
        hierarchy.l2._occupancy.copy(),
    ]


def _prime(monkeypatch, sweeps, count, periods, extrapolate):
    monkeypatch.setenv(PRIME_EXTRAPOLATE_ENV, "1" if extrapolate else "0")
    hierarchy = _hierarchy()
    savat._prime_fast(hierarchy, sweeps, count, periods)
    return hierarchy


def _assert_identical(primed, replayed):
    for array_a, array_b in zip(_state(primed), _state(replayed)):
        assert np.array_equal(array_a, array_b)
    assert primed.counters() == replayed.counters()


#: (sweeps, count) shapes whose priming must extrapolate exactly.
CASES = {
    # One L2-resident store ring: 1 MB cycles fully in ~228 periods.
    "single-store-ring": ([_ring(2**24, 16384, True)], 72),
    # Two rings of different sizes, mixed load/store, both eligible.
    "two-rings": ([_ring(2**24, 16384, False), _ring(2**26, 8192, True)], 130),
    # L1-sized ring + off-chip ring: 256 slots do not divide the L2 set
    # count, so eligibility hinges on the dynamic L2-absence check.
    "l1-ring-plus-offchip": ([_ring(2**24, 256, False), _ring(2**26, 131072, True)], 138),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("periods", [96, 137, 200, 300])
def test_extrapolation_matches_brute_force(monkeypatch, case, periods):
    sweeps, count = CASES[case]
    primed = _prime(monkeypatch, sweeps, count, periods, extrapolate=True)
    replayed = _prime(monkeypatch, sweeps, count, periods, extrapolate=False)
    _assert_identical(primed, replayed)


def test_ineligible_ring_falls_back_to_replay(monkeypatch):
    """A ring smaller than the L1 set count cannot rotate isomorphically."""
    sweeps = [_ring(2**24, 32, True)]
    hierarchy = _hierarchy()
    rings = [(plan.base // LINE, plan.num_slots) for plan, _ in sweeps]
    assert hierarchy.ring_shift_plan(rings) is None
    primed = _prime(monkeypatch, sweeps, 72, 150, extrapolate=True)
    replayed = _prime(monkeypatch, sweeps, 72, 150, extrapolate=False)
    _assert_identical(primed, replayed)


def test_ring_shift_plan_flags_l2_check_rings():
    hierarchy = _hierarchy()
    # 4096 slots divide both set counts: unconditionally eligible.
    assert hierarchy.ring_shift_plan([(2**18, 4096)]) == []
    # 256 slots divide only the L1 set count: needs the dynamic check.
    assert hierarchy.ring_shift_plan([(2**18, 4096), (2**30, 256)]) == [(2**30, 256)]
    # Any ring failing L1 divisibility poisons the whole plan.
    assert hierarchy.ring_shift_plan([(2**18, 4096), (2**30, 32)]) is None


def test_extrapolation_actually_fires(monkeypatch):
    """The detector must skip chunks, not silently replay everything."""
    sweeps, count = [_ring(2**24, 4096, True)], 72
    shifts = []
    original = MemoryHierarchy.apply_ring_shift

    def spy(self, rings, shift):
        shifts.append(shift)
        original(self, rings, shift)

    monkeypatch.setattr(MemoryHierarchy, "apply_ring_shift", spy)
    primed = _prime(monkeypatch, sweeps, count, 200, extrapolate=True)
    assert shifts, "steady-state detector never extrapolated"
    replayed = _prime(monkeypatch, sweeps, count, 200, extrapolate=False)
    _assert_identical(primed, replayed)


def test_snapshots_wait_for_the_caches_to_fill(monkeypatch):
    """An 8 MB sweep fills L2 for ~15 chunks; no snapshot is taken meanwhile.

    Total L1+L2 occupancy still changes at each of those chunk
    boundaries, so no two snapshots could be equal there.  Only a
    bounded number of snapshots follow, and the extrapolated result
    still equals brute-force replay.
    """
    slots, count = 8 * 1024 * 1024 // LINE, 138
    sweeps = [_ring(2**24, slots, False)]
    periods = -(-slots // count) + 2
    snapshots = []
    original = MemoryHierarchy.canonical_ring_state

    def spy(self, rings, shift):
        snapshots.append(shift)
        return original(self, rings, shift)

    monkeypatch.setattr(MemoryHierarchy, "canonical_ring_state", spy)
    primed = _prime(monkeypatch, sweeps, count, periods, extrapolate=True)
    assert 2 <= len(snapshots) <= 3
    replayed = _prime(monkeypatch, sweeps, count, periods, extrapolate=False)
    _assert_identical(primed, replayed)
