"""Steady-state extrapolation must equal brute-force priming replay.

`_prime_fast` may skip whole chunks of priming periods once it proves
the hierarchy is pass-periodic, rotating the state and adding counter
deltas arithmetically.  ``SAVAT_PRIME_EXTRAPOLATE=0`` forces the same
code to replay every chunk through the wavefront engine, so the two
runs must agree bit-for-bit — final tags, dirty bits, LRU order,
occupancy, and every counter — for any period count ``K``.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.pointers import SweepPlan
from repro.core import savat
from repro.uarch import hierarchy as hierarchy_module
from repro.uarch.cache import Cache, CacheGeometry
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


def _small_hierarchy() -> MemoryHierarchy:
    """8-set/2-way L1 and 64-set/4-way L2: small enough for many examples."""
    return MemoryHierarchy(
        l1_geometry=CacheGeometry(1024, 2, LINE),
        l2_geometry=CacheGeometry(16384, 4, LINE),
    )


def _small_prime(sweeps, count, periods, extrapolate):
    hierarchy = _small_hierarchy()
    with mock.patch.dict(os.environ, {PRIME_EXTRAPOLATE_ENV: "1" if extrapolate else "0"}):
        savat._prime_fast(hierarchy, sweeps, count, periods)
    return hierarchy


#: Ring slot counts, all multiples of the small L1's 8 sets; 8 to 32 do
#: not divide the small L2's 64 sets (the L2-absence check applies),
#: 512 slots overflow L2.
_rings = st.lists(
    st.tuples(st.sampled_from([8, 16, 32, 64, 128, 256, 512]), st.booleans()),
    min_size=1,
    max_size=2,
)


@settings(max_examples=40, deadline=None)
@given(
    rings=_rings,
    count=st.integers(min_value=1, max_value=40),
    chunks=st.integers(min_value=3, max_value=7),
    remainder=st.one_of(
        st.just(0), st.integers(min_value=1, max_value=savat.PRIME_CHUNK_PERIODS - 1)
    ),
)
def test_both_detectors_match_brute_force(rings, count, chunks, remainder):
    """Per-level extrapolation equals full replay on random ring sets.

    ``remainder`` 0 ends priming on a chunk boundary, where the owed L1
    rotation is applied on exit rather than before a remainder replay.
    """
    sweeps = [
        _ring((index + 1) * 2**20, slots, is_store)
        for index, (slots, is_store) in enumerate(rings)
    ]
    periods = chunks * savat.PRIME_CHUNK_PERIODS + remainder
    primed = _small_prime(sweeps, count, periods, extrapolate=True)
    replayed = _small_prime(sweeps, count, periods, extrapolate=False)
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
    original = Cache.apply_ring_shift

    def spy(self, rings, shift):
        shifts.append((self.name, shift))
        original(self, rings, shift)

    monkeypatch.setattr(Cache, "apply_ring_shift", spy)
    primed = _prime(monkeypatch, sweeps, count, 200, extrapolate=True)
    assert any(name == "L2" for name, _shift in shifts), "detector never extrapolated"
    replayed = _prime(monkeypatch, sweeps, count, 200, extrapolate=False)
    _assert_identical(primed, replayed)


def test_snapshots_wait_for_the_caches_to_fill(monkeypatch):
    """An 8 MB sweep fills L2 for ~15 chunks; no L2 snapshot is taken meanwhile.

    L2's line count still changes at each of those chunk boundaries, so
    no two snapshots could be equal there.  Only a bounded number of L2
    snapshots follow, and the extrapolated result still equals
    brute-force replay.
    """
    slots, count = 8 * 1024 * 1024 // LINE, 138
    sweeps = [_ring(2**24, slots, False)]
    periods = -(-slots // count) + 2
    snapshots = []
    original = Cache.ring_shifted_state

    def spy(self, rings, shift):
        # Snapshots rotate back by the slots swept (a negative shift);
        # applied rotations go forward.
        if self.name == "L2" and shift < 0:
            snapshots.append(shift)
        return original(self, rings, shift)

    monkeypatch.setattr(Cache, "ring_shifted_state", spy)
    primed = _prime(monkeypatch, sweeps, count, periods, extrapolate=True)
    assert 2 <= len(snapshots) <= 3
    replayed = _prime(monkeypatch, sweeps, count, periods, extrapolate=False)
    _assert_identical(primed, replayed)


def test_l1_replay_stops_once_l1_is_periodic(monkeypatch):
    """L1 settles within a few chunks; later chunks replay only L2.

    In the L1-ring + off-chip case L2 never repeats (the 256-slot ring
    stays resident in L2), so without a separate L1 detector L1 would
    be replayed for every chunk.
    """
    sweeps, count = CASES["l1-ring-plus-offchip"]
    periods = 300
    l1_accesses = []
    l2_calls = []
    l1_sets = _hierarchy().l1_geometry.num_sets
    original = hierarchy_module.replay_stream

    def spy(tags, dirty, occupancy, ways, set_indices, target_tags, writes):
        if tags.shape[0] == l1_sets:
            l1_accesses.append(set_indices.shape[0])
        else:
            l2_calls.append(set_indices.shape[0])
        return original(tags, dirty, occupancy, ways, set_indices, target_tags, writes)

    monkeypatch.setattr(hierarchy_module, "replay_stream", spy)
    primed = _prime(monkeypatch, sweeps, count, periods, extrapolate=True)
    chunk_accesses = savat.PRIME_CHUNK_PERIODS * count * len(sweeps)
    assert sum(l1_accesses) <= 4 * chunk_accesses
    assert len(l2_calls) == -(-periods // savat.PRIME_CHUNK_PERIODS)
    monkeypatch.undo()
    replayed = _prime(monkeypatch, sweeps, count, periods, extrapolate=False)
    _assert_identical(primed, replayed)


# ----------------------------------------------------------------------
# Lone rings in closed form
# ----------------------------------------------------------------------


def _lone_ring_prime(hierarchy, sweeps, accesses: int, extrapolate: bool):
    """Prime as ``prime_alternation_steady_state`` does for a lone ring.

    With ``extrapolate`` the closed form must apply; without it every
    access is replayed.
    """
    with mock.patch.dict(os.environ, {PRIME_EXTRAPOLATE_ENV: "1" if extrapolate else "0"}):
        if extrapolate:
            assert savat._prime_lone_ring(hierarchy, sweeps, accesses)
        else:
            assert not savat._prime_lone_ring(hierarchy, sweeps, accesses)
            savat._prime_fast(hierarchy, sweeps, 1, accesses)
    return hierarchy


@st.composite
def _ring_geometries(draw):
    """Small L1/L2 geometries with ``n1 * w1 <= n2`` and a ring both set counts divide."""
    l1_sets = 2 ** draw(st.integers(0, 3))
    l1_ways = 2 ** draw(st.integers(0, 2))
    l2_sets = l1_sets * l1_ways * 2 ** draw(st.integers(0, 2))
    l2_ways = 2 ** draw(st.integers(0, 3))
    slots = l2_sets * 2 ** draw(st.integers(0, 3))
    return (
        CacheGeometry(l1_sets * l1_ways * LINE, l1_ways, LINE),
        CacheGeometry(l2_sets * l2_ways * LINE, l2_ways, LINE),
        slots,
    )


@settings(max_examples=150, deadline=None)
@given(
    geometry=_ring_geometries(),
    base_index=st.integers(0, 3),
    is_store=st.booleans(),
    data=st.data(),
)
def test_lone_ring_closed_form_matches_full_replay_on_small_caches(
    geometry, base_index, is_store, data
):
    """Any access count from 1 to six passes over the ring."""
    l1_geometry, l2_geometry, slots = geometry
    accesses = data.draw(st.integers(1, 6 * slots), label="accesses")
    sweeps = [_ring(base_index * slots * LINE, slots, is_store)]
    primed, replayed = (
        _lone_ring_prime(MemoryHierarchy(l1_geometry, l2_geometry), sweeps, accesses, flag)
        for flag in (True, False)
    )
    _assert_identical(primed, replayed)


@pytest.mark.parametrize("is_store", [False, True], ids=["load", "store"])
@pytest.mark.parametrize("slots", [4096, 131072], ids=["l2-ring", "memory-ring"])
def test_lone_ring_memo_matches_full_replay(monkeypatch, slots, is_store):
    """Lone-ring priming equals full replay from a partial pass to five passes.

    The closed form replaced a memoized steady-state search; the name is
    kept for that history. It must apply at every access count, below the
    first L1 eviction included.
    """
    sweeps = [_ring(2**24, slots, is_store)]
    l1 = _hierarchy().l1_geometry
    first_eviction = l1.num_sets * l1.ways + 1
    for accesses in (first_eviction - 1, first_eviction, 4 * slots, 5 * slots + 12345):
        primed = _lone_ring_prime(_hierarchy(), sweeps, accesses, True)
        replayed = _prime(monkeypatch, sweeps, 1, accesses, extrapolate=False)
        _assert_identical(primed, replayed)


#: The rings of the three reference machines' L2 and memory events, the
#: lone rings a campaign primes in closed form.
_MACHINE_RINGS = [
    (machine, event)
    for machine in ("core2duo", "pentium3m", "turionx2")
    for event in ("LDL2", "STL2", "LDM", "STM")
]


@pytest.mark.parametrize("machine, event", _MACHINE_RINGS)
def test_lone_ring_closed_form_matches_full_replay_on_every_machine_ring(machine, event):
    """At the first eviction, a pass, and past two passes over the ring."""
    from repro.codegen.pointers import plan_sweep
    from repro.isa.events import get_event
    from repro.machines.catalog import get_machine

    spec = get_machine(machine)
    plan = plan_sweep(get_event(event), spec.l1_geometry, spec.l2_geometry)
    sweeps = [(plan, get_event(event).is_store)]
    first_eviction = spec.l1_geometry.num_sets * spec.l1_geometry.ways + 1
    for accesses in (first_eviction, plan.num_slots, 2 * plan.num_slots + 1234):
        primed, replayed = (
            _lone_ring_prime(spec.make_core().hierarchy, sweeps, accesses, flag)
            for flag in (True, False)
        )
        _assert_identical(primed, replayed)


def test_rings_outside_the_closed_form_are_left_to_replay(monkeypatch):
    """An L1-sized ring, and caches with ``n1 * w1 > n2``, get no closed form."""
    monkeypatch.setenv(PRIME_EXTRAPOLATE_ENV, "1")
    hierarchy = _hierarchy()
    # 256 slots do not divide the 4096 L2 sets.
    assert not savat._prime_lone_ring(hierarchy, [_ring(2**24, 256, True)], 4096)
    # 2 L1 sets x 2 ways exceed the 2 L2 sets.
    wide_l1 = MemoryHierarchy(CacheGeometry(4 * LINE, 2, LINE), CacheGeometry(8 * LINE, 4, LINE))
    assert not savat._prime_lone_ring(wide_l1, [_ring(2**20, 16, True)], 100)
    for untouched in (hierarchy, wide_l1):
        assert untouched.counters() == MemoryHierarchy(
            untouched.l1_geometry, untouched.l2_geometry
        ).counters()
        assert untouched.l1.resident_lines() == untouched.l2.resident_lines() == 0


def test_second_cell_with_the_same_ring_replays_nothing(monkeypatch):
    """Two cells sharing LDM's ring: neither replays an access, the first included."""
    from repro.codegen.alternation import plan_alternation
    from repro.isa.events import get_event
    from repro.machines.catalog import get_machine

    monkeypatch.delenv(PRIME_EXTRAPOLATE_ENV, raising=False)
    spec = get_machine("core2duo")
    calls = []
    original = hierarchy_module.replay_stream

    def spy(tags, *args):
        calls.append(tags.shape[0])
        return original(tags, *args)

    monkeypatch.setattr(hierarchy_module, "replay_stream", spy)
    primed = []
    for partner, count in (("ADD", 138), ("SUB", 141)):
        alternation = plan_alternation(
            get_event(partner), get_event("LDM"),
            spec.l1_geometry, spec.l2_geometry, count,
        )
        core = spec.make_core()
        calls.clear()
        savat.prime_alternation_steady_state(core, alternation)
        primed.append((core, alternation, list(calls)))
    assert [calls for _core, _alternation, calls in primed] == [[], []]
    monkeypatch.undo()
    for core, alternation, _calls in primed:
        oracle = spec.make_core()
        monkeypatch.setenv(PRIME_EXTRAPOLATE_ENV, "0")
        savat.prime_alternation_steady_state(oracle, alternation)
        _assert_identical(core.hierarchy, oracle.hierarchy)
