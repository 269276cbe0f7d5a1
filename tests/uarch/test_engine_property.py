"""Randomized property tests: array cache engine vs the scalar reference.

The wavefront engine (`replay_stream` / `access_block` /
`MemoryHierarchy.access_stream`) must be *exactly* the scalar
`Cache.access` loop — same final tags, dirty bits, LRU order, and every
counter, on any stream.  Hypothesis drives streams with set aliasing,
dirty evictions, and capacity conflicts through both implementations;
the whole suite runs under both settings of the reference-path toggle.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.uarch import cache as cache_module
from repro.uarch.cache import Cache, CacheGeometry, replay_stream
from repro.uarch.fastpath import use_fast_path, use_reference_path
from repro.uarch.hierarchy import MemoryHierarchy, MemoryLatencies

#: Small geometries so short streams exercise aliasing and evictions.
GEOMETRIES = [
    CacheGeometry(64, 1, 64),  # single direct-mapped set
    CacheGeometry(512, 2, 64),  # 4 sets x 2 ways
    CacheGeometry(1024, 4, 64),  # 4 sets x 4 ways
    CacheGeometry(4096, 8, 64),  # 8 sets x 8 ways
]

_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=127), st.booleans()),
    min_size=1,
    max_size=300,
)


#: Each property runs under both settings of the reference-path toggle
#: (a context manager inside the test body — hypothesis forbids
#: function-scoped fixtures).
_TOGGLES = {"fast": use_fast_path, "reference": use_reference_path}
_both_paths = pytest.mark.parametrize("path_toggle", sorted(_TOGGLES))


def _with_toggle(test):
    """Run the test body inside the selected path-toggle context."""

    @functools.wraps(test)
    def wrapper(path_toggle, **kwargs):
        with _TOGGLES[path_toggle]():
            test(path_toggle, **kwargs)

    return wrapper


def _scalar_replay(cache: Cache, lines, writes):
    results = []
    line_bytes = cache.geometry.line_bytes
    for line, write in zip(lines, writes):
        results.append(cache.access(int(line) * line_bytes, bool(write)))
    return results


@_both_paths
@given(geometry_index=st.integers(0, len(GEOMETRIES) - 1), stream=_streams)
@settings(max_examples=60, deadline=None)
@_with_toggle
def test_replay_stream_matches_scalar_access(path_toggle, geometry_index, stream):
    """Property: replay_stream == a scalar access loop, state and outputs."""
    geometry = GEOMETRIES[geometry_index]
    reference = Cache(geometry, name="reference")
    engine = Cache(geometry, name="engine")
    lines = np.array([line for line, _ in stream], dtype=np.int64)
    writes = np.array([write for _, write in stream], dtype=bool)

    results = _scalar_replay(reference, lines, writes)
    num_sets = geometry.num_sets
    hit, evicted, victim_tag, victim_dirty = replay_stream(
        engine._tags,
        engine._dirty,
        engine._occupancy,
        geometry.ways,
        lines % num_sets,
        lines // num_sets,
        writes,
    )

    assert np.array_equal(hit, [r.hit for r in results])
    assert np.array_equal(evicted, [r.evicted_line is not None for r in results])
    line_bytes = geometry.line_bytes
    expected_victims = [
        (r.evicted_line // line_bytes) // num_sets if r.evicted_line is not None else 0
        for r in results
    ]
    assert np.array_equal(victim_tag, expected_victims)
    assert np.array_equal(
        victim_dirty,
        [bool(r.evicted_dirty) if r.evicted_line is not None else False for r in results],
    )
    # Final state: tags (the LRU order), dirty bits, occupancy.
    assert np.array_equal(reference._tags, engine._tags)
    assert np.array_equal(reference._dirty, engine._dirty)
    assert np.array_equal(reference._occupancy, engine._occupancy)
    # Every counter, reconstructed from the per-access outputs.
    stats = vars(reference.stats)
    assert stats["accesses"] == len(stream)
    assert stats["hits"] == int(hit.sum())
    assert stats["misses"] == len(stream) - int(hit.sum())
    assert stats["fills"] == len(stream) - int(hit.sum())
    assert stats["evictions"] == int(evicted.sum())
    assert stats["dirty_evictions"] == int(victim_dirty.sum())


@_both_paths
@given(
    geometry_index=st.integers(0, len(GEOMETRIES) - 1),
    lines=st.lists(st.integers(0, 127), min_size=1, max_size=300),
    is_write=st.booleans(),
)
@settings(max_examples=60, deadline=None)
@_with_toggle
def test_access_block_matches_scalar_access(path_toggle, geometry_index, lines, is_write):
    """Property: access_block == a scalar loop, state and statistics."""
    geometry = GEOMETRIES[geometry_index]
    reference = Cache(geometry, name="reference")
    engine = Cache(geometry, name="engine")
    addresses = np.array(lines, dtype=np.int64) * geometry.line_bytes

    for address in addresses:
        reference.access(int(address), is_write)
    engine.access_block(addresses, is_write)

    assert np.array_equal(reference._tags, engine._tags)
    assert np.array_equal(reference._dirty, engine._dirty)
    assert np.array_equal(reference._occupancy, engine._occupancy)
    assert vars(reference.stats) == vars(engine.stats)


def _hierarchy() -> MemoryHierarchy:
    return MemoryHierarchy(
        l1_geometry=CacheGeometry(512, 2, 64),
        l2_geometry=CacheGeometry(4096, 4, 64),
        latencies=MemoryLatencies(l1_cycles=2, l2_cycles=8, memory_cycles=60),
    )


def _hierarchy_state(hierarchy: MemoryHierarchy):
    return (
        hierarchy.l1._tags.copy(),
        hierarchy.l1._dirty.copy(),
        hierarchy.l1._occupancy.copy(),
        hierarchy.l2._tags.copy(),
        hierarchy.l2._dirty.copy(),
        hierarchy.l2._occupancy.copy(),
    )


@_both_paths
@given(stream=_streams)
@settings(max_examples=60, deadline=None)
@_with_toggle
def test_access_stream_matches_scalar_hierarchy(path_toggle, stream):
    """Property: hierarchy access_stream == a scalar access loop.

    Covers L1/L2 capacity conflicts and dirty write-back chains: the
    L2 here is only 8x the L1, so streams routinely push dirty lines
    through both levels and off chip.
    """
    reference = _hierarchy()
    engine = _hierarchy()
    addresses = np.array([line * 64 for line, _ in stream], dtype=np.int64)
    writes = np.array([write for _, write in stream], dtype=bool)

    reports = [
        reference.access(int(address), bool(write))
        for address, write in zip(addresses, writes)
    ]
    levels, l2_counts, offchip = engine.access_stream_reports(addresses, writes)

    level_names = {"L1": 0, "L2": 1, "MEM": 2}
    assert np.array_equal(levels, [level_names[r.level] for r in reports])
    assert np.array_equal(l2_counts, [r.l2_accesses for r in reports])
    assert np.array_equal(offchip, [r.offchip_transfers for r in reports])
    for state_a, state_b in zip(_hierarchy_state(reference), _hierarchy_state(engine)):
        assert np.array_equal(state_a, state_b)
    assert vars(reference.l1.stats) == vars(engine.l1.stats)
    assert vars(reference.l2.stats) == vars(engine.l2.stats)
    assert reference.offchip_accesses == engine.offchip_accesses


# ----------------------------------------------------------------------
# Warm starts: a scalar-replayed prefix, then the engine on the suffix
# ----------------------------------------------------------------------

_prefixes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=127), st.booleans()),
    max_size=200,
)


def _assert_replay_matches(reference: Cache, engine: Cache, lines, writes):
    """Scalar-replay ``lines`` on ``reference``, engine-replay on ``engine``."""
    geometry = engine.geometry
    num_sets = geometry.num_sets
    results = _scalar_replay(reference, lines, writes)
    hit, evicted, victim_tag, victim_dirty = replay_stream(
        engine._tags,
        engine._dirty,
        engine._occupancy,
        geometry.ways,
        lines % num_sets,
        lines // num_sets,
        writes,
    )
    assert np.array_equal(hit, [r.hit for r in results])
    assert np.array_equal(evicted, [r.evicted_line is not None for r in results])
    line_bytes = geometry.line_bytes
    assert np.array_equal(
        victim_tag,
        [
            (r.evicted_line // line_bytes) // num_sets if r.evicted_line is not None else 0
            for r in results
        ],
    )
    assert np.array_equal(
        victim_dirty,
        [bool(r.evicted_dirty) if r.evicted_line is not None else False for r in results],
    )
    assert np.array_equal(reference._tags, engine._tags)
    assert np.array_equal(reference._dirty, engine._dirty)
    assert np.array_equal(reference._occupancy, engine._occupancy)


def _warm_pair(geometry: CacheGeometry, prefix):
    """Two caches with the same scalar-replayed ``prefix``."""
    caches = Cache(geometry, name="reference"), Cache(geometry, name="engine")
    lines = np.array([line for line, _ in prefix], dtype=np.int64)
    writes = np.array([write for _, write in prefix], dtype=bool)
    for cache in caches:
        _scalar_replay(cache, lines, writes)
    return caches


@_both_paths
@given(
    geometry_index=st.integers(0, len(GEOMETRIES) - 1),
    prefix=_prefixes,
    stream=_streams,
)
@settings(max_examples=60, deadline=None)
@_with_toggle
def test_replay_stream_matches_scalar_after_warm_prefix(
    path_toggle, geometry_index, prefix, stream
):
    """Property: replay_stream on a warm cache == the scalar loop."""
    reference, engine = _warm_pair(GEOMETRIES[geometry_index], prefix)
    lines = np.array([line for line, _ in stream], dtype=np.int64)
    writes = np.array([write for _, write in stream], dtype=bool)
    _assert_replay_matches(reference, engine, lines, writes)


@_both_paths
@given(
    geometry_index=st.integers(0, len(GEOMETRIES) - 1),
    prefix=_prefixes,
    lines=st.lists(st.integers(0, 127), min_size=1, max_size=300),
    is_write=st.booleans(),
)
@settings(max_examples=60, deadline=None)
@_with_toggle
def test_access_block_matches_scalar_after_warm_prefix(
    path_toggle, geometry_index, prefix, lines, is_write
):
    """Property: access_block on a warm cache == the scalar loop."""
    reference, engine = _warm_pair(GEOMETRIES[geometry_index], prefix)
    addresses = np.array(lines, dtype=np.int64) * reference.geometry.line_bytes
    for address in addresses:
        reference.access(int(address), is_write)
    engine.access_block(addresses, is_write)
    assert np.array_equal(reference._tags, engine._tags)
    assert np.array_equal(reference._dirty, engine._dirty)
    assert np.array_equal(reference._occupancy, engine._occupancy)
    assert vars(reference.stats) == vars(engine.stats)


@_both_paths
@given(prefix=_prefixes, stream=_streams)
@settings(max_examples=60, deadline=None)
@_with_toggle
def test_access_stream_reports_match_scalar_after_warm_prefix(path_toggle, prefix, stream):
    """Property: access_stream_reports on a warm hierarchy == the scalar loop."""
    reference = _hierarchy()
    engine = _hierarchy()
    for hierarchy in (reference, engine):
        for line, write in prefix:
            hierarchy.access(line * 64, write)
    addresses = np.array([line * 64 for line, _ in stream], dtype=np.int64)
    writes = np.array([write for _, write in stream], dtype=bool)
    reports = [
        reference.access(int(address), bool(write))
        for address, write in zip(addresses, writes)
    ]
    levels, l2_counts, offchip = engine.access_stream_reports(addresses, writes)
    level_names = {"L1": 0, "L2": 1, "MEM": 2}
    assert np.array_equal(levels, [level_names[r.level] for r in reports])
    assert np.array_equal(l2_counts, [r.l2_accesses for r in reports])
    assert np.array_equal(offchip, [r.offchip_transfers for r in reports])
    for state_a, state_b in zip(_hierarchy_state(reference), _hierarchy_state(engine)):
        assert np.array_equal(state_a, state_b)
    assert vars(reference.l1.stats) == vars(engine.l1.stats)
    assert vars(reference.l2.stats) == vars(engine.l2.stats)
    assert reference.offchip_accesses == engine.offchip_accesses


def _resident_lines(cache: Cache) -> list[int]:
    num_sets = cache.geometry.num_sets
    return [
        line.tag * num_sets + set_index
        for set_index, row in enumerate(cache._sets)
        for line in row
    ]


@st.composite
def _eviction_free_case(draw):
    """A warm cache plus a suffix that evicts nothing by construction.

    The suffix draws (with repeats, in any order) from the resident
    lines and, per set, at most as many new lines as the set has free
    ways.
    """
    geometry = GEOMETRIES[draw(st.integers(1, len(GEOMETRIES) - 1))]
    prefix = draw(_prefixes)
    reference, engine = _warm_pair(geometry, prefix)
    num_sets = geometry.num_sets
    pool = _resident_lines(reference)
    occupancy = reference._occupancy.tolist()
    held = set(pool)
    for set_index in range(num_sets):
        fresh = [
            line
            for line in range(set_index, 64 * num_sets, num_sets)
            if line not in held
        ]
        free = geometry.ways - occupancy[set_index]
        if free:
            pool += draw(st.lists(st.sampled_from(fresh), max_size=free, unique=True))
    assume(pool)
    stream = draw(
        st.lists(st.tuples(st.sampled_from(pool), st.booleans()), min_size=1, max_size=200)
    )
    return reference, engine, stream


@_both_paths
@given(case=_eviction_free_case())
@settings(max_examples=60, deadline=None)
@_with_toggle
def test_fill_kernel_replays_eviction_free_streams(path_toggle, case):
    """Eviction-free suffixes go through the fill kernel, not wavefronts."""
    reference, engine, stream = case
    lines = np.array([line for line, _ in stream], dtype=np.int64)
    writes = np.array([write for _, write in stream], dtype=bool)
    results = []
    original = cache_module._replay_fill

    def spy(*args):
        results.append(original(*args))
        return results[-1]

    with mock.patch.object(cache_module, "_replay_fill", spy):
        _assert_replay_matches(reference, engine, lines, writes)
    assert len(results) == 1 and results[0] is not None
