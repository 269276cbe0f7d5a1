"""Unit and property tests for sweep planning and cache priming."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import pointers
from repro.codegen.pointers import (
    BASE_ADDRESS_A,
    SweepPlan,
    footprint_bytes,
    plan_sweep,
    prime_for_sweep,
)
from repro.errors import ConfigurationError
from repro.isa.events import get_event
from repro.machines.catalog import CORE2DUO
from repro.uarch.cache import CacheGeometry
from repro.uarch.hierarchy import MemoryHierarchy

L1 = CacheGeometry(size_bytes=32 * 1024, ways=8, line_bytes=64)
L2 = CacheGeometry(size_bytes=4 * 1024 * 1024, ways=16, line_bytes=64)


class TestFootprintSizing:
    def test_l1_events_fit_l1(self):
        for name in ("LDL1", "STL1"):
            assert footprint_bytes(get_event(name), L1, L2) <= L1.size_bytes // 2

    def test_l2_events_between_l1_and_l2(self):
        for name in ("LDL2", "STL2"):
            size = footprint_bytes(get_event(name), L1, L2)
            assert L1.size_bytes < size <= L2.size_bytes // 2

    def test_memory_events_exceed_l2(self):
        for name in ("LDM", "STM"):
            assert footprint_bytes(get_event(name), L1, L2) > L2.size_bytes

    def test_non_memory_events_get_nominal_footprint(self):
        assert footprint_bytes(get_event("ADD"), L1, L2) == L1.size_bytes // 2

    def test_degenerate_geometry_rejected(self):
        small_l2 = CacheGeometry(size_bytes=32 * 1024, ways=8, line_bytes=64)
        with pytest.raises(ConfigurationError):
            footprint_bytes(get_event("LDL2"), L1, small_l2)


class TestSweepPlan:
    def test_mask(self):
        plan = SweepPlan(base=0, footprint=4096, offset=64)
        assert plan.mask == 4095

    def test_num_slots(self):
        plan = SweepPlan(base=0, footprint=4096, offset=64)
        assert plan.num_slots == 64

    def test_addresses_cycle_back(self):
        plan = SweepPlan(base=0x1000, footprint=256, offset=64)
        addresses = plan.addresses()
        assert len(addresses) == 4
        assert addresses[-1] == 0x1000  # ends back at base

    def test_addresses_stay_in_array(self):
        plan = SweepPlan(base=0x10000, footprint=1024, offset=64)
        for address in plan.addresses():
            assert 0x10000 <= address < 0x10000 + 1024

    def test_non_power_of_two_footprint_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepPlan(base=0, footprint=3000, offset=64)

    def test_unaligned_base_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepPlan(base=100, footprint=4096, offset=64)

    def test_plan_sweep_aligns_base(self):
        plan = plan_sweep(get_event("LDM"), L1, L2, base=BASE_ADDRESS_A)
        assert plan.base % plan.footprint == 0


@given(
    footprint_log2=st.integers(min_value=7, max_value=14),
    start_slot=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=50, deadline=None)
def test_sweep_update_formula_cycles_all_slots(footprint_log2, start_slot):
    """Property: the paper's pointer update visits every slot exactly once
    per cycle, from any starting point."""
    footprint = 1 << footprint_log2
    plan = SweepPlan(base=0, footprint=footprint, offset=64)
    start = (start_slot % plan.num_slots) * 64
    addresses = plan.addresses(start=start)
    assert len(set(addresses)) == plan.num_slots


def _hierarchy() -> MemoryHierarchy:
    return MemoryHierarchy(
        l1_geometry=CacheGeometry(1024, 2, 64),
        l2_geometry=CacheGeometry(8192, 4, 64),
    )


class TestPriming:
    def test_l1_sweep_hits_after_priming(self):
        hierarchy = _hierarchy()
        plan = SweepPlan(base=0x10000, footprint=512, offset=64)  # fits L1
        prime_for_sweep(hierarchy, plan, is_write=False)
        for address in plan.addresses():
            assert hierarchy.access(address, False).level == "L1"

    def test_l2_sweep_misses_l1_hits_l2(self):
        hierarchy = _hierarchy()
        plan = SweepPlan(base=0x10000, footprint=4096, offset=64)  # 4x L1, fits L2
        prime_for_sweep(hierarchy, plan, is_write=False)
        levels = {hierarchy.access(a, False).level for a in plan.addresses()}
        assert levels == {"L2"}

    def test_memory_sweep_always_misses(self):
        hierarchy = _hierarchy()
        plan = SweepPlan(base=0x10000, footprint=16384, offset=64)  # 2x L2
        prime_for_sweep(hierarchy, plan, is_write=False)
        levels = {hierarchy.access(a, False).level for a in plan.addresses()}
        assert levels == {"MEM"}

    def test_store_priming_marks_dirty(self):
        hierarchy = _hierarchy()
        plan = SweepPlan(base=0x10000, footprint=512, offset=64)
        prime_for_sweep(hierarchy, plan, is_write=True)
        assert hierarchy.l1.dirty_lines() == 8

    def test_priming_leaves_stats_clean(self):
        hierarchy = _hierarchy()
        plan = SweepPlan(base=0x10000, footprint=4096, offset=64)
        prime_for_sweep(hierarchy, plan, is_write=False)
        assert hierarchy.l1.stats.accesses == 0
        assert hierarchy.l2.stats.accesses == 0

    def test_priming_matches_brute_force_warm(self):
        """Priming must be behaviour-equivalent to sweeping the array to
        steady state the slow way."""
        plan = SweepPlan(base=0x10000, footprint=4096, offset=64)
        primed = _hierarchy()
        prime_for_sweep(primed, plan, is_write=True)
        brute = _hierarchy()
        for _sweep in range(3):
            for address in plan.addresses():
                brute.access(address, True)
        for address in plan.addresses():
            report_primed = primed.access(address, True)
            report_brute = brute.access(address, True)
            assert report_primed.level == report_brute.level
            assert report_primed.l1_writeback == report_brute.l1_writeback

    def test_no_reset_priming_preserves_earlier_sweep(self):
        hierarchy = _hierarchy()
        plan_a = SweepPlan(base=0x10000, footprint=512, offset=64)
        plan_b = SweepPlan(base=0x40000, footprint=512, offset=64)
        prime_for_sweep(hierarchy, plan_a, is_write=False)
        prime_for_sweep(hierarchy, plan_b, is_write=False, reset=False)
        # Both half-L1-sized arrays fit L1 together (2 x 512 B in 1 KiB).
        assert hierarchy.access(plan_a.addresses()[0], False).level == "L1"
        assert hierarchy.access(plan_b.addresses()[0], False).level == "L1"


def _prime_from_list(hierarchy, plan, is_write, reset=True):
    """``prime_for_sweep`` with its tails sliced from a list of every line."""
    if reset:
        hierarchy.reset()
    line = hierarchy.line_bytes
    sweep_lines = [plan.base + slot * line for slot in range(plan.footprint // line)]
    l2_capacity = hierarchy.l2_geometry.size_bytes // line
    l1_capacity = hierarchy.l1_geometry.size_bytes // line
    l2_tail = sweep_lines[-l2_capacity:] if len(sweep_lines) > l2_capacity else sweep_lines
    pointers._install_lines(
        hierarchy.l2, l2_tail, dirty=is_write and len(sweep_lines) > l2_capacity
    )
    l1_tail = sweep_lines[-l1_capacity:] if len(sweep_lines) > l1_capacity else sweep_lines
    pointers._install_lines(hierarchy.l1, l1_tail, dirty=is_write)


def _assert_same_state(actual, expected):
    """Installed lines, dirty bits and counters of both levels agree."""
    for cache, reference in ((actual.l1, expected.l1), (actual.l2, expected.l2)):
        assert np.array_equal(cache._tags, reference._tags)
        assert np.array_equal(cache._dirty, reference._dirty)
        assert np.array_equal(cache._occupancy, reference._occupancy)
        assert vars(cache.stats) == vars(reference.stats)
    assert actual.offchip_accesses == expected.offchip_accesses


class TestPrimingFromRange:
    """The range-built tails install what the list-built ones did."""

    @pytest.mark.parametrize("footprint", (512, 4096, 16384), ids=("l1", "l2", "offchip"))
    @pytest.mark.parametrize("is_write", (False, True), ids=("load", "store"))
    def test_toy_hierarchy(self, footprint, is_write):
        plan = SweepPlan(base=0x10000, footprint=footprint, offset=64)
        primed, reference = _hierarchy(), _hierarchy()
        for hierarchy in (primed, reference):
            # Earlier traffic: non-zero counters that priming must keep.
            for address in range(0x80000, 0x80000 + 64 * 40, 64):
                hierarchy.access(address, True)
        prime_for_sweep(primed, plan, is_write, reset=False)
        _prime_from_list(reference, plan, is_write, reset=False)
        _assert_same_state(primed, reference)

    @pytest.mark.parametrize("event", ("LDL1", "STL1", "LDL2", "STL2", "LDM", "STM"))
    def test_core2duo_sweeps(self, event):
        event = get_event(event)
        primed = CORE2DUO.make_core().hierarchy
        reference = CORE2DUO.make_core().hierarchy
        plan = plan_sweep(event, primed.l1_geometry, primed.l2_geometry)
        prime_for_sweep(primed, plan, event.is_store)
        _prime_from_list(reference, plan, event.is_store)
        _assert_same_state(primed, reference)
