"""Bit-identity of the vectorized fast path against the reference path.

The fast path (NumPy sweep priming, steady-state loop replay, and
array-backed activity recording) is only allowed to exist because it is
*indistinguishable* from the scalar reference implementation: same
activity trace bytes, same cache contents and counters, same predictor
history, same statistics.  These tests prove that property over every
ordered pair of the paper's eleven events (at reduced loop counts so the
exhaustive sweep stays fast) and over full-sized measurements for a few
representative pairs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.alternation import build_alternation_program, plan_alternation
from repro.core import savat
from repro.core.savat import measure_savat
from repro.isa.events import EVENT_ORDER, get_event
from repro.machines.calibrated import load_calibrated_machine
from repro.machines.calibration import clear_profile_cache
from repro.uarch.fastpath import use_fast_path, use_reference_path


@pytest.fixture
def small_priming(monkeypatch):
    """Cap warm-up replay so the exhaustive pair sweep stays quick."""
    monkeypatch.setattr(savat, "MAX_PRIME_PERIODS", 64)


@pytest.fixture(scope="module")
def machines():
    return {
        name: load_calibrated_machine(name, 0.10)
        for name in ("core2duo", "pentium3m", "turionx2")
    }


def _hierarchy_digest(hierarchy):
    """Complete cache-hierarchy state: lines in LRU order plus counters."""

    def cache_digest(cache):
        return (
            tuple(
                tuple((line.tag, line.dirty) for line in cache_set)
                for cache_set in cache._sets
            ),
            vars(cache.stats).copy(),
        )

    return (
        cache_digest(hierarchy.l1),
        cache_digest(hierarchy.l2),
        hierarchy.offchip_accesses,
    )


def _stats_digest(stats):
    return (
        stats.instructions,
        stats.cycles,
        stats.test_instructions,
        dict(stats.opcode_counts),
        dict(stats.level_counts),
    )


def _run_pair(machine, name_a, name_b, inst_loop_count):
    """Prime, warm-up, and measure one alternation period; return state."""
    spec = plan_alternation(
        get_event(name_a),
        get_event(name_b),
        machine.spec.l1_geometry,
        machine.spec.l2_geometry,
        inst_loop_count,
    )
    core = machine.make_core()
    program = build_alternation_program(spec)
    pointer_a, pointer_b = savat.prime_alternation_steady_state(core, spec)
    registers = spec.initial_registers()
    registers["esi"] = pointer_a
    registers["edi"] = pointer_b
    for name, value in registers.items():
        core.registers[name] = value
    warmup = core.run(program, warm_hierarchy=True)
    measured = core.run(program, warm_hierarchy=True)
    return {
        "pointers": (pointer_a, pointer_b),
        "warmup_data": warmup.trace.data,
        "data": measured.trace.data,
        "registers": dict(core.registers),
        "zero_flag": core.zero_flag,
        "memory": dict(core.memory),
        "hierarchy": _hierarchy_digest(core.hierarchy),
        "predictor": (
            core.predictor.stats.predictions,
            core.predictor.stats.mispredictions,
            dict(core.predictor._counters),
        ),
        "stats": (_stats_digest(warmup.stats), _stats_digest(measured.stats)),
    }


def _assert_identical(fast, reference, context):
    assert fast["pointers"] == reference["pointers"], context
    assert np.array_equal(fast["warmup_data"], reference["warmup_data"]), context
    assert np.array_equal(fast["data"], reference["data"]), context
    for key in ("registers", "zero_flag", "memory", "hierarchy", "predictor", "stats"):
        assert fast[key] == reference[key], f"{context}: {key} differs"


@pytest.mark.parametrize("name_a", EVENT_ORDER)
@pytest.mark.parametrize("name_b", EVENT_ORDER)
def test_all_pairs_bit_identical_on_core2duo(machines, small_priming, name_a, name_b):
    """Every ordered event pair: trace bytes and all state identical."""
    machine = machines["core2duo"]
    with use_fast_path():
        fast = _run_pair(machine, name_a, name_b, inst_loop_count=6)
    with use_reference_path():
        reference = _run_pair(machine, name_a, name_b, inst_loop_count=6)
    _assert_identical(fast, reference, f"{name_a}/{name_b}")


@pytest.mark.parametrize("machine_name", ("pentium3m", "turionx2"))
def test_event_ring_bit_identical_on_other_machines(machines, small_priming, machine_name):
    """A ring of adjacent event pairs, both orders, on the other machines."""
    machine = machines[machine_name]
    names = list(EVENT_ORDER)
    for index, name_a in enumerate(names):
        name_b = names[(index + 1) % len(names)]
        for pair in ((name_a, name_b), (name_b, name_a)):
            with use_fast_path():
                fast = _run_pair(machine, *pair, inst_loop_count=5)
            with use_reference_path():
                reference = _run_pair(machine, *pair, inst_loop_count=5)
            _assert_identical(fast, reference, f"{machine_name} {pair}")


@pytest.mark.slow
@pytest.mark.parametrize("pair", (("ADD", "SUB"), ("LDM", "STM"), ("STL2", "DIV")))
def test_full_measurement_fields_identical(pair):
    """Full-size measure_savat: every numeric result field is bit-equal."""
    machine = load_calibrated_machine("core2duo", 0.10)
    clear_profile_cache()
    with use_fast_path():
        fast = measure_savat(machine, *pair)
    clear_profile_cache()
    with use_reference_path():
        reference = measure_savat(machine, *pair)
    for field in (
        "savat_zj",
        "signal_band_power_w",
        "noise_band_power_w",
        "pairs_per_second",
        "achieved_frequency_hz",
    ):
        assert getattr(fast, field) == getattr(reference, field), field
    assert fast.plan.spec.inst_loop_count == reference.plan.spec.inst_loop_count
    assert fast.plan.cycles_per_iteration_a == reference.plan.cycles_per_iteration_a
    assert fast.plan.cycles_per_iteration_b == reference.plan.cycles_per_iteration_b
