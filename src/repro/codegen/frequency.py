"""Alternation-frequency planning.

Section III: "The value of inst_loop_count allows us to control the
number of alternations per second, and we select a value that produces
the desired alternation frequency for our measurements."  Because the
two halves can have very different per-iteration costs (an ADD iteration
is a few cycles, an LDM iteration includes a ~200-cycle off-chip access),
the solver first measures each event's steady-state cycles-per-iteration
with a short primed probe run, then picks the ``inst_loop_count`` whose
full period lands closest to the requested frequency.

Just as on real hardware, the achieved frequency is *not* exactly the
requested one (``inst_loop_count`` is an integer, and cache state drifts
slightly) — this is the frequency shift visible in the paper's Figure 7,
and it is why measurements integrate a +/-1 kHz band instead of a single
spectral bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MeasurementError
from repro.isa.events import InstructionEvent
from repro.uarch.cache import CacheGeometry
from repro.uarch.core import Core
from repro.codegen.alternation import (
    AlternationSpec,
    POINTER_REGISTER_A,
    build_probe_program,
    plan_alternation,
)
from repro.codegen.pointers import prime_for_sweep

#: Iteration count used by the cycles-per-iteration probe.
PROBE_ITERATIONS = 64


@dataclass(frozen=True)
class FrequencyPlan:
    """Outcome of alternation-frequency planning for one A/B pair."""

    spec: AlternationSpec
    target_frequency_hz: float
    predicted_frequency_hz: float
    cycles_per_iteration_a: float
    cycles_per_iteration_b: float

    @property
    def predicted_period_cycles(self) -> float:
        """Predicted cycles in one full A+B alternation period."""
        return self.spec.inst_loop_count * (
            self.cycles_per_iteration_a + self.cycles_per_iteration_b
        )

    @property
    def pairs_per_second(self) -> float:
        """A/B instruction pairs executed per second.

        Each alternation period contains ``inst_loop_count`` A
        instructions and the same number of B instructions, i.e.
        ``inst_loop_count`` A/B pairs; the paper divides the measured
        band power by this rate to obtain per-pair signal energy.
        """
        return self.spec.inst_loop_count * self.predicted_frequency_hz


def measure_cycles_per_iteration(
    core: Core,
    event: InstructionEvent,
    iterations: int = PROBE_ITERATIONS,
) -> float:
    """Steady-state cycles per loop iteration for ``event`` on ``core``.

    Runs a primed single-event probe loop and divides out the iteration
    count.  The one-instruction loop preamble (``mov ecx, N``) is
    excluded.
    """
    plan = plan_sweep_for_core(core, event)
    program = build_probe_program(event, iterations, plan, POINTER_REGISTER_A)
    prime_for_sweep(core.hierarchy, plan, is_write=event.is_store)
    core.registers[POINTER_REGISTER_A] = plan.base
    core.registers["eax"] = 173
    result = core.run(program, warm_hierarchy=True)
    preamble_cycles = core.timings.mov_cycles
    return max(result.cycles - preamble_cycles, iterations) / iterations


def plan_sweep_for_core(core: Core, event: InstructionEvent):
    """Sweep plan for ``event`` using ``core``'s cache geometry."""
    from repro.codegen.pointers import plan_sweep

    return plan_sweep(
        event, core.hierarchy.l1_geometry, core.hierarchy.l2_geometry
    )


def solve_inst_loop_count(
    core: Core,
    event_a: InstructionEvent,
    event_b: InstructionEvent,
    target_frequency_hz: float,
    max_inst_loop_count: int = 1_000_000,
) -> FrequencyPlan:
    """Choose ``inst_loop_count`` so the alternation lands on the target
    frequency, and return the full plan.

    Raises
    ------
    MeasurementError
        If the target frequency is not positive and finite, or if even
        a single iteration per half would alternate slower than the
        target allows (i.e. the requested frequency is too high for this
        pair on this machine).
    """
    cpi_a = measure_cycles_per_iteration(core, event_a)
    cpi_b = measure_cycles_per_iteration(core, event_b)
    return plan_for_cycles(
        event_a,
        event_b,
        cpi_a,
        cpi_b,
        core.clock_hz,
        core.hierarchy.l1_geometry,
        core.hierarchy.l2_geometry,
        target_frequency_hz,
        max_inst_loop_count,
    )


def plan_for_cycles(
    event_a: InstructionEvent,
    event_b: InstructionEvent,
    cpi_a: float,
    cpi_b: float,
    clock_hz: float,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    target_frequency_hz: float,
    max_inst_loop_count: float = math.inf,
) -> FrequencyPlan:
    """The plan for a pair whose cycles per iteration are already known.

    ``inst_loop_count`` is the integer (at least 1, at most
    ``max_inst_loop_count``) nearest to the count whose predicted period
    lands on ``target_frequency_hz``.  Raises :class:`MeasurementError`
    under the same conditions as :func:`solve_inst_loop_count`.
    """
    if not (math.isfinite(target_frequency_hz) and target_frequency_hz > 0):
        raise MeasurementError(
            f"alternation frequency must be positive and finite, got {target_frequency_hz}"
        )
    period_cycles_target = clock_hz / target_frequency_hz
    raw_count = period_cycles_target / (cpi_a + cpi_b)
    if raw_count < 0.5:
        raise MeasurementError(
            f"cannot alternate {event_a.name}/{event_b.name} at "
            f"{target_frequency_hz:.0f} Hz: one iteration pair already takes "
            f"{cpi_a + cpi_b:.0f} cycles ({clock_hz / (cpi_a + cpi_b):.0f} Hz max)"
        )
    inst_loop_count = min(max(round(raw_count), 1), max_inst_loop_count)
    spec = plan_alternation(event_a, event_b, l1_geometry, l2_geometry, inst_loop_count)
    predicted_period = inst_loop_count * (cpi_a + cpi_b)
    return FrequencyPlan(
        spec=spec,
        target_frequency_hz=target_frequency_hz,
        predicted_frequency_hz=clock_hz / predicted_period,
        cycles_per_iteration_a=cpi_a,
        cycles_per_iteration_b=cpi_b,
    )
