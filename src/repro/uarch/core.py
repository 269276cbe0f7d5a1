"""Cycle-level in-order core: executes programs and records activity.

The core is a functional-plus-timing interpreter.  It executes the
x86-like subset architecturally (registers, flags, flat memory) while
charging cycles and depositing per-component switching activity
according to the machine's :class:`~repro.uarch.functional_units`
models and the cache hierarchy's access reports.

Modeling choices (documented trade-offs):

* **In-order, blocking.**  The alternation kernels are tight dependent
  loops, so out-of-order overlap would mostly hide L1 latency; we model
  that by charging L1 hits a single effective cycle while charging L2
  and off-chip accesses their full latency.
* **Two-bit branch prediction.**  The kernel's loop branches are
  monotonically taken and predict almost perfectly after warm-up; the
  predictor model exists for the Section VII branch events (BRH/BRM),
  where mispredictions flush the front end with a visible activity
  burst.
* **Write-back buffering.**  Dirty write-backs cost activity (L2/bus/
  DRAM switching) but no demand latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.isa.instructions import (
    Immediate,
    Instruction,
    MemoryOperand,
    Opcode,
    Operand,
    Register,
    WORD_MASK,
)
from repro.isa.program import Program
from repro.uarch.activity import ActivityRecorder, ActivityTrace
from repro.uarch.branch import BranchPredictor
from repro.uarch.cache import CacheGeometry
from repro.uarch.components import Component
from repro.uarch.fastpath import fast_path_enabled
from repro.uarch.functional_units import ActivityModel, FunctionalUnitTimings
from repro.uarch.hierarchy import MemoryAccessReport, MemoryHierarchy, MemoryLatencies

#: Default cap on executed instructions, as a runaway-loop backstop.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000

#: Architectural register file (also the shell cores used for template
#: capture start from this set).
_REGISTER_NAMES = ("eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp")

#: Memory hierarchy levels in :meth:`MemoryHierarchy.access_stream_reports`
#: level-code order.
_LEVEL_NAMES = ("L1", "L2", "MEM")

#: ALU opcodes accepted in a fast loop's test slot (immediate source).
_FAST_TEST_ALU = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
    }
)


@dataclass(frozen=True)
class FastLoopTest:
    """Recognized test-slot instruction of a fast loop (see Figure 4)."""

    kind: str  # "load" | "store" | "alu" | "imul" | "idiv"
    opcode: Opcode
    dest_name: str | None
    displacement: int
    immediate: int
    is_write: bool


@dataclass(frozen=True)
class FastLoopPlan:
    """Structural constants of one recognized alternation-style loop.

    The plan captures everything the replay engine needs: the loop's pc
    range, the registers it owns, the pointer-update constants, and the
    (optional) test-slot descriptor.  It contains no per-core state, so
    caching it on the :class:`~repro.isa.program.Program` is safe even
    when the same program runs on differently-configured cores.
    """

    head_pc: int
    jnz_pc: int
    ptr_reg: str
    scratch1: str
    scratch2: str
    loop_reg: str
    offset: int
    mask: int
    test: FastLoopTest | None

    @property
    def body_len(self) -> int:
        """Instructions per iteration (pointer update + test + dec/jnz)."""
        return self.jnz_pc - self.head_pc + 1


def _match_fast_test(
    instruction: Instruction, ptr_reg: str, loop_reg: str
) -> FastLoopTest | None:
    """Recognize a test-slot instruction the replay engine can model."""
    opcode = instruction.opcode
    reserved = (ptr_reg, loop_reg)
    if opcode is Opcode.LOAD:
        dest = instruction.dest
        src = instruction.src
        if (
            isinstance(dest, Register)
            and dest.name not in reserved
            and isinstance(src, MemoryOperand)
            and src.base is not None
            and src.base.name == ptr_reg
            and src.index is None
        ):
            return FastLoopTest("load", opcode, dest.name, src.displacement, 0, False)
        return None
    if opcode is Opcode.STORE:
        dest = instruction.dest
        src = instruction.src
        if (
            isinstance(dest, MemoryOperand)
            and dest.base is not None
            and dest.base.name == ptr_reg
            and dest.index is None
            and isinstance(src, Immediate)
        ):
            return FastLoopTest(
                "store", opcode, None, dest.displacement, src.value & WORD_MASK, True
            )
        return None
    if opcode in _FAST_TEST_ALU or opcode is Opcode.IMUL:
        dest = instruction.dest
        if (
            isinstance(dest, Register)
            and dest.name not in reserved
            and isinstance(instruction.src, Immediate)
        ):
            kind = "imul" if opcode is Opcode.IMUL else "alu"
            return FastLoopTest(
                kind, opcode, dest.name, 0, instruction.src.value & WORD_MASK, False
            )
        return None
    if opcode is Opcode.IDIV:
        dest = instruction.dest
        # IDIV only *reads* its destination (the divisor); its writes hit
        # the implicit eax/edx pair, which must not be loop-owned.
        if (
            isinstance(dest, Register)
            and "eax" not in reserved
            and "edx" not in reserved
        ):
            return FastLoopTest("idiv", opcode, dest.name, 0, 0, False)
        return None
    return None


def _match_fast_loop(program: Program, head: int, jnz_pc: int) -> FastLoopPlan | None:
    """Match the Figure 4 loop body between ``head`` and ``jnz_pc``."""
    body = program.instructions[head : jnz_pc + 1]
    if len(body) not in (8, 9):
        return None
    # Nothing may branch into the middle of the body.
    if any(instruction.label is not None for instruction in body[1:]):
        return None

    lea, and1, mov1, and2, or1, mov2 = body[:6]
    if lea.opcode is not Opcode.LEA or not isinstance(lea.dest, Register):
        return None
    src = lea.src
    if not isinstance(src, MemoryOperand) or src.base is None or src.index is not None:
        return None
    scratch1 = lea.dest.name
    ptr_reg = src.base.name
    offset = src.displacement

    if (
        and1.opcode is not Opcode.AND
        or not isinstance(and1.dest, Register)
        or and1.dest.name != scratch1
        or not isinstance(and1.src, Immediate)
    ):
        return None
    mask = and1.src.value & WORD_MASK

    if (
        mov1.opcode is not Opcode.MOV
        or not isinstance(mov1.dest, Register)
        or not isinstance(mov1.src, Register)
        or mov1.src.name != ptr_reg
    ):
        return None
    scratch2 = mov1.dest.name

    if (
        and2.opcode is not Opcode.AND
        or not isinstance(and2.dest, Register)
        or and2.dest.name != scratch2
        or not isinstance(and2.src, Immediate)
        or (and2.src.value & WORD_MASK) != (mask ^ WORD_MASK)
    ):
        return None

    if (
        or1.opcode is not Opcode.OR
        or not isinstance(or1.dest, Register)
        or or1.dest.name != scratch2
        or not isinstance(or1.src, Register)
        or or1.src.name != scratch1
    ):
        return None

    if (
        mov2.opcode is not Opcode.MOV
        or not isinstance(mov2.dest, Register)
        or mov2.dest.name != ptr_reg
        or not isinstance(mov2.src, Register)
        or mov2.src.name != scratch2
    ):
        return None

    if len({ptr_reg, scratch1, scratch2}) != 3:
        return None

    dec = body[-2]
    if dec.opcode is not Opcode.DEC or not isinstance(dec.dest, Register):
        return None
    loop_reg = dec.dest.name
    if loop_reg in (ptr_reg, scratch1, scratch2):
        return None

    test: FastLoopTest | None = None
    if len(body) == 9:
        test = _match_fast_test(body[6], ptr_reg, loop_reg)
        if test is None:
            return None

    return FastLoopPlan(
        head_pc=head,
        jnz_pc=jnz_pc,
        ptr_reg=ptr_reg,
        scratch1=scratch1,
        scratch2=scratch2,
        loop_reg=loop_reg,
        offset=offset,
        mask=mask,
        test=test,
    )


def _find_loop_plans(program: Program) -> dict[int, FastLoopPlan]:
    """Find replayable Figure 4 loops in ``program`` (cached per program)."""
    cached = getattr(program, "_fast_loop_plans", None)
    if cached is not None:
        return cached
    plans: dict[int, FastLoopPlan] = {}
    for jnz_pc, instruction in enumerate(program.instructions):
        if instruction.opcode is not Opcode.JNZ:
            continue
        head = program.label_index(instruction.target)  # type: ignore[arg-type]
        if head >= jnz_pc:
            continue
        plan = _match_fast_loop(program, head, jnz_pc)
        if plan is not None:
            plans[plan.head_pc] = plan
    program._fast_loop_plans = plans  # type: ignore[attr-defined]
    return plans


def _batched_test_safe(plan: FastLoopPlan) -> bool:
    """True when the test slot's final register state has a closed form.

    The batched replay applies the pointer-update register effects once
    and the test-slot effects as an independent evolution.  That is only
    valid when the test never reads a register the update rewrites each
    iteration: an ALU/IMUL/IDIV destination aliasing a scratch register
    would be re-seeded by every pointer update, and an IDIV dividend in a
    scratch register likewise.  Loads and stores are always safe — their
    only register write (the load destination) lands after the final
    pointer update on both paths.
    """
    test = plan.test
    if test is None or test.kind in ("load", "store"):
        return True
    scratch = (plan.scratch1, plan.scratch2)
    if test.dest_name in scratch:
        return False
    if test.kind == "idiv" and "eax" in scratch:
        return False
    return True


@dataclass
class ExecutionStats:
    """Counters describing one simulation run."""

    instructions: int = 0
    cycles: int = 0
    opcode_counts: dict[Opcode, int] = field(default_factory=dict)
    level_counts: dict[str, int] = field(default_factory=dict)
    test_instructions: int = 0

    def count_opcode(self, opcode: Opcode) -> None:
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + 1

    def count_level(self, level: str) -> None:
        self.level_counts[level] = self.level_counts.get(level, 0) + 1


class SimulationResult:
    """Trace plus statistics from one :meth:`Core.run` call.

    The dense trace is materialized from the run's recorder on the first
    read of :attr:`trace` and cached.  A caller that needs only
    :attr:`cycles` or :attr:`duration_s` — a warm-up run, a CPI probe, a
    discarded retune attempt — never builds it.
    """

    def __init__(
        self,
        recorder: ActivityRecorder,
        stats: ExecutionStats,
        registers: dict[str, int],
    ) -> None:
        self.stats = stats
        self.registers = registers
        self.clock_hz = recorder.clock_hz
        self._recorder: ActivityRecorder | None = recorder
        self._trace: ActivityTrace | None = None

    @property
    def trace(self) -> ActivityTrace:
        """The run's activity trace (built on first read)."""
        if self._trace is None:
            self._trace = self._recorder.finish(max(self.stats.cycles, 1))
            self._recorder = None
        return self._trace

    @property
    def cycles(self) -> int:
        """Total simulated cycles."""
        return self.stats.cycles

    @property
    def duration_s(self) -> float:
        """Simulated wall-clock duration in seconds (the trace's length)."""
        return max(self.stats.cycles, 1) / self.clock_hz


class Core:
    """An in-order core bound to a cache hierarchy and activity models."""

    def __init__(
        self,
        clock_hz: float,
        l1_geometry: CacheGeometry,
        l2_geometry: CacheGeometry,
        latencies: MemoryLatencies | None = None,
        timings: FunctionalUnitTimings | None = None,
        activity: ActivityModel | None = None,
    ) -> None:
        if clock_hz <= 0:
            raise SimulationError(f"clock frequency must be positive, got {clock_hz}")
        self.clock_hz = clock_hz
        self.timings = timings or FunctionalUnitTimings()
        self.activity = activity or ActivityModel()
        self.hierarchy = MemoryHierarchy(
            l1_geometry, l2_geometry, latencies or MemoryLatencies()
        )
        self.predictor = BranchPredictor()
        self.registers: dict[str, int] = {}
        self.memory: dict[int, int] = {}
        self.zero_flag = False
        #: Lazily-built bare core used to capture activity templates.
        self._shell: Core | None = None
        #: (id(program), head_pc) -> (program, captured loop templates).
        self._loop_template_cache: dict[tuple[int, int], tuple[Program, dict]] = {}
        self.reset()

    def reset(self) -> None:
        """Clear architectural and microarchitectural state."""
        self.registers = {name: 0 for name in _REGISTER_NAMES}
        self.memory = {}
        self.zero_flag = False
        self.hierarchy.reset()
        self.predictor.reset()

    # ------------------------------------------------------------------
    # Operand helpers
    # ------------------------------------------------------------------
    def _read(self, operand: Operand) -> int:
        if isinstance(operand, Register):
            return self.registers[operand.name]
        if isinstance(operand, Immediate):
            return operand.value & WORD_MASK
        raise SimulationError(f"cannot read operand {operand!r} directly")

    def _write_register(self, operand: Operand | None, value: int) -> None:
        if not isinstance(operand, Register):
            raise SimulationError(f"destination must be a register, got {operand!r}")
        self.registers[operand.name] = value & WORD_MASK

    def effective_address(self, operand: MemoryOperand) -> int:
        """Compute the byte address of a memory operand."""
        address = operand.displacement
        if operand.base is not None:
            address += self.registers[operand.base.name]
        if operand.index is not None:
            address += self.registers[operand.index.name] * operand.scale
        return address & WORD_MASK

    def _set_zero_flag(self, value: int) -> None:
        self.zero_flag = (value & WORD_MASK) == 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: Program,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        warm_hierarchy: bool = False,
    ) -> SimulationResult:
        """Execute ``program`` until HALT or falling off the end.

        With the fast path on, a recognized Figure 4 loop whose count is
        at least one, that fits in ``max_instructions`` and that passes
        :func:`_batched_test_safe` runs through the batched engine.
        Everything else steps through :meth:`_step_instruction`, so the
        backstop raises at the same instruction on both paths.

        Parameters
        ----------
        program:
            The program to run.
        max_instructions:
            Backstop against runaway loops; exceeding it raises
            :class:`SimulationError`.
        warm_hierarchy:
            If False (default) the cache hierarchy is reset first.  Pass
            True to keep existing cache state — the measurement path
            runs a warm-up pass and then measures in steady state, like
            the paper's free-running alternation loop.
        """
        if not warm_hierarchy:
            self.hierarchy.reset()
        recorder = ActivityRecorder(self.clock_hz)
        stats = ExecutionStats()
        cycle = 0
        pc = 0
        program_length = len(program)
        fast_bodies = _find_loop_plans(program) if fast_path_enabled() else {}

        while pc < program_length:
            if program[pc].opcode is Opcode.HALT:
                break
            if stats.instructions >= max_instructions:
                raise SimulationError(
                    f"program {program.name!r} exceeded {max_instructions} instructions; "
                    "missing halt or runaway loop?"
                )
            plan = fast_bodies.get(pc)
            if plan is not None:
                total = self.registers[plan.loop_reg]
                if (
                    total >= 1
                    and stats.instructions + total * plan.body_len <= max_instructions
                    and _batched_test_safe(plan)
                ):
                    cycle, pc = self._run_fast_loop_batched(
                        program, plan, cycle, recorder, stats, total
                    )
                    continue
            duration, pc = self._step_instruction(program, pc, cycle, recorder, stats)
            cycle += duration

        stats.cycles = cycle
        return SimulationResult(recorder, stats, dict(self.registers))

    def _step_instruction(
        self,
        program: Program,
        pc: int,
        cycle: int,
        recorder: ActivityRecorder,
        stats: ExecutionStats,
    ) -> tuple[int, int]:
        """Execute the instruction at ``pc``; return (duration, next pc).

        This is the reference per-instruction step: front-end activity,
        execution semantics, branch prediction, and statistics.  Both
        :meth:`run` and the batched engine's template capture go through
        it, so the two paths share one definition of behaviour.
        """
        instruction = program[pc]
        opcode = instruction.opcode
        activity = self.activity

        # Front-end work: identical for every instruction.
        recorder.add(Component.FETCH, cycle, 1, activity.fetch)
        recorder.add(Component.DECODE, cycle, 1, activity.decode)
        recorder.add(Component.REGFILE, cycle, 1, activity.regfile)

        next_pc = pc + 1
        duration = self._execute(instruction, cycle, recorder, stats)
        if instruction.is_branch:
            taken = (
                opcode is Opcode.JMP
                or (opcode is Opcode.JNZ and not self.zero_flag)
                or (opcode is Opcode.JZ and self.zero_flag)
            )
            if taken:
                next_pc = program.label_index(instruction.target)  # type: ignore[arg-type]
            recorder.add(Component.BPRED, cycle, 1, activity.bpred_lookup)
            if opcode is not Opcode.JMP:  # conditional: direction predicted
                mispredicted = self.predictor.record(pc, taken)
                if mispredicted:
                    penalty = self.timings.branch_mispredict_cycles
                    duration += penalty
                    # Flush and refetch: the front end replays work.
                    recorder.add(
                        Component.FETCH,
                        cycle + 1,
                        penalty,
                        activity.flush_refetch / penalty,
                    )
                    recorder.add(
                        Component.DECODE,
                        cycle + 1,
                        penalty,
                        activity.flush_refetch / penalty,
                    )

        stats.instructions += 1
        stats.count_opcode(opcode)
        if instruction.role == "test":
            stats.test_instructions += 1
        return duration, next_pc

    # ------------------------------------------------------------------
    # Batched fast-loop engine
    # ------------------------------------------------------------------
    def _template_shell(self) -> "Core":
        """A bare core sharing this core's timing/activity models.

        The batched engine captures its templates by stepping real
        instructions through :meth:`_step_instruction` on this shell, so
        the recorded events are exactly those of the reference
        interpreter, without touching the measuring core's architectural
        or predictor state.  The shell has no cache hierarchy — memory
        instructions are never captured through it (their activity comes
        from :meth:`_memory_template`), and any accidental access fails
        loudly.
        """
        shell = self._shell
        if shell is None:
            shell = object.__new__(Core)
            shell.clock_hz = self.clock_hz
            shell.timings = self.timings
            shell.activity = self.activity
            shell.hierarchy = None  # type: ignore[assignment]
            shell.predictor = BranchPredictor()
            shell.registers = {name: 0 for name in _REGISTER_NAMES}
            shell.memory = {}
            shell.zero_flag = False
            self._shell = shell
        return shell

    def _capture_template(self, program, pcs, setup=None):
        """Step ``pcs`` on the shell core; return (ActivityBlock, duration)."""
        shell = self._template_shell()
        shell.registers = {name: 0 for name in _REGISTER_NAMES}
        shell.zero_flag = False
        shell.predictor = BranchPredictor()
        if setup is not None:
            setup(shell)
        recorder = ActivityRecorder(self.clock_hz)
        scratch = ExecutionStats()
        cycle = 0
        for pc in pcs:
            duration, _ = shell._step_instruction(program, pc, cycle, recorder, scratch)
            cycle += duration
        return recorder.extract_block(), cycle

    def _loop_templates(self, program: Program, plan: FastLoopPlan) -> dict:
        """Activity templates for one loop, captured once per (program, core)."""
        key = (id(program), plan.head_pc)
        entry = self._loop_template_cache.get(key)
        if entry is not None and entry[0] is program:
            return entry[1]

        head = plan.head_pc
        dec_pc = plan.jnz_pc - 1
        jnz_pc = plan.jnz_pc
        loop_reg = plan.loop_reg

        def branch_setup(counter: int):
            # loop_reg=5 makes DEC leave a non-zero count, so the branch
            # is taken; the counter seeds predicted-taken (3) or
            # predicted-not-taken (0) to select the epilogue variant.
            def setup(shell: Core) -> None:
                shell.registers[loop_reg] = 5
                shell.predictor._counters[jnz_pc] = counter

            return setup

        templates: dict = {
            "update": self._capture_template(program, range(head, head + 6)),
            # Branch activity is direction-independent (only the
            # mispredict flush differs), so one taken-branch capture per
            # variant covers the not-taken final iteration too.
            "branch": {
                False: self._capture_template(program, (dec_pc, jnz_pc), branch_setup(3)),
                True: self._capture_template(program, (dec_pc, jnz_pc), branch_setup(0)),
            },
            "memory": {},
        }
        test = plan.test
        if test is not None and test.kind not in ("load", "store"):
            templates["test"] = self._capture_template(program, (head + 6,))
        self._loop_template_cache[key] = (program, templates)
        return templates

    def _memory_template(
        self, templates: dict, signature: tuple[int, int, int], is_write: bool
    ):
        """Template for one cache-outcome signature of a memory test slot.

        ``signature`` is ``(level_code, l2_accesses, offchip_transfers)``
        as produced by :meth:`MemoryHierarchy.access_stream_reports`.
        The events depend only on the access report, never on cache
        state, so synthesizing the report directly is equivalent to
        capturing a live access with that outcome.
        """
        entry = templates["memory"].get(signature)
        if entry is None:
            level_code, l2_accesses, offchip = signature
            latencies = self.hierarchy.latencies
            report = MemoryAccessReport(
                level=_LEVEL_NAMES[level_code],
                latency_cycles=(
                    latencies.l1_cycles,
                    latencies.l2_cycles,
                    latencies.memory_cycles,
                )[level_code],
                l2_accesses=l2_accesses,
                offchip_transfers=offchip,
            )
            recorder = ActivityRecorder(self.clock_hz)
            activity = self.activity
            recorder.add(Component.FETCH, 0, 1, activity.fetch)
            recorder.add(Component.DECODE, 0, 1, activity.decode)
            recorder.add(Component.REGFILE, 0, 1, activity.regfile)
            recorder.add(Component.AGU, 0, 1, activity.agu_op)
            recorder.add(Component.L1D, 0, 1, activity.l1_access)
            if is_write:
                recorder.add(Component.WB_BUFFER, 0, 1, activity.wb_buffer)
            duration = self._memory_access_events(report, 0, recorder, ExecutionStats())
            entry = (recorder.extract_block(), duration)
            templates["memory"][signature] = entry
        return entry

    def _run_fast_loop_batched(
        self,
        program: Program,
        plan: FastLoopPlan,
        cycle: int,
        recorder: ActivityRecorder,
        stats: ExecutionStats,
        total: int,
    ) -> tuple[int, int]:
        """Replay all ``total`` iterations with array operations.

        :meth:`run` calls this only when ``total >= 1``, the whole loop
        fits in the instruction budget, and :func:`_batched_test_safe`
        holds.  The iteration schedule is closed-form: pointer lows
        advance arithmetically, the two-bit predictor saturates after at
        most two taken branches, and every iteration's duration is the
        sum of its three segment templates.  Activity lands via
        :meth:`ActivityRecorder.add_block_batch`; since
        :meth:`ActivityRecorder.finish` orders by the event multiset,
        the resulting trace is bit-identical to stepping every
        instruction.
        """
        registers = self.registers
        test = plan.test
        templates = self._loop_templates(program, plan)
        update_block, update_duration = templates["update"]

        mask = plan.mask
        inv_mask = mask ^ WORD_MASK
        pointer = registers[plan.ptr_reg]
        high = pointer & inv_mask
        low0 = pointer & mask
        steps = np.arange(1, total + 1, dtype=np.int64)
        lows = (low0 + steps * plan.offset) & mask

        # --- Branch schedule: replicate the two-bit counter exactly ---
        jnz_pc = plan.jnz_pc
        counters = self.predictor._counters
        counter = counters.get(jnz_pc, 1)
        mispredicted = np.zeros(total, dtype=bool)
        miss_count = 0
        index = 0
        while index < total:
            taken = index != total - 1
            if (counter >= 2) != taken:
                mispredicted[index] = True
                miss_count += 1
            if taken:
                if counter < 3:
                    counter += 1
            elif counter > 0:
                counter -= 1
            index += 1
            if counter == 3 and index < total - 1:
                # Saturated on a monotonically-taken run: every branch
                # up to (but excluding) the exit predicts correctly.
                index = total - 1
        counters[jnz_pc] = counter
        predictor_stats = self.predictor.stats
        predictor_stats.predictions += total
        predictor_stats.mispredictions += miss_count

        pred_block, pred_duration = templates["branch"][False]
        misp_block, misp_duration = templates["branch"][True]
        branch_durations = np.where(mispredicted, misp_duration, pred_duration)

        # --- Test-slot outcomes and durations ---------------------------
        addresses = None
        signature_keys = None
        if test is None:
            test_durations: np.ndarray | int = 0
        elif test.kind in ("load", "store"):
            addresses = ((high | lows) + test.displacement) & WORD_MASK
            level, l2_counts, offchip = self.hierarchy.access_stream_reports(
                addresses, test.is_write
            )
            latencies = self.hierarchy.latencies
            test_durations = np.where(
                level == 0,
                1,
                np.where(level == 1, latencies.l2_cycles, latencies.memory_cycles),
            )
            # Compact per-access signature (l2_accesses <= 3, offchip <= 3).
            signature_keys = level * 100 + l2_counts * 10 + offchip
        else:
            test_block, test_duration = templates["test"]
            test_durations = test_duration

        iteration_durations = update_duration + test_durations + branch_durations
        ends = np.cumsum(iteration_durations)
        update_bases = cycle + ends - iteration_durations
        test_bases = update_bases + update_duration
        branch_bases = test_bases + test_durations
        end_cycle = cycle + int(ends[-1])

        # --- Deposit activity -------------------------------------------
        recorder.add_block_batch(update_block, update_bases)
        if test is not None:
            if signature_keys is not None:
                level_counts = stats.level_counts
                for key in np.unique(signature_keys).tolist():
                    selector = signature_keys == key
                    block, _ = self._memory_template(
                        templates, (key // 100, (key // 10) % 10, key % 10), test.is_write
                    )
                    recorder.add_block_batch(block, test_bases[selector])
                    name = _LEVEL_NAMES[key // 100]
                    level_counts[name] = level_counts.get(name, 0) + int(selector.sum())
            else:
                recorder.add_block_batch(test_block, test_bases)
        if miss_count != total:
            recorder.add_block_batch(pred_block, branch_bases[~mispredicted])
        if miss_count:
            recorder.add_block_batch(misp_block, branch_bases[mispredicted])

        # --- Architectural effects --------------------------------------
        final_low = int(lows[-1])
        new_pointer = high | final_low
        registers[plan.scratch1] = final_low
        registers[plan.scratch2] = new_pointer
        registers[plan.ptr_reg] = new_pointer
        registers[plan.loop_reg] = 0
        self.zero_flag = True
        if test is not None:
            kind = test.kind
            if kind == "store":
                immediate = test.immediate
                self.memory.update(
                    (address, immediate) for address in addresses.tolist()
                )
            elif kind == "load":
                registers[test.dest_name] = self.memory.get(int(addresses[-1]), 0)
            elif kind == "alu":
                value = registers[test.dest_name]
                opcode = test.opcode
                immediate = test.immediate
                for _ in range(total):
                    value = self._alu(opcode, value, immediate)
                registers[test.dest_name] = value
            elif kind == "imul":
                value = registers[test.dest_name]
                immediate = test.immediate
                for _ in range(total):
                    value = (value * immediate) & WORD_MASK
                registers[test.dest_name] = value
            else:  # idiv: mirror the per-iteration semantics exactly
                dest = test.dest_name
                for _ in range(total):
                    divisor = registers[dest]
                    if divisor == 0:
                        divisor = 1
                    dividend = registers["eax"]
                    registers["eax"] = (dividend // divisor) & WORD_MASK
                    registers["edx"] = (dividend % divisor) & WORD_MASK

        # --- Statistics --------------------------------------------------
        stats.instructions += total * plan.body_len
        counts = stats.opcode_counts
        counts[Opcode.LEA] = counts.get(Opcode.LEA, 0) + total
        counts[Opcode.AND] = counts.get(Opcode.AND, 0) + 2 * total
        counts[Opcode.MOV] = counts.get(Opcode.MOV, 0) + 2 * total
        counts[Opcode.OR] = counts.get(Opcode.OR, 0) + total
        counts[Opcode.DEC] = counts.get(Opcode.DEC, 0) + total
        counts[Opcode.JNZ] = counts.get(Opcode.JNZ, 0) + total
        if test is not None:
            counts[test.opcode] = counts.get(test.opcode, 0) + total
            stats.test_instructions += total
        return end_cycle, plan.jnz_pc + 1

    def _execute(
        self,
        instruction: Instruction,
        cycle: int,
        recorder: ActivityRecorder,
        stats: ExecutionStats,
    ) -> int:
        """Apply one instruction's semantics; return its cycle cost."""
        opcode = instruction.opcode
        timings = self.timings
        activity = self.activity

        if opcode is Opcode.NOP:
            return timings.nop_cycles

        if opcode is Opcode.MOV:
            recorder.add(Component.ALU, cycle, 1, activity.mov_op)
            self._write_register(instruction.dest, self._read(instruction.src))
            return timings.mov_cycles

        if opcode in (Opcode.CMOVZ, Opcode.CMOVNZ):
            # Conditional move: identical timing and switching activity
            # whether or not the move commits - the microarchitectural
            # property that makes branchless code constant-signal.
            recorder.add(Component.ALU, cycle, 1, activity.alu_op)
            condition = self.zero_flag if opcode is Opcode.CMOVZ else not self.zero_flag
            if condition:
                self._write_register(instruction.dest, self._read(instruction.src))
            return timings.mov_cycles

        if opcode in (
            Opcode.ADD,
            Opcode.SUB,
            Opcode.AND,
            Opcode.OR,
            Opcode.XOR,
            Opcode.SHL,
            Opcode.SHR,
        ):
            recorder.add(Component.ALU, cycle, timings.alu_cycles, activity.alu_op)
            left = self._read(instruction.dest)
            right = self._read(instruction.src)
            result = self._alu(opcode, left, right)
            self._write_register(instruction.dest, result)
            self._set_zero_flag(result)
            return timings.alu_cycles

        if opcode in (Opcode.INC, Opcode.DEC):
            recorder.add(Component.ALU, cycle, timings.alu_cycles, activity.alu_op)
            delta = 1 if opcode is Opcode.INC else -1
            result = (self._read(instruction.dest) + delta) & WORD_MASK
            self._write_register(instruction.dest, result)
            self._set_zero_flag(result)
            return timings.alu_cycles

        if opcode in (Opcode.CMP, Opcode.TEST):
            recorder.add(Component.ALU, cycle, timings.alu_cycles, activity.alu_op)
            left = self._read(instruction.dest)
            right = self._read(instruction.src)
            if opcode is Opcode.CMP:
                self._set_zero_flag((left - right) & WORD_MASK)
            else:
                self._set_zero_flag(left & right)
            return timings.alu_cycles

        if opcode is Opcode.LEA:
            recorder.add(Component.AGU, cycle, timings.lea_cycles, activity.agu_op)
            if not isinstance(instruction.src, MemoryOperand):
                raise SimulationError(f"lea source must be a memory operand: {instruction}")
            self._write_register(instruction.dest, self.effective_address(instruction.src))
            return timings.lea_cycles

        if opcode is Opcode.IMUL:
            recorder.add(Component.MUL, cycle, timings.mul_cycles, activity.mul_per_cycle)
            result = (self._read(instruction.dest) * self._read(instruction.src)) & WORD_MASK
            self._write_register(instruction.dest, result)
            self._set_zero_flag(result)
            return timings.mul_cycles

        if opcode is Opcode.IDIV:
            recorder.add(Component.DIV, cycle, timings.div_cycles, activity.div_per_cycle)
            divisor = self._read(instruction.dest)
            if divisor == 0:
                # Architecturally this faults; the measurement kernels
                # guarantee a non-zero divisor, and the demo workloads
                # prefer a defined result over a modeled exception.
                divisor = 1
            dividend = self.registers["eax"]
            self.registers["eax"] = (dividend // divisor) & WORD_MASK
            self.registers["edx"] = (dividend % divisor) & WORD_MASK
            self._set_zero_flag(self.registers["eax"])
            return timings.div_cycles

        if opcode is Opcode.LOAD:
            return self._execute_memory(instruction, cycle, recorder, stats, is_write=False)

        if opcode is Opcode.STORE:
            return self._execute_memory(instruction, cycle, recorder, stats, is_write=True)

        if instruction.is_branch:
            return timings.branch_cycles

        raise SimulationError(f"unimplemented opcode {opcode!r}")

    @staticmethod
    def _alu(opcode: Opcode, left: int, right: int) -> int:
        if opcode is Opcode.ADD:
            return (left + right) & WORD_MASK
        if opcode is Opcode.SUB:
            return (left - right) & WORD_MASK
        if opcode is Opcode.AND:
            return left & right
        if opcode is Opcode.OR:
            return left | right
        if opcode is Opcode.XOR:
            return left ^ right
        if opcode is Opcode.SHL:
            return (left << (right & 31)) & WORD_MASK
        if opcode is Opcode.SHR:
            return (left & WORD_MASK) >> (right & 31)
        raise SimulationError(f"not an ALU opcode: {opcode!r}")

    def _execute_memory(
        self,
        instruction: Instruction,
        cycle: int,
        recorder: ActivityRecorder,
        stats: ExecutionStats,
        is_write: bool,
    ) -> int:
        activity = self.activity
        operand = instruction.dest if is_write else instruction.src
        if not isinstance(operand, MemoryOperand):
            raise SimulationError(f"memory instruction without memory operand: {instruction}")
        address = self.effective_address(operand)

        recorder.add(Component.AGU, cycle, 1, activity.agu_op)
        recorder.add(Component.L1D, cycle, 1, activity.l1_access)
        if is_write:
            recorder.add(Component.WB_BUFFER, cycle, 1, activity.wb_buffer)

        report = self.hierarchy.access(address, is_write)
        duration = self._memory_access_events(report, cycle, recorder, stats)

        # Architectural data movement.
        if is_write:
            self.memory[address] = self._read(instruction.src) & WORD_MASK
        else:
            self._write_register(instruction.dest, self.memory.get(address, 0))
        return duration

    def _memory_access_events(
        self,
        report,
        cycle: int,
        recorder: ActivityRecorder,
        stats: ExecutionStats,
    ) -> int:
        """Record the level-dependent activity of one hierarchy access.

        Shared by the reference interpreter (:meth:`_execute_memory`) and
        the fast-loop engine, which captures the emitted events as a
        per-cache-outcome template; everything here depends only on the
        access report, never on the absolute cycle.
        """
        activity = self.activity
        latencies = self.hierarchy.latencies
        stats.count_level(report.level)

        if report.level == "L1":
            return 1  # pipelined L1 hit

        # Fill activity into L1 plus L2 array activity, spread over
        # the L2 access window.
        recorder.add(Component.L1D, cycle, 1, activity.l1_fill)
        l2_window = max(latencies.l2_cycles, 1)
        for access_index in range(report.l2_accesses):
            recorder.add(
                Component.L2,
                cycle + access_index,
                l2_window,
                activity.l2_access / l2_window,
            )
        duration = latencies.l2_cycles
        if report.level == "MEM":
            duration = latencies.memory_cycles
        if report.offchip_transfers:
            bus_window = max(latencies.memory_cycles // 2, 1)
            recorder.add(
                Component.MEM_BUS,
                cycle,
                bus_window,
                report.offchip_transfers * activity.bus_per_transfer / bus_window,
            )
            recorder.add(
                Component.DRAM,
                cycle,
                bus_window,
                report.offchip_transfers * activity.dram_per_transfer / bus_window,
            )
        return duration
