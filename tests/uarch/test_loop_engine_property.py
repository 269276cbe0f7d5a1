"""Randomized property test: the fast loop path vs the reference interpreter.

``Core.run`` replays a recognized Figure 4 loop through its batched
engine only when the loop count is at least one, the whole loop fits in
``max_instructions``, and the test slot's register effects have a closed
form.  Every other loop steps through the reference interpreter even
with the fast path on.  Hypothesis drives loops on both sides of each
condition — every test-slot kind, destinations aliasing the
pointer-update scratch registers, every starting predictor counter, and
instruction budgets below, at and above the loop's length — and checks
that the fast path is indistinguishable from ``use_reference_path()``.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.isa.instructions import Instruction, Opcode, imm, mem, reg
from repro.isa.program import Program
from repro.uarch.cache import CacheGeometry
from repro.uarch.core import Core
from repro.uarch.fastpath import use_fast_path, use_reference_path
from repro.uarch.functional_units import FunctionalUnitTimings

POINTER = "esi"
COUNTER = "ecx"
#: Registers a loop may use as its two pointer-update scratch registers
#: or as a test-slot destination ("eax" as scratch makes an IDIV
#: dividend alias the pointer update).
_GENERAL = ("eax", "ebx", "edx", "edi", "ebp")
_ALU_OPCODES = (
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
)
_WORDS = st.integers(min_value=0, max_value=0xFFFFFFFF)


def _core() -> Core:
    """Small caches, so short loops reach L1, L2 and memory."""
    return Core(
        clock_hz=1e9,
        l1_geometry=CacheGeometry(512, 2, 64),
        l2_geometry=CacheGeometry(4096, 4, 64),
        timings=FunctionalUnitTimings(div_cycles=7, mul_cycles=3),
    )


def _test_instruction(kind: str, dest: str, value: int) -> Instruction | None:
    if kind == "none":
        return None
    if kind == "load":
        source = mem(POINTER, displacement=8)
        return Instruction(Opcode.LOAD, dest=reg(dest), src=source, role="test")
    if kind == "store":
        target = mem(POINTER, displacement=4)
        return Instruction(Opcode.STORE, dest=target, src=imm(value), role="test")
    if kind == "imul":
        return Instruction(Opcode.IMUL, dest=reg(dest), src=imm(value), role="test")
    if kind == "idiv":
        return Instruction(Opcode.IDIV, dest=reg(dest), role="test")
    opcode = _ALU_OPCODES[value % len(_ALU_OPCODES)]
    return Instruction(opcode, dest=reg(dest), src=imm(value), role="test")


def _loop_program(scratch1, scratch2, offset, mask, test) -> Program:
    """The Figure 4 loop body (pointer update, test slot, dec/jnz), then halt."""
    advanced = mem(POINTER, displacement=offset)
    body = [
        Instruction(Opcode.LEA, dest=reg(scratch1), src=advanced, label="top"),
        Instruction(Opcode.AND, dest=reg(scratch1), src=imm(mask)),
        Instruction(Opcode.MOV, dest=reg(scratch2), src=reg(POINTER)),
        Instruction(Opcode.AND, dest=reg(scratch2), src=imm(mask ^ 0xFFFFFFFF)),
        Instruction(Opcode.OR, dest=reg(scratch2), src=reg(scratch1)),
        Instruction(Opcode.MOV, dest=reg(POINTER), src=reg(scratch2)),
    ]
    if test is not None:
        body.append(test)
    body += [
        Instruction(Opcode.DEC, dest=reg(COUNTER)),
        Instruction(Opcode.JNZ, target="top"),
        Instruction(Opcode.HALT),
    ]
    return Program(body, name="loop")


@st.composite
def _loops(draw):
    scratch1, scratch2 = draw(st.permutations(_GENERAL[:3]))[:2]
    free = [name for name in _GENERAL if name not in (scratch1, scratch2)]
    kind = draw(st.sampled_from(("none", "load", "store", "alu", "imul", "idiv")))
    dest = draw(st.sampled_from(free + [scratch1, scratch2]))
    test = _test_instruction(kind, dest, draw(_WORDS))
    offset = draw(st.sampled_from((4, 64, 192)))
    mask = (1 << draw(st.integers(min_value=7, max_value=14))) - 1
    program = _loop_program(scratch1, scratch2, offset, mask, test)

    count = draw(st.integers(min_value=1, max_value=400))
    length = count * (len(program) - 1)
    where = draw(st.sampled_from(("below", "at", "above")))
    slack = draw(st.integers(min_value=1, max_value=length))
    budget = {"below": length - slack, "at": length, "above": length + slack}[where]

    registers = {name: draw(_WORDS) for name in _GENERAL}
    registers[POINTER] = 0x40000 | draw(st.integers(min_value=0, max_value=mask))
    registers[COUNTER] = count
    predictor_counter = draw(st.integers(min_value=0, max_value=3))
    return program, registers, predictor_counter, budget


def _run(toggle, program, registers, predictor_counter, budget):
    """Run once under ``toggle``; return everything observable."""
    core = _core()
    core.registers.update(registers)
    jnz_pc = len(program) - 2
    core.predictor._counters[jnz_pc] = predictor_counter
    with toggle():
        try:
            result = core.run(program, max_instructions=budget)
        except SimulationError as error:
            outcome = ("error", str(error))
        else:
            stats = result.stats
            outcome = (
                "ok",
                result.trace.data.tobytes(),
                result.cycles,
                stats.instructions,
                dict(stats.opcode_counts),
                dict(stats.level_counts),
                stats.test_instructions,
                result.registers,
            )
    return {
        "outcome": outcome,
        "registers": dict(core.registers),
        "zero_flag": core.zero_flag,
        "memory": dict(core.memory),
        "predictor": (
            dict(core.predictor._counters),
            core.predictor.stats.predictions,
            core.predictor.stats.mispredictions,
        ),
        "caches": (
            vars(core.hierarchy.l1.stats).copy(),
            vars(core.hierarchy.l2.stats).copy(),
            core.hierarchy.offchip_accesses,
        ),
    }


@given(loop=_loops())
@settings(max_examples=150, deadline=None)
# An IDIV loop that passes its budget 111 iterations in, at the next LEA.
@example(
    loop=(
        _loop_program("ebx", "edx", 64, 0x3FFF, _test_instruction("idiv", "edi", 0)),
        {"eax": 1 << 30, "edi": 3, POINTER: 0x40000, COUNTER: 300},
        1,
        1000,
    )
)
def test_fast_path_loops_match_reference_interpreter(loop):
    """Property: every Figure 4 loop — batched, or stepped because it is
    unsafe or over budget — matches the reference path in trace bytes,
    cycles, statistics, architectural and predictor state, and the
    ``max_instructions`` error text."""
    fast = _run(use_fast_path, *loop)
    reference = _run(use_reference_path, *loop)
    for key in reference:
        assert fast[key] == reference[key], key

