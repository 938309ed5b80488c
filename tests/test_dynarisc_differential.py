"""The pre-decoded DynaRisc interpreter against the per-step reference.

:class:`~repro.dynarisc.emulator.DynaRiscEmulator` caches decoded
instructions and keeps the machine state in local variables while it runs;
``tests/oracles/dynarisc_reference.py`` executes one :meth:`step` at a time
straight from memory.  Random programs — every opcode field, register field
and reserved-bit pattern, immediates aimed at the code itself, at the ports
and anywhere else — must leave both machines in the same state and raise the
same error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.dynarisc_reference import ReferenceDynaRiscEmulator
from repro.dynarisc import DynaRiscAssembler, DynaRiscEmulator
from repro.dynarisc.isa import (
    INPUT_PORT,
    MEMORY_BYTES,
    OPCODES_WITH_IMMEDIATE,
    OUTPUT_PORT,
    Opcode,
)
from repro.dynarisc.programs import get_program
from repro.errors import ExecutionLimitExceeded, MachineFault, ReproError

_MAX_INSTRUCTIONS = 48
_MAX_PROGRAM_BYTES = 4 * _MAX_INSTRUCTIONS


def _run(emulator, entry=None):
    try:
        return ("ok", emulator.run(entry))
    except ReproError as exc:
        return (type(exc), str(exc))


def _state(emulator) -> dict:
    return {
        "output": bytes(emulator.output),
        "registers": list(emulator.registers),
        "flags": (emulator.flags.zero, emulator.flags.negative, emulator.flags.carry),
        "pc": emulator.pc,
        "steps": emulator.steps,
        "input_pos": emulator.input_pos,
        "halted": emulator.halted,
        "memory": bytes(emulator.memory),
        "trace": list(emulator.trace_log),
    }


def _assert_same_run(fast, reference, entry=None):
    outcome = _run(fast, entry)
    assert outcome == _run(reference, entry)
    assert _state(fast) == _state(reference)
    return outcome


def _mostly(common, rare):
    """Draw from ``common`` about nine times in ten, else from ``rare``."""
    return st.integers(0, 9).flatmap(lambda roll: rare if roll == 0 else common)


@st.composite
def _machines(draw):
    """(program, origin, input, step limit, trace, extra steps on resume).

    Most fields are valid so that programs run for a while; every invalid
    opcode, register field, JCOND condition and reserved-bit pattern still
    occurs.
    """
    count = draw(st.integers(1, _MAX_INSTRUCTIONS))
    origin = draw(st.one_of(
        st.just(0),
        st.integers(0, MEMORY_BYTES - _MAX_PROGRAM_BYTES),
        st.just(MEMORY_BYTES - _MAX_PROGRAM_BYTES),
    ))
    immediate = st.one_of(
        st.integers(origin, origin + _MAX_PROGRAM_BYTES - 1),  # into the code
        st.sampled_from([INPUT_PORT, OUTPUT_PORT]),
        st.integers(0, 0xFFFF),
    )
    opcode = _mostly(st.integers(1, 22), st.integers(0, 31))
    register = _mostly(st.integers(0, 12), st.integers(0, 15))
    condition = _mostly(st.integers(0, 5), st.integers(0, 15))
    reserved = _mostly(st.just(0), st.integers(0, 7))
    code = bytearray()
    for _ in range(count):
        op = draw(opcode)
        rd = draw(condition if op == Opcode.JCOND else register)
        word = (op << 11) | (rd << 7) | (draw(register) << 3) | draw(reserved)
        code += word.to_bytes(2, "little")
        if op in OPCODES_WITH_IMMEDIATE:
            code += draw(immediate).to_bytes(2, "little")
    return (
        bytes(code),
        origin,
        draw(st.binary(max_size=48)),
        draw(st.integers(1, 5_000)),
        draw(st.booleans()),
        draw(st.integers(0, 2_000)),
    )


@settings(max_examples=300, deadline=None)
@given(_machines())
def test_random_programs_match_the_reference(machine):
    code, origin, input_data, step_limit, trace, resume = machine
    fast, reference = (
        cls(code, input_data=input_data, origin=origin, step_limit=step_limit, trace=trace)
        for cls in (DynaRiscEmulator, ReferenceDynaRiscEmulator)
    )
    _assert_same_run(fast, reference)
    # Resuming after a halt, a fault or an exhausted budget continues from
    # the written-back state on both machines.
    fast.step_limit = reference.step_limit = step_limit + resume
    _assert_same_run(fast, reference)


#: A register file with edge values: 0 (r0 points at the code itself), 1, the
#: sign boundary, all ones, both ports (r7, d0), shift amounts (d2 = 15,
#: d3 = 3) and the default stack top.
_REGISTER_FILE = [0x0000, 0x0001, 0x7FFF, 0x8000, 0xFFFF, 0x00FF, 0x1234, INPUT_PORT,
                  OUTPUT_PORT, 0x0100, 0x000F, 0x0003, 0x7F00]


@pytest.mark.parametrize("carry", [False, True])
def test_every_single_instruction_matches_the_reference(carry):
    """Each opcode field, every rd field and a spread of rs fields, one step."""
    for opcode in range(32):
        for rd in range(16):
            for rs in (0, 1, 2, 4, 7, 8, 10, 12, 13, 15):
                word = (opcode << 11) | (rd << 7) | (rs << 3)
                code = word.to_bytes(2, "little") + (0x8000).to_bytes(2, "little")
                machines = [
                    cls(code, input_data=b"\x80", step_limit=1)
                    for cls in (DynaRiscEmulator, ReferenceDynaRiscEmulator)
                ]
                for machine in machines:
                    machine.registers[:] = _REGISTER_FILE
                    machine.flags.carry = carry
                _assert_same_run(*machines)


def _both(source: str, step_limit: int = 10_000):
    program = DynaRiscAssembler().assemble(source)
    return program, [
        cls(program.code, step_limit=step_limit)
        for cls in (DynaRiscEmulator, ReferenceDynaRiscEmulator)
    ]


def test_store_rewrites_an_immediate_the_loop_already_ran():
    program, (fast, reference) = _both("""
    start:
        LDI d3, #OUTPUT_PORT
        LDI d0, #14          ; the low byte of patch's immediate
        LDI r1, #0
        patch:
        LDI r0, #0x41        ; executes once as 'A', then as 'B'
        STM r0, [d3]
        LDI r3, #0x42
        STM r3, [d0]
        LDI r2, #1
        ADD r1, r2
        LDI r2, #3
        CMP r1, r2
        JCOND ne, patch
        HALT
    """)
    assert program.symbols["patch"] == 12
    assert _assert_same_run(fast, reference) == ("ok", b"ABB")


def test_call_pushing_over_a_cached_instruction():
    program, (fast, reference) = _both("""
    start:
        LDI d3, #OUTPUT_PORT
    again:
        LDI r0, #0x41        ; after the CALL its first word is the return
        STM r0, [d3]         ; address 0x0012, which decodes as HALT
        LDI sp, #6
        CALL sub
        HALT
    sub:
        JUMP again
    """)
    assert (program.symbols["again"], program.symbols["sub"]) == (4, 20)
    assert _assert_same_run(fast, reference) == ("ok", b"A")
    assert fast.memory[4:6] == bytes([0x12, 0x00])


def test_instruction_straddling_the_top_of_memory():
    code = DynaRiscAssembler().assemble("""
        LDI d3, #OUTPUT_PORT
        MOVE r0, r0
        LDI r0, #0x5A        ; its word straddles 0xFFFF -> 0x0000
        STM r0, [d3]
        HALT
    """).code
    origin = 0xFFF9
    split = MEMORY_BYTES - origin
    machines = []
    for cls in (DynaRiscEmulator, ReferenceDynaRiscEmulator):
        emulator = cls(origin=origin, trace=True)
        emulator.load(code[:split], origin)
        emulator.load(code[split:], 0)
        machines.append(emulator)
    fast, reference = machines
    assert _assert_same_run(fast, reference) == ("ok", b"\x5a")
    assert [entry.pc for entry in fast.trace_log] == [0xFFF9, 0xFFFD, 0xFFFF, 0x0003, 0x0005]


def test_archived_decoder_matches_the_reference_step_for_step():
    program = get_program("lzss_decoder")
    stream = bytes([0b11111011, 0x61, 0x62, 0x02, 0x00, 0x63, 0x64, 0x65, 0x66, 0x67])
    fast, reference = (
        cls(program.code, input_data=stream, trace=True)
        for cls in (DynaRiscEmulator, ReferenceDynaRiscEmulator)
    )
    outcome = _assert_same_run(fast, reference, program.entry)
    assert outcome == ("ok", b"ab" + b"aba" + b"cdefg")


class TestAddressChecks:
    CODE = DynaRiscAssembler().assemble("start: HALT").code

    @pytest.mark.parametrize("origin", [-2, -1, MEMORY_BYTES - 1, MEMORY_BYTES])
    def test_origin_outside_memory_is_a_fault(self, origin):
        with pytest.raises(MachineFault):
            DynaRiscEmulator(self.CODE, origin=origin)

    def test_origin_at_the_top_of_memory_fits(self):
        emulator = DynaRiscEmulator(self.CODE, origin=MEMORY_BYTES - len(self.CODE))
        assert len(emulator.memory) == MEMORY_BYTES
        assert emulator.run() == b"" and emulator.pc == 0

    def test_load_outside_memory_is_a_fault(self):
        emulator = DynaRiscEmulator()
        with pytest.raises(MachineFault):
            emulator.load(b"\x00\x00", -2)
        assert len(emulator.memory) == MEMORY_BYTES

    @pytest.mark.parametrize("entry", [-1, 0x10000, 0x1FFFF])
    def test_entry_outside_memory_is_a_fault(self, entry):
        emulator = DynaRiscEmulator(self.CODE)
        with pytest.raises(MachineFault, match="entry point"):
            emulator.run(entry)
        assert emulator.pc == 0 and emulator.steps == 0

    def test_step_limit_counts_the_instructions_before_it(self):
        emulator = DynaRiscEmulator(DynaRiscAssembler().assemble("start: JUMP start").code,
                                    step_limit=7)
        with pytest.raises(ExecutionLimitExceeded, match="exceeded 7 steps"):
            emulator.run()
        assert emulator.steps == 7
