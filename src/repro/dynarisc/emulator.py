"""The DynaRisc emulator.

In the Micr'Olonys deployment this emulator is itself an archived VeRisc
program (see :mod:`repro.nested`).  This module is the interpreter that runs
DynaRisc machine code on a contemporary machine: ``decode_mode="dynarisc"``
restores run the archived DBCoder decoder under it, and the encoders of today
use it to check the programs they archive.

:meth:`DynaRiscEmulator.run` is one interpreter loop.  Registers, flags, the
program counter, the step count and the input position live in local
variables while it runs.  Each program counter is decoded once per run into a
tuple (opcode, rd, rs, immediate, next pc, fault) held in a dict; a store
(``STM`` or the return address a ``CALL`` pushes) onto a byte that a cached
instruction covers drops the whole cache, so self-modifying code executes
exactly as if every instruction were fetched from memory.  The per-step
interpreter it is checked against lives in
``tests/oracles/dynarisc_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dynarisc.isa import (
    DEFAULT_STACK_TOP,
    INPUT_PORT,
    MEMORY_BYTES,
    OPCODES_WITH_IMMEDIATE,
    OUTPUT_PORT,
    REGISTER_COUNT,
    WORD_MASK,
    Condition,
    Opcode,
    Register,
)
from repro.errors import ExecutionLimitExceeded, InvalidInstructionError, MachineFault


@dataclass
class Flags:
    """The DynaRisc condition flags."""

    zero: bool = False
    negative: bool = False
    carry: bool = False


@dataclass
class TraceEntry:
    """One executed instruction, recorded when tracing is enabled."""

    pc: int
    opcode: Opcode
    rd: int
    rs: int
    immediate: int | None
    registers: tuple[int, ...] = field(default_factory=tuple)


#: A decoded instruction: opcode, rd, rs, immediate (0 when the opcode takes
#: none), next pc, and the message of the fault executing it raises (a
#: register field that names no register, or an invalid JCOND condition).
_Decoded = tuple[int, int, int, int, int, str | None]

_IMMEDIATE_OPCODES = frozenset(int(opcode) for opcode in OPCODES_WITH_IMMEDIATE)
#: Opcodes whose rd field must name a register (MOVE through ROR) ...
_RD_CHECKED = frozenset(range(Opcode.MOVE, Opcode.ROR + 1))
#: ... and those whose rs field must too.
_RS_CHECKED = _RD_CHECKED - {Opcode.LDI, Opcode.NOT}


def _decode(memory: bytearray, pc: int) -> _Decoded:
    """Decode the instruction at ``pc`` (which must be a 16-bit address)."""
    word = memory[pc] | (memory[(pc + 1) & WORD_MASK] << 8)
    opcode = word >> 11
    if opcode >= len(Opcode):
        # ``from None``: the caller decodes on a cache miss (a KeyError).
        raise InvalidInstructionError(f"invalid opcode {opcode} at pc={pc:#06x}") from None
    rd = (word >> 7) & 0xF
    rs = (word >> 3) & 0xF
    next_pc = (pc + 2) & WORD_MASK
    immediate = 0
    if opcode in _IMMEDIATE_OPCODES:
        immediate = memory[next_pc] | (memory[(next_pc + 1) & WORD_MASK] << 8)
        next_pc = (next_pc + 2) & WORD_MASK
    fault: str | None = None
    if opcode in _RD_CHECKED and rd >= REGISTER_COUNT:
        fault = f"register field {rd} does not name a register"
    elif opcode in _RS_CHECKED and rs >= REGISTER_COUNT:
        fault = f"register field {rs} does not name a register"
    elif opcode == Opcode.JCOND and rd > Condition.PL:
        fault = f"invalid JCOND condition: {rd}"
    return opcode, rd, rs, immediate, next_pc, fault


class DynaRiscEmulator:
    """Interprets DynaRisc machine code.

    Parameters
    ----------
    program:
        Machine code bytes loaded at ``origin``.
    input_data:
        Byte stream readable through the memory-mapped input port.
    origin:
        Load address (and default entry point) of the program; the program
        must fit between it and the end of memory.
    step_limit:
        Safety budget against runaway archived programs.
    trace:
        When true, every executed instruction is appended to :attr:`trace_log`
        (used by tests and by the nested-emulation cross-checks).
    """

    def __init__(
        self,
        program: bytes = b"",
        input_data: bytes = b"",
        origin: int = 0,
        step_limit: int = 100_000_000,
        trace: bool = False,
    ):
        if not 0 <= origin <= WORD_MASK:
            raise MachineFault(f"origin {origin:#x} is outside DynaRisc memory")
        self.memory = bytearray(MEMORY_BYTES)
        self.registers = [0] * REGISTER_COUNT
        self.registers[Register.SP] = DEFAULT_STACK_TOP
        self.flags = Flags()
        self.pc = origin
        self.halted = False
        self.steps = 0
        self.step_limit = step_limit
        self.origin = origin
        self.input_data = bytes(input_data)
        self.input_pos = 0
        self.output = bytearray()
        self.trace_enabled = trace
        self.trace_log: list[TraceEntry] = []
        if program:
            self.load(program, origin)

    def load(self, data: bytes, origin: int = 0) -> None:
        """Copy ``data`` into memory at ``origin``."""
        if origin < 0 or origin + len(data) > MEMORY_BYTES:
            raise MachineFault("program does not fit in DynaRisc memory")
        self.memory[origin:origin + len(data)] = data

    def run(self, entry: int | None = None) -> bytes:
        """Run until HALT; return the bytes written to the output port.

        Raises
        ------
        ExecutionLimitExceeded
            Before the instruction that would exceed ``step_limit``.
        InvalidInstructionError
            On an opcode field that names no instruction, or an invalid JCOND
            condition.
        MachineFault
            On an entry point outside memory, or a register field that names
            no register.
        """
        start = self.pc if entry is None else entry
        if not 0 <= start <= WORD_MASK:
            raise MachineFault(f"entry point {start:#x} is outside DynaRisc memory")
        self.pc = start
        if self.halted:
            return bytes(self.output)
        memory = self.memory
        regs = self.registers
        output = self.output
        data = self.input_data
        data_len = len(data)
        limit = self.step_limit
        trace = self.trace_log if self.trace_enabled else None
        flags = self.flags
        z, n, c = flags.zero, flags.negative, flags.carry
        pc, steps, in_pos, halted = self.pc, self.steps, self.input_pos, False
        cache: dict[int, _Decoded] = {}
        covered = bytearray(MEMORY_BYTES)  # 1 where a cached instruction lies
        try:
            while True:
                if steps >= limit:
                    raise ExecutionLimitExceeded(f"DynaRisc program exceeded {limit} steps")
                try:
                    op, rd, rs, imm, npc, fault = cache[pc]
                except KeyError:
                    decoded = cache[pc] = _decode(memory, pc)
                    for offset in range((decoded[4] - pc) & 0xFFFF):
                        covered[(pc + offset) & 0xFFFF] = 1
                    op, rd, rs, imm, npc, fault = decoded
                if trace is not None:
                    trace.append(TraceEntry(pc, Opcode(op), rd, rs,
                                            imm if op in _IMMEDIATE_OPCODES else None,
                                            tuple(regs)))
                pc = npc
                if fault is not None:
                    if op == Opcode.JCOND:
                        raise InvalidInstructionError(fault)
                    raise MachineFault(fault)
                steps += 1
                # The branches run in order of how often the archived LZSS
                # decoder executes them.
                if op == 2:  # LDI
                    regs[rd] = imm
                    z = imm == 0
                    n = imm > 0x7FFF
                elif op == 5:  # ADD
                    v = regs[rd] + regs[rs]
                    c = v > 0xFFFF
                    regs[rd] = v = v & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 11:  # AND
                    regs[rd] = v = regs[rd] & regs[rs] & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 7:  # SUB
                    v = regs[rd] - regs[rs]
                    c = v < 0
                    regs[rd] = v = v & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 1:  # MOVE
                    regs[rd] = v = regs[rs] & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 4:  # STM: rd = pointer register, rs = source register
                    address = regs[rd] & 0xFFFF
                    if address == OUTPUT_PORT:
                        output.append(regs[rs] & 0xFF)
                    else:
                        memory[address] = regs[rs] & 0xFF
                        if covered[address]:
                            cache.clear()
                            covered = bytearray(MEMORY_BYTES)
                elif op == 9:  # CMP
                    v = regs[rd] - regs[rs]
                    c = v < 0
                    v &= 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 20:  # JCOND: rd = condition
                    if rd == 0:  # EQ
                        if z:
                            pc = imm
                    elif rd == 2:  # CS
                        if c:
                            pc = imm
                    elif rd == 1:  # NE
                        if not z:
                            pc = imm
                    elif rd == 3:  # CC
                        if not c:
                            pc = imm
                    elif rd == 4:  # MI
                        if n:
                            pc = imm
                    elif not n:  # PL
                        pc = imm
                elif op == 3:  # LDM
                    address = regs[rs] & 0xFFFF
                    if address == INPUT_PORT:
                        if in_pos < data_len:
                            v = data[in_pos]
                            in_pos += 1
                            c = False
                        else:
                            v = 0
                            c = True
                    else:
                        v = memory[address]
                    regs[rd] = v
                    z = v == 0
                    n = False  # a byte never has bit 15 set
                elif op == 21:  # CALL: push the return address below SP (register 12)
                    sp = regs[12] = (regs[12] - 2) & 0xFFFF
                    high = (sp + 1) & 0xFFFF
                    memory[sp] = pc & 0xFF
                    memory[high] = pc >> 8
                    pc = imm
                    if covered[sp] or covered[high]:
                        cache.clear()
                        covered = bytearray(MEMORY_BYTES)
                elif op == 22:  # RET: pop the return address off SP
                    sp = regs[12]
                    address = sp & 0xFFFF
                    pc = memory[address] | (memory[(address + 1) & 0xFFFF] << 8)
                    regs[12] = (sp + 2) & 0xFFFF
                elif op == 19:  # JUMP
                    pc = imm
                elif op == 0:  # HALT
                    halted = True
                    break
                elif op == 6:  # ADC
                    v = regs[rd] + regs[rs] + (1 if c else 0)
                    c = v > 0xFFFF
                    regs[rd] = v = v & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 8:  # SBB
                    v = regs[rd] - regs[rs] - (1 if c else 0)
                    c = v < 0
                    regs[rd] = v = v & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 10:  # MUL
                    v = regs[rd] * regs[rs]
                    c = v > 0xFFFF
                    regs[rd] = v = v & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 12:  # OR
                    regs[rd] = v = (regs[rd] | regs[rs]) & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 13:  # XOR
                    regs[rd] = v = (regs[rd] ^ regs[rs]) & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                elif op == 14:  # NOT
                    regs[rd] = v = ~regs[rd] & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
                else:  # LSL, LSR, ASR, ROR: shift rd by rs & 15 bits
                    amount = regs[rs] & 0xF
                    v = regs[rd]
                    if amount:
                        if op == 15:  # LSL
                            c = bool((v << amount) & 0x10000)
                            v = (v << amount) & 0xFFFF
                        elif op == 16:  # LSR
                            c = bool((v >> (amount - 1)) & 1)
                            v >>= amount
                        elif op == 17:  # ASR
                            c = bool((v >> (amount - 1)) & 1)
                            sign = v & 0x8000
                            for _ in range(amount):
                                v = (v >> 1) | sign
                        else:  # ROR
                            for _ in range(amount):
                                c = bool(v & 1)
                                v = (v >> 1) | ((v & 1) << 15)
                    regs[rd] = v = v & 0xFFFF
                    z = v == 0
                    n = v > 0x7FFF
        finally:
            self.pc, self.steps, self.input_pos, self.halted = pc, steps, in_pos, halted
            flags.zero, flags.negative, flags.carry = z, n, c
        return bytes(output)
