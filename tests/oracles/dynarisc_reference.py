"""The per-instruction DynaRisc interpreter: the oracle for the fast emulator.

Every instruction goes through :meth:`ReferenceDynaRiscEmulator.step`: fetch
the word from memory, convert the opcode field to :class:`Opcode`, dispatch
through an if-chain and update the flags through the helper methods.  It is
slow and has no decode cache, which is what makes it a useful model for
:class:`repro.dynarisc.emulator.DynaRiscEmulator`: the two must agree on
output, registers, flags, pc, step count, input position, memory and every
exception (type and message).
"""

from __future__ import annotations

from repro.dynarisc.emulator import Flags, TraceEntry
from repro.dynarisc.isa import (
    DEFAULT_STACK_TOP,
    INPUT_PORT,
    MEMORY_BYTES,
    OUTPUT_PORT,
    REGISTER_COUNT,
    WORD_MASK,
    Condition,
    Opcode,
    Register,
)
from repro.errors import ExecutionLimitExceeded, InvalidInstructionError, MachineFault


class ReferenceDynaRiscEmulator:
    """Interprets DynaRisc machine code one :meth:`step` at a time.

    Takes the same constructor arguments as
    :class:`~repro.dynarisc.emulator.DynaRiscEmulator` and exposes the same
    state attributes.
    """

    def __init__(
        self,
        program: bytes = b"",
        input_data: bytes = b"",
        origin: int = 0,
        step_limit: int = 100_000_000,
        trace: bool = False,
    ):
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

    # ------------------------------------------------------------------ #
    # Loading and memory access
    # ------------------------------------------------------------------ #
    def load(self, data: bytes, origin: int = 0) -> None:
        """Copy ``data`` into memory at ``origin``."""
        if origin + len(data) > MEMORY_BYTES:
            raise MachineFault("program does not fit in DynaRisc memory")
        self.memory[origin:origin + len(data)] = data

    def read_byte(self, address: int) -> int:
        """Read a data byte, honouring the memory-mapped input port."""
        address &= WORD_MASK
        if address == INPUT_PORT:
            if self.input_pos >= len(self.input_data):
                self.flags.carry = True
                return 0
            value = self.input_data[self.input_pos]
            self.input_pos += 1
            self.flags.carry = False
            return value
        return self.memory[address]

    def write_byte(self, address: int, value: int) -> None:
        """Write a data byte, honouring the memory-mapped output port."""
        address &= WORD_MASK
        value &= 0xFF
        if address == OUTPUT_PORT:
            self.output.append(value)
            return
        self.memory[address] = value

    def read_word(self, address: int) -> int:
        """Read a little-endian 16-bit word from memory."""
        address &= WORD_MASK
        low = self.memory[address]
        high = self.memory[(address + 1) & WORD_MASK]
        return low | (high << 8)

    def write_word(self, address: int, value: int) -> None:
        """Write a little-endian 16-bit word to memory."""
        address &= WORD_MASK
        self.memory[address] = value & 0xFF
        self.memory[(address + 1) & WORD_MASK] = (value >> 8) & 0xFF

    # ------------------------------------------------------------------ #
    # Flag helpers
    # ------------------------------------------------------------------ #
    def _set_zn(self, value: int) -> int:
        value &= WORD_MASK
        self.flags.zero = value == 0
        self.flags.negative = bool(value & 0x8000)
        return value

    def _condition_met(self, condition: int) -> bool:
        try:
            cond = Condition(condition)
        except ValueError as exc:
            raise InvalidInstructionError(f"invalid JCOND condition: {condition}") from exc
        if cond == Condition.EQ:
            return self.flags.zero
        if cond == Condition.NE:
            return not self.flags.zero
        if cond == Condition.CS:
            return self.flags.carry
        if cond == Condition.CC:
            return not self.flags.carry
        if cond == Condition.MI:
            return self.flags.negative
        return not self.flags.negative

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Fetch, decode and execute one instruction."""
        if self.halted:
            return
        word = self.read_word(self.pc)
        opcode_field = (word >> 11) & 0x1F
        rd = (word >> 7) & 0xF
        rs = (word >> 3) & 0xF
        try:
            opcode = Opcode(opcode_field)
        except ValueError as exc:
            raise InvalidInstructionError(
                f"invalid opcode {opcode_field} at pc={self.pc:#06x}"
            ) from exc

        next_pc = (self.pc + 2) & WORD_MASK
        immediate = None
        if opcode in (Opcode.LDI, Opcode.JUMP, Opcode.JCOND, Opcode.CALL):
            immediate = self.read_word(next_pc)
            next_pc = (next_pc + 2) & WORD_MASK

        if self.trace_enabled:
            self.trace_log.append(
                TraceEntry(self.pc, opcode, rd, rs, immediate, tuple(self.registers))
            )

        regs = self.registers
        flags = self.flags
        self.pc = next_pc

        if opcode == Opcode.HALT:
            self.halted = True
        elif opcode == Opcode.MOVE:
            self._check_reg(rd)
            self._check_reg(rs)
            regs[rd] = self._set_zn(regs[rs])
        elif opcode == Opcode.LDI:
            self._check_reg(rd)
            regs[rd] = self._set_zn(immediate)
        elif opcode == Opcode.LDM:
            self._check_reg(rd)
            self._check_reg(rs)
            regs[rd] = self._set_zn(self.read_byte(regs[rs]))
        elif opcode == Opcode.STM:
            # rd field = pointer register, rs field = source register.
            self._check_reg(rd)
            self._check_reg(rs)
            self.write_byte(regs[rd], regs[rs] & 0xFF)
        elif opcode == Opcode.ADD:
            self._binary_add(rd, rs, carry_in=0)
        elif opcode == Opcode.ADC:
            self._binary_add(rd, rs, carry_in=1 if flags.carry else 0)
        elif opcode == Opcode.SUB:
            self._binary_sub(rd, rs, borrow_in=0, writeback=True)
        elif opcode == Opcode.SBB:
            self._binary_sub(rd, rs, borrow_in=1 if flags.carry else 0, writeback=True)
        elif opcode == Opcode.CMP:
            self._binary_sub(rd, rs, borrow_in=0, writeback=False)
        elif opcode == Opcode.MUL:
            self._check_reg(rd)
            self._check_reg(rs)
            product = regs[rd] * regs[rs]
            flags.carry = product > WORD_MASK
            regs[rd] = self._set_zn(product)
        elif opcode == Opcode.AND:
            self._check_reg(rd)
            self._check_reg(rs)
            regs[rd] = self._set_zn(regs[rd] & regs[rs])
        elif opcode == Opcode.OR:
            self._check_reg(rd)
            self._check_reg(rs)
            regs[rd] = self._set_zn(regs[rd] | regs[rs])
        elif opcode == Opcode.XOR:
            self._check_reg(rd)
            self._check_reg(rs)
            regs[rd] = self._set_zn(regs[rd] ^ regs[rs])
        elif opcode == Opcode.NOT:
            self._check_reg(rd)
            regs[rd] = self._set_zn(~regs[rd])
        elif opcode in (Opcode.LSL, Opcode.LSR, Opcode.ASR, Opcode.ROR):
            self._shift(opcode, rd, rs)
        elif opcode == Opcode.JUMP:
            self.pc = immediate
        elif opcode == Opcode.JCOND:
            if self._condition_met(rd):
                self.pc = immediate
        elif opcode == Opcode.CALL:
            sp = (regs[Register.SP] - 2) & WORD_MASK
            regs[Register.SP] = sp
            self.write_word(sp, self.pc)
            self.pc = immediate
        elif opcode == Opcode.RET:
            sp = regs[Register.SP]
            self.pc = self.read_word(sp)
            regs[Register.SP] = (sp + 2) & WORD_MASK
        else:  # pragma: no cover - the Opcode conversion above is exhaustive
            raise InvalidInstructionError(f"unhandled opcode {opcode!r}")
        self.steps += 1

    def _check_reg(self, index: int) -> None:
        if index >= REGISTER_COUNT:
            raise MachineFault(f"register field {index} does not name a register")

    def _binary_add(self, rd: int, rs: int, carry_in: int) -> None:
        self._check_reg(rd)
        self._check_reg(rs)
        total = self.registers[rd] + self.registers[rs] + carry_in
        self.flags.carry = total > WORD_MASK
        self.registers[rd] = self._set_zn(total)

    def _binary_sub(self, rd: int, rs: int, borrow_in: int, writeback: bool) -> None:
        self._check_reg(rd)
        self._check_reg(rs)
        total = self.registers[rd] - self.registers[rs] - borrow_in
        self.flags.carry = total < 0
        result = self._set_zn(total)
        if writeback:
            self.registers[rd] = result

    def _shift(self, opcode: Opcode, rd: int, rs: int) -> None:
        self._check_reg(rd)
        self._check_reg(rs)
        amount = self.registers[rs] & 0xF
        value = self.registers[rd]
        carry = self.flags.carry
        if amount:
            if opcode == Opcode.LSL:
                carry = bool((value << amount) & 0x10000)
                value = (value << amount) & WORD_MASK
            elif opcode == Opcode.LSR:
                carry = bool((value >> (amount - 1)) & 1)
                value >>= amount
            elif opcode == Opcode.ASR:
                carry = bool((value >> (amount - 1)) & 1)
                sign = value & 0x8000
                for _ in range(amount):
                    value = (value >> 1) | sign
            else:  # ROR
                for _ in range(amount):
                    carry = bool(value & 1)
                    value = (value >> 1) | ((value & 1) << 15)
        self.flags.carry = carry
        self.registers[rd] = self._set_zn(value)

    def run(self, entry: int | None = None) -> bytes:
        """Run until HALT; return the bytes written to the output port."""
        if entry is not None:
            self.pc = entry
        while not self.halted:
            if self.steps >= self.step_limit:
                raise ExecutionLimitExceeded(
                    f"DynaRisc program exceeded {self.step_limit} steps"
                )
            self.step()
        return bytes(self.output)
