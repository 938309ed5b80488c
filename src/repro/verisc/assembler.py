"""Assemblers for VeRisc.

Two layers are provided:

* :class:`VeRiscAssembler` — a tiny textual assembler for the four primitive
  instructions plus ``.word``/``.space`` directives and labels.  This is the
  level at which the Bootstrap document describes programs.

* :class:`MacroAssembler` — a programmatic builder exposing the synthetic
  operations (ADD, MOVE, INC/DEC, unconditional and conditional jumps,
  indirect loads and stores) that any real VeRisc programmer has to build out
  of the four primitives.  The nested DynaRisc-emulator-in-VeRisc
  (:mod:`repro.nested`) is written against this layer, which demonstrates that
  the four-instruction ISA genuinely suffices.

Control flow uses the two classic minimal-machine idioms, both documented in
the generated Bootstrap text: storing to the memory-mapped program counter is
a jump, and storing into the *operand word* of a later instruction
(self-modifying code) provides indirection and computed jumps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AssemblyError
from repro.verisc.isa import SPECIAL_ADDRESSES, WORD_MASK, Op
from repro.verisc.program import VeRiscProgram


# --------------------------------------------------------------------------- #
# Reference kinds used before symbol resolution
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LabelRef:
    """A reference to a label, optionally displaced by a word offset."""

    name: str
    offset: int = 0


@dataclass(frozen=True)
class ConstRef:
    """A reference to a pooled constant word holding ``value``."""

    value: int


Operand = int | LabelRef | ConstRef


class VeRiscAssembler:
    """Assemble VeRisc source text into a :class:`VeRiscProgram`.

    Syntax::

        ; comments start with a semicolon
        start:              ; labels end with a colon
            LD   value      ; operands: label, special name, decimal or 0x hex
            SBB  one
            ST   OUTPUT
            ST   HALT
        value: .word 65
        one:   .word 1
        buf:   .space 16    ; reserve 16 zero words
    """

    def assemble(self, source: str, origin: int = 0) -> VeRiscProgram:
        items: list[tuple[str, object]] = []
        labels: dict[str, int] = {}
        address = origin

        for line_number, raw_line in enumerate(source.splitlines(), start=1):
            line = raw_line.split(";", 1)[0].strip()
            if not line:
                continue
            while ":" in line:
                label, line = line.split(":", 1)
                label = label.strip()
                if not label.isidentifier():
                    raise AssemblyError(f"invalid label {label!r}", line=line_number)
                if label in labels:
                    raise AssemblyError(f"duplicate label {label!r}", line=line_number)
                labels[label] = address
                line = line.strip()
            if not line:
                continue
            mnemonic, _, rest = line.partition(" ")
            mnemonic = mnemonic.upper()
            rest = rest.strip()
            if mnemonic == ".WORD":
                values = [value.strip() for value in rest.split(",") if value.strip()]
                if not values:
                    raise AssemblyError(".word requires at least one value", line=line_number)
                for value in values:
                    items.append(("word", (value, line_number)))
                    address += 1
            elif mnemonic == ".SPACE":
                try:
                    count = int(rest, 0)
                except ValueError as exc:
                    raise AssemblyError(f"invalid .space count {rest!r}", line=line_number) from exc
                items.extend(("word", ("0", line_number)) for _ in range(count))
                address += count
            elif mnemonic in Op.__members__:
                if not rest:
                    raise AssemblyError(f"{mnemonic} requires an operand", line=line_number)
                items.append(("insn", (Op[mnemonic], rest, line_number)))
                address += 2
            else:
                raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line=line_number)

        words: list[int] = []
        for kind, payload in items:
            if kind == "word":
                text, line_number = payload
                words.append(self._resolve(text, labels, line_number))
            else:
                op, text, line_number = payload
                words.append(int(op))
                words.append(self._resolve(text, labels, line_number))
        entry = labels.get("start", origin)
        return VeRiscProgram(words=words, origin=origin, entry=entry, symbols=labels)

    @staticmethod
    def _resolve(text: str, labels: dict[str, int], line_number: int) -> int:
        text = text.strip()
        if text in labels:
            return labels[text] & WORD_MASK
        if text.upper() in SPECIAL_ADDRESSES:
            return SPECIAL_ADDRESSES[text.upper()]
        try:
            return int(text, 0) & WORD_MASK
        except ValueError as exc:
            raise AssemblyError(f"unknown symbol or value {text!r}", line=line_number) from exc


class MacroAssembler:
    """Programmatic builder of VeRisc programs with synthetic macro operations.

    The builder tracks the exact address of every emitted word (instructions
    are two words, data words one word), so macros that rely on self-modifying
    code can reference the operand slot of an instruction they just emitted.
    Constants are pooled and de-duplicated; labels may be referenced before
    they are defined and are resolved in :meth:`assemble`.
    """

    #: Number of reserved scratch words available to macros.
    SCRATCH_WORDS = 8

    def __init__(self, origin: int = 0):
        self.origin = origin
        self._items: list[tuple[str, object]] = []
        self._length = 0
        self._labels: dict[str, int] = {}
        self._pending_entry: str | int | None = None
        self._const_values: list[int] = []
        self._label_counter = 0
        # Reserve the scratch area immediately; macros address it as labels
        # scratch0..scratchN-1.
        for index in range(self.SCRATCH_WORDS):
            self.label(f"scratch{index}")
            self.word(0)

    # ------------------------------------------------------------------ #
    # Low-level emission
    # ------------------------------------------------------------------ #
    @property
    def current_address(self) -> int:
        """Address of the next word that will be emitted."""
        return self.origin + self._length

    def label(self, name: str | None = None) -> str:
        """Define a label at the current address; auto-generate a name if omitted."""
        if name is None:
            name = f"__auto{self._label_counter}"
            self._label_counter += 1
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = self.current_address
        return name

    def new_label(self) -> str:
        """Reserve a unique label name without placing it yet."""
        name = f"__fwd{self._label_counter}"
        self._label_counter += 1
        return name

    def place(self, name: str) -> None:
        """Place a previously reserved label at the current address."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = self.current_address

    def word(self, value: int | LabelRef | ConstRef = 0) -> int:
        """Emit a raw data word; return its address."""
        address = self.current_address
        self._items.append(("word", value))
        self._length += 1
        return address

    def const(self, value: int) -> ConstRef:
        """Return a reference to a pooled constant word holding ``value``."""
        value &= WORD_MASK
        if value not in self._const_values:
            self._const_values.append(value)
        return ConstRef(value)

    def ref(self, name: str, offset: int = 0) -> LabelRef:
        """Return a reference to ``label + offset`` (word offset)."""
        return LabelRef(name, offset)

    def emit(self, op: Op, operand: Operand) -> int:
        """Emit a primitive instruction; return the address of its opcode word."""
        address = self.current_address
        self._items.append(("insn", (op, operand)))
        self._length += 2
        return address

    # Primitive instruction helpers -------------------------------------- #
    def ld(self, operand: Operand) -> int:
        return self.emit(Op.LD, operand)

    def st(self, operand: Operand) -> int:
        return self.emit(Op.ST, operand)

    def sbb(self, operand: Operand) -> int:
        return self.emit(Op.SBB, operand)

    def and_(self, operand: Operand) -> int:
        return self.emit(Op.AND, operand)

    # ------------------------------------------------------------------ #
    # Special addresses as operands
    # ------------------------------------------------------------------ #
    PC = SPECIAL_ADDRESSES["PC"]
    BORROW = SPECIAL_ADDRESSES["BORROW"]
    OUTPUT = SPECIAL_ADDRESSES["OUTPUT"]
    INPUT = SPECIAL_ADDRESSES["INPUT"]
    HALT = SPECIAL_ADDRESSES["HALT"]

    # ------------------------------------------------------------------ #
    # Macros (synthetic operations built from the four primitives)
    # ------------------------------------------------------------------ #
    def clear_borrow(self) -> None:
        """Force the borrow flag to zero without touching the accumulator."""
        self.and_(self.const(0xFFFF))

    def load_imm(self, value: int) -> None:
        """R = value (through the constant pool)."""
        self.ld(self.const(value))

    def move(self, src: Operand, dst: Operand) -> None:
        """mem[dst] = mem[src] (through the accumulator)."""
        self.ld(src)
        self.st(dst)

    def store_imm(self, value: int, dst: Operand) -> None:
        """mem[dst] = value."""
        self.load_imm(value)
        self.st(dst)

    def add(self, operand: Operand) -> None:
        """R = R + mem[operand]  (borrow left in an unspecified state)."""
        self.st(self.ref("scratch0"))
        self.load_imm(0)
        self.clear_borrow()
        self.sbb(operand)                 # R = -mem[operand]
        self.st(self.ref("scratch1"))
        self.ld(self.ref("scratch0"))
        self.clear_borrow()
        self.sbb(self.ref("scratch1"))    # R = R + mem[operand]

    def add_imm(self, value: int) -> None:
        """R = R + value."""
        self.add(self.const(value))

    def sub(self, operand: Operand) -> None:
        """R = R - mem[operand]; borrow = 1 if the subtraction underflowed."""
        self.clear_borrow()
        self.sbb(operand)

    def sub_imm(self, value: int) -> None:
        """R = R - value; borrow reflects underflow."""
        self.sub(self.const(value))

    def dec(self, operand: Operand) -> None:
        """mem[operand] -= 1."""
        self.ld(operand)
        self.sub_imm(1)
        self.st(operand)

    # NOTE: on a machine whose only way to jump is "store the accumulator into
    # the memory-mapped PC", *every* jump macro necessarily clobbers the
    # accumulator.  Values that must survive a jump belong in memory (the
    # scratch words or program variables), never in R.

    def jmp(self, target: str) -> None:
        """Unconditional jump to a label (clobbers the accumulator)."""
        self.ld(self.const_label(target))
        self.st(self.PC)

    def const_label(self, target: str) -> Operand:
        """Reference to a pooled word that will hold the address of ``target``.

        Label addresses are not known until assembly, so label constants are
        stored as in-line words right after a jump-over stub would be wasteful;
        instead they are resolved via a dedicated pool entry per target.
        """
        # Defer emission: label-address constants are appended (and
        # de-duplicated) in assemble().
        self._items.append(("labelconst_decl", target))
        return LabelRef(f"__labelconst_{target}")

    def jump_if_borrow(self, target: str) -> None:
        """Jump to ``target`` when the borrow flag is 1 (clobbers the accumulator)."""
        self._conditional_jump(target, taken_when=1)

    def jump_if_not_borrow(self, target: str) -> None:
        """Jump to ``target`` when the borrow flag is 0 (clobbers the accumulator)."""
        self._conditional_jump(target, taken_when=0)

    def _conditional_jump(self, target: str, taken_when: int) -> None:
        table = self.new_label()
        fallthrough = self.new_label()
        # R = borrow, then compute table + borrow and patch the operand of the
        # dispatch LD instruction (self-modifying indirection).
        self.ld(self.BORROW)
        self.st(self.ref("scratch2"))
        self.ld(self.const_label(table))
        self.add(self.ref("scratch2"))
        dispatch = self.new_label()
        self.st(self.ref(dispatch, offset=1))
        self.place(dispatch)
        self.ld(0)                       # operand patched at run time
        self.st(self.PC)
        self.place(table)
        if taken_when == 1:
            self.word(LabelRef(fallthrough))
            self.word(LabelRef(target))
        else:
            self.word(LabelRef(target))
            self.word(LabelRef(fallthrough))
        self.place(fallthrough)

    def jump_if_zero(self, operand: Operand, target: str) -> None:
        """Jump to ``target`` when mem[operand] == 0."""
        self.ld(operand)
        self.sub_imm(1)                  # borrow set iff value was 0
        self.jump_if_borrow(target)

    def jump_if_nonzero(self, operand: Operand, target: str) -> None:
        """Jump to ``target`` when mem[operand] != 0."""
        self.ld(operand)
        self.sub_imm(1)
        self.jump_if_not_borrow(target)

    def jump_if_equal(self, operand: Operand, value: int, target: str) -> None:
        """Jump to ``target`` when mem[operand] == value."""
        self.ld(operand)
        self.sub_imm(value)
        self.st(self.ref("scratch3"))
        self.jump_if_zero(self.ref("scratch3"), target)

    def load_indirect(self, pointer: Operand) -> None:
        """R = mem[mem[pointer]] via self-modification of a LD operand."""
        dispatch = self.new_label()
        self.ld(pointer)
        self.st(self.ref(dispatch, offset=1))
        self.place(dispatch)
        self.ld(0)                       # operand patched at run time

    def store_indirect(self, pointer: Operand) -> None:
        """mem[mem[pointer]] = R via self-modification of a ST operand."""
        dispatch = self.new_label()
        self.st(self.ref("scratch4"))
        self.ld(pointer)
        self.st(self.ref(dispatch, offset=1))
        self.ld(self.ref("scratch4"))
        self.place(dispatch)
        self.st(0)                       # operand patched at run time

    def output_byte(self) -> None:
        """Append the low byte of R to the machine's output stream."""
        self.st(self.OUTPUT)

    def input_byte(self) -> None:
        """R = next input byte; borrow = 1 when the input is exhausted."""
        self.ld(self.INPUT)

    def halt(self) -> None:
        """Stop the machine."""
        self.st(self.HALT)

    def set_entry(self, target: str | int) -> None:
        """Select the program entry point (label name or absolute address)."""
        self._pending_entry = target

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #
    def assemble(self) -> VeRiscProgram:
        """Resolve labels and constants and return the finished program."""
        # Materialise label-address constants and the constant pool as data
        # words appended after the emitted code.
        label_consts: list[str] = []
        body: list[tuple[str, object]] = []
        for kind, payload in self._items:
            if kind == "labelconst_decl":
                if payload not in label_consts:
                    label_consts.append(payload)
            else:
                body.append((kind, payload))

        address = self.origin
        layout: list[tuple[str, object]] = []
        for kind, payload in body:
            layout.append((kind, payload))
            address += 2 if kind == "insn" else 1

        labels = dict(self._labels)
        for target in label_consts:
            labels[f"__labelconst_{target}"] = address
            layout.append(("word", LabelRef(target)))
            address += 1
        const_addresses: dict[int, int] = {}
        for value in self._const_values:
            labels[f"__const_{value}"] = address
            const_addresses[value] = address
            layout.append(("word", value))
            address += 1

        def resolve(operand: Operand) -> int:
            if isinstance(operand, ConstRef):
                return const_addresses[operand.value]
            if isinstance(operand, LabelRef):
                if operand.name not in labels:
                    raise AssemblyError(f"undefined label {operand.name!r}")
                return (labels[operand.name] + operand.offset) & WORD_MASK
            return int(operand) & WORD_MASK

        words: list[int] = []
        for kind, payload in layout:
            if kind == "insn":
                op, operand = payload
                words.append(int(op))
                words.append(resolve(operand))
            else:
                words.append(resolve(payload))

        entry = self.origin
        if self._pending_entry is not None:
            if isinstance(self._pending_entry, str):
                if self._pending_entry not in labels:
                    raise AssemblyError(f"undefined entry label {self._pending_entry!r}")
                entry = labels[self._pending_entry]
            else:
                entry = int(self._pending_entry)
        return VeRiscProgram(words=words, origin=self.origin, entry=entry, symbols=labels)
