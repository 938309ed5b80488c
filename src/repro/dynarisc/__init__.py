"""DynaRisc: the 16-bit, 23-instruction software processor of Olonys.

The decoding halves of DBCoder and MOCoder are written in DynaRisc assembly
and archived as instruction streams (as emblems or as Bootstrap letters).
This package provides the complete toolchain:

* :mod:`repro.dynarisc.isa` — the reconstructed 23-instruction ISA and its
  binary encoding (the paper's Table 1 shows a sample of it),
* :mod:`repro.dynarisc.assembler` — a two-pass assembler with labels and data
  directives,
* :mod:`repro.dynarisc.emulator` — the emulator: one interpreter loop over
  instructions decoded once per run,
* :mod:`repro.dynarisc.disassembler` — the inverse of the assembler,
* :mod:`repro.dynarisc.programs` — the archived decoder programs themselves,
  written in DynaRisc assembly.
"""

from repro.dynarisc.isa import Opcode, Register, Condition, PAPER_TABLE1_MNEMONICS
from repro.dynarisc.assembler import DynaRiscAssembler
from repro.dynarisc.emulator import DynaRiscEmulator
from repro.dynarisc.disassembler import disassemble

__all__ = [
    "Opcode",
    "Register",
    "Condition",
    "PAPER_TABLE1_MNEMONICS",
    "DynaRiscAssembler",
    "DynaRiscEmulator",
    "disassemble",
]
