"""Generation and parsing of the Bootstrap document.

The Bootstrap is the short plain-text document archived next to the emblems.
It contains (1) a prose/pseudocode description of the VeRisc machine and of
the letter decoding, sufficient for a programmer with no other context to
implement the emulator, and (2) the instruction streams of the DynaRisc
emulator and of the MOCoder decoder rendered as letter pages.  Its whole
purpose is to be readable by humans and OCR decades from now, so the format
is deliberately plain: titled sections separated by rulers, fixed-width
letter blocks, and per-section CRC lines so a re-typed copy can be verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BootstrapParseError
from repro.bootstrap.letters import bytes_to_letters, format_letter_pages, letters_to_bytes
from repro.util.crc import crc32_of

_RULER = "=" * 72

#: The plain-text description of the VeRisc machine and the restoration
#: procedure.  This stands in for the paper's "four pages of algorithm
#: pseudocode"; the portability benchmark measures its length and independent
#: implementations of the emulator are written against this text alone.
VERISC_PSEUDOCODE = """\
HOW TO RESTORE THIS ARCHIVE
---------------------------

You are holding (or viewing scans of) three kinds of artefacts:

  1. this Bootstrap document (plain text),
  2. "system emblems"  - square barcodes holding the database-layout decoder,
  3. "data emblems"    - square barcodes holding the archived database.

To read the emblems you must first run two small programs that are printed in
this document as pages of capital letters.  The letters encode bytes: each
byte is written as two letters, high half first, and the letters A B C D E F
G H I J K L M N O P stand for the values 15 14 13 12 11 10 9 8 7 6 5 4 3 2 1
0 respectively (so "A" is hexadecimal F and "P" is hexadecimal 0).  Spaces
and line breaks between letters carry no meaning.

STEP 1 - IMPLEMENT THE VERISC MACHINE (the only programming you must do)
------------------------------------------------------------------------

VeRisc is a made-up, very small computer.  Implement it in any programming
language you have.  It consists of:

  memory     : 65536 words, each word holds an integer 0..65535.
               Addresses are 0..65535.  All memory starts at zero.
  register R : one word (the accumulator).
  flag B     : the borrow flag, either 0 or 1.
  register PC: the address of the next instruction word.

Five memory addresses are special; they are not storage but ports:

  address 65535 (PC)     : reading gives PC, writing sets PC (a jump).
  address 65534 (BORROW) : reading gives B, writing sets B to bit 0 of R.
  address 65533 (OUTPUT) : writing appends the low 8 bits of R to the output.
  address 65532 (INPUT)  : reading gives the next byte of the input stream;
                           when the input is exhausted it gives 0 and sets
                           B to 1 (otherwise it sets B to 0).
  address 65531 (HALT)   : writing stops the machine.

An instruction is two consecutive words: an opcode word then an address word.
Execute instructions in a loop until the machine halts:

  fetch   : opcode = memory[PC]; address = memory[PC + 1]; PC = PC + 2
  opcode 0 (LD)  : R = read(address)
  opcode 1 (ST)  : write(address, R)
  opcode 2 (SBB) : value = read(address)
                   result = R - value - B
                   if result < 0: B = 1 and result = result + 65536
                   else         : B = 0
                   R = result
  opcode 3 (AND) : R = R bitwise-and read(address); B = 0

"read" and "write" must honour the five special addresses above; for every
other address they access the memory array.  That is the whole machine:
four instructions, one register, one flag.

STEP 2 - LOAD AND RUN THE DYNARISC EMULATOR
-------------------------------------------

Decode the letter pages of SECTION DYNARISC-EMULATOR into bytes (two letters
per byte as described above).  Interpret the bytes as 16-bit words, least
significant byte first, and copy them into VeRisc memory starting at
address 0.  Set PC to the entry address printed at the top of that section,
supply as the VeRisc input stream the bytes named by the section, and run.
The program is an emulator for a richer 16-bit processor (DynaRisc) written
with nothing but the four VeRisc instructions.

STEP 3 - RUN THE MOCODER DECODER ON THE SCANNED EMBLEMS
-------------------------------------------------------

Decode SECTION MOCODER-DECODER into bytes the same way.  These bytes are a
DynaRisc program: the media-layout decoder.  Feed every scanned emblem image
to it as a flat list of pixel brightness values (row by row, one byte per
pixel, 0 = black, 255 = white), preceded by two words giving the image width
and height.  Its output is the byte stream that was stored on the medium.

STEP 4 - RUN THE DATABASE-LAYOUT DECODER
----------------------------------------

The byte stream recovered from the *system* emblems is another DynaRisc
program: the database-layout decoder (a dictionary decompressor).  Run it,
feeding it the byte stream recovered from the *data* emblems.  Its output is
a plain SQL text file: CREATE TABLE statements followed by INSERT statements.

STEP 5 - LOAD THE SQL FILE INTO ANY DATABASE SYSTEM OF YOUR ERA
---------------------------------------------------------------

The SQL file is ordinary text.  Load it with whatever tools exist when you
read this, or read it by eye; it is self-describing.
"""


@dataclass
class BootstrapSection:
    """One letter-encoded payload of the Bootstrap."""

    name: str
    description: str
    payload: bytes
    entry_point: int = 0

    def render(self) -> str:
        letters = bytes_to_letters(self.payload)
        pages = format_letter_pages(letters)
        body = "\n\n".join(pages)
        return (
            f"{_RULER}\n"
            f"SECTION {self.name}\n"
            f"{self.description}\n"
            f"LENGTH-BYTES: {len(self.payload)}\n"
            f"ENTRY-ADDRESS: {self.entry_point}\n"
            f"CRC32: {crc32_of(self.payload):08X}\n"
            f"{_RULER}\n"
            f"{body}\n"
        )


@dataclass
class BootstrapDocument:
    """The complete Bootstrap: pseudocode plus letter-encoded sections."""

    sections: list[BootstrapSection]
    pseudocode: str = VERISC_PSEUDOCODE

    #: Lines per rendered page, used for the page-count accounting the paper
    #: reports ("a short, seven-page document").
    LINES_PER_PAGE = 60

    def render(self) -> str:
        """Render the full document as plain text."""
        parts = [
            _RULER,
            "MICR'OLONYS BOOTSTRAP DOCUMENT",
            "Keep this text with the emblem images.  It is sufficient, on its",
            "own, to recover the archived database on any future computer.",
            _RULER,
            "",
            self.pseudocode,
            "",
        ]
        for section in self.sections:
            parts.append(section.render())
        return "\n".join(parts)

    # ------------------------------------------------------------------ #
    @property
    def letter_count(self) -> int:
        """Total number of letters across all sections."""
        return sum(2 * len(section.payload) for section in self.sections)

    @property
    def page_count(self) -> int:
        """Approximate printed page count of the rendered document."""
        return -(-len(self.render().splitlines()) // self.LINES_PER_PAGE)

    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, text: str) -> "BootstrapDocument":
        """Parse a rendered (or OCR-ed and corrected) Bootstrap document.

        Raises
        ------
        BootstrapParseError
            If a section is malformed or fails its CRC check.
        """
        sections = []
        pieces = text.split(f"{_RULER}\nSECTION ")
        for piece in pieces[1:]:
            header_and_body = piece.split(_RULER, 1)
            if len(header_and_body) != 2:
                raise BootstrapParseError("section is missing its closing ruler")
            header, body = header_and_body
            header_lines = [line for line in header.splitlines() if line.strip()]
            if not header_lines:
                raise BootstrapParseError("section has an empty header")
            name = header_lines[0].strip()
            fields = {}
            description_lines = []
            for line in header_lines[1:]:
                if ":" in line and line.split(":", 1)[0].isupper():
                    key, value = line.split(":", 1)
                    fields[key.strip()] = value.strip()
                else:
                    description_lines.append(line)
            try:
                length = int(fields["LENGTH-BYTES"])
                entry = int(fields["ENTRY-ADDRESS"])
                crc = int(fields["CRC32"], 16)
            except (KeyError, ValueError) as exc:
                raise BootstrapParseError(f"section {name}: bad header fields") from exc
            payload = letters_to_bytes(body)[:length]
            if len(payload) != length:
                raise BootstrapParseError(
                    f"section {name}: decoded {len(payload)} bytes, expected {length}"
                )
            if crc32_of(payload) != crc:
                raise BootstrapParseError(
                    f"section {name}: CRC mismatch - the letters were mis-read; "
                    "re-scan or re-type this section"
                )
            sections.append(
                BootstrapSection(
                    name=name,
                    description="\n".join(description_lines),
                    payload=payload,
                    entry_point=entry,
                )
            )
        if not sections:
            raise BootstrapParseError("no sections found in the Bootstrap text")
        pseudocode = pieces[0]
        return cls(sections=sections, pseudocode=pseudocode)

    def section(self, name: str) -> BootstrapSection:
        """Look a section up by name."""
        for section in self.sections:
            if section.name == name:
                return section
        raise BootstrapParseError(f"no Bootstrap section named {name!r}")


def build_bootstrap(
    dynarisc_emulator_image: bytes,
    mocoder_decoder_image: bytes,
    dynarisc_entry: int = 0,
    mocoder_entry: int = 0,
) -> BootstrapDocument:
    """Assemble the standard two-section Bootstrap document.

    Parameters
    ----------
    dynarisc_emulator_image:
        Byte serialisation of the DynaRisc emulator written in VeRisc.
    mocoder_decoder_image:
        Byte serialisation of the MOCoder decoder written in DynaRisc.
    """
    sections = [
        BootstrapSection(
            name="DYNARISC-EMULATOR",
            description=(
                "A VeRisc memory image (16-bit words, least significant byte first)\n"
                "implementing an emulator for the DynaRisc processor."
            ),
            payload=dynarisc_emulator_image,
            entry_point=dynarisc_entry,
        ),
        BootstrapSection(
            name="MOCODER-DECODER",
            description=(
                "A DynaRisc program (see Step 3) that converts scanned emblem\n"
                "pixels back into the archived byte stream."
            ),
            payload=mocoder_decoder_image,
            entry_point=mocoder_entry,
        ),
    ]
    return BootstrapDocument(sections=sections)
