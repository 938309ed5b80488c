"""Tests for the nested DynaRisc-in-VeRisc emulator (the heart of ULE)."""

import pytest

from repro.errors import MachineFault
from repro.dbcoder.lz77 import lzss_compress
from repro.dynarisc.assembler import DynaRiscAssembler
from repro.dynarisc.emulator import DynaRiscEmulator
from repro.dynarisc.programs import get_program
from repro.nested import (
    HOSTED_MEMORY_BYTES,
    NestedDynaRiscMachine,
    dynarisc_emulator_image,
)


def nested_vs_reference(source_or_name: str, input_data: bytes = b"") -> tuple[bytes, bytes]:
    """Run a DynaRisc program on both emulators and return both outputs."""
    if "\n" in source_or_name or " " in source_or_name.strip():
        program = DynaRiscAssembler().assemble(source_or_name)
        code, entry = program.code, program.entry
    else:
        archived = get_program(source_or_name)
        code, entry = archived.code, archived.entry
    reference = DynaRiscEmulator(code, input_data=input_data).run(entry)
    nested = NestedDynaRiscMachine(code, input_data=input_data, entry=entry).run()
    return nested, reference


class TestEmulatorImage:
    def test_image_is_cached_and_nontrivial(self):
        image = dynarisc_emulator_image()
        assert image is dynarisc_emulator_image()
        assert len(image) > 1000  # a real interpreter, not a stub

    def test_image_serialises_for_the_bootstrap(self):
        image = dynarisc_emulator_image()
        assert len(image.to_bytes()) == 2 * len(image.words)

    def test_program_too_large_is_rejected(self):
        with pytest.raises(MachineFault):
            NestedDynaRiscMachine(b"\x00" * (HOSTED_MEMORY_BYTES + 1))


class TestNestedAgreement:
    """The archived programs must behave identically under nested emulation."""

    def test_xor_stream(self):
        nested, reference = nested_vs_reference("xor_stream", bytes([0x5A]) + b"nested!")
        assert nested == reference

    def test_checksum(self):
        nested, reference = nested_vs_reference("checksum", bytes(range(64)))
        assert nested == reference

    def test_rle_decoder(self):
        nested, reference = nested_vs_reference("rle_decoder", bytes([2, 88, 3, 89]))
        assert nested == reference == b"XXYYY"

    def test_lzss_decoder_small_payload(self, sql_sample):
        payload = sql_sample[:300]
        nested, reference = nested_vs_reference("lzss_decoder", lzss_compress(payload))
        assert nested == reference == payload


class TestNestedInstructionCoverage:
    """Exercise the instructions not used by the archived decoders."""

    def test_adc_sbb_or_not(self):
        source = """
        start:
            LDI d3, #OUTPUT_PORT
            LDI r0, #0xFFFF
            LDI r1, #1
            ADD r0, r1          ; carry out
            LDI r2, #7
            ADC r2, r1          ; 7 + 1 + carry = 9
            STM r2, [d3]
            LDI r0, #0
            LDI r1, #1
            SUB r0, r1          ; borrow out
            LDI r2, #9
            SBB r2, r1          ; 9 - 1 - 1 = 7
            STM r2, [d3]
            LDI r0, #0x0F
            LDI r1, #0xF0
            OR  r0, r1
            STM r0, [d3]        ; 0xFF
            NOT r1
            STM r1, [d3]        ; low byte of 0xFF0F
            HALT
        """
        nested, reference = nested_vs_reference(source)
        assert nested == reference == bytes([9, 7, 0xFF, 0x0F])

    def test_mul_and_rotates(self):
        source = """
        start:
            LDI d3, #OUTPUT_PORT
            LDI r0, #25
            LDI r1, #9
            MUL r0, r1
            STM r0, [d3]        ; 225
            LDI r0, #0x81
            LDI r1, #1
            ROR r0, r1
            JCOND cs, carry_was_set
            HALT
        carry_was_set:
            LDI r2, #0xC0
            STM r2, [d3]
            LDI r0, #0x8000
            LDI r1, #2
            ASR r0, r1
            LDI r1, #8
            LSR r0, r1
            STM r0, [d3]        ; 0xE0
            HALT
        """
        nested, reference = nested_vs_reference(source)
        assert nested == reference == bytes([225, 0xC0, 0xE0])

    def test_call_ret_nested_subroutines(self):
        source = """
        start:
            LDI d3, #OUTPUT_PORT
            CALL outer
            HALT
        outer:
            LDI r0, #1
            STM r0, [d3]
            CALL inner
            LDI r0, #3
            STM r0, [d3]
            RET
        inner:
            LDI r0, #2
            STM r0, [d3]
            RET
        """
        nested, reference = nested_vs_reference(source)
        assert nested == reference == bytes([1, 2, 3])


class TestNestedRestore:
    def test_nested_restore_matches_python_and_dynarisc(self):
        """The complete ULE chain end to end: an archive restores to the same
        payload, database and data report whether its DBCoder container is
        decoded in Python, by the archived decoder under the DynaRisc
        emulator, or by that decoder under the DynaRisc emulator hosted in
        VeRisc.  The payload is small because the nested machine is slow."""
        from repro.api import ArchiveConfig, open_archive, open_restore
        from repro.store import MemoryBackend

        payload = b"CREATE TABLE t (k INTEGER);\nINSERT INTO t VALUES (64000000123);\n"
        assert len(payload) == 64
        target = "mem:nested-restore"
        config = ArchiveConfig(media="test", codec="portable", payload_kind="sql")
        try:
            with open_archive(config, target=target) as writer:
                writer.write(payload)
            results = {}
            for mode in ("python", "dynarisc", "nested"):
                with open_restore(target, decode_mode=mode) as reader:
                    results[mode] = reader.read()
        finally:
            MemoryBackend.discard(target)
        python = results["python"]
        assert python.payload == payload
        assert python.database is not None and python.database.table_names == ["t"]
        assert python.emulator_steps == 0
        for mode in ("dynarisc", "nested"):
            result = results[mode]
            assert result.payload == payload
            assert result.archive_text == python.archive_text
            assert result.data_report == python.data_report
            assert result.database.table_names == ["t"]
            assert result.emulator_steps > 0
