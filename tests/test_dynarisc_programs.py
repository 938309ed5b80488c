"""Tests for the archived DynaRisc decoder programs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.manchester import manchester_encode_fast
from repro.dbcoder.dbcoder import DBCoder, Profile
from repro.dbcoder.lz77 import lzss_compress
from repro.dynarisc.emulator import DynaRiscEmulator
from repro.dynarisc.programs import get_program, get_source, program_names
from repro.util.bits import bytes_to_bits


def run_program(name: str, input_data: bytes, step_limit: int = 200_000_000) -> bytes:
    program = get_program(name)
    emulator = DynaRiscEmulator(program.code, input_data=input_data, step_limit=step_limit)
    return emulator.run(program.entry)


class TestRegistry:
    def test_all_programs_assemble(self):
        for name in program_names():
            assert len(get_program(name).code) > 0

    def test_unknown_program_raises(self):
        with pytest.raises(KeyError):
            get_source("no_such_program")

    def test_expected_decoders_are_archived(self):
        names = program_names()
        assert "lzss_decoder" in names          # the DBCoder decoder
        assert "manchester_unpack" in names     # the MOCoder cell decoder


class TestXorStream:
    def test_xor_is_involution(self):
        payload = b"universal layout emulation"
        once = run_program("xor_stream", bytes([0x37]) + payload)
        twice = run_program("xor_stream", bytes([0x37]) + once)
        assert twice == payload

    def test_empty_input(self):
        assert run_program("xor_stream", b"") == b""


class TestChecksum:
    def test_matches_python_sum(self):
        data = bytes(range(200))
        assert run_program("checksum", data) == (sum(data) & 0xFFFF).to_bytes(2, "little")

    def test_wraps_modulo_65536(self):
        data = b"\xff" * 300
        assert run_program("checksum", data) == (sum(data) & 0xFFFF).to_bytes(2, "little")


class TestRLEDecoder:
    def test_decodes_pairs(self):
        assert run_program("rle_decoder", bytes([3, 65, 1, 66, 2, 67])) == b"AAABCC"

    def test_empty_stream(self):
        assert run_program("rle_decoder", b"") == b""


class TestLZSSDecoder:
    """The archived DBCoder decoder must agree with the Python reference."""

    def test_decodes_compressed_sql(self, sql_sample):
        compressed = DBCoder(Profile.PORTABLE).compress_payload(sql_sample)
        assert run_program("lzss_decoder", compressed) == sql_sample

    def test_decodes_incompressible_data(self, rng):
        data = bytes(rng.integers(0, 256, size=600, dtype=np.uint8))
        compressed = lzss_compress(data)
        assert run_program("lzss_decoder", compressed) == data

    def test_handles_overlapping_matches(self):
        data = b"ab" * 300
        compressed = lzss_compress(data)
        assert len(compressed) < len(data) // 4
        assert run_program("lzss_decoder", compressed) == data

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=400))
    def test_agrees_with_reference_on_arbitrary_data(self, data):
        compressed = lzss_compress(data)
        assert run_program("lzss_decoder", compressed) == data


class TestManchesterUnpack:
    """The archived MOCoder cell decoder must agree with the Python reference."""

    def test_unpacks_cells_back_to_bytes(self, rng):
        payload = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
        cells = manchester_encode_fast(bytes_to_bits(payload))
        output = run_program("manchester_unpack", cells.tobytes())
        assert output == payload

    def test_partial_final_byte_is_dropped(self):
        cells = manchester_encode_fast(np.array([1, 0, 1], dtype=np.uint8))
        assert run_program("manchester_unpack", cells.tobytes()) == b""
