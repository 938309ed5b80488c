"""Tests for DBCoder: LZSS, arithmetic coding, container format and profiles."""

import lzma
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ContainerFormatError, DecompressionError
from repro.dbcoder import (
    DBCoder,
    Profile,
    arithmetic_decode,
    arithmetic_encode,
    lzss_compress,
    lzss_decompress,
    pack_container,
    unpack_container,
)


class TestLZSS:
    def test_roundtrip_text(self, sql_sample):
        assert lzss_decompress(lzss_compress(sql_sample)) == sql_sample

    def test_compresses_repetitive_data(self, sql_sample):
        assert len(lzss_compress(sql_sample)) < len(sql_sample) / 2

    def test_empty_input(self):
        assert lzss_compress(b"") == b""
        assert lzss_decompress(b"") == b""

    def test_incompressible_data_grows_bounded(self, rng):
        data = bytes(rng.integers(0, 256, size=1000, dtype="uint8"))
        compressed = lzss_compress(data)
        assert lzss_decompress(compressed) == data
        assert len(compressed) <= len(data) * 9 // 8 + 2

    def test_corrupt_offset_detected(self):
        # A match token referencing history that does not exist.
        stream = bytes([0b00000000, 0xFF, 0x0F])
        with pytest.raises(DecompressionError):
            lzss_decompress(stream)

    @given(st.binary(max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, data):
        assert lzss_decompress(lzss_compress(data)) == data

    @given(st.binary(max_size=600))
    @settings(max_examples=40, deadline=None)
    def test_hash_chain_matches_reference_matcher(self, data):
        """The greedy hash-chain parse emits what the exhaustive matcher would.

        With an unbound chain both searches consider every window candidate
        and share the newest-candidate tie-break, so the streams must be
        byte-identical (the production MAX_CHAIN cap may diverge — only on
        inputs where a 3-byte prefix repeats > MAX_CHAIN times in-window).
        ``lazy=False`` pins the greedy parse; the default lazy parse is
        covered by :class:`TestLazyMatching`.
        """
        from oracles.lz77 import find_longest_match
        from repro.dbcoder.lz77 import MAX_MATCH, MIN_MATCH

        reference = bytearray()
        flags = 0
        flag_count = 0
        group = bytearray()
        pos = 0
        while pos < len(data):
            limit = min(MAX_MATCH, len(data) - pos)
            offset, length = (0, 0)
            if limit >= MIN_MATCH:
                offset, length = find_longest_match(data, pos, limit)
            if length >= MIN_MATCH:
                group.append(offset & 0xFF)
                group.append(((offset >> 8) << 4) | (length - MIN_MATCH))
                pos += length
            else:
                flags |= 1 << flag_count
                group.append(data[pos])
                pos += 1
            flag_count += 1
            if flag_count == 8:
                reference.append(flags)
                reference.extend(group)
                flags = flag_count = 0
                group = bytearray()
        if flag_count:
            reference.append(flags)
            reference.extend(group)
        assert lzss_compress(data, max_chain=1 << 30, lazy=False) == bytes(reference)

    @given(st.binary(max_size=2000))
    @settings(max_examples=40, deadline=None)
    def test_lazy_parse_roundtrips(self, data):
        """The lazy parse always decodes back to the original bytes."""
        assert lzss_decompress(lzss_compress(data, lazy=True)) == data

    def test_lazy_parse_beats_greedy_on_text(self, sql_sample):
        """One-token lookahead must not lose ratio on a realistic payload."""
        payload = sql_sample * 4
        lazy = lzss_compress(payload, lazy=True)
        greedy = lzss_compress(payload, lazy=False)
        assert len(lazy) <= len(greedy)
        assert lzss_decompress(lazy) == payload

    def test_lazy_defers_to_a_longer_match(self):
        """A constructed input where greedy takes a 3-byte match but a
        4-byte match starts one byte later; lazy emits the literal and
        keeps the longer match, saving a token."""
        data = b"abc" + b"bcde" + b"xx" + b"abcde"
        lazy = lzss_compress(data, lazy=True)
        greedy = lzss_compress(data, lazy=False)
        assert lzss_decompress(lazy) == data
        assert lzss_decompress(greedy) == data
        # Strict: the deferral must actually fire and save a token here.
        assert len(lazy) < len(greedy)


class TestVectorisedScan:
    """The numpy candidate scan must stay bit-identical to the reference.

    ``lzss_compress`` precomputes the hash chains with an argsort and hands
    long rejection streaks to a batched tail scan; ``oracles.lz77.lzss_compress``
    is the incremental dict-filed implementation it was derived from.  Any
    divergence — under any (max_chain, lazy) combination — is a bug, because
    archives written by one build must reproduce bit-exactly under another.
    """

    @given(st.binary(max_size=2500))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_reference(self, data):
        from oracles import lz77 as lz77_oracle

        for max_chain in (0, 1, 8, 128):
            for lazy in (False, True):
                got = lzss_compress(data, max_chain=max_chain, lazy=lazy)
                want = lz77_oracle.lzss_compress(data, max_chain=max_chain, lazy=lazy)
                assert got == want, (max_chain, lazy)
                assert lzss_decompress(got) == data

    def test_bit_identical_on_realistic_text(self, sql_sample):
        from oracles import lz77 as lz77_oracle

        payload = sql_sample * 3
        for lazy in (False, True):
            assert lzss_compress(payload, lazy=lazy) == lz77_oracle.lzss_compress(
                payload, lazy=lazy
            )

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("max_chain", [0, 1])
    def test_tiny_chain_budgets_roundtrip(self, sql_sample, max_chain, lazy):
        """max_chain 0 (literal-only) and 1 (single-candidate) stay lossless."""
        payload = sql_sample[:3000]
        compressed = lzss_compress(payload, max_chain=max_chain, lazy=lazy)
        assert lzss_decompress(compressed) == payload

    @pytest.mark.parametrize("lazy", [False, True])
    def test_max_chain_zero_is_literal_only(self, sql_sample, lazy):
        """A zero chain budget disables matching entirely, in both parses.

        Literal-only LZSS is exactly 1 flag byte per 8 literals, so the
        output length is fully determined — and identical for the lazy and
        greedy parses, which only differ in how they *choose* matches.
        """
        payload = sql_sample[:2000]
        compressed = lzss_compress(payload, max_chain=0, lazy=lazy)
        assert len(compressed) == len(payload) + -(-len(payload) // 8)
        assert lzss_decompress(compressed) == payload


class TestArithmeticCoder:
    def test_roundtrip_text(self, sql_sample):
        encoded = arithmetic_encode(sql_sample)
        assert arithmetic_decode(encoded) == sql_sample
        assert len(encoded) < len(sql_sample)

    def test_empty_input(self):
        assert arithmetic_decode(arithmetic_encode(b"")) == b""

    def test_highly_skewed_data_compresses_well(self):
        data = b"\x00" * 5000 + b"\x01"
        assert len(arithmetic_encode(data)) < 200

    def test_truncated_stream_detected(self, rng):
        data = bytes(rng.integers(0, 256, size=600, dtype="uint8"))
        encoded = arithmetic_encode(data)
        with pytest.raises(DecompressionError):
            arithmetic_decode(encoded[: len(encoded) // 2])

    @given(st.binary(max_size=600))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, data):
        assert arithmetic_decode(arithmetic_encode(data)) == data


class TestContainer:
    def test_roundtrip(self):
        container = pack_container(2, b"original", b"payload")
        header, payload = unpack_container(container)
        assert header.profile_id == 2
        assert header.original_length == 8
        assert payload == b"payload"

    def test_bad_magic_rejected(self):
        with pytest.raises(ContainerFormatError):
            unpack_container(b"XXXX" + b"\x00" * 20)

    def test_truncated_rejected(self):
        with pytest.raises(ContainerFormatError):
            unpack_container(b"UL")

    def test_payload_length_mismatch_rejected(self):
        container = pack_container(1, b"abc", b"payload")
        with pytest.raises(ContainerFormatError):
            unpack_container(container[:-2])

    @pytest.mark.parametrize("profile_id", [3, 255])
    def test_unknown_profile_id_is_a_container_format_error(self, profile_id):
        """Any profile byte but 0-2 (255 is what user codecs once wrote)."""
        container = pack_container(profile_id, b"abc", b"abc")
        with pytest.raises(ContainerFormatError, match=f"profile id {profile_id} "):
            DBCoder().decode(container)


class TestDBCoderProfiles:
    @pytest.mark.parametrize("profile", list(Profile))
    def test_roundtrip_every_profile(self, profile, sql_sample):
        coder = DBCoder(profile)
        assert coder.decode(coder.encode(sql_sample)) == sql_sample

    def test_dense_beats_portable_beats_store(self, sql_sample):
        sizes = {
            profile: len(DBCoder(profile).encode(sql_sample)) for profile in Profile
        }
        assert sizes[Profile.DENSE] < sizes[Profile.PORTABLE] < sizes[Profile.STORE]

    def test_dense_profile_is_lzma_class(self, sql_sample):
        """The paper claims compression 'close to 7-Zip's LZMA'."""
        dense = len(DBCoder(Profile.DENSE).encode(sql_sample))
        lzma_size = len(lzma.compress(sql_sample, preset=6))
        zlib_size = len(zlib.compress(sql_sample, 6))
        assert dense < len(sql_sample) / 2
        assert dense < zlib_size * 1.6          # same class as deflate or better
        assert dense < lzma_size * 2.5          # within striking distance of LZMA

    def test_decode_detects_corruption(self, sql_sample):
        coder = DBCoder(Profile.PORTABLE)
        container = bytearray(coder.encode(sql_sample))
        container[40] ^= 0xFF
        with pytest.raises(DecompressionError):
            coder.decode(bytes(container))

    def test_report_statistics(self, sql_sample):
        report = DBCoder(Profile.PORTABLE).report(sql_sample)
        assert report.original_bytes == len(sql_sample)
        assert report.ratio > 1.0

    @given(st.binary(max_size=1500))
    @settings(max_examples=25, deadline=None)
    def test_any_bytes_survive_portable_roundtrip(self, data):
        coder = DBCoder(Profile.PORTABLE)
        assert coder.decode(coder.encode(data)) == data
