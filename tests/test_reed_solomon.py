"""Tests for the inner Reed-Solomon code and GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import reed_solomon as rs_oracle
from oracles.interleave import interleave_blocks
from repro.errors import UncorrectableBlockError
from repro.mocoder.galois import gf_div, gf_inverse, gf_mul, gf_pow, poly_eval, poly_mul
from repro.mocoder.interleave import deinterleave_blocks_batch
from repro.mocoder.reed_solomon import INNER_CODE, ReedSolomonCode

#: RS(n, k) parameters the vectorised encoder is checked at: the inner code,
#: the outer code's shape and small odd shapes.
RS_PARAMETERS = [(255, 223), (20, 17), (255, 239), (15, 11), (7, 3)]


class TestGalois:
    def test_multiplicative_identity_and_zero(self):
        assert gf_mul(1, 77) == 77
        assert gf_mul(0, 99) == 0

    def test_inverse(self):
        for value in (1, 2, 77, 255):
            assert gf_mul(value, gf_inverse(value)) == 1

    def test_division(self):
        assert gf_div(gf_mul(23, 45), 45) == 23
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    def test_pow_matches_repeated_mul(self):
        value = 1
        for power in range(1, 10):
            value = gf_mul(value, 3)
            assert gf_pow(3, power) == value

    def test_poly_eval_of_generator_roots_is_zero(self):
        generator = ReedSolomonCode(255, 223).generator
        for j in range(1, 33):
            assert poly_eval(generator, gf_pow(2, j)) == 0

    def test_poly_mul_degree(self):
        assert len(poly_mul([1, 2], [1, 3, 4])) == 4


class TestInnerCode:
    def test_parameters_match_the_paper(self):
        """223 data bytes + 32 redundancy bytes per block, 7.2% correctable."""
        assert INNER_CODE.k == 223 and INNER_CODE.parity == 32
        assert INNER_CODE.max_correctable_errors == 16
        assert INNER_CODE.max_correctable_errors / INNER_CODE.k == pytest.approx(0.072, abs=0.001)

    def test_error_free_roundtrip(self, rng):
        data = rng.integers(0, 256, size=(8, 223), dtype=np.int32)
        decoded, corrections = INNER_CODE.decode_blocks(INNER_CODE.encode_blocks(data))
        assert np.array_equal(decoded, data) and corrections == 0

    def test_corrects_up_to_sixteen_errors(self, rng):
        data = rng.integers(0, 256, size=(1, 223), dtype=np.int32)
        codeword = INNER_CODE.encode_blocks(data)
        positions = rng.choice(255, size=16, replace=False)
        corrupted = codeword.copy()
        for position in positions:
            corrupted[0, position] ^= int(rng.integers(1, 256))
        decoded, corrections = INNER_CODE.decode_blocks(corrupted)
        assert np.array_equal(decoded, data)
        assert corrections == 16

    def test_seventeen_errors_detected_as_uncorrectable(self, rng):
        data = rng.integers(0, 256, size=(1, 223), dtype=np.int32)
        codeword = INNER_CODE.encode_blocks(data)
        for position in rng.choice(255, size=17, replace=False):
            codeword[0, position] ^= 0x5A
        with pytest.raises(UncorrectableBlockError):
            INNER_CODE.decode_blocks(codeword)

    def test_byte_interface_roundtrip(self, rng):
        payload = bytes(rng.integers(0, 256, size=1000, dtype=np.uint8))
        encoded, blocks = INNER_CODE.encode(payload)
        assert blocks == 5 and len(encoded) == 5 * 255
        decoded, _ = INNER_CODE.decode(encoded, original_length=len(payload))
        assert decoded == payload

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(300, 200)
        with pytest.raises(ValueError):
            ReedSolomonCode(20, 20)

    @pytest.mark.parametrize("n,k", RS_PARAMETERS)
    def test_vectorised_encode_matches_reference(self, rng, n, k):
        """The parity-matrix encoder equals the LFSR oracle, per block."""
        code = ReedSolomonCode(n, k)
        data = rng.integers(0, 256, size=(40, k), dtype=np.int32)
        assert np.array_equal(code.encode_blocks(data), rs_oracle.encode_blocks(code, data))

    @pytest.mark.parametrize("n,k", RS_PARAMETERS)
    def test_parity_matrix_matches_lfsr_oracle(self, n, k):
        """Row i of the directly built P is the LFSR parity of unit vector i."""
        code = ReedSolomonCode(n, k)
        identity = np.eye(k, dtype=np.int32)
        want = rs_oracle.encode_blocks(code, identity)[:, k:].astype(np.uint8)
        assert np.array_equal(code._parity_matrix_table(), want)

    @pytest.mark.parametrize("n,k", [(255, 223), (20, 17)])
    def test_vectorised_syndromes_match_reference(self, rng, n, k):
        """The gather-based syndromes equal the Horner reference, errors included."""
        code = ReedSolomonCode(n, k)
        codewords = code.encode_blocks(rng.integers(0, 256, size=(40, k), dtype=np.int32))
        for block in range(0, 40, 3):
            position = int(rng.integers(0, n))
            codewords[block, position] ^= int(rng.integers(1, 256))
        assert np.array_equal(
            code.syndromes_blocks(codewords), rs_oracle.syndromes_blocks(code, codewords)
        )

    @pytest.mark.parametrize("n,k", RS_PARAMETERS)
    def test_bitsliced_encode_matches_reference(self, rng, n, k):
        """Above the batch threshold the encoder switches to the bit-sliced
        GF(2) product; it must stay bit-identical to the LFSR oracle."""
        from repro.mocoder.reed_solomon import _BITSLICE_MIN_BLOCKS

        code = ReedSolomonCode(n, k)
        blocks = _BITSLICE_MIN_BLOCKS + 37
        data = rng.integers(0, 256, size=(blocks, k), dtype=np.int32)
        assert np.array_equal(code.encode_blocks(data), rs_oracle.encode_blocks(code, data))

    def test_encode_parity_gather_and_bitslice_agree(self, rng):
        """Both encode_parity regimes produce the same parity for the same
        rows (the threshold only picks an implementation, not a result)."""
        from repro.mocoder.reed_solomon import _BITSLICE_MIN_BLOCKS

        code = ReedSolomonCode(255, 223)
        rows = _BITSLICE_MIN_BLOCKS + 11
        data = rng.integers(0, 256, size=(rows, 223), dtype=np.uint8)
        large = code.encode_parity(data)
        small = np.vstack([code.encode_parity(data[i:i + 16]) for i in range(0, rows, 16)])
        assert large.dtype == np.uint8
        assert np.array_equal(large, small)

    def test_batched_decode_matches_reference(self, rng):
        """decode_blocks equals the per-block reference on a mixed batch
        of clean blocks and blocks damaged up to the correction bound."""
        codewords = INNER_CODE.encode_blocks(
            rng.integers(0, 256, size=(60, 223), dtype=np.int32)
        )
        for block in range(0, 60, 2):
            errors = int(rng.integers(1, 17))
            positions = rng.choice(255, size=errors, replace=False)
            for position in positions:
                codewords[block, position] ^= int(rng.integers(1, 256))
        got, got_corrections = INNER_CODE.decode_blocks(codewords.copy())
        want, want_corrections = rs_oracle.decode_blocks(INNER_CODE, codewords.copy())
        assert np.array_equal(got, want)
        assert got_corrections == want_corrections

    def test_batched_decode_uncorrectable_raises_in_both_paths(self, rng):
        """17 errors in one block of a batch is uncorrectable for both the
        batched decoder and the per-block oracle — not silently mis-decoded."""
        codewords = INNER_CODE.encode_blocks(
            rng.integers(0, 256, size=(8, 223), dtype=np.int32)
        )
        positions = rng.choice(255, size=INNER_CODE.max_correctable_errors + 1,
                               replace=False)
        for position in positions:
            codewords[3, position] ^= int(rng.integers(1, 256))
        with pytest.raises(UncorrectableBlockError):
            INNER_CODE.decode_blocks(codewords.copy())
        with pytest.raises(UncorrectableBlockError):
            rs_oracle.decode_blocks(INNER_CODE, codewords.copy())

    @settings(max_examples=20, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=223),
        error_count=st.integers(min_value=0, max_value=16),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_corrects_any_pattern_within_capability(self, data, error_count, seed):
        rng = np.random.default_rng(seed)
        padded = np.zeros((1, 223), dtype=np.int32)
        padded[0, : len(data)] = np.frombuffer(data, dtype=np.uint8)
        codeword = INNER_CODE.encode_blocks(padded)
        positions = rng.choice(255, size=error_count, replace=False)
        for position in positions:
            codeword[0, position] ^= int(rng.integers(1, 256))
        decoded, corrections = INNER_CODE.decode_blocks(codeword)
        assert np.array_equal(decoded, padded)
        assert corrections == error_count


def _deinterleave(stream: bytes, blocks: int, length: int) -> np.ndarray:
    """One stream through the batch deinterleaver the decoder runs."""
    return deinterleave_blocks_batch(
        np.frombuffer(stream, dtype=np.uint8)[None, :], blocks, length
    )[0]


class TestInterleaving:
    def test_roundtrip(self, rng):
        codewords = rng.integers(0, 256, size=(7, 255), dtype=np.uint8)
        stream = interleave_blocks(codewords)
        assert np.array_equal(_deinterleave(stream, 7, 255), codewords)

    def test_burst_damage_is_spread_across_blocks(self, rng):
        codewords = rng.integers(0, 256, size=(10, 255), dtype=np.uint8)
        stream = bytearray(interleave_blocks(codewords))
        # A 30-byte burst in the interleaved stream touches every block at
        # most 3 times (30 / 10 blocks), staying far below the 16-error limit.
        for index in range(100, 130):
            stream[index] ^= 0xFF
        damaged = _deinterleave(bytes(stream), 10, 255)
        per_block_errors = (damaged != codewords).sum(axis=1)
        assert per_block_errors.max() <= 3

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError):
            _deinterleave(b"\x00" * 10, 2, 255)
