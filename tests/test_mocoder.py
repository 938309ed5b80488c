"""Tests for Manchester coding, emblem geometry, the outer code and MOCoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import manchester as manchester_oracle
from oracles import reed_solomon as rs_oracle
from oracles.emblem import render_emblem
from repro.core.profiles import get_profile
from repro.errors import (
    EmblemDetectionError,
    EmblemFormatError,
    MissingEmblemError,
    MOCoderError,
)
from repro.mocoder import (
    EmblemKind,
    EmblemSpec,
    MOCoder,
    OuterCode,
    manchester_decode_rows,
    manchester_encode_rows,
)
from repro.mocoder.emblem import (
    EmblemHeader,
    build_emblem,
    decode_image_batch,
    otsu_threshold,
    render_emblem_batch,
)


def decode_one(spec, image):
    """Decode one scan through the batch decoder, raising its error."""
    [outcome] = decode_image_batch(spec, [image])
    if isinstance(outcome, MOCoderError):
        raise outcome
    return outcome


def encode(bits, initial_level=0):
    """One bit stream through the row-batched encoder."""
    return manchester_encode_rows(np.asarray(bits, dtype=np.uint8)[None, :], initial_level)[0]


class TestManchester:
    def test_two_cells_per_bit(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        assert encode(bits).size == 6

    def test_every_bit_boundary_has_a_transition(self, rng):
        bits = rng.integers(0, 2, size=500, dtype=np.uint8)
        cells = encode(bits)
        boundaries = cells[2::2] != cells[1:-1:2]
        assert boundaries.all()

    def test_fast_encoder_matches_reference(self, rng):
        """The row encoder equals the per-bit loop oracle."""
        bits = rng.integers(0, 2, size=777, dtype=np.uint8)
        for level in (0, 1):
            want = manchester_oracle.manchester_encode(bits, level)
            assert np.array_equal(encode(bits, level), want)

    def test_decode_is_inverse(self, rng):
        bits = rng.integers(0, 2, size=(3, 333), dtype=np.uint8)
        cells = np.stack([manchester_oracle.manchester_encode(row) for row in bits])
        assert np.array_equal(manchester_decode_rows(cells), bits)

    @given(st.lists(st.integers(0, 1), max_size=300))
    def test_roundtrip_property(self, bit_list):
        bits = np.array(bit_list, dtype=np.uint8)[None, :]
        cells = manchester_encode_rows(bits)
        assert np.array_equal(manchester_decode_rows(cells), bits)
        # A trailing odd half-cell is ignored, as in the single-stream oracle.
        padded = np.concatenate([cells, np.ones((1, 1), dtype=np.uint8)], axis=1)
        assert np.array_equal(
            manchester_decode_rows(padded)[0], manchester_oracle.manchester_decode(padded[0])
        )

    def test_row_batched_encoder_matches_fast(self, rng):
        """Each row of the batched encoder equals the single-row encoder."""
        for rows, width in [(1, 1), (4, 7), (5, 257), (3, 0)]:
            bits = rng.integers(0, 2, size=(rows, width), dtype=np.uint8)
            for level in (0, 1):
                batched = manchester_encode_rows(bits, level)
                assert batched.shape == (rows, 2 * width)
                for row in range(rows):
                    assert np.array_equal(
                        batched[row], manchester_oracle.manchester_encode_fast(bits[row], level)
                    )

    def test_row_batched_encoder_rejects_non_matrix_input(self):
        with pytest.raises(ValueError, match="rows, bits"):
            manchester_encode_rows(np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError, match="rows, cells"):
            manchester_decode_rows(np.zeros(8, dtype=np.uint8))


class TestOuterCode:
    def test_parameters_match_the_paper(self):
        code = OuterCode()
        assert code.data_shards == 17 and code.parity_shards == 3

    def test_any_three_missing_emblems_recovered(self, rng):
        code = OuterCode()
        payloads = [bytes(rng.integers(0, 256, size=90, dtype=np.uint8)) for _ in range(17)]
        shards = payloads + code.encode_group(payloads)
        for missing in ([0, 1, 2], [5, 16, 19], [17, 18, 19], [0, 10, 18]):
            trial = [None if index in missing else shards[index] for index in range(20)]
            assert code.reconstruct_group(trial) == payloads

    def test_four_missing_is_too_many(self, rng):
        code = OuterCode()
        payloads = [bytes(rng.integers(0, 256, size=40, dtype=np.uint8)) for _ in range(17)]
        shards = payloads + code.encode_group(payloads)
        for index in (0, 1, 2, 3):
            shards[index] = None
        with pytest.raises(MissingEmblemError):
            code.reconstruct_group(shards)

    def test_short_group_with_absent_shards(self, rng):
        code = OuterCode()
        payloads = [bytes(rng.integers(0, 256, size=30, dtype=np.uint8)) for _ in range(5)]
        parity = code.encode_group(payloads)
        shards = payloads + [b""] * 12 + parity
        shards[2] = None
        recovered = code.reconstruct_group(shards, payload_length=30)
        assert recovered[:5] == payloads

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), missing=st.sets(st.integers(0, 19), min_size=0, max_size=3))
    def test_property_any_loss_pattern_up_to_three(self, seed, missing):
        rng = np.random.default_rng(seed)
        code = OuterCode()
        payloads = [bytes(rng.integers(0, 256, size=25, dtype=np.uint8)) for _ in range(17)]
        shards = payloads + code.encode_group(payloads)
        trial = [None if index in missing else shards[index] for index in range(20)]
        assert code.reconstruct_group(trial) == payloads


class TestOuterCodeParityPaths:
    def test_encode_group_matches_rs_reference_on_long_payloads(self, rng):
        """Long groups take the bit-sliced product; short ones the gather.

        Every byte position of a group is one row of the outer RS code's
        parity computation, so the LFSR reference encoder (run row-wise on
        the transposed payload matrix) is the ground truth for both regimes.
        """
        code = OuterCode()
        for length in (5, 700):
            payloads = [
                bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
                for _ in range(code.data_shards)
            ]
            parity = code.encode_group(payloads)
            matrix = np.stack([np.frombuffer(p, dtype=np.uint8) for p in payloads])
            reference = rs_oracle.encode_blocks(
                code._rs, matrix.T.astype(np.int32)
            )[:, code.data_shards:].astype(np.uint8)
            assert parity == [
                reference[:, i].tobytes() for i in range(code.parity_shards)
            ]


class TestBatchedRender:
    def test_batch_matches_per_emblem_render(self, small_spec, rng):
        """Every slice of the batched render is bit-identical to the
        per-emblem oracle render."""
        coder = MOCoder(spec=small_spec)
        payload = bytes(rng.integers(0, 256, size=900, dtype=np.uint8))
        stream = coder.encode(payload)
        assert len(stream.emblems) > 1
        batch = render_emblem_batch(stream.emblems)
        assert batch.shape[0] == len(stream.emblems)
        for index, emblem in enumerate(stream.emblems):
            assert np.array_equal(batch[index], render_emblem(emblem))
            assert np.array_equal(emblem.to_image(), batch[index])

    @pytest.mark.parametrize("media", ["microfilm", "cinema", "paper"])
    def test_batch_matches_per_emblem_render_on_media_specs(self, media, rng):
        """The media geometries (many RS blocks, 2-4 px cells) render the
        same through the batch as through the oracle: one emblem with a
        short payload, one filled to capacity."""
        spec = get_profile(media).spec
        emblems = [
            build_emblem(spec, EmblemKind.DATA, 0, 2, 0, 0, b"short payload", 13, 7),
            build_emblem(
                spec, EmblemKind.PARITY, 301, 302, 15, 19,
                bytes(rng.integers(0, 256, size=spec.payload_capacity, dtype=np.uint8)),
                spec.payload_capacity, 9,
            ),
        ]
        batch = render_emblem_batch(emblems)
        for index, emblem in enumerate(emblems):
            assert np.array_equal(batch[index], render_emblem(emblem))

    def test_empty_batch(self):
        assert render_emblem_batch([]).size == 0

    def test_mixed_specs_rejected(self, small_spec, rng):
        coder = MOCoder(spec=small_spec)
        emblems = coder.encode(b"mixed-spec batch").emblems
        other_spec = EmblemSpec(
            name="other", data_cells_x=small_spec.data_cells_x + 8,
            data_cells_y=small_spec.data_cells_y, cell_pixels=small_spec.cell_pixels,
        )
        foreign = MOCoder(spec=other_spec).encode(b"foreign emblem").emblems
        with pytest.raises(EmblemFormatError, match="single shared spec"):
            render_emblem_batch(list(emblems) + list(foreign))


class TestEmblem:
    def test_figure1_structure(self, small_spec):
        """The rendered emblem has the structure of Figure 1: a thick black
        frame around the data field, with large-scale dots inside."""
        emblem = build_emblem(small_spec, EmblemKind.DATA, 0, 1, 0, 0, b"x" * 10, 10, 0)
        image = emblem.to_image()
        q = small_spec.quiet_cells * small_spec.cell_pixels
        border = small_spec.border_cells * small_spec.cell_pixels
        assert (image[:q] == 255).all()                      # quiet zone
        assert (image[q:q + border, q:-q] == 0).all()        # top frame band
        assert image.shape == (small_spec.pixels_y, small_spec.pixels_x)

    def test_roundtrip_pristine(self, small_spec, rng):
        payload = bytes(rng.integers(0, 256, size=small_spec.payload_capacity, dtype=np.uint8))
        emblem = build_emblem(small_spec, EmblemKind.SYSTEM, 7, 9, 0, 7, payload, 123, 456)
        decoded, corrections = decode_one(small_spec, emblem.to_image())
        assert decoded.payload == payload
        assert decoded.header.kind == EmblemKind.SYSTEM
        assert decoded.header.index == 7
        assert corrections == 0

    def test_roundtrip_with_margins_and_dust(self, small_spec, rng):
        payload = bytes(rng.integers(0, 256, size=100, dtype=np.uint8))
        emblem = build_emblem(small_spec, EmblemKind.DATA, 1, 2, 0, 1, payload, 100, 0)
        image = emblem.to_image()
        framed = np.full((image.shape[0] + 80, image.shape[1] + 60), 255, dtype=np.uint8)
        framed[40:40 + image.shape[0], 30:30 + image.shape[1]] = image
        for _ in range(10):                                  # dust specks
            y, x = rng.integers(45, framed.shape[0] - 45), rng.integers(35, framed.shape[1] - 35)
            framed[y:y + 2, x:x + 2] = 0
        decoded, corrections = decode_one(small_spec, framed)
        assert decoded.payload == payload

    def test_blank_scan_rejected(self, small_spec):
        with pytest.raises(EmblemDetectionError):
            decode_one(small_spec, np.full((300, 300), 255, dtype=np.uint8))

    def test_oversized_payload_rejected(self, small_spec):
        with pytest.raises(EmblemFormatError):
            build_emblem(small_spec, EmblemKind.DATA, 0, 1, 0, 0,
                         b"x" * (small_spec.payload_capacity + 1), 1, 0)

    def test_header_pack_unpack(self):
        header = EmblemHeader(EmblemKind.PARITY, 3, 20, 0, 18, 150, 3000, 0xDEADBEEF)
        assert EmblemHeader.unpack(header.pack()) == header

    def test_spec_capacity_arithmetic(self, small_spec):
        assert small_spec.raw_byte_capacity == 256
        assert small_spec.rs_block_count == 1
        assert small_spec.payload_capacity == 223 - EmblemHeader.SIZE

    def test_spec_too_small_rejected(self):
        with pytest.raises(EmblemFormatError):
            EmblemSpec(data_cells_x=16, data_cells_y=16)

    def test_otsu_threshold_separates_modes(self):
        image = np.concatenate([np.full(500, 30), np.full(500, 220)]).reshape(20, 50)
        threshold = otsu_threshold(image)
        assert 30 < threshold < 220


class TestMOCoder:
    def test_emblem_counts_match_capacity(self, small_spec):
        mocoder = MOCoder(small_spec)
        stream = mocoder.encode(b"z" * (small_spec.payload_capacity * 3 + 5))
        assert stream.data_emblem_count == 4
        assert stream.parity_emblem_count == 3

    def test_roundtrip(self, small_spec, rng):
        mocoder = MOCoder(small_spec)
        data = bytes(rng.integers(0, 256, size=small_spec.payload_capacity * 6 + 17, dtype=np.uint8))
        recovered, report = mocoder.decode(mocoder.encode_to_images(data))
        assert recovered == data
        assert report.emblems_failed == 0

    def test_three_lost_emblems_per_group_are_recovered(self, small_spec, rng):
        mocoder = MOCoder(small_spec)
        data = bytes(rng.integers(0, 256, size=small_spec.payload_capacity * 10, dtype=np.uint8))
        images = mocoder.encode_to_images(data)
        survivors = [image for index, image in enumerate(images) if index not in (0, 4, 9)]
        recovered, report = mocoder.decode(survivors)
        assert recovered == data
        assert report.groups_reconstructed == 1

    def test_four_lost_emblems_fail(self, small_spec, rng):
        mocoder = MOCoder(small_spec)
        data = bytes(rng.integers(0, 256, size=small_spec.payload_capacity * 10, dtype=np.uint8))
        images = mocoder.encode_to_images(data)
        survivors = [image for index, image in enumerate(images) if index not in (0, 1, 2, 3)]
        with pytest.raises(MissingEmblemError):
            mocoder.decode(survivors)

    def test_without_outer_code_any_loss_fails(self, small_spec, rng):
        mocoder = MOCoder(small_spec, outer_code=False)
        data = bytes(rng.integers(0, 256, size=small_spec.payload_capacity * 4, dtype=np.uint8))
        images = mocoder.encode_to_images(data)
        assert len(images) == 4
        with pytest.raises(MissingEmblemError):
            mocoder.decode(images[1:])

    def test_emblems_decode_in_any_order(self, small_spec, rng):
        mocoder = MOCoder(small_spec)
        data = bytes(rng.integers(0, 256, size=small_spec.payload_capacity * 5, dtype=np.uint8))
        images = mocoder.encode_to_images(data)
        recovered, _ = mocoder.decode(list(reversed(images)))
        assert recovered == data

    def test_empty_stream_roundtrip(self, small_spec):
        mocoder = MOCoder(small_spec)
        recovered, _ = mocoder.decode(mocoder.encode_to_images(b""))
        assert recovered == b""
