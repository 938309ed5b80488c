"""Bit-identity proofs for the vectorised decode hot paths.

Every fast path added by the decode-throughput work keeps its reference
implementation in the tree; this suite pins them together with hypothesis:

- ``decode_image_batch`` vs per-image ``Emblem.from_image`` across a grid of
  scan damage (pixel flips, blanks, noise, truncation, wrong rank);
- ``deinterleave_blocks_batch`` vs the per-stream ``deinterleave_blocks``;
- ``decode_blocks`` with precomputed syndromes / the clean-frame skip vs the
  ``_decode_blocks_reference`` corrector;
- the vectorised GF(256) matrix product vs its row-at-a-time reference, and
  volume-style ``reconstruct_group`` erasures over it;
- ``_band_centers_rows`` vs ``EmblemSampler._band_centers``;
- ``_otsu_threshold_stack`` vs ``otsu_threshold``;
- the Bootstrap letter codec vs its per-character loops;
- the restore pipeline's ``chunk_bounds`` minimum-chunk floor and
  serial/chunked decode equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bootstrap.letters import (
    _bytes_to_letters_reference,
    _letters_to_bytes_reference,
    bytes_to_letters,
    format_letter_pages,
    letters_to_bytes,
)
from repro.errors import LetterCodecError, MOCoderError
from repro.mocoder import Emblem, EmblemKind, MOCoder
from repro.mocoder.emblem import (
    _band_centers_rows,
    _otsu_threshold_stack,
    EmblemSampler,
    build_emblem,
    decode_image_batch,
    otsu_threshold,
)
from repro.mocoder.interleave import deinterleave_blocks, deinterleave_blocks_batch
from repro.mocoder.outer_code import (
    OuterCode,
    _gf_matrix_multiply,
    _gf_matrix_multiply_reference,
)
from repro.mocoder.reed_solomon import get_code
from repro.core.archive import ArchiveManifest, SegmentRecord
from repro.core.profiles import get_profile
from repro.pipeline import RestorePipeline, pipeline as pipeline_module
from repro.pipeline.pipeline import MIN_DECODE_CHUNK, chunk_bounds
from repro.util.crc import crc32_of

SPEC = get_profile("test").spec


def _scan(rng, index=0, pad=0):
    payload = rng.integers(0, 256, size=SPEC.payload_capacity, dtype=np.uint8).tobytes()
    emblem = build_emblem(
        SPEC, EmblemKind.DATA, index, 64, index // 17, index % 17, payload, 64, 1
    )
    image = emblem.to_image().astype(np.uint8)
    if pad:
        canvas = np.full(
            (image.shape[0] + 2 * pad, image.shape[1] + 2 * pad), 255, dtype=np.uint8
        )
        canvas[pad:-pad, pad:-pad] = image
        image = canvas
    return image


def _reference_outcome(image):
    try:
        return Emblem.from_image(SPEC, image)
    except MOCoderError as error:
        return (type(error), str(error))


def _assert_batch_matches_reference(images):
    outcomes = decode_image_batch(SPEC, images)
    assert len(outcomes) == len(images)
    for index, (image, outcome) in enumerate(zip(images, outcomes)):
        reference = _reference_outcome(image)
        if isinstance(reference, tuple) and isinstance(reference[0], type):
            assert isinstance(outcome, MOCoderError), f"image {index}"
            assert (type(outcome), str(outcome)) == reference, f"image {index}"
        else:
            emblem, corrections = reference
            got_emblem, got_corrections = outcome
            assert got_emblem.header == emblem.header, f"image {index}"
            assert got_emblem.payload == emblem.payload, f"image {index}"
            assert got_corrections == corrections, f"image {index}"


class TestBatchDecodeBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_damage_grid(self, data):
        """Batched decode == per-image decode, damaged scans included."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        count = data.draw(st.integers(2, 6))
        images = []
        for index in range(count):
            image = _scan(rng, index, pad=int(rng.integers(0, 5)))
            damage = data.draw(
                st.sampled_from(
                    ["clean", "flips", "heavy", "blank", "noise", "truncated"]
                )
            )
            if damage == "flips":
                spots = int(rng.integers(1, 30))
                ys = rng.integers(0, image.shape[0], size=spots)
                xs = rng.integers(0, image.shape[1], size=spots)
                image = image.copy()
                image[ys, xs] = 255 - image[ys, xs]
            elif damage == "heavy":
                image = image.copy()
                image[:: max(2, int(rng.integers(2, 6)))] = 0
            elif damage == "blank":
                image = np.full_like(image, int(rng.integers(0, 256)))
            elif damage == "noise":
                image = rng.integers(0, 256, size=image.shape, dtype=np.uint8)
            elif damage == "truncated":
                image = image[: max(1, image.shape[0] // 4)]
            images.append(image)
        _assert_batch_matches_reference(images)

    def test_wrong_rank_and_mixed_shapes(self, rng):
        images = [
            _scan(rng, 0),
            np.zeros((20, 20, 3), dtype=np.uint8),
            _scan(rng, 1, pad=3),
            np.zeros(64, dtype=np.uint8),
            _scan(rng, 2),
        ]
        _assert_batch_matches_reference(images)

    def test_non_uint8_dtype(self, rng):
        images = [_scan(rng, index).astype(np.float64) for index in range(3)]
        _assert_batch_matches_reference(images)


class TestDeinterleaveBatch:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 48),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_stream_reference(self, blocks, length, count, seed):
        rng = np.random.default_rng(seed)
        streams = rng.integers(0, 256, size=(count, blocks * length), dtype=np.uint8)
        batched = deinterleave_blocks_batch(streams, blocks, length)
        for row in range(count):
            reference = deinterleave_blocks(streams[row].tobytes(), blocks, length)
            assert np.array_equal(batched[row], reference)

    def test_rejects_short_streams(self):
        with pytest.raises(ValueError):
            deinterleave_blocks_batch(np.zeros((2, 5), dtype=np.uint8), 2, 3)


class TestCleanFrameSkip:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 16))
    def test_decode_blocks_matches_reference_across_damage(self, seed, errors):
        """Precomputed-syndrome decode == reference BM/Chien/Forney corrector."""
        code = get_code(255, 223)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(4, code.k), dtype=np.uint8).astype(np.int32)
        codewords = code.encode_blocks(data)
        damaged = codewords.copy()
        if errors:
            row = int(rng.integers(0, damaged.shape[0]))
            positions = rng.choice(code.n, size=errors, replace=False)
            damaged[row, positions] ^= rng.integers(1, 256, size=errors)
        syndromes = code.syndromes_blocks(damaged)
        reference_out, reference_fixed = code._decode_blocks_reference(damaged)
        fast_out, fast_fixed = code.decode_blocks(damaged)
        precomputed_out, precomputed_fixed = code.decode_blocks(
            damaged, syndromes=syndromes
        )
        assert np.array_equal(fast_out, reference_out)
        assert fast_fixed == reference_fixed
        assert np.array_equal(precomputed_out, reference_out)
        assert precomputed_fixed == reference_fixed

    def test_rejects_wrong_syndrome_shape(self):
        code = get_code(255, 223)
        codewords = code.encode_blocks(np.zeros((2, code.k), dtype=np.int32))
        with pytest.raises(ValueError):
            code.decode_blocks(codewords, syndromes=np.zeros((3, code.parity)))


class TestStripeReconstruction:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
    )
    def test_gf_matrix_multiply_matches_reference(self, rows, inner, width, seed):
        rng = np.random.default_rng(seed)
        left = rng.integers(0, 256, size=(rows, inner)).astype(np.int32)
        right = rng.integers(0, 256, size=(inner, width)).astype(np.int32)
        assert np.array_equal(
            _gf_matrix_multiply(left, right),
            _gf_matrix_multiply_reference(left, right),
        )

    @pytest.mark.parametrize("data_shards,parity_shards", [(2, 1), (4, 2)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_reconstruct_group_erasures(self, data_shards, parity_shards, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        lost_count = data.draw(st.integers(1, parity_shards))
        rng = np.random.default_rng(seed)
        code = OuterCode(data_shards, parity_shards)
        payloads = [
            rng.integers(0, 256, size=int(rng.integers(1, 64)), dtype=np.uint8).tobytes()
            for _ in range(data_shards)
        ]
        parity = code.encode_group(payloads)
        length = max(len(payload) for payload in payloads)
        padded = [payload.ljust(length, b"\0") for payload in payloads]
        shards: list = padded + parity
        lost = rng.choice(code.total_shards, size=lost_count, replace=False)
        for index in lost:
            shards[index] = None
        recovered = code.reconstruct_group(shards, payload_length=length)
        assert recovered == padded


class TestSamplerHelpers:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 400), min_size=4, max_size=40),
            min_size=1,
            max_size=6,
        )
    )
    def test_band_centers_rows_matches_reference(self, profiles):
        width = max(len(profile) for profile in profiles)
        matrix = np.zeros((len(profiles), width), dtype=np.int64)
        for row, profile in enumerate(profiles):
            matrix[row, : len(profile)] = profile
        if not (matrix.max(axis=1) > 0).all():
            return  # callers guard rows with no ink before _band_centers_rows
        first, last = _band_centers_rows(matrix)
        for row in range(matrix.shape[0]):
            ref_first, ref_last = EmblemSampler._band_centers(matrix[row])
            assert first[row] == ref_first
            assert last[row] == ref_last

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from(
        ["uniform", "bimodal", "constant", "two-values"]
    ))
    def test_otsu_stack_matches_reference(self, seed, count, kind):
        rng = np.random.default_rng(seed)
        shape = (count, int(rng.integers(1, 24)), int(rng.integers(1, 24)))
        if kind == "uniform":
            stack = rng.integers(0, 256, size=shape, dtype=np.uint8)
        elif kind == "bimodal":
            stack = np.where(
                rng.random(shape) < 0.5, np.uint8(12), np.uint8(240)
            ).astype(np.uint8)
        elif kind == "constant":
            stack = np.full(shape, int(rng.integers(0, 256)), dtype=np.uint8)
        else:
            low, high = rng.choice(256, size=2, replace=False)
            stack = np.where(
                rng.random(shape) < 0.9, np.uint8(low), np.uint8(high)
            ).astype(np.uint8)
        thresholds = _otsu_threshold_stack(stack)
        for index in range(count):
            assert thresholds[index] == otsu_threshold(stack[index])


class TestLetterCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=300))
    def test_encode_matches_reference_and_round_trips(self, data):
        letters = bytes_to_letters(data)
        assert letters == _bytes_to_letters_reference(data)
        paged = "\n\n".join(format_letter_pages(letters))
        assert letters_to_bytes(paged) == data

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=120))
    def test_decode_matches_reference_on_arbitrary_text(self, text):
        try:
            fast = ("ok", letters_to_bytes(text))
        except LetterCodecError as error:
            fast = ("err", str(error))
        try:
            reference = ("ok", _letters_to_bytes_reference(text))
        except LetterCodecError as error:
            reference = ("err", str(error))
        assert fast == reference


class TestChunkFloor:
    def test_floor_collapses_small_counts_to_serial(self):
        # The benchmark smoke payload (287 frames) must stay one chunk: the
        # recorded decode_parallelism=2 slowdown came from splitting it.
        assert len(chunk_bounds(287, 2, min_chunk=MIN_DECODE_CHUNK)) == 1
        assert len(chunk_bounds(MIN_DECODE_CHUNK * 2 - 1, 2, min_chunk=MIN_DECODE_CHUNK)) == 1
        assert len(chunk_bounds(MIN_DECODE_CHUNK * 2, 2, min_chunk=MIN_DECODE_CHUNK)) == 2

    def test_floor_keeps_large_counts_parallel(self):
        bounds = chunk_bounds(MIN_DECODE_CHUNK * 4, 4, min_chunk=MIN_DECODE_CHUNK)
        assert len(bounds) == 4
        assert bounds[0] == (0, MIN_DECODE_CHUNK)
        assert bounds[-1][1] == MIN_DECODE_CHUNK * 4

    def test_bounds_cover_exactly(self):
        for count in (0, 1, 7, 159, 160, 161, 319, 320, 1000):
            for parts in (1, 2, 3, 8):
                bounds = chunk_bounds(count, parts, min_chunk=MIN_DECODE_CHUNK)
                flattened = [i for start, stop in bounds for i in range(start, stop)]
                assert flattened == list(range(count)), (count, parts)

    def test_parallel_decode_output_equals_serial(self, rng, monkeypatch):
        coder = MOCoder(SPEC)
        payload = rng.integers(0, 256, size=SPEC.payload_capacity * 5, dtype=np.uint8).tobytes()
        stream = coder.encode(payload)
        images = [emblem.to_image().astype(np.uint8) for emblem in stream.emblems]
        serial_payload, serial_report = coder.decode(images)
        assert serial_payload == payload
        # Force real chunking (bypassing the floor) to pin byte-identity of
        # the pipeline's chunked path itself, not just the floor's collapse
        # to one job per segment.
        monkeypatch.setattr(pipeline_module, "MIN_DECODE_CHUNK", 1)
        assert len(chunk_bounds(len(images), 2, min_chunk=1)) == 2
        crc = crc32_of(payload)
        record = SegmentRecord(0, 0, len(payload), crc, 0, len(images), len(payload))
        manifest = ArchiveManifest(
            "test-small", "STORE", len(payload), crc, len(images), 0, segments=(record,)
        )
        pipeline = RestorePipeline(get_profile("test"), decode_parallelism=2)
        [decoded] = pipeline.iter_decode(
            manifest, [record], lambda _record: images, decode_payload=False
        )
        assert decoded.payload is None
        assert decoded.container == serial_payload
        assert decoded.report == serial_report
