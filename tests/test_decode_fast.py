"""Bit-identity proofs for the vectorised decode hot paths.

Every fast path in ``src/`` is pinned with hypothesis against an oracle in
``tests/oracles/`` (or, for the Otsu threshold and the letter decoder,
against the fallback the fast path itself hands degenerate input to):

- ``decode_image_batch`` vs the per-image ``oracles.emblem.decode_image``
  across a grid of scan damage (pixel flips, blanks, noise, truncation,
  wrong rank), groups of one included;
- ``deinterleave_blocks_batch`` vs the per-stream ``deinterleave_blocks``;
- ``decode_blocks`` with precomputed syndromes / the clean-frame skip vs the
  per-block corrector;
- the vectorised GF(256) matrix product vs its row-at-a-time oracle, and
  volume-style ``reconstruct_group`` erasures over it;
- ``_band_centers_rows`` vs ``EmblemSampler._band_centers``;
- ``_otsu_threshold_stack`` vs ``otsu_threshold``, and the histogram-free
  threshold of a 0/255 raster vs the histogram path forced;
- the Bootstrap letter codec vs its per-character loops;
- the restore pipeline's ``chunk_bounds`` minimum-chunk floor and
  serial/chunked data-first decode equality.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import emblem as emblem_oracle
from oracles import letters as letters_oracle
from oracles import reed_solomon as rs_oracle
from oracles.interleave import deinterleave_blocks
from oracles.outer_code import gf_matrix_multiply
from repro.bootstrap.letters import (
    _letters_to_bytes_fallback,
    bytes_to_letters,
    format_letter_pages,
    letters_to_bytes,
)
from repro.errors import LetterCodecError, MOCoderError
from repro.media.distortions import add_dust, add_scratches
from repro.mocoder import EmblemKind, MOCoder
from repro.mocoder import emblem as emblem_module
from repro.mocoder.emblem import (
    _band_centers_rows,
    _binarisation_thresholds,
    _decode_stack,
    _otsu_threshold_stack,
    build_emblem,
    decode_image_batch,
    otsu_threshold,
)
from repro.mocoder.interleave import deinterleave_blocks_batch
from repro.mocoder.mocoder import DecodeReport
from repro.mocoder.outer_code import OuterCode, _gf_matrix_multiply
from repro.mocoder.reed_solomon import get_code
from repro.core.archive import SegmentRecord
from repro.core.profiles import get_profile
from repro.pipeline import get_executor, pipeline as pipeline_module
from repro.pipeline.pipeline import MIN_DECODE_CHUNK, chunk_bounds, decode_segments
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
        return emblem_oracle.decode_image(SPEC, image)
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
        """Batched decode == per-image decode, damaged scans included.

        Scans of differing size (padding, truncation) form groups of their
        own, so groups of one are drawn as well as shared stacks.
        """
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        count = data.draw(st.integers(1, 6))
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
        # A lone float scan is a group of one.
        _assert_batch_matches_reference([_scan(rng, 3).astype(np.float32)])


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
        reference_out, reference_fixed = rs_oracle.decode_blocks(code, damaged)
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
            gf_matrix_multiply(left, right),
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
            ref_first, ref_last = emblem_oracle.EmblemSampler._band_centers(matrix[row])
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


class TestBilevelThreshold:
    """A uint8 raster of 0 and 255 pixels, both present, skips the Otsu
    histogram; its decode must come out exactly as with the histogram."""

    @staticmethod
    def _outcomes(stack):
        return [
            (type(outcome), str(outcome)) if isinstance(outcome, MOCoderError)
            else (outcome[0].header, outcome[0].payload, outcome[1])
            for outcome in _decode_stack(SPEC, stack)
        ]

    def _assert_histogram_agrees(self, images):
        stack = np.stack(images)
        pixels = stack.shape[1] * stack.shape[2]
        two_tone = [
            np.isin(image, (0, 255)).all() and 0 < np.count_nonzero(image) < pixels
            for image in images
        ]
        thresholds = _binarisation_thresholds(stack)
        assert [value == 0.5 for value in thresholds[two_tone]] == [True] * sum(two_tone)
        fast = self._outcomes(stack)
        with mock.patch.object(emblem_module, "bilevel_tones", lambda image: 0):
            assert np.array_equal(_binarisation_thresholds(stack), thresholds)
            forced = self._outcomes(stack)
        assert fast == forced

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_bilevel_rasters_decode_as_with_the_histogram(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        images = []
        for index in range(data.draw(st.integers(1, 5))):
            image = _scan(rng, index)
            damage = data.draw(st.sampled_from(
                ["clean", "dust", "scratches", "dust-and-scratches", "white", "black", "gray"]
            ))
            if "dust" in damage:
                image = add_dust(image, int(rng.integers(1, 400)), int(rng.integers(1, 8)), rng)
            if "scratches" in damage:
                image = add_scratches(image, int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
            if damage in ("white", "black"):
                image = np.full_like(image, 255 if damage == "white" else 0)
            if damage == "gray":
                image = np.where(image == 0, np.uint8(30), np.uint8(225))
                image[rng.integers(0, image.shape[0]), :] = int(rng.integers(0, 256))
            images.append(image)
        self._assert_histogram_agrees(images)

    def test_a_batch_mixing_bilevel_and_gray_scans(self, rng):
        bilevel = [_scan(rng, index) for index in range(3)]
        gray = bilevel[1] // 2 + 100
        black = np.zeros_like(bilevel[0])
        dusty = add_dust(bilevel[2], 300, 6, rng)
        self._assert_histogram_agrees([bilevel[0], gray, black, dusty, bilevel[1]])


class TestLetterCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=300))
    def test_encode_matches_reference_and_round_trips(self, data):
        letters = bytes_to_letters(data)
        assert letters == letters_oracle.bytes_to_letters(data)
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
            reference = ("ok", _letters_to_bytes_fallback(text))
        except LetterCodecError as error:
            reference = ("err", str(error))
        assert fast == reference


class TestChunkFloor:
    def test_floor_collapses_small_counts_to_serial(self):
        # The benchmark smoke payload (287 frames) must stay one chunk: the
        # recorded 2-way-split slowdown came from splitting it.
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
        assert stream.data_emblem_count == 5 and len(images) == 8
        # The data-first reference: the five data frames in one pass, no parity.
        serial_report = DecodeReport(emblems_seen=5)
        serial_payload, serial_report = coder.assemble(
            coder.decode_images(images[:5], serial_report), serial_report
        )
        assert serial_payload == payload
        # Force real chunking (bypassing the floor) to pin byte-identity of
        # the pipeline's chunked path itself, not just the floor's collapse
        # to one job per segment.
        monkeypatch.setattr(pipeline_module, "MIN_DECODE_CHUNK", 1)
        assert len(chunk_bounds(5, 2, min_chunk=1)) == 2
        crc = crc32_of(payload)
        record = SegmentRecord(0, 0, len(payload), crc, 0, len(images), len(payload))
        fetches = []

        def frames_for(_record, start, count):
            fetches.append((start, count))
            return images[start:] if count is None else images[start:start + count]

        with get_executor("thread:2") as executor:
            [decoded] = decode_segments(
                [record], frames_for, SPEC, True, executor, decode_payload=False
            )
        assert fetches == [(0, 5)]
        assert decoded.payload is None
        assert decoded.container == serial_payload
        assert decoded.report == serial_report
