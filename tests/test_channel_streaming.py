"""Channel-streaming and sub-segment decode equivalence (PR 4 tentpole).

The streaming restore path changes *how* step 7 and step 5 execute — channel
simulation per batch through the executor, per-image decode split into
chunks — but must never change *what* is restored.  These tests pin that
contract:

* :meth:`~repro.media.channel.MediaChannel.scan_frames` is batching- and
  order-invariant (a hypothesis property over split points and seeds),
* the streaming per-batch record/scan path restores bit-identically to a
  whole-frame ``MediaChannel.roundtrip`` of every frame across media ×
  executors,
* a multi-worker executor, which splits a large segment's decode into one
  chunk per worker, restores bit-identically to the serial decode, for
  segmented and one-shot (single huge segment) archives alike, with the
  same ``DecodeReport`` counts when segments really split into chunks,
* ``read_range`` over a store target returns the same bytes on a serial and
  a thread-pool executor.

Archives are built through the shared ``make_payload`` / ``build_archive``
factory fixtures in ``conftest.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ArchiveConfig, open_archive, open_restore, run_end_to_end
from repro.core.archive import MicrOlonysArchive
from repro.media.distortions import OFFICE_SCAN
from repro.media.paper import PaperChannel
from repro.store import MemoryBackend


# --------------------------------------------------------------------------- #
# scan_frames: the per-frame seeding contract
# --------------------------------------------------------------------------- #
class TestScanFramesInvariance:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        split=st.integers(min_value=0, max_value=6),
        lane=st.integers(min_value=0, max_value=2),
    )
    def test_batch_split_invariance(self, seed: int, split: int, lane: int) -> None:
        """Scanning in one call == scanning in any two-batch split."""
        channel = PaperChannel(distortion=OFFICE_SCAN.scaled(0.5))
        rng = np.random.default_rng(99)
        frames = [
            rng.integers(0, 256, size=(40, 40), dtype=np.uint8) for _ in range(6)
        ]
        whole = channel.scan_frames(frames, seed=seed, lane=lane).images
        head = channel.scan_frames(frames[:split], seed=seed, start_index=0, lane=lane).images
        tail = channel.scan_frames(
            frames[split:], seed=seed, start_index=split, lane=lane
        ).images
        for expected, got in zip(whole, head + tail):
            np.testing.assert_array_equal(expected, got)

    def test_lanes_are_disjoint_streams(self) -> None:
        channel = PaperChannel(distortion=OFFICE_SCAN)
        frame = np.full((40, 40), 200, dtype=np.uint8)
        lane0 = channel.scan_frames([frame], seed=7, lane=0).images[0]
        lane1 = channel.scan_frames([frame], seed=7, lane=1).images[0]
        assert not np.array_equal(lane0, lane1)

    def test_whole_frame_scan_unchanged(self) -> None:
        """The legacy scan() still threads one RNG across all frames."""
        channel = PaperChannel(distortion=OFFICE_SCAN)
        rng = np.random.default_rng(3)
        frames = [rng.integers(0, 256, size=(40, 40), dtype=np.uint8) for _ in range(3)]
        again = PaperChannel(distortion=OFFICE_SCAN)
        for a, b in zip(channel.scan(frames, seed=5).images, again.scan(frames, seed=5).images):
            np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------- #
# Streaming record/scan == whole-frame record/scan (restored bytes)
# --------------------------------------------------------------------------- #
class TestStreamingChannelEquivalence:
    @pytest.mark.parametrize("media", ["test", "dna"])
    @pytest.mark.parametrize("executor", ["serial", "thread:2"])
    def test_streaming_matches_whole_frame(self, media: str, executor: str,
                                           make_payload, build_archive) -> None:
        """Per-batch record/scan restores what a whole-frame pass over every
        frame restores (the whole-frame scans fed to ``read_from_scans``)."""
        payload = make_payload(4000)
        config = ArchiveConfig(
            media=media, codec="portable", segment_size=1024,
            executor=executor, scan_seed=13,
        )
        archive = build_archive(config, payload)
        channel = config.channel()
        with open_restore(archive, config) as reader:
            streamed = reader.read_via_channel(seed=13)
            whole = reader.read_from_scans(
                channel.roundtrip(archive.data_emblem_images, seed=13),
                channel.roundtrip(archive.system_emblem_images, seed=13),
                archive.bootstrap_text, "binary", archive.manifest,
            )
        assert streamed.payload == whole.payload == payload
        assert any("per batch" in note for note in streamed.notes)

    @pytest.mark.parametrize("seed", [0, 7, 20210104])
    def test_streaming_is_executor_invariant(self, seed: int, make_payload,
                                             build_archive) -> None:
        """Per-frame seeding makes the streamed restore executor-independent."""
        payload = make_payload(3000, seed=seed + 1)
        config = ArchiveConfig(media="test", segment_size=512, scan_seed=seed)
        archive = build_archive(config, payload)
        for executor in ("serial", "thread:2", "process:2"):
            with open_restore(archive, config, executor=executor) as reader:
                assert reader.read_via_channel(seed=seed).payload == payload

    def test_run_end_to_end_streams_the_channel(self, make_payload) -> None:
        payload = make_payload(2500)
        result = run_end_to_end(
            ArchiveConfig(media="test", segment_size=512, scan_seed=21), payload
        )
        assert result.ok and result.payload == payload
        assert any("per batch" in note for note in result.notes)
        assert result.frames_recorded == (
            result.archive.manifest.data_emblem_count
            + result.archive.manifest.system_emblem_count
        )

    def test_open_restore_via_channel_session(self, make_payload, build_archive) -> None:
        """Without a seed, read_via_channel() scans with the config's scan_seed."""
        payload = make_payload(2000)
        config = ArchiveConfig(media="test", segment_size=512, scan_seed=3)
        archive = build_archive(config, payload)
        with open_restore(archive, config) as reader:
            result = reader.read_via_channel()
        assert result.payload == payload
        assert any("seed=3" in note for note in result.notes)

    def test_distortion_override_streams_when_named(self, make_payload,
                                                    build_archive) -> None:
        """A named distortion override rides the ChannelSpec into the jobs."""
        payload = make_payload(2500)
        config = ArchiveConfig(
            media="test", segment_size=512, distortion="pristine", scan_seed=9
        )
        archive = build_archive(config, payload)
        result = open_restore(archive, config).read_via_channel(seed=9)
        assert result.payload == payload
        assert any("per batch" in note for note in result.notes)



# --------------------------------------------------------------------------- #
# Executor-driven chunking: chunked sub-segment decode == serial decode
# --------------------------------------------------------------------------- #
def _count_decode_jobs(monkeypatch) -> list[int]:
    """Record the scan count of every ``MOCoder.decode_images`` call."""
    from repro.mocoder import MOCoder

    chunk_sizes: list[int] = []
    decode_images = MOCoder.decode_images

    def counting(self, images, report, image_offset=0):
        chunk_sizes.append(len(images))
        return decode_images(self, images, report, image_offset)

    monkeypatch.setattr(MOCoder, "decode_images", counting)
    return chunk_sizes


class TestDecodeParallelism:
    @pytest.mark.parametrize("executor", ["serial", "thread:3"])
    def test_one_shot_archive_matches_serial(self, executor: str, make_payload,
                                             build_archive) -> None:
        """A single huge segment decodes to the same bytes on any executor."""
        payload = make_payload(9000)
        config = ArchiveConfig(media="test", segment_size=None)
        archive = build_archive(config, payload)
        assert len(archive.manifest.segments) == 1
        with open_restore(archive, config) as reader:
            serial = reader.read()
        with open_restore(archive, config, executor=executor) as reader:
            chunked = reader.read()
        assert chunked.payload == serial.payload == payload
        assert chunked.data_report.emblems_decoded == serial.data_report.emblems_decoded
        assert chunked.data_report.emblems_seen == serial.data_report.emblems_seen

    def test_segmented_archive_matches_serial(self, make_payload, build_archive) -> None:
        payload = make_payload(8000)
        config = ArchiveConfig(media="test", segment_size=2048)
        archive = build_archive(config, payload)
        serial = open_restore(archive, config).read()
        with open_restore(archive, config, executor="thread:2") as reader:
            parallel = reader.read()
        assert parallel.payload == serial.payload == payload

    @pytest.mark.parametrize("decode_mode", ["python", "dynarisc"])
    def test_forced_chunks_match_serial(self, decode_mode: str, monkeypatch,
                                        make_payload, build_archive) -> None:
        """Segments really split into chunks restore what serial restores.

        Lowering the pipeline's chunk floor makes a ``thread:3`` executor
        split every segment into three jobs that finish on the consuming
        thread; the bytes and every ``DecodeReport`` count (including the
        failure of a blanked frame in a later chunk, numbered by its
        position in the segment) must match the one-job-per-segment decode.
        ``dynarisc`` runs the archived decoder over each reassembled
        container, so a corrupted chunk merge cannot slip through.
        """
        from repro.pipeline import pipeline as pipeline_module

        payload = make_payload(3000)
        config = ArchiveConfig(media="test", segment_size=1024, decode_mode=decode_mode)
        archive = build_archive(config, payload)
        images = list(archive.data_emblem_images)
        for record in archive.manifest.segments:
            images[record.emblem_start + 4] = np.full_like(images[record.emblem_start], 255)
        damaged = MicrOlonysArchive(
            archive.manifest, images, archive.system_emblem_images, archive.bootstrap_text
        )
        with open_restore(damaged, config) as reader:
            serial = reader.read()

        monkeypatch.setattr(pipeline_module, "MIN_DECODE_CHUNK", 1)
        chunk_sizes = _count_decode_jobs(monkeypatch)
        with open_restore(damaged, config, executor="thread:3") as reader:
            chunked = reader.read()
        segments = archive.manifest.segments
        # Three chunks per segment, plus the one system-stream decode.
        assert len(chunk_sizes) == 3 * len(segments) + 1
        assert chunked.payload == serial.payload == payload
        assert chunked.data_report == serial.data_report
        assert serial.data_report.emblems_failed == len(segments)
        assert serial.data_report.groups_reconstructed == len(segments)
        assert chunked.system_report == serial.system_report
        assert chunked.emulator_steps == serial.emulator_steps
        assert (serial.emulator_steps > 0) == (decode_mode == "dynarisc")

    def test_streaming_channel_with_decode_parallelism(self, make_payload,
                                                       build_archive) -> None:
        """Both tentpole halves composed: per-batch channel + a thread pool."""
        payload = make_payload(6000)
        config = ArchiveConfig(
            media="test", segment_size=1500, executor="thread:2", scan_seed=17,
        )
        archive = build_archive(config, payload)
        result = open_restore(archive, config).read_via_channel(seed=17)
        assert result.payload == payload

    def test_serial_executor_never_splits(self, monkeypatch, make_payload,
                                          build_archive) -> None:
        """Chunking follows the executor's worker count, at the real floor.

        A one-segment archive of at least ``2 * MIN_DECODE_CHUNK`` frames
        decodes in one job under ``serial`` and in two under ``thread:2``,
        to the same bytes and the same ``DecodeReport``.
        """
        from repro.pipeline.pipeline import MIN_DECODE_CHUNK

        payload = make_payload(56_000)
        config = ArchiveConfig(media="test", codec="store", segment_size=None)
        archive = build_archive(config, payload)
        [record] = archive.manifest.segments
        assert record.emblem_count >= 2 * MIN_DECODE_CHUNK
        chunk_sizes = _count_decode_jobs(monkeypatch)
        results, jobs = {}, {}
        for executor in ("serial", "thread:2"):
            chunk_sizes.clear()
            with open_restore(archive, config, executor=executor) as reader:
                results[executor] = reader.read()
            # The data segment's jobs, then the one system-stream decode.
            jobs[executor] = len(chunk_sizes) - 1
        assert jobs == {"serial": 1, "thread:2": 2}
        assert results["serial"].payload == results["thread:2"].payload == payload
        assert results["serial"].data_report == results["thread:2"].data_report

    def test_config_validates_parallelism(self) -> None:
        """Sub-segment parallelism and fetch overlap follow the executor: the
        old ``decode_parallelism`` and ``readahead`` keys are dropped from
        stored configs and name their replacement when set on a live one."""
        from repro.errors import ConfigError

        for key in ("decode_parallelism", "readahead"):
            with pytest.raises(ConfigError, match=f'{key}.*executor="thread:N"'):
                ArchiveConfig().replace(**{key: 2})
        stored = {"media": "test", "executor": "thread:2", "decode_parallelism": 4,
                  "readahead": 2}
        assert ArchiveConfig.from_dict(stored) == ArchiveConfig(media="test", executor="thread:2")
        config = ArchiveConfig(executor="thread:4")
        assert ArchiveConfig.from_json(config.to_json()) == config


# --------------------------------------------------------------------------- #
# Range reads fetch inside the executor's window: serial == thread pool
# --------------------------------------------------------------------------- #
class TestRangeReadExecutors:
    def test_read_range_matches_serial(self, make_payload) -> None:
        payload = make_payload(16000)
        config = ArchiveConfig(media="test", codec="store", segment_size=2048)
        target = "mem:range-read-executors"
        try:
            with open_archive(config, target=target) as writer:
                writer.write(payload)
            with (
                open_restore(target) as serial,
                open_restore(target, executor="thread:2") as threaded,
            ):
                for offset, length in ((0, 100), (3000, 5000), (15000, 4000), (1000, 9000)):
                    expected = payload[offset:offset + length]
                    assert serial.read_range(offset, length) == expected
                    assert threaded.read_range(offset, length) == expected
                assert serial.frames_decoded == threaded.frames_decoded
        finally:
            MemoryBackend.discard(target)
