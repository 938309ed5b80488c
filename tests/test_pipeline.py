"""Tests for the streaming archival pipeline (repro.pipeline).

Covers the segmenter, the executor backends, pipeline round-trips across
payload sizes / DBCoder profiles / executors (serial and parallel backends
must produce byte-identical archives), the per-segment manifest metadata,
and the estimate_emblems fix.
"""

import dataclasses
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ArchiveConfig,
    TEST_PROFILE,
    open_archive,
    open_restore,
)
from repro.core.archive import ArchiveManifest, SegmentRecord
from repro.core.profiles import PROFILES, MediaProfile, register_profile
from repro.dbcoder import Profile
from repro.dbcoder.formats import HEADER_SIZE
from repro.errors import RestorationError, UnknownNameError
from repro.media.paper import PaperChannel
from repro.mocoder.emblem import EmblemSpec
from repro.pipeline import (
    get_executor,
    iter_segments,
    segment_count,
    SerialExecutor,
    ThreadPoolSegmentExecutor,
    ProcessPoolSegmentExecutor,
)
from repro.util.crc import crc32_of

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: Large emblems (57 kB payload) so megabyte-scale tests stay fast.
BIG_SPEC_PROFILE = MediaProfile(
    name="test-big-emblems",
    description="paper-capacity emblems at 2 px/cell for MB-scale tests",
    spec=EmblemSpec(
        name="test-big-emblems",
        data_cells_x=1064,
        data_cells_y=1056,
        cell_pixels=2,
    ),
    channel_factory=lambda: PaperChannel(dpi=300),
)

# Register the bench profile so manifest-driven open_restore resolves it —
# the same path a user takes to plug a custom medium into the facade.
if BIG_SPEC_PROFILE.name not in PROFILES:
    register_profile(BIG_SPEC_PROFILE)


def random_payload(size: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, size=size, dtype=np.uint8))


def compressible_payload(size: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    words = [b"lineitem", b"orders", b"INSERT", b"VALUES", b"carefully", b"(42, 'x')"]
    parts = []
    total = 0
    while total < size:
        word = words[int(rng.integers(0, len(words)))]
        parts.append(word)
        total += len(word)
    return b" ".join(parts)[:size]


def archives_identical(a, b) -> bool:
    # The embedded session config names the executor; everything else that
    # goes onto the medium must match.
    if dataclasses.replace(a.manifest, config=None) != dataclasses.replace(
        b.manifest, config=None
    ) or a.bootstrap_text != b.bootstrap_text:
        return False
    if len(a.data_emblem_images) != len(b.data_emblem_images):
        return False
    return all(
        np.array_equal(x, y) for x, y in zip(a.data_emblem_images, b.data_emblem_images)
    ) and all(
        np.array_equal(x, y)
        for x, y in zip(a.system_emblem_images, b.system_emblem_images)
    )


# --------------------------------------------------------------------------- #
# Segmenter
# --------------------------------------------------------------------------- #
class TestSegmenter:
    def test_bytes_source_chunking(self):
        segments = list(iter_segments([b"abcdefghij"], 4))
        assert [s.data for s in segments] == [b"abcd", b"efgh", b"ij"]
        assert [s.offset for s in segments] == [0, 4, 8]
        assert [s.index for s in segments] == [0, 1, 2]

    def test_none_segment_size_is_one_shot(self):
        segments = list(iter_segments([b"abc", b"def"], None))
        assert len(segments) == 1 and segments[0].data == b"abcdef"

    def test_empty_payload_yields_one_empty_segment(self):
        segments = list(iter_segments([], 1024))
        assert len(segments) == 1 and segments[0].data == b""

    def test_chunk_iterable_source_rechunks(self):
        chunks = [b"aa", b"bbbb", b"c" * 10, b"", b"dd"]
        segments = list(iter_segments(iter(chunks), 5))
        assert b"".join(s.data for s in segments) == b"".join(chunks)
        assert all(len(s.data) == 5 for s in segments[:-1])

    def test_segment_count(self):
        assert segment_count(0, 100) == 1
        assert segment_count(100, None) == 1
        assert segment_count(100, 100) == 1
        assert segment_count(101, 100) == 2

    def test_invalid_segment_size(self):
        with pytest.raises(ValueError):
            list(iter_segments([b"abc"], 0))
        with pytest.raises(ValueError):
            segment_count(10, -1)


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class TestExecutors:
    @pytest.mark.parametrize("executor", [
        SerialExecutor(),
        ThreadPoolSegmentExecutor(workers=3, window=2),
        ProcessPoolSegmentExecutor(workers=2, window=3),
    ])
    def test_map_ordered_preserves_order(self, executor):
        with executor:
            assert list(executor.map_ordered(_square, range(20))) == [
                i * i for i in range(20)
            ]

    def test_errors_propagate(self):
        executor = ThreadPoolSegmentExecutor(workers=2)
        with executor, pytest.raises(ValueError):
            list(executor.map_ordered(_explode_on_seven, range(10)))

    def test_get_executor_specs(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        thread = get_executor("thread:5")
        assert isinstance(thread, ThreadPoolSegmentExecutor) and thread.workers == 5
        assert isinstance(get_executor("process:2"), ProcessPoolSegmentExecutor)
        with pytest.raises(UnknownNameError, match="did you mean"):
            get_executor("thredd")
        with pytest.raises(UnknownNameError):
            get_executor("quantum")
        with pytest.raises(ValueError):
            get_executor("thread:zero")

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
    )
    def test_pools_size_from_the_cpus_this_process_may_use(self):
        """A process pinned to one CPU runs ``auto`` serially and sizes a
        bare pool to one worker, however many CPUs the machine shows."""
        script = textwrap.dedent("""
            import os

            from repro.pipeline import SerialExecutor, get_executor

            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            assert isinstance(get_executor("auto"), SerialExecutor)
            for name in ("thread", "process"):
                executor = get_executor(name)
                assert executor.workers == 1, (name, executor.workers)
                executor.close()
            print("PINNED-OK")
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert "PINNED-OK" in proc.stdout


def _square(x):
    return x * x


def _explode_on_seven(x):
    if x == 7:
        raise ValueError("seven")
    return x


# --------------------------------------------------------------------------- #
# Round-trips
# --------------------------------------------------------------------------- #
class TestPipelineRoundTrip:
    @pytest.mark.parametrize("size", [0, 1, 198, 199, 200, 5_000])
    def test_payload_size_sweep(self, size, build_archive):
        payload = random_payload(size, seed=100 + size)
        archive = build_archive(ArchiveConfig(media="test", segment_size=1024), payload)
        result = open_restore(archive).read()
        assert result.payload == payload

    @pytest.mark.parametrize("dbcoder_profile", list(Profile))
    def test_all_dbcoder_profiles(self, dbcoder_profile, build_archive):
        payload = compressible_payload(12_000, seed=7)
        config = ArchiveConfig(media="test", codec=dbcoder_profile.name, segment_size=4096)
        archive = build_archive(config, payload)
        assert len(archive.manifest.segments) == 3
        result = open_restore(archive).read()
        assert result.payload == payload

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_segment_boundaries(self, seed, build_archive):
        """Seeded property test: random sizes + random segment sizes round-trip."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(0, 20_000))
        segment_size = int(rng.integers(1, 8_192))
        payload = random_payload(size, seed=seed * 97)
        archive = build_archive(
            ArchiveConfig(media="test", segment_size=segment_size), payload
        )
        assert archive.manifest.archive_bytes == size
        result = open_restore(archive).read()
        assert result.payload == payload

    def test_megabyte_scale_roundtrip(self, build_archive):
        """Several-MB payload, bounded segments, big emblems, bit-exact."""
        payload = random_payload(3 * 1024 * 1024, seed=11)
        config = ArchiveConfig(
            media=BIG_SPEC_PROFILE.name, codec="store", segment_size=1024 * 1024
        )
        archive = build_archive(config, payload)
        assert len(archive.manifest.segments) == 3
        result = open_restore(archive).read()
        assert result.payload == payload

    def test_stream_source_matches_bytes_source(self, build_archive):
        payload = random_payload(9_000, seed=5)
        config = ArchiveConfig(media="test", segment_size=2048)
        from_bytes = build_archive(config, payload)
        source = io.BytesIO(payload)
        with open_archive(config) as writer:
            for chunk in iter(lambda: source.read(1_000), b""):
                writer.write(chunk)
        assert archives_identical(from_bytes, writer.archive)


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", ["thread:2", "process:2"])
    def test_parallel_matches_serial_byte_identical(self, executor, build_archive):
        payload = compressible_payload(30_000, seed=23)
        config = ArchiveConfig(media="test", segment_size=8_192)
        serial = build_archive(config, payload)
        parallel = build_archive(config.replace(executor=executor), payload)
        assert archives_identical(serial, parallel)

    def test_parallel_segmented_restore(self, build_archive):
        payload = random_payload(16_000, seed=31)
        archive = build_archive(ArchiveConfig(media="test", segment_size=4_096), payload)
        with open_restore(archive, executor="thread:2") as reader:
            assert reader.read().payload == payload

    def test_segmented_restore_under_emulated_decoder(self, build_archive):
        """The archived DynaRisc decoder runs once per segment."""
        payload = compressible_payload(6_000, seed=41)
        archive = build_archive(ArchiveConfig(media="test", segment_size=2_048), payload)
        assert len(archive.manifest.segments) == 3
        result = open_restore(archive, decode_mode="dynarisc").read()
        assert result.payload == payload
        assert result.emulator_steps > 0
        assert "3 segments decoded under the dynarisc emulator" in result.notes[-1]


# --------------------------------------------------------------------------- #
# Manifest metadata
# --------------------------------------------------------------------------- #
class TestSegmentMetadata:
    @pytest.fixture(scope="class")
    def archive(self, build_archive):
        payload = random_payload(10_000, seed=77)
        return (
            build_archive(ArchiveConfig(media="test", segment_size=3_000), payload),
            payload,
        )

    def test_records_partition_the_payload(self, archive):
        artefact, payload = archive
        records = artefact.manifest.segments
        assert records[0].offset == 0
        for before, after in zip(records, records[1:]):
            assert after.offset == before.offset + before.length
        assert sum(r.length for r in records) == len(payload)
        for record in records:
            chunk = payload[record.offset:record.offset + record.length]
            assert record.crc32 == crc32_of(chunk)

    def test_records_partition_the_emblems(self, archive):
        artefact, _ = archive
        records = artefact.manifest.segments
        assert records[0].emblem_start == 0
        for before, after in zip(records, records[1:]):
            assert after.emblem_start == before.emblem_start + before.emblem_count
        total = records[-1].emblem_start + records[-1].emblem_count
        assert total == artefact.manifest.data_emblem_count
        assert total == len(artefact.data_emblem_images)

    def test_manifest_json_roundtrip(self, archive):
        artefact, _ = archive
        restored = ArchiveManifest.from_json(artefact.manifest.to_json())
        assert restored == artefact.manifest
        assert isinstance(restored.segments[0], SegmentRecord)

    def test_pre_pipeline_manifest_still_loads(self):
        legacy = """{
            "archive_bytes": 10, "archive_crc32": 1, "data_emblem_count": 1,
            "dbcoder_profile": "PORTABLE", "payload_kind": "sql",
            "profile_name": "test-small", "system_emblem_count": 1
        }"""
        manifest = ArchiveManifest.from_json(legacy)
        assert manifest.segments == () and manifest.segment_size is None

    def test_missing_scans_fail_loudly(self, archive):
        artefact, _ = archive
        with pytest.raises(RestorationError, match="scans"):
            open_restore(artefact).read_from_scans(
                artefact.data_emblem_images[:-1], manifest=artefact.manifest
            )

    def test_save_and_load_preserves_segments(self, archive, tmp_path, write_archive):
        artefact, payload = archive
        target = f"dir:{tmp_path / 'segmented'}"
        write_archive(target, payload, segment_size=3_000)
        with open_restore(target) as reader:
            loaded = reader.archive
        assert loaded.manifest == artefact.manifest
        assert open_restore(loaded).read().payload == payload


# --------------------------------------------------------------------------- #
# Emblem estimation (satellite: header size sourced from dbcoder.formats)
# --------------------------------------------------------------------------- #
class TestEstimateEmblems:
    @pytest.mark.parametrize("size", [0, 100, 5_000, 20_000])
    def test_estimate_is_exact_for_store_codec(self, size, build_archive):
        """STORE adds exactly the container header, so the estimate pins."""
        config = ArchiveConfig(media="test", codec="store")
        payload = random_payload(size, seed=size + 1)
        archive = build_archive(config, payload)
        assert config.estimate_emblems(size) == archive.manifest.data_emblem_count

    def test_estimate_is_exact_for_segmented_store(self, build_archive):
        config = ArchiveConfig(media="test", codec="store", segment_size=3_000)
        payload = random_payload(10_000, seed=9)
        archive = build_archive(config, payload)
        assert config.estimate_emblems(10_000) == archive.manifest.data_emblem_count

    def test_estimate_uses_the_container_header_size(self):
        """The old code hard-coded ``+ 20``; the estimate must track formats."""
        config = ArchiveConfig(media="test")
        capacity = TEST_PROFILE.spec.payload_capacity
        # A payload that fills an emblem exactly once the real header size is
        # added: one byte more must spill into a second emblem.
        boundary = capacity - HEADER_SIZE
        assert config.estimate_emblems(boundary) < config.estimate_emblems(boundary + 1)

    def test_estimate_upper_bounds_compressible_payloads(self, build_archive):
        config = ArchiveConfig(media="test")
        payload = compressible_payload(20_000, seed=3)
        archive = build_archive(config, payload)
        assert config.estimate_emblems(len(payload)) >= archive.manifest.data_emblem_count


class TestSystemArtifacts:
    def test_archives_share_read_only_system_frames(self):
        """The system frames do not depend on the payload: every archive of
        one medium gets the same rasters, built once, and they are read-only,
        so writing into one raises instead of corrupting the next archive."""
        config = ArchiveConfig(media="test", codec="store")
        archives = []
        for payload in (b"first archive", b"second archive"):
            with open_archive(config) as writer:
                writer.write(payload)
            archives.append(writer.archive)
        first, second = (archive.system_emblem_images for archive in archives)
        assert len(first) == len(second) > 0
        assert all(mine is theirs for mine, theirs in zip(first, second))
        with pytest.raises(ValueError, match="read-only"):
            first[0][0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            first[-1].fill(0)
        with open_restore(archives[1]) as reader:
            assert reader.read().payload == b"second archive"
