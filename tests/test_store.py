"""Tests for :mod:`repro.store`: manifest v3, storage backends, partial restore.

Covers the manifest v3 <-> v1/v2 deprecation shims, the three storage
backends (directory / container / memory) round-tripping archives from the
persisted bytes alone, random-access ``read_range`` / ``restore_segment``
equalling the corresponding slice of a full restore across media and codecs
while decoding strictly fewer frames, container damage tolerance (index-less
linear scan), and worker-side plugin discovery via ``REPRO_PLUGINS``.

Archive-building goes through the shared ``make_payload`` / ``write_archive``
factory fixtures in ``conftest.py``; the incremental-append and verify/fsck
suites live in ``tests/test_append.py``.
"""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import open_restore, registry
from repro.core.archive import ArchiveManifest
from repro.errors import ArchiveError, RestorationError, StoreError, UnknownNameError
from repro.store import (
    MANIFEST_FORMAT_VERSION,
    ArchiveSource,
    MemoryBackend,
    load_archive,
    open_sink,
    open_source,
    parse_target,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------- #
# Manifest v3 and the v1/v2 shims
# --------------------------------------------------------------------------- #
class TestManifestVersions:
    def test_v4_manifest_is_self_describing(self, tmp_path, make_payload, write_archive):
        payload = make_payload(5_000, seed=1)
        config = write_archive(tmp_path / "arch", payload)
        with open_source(tmp_path / "arch") as source:
            manifest = source.manifest()
        assert manifest.format_version == MANIFEST_FORMAT_VERSION == 4
        assert manifest.config == config.to_dict()
        assert manifest.generation == 0
        assert manifest.parent is None
        assert len(manifest.segments) == 3
        for record in manifest.segments:
            assert record.sha256 is not None and len(record.sha256) == 64
        # The on-media JSON carries the version marker explicitly; a
        # single-volume archive has no shard map key at all.
        fields = json.loads((tmp_path / "arch" / "manifest.json").read_text())
        assert fields["format_version"] == 4
        assert fields["generation"] == 0
        assert fields["config"]["codec"] == "portable"
        assert "volumes" not in fields

    def test_v1_manifest_loads_through_the_shim(self, tmp_path, make_payload, write_archive):
        payload = make_payload(5_000, seed=2)
        write_archive(tmp_path / "arch", payload)
        manifest_path = tmp_path / "arch" / "manifest.json"
        fields = json.loads(manifest_path.read_text())
        # Rewrite the manifest exactly as PR 2 wrote it: no version marker,
        # no embedded config, no per-segment hashes, no lineage.
        del fields["format_version"], fields["config"]
        del fields["generation"], fields["parent"]
        for segment in fields["segments"]:
            del segment["sha256"]
        manifest_path.write_text(json.dumps(fields))

        with pytest.warns(DeprecationWarning, match="v1 archive manifest"):
            manifest = ArchiveManifest.from_json(manifest_path.read_text())
        assert manifest.format_version == 3
        assert manifest.config is None
        assert manifest.generation == 0 and manifest.parent is None
        assert all(record.sha256 is None for record in manifest.segments)

        # The archive still restores, fully and partially (CRC-only verify).
        with pytest.warns(DeprecationWarning):
            reader = open_restore(tmp_path / "arch")
        with reader:
            assert reader.read().payload == payload
            assert reader.read_range(2_100, 500) == payload[2_100:2_600]

    def test_segment_free_manifest_restores_as_one_segment(self, tmp_path, make_payload,
                                                           write_archive):
        """The pre-pipeline layout (no segment records) restores every way."""
        payload = make_payload(5_000, seed=22)
        target = f"dir:{tmp_path / 'arch'}"
        write_archive(target, payload, segment_size=None)
        manifest_path = tmp_path / "arch" / "manifest.json"
        fields = json.loads(manifest_path.read_text())
        for key in ("segments", "segment_size", "format_version", "config",
                    "generation", "parent"):
            del fields[key]
        manifest_path.write_text(json.dumps(fields))

        with pytest.warns(DeprecationWarning, match="v1 archive manifest"):
            reader = open_restore(target)
        with reader:
            assert reader.manifest.segments == ()
            assert reader.read().payload == payload
            assert reader.read_range(1_000, 300) == payload[1_000:1_300]
            assert reader.restore_segment(0) == payload
        with pytest.warns(DeprecationWarning):
            emulated = open_restore(target, decode_mode="dynarisc")
        with emulated:
            result = emulated.read()
        assert result.payload == payload and result.emulator_steps > 0

    def test_v2_manifest_loads_through_the_shim(self, tmp_path, make_payload, write_archive):
        """v2 (PR 3's layout: versioned + hashes, no lineage) round-trips."""
        payload = make_payload(5_000, seed=21)
        write_archive(tmp_path / "arch", payload)
        manifest_path = tmp_path / "arch" / "manifest.json"
        fields = json.loads(manifest_path.read_text())
        # Rewrite exactly as PR 3 wrote it: v2 marker, no generation/parent.
        fields["format_version"] = 2
        del fields["generation"], fields["parent"]
        manifest_path.write_text(json.dumps(fields))

        with pytest.warns(DeprecationWarning, match="v2 archive manifest"):
            manifest = ArchiveManifest.from_json(manifest_path.read_text())
        assert manifest.format_version == 3
        assert manifest.generation == 0 and manifest.parent is None
        # The hashes were already there; nothing downgrades.
        assert all(record.sha256 is not None for record in manifest.segments)
        # Shim round-trip: the upgraded manifest re-serialises as v3 and
        # reloads identically (no second warning — it is v3 now).
        assert ArchiveManifest.from_json(manifest.to_json()) == manifest

        with pytest.warns(DeprecationWarning):
            reader = open_restore(tmp_path / "arch")
        with reader:
            assert reader.read().payload == payload
            assert reader.read_range(2_100, 500) == payload[2_100:2_600]

    def test_v3_roundtrips_exactly(self, tmp_path, make_payload, write_archive):
        payload = make_payload(4_096, seed=3)
        write_archive(tmp_path / "arch", payload)
        with open_source(tmp_path / "arch") as source:
            manifest = source.manifest()
        assert ArchiveManifest.from_json(manifest.to_json()) == manifest

    def test_newer_format_version_is_rejected(self, tmp_path, write_archive):
        write_archive(tmp_path / "arch", b"x" * 100)
        manifest_path = tmp_path / "arch" / "manifest.json"
        fields = json.loads(manifest_path.read_text())
        fields["format_version"] = 99
        manifest_path.write_text(json.dumps(fields))
        with pytest.raises(StoreError, match="newer"):
            ArchiveManifest.from_json(manifest_path.read_text())

    @pytest.mark.parametrize("mutate,message", [
        (lambda f: f.update(segments=5), "segments must be a list"),
        (lambda f: f.update(segments={"0": f["segments"][0]}), "segments must be a list"),
        (lambda f: f["segments"].append(7), "must be an object"),
        (lambda f: f["segments"][0].update(checksum="x"), "unknown keys: checksum"),
        (lambda f: f["segments"][0].pop("emblem_count"), "missing keys: emblem_count"),
        (lambda f: f["segments"][0].update(offset="0"), "offset must be an int"),
        (lambda f: f["segments"][0].update(length=True), "length must be an int"),
        (lambda f: f["segments"][0].update(emblem_start=-1), "emblem_start must be an int"),
        (lambda f: f["segments"][0].update(crc32=1.5), "crc32 must be an int"),
        (lambda f: f["segments"][0].update(sha256=12), "sha256 must be a string"),
        (lambda f: f.update(volume_map={}), "unknown keys: volume_map"),
    ], ids=["segments-int", "segments-object", "record-int", "record-extra-key",
            "record-missing-key", "offset-str", "length-bool", "start-negative",
            "crc-float", "sha256-int", "manifest-extra-key"])
    def test_bad_manifest_shapes_raise_store_error(self, tmp_path, write_archive,
                                                   mutate, message):
        """A manifest read from the medium is type-checked before use."""
        write_archive(tmp_path / "arch", b"y" * 3_000)
        fields = json.loads((tmp_path / "arch" / "manifest.json").read_text())
        mutate(fields)
        with pytest.raises(StoreError, match=message):
            ArchiveManifest.from_json(json.dumps(fields))


# --------------------------------------------------------------------------- #
# Storage backends
# --------------------------------------------------------------------------- #
def _rewrite_container_index(path: Path, edit) -> None:
    """Replace a container's newest trailer index by ``edit(entries, end)``,
    where ``end`` is the offset the index record itself starts at."""
    from repro.store.backends import (
        _INDEX_MAGIC,
        _INDEX_NAME,
        _TRAILER,
        _pack_record,
        _record_header_size,
    )

    data = path.read_bytes()
    offset, _magic = _TRAILER.unpack(data[-_TRAILER.size:])
    entries = json.loads(data[offset:-_TRAILER.size])
    index_record = offset - _record_header_size(_INDEX_NAME)
    payload = json.dumps(edit(entries, index_record)).encode("utf-8")
    path.write_bytes(
        data[:index_record]
        + _pack_record(_INDEX_NAME, payload)
        + _TRAILER.pack(offset, _INDEX_MAGIC)
    )


class TestBackends:
    def test_container_roundtrips_from_the_file_alone(self, tmp_path, make_payload, write_archive):
        payload = make_payload(9_000, seed=4)
        path = tmp_path / "backup.ule"
        write_archive(f"file:{path}", payload)
        assert path.is_file()
        # A single flat file; restoration uses nothing but its bytes.
        with open_restore(path) as reader:
            assert reader.read().payload == payload

    def test_directory_store_matches_classic_layout(self, tmp_path, make_payload, write_archive):
        payload = make_payload(4_000, seed=5)
        write_archive(f"dir:{tmp_path / 'arch'}", payload)
        names = {p.name for p in (tmp_path / "arch").iterdir()}
        assert {"manifest.json", "bootstrap.txt", "config.json"} <= names
        assert any(name.startswith("data_emblem_") for name in names)
        # The whole-archive loader reads the classic layout back.
        archive = load_archive(f"dir:{tmp_path / 'arch'}")
        assert open_restore(archive).read().payload == payload

    def test_memory_backend(self, make_payload, write_archive):
        payload = make_payload(4_000, seed=6)
        try:
            write_archive("mem:store-test", payload)
            assert parse_target("mem:store-test").store == "memory"
            with open_restore("mem:store-test") as reader:
                assert reader.read_range(1_000, 200) == payload[1_000:1_200]
        finally:
            MemoryBackend.discard("mem:store-test")
        with pytest.raises(StoreError):
            open_source("mem:store-test")

    def test_detect_store(self, tmp_path, write_archive):
        """A bare path to an existing archive names the backend its shape
        implies; a missing one fails inside the backend it sniffs to."""
        write_archive(f"dir:{tmp_path / 'd'}", b"x" * 100)
        write_archive(f"file:{tmp_path / 'c.ule'}", b"x" * 100)
        assert parse_target(tmp_path / "d").store == "directory"
        assert parse_target(tmp_path / "c.ule").store == "container"
        for path in (tmp_path / "d", tmp_path / "c.ule"):
            with open_source(path) as source:
                assert source.manifest().archive_bytes > 0
        with pytest.raises(StoreError, match="does not contain an archive manifest"):
            open_source(tmp_path / "ghost")

    def test_container_survives_a_lost_index(self, tmp_path, make_payload, write_archive):
        """A truncated trailer degrades to a linear record scan — loudly."""
        payload = make_payload(5_000, seed=7)
        path = tmp_path / "backup.ule"
        write_archive(f"file:{path}", payload)
        data = path.read_bytes()
        path.write_bytes(data[:-16])  # chop the index trailer off
        with pytest.warns(RuntimeWarning, match="recovered by scanning"):
            reader = open_restore(path)
        with reader:
            assert reader.read().payload == payload

    def test_recovered_index_sets_the_source_flag(self, tmp_path, make_payload,
                                                  write_archive):
        """A corrupt (not just missing) trailer index also warns and flags."""
        payload = make_payload(3_000, seed=9)
        path = tmp_path / "backup.ule"
        write_archive(f"file:{path}", payload)
        data = bytearray(path.read_bytes())
        data[-4] ^= 0xFF  # damage the trailer's index magic
        path.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="recovered by scanning"):
            source = open_source(f"file:{path}")
        with source:
            assert source.recovered_by_scan
            assert source.manifest().archive_bytes > 0

    @pytest.mark.parametrize("edit", [
        lambda entry, end: [entry[0], entry[1], 10**13],
        lambda entry, end: [entry[0], -5, entry[2]],
        lambda entry, end: [entry[0], str(entry[1]), entry[2]],
        lambda entry, end: [entry[0], True, entry[2]],
        lambda entry, end: [entry[0], entry[1], -1],
        lambda entry, end: [entry[0], 3, entry[2]],
        lambda entry, end: [entry[0], entry[1], end - entry[1] + 1],
        lambda entry, end: [7, entry[1], entry[2]],
        lambda entry, end: [entry[0], entry[1]],
        lambda entry, end: {"name": entry[0]},
    ], ids=["huge-length", "negative-start", "string-start", "bool-start",
            "negative-length", "start-inside-magic", "span-into-index", "int-name",
            "short-entry", "object-entry"])
    def test_hostile_index_entry_falls_back_to_the_scan(self, tmp_path, make_payload,
                                                        write_archive, edit):
        """An index entry that would size or place a read wrongly marks the
        index corrupt: the record scan rebuilds it, and restore is bit-exact."""
        payload = make_payload(3_000, seed=11)
        path = tmp_path / "backup.ule"
        write_archive(f"file:{path}", payload)
        _rewrite_container_index(
            path, lambda entries, end: [edit(entries[0], end)] + entries[1:]
        )
        with pytest.warns(RuntimeWarning, match="index record is corrupt"):
            source = open_source(f"file:{path}")
        assert source.recovered_by_scan
        with open_restore(source) as reader:
            assert reader.read().payload == payload

    def test_intact_container_opens_without_warning(self, tmp_path, make_payload,
                                                    write_archive):
        path = tmp_path / "backup.ule"
        write_archive(f"file:{path}", make_payload(2_000, seed=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            source = open_source(f"file:{path}")
        with source:
            assert not source.recovered_by_scan

    def test_target_of_the_wrong_shape_fails_cleanly(self, tmp_path):
        (tmp_path / "file").write_bytes(b"stub")
        with pytest.raises(StoreError, match="cannot create container archive"):
            open_sink(f"file:{tmp_path}")
        with pytest.raises(StoreError, match="cannot create directory archive"):
            open_sink(f"dir:{tmp_path / 'file'}")

    def test_container_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-an-archive"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(StoreError, match="bad magic"):
            open_source(f"file:{path}")

    def test_stores_registry(self):
        assert registry.stores.names() == ["container", "directory", "memory", "volumes"]
        # The target URI's scheme is the only short spelling of a backend.
        assert registry.stores.aliases() == {}
        with pytest.raises(UnknownNameError, match="did you mean"):
            registry.get_store("contaner")

    def test_load_archive_from_any_target(self, tmp_path, make_payload, write_archive):
        payload = make_payload(3_000, seed=8)
        write_archive(f"file:{tmp_path / 'c.ule'}", payload)
        archive = load_archive(tmp_path / "c.ule")
        assert archive.manifest.archive_bytes == len(payload)
        assert len(archive.data_emblem_images) == archive.manifest.data_emblem_count
        assert len(archive.system_emblem_images) == archive.manifest.system_emblem_count


# --------------------------------------------------------------------------- #
# Random-access partial restore
# --------------------------------------------------------------------------- #
class TestBufferedContainerSink:
    """The coalescing container writer must change performance, not bytes."""

    @staticmethod
    def _frames(count, seed=5):
        rng = np.random.default_rng(seed)
        return [
            rng.integers(0, 256, size=(24, 32), dtype=np.uint8) for _ in range(count)
        ]

    def test_put_frames_bytes_identical_to_per_frame_writes(self, tmp_path):
        frames = self._frames(9)
        batched = tmp_path / "batched.ule"
        looped = tmp_path / "looped.ule"
        with open_sink(f"file:{batched}") as sink:
            sink.put_frames("data", 0, frames)
            sink.put_text("note", "same bytes either way")
        with open_sink(f"file:{looped}") as sink:
            for index, frame in enumerate(frames):
                sink.put_frame("data", index, frame)
            sink.put_text("note", "same bytes either way")
        assert batched.read_bytes() == looped.read_bytes()

    def test_put_frames_round_trips_on_every_backend(self, tmp_path):
        frames = self._frames(5, seed=11)
        manifest = ArchiveManifest(
            profile_name="test-small",
            dbcoder_profile="store",
            archive_bytes=1,
            archive_crc32=0,
            data_emblem_count=len(frames),
            system_emblem_count=0,
        )
        targets = [
            f"dir:{tmp_path / 'arch-dir'}",
            f"file:{tmp_path / 'arch.ule'}",
            "mem:test-put-frames",
        ]
        try:
            for target in targets:
                with open_sink(target) as sink:
                    sink.put_frames("data", 0, frames)
                    sink.put_manifest(manifest)
                with open_source(target) as source:
                    got = source.get_frames("data", 0, len(frames))
                assert len(got) == len(frames)
                for want, have in zip(frames, got):
                    assert np.array_equal(want, have), target
        finally:
            MemoryBackend.discard("mem:test-put-frames")

    def test_abort_discards_pending_appended_records(self, tmp_path):
        """abort() drops buffered records before truncating, so a rolled
        back append leaves the file byte-identical to its previous state."""
        from repro.store import open_append_sink

        target = tmp_path / "backup.ule"
        with open_sink(f"file:{target}") as sink:
            sink.put_frames("data", 0, self._frames(3))
        before = target.read_bytes()
        sink = open_append_sink(f"file:{target}")
        sink.put_frames("data", 3, self._frames(2, seed=9))
        sink.put_text("extra", "never reaches the medium")  # still pending
        sink.abort()
        assert target.read_bytes() == before

    def test_closed_sink_rejects_further_records(self, tmp_path):
        target = tmp_path / "closed.ule"
        sink = open_sink(f"file:{target}")
        sink.put_frames("data", 0, self._frames(1))
        sink.close()
        with pytest.raises(StoreError, match="closed"):
            sink.put_frame("data", 1, self._frames(1)[0])


class TestPartialRestore:
    #: (offset, length) shapes: inside one segment, spanning a boundary,
    #: empty, the whole payload, and a tail request clamped like a slice.
    RANGES = [(100, 50), (2_000, 200), (0, 0), (0, 10**9), (5_900, 1_000), (8_000, 5)]

    @pytest.mark.parametrize("media", ["test", "dna"])
    @pytest.mark.parametrize("codec", ["store", "portable"])
    def test_read_range_equals_full_restore_slice(self, tmp_path, media, codec,
                                                  make_payload, write_archive):
        payload = make_payload(6_000, seed=11)
        target = f"file:{tmp_path / f'{media}-{codec}.ule'}"
        write_archive(target, payload, media=media, codec=codec)
        with open_restore(target) as reader:
            full = reader.read().payload
        assert full == payload
        with open_restore(target) as reader:
            for offset, length in self.RANGES:
                assert reader.read_range(offset, length) == full[offset:offset + length], (
                    f"range [{offset}:{offset + length}) mismatch on {media}/{codec}"
                )

    def test_restore_segment_decodes_only_that_segment(self, tmp_path, make_payload,
                                                       write_archive):
        payload = make_payload(8_192, seed=12)
        target = tmp_path / "arch"
        write_archive(target, payload)
        source = RecordingSource(open_source(target))
        with open_restore(source) as reader:
            manifest = reader.manifest
            assert len(manifest.segments) == 4
            record = manifest.segments[2]
            assert reader.restore_segment(2) == payload[record.offset:record.end]
            # One fetch, segment 2's data frames, and nothing else decoded.
            assert source.fetches == [("data", record.emblem_start, record.emblem_count)]
            assert reader.segments_decoded == 1
            assert reader.frames_decoded == record.emblem_count

    def test_partial_restore_decodes_strictly_fewer_frames(self, tmp_path, make_payload,
                                                           write_archive):
        """The acceptance criterion: partial < full, measured in frames."""
        payload = make_payload(8_192, seed=13)
        target = f"file:{tmp_path / 'arch.ule'}"
        write_archive(target, payload)

        with open_restore(target) as reader:
            full_frames = reader.read().data_report.emblems_seen

        with open_restore(target) as reader:
            assert reader.read_range(3_000, 100) == payload[3_000:3_100]
            assert 0 < reader.frames_decoded < full_frames

        with open_restore(target) as reader:
            reader.restore_segment(0)
            assert 0 < reader.frames_decoded < full_frames

    def test_read_range_parallel_executor_matches_serial(self, tmp_path, make_payload,
                                                         write_archive):
        payload = make_payload(8_192, seed=14)
        target = f"file:{tmp_path / 'arch.ule'}"
        write_archive(target, payload)
        with (
            open_restore(target, executor="serial") as serial,
            open_restore(target, executor="thread:2") as threaded,
        ):
            assert (serial.read_range(1_000, 6_000) == threaded.read_range(1_000, 6_000)
                    == payload[1_000:7_000])

    def test_read_range_rejects_negative_requests(self, tmp_path, write_archive):
        write_archive(tmp_path / "arch", b"x" * 4_000)
        with open_restore(tmp_path / "arch") as reader:
            with pytest.raises(ValueError):
                reader.read_range(-1, 10)
            with pytest.raises(ValueError):
                reader.read_range(0, -10)

    def test_restore_segment_out_of_range(self, tmp_path, write_archive):
        write_archive(tmp_path / "arch", b"x" * 4_000)
        with open_restore(tmp_path / "arch") as reader, pytest.raises(
            ArchiveError, match="out of range"
        ):
            reader.restore_segment(99)

    def test_corrupt_frame_fails_hash_check_only_when_touched(self, tmp_path, make_payload,
                                                              write_archive):
        """Damage in segment 3 is invisible to a read confined to segment 0."""
        from repro.media.image import pgm_bytes, pgm_from_bytes

        payload = make_payload(8_192, seed=15)
        target = tmp_path / "arch"
        write_archive(target, payload)
        with open_source(target) as source:
            manifest = source.manifest()
        victim = manifest.segments[3]
        # Blank every frame of the last segment on the medium.
        for index in range(victim.emblem_start, victim.emblem_start + victim.emblem_count):
            frame_path = target / f"data_emblem_{index:04d}.pgm"
            image = pgm_from_bytes(frame_path.read_bytes())
            frame_path.write_bytes(pgm_bytes(np.full_like(image, 255)))

        from repro.errors import ReproError

        with open_restore(target) as reader:
            assert reader.read_range(0, 2_048) == payload[:2_048]  # untouched segment: fine
            with pytest.raises(ReproError):
                reader.restore_segment(3)


class RecordingSource(ArchiveSource):
    """A source proxy that records every ``get_frames`` call it serves."""

    def __init__(self, inner: ArchiveSource):
        self._inner = inner
        self.fetches: list[tuple[str, int, int]] = []

    def names(self):
        return self._inner.names()

    def get_text(self, name):
        return self._inner.get_text(name)

    def get_bytes(self, name):
        return self._inner.get_bytes(name)

    def get_frame(self, kind, index):
        return self._inner.get_frame(kind, index)

    def get_frames(self, kind, start, count):
        self.fetches.append((kind, start, count))
        return self._inner.get_frames(kind, start, count)

    def close(self):
        self._inner.close()


def _no_whole_archive_pass(*args, **kwargs):
    raise AssertionError("a read materialised the whole archive through load_archive")


# --------------------------------------------------------------------------- #
# One frame provider and one segment loop for every read
# --------------------------------------------------------------------------- #
class TestOneSegmentLoop:
    @pytest.mark.parametrize("read", ["read", "read_via_channel"])
    def test_full_reads_fetch_segment_by_segment(self, tmp_path, make_payload,
                                                 write_archive, monkeypatch, read):
        """A full restore of a stored archive fetches each segment's data
        frames in a call of its own, as the decode reaches it, and never
        loads the whole archive."""
        payload = make_payload(8_192, seed=16)
        target = f"file:{tmp_path / 'arch.ule'}"
        write_archive(target, payload)
        monkeypatch.setattr("repro.api.reader.load_archive", _no_whole_archive_pass)
        monkeypatch.setattr("repro.store.load_archive", _no_whole_archive_pass)
        source = RecordingSource(open_source(target))
        with open_restore(source) as reader:
            result = getattr(reader, read)()
            manifest = reader.manifest
        assert result.payload == payload
        assert len(manifest.segments) == 4
        data_fetches = [fetch for fetch in source.fetches if fetch[0] == "data"]
        assert data_fetches == [
            ("data", record.emblem_start, record.emblem_count) for record in manifest.segments
        ]

    def test_emulated_partial_reads_run_the_archived_decoder(self, tmp_path, sql_sample,
                                                             write_archive, monkeypatch):
        """Partial reads honour decode_mode: under dynarisc they run the
        archived decoder, recovered once per session from the medium's
        system frames, and return the bytes python mode returns."""
        from repro.dynarisc.emulator import DynaRiscEmulator

        target = f"file:{tmp_path / 'sql.ule'}"
        write_archive(target, sql_sample, segment_size=1024, payload_kind="sql")
        runs = []
        run = DynaRiscEmulator.run

        def counting_run(self, *args, **kwargs):
            runs.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(DynaRiscEmulator, "run", counting_run)
        with open_restore(target) as python:
            expected_range = python.read_range(700, 2_000)
            expected_segment = python.restore_segment(3)
        assert runs == []
        assert expected_range == sql_sample[700:2_700]
        source = RecordingSource(open_source(target))
        with open_restore(source, decode_mode="dynarisc") as emulated:
            assert emulated.read_range(700, 2_000) == expected_range
            covering = emulated.segments_decoded
            assert covering >= 2 and len(runs) == covering
            assert emulated.restore_segment(3) == expected_segment
            assert len(runs) == covering + 1
        system_fetches = [fetch for fetch in source.fetches if fetch[0] == "system"]
        assert len(system_fetches) == 1

    def test_partial_reads_raise_where_read_raises(self, tmp_path, sql_sample, write_archive):
        """A DENSE archive has no archived decoder: every emulated read
        fails alike, and python mode restores it."""
        target = f"file:{tmp_path / 'dense.ule'}"
        write_archive(target, sql_sample, codec="dense", payload_kind="sql")
        with open_restore(target, decode_mode="dynarisc") as reader:
            for read in (reader.read, lambda: reader.read_range(10, 100),
                         lambda: reader.restore_segment(0)):
                with pytest.raises(RestorationError, match="PORTABLE profile"):
                    read()
        with open_restore(target) as reader:
            assert reader.read_range(10, 100) == sql_sample[10:110]


def _drop_middle_record(fields):
    del fields["segments"][2]


def _overlap_next_record(fields):
    fields["segments"][2]["length"] += 100


def _claim_bytes_past_the_last_record(fields):
    fields["archive_bytes"] += 1_000


class TestManifestTiling:
    @pytest.mark.parametrize("damage, bad_spans, good_spans", [
        (_drop_middle_record, [(4_106, 100), (2_000, 3_000)], [(0, 4_096), (6_144, 4_096)]),
        (_overlap_next_record, [(6_100, 200), (4_000, 3_000)],
         [(0, 4_096), (7_000, 1_000), (8_192, 2_048)]),
        (_claim_bytes_past_the_last_record, [(10_000, 1_000), (0, 10**9)],
         [(0, 10_240), (9_000, 1_240)]),
    ], ids=["dropped-middle-record", "overlapping-record", "short-last-record"])
    def test_untiled_span_raises_store_error(self, tmp_path, make_payload, write_archive,
                                             damage, bad_spans, good_spans):
        """read_range checks that the manifest's records tile the span it
        reads: a gap or an overlap is a StoreError naming the span, and
        spans the records do tile still read correctly."""
        payload = make_payload(10_240, seed=17)
        directory = tmp_path / "arch"
        write_archive(f"dir:{directory}", payload, codec="store")
        manifest_path = directory / "manifest.json"
        fields = json.loads(manifest_path.read_text())
        assert [record["length"] for record in fields["segments"]] == [2_048] * 5
        damage(fields)
        manifest_path.write_text(json.dumps(fields))
        with open_restore(f"dir:{directory}") as reader:
            for offset, length in bad_spans:
                with pytest.raises(StoreError, match=r"payload bytes \[\d+:\d+\)"):
                    reader.read_range(offset, length)
            for offset, length in good_spans:
                assert reader.read_range(offset, length) == payload[offset:offset + length]


# --------------------------------------------------------------------------- #
# Worker-side plugin discovery (REPRO_PLUGINS)
# --------------------------------------------------------------------------- #
class TestPluginDiscovery:
    def test_load_plugins_warns_on_broken_module(self):
        with pytest.warns(RuntimeWarning, match="failed to import"):
            assert registry.load_plugins("no_such_module_xyzzy") == []

    def test_custom_codec_resolves_inside_process_workers(self, tmp_path):
        """A REPRO_PLUGINS codec encodes under a spawn-based process pool.

        ``spawn`` start method forces workers to re-import everything, so
        this fails without worker-side plugin discovery (under ``fork`` the
        parent's registry would leak into workers and hide the bug).
        """
        (tmp_path / "repro_plug_test.py").write_text(textwrap.dedent("""
            from repro import registry

            def _flip(data: bytes) -> bytes:
                return bytes(byte ^ 0xA5 for byte in data)

            registry.register_codec("plug-flip", _flip, _flip, "plugin test codec",
                                    overwrite=True)
        """))
        script = tmp_path / "driver.py"
        script.write_text(textwrap.dedent("""
            import multiprocessing
            from repro import ArchiveConfig, open_archive, open_restore

            if __name__ == "__main__":
                multiprocessing.set_start_method("spawn", force=True)
                payload = b"plugin payload " * 400
                config = ArchiveConfig(media="test", codec="plug-flip",
                                       segment_size=1024, executor="process:2")
                with open_archive(config, target="mem:plug") as writer:
                    writer.write(payload)
                restored = open_restore("mem:plug", executor="serial").read().payload
                assert restored == payload, "plugin codec round trip failed"
                print("PLUGIN-OK")
        """))
        env = dict(os.environ)
        env["REPRO_PLUGINS"] = "repro_plug_test"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(tmp_path)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PLUGIN-OK" in proc.stdout


# --------------------------------------------------------------------------- #
# CLI: store selection and partial restore
# --------------------------------------------------------------------------- #
class TestStoreCLI:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
        )

    def test_container_archive_inspect_read_range(self, tmp_path):
        payload = b"0123456789abcdef" * 512
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(payload)
        target = tmp_path / "backup.ule"

        proc = self._run(
            "archive", "-i", str(payload_path), "-o", f"file:{target}",
            "--media", "test", "--segment-size", "2048", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["store"] == "container"
        assert summary["format_version"] == 4
        assert summary["generation"] == 0
        assert target.is_file()

        proc = self._run("inspect", str(target), "--json")
        assert proc.returncode == 0, proc.stderr
        inspected = json.loads(proc.stdout)
        assert inspected["format_version"] == 4
        assert inspected["config"]["segment_size"] == 2048
        assert all(len(seg["sha256"]) == 64 for seg in inspected["segments"])

        out = tmp_path / "slice.bin"
        proc = self._run(
            "restore", "-i", str(target), "-o", str(out),
            "--offset", "3000", "--length", "1000", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        partial = json.loads(proc.stdout)
        assert out.read_bytes() == payload[3000:4000]
        assert partial["segments_decoded"] < partial["segments_total"]

    def test_verify_repair_on_directory_target_fails_cleanly(self, tmp_path):
        """--repair only makes sense for containers; a directory target gets
        one clean error line and exit code 2, not a traceback."""
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(b"directory repair probe " * 100)
        target = tmp_path / "arch-dir"
        proc = self._run(
            "archive", "-i", str(payload_path), "-o", str(target), "--media", "test",
        )
        assert proc.returncode == 0, proc.stderr
        proc = self._run("verify", str(target), "--repair")
        assert proc.returncode == 2
        assert "--repair only applies to container archives" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_inspect_surfaces_a_scan_recovered_index(self, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(b"recovered index probe " * 120)
        target = tmp_path / "backup.ule"
        proc = self._run(
            "archive", "-i", str(payload_path), "-o", f"file:{target}",
            "--media", "test",
        )
        assert proc.returncode == 0, proc.stderr

        proc = self._run("inspect", str(target), "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["index"] == "ok"

        data = bytearray(target.read_bytes())
        data[-4] ^= 0xFF  # damage the trailer's index magic
        target.write_bytes(bytes(data))
        proc = self._run("inspect", str(target), "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["index"] == "recovered-by-scan"

        proc = self._run("inspect", str(target))
        assert proc.returncode == 0, proc.stderr
        assert "index: recovered-by-scan" in proc.stdout

    def test_mem_target_infers_the_memory_backend(self, tmp_path):
        payload_path = tmp_path / "p.bin"
        payload_path.write_bytes(b"x" * 256)
        proc = self._run(
            "archive", "-i", str(payload_path), "-o", "mem:cli-infer",
            "--media", "test", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["store"] == "memory"
        assert not (REPO_ROOT / "mem:cli-infer").exists()
