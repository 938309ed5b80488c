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

from repro import ArchiveConfig, open_restore, registry
from repro.core.archive import ArchiveManifest
from repro.errors import ArchiveError, ConfigError, StoreError, UnknownNameError
from repro.store import (
    MANIFEST_FORMAT_VERSION,
    MemoryBackend,
    detect_store,
    load_archive,
    open_sink,
    open_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------- #
# Manifest v3 and the v1/v2 shims
# --------------------------------------------------------------------------- #
class TestManifestVersions:
    def test_v4_manifest_is_self_describing(self, tmp_path, make_payload, write_archive):
        payload = make_payload(5_000, seed=1)
        config = write_archive(tmp_path / "arch", payload)
        manifest = open_source(tmp_path / "arch").manifest()
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
        assert reader.read().payload == payload
        with pytest.warns(DeprecationWarning):
            reader = open_restore(tmp_path / "arch")
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
        assert reader.read().payload == payload
        with pytest.warns(DeprecationWarning):
            reader = open_restore(tmp_path / "arch")
        assert reader.read_range(2_100, 500) == payload[2_100:2_600]

    def test_v3_roundtrips_exactly(self, tmp_path, make_payload, write_archive):
        payload = make_payload(4_096, seed=3)
        write_archive(tmp_path / "arch", payload)
        manifest = open_source(tmp_path / "arch").manifest()
        assert ArchiveManifest.from_json(manifest.to_json()) == manifest

    def test_newer_format_version_is_rejected(self, tmp_path, write_archive):
        write_archive(tmp_path / "arch", b"x" * 100)
        manifest_path = tmp_path / "arch" / "manifest.json"
        fields = json.loads(manifest_path.read_text())
        fields["format_version"] = 99
        manifest_path.write_text(json.dumps(fields))
        with pytest.raises(StoreError, match="newer"):
            ArchiveManifest.from_json(manifest_path.read_text())


# --------------------------------------------------------------------------- #
# Storage backends
# --------------------------------------------------------------------------- #
class TestBackends:
    def test_container_roundtrips_from_the_file_alone(self, tmp_path, make_payload, write_archive):
        payload = make_payload(9_000, seed=4)
        path = tmp_path / "backup.ule"
        write_archive(path, payload, store="container")
        assert path.is_file()
        # A single flat file; restoration uses nothing but its bytes.
        reader = open_restore(path)
        result = reader.read()
        assert result.payload == payload

    def test_directory_store_matches_classic_layout(self, tmp_path, make_payload, write_archive):
        payload = make_payload(4_000, seed=5)
        write_archive(tmp_path / "arch", payload, store="directory")
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
            assert detect_store("mem:store-test") == "memory"
            reader = open_restore("mem:store-test")
            assert reader.read_range(1_000, 200) == payload[1_000:1_200]
        finally:
            MemoryBackend.discard("mem:store-test")
        with pytest.raises(StoreError):
            open_source("mem:store-test")

    def test_detect_store(self, tmp_path, write_archive):
        write_archive(tmp_path / "d", b"x" * 100)
        write_archive(tmp_path / "c.ule", b"x" * 100, store="container")
        assert detect_store(tmp_path / "d") == "directory"
        assert detect_store(tmp_path / "c.ule") == "container"
        with pytest.raises(StoreError, match="does not exist"):
            detect_store(tmp_path / "ghost")

    def test_container_survives_a_lost_index(self, tmp_path, make_payload, write_archive):
        """A truncated trailer degrades to a linear record scan — loudly."""
        payload = make_payload(5_000, seed=7)
        path = tmp_path / "backup.ule"
        write_archive(path, payload, store="container")
        data = path.read_bytes()
        path.write_bytes(data[:-16])  # chop the index trailer off
        with pytest.warns(RuntimeWarning, match="recovered by scanning"):
            reader = open_restore(path)
        assert reader.read().payload == payload

    def test_recovered_index_sets_the_source_flag(self, tmp_path, make_payload,
                                                  write_archive):
        """A corrupt (not just missing) trailer index also warns and flags."""
        payload = make_payload(3_000, seed=9)
        path = tmp_path / "backup.ule"
        write_archive(path, payload, store="container")
        data = bytearray(path.read_bytes())
        data[-4] ^= 0xFF  # damage the trailer's index magic
        path.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="recovered by scanning"):
            source = open_source(path, "container")
        assert source.recovered_by_scan
        assert source.manifest().archive_bytes > 0
        source.close()

    def test_intact_container_opens_without_warning(self, tmp_path, make_payload,
                                                    write_archive):
        path = tmp_path / "backup.ule"
        write_archive(path, make_payload(2_000, seed=3), store="container")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            source = open_source(path, "container")
        assert not source.recovered_by_scan
        source.close()

    def test_container_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-an-archive"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(StoreError, match="bad magic"):
            open_source(path, "container")

    def test_stores_registry(self):
        assert registry.stores.names() == ["container", "directory", "memory", "volumes"]
        assert registry.get_store("dir").name == "directory"
        assert registry.get_store("vol").name == "volumes"
        with pytest.raises(UnknownNameError, match="did you mean"):
            registry.get_store("contaner")

    def test_config_store_field_validates(self):
        assert ArchiveConfig(store="file").store == "container"
        with pytest.raises(ConfigError):
            ArchiveConfig(store="cloud")

    def test_load_archive_from_any_target(self, tmp_path, make_payload, write_archive):
        payload = make_payload(3_000, seed=8)
        write_archive(tmp_path / "c.ule", payload, store="container")
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
        with open_sink(batched, "container") as sink:
            sink.put_frames("data", 0, frames)
            sink.put_text("note", "same bytes either way")
        with open_sink(looped, "container") as sink:
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
            ("directory", tmp_path / "arch-dir"),
            ("container", tmp_path / "arch.ule"),
            ("memory", "mem:test-put-frames"),
        ]
        try:
            for store, target in targets:
                with open_sink(target, store) as sink:
                    sink.put_frames("data", 0, frames)
                    sink.put_manifest(manifest)
                source = open_source(target, store)
                got = source.get_frames("data", 0, len(frames))
                assert len(got) == len(frames)
                for want, have in zip(frames, got):
                    assert np.array_equal(want, have), store
                source.close()
        finally:
            MemoryBackend.discard("mem:test-put-frames")

    def test_abort_discards_pending_appended_records(self, tmp_path):
        """abort() drops buffered records before truncating, so a rolled
        back append leaves the file byte-identical to its previous state."""
        from repro.store import open_append_sink

        target = tmp_path / "backup.ule"
        with open_sink(target, "container") as sink:
            sink.put_frames("data", 0, self._frames(3))
        before = target.read_bytes()
        sink = open_append_sink(target, "container")
        sink.put_frames("data", 3, self._frames(2, seed=9))
        sink.put_text("extra", "never reaches the medium")  # still pending
        sink.abort()
        assert target.read_bytes() == before

    def test_closed_sink_rejects_further_records(self, tmp_path):
        target = tmp_path / "closed.ule"
        sink = open_sink(target, "container")
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
        target = tmp_path / f"{media}-{codec}.ule"
        write_archive(target, payload, store="container", media=media, codec=codec)
        full = open_restore(target).read().payload
        assert full == payload
        reader = open_restore(target)
        for offset, length in self.RANGES:
            assert reader.read_range(offset, length) == full[offset:offset + length], (
                f"range [{offset}:{offset + length}) mismatch on {media}/{codec}"
            )

    def test_restore_segment_decodes_only_that_segment(self, tmp_path, make_payload,
                                                       write_archive):
        payload = make_payload(8_192, seed=12)
        target = tmp_path / "arch"
        write_archive(target, payload)
        manifest = open_source(target).manifest()
        assert len(manifest.segments) == 4

        decoded = []
        reader = open_restore(target, on_segment=decoded.append)
        record = manifest.segments[2]
        assert reader.restore_segment(2) == payload[record.offset:record.end]
        # The counting hook saw exactly one decode: segment 2, nothing else.
        assert [r.index for r in decoded] == [2]
        assert reader.segments_decoded == 1
        assert reader.frames_decoded == record.emblem_count

    def test_partial_restore_decodes_strictly_fewer_frames(self, tmp_path, make_payload,
                                                           write_archive):
        """The acceptance criterion: partial < full, measured in frames."""
        payload = make_payload(8_192, seed=13)
        target = tmp_path / "arch.ule"
        write_archive(target, payload, store="container")

        full_result = open_restore(target).read()
        full_frames = full_result.data_report.emblems_seen

        reader = open_restore(target)
        assert reader.read_range(3_000, 100) == payload[3_000:3_100]
        assert 0 < reader.frames_decoded < full_frames

        reader = open_restore(target)
        reader.restore_segment(0)
        assert 0 < reader.frames_decoded < full_frames

    def test_read_range_parallel_executor_matches_serial(self, tmp_path, make_payload,
                                                         write_archive):
        payload = make_payload(8_192, seed=14)
        target = tmp_path / "arch.ule"
        write_archive(target, payload, store="container")
        serial = open_restore(target, executor="serial").read_range(1_000, 6_000)
        threaded = open_restore(target, executor="thread:2").read_range(1_000, 6_000)
        assert serial == threaded == payload[1_000:7_000]

    def test_read_range_rejects_negative_requests(self, tmp_path, write_archive):
        write_archive(tmp_path / "arch", b"x" * 4_000)
        reader = open_restore(tmp_path / "arch")
        with pytest.raises(ValueError):
            reader.read_range(-1, 10)
        with pytest.raises(ValueError):
            reader.read_range(0, -10)

    def test_restore_segment_out_of_range(self, tmp_path, write_archive):
        write_archive(tmp_path / "arch", b"x" * 4_000)
        reader = open_restore(tmp_path / "arch")
        with pytest.raises(ArchiveError, match="out of range"):
            reader.restore_segment(99)

    def test_corrupt_frame_fails_hash_check_only_when_touched(self, tmp_path, make_payload,
                                                              write_archive):
        """Damage in segment 3 is invisible to a read confined to segment 0."""
        from repro.media.image import pgm_bytes, pgm_from_bytes

        payload = make_payload(8_192, seed=15)
        target = tmp_path / "arch"
        write_archive(target, payload)
        manifest = open_source(target).manifest()
        victim = manifest.segments[3]
        # Blank every frame of the last segment on the medium.
        for index in range(victim.emblem_start, victim.emblem_start + victim.emblem_count):
            frame_path = target / f"data_emblem_{index:04d}.pgm"
            image = pgm_from_bytes(frame_path.read_bytes())
            frame_path.write_bytes(pgm_bytes(np.full_like(image, 255)))

        reader = open_restore(target)
        assert reader.read_range(0, 2_048) == payload[:2_048]  # untouched segment: fine
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            open_restore(target).restore_segment(3)


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
            "archive", "-i", str(payload_path), "-o", str(target),
            "--store", "container", "--media", "test", "--segment-size", "2048",
            "--json",
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
            "archive", "-i", str(payload_path), "-o", str(target),
            "--store", "container", "--media", "test",
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
