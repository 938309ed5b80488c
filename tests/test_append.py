"""Appendable archives: multi-generation manifests, append sessions, fsck.

The cross-layer property suite locking down the incremental-append tentpole:

* **equivalence** — for random payload splits across 2 media × 2 codecs ×
  directory/container backends, ``archive(a); append(b)`` restores
  bit-identically to ``archive(a+b)``, and ``read_range`` spanning the
  generation boundary equals the slice of the original payload (hypothesis
  properties over the split point);
* **lineage** — the superseding manifest is cumulative and monotone, pins
  its parent's digest, and survives a third generation;
* **fault injection** — a container truncated at points throughout the
  second generation's records/index/trailer falls back to the last complete
  generation on ``open_restore``, refuses further appends, and
  ``verify``/``repair_container`` restores a loadable, verifiable state for
  every cut in the matrix;
* **fsck** — ``verify`` walks generations, re-checks per-segment hashes
  (catching a corrupted frame the shallow pass misses), and reports
  superseded/orphaned records; plus the CLI face of all of the above
  (``archive --append`` / ``verify --repair``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ArchiveConfig, open_archive, open_restore
from repro.core.archive import ArchiveManifest
from repro.errors import ArchiveError, StoreError
from repro.store import (
    MemoryBackend,
    manifest_digest,
    manifest_record_name,
    open_source,
    repair_container,
    scan_container,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Backend name -> the target-URI scheme that selects it.
SCHEMES = {"directory": "dir", "container": "file"}


def _quiet_restore(target, **overrides):
    """open_restore with v1/v2 shim warnings silenced (fault tests reread
    archives whose superseding manifest may be an older generation's)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return open_restore(target, **overrides)


# --------------------------------------------------------------------------- #
# Equivalence: archive(a); append(b) == archive(a+b)
# --------------------------------------------------------------------------- #
class TestAppendEquivalence:
    #: The issue's matrix: 2 media × 2 codecs × directory/container (each
    #: combo with its own deterministic payload seed).
    MATRIX = [
        ("test", "store", "directory", 101),
        ("test", "portable", "container", 102),
        ("dna", "store", "container", 103),
        ("dna", "portable", "directory", 104),
    ]

    @pytest.mark.parametrize("media,codec,store,seed", MATRIX)
    @settings(max_examples=3, deadline=None)
    @given(split=st.integers(min_value=1, max_value=3_999))
    def test_append_restores_bit_identical(self, media, codec, store, seed, split,
                                           make_payload, write_archive,
                                           tmp_path_factory):
        """For any split point, the appended archive restores the original
        payload and ``read_range`` across the generation boundary equals the
        corresponding slice."""
        payload = make_payload(4_000, seed=seed)
        a, b = payload[:split], payload[split:]
        tmp = tmp_path_factory.mktemp("append-eq")
        target = f"{SCHEMES[store]}:{tmp / 'arch'}"
        write_archive(target, a, media=media, codec=codec)
        write_archive(target, b, append=True)

        with open_restore(target) as reader:
            manifest = reader.manifest
            assert manifest.generation == 1
            assert manifest.archive_bytes == len(payload)
            assert manifest.archive_crc32 == zlib.crc32(payload) & 0xFFFFFFFF

            assert reader.read().payload == payload
            # A range spanning the generation boundary decodes seamlessly.
            lo = max(0, split - 400)
            hi = min(len(payload), split + 400)
            assert reader.read_range(lo, hi - lo) == payload[lo:hi]

    @pytest.mark.parametrize("store", ["directory", "container"])
    def test_appended_equals_single_shot_archive(self, store, tmp_path, make_payload,
                                                 write_archive):
        """The explicit reference comparison: both write paths restore the
        same bytes and agree on the whole-archive CRC."""
        payload = make_payload(7_000, seed=77)
        a, b = payload[:4_100], payload[4_100:]
        appended = f"{SCHEMES[store]}:{tmp_path / 'appended'}"
        oneshot = f"{SCHEMES[store]}:{tmp_path / 'oneshot'}"
        write_archive(appended, a)
        write_archive(appended, b, append=True)
        write_archive(oneshot, payload)

        with open_restore(oneshot) as one, open_restore(appended) as two:
            assert one.read().payload == two.read().payload == payload
            assert one.manifest.archive_crc32 == two.manifest.archive_crc32
        # Partial restore agrees segment by covering segment.
        for offset, length in ((0, 500), (4_000, 300), (6_500, 10**6)):
            with _quiet_restore(appended) as reader:
                assert reader.read_range(offset, length) == payload[offset:offset + length]

    def test_memory_backend_appends(self, make_payload, write_archive):
        payload = make_payload(4_000, seed=9)
        target = "mem:append-test"
        try:
            write_archive(target, payload[:2_500])
            write_archive(target, payload[2_500:], append=True)
            assert open_restore(target).read().payload == payload
            assert open_restore(target).read_range(2_000, 1_000) == payload[2_000:3_000]
        finally:
            MemoryBackend.discard(target)


# --------------------------------------------------------------------------- #
# Lineage: generations, parents, cumulative segment lists
# --------------------------------------------------------------------------- #
class TestManifestLineage:
    def test_three_generations_chain(self, tmp_path, make_payload, write_archive):
        payload = make_payload(6_000, seed=31)
        parts = (payload[:2_500], payload[2_500:4_200], payload[4_200:])
        target = f"file:{tmp_path / 'arch.ule'}"
        write_archive(target, parts[0])
        write_archive(target, parts[1], append=True)
        write_archive(target, parts[2], append=True)

        with open_source(target) as source:
            manifest = source.manifest()
            # Every generation's manifest record is still on the medium, and
            # each parent digest pins the manifest it superseded.
            names = source.names()
            chain = [
                ArchiveManifest.from_json(source.get_text(manifest_record_name(generation)))
                for generation in range(3)
            ]
        assert manifest.generation == 2
        assert all(manifest_record_name(g) in names for g in range(3))
        assert chain[0].parent is None
        assert chain[1].parent == manifest_digest(chain[0])
        assert chain[2].parent == manifest_digest(chain[1])
        # Cumulative, monotonically renumbered segments.
        assert chain[2].segments[: len(chain[1].segments)] == chain[1].segments
        assert chain[1].segments[: len(chain[0].segments)] == chain[0].segments
        offset = frame = 0
        for index, record in enumerate(manifest.segments):
            assert record.index == index
            assert record.offset == offset and record.emblem_start == frame
            offset += record.length
            frame += record.emblem_count
        assert offset == len(payload) == manifest.archive_bytes
        assert frame == manifest.data_emblem_count

        with open_restore(target) as reader:
            assert reader.read().payload == payload
            # restore_segment addresses segments of any generation uniformly.
            last = manifest.segments[-1]
            assert reader.restore_segment(last.index) == payload[last.offset:last.end]

    def test_append_requires_matching_stack(self, tmp_path, make_payload, write_archive):
        target = tmp_path / "arch"
        write_archive(target, make_payload(2_000, seed=41), media="test", codec="portable")
        with pytest.raises(ArchiveError, match="codec"):
            open_archive(target=target, append=True, codec="store")
        with pytest.raises(ArchiveError, match="media"):
            open_archive(target=target, append=True, media="dna")
        with pytest.raises(ArchiveError, match="outer_code"):
            open_archive(target=target, append=True, outer_code=False)

    def test_append_needs_an_existing_archive(self, tmp_path):
        with pytest.raises(ArchiveError, match="needs a target"):
            open_archive(append=True)
        with pytest.raises(StoreError):
            open_archive(target=f"file:{tmp_path / 'ghost.ule'}", append=True)
        with pytest.raises(StoreError):
            open_archive(target=f"dir:{tmp_path / 'ghost'}", append=True)

    def test_append_onto_a_v2_archive(self, tmp_path, make_payload, write_archive):
        """A pre-lineage (v2) archive appends through the shim: the new
        generation's parent pins the *upgraded* parent manifest."""
        payload = make_payload(4_000, seed=51)
        target = tmp_path / "arch"
        write_archive(target, payload[:2_500])
        manifest_path = target / "manifest.json"
        fields = json.loads(manifest_path.read_text())
        fields["format_version"] = 2
        del fields["generation"], fields["parent"]
        manifest_path.write_text(json.dumps(fields))

        with pytest.warns(DeprecationWarning, match="v2 archive manifest"):
            write_archive(target, payload[2_500:], append=True)
        with _quiet_restore(target) as reader:
            manifest = reader.manifest
            assert manifest.generation == 1 and manifest.parent is not None
            assert reader.read().payload == payload

    def test_manifest_and_config_give_one_payload_kind(self, tmp_path, make_payload):
        """``payload_kind=`` is an ordinary config override: the manifest's
        kind is the embedded config's, and an append keeps it unless it
        overrides it."""
        target = f"dir:{tmp_path / 'arch'}"
        payload = make_payload(3_000, seed=53)

        def kinds():
            with open_source(target) as source:
                manifest = source.manifest()
            with open_restore(target) as reader:
                session_kind = reader.config.payload_kind
            return manifest.payload_kind, manifest.config["payload_kind"], session_kind

        with open_archive(payload_kind="sql", target=target) as writer:
            writer.write(payload[:1_000])
        assert kinds() == ("sql", "sql", "sql")
        with open_archive(target=target, append=True) as writer:
            writer.write(payload[1_000:2_000])
        assert kinds() == ("sql", "sql", "sql")
        with open_archive(target=target, append=True, payload_kind="binary") as writer:
            writer.write(payload[2_000:])
        assert kinds() == ("binary", "binary", "binary")

    def test_append_keeps_the_manifest_kind_of_a_disagreeing_archive(
        self, tmp_path, make_payload, write_archive
    ):
        """Archives written with ``open_archive``'s former ``payload_kind``
        parameter hold the kind in the manifest alone; appends keep it."""
        directory = tmp_path / "arch"
        payload = make_payload(3_000, seed=54)
        write_archive(f"dir:{directory}", payload[:2_000])
        fields = json.loads((directory / "manifest.json").read_text())
        assert fields["config"]["payload_kind"] == "binary"
        fields["payload_kind"] = "sql"
        (directory / "manifest.json").write_text(json.dumps(fields))

        write_archive(f"dir:{directory}", payload[2_000:], append=True)
        with open_source(f"dir:{directory}") as source:
            manifest = source.manifest()
        assert manifest.generation == 1
        assert manifest.payload_kind == manifest.config["payload_kind"] == "sql"

    #: The config an archive written with ``write_archive``'s defaults
    #: embedded before the target URI became the only place a backend or a
    #: volume geometry is chosen, and before restore chunking followed the
    #: executor: it still carries ``store``, ``volume_parity``,
    #: ``volume_stripe``, ``decode_parallelism`` and ``readahead``.
    OLD_CONFIG = {
        "codec": "portable", "decode_mode": "python", "decode_parallelism": 1,
        "distortion": None, "executor": "serial", "media": "test-small",
        "outer_code": True, "payload_kind": "binary", "readahead": 0,
        "scan_seed": None, "segment_size": 2048,
        "store": None, "volume_parity": 1, "volume_stripe": 1,
    }

    @pytest.mark.parametrize("retired", [
        {},
        {"store": "container", "volume_parity": 2, "volume_stripe": 3,
         "decode_parallelism": 4, "readahead": 2},
    ], ids=["as-written", "non-default-values"])
    def test_archive_with_retired_config_keys(self, tmp_path, make_payload,
                                              write_archive, retired):
        """Old media: a manifest config carrying the retired keys restores
        bit-exact, takes an append and verifies, without a warning."""
        payload = make_payload(5_000, seed=52)
        directory = tmp_path / "arch"
        target = f"dir:{directory}"
        write_archive(target, payload[:3_000])
        old_config = {**self.OLD_CONFIG, **retired}
        fields = json.loads((directory / "manifest.json").read_text())
        fields["config"] = old_config
        (directory / "manifest.json").write_text(json.dumps(fields, indent=2, sort_keys=True))
        (directory / "config.json").write_text(
            json.dumps(old_config, indent=2, sort_keys=True) + "\n"
        )

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with open_restore(target) as reader:
                assert reader.read().payload == payload[:3_000]
            write_archive(target, payload[3_000:], append=True)
            with open_restore(target) as reader:
                assert reader.read_range(2_500, 1_000) == payload[2_500:3_500]
                assert reader.read().payload == payload
                report = reader.verify()
        assert report.ok, report.errors
        assert report.active_generation == 1
        with open_source(target) as source:
            new_config = source.manifest().config
        assert new_config is not None
        gone = {"store", "volume_parity", "volume_stripe", "decode_parallelism", "readahead"}
        assert not gone & set(new_config)


# --------------------------------------------------------------------------- #
# Fault injection: torn appends on the container backend
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="class")
def torn_fixture(tmp_path_factory):
    """A two-generation container plus its payloads and layout landmarks."""
    rng = np.random.default_rng(20260729)
    a = bytes(rng.integers(0, 256, 5_000, dtype=np.uint8))
    b = bytes(rng.integers(0, 256, 3_700, dtype=np.uint8))
    tmp = tmp_path_factory.mktemp("torn")
    target = tmp / "arch.ule"
    config = ArchiveConfig(media="test", codec="portable", segment_size=2048)
    with open_archive(config, target=f"file:{target}") as writer:
        writer.write(a)
    size_gen0 = target.stat().st_size
    with open_archive(target=target, append=True) as writer:
        writer.write(b)
    return {
        "dir": tmp,
        "data": target.read_bytes(),
        "a": a,
        "b": b,
        "size_gen0": size_gen0,
    }


class TestTornAppends:
    #: Cut positions as fractions of the appended region (records), plus
    #: absolute cuts inside the final index record and the final trailer.
    FRACTIONS = (0.02, 0.2, 0.45, 0.7, 0.9, 0.995)

    def _cut(self, torn_fixture, position: int) -> Path:
        data = torn_fixture["data"]
        path = torn_fixture["dir"] / f"cut_{position}.ule"
        path.write_bytes(data[:position])
        return path

    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_cut_inside_records_falls_back_then_repairs(self, torn_fixture, fraction):
        """A cut inside the second generation's records loses that
        generation — and only it."""
        # Stay well inside the appended *frame records*: the trailing
        # manifest + index + trailer occupy only the last few KB.
        lo, hi = torn_fixture["size_gen0"], len(torn_fixture["data"])
        path = self._cut(torn_fixture, lo + int((hi - lo - 8_000) * fraction) + 1)
        a, b = torn_fixture["a"], torn_fixture["b"]

        with _quiet_restore(path) as reader:
            assert reader.read().payload == a  # generation-0 fallback
        with pytest.raises(StoreError, match="torn tail"):
            open_archive(target=path, append=True)

        report = repair_container(path)
        assert report["action"] == "truncated"
        assert scan_container(path).intact
        with _quiet_restore(path) as reader:
            assert reader.read().payload == a
            fsck = reader.verify()
        assert fsck.ok, fsck.errors
        # ... and the repaired archive accepts the append again.
        with open_archive(target=path, append=True) as writer:
            writer.write(b)
        with open_restore(path) as reader:
            assert reader.read().payload == a + b

    @pytest.mark.parametrize("tail_offset", [4, 12, 17, 300])
    def test_cut_inside_index_or_trailer_keeps_both_generations(self, torn_fixture,
                                                                tail_offset):
        """Cuts past the appended manifest (inside the new index/trailer)
        lose no data: repair finishes the index instead of truncating."""
        path = self._cut(torn_fixture, len(torn_fixture["data"]) - tail_offset)
        whole = torn_fixture["a"] + torn_fixture["b"]

        # The scan fallback already serves both generations...
        with _quiet_restore(path) as reader:
            assert reader.read().payload == whole
        report = repair_container(path)
        assert report["action"] == "completed-index"
        assert scan_container(path).intact
        # ... and after repair the trailer index does, with a clean fsck.
        with open_restore(path) as reader:
            assert reader.read().payload == whole
            fsck = reader.verify()
        assert fsck.ok, fsck.errors

    def test_verify_reports_torn_tail_orphans(self, torn_fixture):
        lo, hi = torn_fixture["size_gen0"], len(torn_fixture["data"])
        path = self._cut(torn_fixture, (lo + hi) // 2)
        with _quiet_restore(path) as reader:
            fsck = reader.verify(deep=False)
        # Complete generation-1 frames before the cut are orphans: present
        # on the medium but unreferenced by the superseding (gen 0) manifest.
        assert fsck.active_generation == 0
        assert fsck.orphaned, "expected orphaned generation-1 frame records"
        assert fsck.ok  # orphans alone are warnings, not integrity errors

    def test_repair_is_idempotent(self, torn_fixture):
        path = self._cut(torn_fixture, len(torn_fixture["data"]))
        assert repair_container(path)["action"] == "intact"


    def test_cut_on_a_record_boundary_is_still_detected(self, torn_fixture):
        """Zero dangling bytes is not intact: a cut exactly at a record end
        leaves no trailer at EOF, so verify must flag it and repair fix it."""
        full = torn_fixture["dir"] / "full-scan.ule"
        full.write_bytes(torn_fixture["data"])
        scan = scan_container(full)
        boundary = next(
            start + length
            for name, start, length in scan.records
            if start > torn_fixture["size_gen0"] and name.startswith("data_emblem_")
        )
        path = self._cut(torn_fixture, boundary)
        cut = scan_container(path)
        assert not cut.intact and cut.torn_bytes == 0
        with pytest.raises(StoreError, match="torn tail"):
            open_archive(target=path, append=True)
        from repro.api.cli import main as cli_main

        assert cli_main(["verify", str(path), "--shallow"]) == 1
        assert repair_container(path)["action"] == "truncated"
        assert cli_main(["verify", str(path), "--shallow"]) == 0
        with _quiet_restore(path) as reader:
            assert reader.read().payload == torn_fixture["a"]

    def test_aborted_append_rolls_back_byte_identically(self, torn_fixture):
        """A failed/aborted append session must not finalise a half-written
        generation: the container returns to its exact pre-append bytes and
        a retried append succeeds."""
        data0 = torn_fixture["data"][: torn_fixture["size_gen0"]]
        path = torn_fixture["dir"] / "abort.ule"
        path.write_bytes(data0)
        writer = open_archive(target=path, append=True)
        writer.write(torn_fixture["b"][:1_000])
        writer.abort()
        assert path.read_bytes() == data0
        with open_archive(target=path, append=True) as retried:
            retried.write(torn_fixture["b"])
        with open_restore(path) as reader:
            assert reader.read().payload == torn_fixture["a"] + torn_fixture["b"]


class TestScanDegenerateFiles:
    """scan/repair on degenerate files: clean StoreError, never a crash."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ule"
        path.write_bytes(b"")
        with pytest.raises(StoreError, match="bad magic"):
            scan_container(path)
        with pytest.raises(StoreError, match="bad magic"):
            repair_container(path)

    def test_magic_only_file(self, tmp_path):
        from repro.store.backends import CONTAINER_MAGIC

        path = tmp_path / "bare.ule"
        path.write_bytes(CONTAINER_MAGIC)
        scan = scan_container(path)
        assert not scan.records and not scan.intact
        # Nothing loadable to repair back to -> an explanatory StoreError.
        with pytest.raises(StoreError, match="no.*(trailer|manifest)"):
            repair_container(path)

    @pytest.mark.parametrize("tail", [b"\x14", b"\x14\x00", b"\x14\x00dat",
                                      b"\x14\x00" + b"x" * 20])
    def test_record_header_truncated_at_eof(self, tmp_path, tail):
        """A record header cut mid-bytes ends the scan cleanly: everything
        before it is served, the dangling bytes count as torn, and repair
        truncates back to the intact generation."""
        from repro.store import open_sink

        path = tmp_path / "torn-header.ule"
        with open_sink(f"file:{path}") as sink:
            sink.put_text("note", "complete record before the torn header")
        intact_size = path.stat().st_size
        path.write_bytes(path.read_bytes() + tail)

        scan = scan_container(path)
        assert list(scan.index()) == ["note"]
        assert not scan.intact
        assert scan.torn_bytes == len(tail)

        report = repair_container(path)
        assert report["action"] == "truncated"
        assert report["size_after"] == intact_size
        assert scan_container(path).intact


# --------------------------------------------------------------------------- #
# fsck: ArchiveReader.verify
# --------------------------------------------------------------------------- #
class TestVerify:
    def test_clean_multi_generation_archive_verifies(self, tmp_path, make_payload,
                                                     write_archive):
        payload = make_payload(5_000, seed=61)
        target = f"file:{tmp_path / 'arch.ule'}"
        write_archive(target, payload[:3_000])
        write_archive(target, payload[3_000:], append=True)
        with open_restore(target) as reader:
            report = reader.verify()
            segments = len(reader.manifest.segments)
        assert report.ok
        assert report.active_generation == 1
        assert [info.status for info in report.generations] == ["superseded", "active"]
        assert report.superseded == ["manifest.json"]
        assert report.segments_checked == segments
        assert not report.orphaned

    def test_deep_verify_catches_a_corrupted_frame(self, tmp_path, make_payload,
                                                   write_archive):
        """A blanked frame parses fine (shallow passes) but fails the
        per-segment hash re-decode (deep catches it)."""
        from repro.media.image import netpbm_from_bytes, pgm_bytes

        payload = make_payload(6_000, seed=62)
        target = tmp_path / "arch"
        write_archive(target, payload)
        with open_source(target) as source:
            manifest = source.manifest()
        victim = manifest.segments[1]
        for index in range(victim.emblem_start,
                           victim.emblem_start + victim.emblem_count):
            frame_path = target / f"data_emblem_{index:04d}.pgm"
            image = netpbm_from_bytes(frame_path.read_bytes())
            frame_path.write_bytes(pgm_bytes(np.full_like(image, 255)))

        with open_restore(target) as reader:
            shallow = reader.verify(deep=False)
            deep = reader.verify()
        assert shallow.ok
        assert not deep.ok
        assert any("segment 1" in message for message in deep.errors)
        # The other segments still verified independently.
        assert deep.segments_checked == len(manifest.segments) - 1

    def test_verify_catches_a_broken_lineage(self, tmp_path, make_payload,
                                             write_archive):
        payload = make_payload(4_000, seed=63)
        target = tmp_path / "arch"
        write_archive(target, payload[:2_500])
        write_archive(target, payload[2_500:], append=True)
        gen1_path = target / manifest_record_name(1)
        fields = json.loads(gen1_path.read_text())
        fields["parent"] = "0" * 64
        gen1_path.write_text(json.dumps(fields))
        with open_restore(target) as reader:
            report = reader.verify(deep=False)
        assert not report.ok
        assert any("parent digest" in message for message in report.errors)

    def test_verify_needs_a_store_backed_session(self, make_payload, build_archive):
        archive = build_archive(ArchiveConfig(media="test", segment_size=2048),
                                make_payload(2_000, seed=64))
        with pytest.raises(ArchiveError, match="store-backed"):
            open_restore(archive).verify()


# --------------------------------------------------------------------------- #
# CLI: archive --append and verify --repair
# --------------------------------------------------------------------------- #
class TestAppendCLI:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=300,
        )

    def test_archive_append_verify_repair_flow(self, tmp_path):
        a = b"ULE append CLI payload A. " * 150
        b = b"ULE append CLI payload B! " * 100
        (tmp_path / "a.bin").write_bytes(a)
        (tmp_path / "b.bin").write_bytes(b)
        target = tmp_path / "arch.ule"

        proc = self._run("archive", "-i", str(tmp_path / "a.bin"), "-o", f"file:{target}",
                         "--media", "test", "--segment-size", "2048", "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["generation"] == 0

        proc = self._run("archive", "-i", str(tmp_path / "b.bin"), "-o", str(target),
                         "--append", "--json")
        assert proc.returncode == 0, proc.stderr
        appended = json.loads(proc.stdout)
        assert appended["generation"] == 1
        assert appended["payload_bytes"] == len(a) + len(b)

        proc = self._run("verify", str(target), "--json")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["ok"] and report["active_generation"] == 1
        assert len(report["generations"]) == 2

        # Partial restore through the CLI spans the generation boundary.
        out = tmp_path / "slice.bin"
        offset = len(a) - 500
        proc = self._run("restore", "-i", str(target), "-o", str(out),
                         "--offset", str(offset), "--length", "1000")
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (a + b)[offset:offset + 1000]

        # Tear the tail; verify flags it (exit 1), --repair recovers (exit 0).
        data = target.read_bytes()
        torn = tmp_path / "torn.ule"
        torn.write_bytes(data[: int(len(data) * 0.8)])
        proc = self._run("verify", str(torn), "--json")
        assert proc.returncode == 1, proc.stdout
        assert any("torn tail" in message for message in json.loads(proc.stdout)["errors"])
        proc = self._run("verify", str(torn), "--repair", "--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        repaired = json.loads(proc.stdout)
        assert repaired["ok"] and repaired["repair"]["action"] in (
            "truncated", "completed-index"
        )

    def test_repair_rejects_directory_targets(self, tmp_path, make_payload,
                                              write_archive):
        target = tmp_path / "arch"
        write_archive(target, make_payload(2_000, seed=71))
        proc = self._run("verify", str(target), "--repair")
        assert proc.returncode == 2
        assert "--repair only applies to container archives" in proc.stderr
