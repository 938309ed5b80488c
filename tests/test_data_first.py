"""Data-first restore: parity frames are read only when the data frames fall short.

Every restore fetches and decodes a segment's data frames first and turns to
the rest of the segment (its parity frames) only when one of its data frames
fails or is absent, or a decoded header disagrees with the layout.
``verify(deep=True)`` alone decodes every frame.  These tests pin:

* ``stream_layout`` is the layout ``MOCoder.encode`` writes, and it rejects
  every frame count the encoder never produces;
* data-first decode equals the every-frame ``MOCoder.decode`` — the same
  bytes, or the same exception type and message — over blanked and dusted
  data and parity frames, more than 3 losses in one group, multi-group
  segments and shuffled or absent scans (a hypothesis property), a data
  frame displaced into an inner group's parity slot, and a foreign frame;
* a frame scanned alone through ``ChannelSpec.simulate`` is pixel-identical
  to the same frame scanned in its run, and ``read_via_channel`` restores
  bit-exact with a group's parity scanned late;
* an ``outer_code=False`` archive restores by its own layout, and a session
  override of ``outer_code`` changes no archive's layout;
* ``verify`` warns once per frame that fails to decode, and a restore of the
  same archive never reads that frame.

The fetch pattern of each read (one ``get_frames`` call per clean segment)
is pinned next to the recording source in ``tests/test_store.py``.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ArchiveConfig, open_archive, open_restore
from repro.core.archive import MicrOlonysArchive
from repro.core.profiles import TEST_PROFILE
from repro.dbcoder import DBCoder
from repro.errors import MissingEmblemError
from repro.media import distortions
from repro.mocoder import EmblemKind, MOCoder
from repro.mocoder.mocoder import MAX_STREAM_FRAMES, stream_layout
from repro.pipeline import ChannelSpec

SPEC = TEST_PROFILE.spec
CAPACITY = SPEC.payload_capacity


def _blank_frame(path) -> None:
    """Overwrite a stored frame's raster with white (nothing decodes)."""
    from repro.media.image import netpbm_from_bytes, pgm_bytes

    path.write_bytes(pgm_bytes(np.full_like(netpbm_from_bytes(path.read_bytes()), 255)))


# --------------------------------------------------------------------------- #
# The layout: one statement, written by encode and read by the restore
# --------------------------------------------------------------------------- #
class TestStreamLayout:
    @pytest.mark.parametrize("outer_code", [True, False])
    def test_layout_places_every_emblem_encode_writes(self, outer_code: bool) -> None:
        coder = MOCoder(SPEC, outer_code=outer_code)
        for data_frames in (1, 2, 16, 17, 18, 34, 35, 52):
            stream = coder.encode(bytes(CAPACITY * data_frames))
            layout = stream_layout(len(stream.emblems), outer_code)
            assert layout is not None
            assert sum(group.data for group in layout) == data_frames
            for group in layout:
                for position in range(group.start, group.end):
                    header = stream.emblems[position].header
                    parity = position >= group.data_end
                    assert header.index == position
                    assert header.group_index == group.index
                    assert (header.kind == EmblemKind.PARITY) == parity
                    assert header.slot_in_group == (
                        17 + position - group.data_end if parity else position - group.start
                    )

    def test_counts_the_encoder_never_writes_have_no_layout(self) -> None:
        for count in (0, 1, 2, 3, 21, 22, 23, 41, MAX_STREAM_FRAMES + 1):
            assert stream_layout(count) is None, count
        for count in (4, 20, 24, 40, 44):
            assert stream_layout(count) is not None, count
        assert stream_layout(0, outer_code=False) is None
        assert all(stream_layout(count, outer_code=False) for count in (1, 3, 17, 21))


# --------------------------------------------------------------------------- #
# Data-first == every frame: same bytes or the same error
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _one_segment_archive(data_frames: int) -> MicrOlonysArchive:
    """A one-segment ``store`` archive of about ``data_frames`` data frames."""
    payload = bytes(np.random.default_rng(data_frames).integers(
        0, 256, size=max(1, CAPACITY * data_frames - 64), dtype=np.uint8))
    config = ArchiveConfig(media="test", codec="store", segment_size=None)
    with open_archive(config) as writer:
        writer.write(payload)
    return writer.archive


def _outcome(restore):
    try:
        return "ok", restore()
    except Exception as exc:  # the comparison covers any error either path raises
        return type(exc), str(exc)


def _damaged_scans(archive, blanks, dusts, burst, order, seed):
    frames = [frame.copy() for frame in archive.data_emblem_images]
    count = len(frames)
    rng = np.random.default_rng(seed)
    for position in blanks:
        frames[position % count].fill(255)
    for position in dusts:
        frame = frames[position % count]
        frame[...] = distortions.add_dust(frame, 60, 4, rng)
    start, length = burst
    for position in range(start, start + length):
        frames[position % count].fill(255)
    if order == "shuffled":
        frames = [frames[index] for index in rng.permutation(count)]
    elif order == "absent":
        dropped = set(rng.choice(count, size=min(3, count - 1), replace=False).tolist())
        frames = [frame for index, frame in enumerate(frames) if index not in dropped]
    return frames


class TestDataFirstEqualsEveryFrame:
    @settings(max_examples=80, deadline=None)
    @given(
        data_frames=st.integers(min_value=1, max_value=40),
        blanks=st.lists(st.integers(min_value=0, max_value=60), max_size=3),
        dusts=st.lists(st.integers(min_value=0, max_value=60), max_size=3),
        burst=st.tuples(st.integers(min_value=0, max_value=60),
                        st.integers(min_value=0, max_value=5)),
        order=st.sampled_from(["stored", "stored", "shuffled", "absent"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_read_from_scans_matches_decoding_every_frame(
        self, data_frames, blanks, dusts, burst, order, seed
    ) -> None:
        archive = _one_segment_archive(data_frames)
        scans = _damaged_scans(archive, blanks, dusts, burst, order, seed)

        def every_frame() -> bytes:
            container, _ = MOCoder(SPEC).decode(scans)
            return DBCoder().decode(container)

        def data_first() -> bytes:
            with open_restore(archive) as reader:
                return reader.read_from_scans(scans).payload

        assert _outcome(data_first) == _outcome(every_frame)

    def test_scans_out_of_order_get_every_frame_decoded(self) -> None:
        """A parity frame scanned where a data frame belongs disagrees with
        the layout, so the restore decodes every scan, as eager decode does."""
        archive = _one_segment_archive(30)
        scans = list(archive.data_emblem_images)
        parity = stream_layout(len(scans))[1].data_end  # group 1's first parity frame
        scans[3], scans[parity] = scans[parity], scans[3]
        with open_restore(archive) as reader:
            result = reader.read_from_scans(scans)
        assert result.data_report.emblems_seen == len(scans)
        container, _ = MOCoder(SPEC).decode(scans)
        assert result.payload == DBCoder().decode(container)

    def test_a_foreign_frame_gets_every_frame_decoded(self) -> None:
        """A frame of a longer stream scanned among the data frames names an
        index past this stream's last frame; the restore then decodes every
        scan and rebuilds the frame it displaced, as eager decode does."""
        archive = _one_segment_archive(5)
        scans = list(archive.data_emblem_images)
        assert len(scans) == 8
        scans[2] = _one_segment_archive(30).data_emblem_images[30]
        container, _ = MOCoder(SPEC).decode(scans)
        with open_restore(archive) as reader:
            result = reader.read_from_scans(scans)
        assert result.payload == DBCoder().decode(container)
        assert result.data_report.emblems_seen == len(scans)
        assert result.data_report.groups_reconstructed == 1

    def test_a_frame_count_no_encode_writes_decodes_every_frame(self) -> None:
        """A manifest claiming a frame count the layout cannot produce gets
        no data-first read: every scan is decoded, as before."""
        archive = _one_segment_archive(5)
        [record] = archive.manifest.segments
        assert record.emblem_count == 8 and stream_layout(22) is None
        hostile = dataclasses.replace(
            archive.manifest, segments=(dataclasses.replace(record, emblem_count=22),)
        )
        with open_restore(archive) as reader:
            result = reader.read_from_scans(
                archive.data_emblem_images, manifest=hostile
            )
        assert result.data_report.emblems_seen == 8
        assert len(result.payload) == record.length

    def test_a_data_frame_displaced_into_an_inner_parity_slot_still_counts(self) -> None:
        """Group 1 (4 + 3 frames) is three data frames short and one parity
        frame down, but its frame 21 was scanned into group 0's parity slot
        17: decoding the rest of the segment finds it, as eager decode does,
        and the group restores from 4 survivors."""
        archive = _one_segment_archive(21)
        scans = [frame.copy() for frame in archive.data_emblem_images]
        assert [(group.data, group.parity) for group in stream_layout(len(scans))] == [
            (17, 3), (4, 3)]
        for position in (17, 22, 23, 24):
            scans[position].fill(255)
        scans[17], scans[21] = scans[21], scans[17]
        container, _ = MOCoder(SPEC).decode(scans)
        with open_restore(archive) as reader:
            result = reader.read_from_scans(scans)
        assert result.payload == DBCoder().decode(container)
        assert result.data_report.emblems_seen == len(scans)
        assert result.data_report.groups_reconstructed == 1

    @pytest.mark.parametrize("losses", [0, 1, 3, 4])
    def test_losses_in_the_inner_group_of_a_multi_group_segment(self, losses: int) -> None:
        """Up to 3 blanked frames of a 17+3 group restore from its parity
        (the rest of the segment decoded once); a 4th fails as eager decode
        does."""
        archive = _one_segment_archive(30)
        assert len(stream_layout(archive.manifest.data_emblem_count)) == 2
        scans = _damaged_scans(archive, [], [], (2, losses), "stored", 0)
        every_frame = _outcome(lambda: MOCoder(SPEC).decode(scans)[0])
        with open_restore(archive) as reader:
            result = _outcome(
                lambda: reader.read_from_scans(scans).data_report
            )
        if losses > 3:
            assert every_frame[0] is MissingEmblemError and result == every_frame
            return
        report = result[1]
        assert every_frame[0] == "ok"
        # The data frames, plus both groups' parity when group 0 is short.
        assert report.emblems_seen == 30 + (6 if losses else 0)
        assert report.groups_reconstructed == (1 if losses else 0)
        assert report.emblems_failed == losses
        rebuilt = [note for note in report.failures if "reconstructed" in note]
        assert rebuilt == ([f"{losses} of 30 data emblems were missing and reconstructed"]
                           if losses else [])


# --------------------------------------------------------------------------- #
# The channel scans only the frames a restore decodes, each with its own seed
# --------------------------------------------------------------------------- #
class TestChannelScansOnDemand:
    def test_a_frame_scanned_alone_matches_its_run(self) -> None:
        archive = _one_segment_archive(5)
        images = archive.data_emblem_images
        channel = ChannelSpec(media="test", distortion="office-scan", seed=11)
        run = channel.simulate(images, frame_start=40)
        for position in (0, len(images) - 1):
            alone = channel.simulate([images[position]], frame_start=40 + position)
            np.testing.assert_array_equal(alone[0], run[position])

    def test_read_via_channel_scans_a_short_segments_parity_late(self, make_payload,
                                                                build_archive) -> None:
        payload = make_payload(6_000, seed=21)
        config = ArchiveConfig(media="test", codec="store", segment_size=2_048,
                               distortion="office-scan")
        archive = build_archive(config, payload)
        images = list(archive.data_emblem_images)
        victim = archive.manifest.segments[1]
        images[victim.emblem_start + 2] = np.full_like(images[0], 255)
        damaged = MicrOlonysArchive(archive.manifest, images, archive.system_emblem_images,
                                    archive.bootstrap_text)
        with open_restore(damaged, config) as reader:
            result = reader.read_via_channel(seed=4)
        assert result.payload == payload
        report = result.data_report
        data_frames = sum(stream_layout(record.emblem_count)[-1].data_end
                          for record in archive.manifest.segments)
        assert report.groups_reconstructed >= 1
        assert data_frames + 3 <= report.emblems_seen < archive.manifest.data_emblem_count


# --------------------------------------------------------------------------- #
# The archive's own outer-code setting
# --------------------------------------------------------------------------- #
class TestArchiveOuterCode:
    def _archive(self, tmp_path, make_payload, write_archive):
        payload = make_payload(10_240, seed=22)
        target = f"dir:{tmp_path / 'arch'}"
        write_archive(target, payload, codec="store", segment_size=4_096, outer_code=False)
        return payload, target

    def test_blanked_frame_names_the_missing_slot(self, tmp_path, make_payload,
                                                  write_archive) -> None:
        _, target = self._archive(tmp_path, make_payload, write_archive)
        with open_restore(target) as reader:
            assert [r.emblem_count for r in reader.manifest.segments] == [21, 21, 11]
        _blank_frame(tmp_path / "arch" / "data_emblem_0001.pgm")
        with open_restore(target) as reader, pytest.raises(
            MissingEmblemError,
            match=r"group 0: emblems for slots \[1\] are missing and no outer code was used",
        ):
            reader.read()

    def test_clean_archive_decodes_each_frame_once(self, tmp_path, make_payload,
                                                   write_archive, monkeypatch) -> None:
        payload, target = self._archive(tmp_path, make_payload, write_archive)
        decoded: list[int] = []
        decode_images = MOCoder.decode_images

        def counting(self, images, report, image_offset=0):
            decoded.extend(range(image_offset, image_offset + len(images)))
            return decode_images(self, images, report, image_offset)

        monkeypatch.setattr(MOCoder, "decode_images", counting)
        with open_restore(target) as reader:
            result = reader.read()
            manifest = reader.manifest
        assert result.payload == payload
        system = manifest.system_emblem_count
        # The system stream's frames, then every data frame once (a 21-frame
        # segment is two parity-free groups, 17 + 4), nothing more.
        assert decoded[:system] == list(range(system))
        assert sorted(decoded[system:]) == list(range(manifest.data_emblem_count))
        assert result.data_report.emblems_seen == manifest.data_emblem_count

    def test_a_session_override_cannot_change_the_layout(self, tmp_path, make_payload,
                                                         write_archive) -> None:
        """``outer_code`` is a fact of the archive: a reader opened with
        ``outer_code=False`` on an archive with parity still reads its parity
        frames as parity and rebuilds a blanked data frame from them."""
        payload = make_payload(5_120, seed=24)
        directory = tmp_path / "arch"
        write_archive(f"dir:{directory}", payload, codec="store", segment_size=2_048)
        _blank_frame(directory / "data_emblem_0001.pgm")
        with open_restore(f"dir:{directory}", outer_code=False) as reader:
            assert reader.config.outer_code is False
            result = reader.read()
            assert reader.restore_segment(0) == payload[:2_048]
            report = reader.verify()
        assert result.payload == payload
        assert result.data_report.groups_reconstructed == 1
        assert report.ok and len(report.warnings) == 1


# --------------------------------------------------------------------------- #
# verify audits every frame; restore never reads a healthy group's parity
# --------------------------------------------------------------------------- #
class TestVerifyAuditsParity:
    def test_blank_parity_frame_warns_and_restore_skips_it(self, tmp_path, make_payload,
                                                           write_archive) -> None:
        from repro.store import open_source

        payload = make_payload(5_120, seed=23)
        directory = tmp_path / "arch"
        write_archive(f"dir:{directory}", payload, codec="store", segment_size=2_048)
        with open_restore(f"dir:{directory}") as reader:
            clean = reader.verify()
            segment = reader.manifest.segments[0]
        assert clean.ok and clean.warnings == []
        assert segment.emblem_count == 14  # 11 data + 3 parity
        _blank_frame(directory / "data_emblem_0012.pgm")
        with open_restore(f"dir:{directory}") as reader:
            report = reader.verify()
        assert report.ok and report.frames_checked == clean.frames_checked
        assert len(report.warnings) == 1
        assert "segment 0: data frame 12 failed to decode" in report.warnings[0]

        fetched: list[int] = []
        source = open_source(f"dir:{directory}")
        get_frames = source.get_frames

        def recording(kind, start, count):
            if kind == "data":
                fetched.extend(range(start, start + count))
            return get_frames(kind, start, count)

        source.get_frames = recording
        with open_restore(source) as reader:
            result = reader.read()
        assert result.payload == payload
        assert 12 not in fetched and result.data_report.emblems_failed == 0
