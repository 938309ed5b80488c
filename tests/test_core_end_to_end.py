"""End-to-end tests of the Micr'Olonys archival / restoration flows (Figure 2).

Exercises the flows through the :mod:`repro.api` facade, the one way to
archive (``open_archive``) and to restore (``open_restore``).
"""

import time

import numpy as np
import pytest

from repro import (
    ArchiveConfig,
    MicrOlonysArchive,
    TEST_PROFILE,
    db_dump,
    generate_tpch,
    open_archive,
    open_restore,
)
from repro.core.profiles import PROFILES, get_profile
from repro.dynarisc import DynaRiscAssembler
from repro.errors import (
    ConfigError,
    ExecutionLimitExceeded,
    RestorationError,
    UnknownNameError,
)
from repro.mocoder import EmblemKind, MOCoder
from repro.store import load_archive


@pytest.fixture(scope="module")
def tiny_database():
    return generate_tpch(0.00002, seed=11)


@pytest.fixture(scope="module")
def tiny_archive(tiny_database):
    with open_archive(ArchiveConfig(media="test", payload_kind="sql")) as writer:
        writer.write(db_dump(tiny_database).encode("utf-8"))
    return writer.archive


class TestProfiles:
    def test_all_profiles_have_positive_capacity(self):
        for profile in PROFILES.values():
            assert profile.spec.payload_capacity > 0

    def test_paper_profile_hits_the_50kb_per_page_density(self):
        """E1: ~1.2 MB on ~26 pages is ~50 kB per page."""
        profile = get_profile("paper-a4-600dpi")
        assert 55_000 < profile.spec.payload_capacity < 70_000

    def test_emblems_fit_their_channel_frames(self):
        for profile in PROFILES.values():
            channel = profile.channel()
            assert profile.spec.pixels_y <= channel.frame_shape[0]
            assert profile.spec.pixels_x <= channel.frame_shape[1]

    def test_profile_aliases_resolve(self):
        assert get_profile("paper") is get_profile("paper-a4-600dpi")
        assert get_profile("test") is TEST_PROFILE

    def test_unknown_profile(self):
        # UnknownNameError subclasses both ReproError and KeyError.
        with pytest.raises(UnknownNameError):
            get_profile("punch-cards")
        with pytest.raises(KeyError):
            get_profile("punch-cards")


class TestArchiveSession:
    def test_archive_contains_all_artifacts(self, tiny_archive):
        assert tiny_archive.data_emblem_images
        assert tiny_archive.system_emblem_images
        assert "VERISC" in tiny_archive.bootstrap_text.upper()
        assert tiny_archive.manifest.data_emblem_count == len(tiny_archive.data_emblem_images)

    def test_emblem_count_estimate_close_to_actual(self, tiny_database, tiny_archive):
        config = ArchiveConfig(media="test")
        # The estimate ignores compression, so it upper-bounds the actual count.
        estimate = config.estimate_emblems(len(db_dump(tiny_database).encode("utf-8")))
        assert estimate >= tiny_archive.manifest.data_emblem_count


class TestRestoreSession:
    def test_direct_restore_is_bit_exact(self, tiny_database, tiny_archive):
        result = open_restore(tiny_archive).read()
        assert result.database == tiny_database
        assert result.archive_text.startswith("--")

    def test_restore_through_the_scanner(self, tiny_database, tiny_archive):
        result = open_restore(tiny_archive).read_via_channel(seed=5)
        assert result.database == tiny_database
        assert result.data_report.emblems_failed == 0

    def test_restore_with_emulated_decoder(self, tiny_database, tiny_archive):
        result = open_restore(tiny_archive, decode_mode="dynarisc").read()
        assert result.database == tiny_database
        assert result.emulator_steps > 0

    def test_looping_archived_decoder_fails_within_its_budget(self, tiny_archive):
        """System emblems carrying a decoder that never halts must not hang."""
        loop = DynaRiscAssembler().assemble("start: JUMP start").code
        system_images = MOCoder(TEST_PROFILE.spec).encode_to_images(loop, kind=EmblemKind.SYSTEM)
        reader = open_restore(tiny_archive, decode_mode="dynarisc")
        start = time.perf_counter()
        with pytest.raises(ExecutionLimitExceeded, match="segment 0: the archived decoder"):
            reader.read_from_scans(tiny_archive.data_emblem_images, system_images)
        assert time.perf_counter() - start < 60

    def test_restore_with_missing_emblems(self, tiny_database, tiny_archive):
        damaged = MicrOlonysArchive(
            manifest=tiny_archive.manifest,
            data_emblem_images=tiny_archive.data_emblem_images[1:],
            system_emblem_images=tiny_archive.system_emblem_images,
            bootstrap_text=tiny_archive.bootstrap_text,
        )
        result = open_restore(damaged).read()
        assert result.database == tiny_database
        assert result.data_report.groups_reconstructed >= 1

    def test_dense_codec_requires_reference_decoder(self, tiny_database):
        config = ArchiveConfig(media="test", codec="dense", payload_kind="sql")
        with open_archive(config) as writer:
            writer.write(db_dump(tiny_database).encode("utf-8"))
        archive = writer.archive
        assert open_restore(archive).read().database == tiny_database
        with pytest.raises(RestorationError):
            open_restore(archive, decode_mode="dynarisc").read()

    def test_invalid_decode_mode(self, tiny_archive):
        with pytest.raises(ConfigError):
            open_restore(tiny_archive, decode_mode="magic")

    def test_raw_byte_payload_archive(self, rng):
        """The microfilm/cinema experiments archive an image file, not SQL."""
        payload = bytes(rng.integers(0, 256, size=2000, dtype=np.uint8))
        with open_archive(ArchiveConfig(media="test"), payload_kind="tiff") as writer:
            writer.write(payload)
        result = open_restore(writer.archive).read()
        assert result.payload == payload
        assert result.database is None


class TestArchivePersistence:
    @staticmethod
    def _write_directory(database, directory) -> str:
        target = f"dir:{directory}"
        with open_archive(ArchiveConfig(media="test", payload_kind="sql"),
                          target=target) as writer:
            writer.write(db_dump(database).encode("utf-8"))
        return target

    def test_save_and_load_directory(self, tiny_database, tiny_archive, tmp_path):
        target = self._write_directory(tiny_database, tmp_path / "archive")
        loaded = load_archive(target)
        assert loaded.manifest == tiny_archive.manifest
        assert len(loaded.data_emblem_images) == len(tiny_archive.data_emblem_images)
        result = open_restore(loaded).read()
        assert result.database == tiny_database

    def test_open_restore_from_directory(self, tiny_database, tmp_path):
        target = self._write_directory(tiny_database, tmp_path / "archive-api")
        # The manifest supplies media + codec: the archive is self-describing.
        with open_restore(target) as reader:
            assert reader.read().database == tiny_database

    def test_loading_a_non_archive_directory_fails(self, tmp_path):
        from repro.errors import ArchiveError
        with pytest.raises(ArchiveError):
            load_archive(f"dir:{tmp_path}")
