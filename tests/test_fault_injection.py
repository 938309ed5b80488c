"""Fault-injection matrix for the archival/restore pipeline.

Corrupts and erases emblems across the simulated media channels
(:mod:`repro.media`: paper, microfilm, cinema film, plus direct image
distortions) and asserts that

* restoration succeeds — bit for bit — while the damage stays within the
  RS(255,223) inner-code budget (16 symbol errors per block) plus the
  17+3 outer-code budget (3 lost emblems per group of 20), and
* beyond the budget the failure is *clean*: ``UncorrectableBlockError`` at
  the block level, ``MissingEmblemError`` at the group level — never a
  silently corrupted payload.
"""

import numpy as np
import pytest

from repro import ArchiveConfig, TEST_PROFILE, open_archive, open_restore
from repro.errors import (
    ECCError,
    MissingEmblemError,
    UncorrectableBlockError,
)
from repro.media.channel import MediaChannel
from repro.media.distortions import (
    AGED_MICROFILM,
    CINEMA_SCAN,
    OFFICE_SCAN,
    add_dust,
    add_scratches,
)
from repro.media.paper import PaperChannel
from repro.mocoder.emblem import Emblem
from repro.mocoder.outer_code import GROUP_DATA, GROUP_PARITY


def random_payload(size: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, size=size, dtype=np.uint8))


@pytest.fixture(scope="module")
def payload() -> bytes:
    # 4200 B under STORE -> 22 data emblems -> two outer-code groups.
    return random_payload(4200, seed=2021)


@pytest.fixture(scope="module")
def archive(payload):
    with open_archive(ArchiveConfig(media="test", codec="store")) as writer:
        writer.write(payload)
    return writer.archive


def damaged_copy(archive, replace: dict[int, np.ndarray]):
    """A shallow archive copy with some data emblem images replaced."""
    from repro import MicrOlonysArchive

    images = list(archive.data_emblem_images)
    for index, image in replace.items():
        images[index] = image
    return MicrOlonysArchive(
        manifest=archive.manifest,
        data_emblem_images=images,
        system_emblem_images=archive.system_emblem_images,
        bootstrap_text=archive.bootstrap_text,
    )


def blank_like(image: np.ndarray) -> np.ndarray:
    return np.full_like(image, 255)


# --------------------------------------------------------------------------- #
# Media-channel matrix: write + scan through each analog medium
# --------------------------------------------------------------------------- #
class TestMediaChannelMatrix:
    """The emblems survive each medium's write/scan degradation chain.

    The small test emblems hold a single RS block and enjoy none of the
    interleaving protection of the full-size profiles, so each channel runs
    a proportionally scaled distortion (the full-severity sweeps live in
    the robustness benchmark).  The film channels keep their semantics —
    bitonal recording, scanner upsampling, the real distortion profiles —
    but on emblem-sized frames: the real 21-35 MPix film frames cost tens
    of seconds each and live in the film benchmarks instead.
    """

    CHANNELS = {
        "paper": lambda: PaperChannel(
            dpi=72, distortion=OFFICE_SCAN.scaled(0.25, name="office-small")
        ),
        "microfilm": lambda: MediaChannel(
            name="miniature microfilm",
            frame_shape=(480, 400),
            scan_scale=1.28,
            write_bitonal=True,
            distortion=AGED_MICROFILM.scaled(0.25, name="microfilm-small"),
        ),
        "cinema": lambda: MediaChannel(
            name="miniature cinema film",
            frame_shape=(480, 400),
            scan_scale=2.0,
            write_bitonal=False,
            distortion=CINEMA_SCAN.scaled(0.25, name="cinema-small"),
        ),
    }

    @pytest.mark.parametrize("channel_name", sorted(CHANNELS))
    @pytest.mark.parametrize("seed", [1, 17])
    def test_roundtrip_through_channel(self, archive, payload, channel_name, seed):
        channel = self.CHANNELS[channel_name]()
        scans = channel.roundtrip(archive.data_emblem_images, seed=seed)
        system_scans = channel.roundtrip(archive.system_emblem_images, seed=seed)
        result = open_restore(archive).read_from_scans(
            scans,
            system_images=system_scans,
            payload_kind="binary",
            manifest=archive.manifest,
        )
        assert result.payload == payload
        assert result.data_report.emblems_failed == 0


# --------------------------------------------------------------------------- #
# Inner-code budget: symbol errors within one emblem
# --------------------------------------------------------------------------- #
class TestInnerCodeBudget:
    def test_dust_within_budget_is_corrected(self, archive, payload):
        rng = np.random.default_rng(5)
        dusted = add_dust(archive.data_emblem_images[2], spots=4, max_radius=2, rng=rng)
        result = open_restore(damaged_copy(archive, {2: dusted})).read()
        assert result.payload == payload

    def test_scratch_within_budget_is_corrected(self, archive, payload):
        rng = np.random.default_rng(12)
        scratched = add_scratches(
            archive.data_emblem_images[4], scratches=1, max_width=1, rng=rng
        )
        result = open_restore(damaged_copy(archive, {4: scratched})).read()
        assert result.payload == payload

    def test_beyond_sixteen_errors_raises_uncorrectable(self, archive):
        """Trashing the data area breaches RS(255,223) cleanly."""
        image = archive.data_emblem_images[0].copy()
        rng = np.random.default_rng(3)
        height, width = image.shape
        # Scramble a large patch in the middle of the data area: far more
        # than 16 damaged symbols in the emblem's single RS block.
        y0, x0 = height // 2, width // 4
        image[y0:y0 + 80, x0:x0 + 160] = rng.integers(
            0, 256, size=(80, 160), dtype=np.uint8
        ) // 128 * 255
        with pytest.raises(UncorrectableBlockError):
            Emblem.from_image(TEST_PROFILE.spec, image)

    def test_archive_survives_one_uncorrectable_emblem(self, archive, payload):
        """An emblem lost to inner-code overflow is an outer-code erasure."""
        image = archive.data_emblem_images[0].copy()
        rng = np.random.default_rng(3)
        height, width = image.shape
        image[height // 2:height // 2 + 80, width // 4:width // 4 + 160] = (
            rng.integers(0, 256, size=(80, 160), dtype=np.uint8) // 128 * 255
        )
        result = open_restore(damaged_copy(archive, {0: image})).read()
        assert result.payload == payload
        assert result.data_report.emblems_failed == 1
        assert result.data_report.groups_reconstructed >= 1


# --------------------------------------------------------------------------- #
# Outer-code budget: whole-emblem erasures
# --------------------------------------------------------------------------- #
class TestOuterCodeBudget:
    def test_three_erasures_per_group_recover(self, archive, payload):
        """Exactly GROUP_PARITY erasures in one group is the design limit."""
        erased = {
            index: blank_like(archive.data_emblem_images[index])
            for index in range(GROUP_PARITY)
        }
        result = open_restore(damaged_copy(archive, erased)).read()
        assert result.payload == payload
        assert result.data_report.groups_reconstructed >= 1

    def test_erasures_across_groups_recover(self, archive, payload):
        """Each group tolerates its own budget independently."""
        group_size = GROUP_DATA + GROUP_PARITY
        erased_indices = [0, 1, 2, group_size, group_size + 1, group_size + 2]
        erased = {
            index: blank_like(archive.data_emblem_images[index])
            for index in erased_indices
        }
        result = open_restore(damaged_copy(archive, erased)).read()
        assert result.payload == payload
        assert result.data_report.groups_reconstructed == 2

    def test_four_erasures_in_one_group_fail_cleanly(self, archive):
        erased = {
            index: blank_like(archive.data_emblem_images[index])
            for index in range(GROUP_PARITY + 1)
        }
        with pytest.raises(MissingEmblemError):
            open_restore(damaged_copy(archive, erased)).read()

    def test_no_outer_code_means_no_erasure_budget(self, payload):
        with open_archive(
            ArchiveConfig(media="test", codec="store", outer_code=False)
        ) as writer:
            writer.write(payload)
        bare = writer.archive
        erased = {0: blank_like(bare.data_emblem_images[0])}
        with pytest.raises(ECCError):
            open_restore(damaged_copy(bare, erased)).read()


# --------------------------------------------------------------------------- #
# Segmented archives: damage stays contained in its segment
# --------------------------------------------------------------------------- #
class TestSegmentedFaults:
    @pytest.fixture(scope="class")
    def segmented(self, build_archive):
        payload = random_payload(9_000, seed=404)
        archive = build_archive(
            ArchiveConfig(media="test", codec="store", segment_size=3_000), payload
        )
        assert len(archive.manifest.segments) == 3
        return archive, payload

    def test_corrupted_segment_restores_via_per_segment_decode(self, segmented):
        archive, payload = segmented
        middle = archive.manifest.segments[1]
        erased = {
            middle.emblem_start: blank_like(
                archive.data_emblem_images[middle.emblem_start]
            )
        }
        result = open_restore(damaged_copy(archive, erased)).read()
        assert result.payload == payload
        assert result.data_report.groups_reconstructed == 1

    def test_every_segment_tolerates_its_own_budget(self, segmented):
        archive, payload = segmented
        erased = {}
        for record in archive.manifest.segments:
            for offset in range(GROUP_PARITY):
                index = record.emblem_start + offset
                erased[index] = blank_like(archive.data_emblem_images[index])
        result = open_restore(damaged_copy(archive, erased)).read()
        assert result.payload == payload
        assert result.data_report.groups_reconstructed == len(archive.manifest.segments)

    def test_one_segment_beyond_budget_fails_cleanly(self, segmented):
        archive, _ = segmented
        record = archive.manifest.segments[2]
        erased = {
            record.emblem_start + offset: blank_like(
                archive.data_emblem_images[record.emblem_start + offset]
            )
            for offset in range(GROUP_PARITY + 1)
        }
        with pytest.raises(MissingEmblemError):
            open_restore(damaged_copy(archive, erased)).read()

    def test_segmented_channel_roundtrip(self, segmented):
        archive, payload = segmented
        result = open_restore(archive).read_via_channel(seed=8)
        assert result.payload == payload
