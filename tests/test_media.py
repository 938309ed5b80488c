"""Tests for the analog media channels, distortions and image I/O."""

import numpy as np
import pytest

from repro.errors import MediaCapacityError, MediaError
from repro.media import (
    CinemaFilmChannel,
    DistortionProfile,
    DNAChannel,
    MicrofilmChannel,
    PaperChannel,
    read_pgm,
    write_pgm,
)
from repro.media.distortions import (
    OFFICE_SCAN,
    add_dust,
    apply_lens_curvature,
    apply_scanner_jitter,
    to_bitonal,
)
from repro.media.film import MICROFILM_REEL, ReelModel
from repro.media.image import netpbm_from_bytes, pbm_bytes
from repro.media.paper import a4_pixels
from repro.util.raster import bilevel_tones


class TestImageIO:
    def test_pgm_roundtrip(self, tmp_path, rng):
        image = rng.integers(0, 256, size=(37, 53), dtype=np.uint8)
        path = tmp_path / "frame.pgm"
        write_pgm(path, image)
        assert np.array_equal(read_pgm(path), image)

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6 1 1 255 \x00\x00\x00")
        with pytest.raises(MediaError):
            read_pgm(path)

    @pytest.mark.parametrize("data,message", [
        (b"P5\nab 2\n255\n" + b"\x00" * 8, "header token"),
        (b"P5\n-3 2\n255\n" + b"\x00" * 10, "header token"),
        (b"P5\n+4 2\n255\n" + b"\x00" * 8, "header token"),
        (b"P5\n\xd9\xa3 2\n255\n" + b"\x00" * 8, "header token"),
        (b"P5\n4 2\n", "header token"),
        (b"P5\n0 2\n255\n", "is empty"),
        (b"P5\n4 0\n255\n", "is empty"),
        (b"P5\n4 2\n65535\n" + b"\x00" * 16, "maxval"),
        (b"P5\n4 2\n255\n" + b"\x00" * 7, "needs 8"),
        (b"P5\n4 2\n255", "needs 8"),
        (b"P5\n99999999999 99999999999\n255\n\x00", "needs"),
        (b"P4\nab 2\n" + b"\x00" * 2, "PBM header token"),
        (b"P4\n-3 2\n" + b"\x00" * 2, "PBM header token"),
        (b"P4\n4", "PBM header token"),
        (b"P4\n0 2\n", "is empty"),
        (b"P4\n4 0\n", "is empty"),
        (b"P4\n9 2\n" + b"\x00" * 3, "needs 4"),
        (b"P4\n4 2", "needs 2"),
        (b"P4\n99999999999 99999999999\n\x00", "needs"),
        (b"P6\n1 1\n255\n\x00\x00\x00", "not a binary PBM"),
    ], ids=["non-digit", "negative", "signed", "non-ascii-digit", "truncated-header",
            "zero-width", "zero-height", "16-bit", "short-raster", "no-raster",
            "huge-size", "pbm-non-digit", "pbm-negative", "pbm-truncated-header",
            "pbm-zero-width", "pbm-zero-height", "pbm-short-raster", "pbm-no-raster",
            "pbm-huge-size", "other-magic"])
    def test_hostile_pgm_frames_raise_media_error(self, data, message):
        """A frame record read back from the medium is validated before use:
        anything but an 8-bit PGM or a 1-bit PBM raster of at least 1x1
        pixels that is all there raises MediaError naming the record."""
        with pytest.raises(MediaError, match=f"frame-7.*{message}"):
            netpbm_from_bytes(data, "frame-7")

    def test_pbm_roundtrip_packs_rows_msb_first_with_zero_padding(self, rng):
        for width in [*range(1, 18), 3280]:
            height = 2 if width > 17 else 5
            image = rng.integers(0, 2, size=(height, width), dtype=np.uint8) * 255
            data = pbm_bytes(image)
            header = f"P4\n{width} {height}\n".encode("ascii")
            assert data.startswith(header)
            rows = np.frombuffer(data, np.uint8, offset=len(header)).reshape(height, -1)
            assert rows.shape[1] == (width + 7) // 8
            bits = np.unpackbits(rows, axis=1)
            assert np.array_equal(bits[:, :width], (image == 0).astype(np.uint8))  # 1 = black
            assert not bits[:, width:].any(), width  # padding bits are zero
            restored = netpbm_from_bytes(data)
            assert restored.dtype == np.uint8 and restored.flags.writeable
            assert np.array_equal(restored, image)
            padded = rows.copy()
            padded[:, -1] |= (1 << (-width % 8)) - 1  # set every padding bit
            assert np.array_equal(netpbm_from_bytes(header + padded.tobytes()), image)

    def test_bilevel_tones_is_exact_for_every_pixel_value(self):
        for value in range(256):
            tone = value in (0, 255)
            assert bilevel_tones(np.array([[value]], np.uint8)) == (1 if tone else 0)
            both = np.array([[0, value], [255, 0]], np.uint8)
            assert bilevel_tones(both) == (2 if tone else 0), value
            assert bilevel_tones(both.T) == bilevel_tones(both)  # a strided view
        assert bilevel_tones(np.zeros((0, 3), np.uint8)) == 0

    def test_pbm_header_may_carry_comments(self):
        image = netpbm_from_bytes(b"P4 # made by hand\n3 # width\n2\n\xa0\x40")
        assert image.tolist() == [[0, 255, 0], [255, 0, 255]]

    @pytest.mark.parametrize("image", [
        np.array([[0, 255], [254, 0]], dtype=np.uint8),
        np.array([[0, 1]], dtype=np.uint8),
        np.array([[0, 255]], dtype=np.int64),
        np.zeros((2, 2, 2), dtype=np.uint8),
        np.zeros((0, 4), dtype=np.uint8),
    ], ids=["gray-254", "gray-1", "int64", "3-d", "empty"])
    def test_pbm_refuses_anything_but_a_bilevel_uint8_raster(self, image):
        with pytest.raises(MediaError, match="frame-9"):
            pbm_bytes(image, "frame-9")


class TestDistortions:
    def make_image(self):
        return np.full((200, 200), 255, dtype=np.uint8)

    def test_dust_adds_spots(self, rng):
        image = add_dust(self.make_image(), spots=20, max_radius=3, rng=rng)
        assert (image == 0).sum() > 0

    def test_lens_curvature_moves_edge_pixels(self):
        image = self.make_image()
        image[:, 30] = 0                        # a straight vertical line off-centre
        warped = apply_lens_curvature(image, 0.05)
        assert not np.array_equal(warped, image)

    def test_jitter_shifts_rows(self, rng):
        image = self.make_image()
        image[:, 100] = 0
        shifted = apply_scanner_jitter(image, amplitude=3.0, rng=rng)
        assert not np.array_equal(shifted, image)

    def test_bitonal_only_two_levels(self, rng):
        image = rng.integers(0, 256, size=(50, 50), dtype=np.uint8)
        assert set(np.unique(to_bitonal(image))) <= {0, 255}

    def test_zero_severity_profile_is_identity(self, rng):
        image = rng.integers(0, 256, size=(60, 60), dtype=np.uint8)
        assert np.array_equal(DistortionProfile().apply(image), image)

    def test_scaled_profile(self):
        scaled = OFFICE_SCAN.scaled(0.5)
        assert scaled.noise_sigma == pytest.approx(OFFICE_SCAN.noise_sigma * 0.5)
        assert scaled.dust_spots == round(OFFICE_SCAN.dust_spots * 0.5)

    def test_profile_is_deterministic_for_a_seed(self, rng):
        image = np.full((80, 80), 255, dtype=np.uint8)
        profile = DistortionProfile(noise_sigma=5.0, dust_spots=5, seed=9)
        assert np.array_equal(profile.apply(image), profile.apply(image))


class TestChannels:
    def test_paper_frame_is_a4_at_600dpi(self):
        channel = PaperChannel()
        assert channel.frame_shape == a4_pixels(600)
        height, width = channel.frame_shape
        assert abs(height - 7016) <= 1 and abs(width - 4960) <= 1

    def test_record_centres_and_scan_returns_frames(self, rng):
        channel = PaperChannel(dpi=72, distortion=DistortionProfile())
        emblem = rng.integers(0, 256, size=(100, 100), dtype=np.uint8)
        frames = channel.record([emblem])
        assert frames[0].shape == a4_pixels(72)
        outcome = channel.scan(frames)
        assert len(outcome.images) == 1

    def test_oversized_emblem_rejected(self):
        channel = PaperChannel(dpi=72)
        with pytest.raises(MediaCapacityError):
            channel.record([np.zeros((10000, 10000), dtype=np.uint8)])

    def test_microfilm_is_bitonal_and_upscaled(self):
        channel = MicrofilmChannel(distortion=DistortionProfile(bitonal_output=True))
        frames = channel.record([np.full((100, 100), 128, dtype=np.uint8)])
        assert set(np.unique(frames[0])) <= {0, 255}
        scans = channel.scan(frames).images
        assert scans[0].shape[0] > frames[0].shape[0]

    def test_cinema_scans_at_twice_the_recording_resolution(self):
        channel = CinemaFilmChannel(distortion=DistortionProfile())
        frames = channel.record([np.zeros((100, 100), dtype=np.uint8)])
        scan = channel.scan(frames).images[0]
        assert scan.shape == (frames[0].shape[0] * 2, frames[0].shape[1] * 2)

    def test_reel_capacity_model_matches_paper_order_of_magnitude(self):
        """§4/§5: 1.3 GB per 66 m reel; ~800 reels per terabyte."""
        dense_frame_payload = 124_406     # dense microfilm profile payload
        capacity = MICROFILM_REEL.reel_capacity_bytes(dense_frame_payload)
        assert 0.8e9 < capacity < 1.5e9
        reels_per_tb = MICROFILM_REEL.reels_for(10**12, dense_frame_payload)
        assert 600 < reels_per_tb < 1300

    def test_reel_model_rejects_zero_payload(self):
        with pytest.raises(ValueError):
            ReelModel(10, 10).reels_for(100, 0)


class TestDNAChannel:
    def test_roundtrip_with_noise(self):
        channel = DNAChannel(coverage=10, dropout_rate=0.05, substitution_rate=0.002, seed=11)
        payload = bytes(range(256)) * 3
        assert channel.roundtrip(payload, seed=11) == payload

    def test_total_dropout_detected(self):
        channel = DNAChannel(coverage=1, dropout_rate=1.0, seed=1)
        with pytest.raises(MediaError):
            channel.roundtrip(b"hello world")

    def test_density_claim_recorded(self):
        assert DNAChannel.THEORETICAL_DENSITY_BYTES_PER_MM3 == 1e18
