"""The analog media channel abstraction.

A :class:`MediaChannel` models one write-then-read path through a physical
medium: emblems are *recorded* onto frames with the writer's geometry (laser
printer page, microfilm frame, cinema film frame), and *scanned* back as
degraded grayscale images.  The end-to-end archival pipeline only ever sees
the scanned images, exactly as a future user would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.errors import MediaCapacityError
from repro.media.distortions import DistortionProfile
from repro.util.rng import deterministic_rng
from repro.util.nptypes import GrayImage


@dataclass
class ScanOutcome:
    """The result of scanning recorded frames back from a medium."""

    images: list[GrayImage]
    channel_name: str
    frames_recorded: int


class MediaChannel:
    """Base class for simulated analog media.

    Subclasses that model their degradation elsewhere (the DNA channel's
    strand dropout/substitution) set ``supports_distortion = False`` so
    config-level distortion overrides can be rejected instead of silently
    ignored.

    Parameters
    ----------
    name:
        Human-readable channel name.
    frame_shape:
        (height, width) in pixels of one recorded frame.
    scan_scale:
        Linear scale factor between the recorded frame and the scanned image
        (cinema film is written at 2K and scanned at 4K, for example).
    write_bitonal:
        Whether the recorder quantises frames to pure black/white.
    distortion:
        Degradations applied by the medium + scanner.
    """

    #: Whether :meth:`scan` applies the ``distortion`` profile.
    supports_distortion = True

    def __init__(
        self,
        name: str,
        frame_shape: tuple[int, int],
        scan_scale: float = 1.0,
        write_bitonal: bool = False,
        distortion: DistortionProfile | None = None,
    ):
        self.name = name
        self.frame_shape = frame_shape
        self.scan_scale = scan_scale
        self.write_bitonal = write_bitonal
        self.distortion = distortion or DistortionProfile()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, images: list[GrayImage]) -> list[GrayImage]:
        """Place each emblem raster onto a frame of the medium.

        Raises
        ------
        MediaCapacityError
            If an emblem raster does not fit within one frame.
        """
        frames = []
        height, width = self.frame_shape
        for index, image in enumerate(images):
            image = np.asarray(image, dtype=np.uint8)
            if image.shape[0] > height or image.shape[1] > width:
                raise MediaCapacityError(
                    f"{self.name}: emblem {index} of {image.shape} pixels does not fit a "
                    f"{self.frame_shape} frame"
                )
            frame = np.full(self.frame_shape, 255, dtype=np.uint8)
            top = (height - image.shape[0]) // 2
            left = (width - image.shape[1]) // 2
            frame[top:top + image.shape[0], left:left + image.shape[1]] = image
            if self.write_bitonal:
                frame = np.where(frame < 128, 0, 255).astype(np.uint8)
            frames.append(frame)
        return frames

    # ------------------------------------------------------------------ #
    # Scanning
    # ------------------------------------------------------------------ #
    def _scan_one(self, frame: GrayImage, rng: np.random.Generator) -> GrayImage:
        """Read one frame back as a degraded scan, drawing noise from ``rng``."""
        scan = frame
        if self.scan_scale != 1.0:
            scan = ndimage.zoom(frame.astype(np.float64), self.scan_scale, order=1)
            scan = np.clip(scan, 0, 255).astype(np.uint8)
        return self.distortion.apply(scan, rng)

    def scan(self, frames: list[GrayImage], seed: int | None = None) -> ScanOutcome:
        """Read frames back as degraded scans (one RNG threaded across frames).

        This is the whole-archive path: every frame draws from the *same*
        generator, so the outcome depends on scanning all frames in one call,
        in order.  Streaming restores use :meth:`scan_frames`, whose
        per-frame seed derivation is batching- and order-independent.
        """
        rng = deterministic_rng(seed if seed is not None else self.distortion.seed)
        scans = [self._scan_one(frame, rng) for frame in frames]
        return ScanOutcome(images=scans, channel_name=self.name, frames_recorded=len(frames))

    def scan_frames(
        self,
        frames: list[GrayImage],
        seed: int | None = None,
        start_index: int = 0,
        lane: int = 0,
    ) -> ScanOutcome:
        """Read frames back with *per-frame* seeding (the streaming path).

        Frame ``i`` of the batch draws from an independent RNG stream derived
        from ``(seed, lane, start_index + i)``, so scanning an archive in any
        batching — whole, per segment, per frame, serially or in parallel —
        produces pixel-identical results for a given seed.  ``lane``
        separates the data and system emblem streams of one archive so they
        never share a frame's noise stream.
        """
        base = seed if seed is not None else self.distortion.seed
        scans = [
            self._scan_one(frame, deterministic_rng((base, lane, start_index + index)))
            for index, frame in enumerate(frames)
        ]
        return ScanOutcome(images=scans, channel_name=self.name, frames_recorded=len(frames))

    def roundtrip(self, images: list[GrayImage], seed: int | None = None) -> list[GrayImage]:
        """Record and immediately scan back (the common test/benchmark path)."""
        return self.scan(self.record(images), seed=seed).images
