"""Archival paper as a medium (the paper's first end-to-end experiment).

The experiment in §4 prints emblems on A4 paper at 600 dpi with a Canon
ImageRunner laser printer and scans them back on the same device.  An A4 page
at 600 dpi is 4960 x 7016 pixels; replacing plain A4 with ISO 9706 archival
paper changes nothing in the digital pipeline, so the channel models the
print-then-scan path and the page-count arithmetic.
"""

from __future__ import annotations

from repro.media.channel import MediaChannel
from repro.media.distortions import OFFICE_SCAN, DistortionProfile

#: A4 paper size in millimetres.
A4_WIDTH_MM = 210.0
A4_HEIGHT_MM = 297.0

#: Print resolution used in the paper's experiment.
DEFAULT_DPI = 600


def a4_pixels(dpi: int = DEFAULT_DPI) -> tuple[int, int]:
    """(height, width) of an A4 page in pixels at the given resolution."""
    width = int(round(A4_WIDTH_MM / 25.4 * dpi))
    height = int(round(A4_HEIGHT_MM / 25.4 * dpi))
    return height, width


class PaperChannel(MediaChannel):
    """Laser-printed A4 paper scanned on an office scanner."""

    def __init__(
        self,
        dpi: int = DEFAULT_DPI,
        distortion: DistortionProfile | None = None,
    ):
        self.dpi = dpi
        super().__init__(
            name=f"A4 paper @ {dpi} dpi",
            frame_shape=a4_pixels(dpi),
            scan_scale=1.0,
            write_bitonal=False,
            distortion=distortion if distortion is not None else OFFICE_SCAN,
        )
