"""Analog media channels: paper, microfilm, cinema film (and a DNA sketch).

The paper's evaluation writes emblems to physical media with a laser printer,
a microfilm archive writer and a digital film recorder, and reads them back
with the corresponding scanners.  This package simulates those devices: each
:class:`~repro.media.channel.MediaChannel` records emblem rasters onto frames
with the device's real geometry and returns scanned images degraded by the
distortions the paper discusses (dust, scratches, fading, lens curvature,
unsteady scanner motion, re-thresholding).
"""

from repro.media.image import pgm_bytes, read_pgm, write_pgm
from repro.media.distortions import DistortionProfile
from repro.media.channel import MediaChannel, ScanOutcome
from repro.media.paper import PaperChannel
from repro.media.film import MicrofilmChannel, CinemaFilmChannel
from repro.media.dna import DNAChannel

__all__ = [
    "pgm_bytes",
    "read_pgm",
    "write_pgm",
    "DistortionProfile",
    "MediaChannel",
    "ScanOutcome",
    "PaperChannel",
    "MicrofilmChannel",
    "CinemaFilmChannel",
    "DNAChannel",
]
