"""Micr'Olonys: the media profiles and the archived artefact.

* :mod:`repro.core.profiles` — the media profiles (emblem geometry plus the
  simulated channel) of paper, microfilm, cinema film, DNA and the small
  test medium;
* :mod:`repro.core.archive` — what goes onto the medium: the
  :class:`ArchiveManifest` with its per-segment records, and the
  :class:`MicrOlonysArchive` artefact of data emblems, system emblems and
  Bootstrap text.

The two flows of Figure 2 run through :mod:`repro.api`:
:func:`~repro.api.open_archive` archives and
:class:`~repro.api.ArchiveReader` restores.
"""

from repro.core.profiles import (
    MediaProfile,
    PAPER_PROFILE,
    MICROFILM_PROFILE,
    MICROFILM_DENSE_PROFILE,
    CINEMA_PROFILE,
    TEST_PROFILE,
    DNA_PROFILE,
    get_profile,
    PROFILES,
)
from repro.core.archive import ArchiveManifest, MicrOlonysArchive, SegmentRecord

__all__ = [
    "SegmentRecord",
    "MediaProfile",
    "PAPER_PROFILE",
    "MICROFILM_PROFILE",
    "MICROFILM_DENSE_PROFILE",
    "CINEMA_PROFILE",
    "TEST_PROFILE",
    "DNA_PROFILE",
    "PROFILES",
    "get_profile",
    "ArchiveManifest",
    "MicrOlonysArchive",
]
