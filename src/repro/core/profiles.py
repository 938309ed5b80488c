"""Media profiles: emblem geometry matched to each analog medium.

Each profile pairs an :class:`~repro.mocoder.emblem.EmblemSpec` with the
channel whose frames it is sized for.  The paper profile is calibrated so
that a ~1.2 MB SQL archive lands on ~26 A4 pages (about 50 KB per page, §4);
the conservative microfilm profile reproduces the 102 KB-image-in-3-emblems
experiment, while the dense microfilm profile reproduces the 1.3 GB-per-66 m
reel figure.

:data:`PROFILES` is the media name table: a config's ``media`` and a
manifest's ``profile_name`` resolve through it (:func:`get_profile`), by
canonical name or by one of the :data:`MEDIA_ALIASES`, and
:func:`register_profile` adds a medium at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import RegistryError, resolve_name
from repro.media.channel import MediaChannel
from repro.media.distortions import OFFICE_SCAN
from repro.media.dna import DNAEmblemChannel
from repro.media.film import CinemaFilmChannel, MicrofilmChannel
from repro.media.paper import PaperChannel
from repro.mocoder.emblem import EmblemSpec


@dataclass(frozen=True)
class MediaProfile:
    """An emblem spec plus the channel it targets."""

    name: str
    description: str
    spec: EmblemSpec
    channel_factory: Callable[[], MediaChannel] = field(repr=False)

    def channel(self) -> MediaChannel:
        """Instantiate the media channel for this profile."""
        return self.channel_factory()


#: Emblems printed one-per-page on A4 paper at 600 dpi.
PAPER_PROFILE = MediaProfile(
    name="paper-a4-600dpi",
    description="A4 laser paper at 600 dpi, ~60 kB of payload per emblem",
    spec=EmblemSpec(
        name="paper-a4-600dpi",
        data_cells_x=1064,
        data_cells_y=1056,
        cell_pixels=4,
    ),
    channel_factory=PaperChannel,
)

#: Conservative microfilm emblems (reproduces 102 kB -> 3 emblems).
MICROFILM_PROFILE = MediaProfile(
    name="microfilm-16mm",
    description="16 mm microfilm frames, conservative cell size (~35 kB/frame)",
    spec=EmblemSpec(
        name="microfilm-16mm",
        data_cells_x=800,
        data_cells_y=800,
        cell_pixels=4,
    ),
    channel_factory=MicrofilmChannel,
)

#: Dense microfilm emblems (reproduces the 1.3 GB-per-reel capacity figure).
MICROFILM_DENSE_PROFILE = MediaProfile(
    name="microfilm-16mm-dense",
    description="16 mm microfilm frames at 3 px/cell (~125 kB/frame)",
    spec=EmblemSpec(
        name="microfilm-16mm-dense",
        data_cells_x=1272,
        data_cells_y=1792,
        cell_pixels=3,
    ),
    channel_factory=MicrofilmChannel,
)

#: Full-aperture 2K cinema film frames.
CINEMA_PROFILE = MediaProfile(
    name="cinema-35mm-2k",
    description="35 mm cinema film, 2K full-aperture frames scanned at 4K",
    spec=EmblemSpec(
        name="cinema-35mm-2k",
        data_cells_x=1000,
        data_cells_y=752,
        cell_pixels=2,
    ),
    channel_factory=CinemaFilmChannel,
)

#: Small, fast emblems for tests and examples.  A small emblem holds a single
#: Reed-Solomon block, so it enjoys none of the interleaving protection of the
#: full-size profiles; its channel therefore uses a proportionally gentler
#: scanner model (the full-severity sweeps live in the robustness benchmark).
TEST_PROFILE = MediaProfile(
    name="test-small",
    description="small emblems (199-byte payload) for fast tests and examples",
    spec=EmblemSpec(
        name="test-small",
        data_cells_x=64,
        data_cells_y=64,
        cell_pixels=4,
    ),
    channel_factory=lambda: PaperChannel(
        dpi=72, distortion=OFFICE_SCAN.scaled(0.25, name="office-scan-small")
    ),
)

#: Small emblems carried on the synthetic-DNA channel sketch (§5 future
#: work): the "frame" is an addressed oligo strand pool rather than an
#: optical raster, so the channel is digital — see
#: :class:`~repro.media.dna.DNAEmblemChannel`.
DNA_PROFILE = MediaProfile(
    name="dna-oligo",
    description="synthetic-DNA oligo pool; emblems packed into addressed strands",
    spec=EmblemSpec(
        name="dna-oligo",
        data_cells_x=64,
        data_cells_y=64,
        cell_pixels=2,
    ),
    channel_factory=lambda: DNAEmblemChannel(
        frame_shape=(DNA_PROFILE.spec.pixels_y, DNA_PROFILE.spec.pixels_x)
    ),
)

#: The media name table: every profile, by its lower-case name.
PROFILES: dict[str, MediaProfile] = {
    profile.name: profile
    for profile in (
        PAPER_PROFILE,
        MICROFILM_PROFILE,
        MICROFILM_DENSE_PROFILE,
        CINEMA_PROFILE,
        TEST_PROFILE,
        DNA_PROFILE,
    )
}

#: Short names for the built-in media: alias -> :data:`PROFILES` key.
MEDIA_ALIASES = {
    "cinema": CINEMA_PROFILE.name,
    "dna": DNA_PROFILE.name,
    "microfilm": MICROFILM_PROFILE.name,
    "microfilm-dense": MICROFILM_DENSE_PROFILE.name,
    "paper": PAPER_PROFILE.name,
    "test": TEST_PROFILE.name,
}


def media_name(name: str) -> str:
    """The :data:`PROFILES` key ``name`` spells, in any case or as an alias.

    Raises :class:`~repro.errors.UnknownNameError` (a
    :class:`~repro.errors.ReproError` that still subclasses ``KeyError``)
    with a did-you-mean suggestion.
    """
    return resolve_name("media channel", name, sorted(PROFILES), MEDIA_ALIASES)


def get_profile(name: str) -> MediaProfile:
    """Look a media profile up by name or alias (see :func:`media_name`)."""
    return PROFILES[media_name(name)]


def register_profile(profile: MediaProfile) -> None:
    """Add ``profile`` to :data:`PROFILES`, so configs can name it.

    The medium exists in this process only: segment jobs carry the channel
    they need, so process-pool workers never look it up.

    Raises
    ------
    RegistryError
        If the name is empty, or already names a profile or an alias.
    """
    key = profile.name.strip().lower()
    if not key:
        raise RegistryError("media channel names must be non-empty")
    if key in PROFILES or key in MEDIA_ALIASES:
        raise RegistryError(f"media channel {profile.name!r} is already registered")
    PROFILES[key] = profile
