"""Named registries: one string-keyed contract for every substrate.

The ULE paper's core argument is a *single self-describing contract* between
the writer and the future reader; this module is the in-process half of that
contract.  Every substrate of the library — compression codecs, media
channels, pipeline executors, scanner distortion models and storage
backends — is resolvable by a short string name, so an
:class:`repro.api.ArchiveConfig` (and therefore a saved ``config.json``)
fully describes a run without any Python object wiring.

Five registries ship populated with the built-ins:

* :data:`codecs` — the three DBCoder profiles (``store`` / ``portable`` /
  ``dense``), each a :class:`~repro.dbcoder.DBCoder`.  The table is fixed:
  an archive's decoder is always one this package ships.
* :data:`media` — :class:`~repro.core.profiles.MediaProfile` entries pairing
  an emblem geometry with its analog channel (paper, microfilm, cinema film,
  synthetic DNA), with short aliases (``paper``, ``microfilm``, ``cinema``,
  ``dna``, ``test``).  ``media.register`` adds a geometry at run time.
* :data:`executors` — factories for the pipeline's segment executors
  (``serial`` / ``thread`` / ``process`` / ``auto``).
* :data:`distortions` — named scanner/medium degradation profiles.
* :data:`stores` — :class:`~repro.store.backends.StorageBackend` archive
  layouts (``directory`` / ``container`` / ``memory`` / ``volumes``); a
  target URI's scheme picks one (:mod:`repro.store.target`).

Lookups are case-insensitive and failures raise
:class:`~repro.errors.UnknownNameError` with a did-you-mean suggestion.
"""

from __future__ import annotations

import difflib
import os
from typing import Callable, Generic, Iterator, TypeVar

from repro.errors import RegistryError, UnknownNameError
from repro.core.profiles import (
    CINEMA_PROFILE,
    DNA_PROFILE,
    MICROFILM_DENSE_PROFILE,
    MICROFILM_PROFILE,
    MediaProfile,
    PAPER_PROFILE,
    TEST_PROFILE,
)
from repro.dbcoder.dbcoder import DBCoder, Profile
from repro.media.distortions import (
    AGED_MICROFILM,
    CINEMA_SCAN,
    DistortionProfile,
    OFFICE_SCAN,
    PRISTINE,
)
from repro.pipeline.executors import (
    ProcessPoolSegmentExecutor,
    SegmentExecutor,
    SerialExecutor,
    ThreadPoolSegmentExecutor,
)
from repro.store.backends import (
    ContainerBackend,
    DirectoryBackend,
    MemoryBackend,
    StorageBackend,
)
from repro.store.volumes import VolumeSetBackend

ValueT = TypeVar("ValueT")

__all__ = [
    "Registry",
    "codecs",
    "media",
    "executors",
    "distortions",
    "stores",
    "get_codec",
    "get_media",
    "get_executor_factory",
    "get_distortion",
    "get_store",
]


class Registry(Generic[ValueT]):
    """A case-insensitive name -> value mapping with aliases and suggestions.

    ``register``/``unregister`` let users plug their own entries in at run
    time; ``get`` resolves aliases and raises
    :class:`~repro.errors.UnknownNameError` (with the closest valid name)
    instead of a bare ``KeyError``.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, ValueT] = {}
        self._aliases: dict[str, str] = {}

    @staticmethod
    def _normalize(name: str) -> str:
        return str(name).strip().lower()

    # ------------------------------------------------------------------ #
    def register(self, name: str, value: ValueT, *, overwrite: bool = False) -> ValueT:
        """Register ``value`` under ``name``.

        Raises
        ------
        RegistryError
            If the name (or an alias of it) is already taken and
            ``overwrite`` is false.
        """
        key = self._normalize(name)
        if not key:
            raise RegistryError(f"{self.kind} names must be non-empty")
        if not overwrite and (key in self._entries or key in self._aliases):
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._aliases.pop(key, None)
        self._entries[key] = value
        return value

    def alias(self, alias: str, target: str, *, overwrite: bool = False) -> None:
        """Make ``alias`` resolve to the already-registered ``target``.

        Raises
        ------
        RegistryError
            If the alias collides with a registered name, or with an
            existing alias and ``overwrite`` is false.
        """
        target_key = self.resolve_name(target)
        key = self._normalize(alias)
        if key in self._entries:
            raise RegistryError(f"{self.kind} {alias!r} is already a registered name")
        if key in self._aliases and not overwrite:
            raise RegistryError(
                f"{self.kind} alias {alias!r} already points at "
                f"{self._aliases[key]!r}; pass overwrite=True to repoint it"
            )
        self._aliases[key] = target_key

    def unregister(self, name: str) -> None:
        """Remove a name (and any aliases pointing at it) or an alias."""
        key = self._normalize(name)
        if key in self._entries:
            del self._entries[key]
            self._aliases = {
                alias: target for alias, target in self._aliases.items() if target != key
            }
            return
        if key in self._aliases:
            del self._aliases[key]
            return
        raise self._unknown(name)

    # ------------------------------------------------------------------ #
    def resolve_name(self, name: str) -> str:
        """Return the canonical registered name for ``name`` (alias-aware)."""
        key = self._normalize(name)
        key = self._aliases.get(key, key)
        if key not in self._entries:
            raise self._unknown(name)
        return key

    def get(self, name: str) -> ValueT:
        """Look ``name`` up, raising :class:`UnknownNameError` on a miss."""
        return self._entries[self.resolve_name(name)]

    def _unknown(self, name: str) -> UnknownNameError:
        valid = sorted(self._entries) + sorted(self._aliases)
        close = difflib.get_close_matches(self._normalize(name), valid, n=1, cutoff=0.5)
        return UnknownNameError(self.kind, name, valid, close[0] if close else None)

    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        """Canonical registered names, sorted (aliases excluded)."""
        return sorted(self._entries)

    def aliases(self) -> dict[str, str]:
        """Alias -> canonical-name mapping."""
        return dict(self._aliases)

    def items(self) -> Iterator[tuple[str, ValueT]]:
        for name in self.names():
            yield name, self._entries[name]

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve_name(name)
        except UnknownNameError:
            return False
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, names={self.names()})"


# --------------------------------------------------------------------------- #
# Codecs
# --------------------------------------------------------------------------- #
#: Compression codecs, by name: the three DBCoder profiles and nothing else,
#: so every archive decodes with a decoder this package ships.  Manifests
#: record a codec as its profile's name (``"PORTABLE"``), which resolves here
#: case-insensitively.
codecs: Registry[DBCoder] = Registry("codec")

for _codec_profile in Profile:
    codecs.register(_codec_profile.name, DBCoder(_codec_profile))


def get_codec(name: "str | Profile | DBCoder") -> DBCoder:
    """Resolve a codec from a registry name, a DBCoder profile, or itself."""
    if isinstance(name, DBCoder):
        return name
    if isinstance(name, Profile):
        return codecs.get(name.name)
    return codecs.get(name)


# --------------------------------------------------------------------------- #
# Media channels
# --------------------------------------------------------------------------- #
#: Media profiles (emblem geometry + analog channel), by name.
media: Registry[MediaProfile] = Registry("media channel")

for _profile in (
    PAPER_PROFILE,
    MICROFILM_PROFILE,
    MICROFILM_DENSE_PROFILE,
    CINEMA_PROFILE,
    TEST_PROFILE,
    DNA_PROFILE,
):
    media.register(_profile.name, _profile)

media.alias("paper", PAPER_PROFILE.name)
media.alias("microfilm", MICROFILM_PROFILE.name)
media.alias("microfilm-dense", MICROFILM_DENSE_PROFILE.name)
media.alias("cinema", CINEMA_PROFILE.name)
media.alias("test", TEST_PROFILE.name)
media.alias("dna", DNA_PROFILE.name)


def get_media(name: "str | MediaProfile") -> MediaProfile:
    """Resolve a media profile from a registry name (or pass one through)."""
    if isinstance(name, MediaProfile):
        return name
    return media.get(name)


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
def _make_auto_executor(workers: int | None = None) -> SegmentExecutor:
    """``auto``: a process pool when more than one CPU is visible, else serial."""
    if (os.cpu_count() or 1) > 1:
        return ProcessPoolSegmentExecutor(workers=workers)
    return SerialExecutor()


#: Executor factories (``workers -> SegmentExecutor``), by name.
executors: Registry[Callable[[int | None], SegmentExecutor]] = Registry("executor")

executors.register("serial", lambda workers=None: SerialExecutor())
executors.register("thread", lambda workers=None: ThreadPoolSegmentExecutor(workers=workers))
executors.register("process", lambda workers=None: ProcessPoolSegmentExecutor(workers=workers))
executors.register("auto", _make_auto_executor)


def get_executor_factory(name: str) -> Callable[[int | None], SegmentExecutor]:
    """Look an executor factory up by base name (no ``:workers`` suffix)."""
    return executors.get(name)


# --------------------------------------------------------------------------- #
# Distortion profiles
# --------------------------------------------------------------------------- #
#: Named scanner/medium degradation models, by name.
distortions: Registry[DistortionProfile] = Registry("distortion profile")

for _distortion in (PRISTINE, OFFICE_SCAN, AGED_MICROFILM, CINEMA_SCAN):
    distortions.register(_distortion.name, _distortion)


def get_distortion(name: "str | DistortionProfile") -> DistortionProfile:
    """Resolve a distortion profile from a registry name (or pass one through)."""
    if isinstance(name, DistortionProfile):
        return name
    return distortions.get(name)


# --------------------------------------------------------------------------- #
# Storage backends
# --------------------------------------------------------------------------- #
#: Archive storage backends (on-media layouts), by name.
stores: Registry[StorageBackend] = Registry("storage backend")

for _store in (DirectoryBackend(), ContainerBackend(), MemoryBackend(), VolumeSetBackend()):
    stores.register(_store.name, _store)


def get_store(name: "str | StorageBackend") -> StorageBackend:
    """Resolve a storage backend from a registry name (or pass one through)."""
    if isinstance(name, StorageBackend):
        return name
    return stores.get(name)
