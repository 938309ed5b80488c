"""The archived artefact: emblem images, system emblems and the Bootstrap.

A :class:`MicrOlonysArchive` is exactly what gets written to the analog
medium (step 7 of Figure 2a): the data emblems, the system emblems holding
the DBCoder decoder, and the Bootstrap text.  :mod:`repro.store` persists
it (``open_archive(target=...)``) and loads it back
(:func:`repro.store.load_archive`).

The :class:`ArchiveManifest` layout version and the upgrade of older
layouts (:func:`upgrade_manifest_fields`) live here, next to the manifest
they parse; :mod:`repro.store.manifest` owns the record names.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.errors import StoreError

#: Current on-media manifest layout version.
MANIFEST_FORMAT_VERSION = 4

#: Version the v1/v2 deprecation shim upgrades *to*.  Deliberately 3, not 4:
#: the upgraded field set is exactly the v3 layout, and keeping the number
#: stable keeps :func:`repro.store.manifest_digest` of shimmed manifests
#: identical to what pre-v4 libraries computed, so cross-version append
#: lineages still verify.
_SHIM_TARGET_VERSION = 3

#: Keys every manifest version must carry to be loadable at all.
_REQUIRED_KEYS = (
    "profile_name",
    "dbcoder_profile",
    "archive_bytes",
    "archive_crc32",
    "data_emblem_count",
    "system_emblem_count",
)


def manifest_version(fields: dict[str, object]) -> int:
    """The layout version of a parsed manifest object (v1 has no marker)."""
    version = fields.get("format_version", 1)
    if not isinstance(version, int) or version < 1:
        raise StoreError(f"manifest carries a bad format_version: {version!r}")
    return version


def upgrade_manifest_fields(fields: dict[str, object]) -> dict[str, object]:
    """Normalise a parsed manifest object to the current field set.

    v1 and v2 objects upgrade in place behind a :class:`DeprecationWarning`:
    ``format_version`` becomes 3, v1's ``config`` stays ``None`` and its
    segment records keep ``sha256=None`` (their dataclass default, which
    downgrades partial-restore verification to the CRC-32 check), and both
    gain ``generation=0`` / ``parent=None`` — a pre-append archive is its
    own generation 0.  v3 objects pass through silently (v4 only *adds* the
    optional ``volumes`` shard map, whose dataclass default covers them).
    Objects written by a *newer* layout raise
    :class:`~repro.errors.StoreError` instead of being misread.

    Raises
    ------
    StoreError
        On a missing required key or an unsupported ``format_version``.
    """
    if not isinstance(fields, dict):
        raise StoreError(f"manifest must be a JSON object, got {type(fields).__name__}")
    missing = [key for key in _REQUIRED_KEYS if key not in fields]
    if missing:
        raise StoreError(f"manifest is missing required fields: {', '.join(missing)}")
    version = manifest_version(fields)
    if version > MANIFEST_FORMAT_VERSION:
        raise StoreError(
            f"manifest format_version {version} is newer than this library "
            f"understands (max {MANIFEST_FORMAT_VERSION}); upgrade the library "
            "to read this archive"
        )
    fields = dict(fields)
    if version < _SHIM_TARGET_VERSION:
        warnings.warn(
            f"loading a v{version} archive manifest through the compatibility "
            "shim; re-archive (or re-save) to upgrade it to the appendable "
            "v3+ layout",
            DeprecationWarning,
            stacklevel=3,
        )
        fields["format_version"] = _SHIM_TARGET_VERSION
        fields.setdefault("config", None)
        fields.setdefault("generation", 0)
        fields.setdefault("parent", None)
    return fields


@dataclass(frozen=True)
class SegmentRecord:
    """Per-segment metadata: one entry per pipeline segment of the payload.

    Each segment is an *independent* unit of restoration: it owns a
    contiguous byte range of the original payload, a CRC-32 over exactly
    those bytes, and a contiguous run of data emblem frames
    (``emblem_start .. emblem_start + emblem_count - 1`` in recording order)
    that decode to the segment's DBCoder container without touching any
    other segment.  Restoration can therefore decode segments in any order,
    in parallel, and re-decode just the damaged one.
    """

    index: int
    offset: int
    length: int
    crc32: int
    emblem_start: int
    emblem_count: int
    container_bytes: int
    #: Hex SHA-256 of the segment's payload bytes (manifest v2); ``None`` on
    #: records loaded from a v1 manifest, where partial restore falls back to
    #: the CRC-32 check alone.
    sha256: str | None = None

    @property
    def end(self) -> int:
        """One past the last payload byte this segment covers."""
        return self.offset + self.length

    def to_dict(self) -> dict[str, object]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, fields: dict[str, object]) -> "SegmentRecord":
        return cls(**fields)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ArchiveManifest:
    """Description of an archive, stored *on the medium* alongside the images.

    Manifest **v4** is versioned and self-describing: it records its
    ``format_version``, embeds the originating
    :class:`~repro.api.ArchiveConfig` as plain data (``config``), and its
    segment records carry per-segment SHA-256 content hashes next to the
    frame offsets/counts and logical byte ranges — everything a cold reader
    needs to locate, decode and verify one segment without touching the
    rest.  It additionally carries the incremental-append lineage:
    ``generation`` counts the append sessions that produced it and
    ``parent`` pins the SHA-256 digest of the manifest it supersedes; the
    segment list is always *cumulative* (monotonically renumbered across
    every generation), so the newest valid manifest fully describes the
    archive.  v4 adds the optional ``volumes`` shard map describing how the
    frames are striped across a K data + M parity volume set (see
    :mod:`repro.store.volumes`); single-volume archives omit it.  The v1
    layout (no ``format_version`` key, no hashes, no embedded config) and
    v2 layout (no lineage) still load through the
    :func:`upgrade_manifest_fields` deprecation shim; v3 (no ``volumes``)
    loads silently.
    """

    profile_name: str
    dbcoder_profile: str
    archive_bytes: int
    archive_crc32: int
    data_emblem_count: int
    system_emblem_count: int
    payload_kind: str = "sql"
    #: Segment size the pipeline used; ``None`` for a one-shot (single
    #: segment spanning the whole payload) archive.
    segment_size: int | None = None
    #: Per-segment metadata, in payload order.  Pre-pipeline manifests load
    #: with an empty tuple and restore as one segment spanning the payload.
    segments: tuple[SegmentRecord, ...] = ()
    #: On-media layout version; see :data:`MANIFEST_FORMAT_VERSION`.
    format_version: int = 4
    #: The :meth:`repro.api.ArchiveConfig.to_dict` of the writing session,
    #: when the archive was written through the facade; ``None`` otherwise.
    config: "dict[str, object] | None" = None
    #: Incremental-append lineage: how many append sessions preceded this
    #: manifest (0 for a fresh archive) ...
    generation: int = 0
    #: ... and the SHA-256 hex digest of the superseded (parent) manifest's
    #: canonical JSON, ``None`` for generation 0.
    parent: str | None = None
    #: Sharded volume-set map (v4): stripe geometry plus per-shard frame
    #: runs, byte lengths and SHA-256 hashes, written by
    #: :mod:`repro.store.volumes`; ``None`` for single-volume archives.
    volumes: "dict[str, object] | None" = None

    def to_json(self) -> str:
        """Serialise the manifest as JSON text (the current layout).

        ``volumes`` is omitted entirely when absent, so single-volume
        manifests — and v3 manifests round-tripped through the loader —
        serialise (and therefore digest, for the append lineage) exactly as
        pre-v4 libraries produced them.
        """
        fields = {
            key: value for key, value in self.__dict__.items() if key != "segments"
        }
        if fields.get("volumes") is None:
            del fields["volumes"]
        fields["segments"] = [segment.to_dict() for segment in self.segments]
        return json.dumps(fields, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, fields: dict[str, object]) -> "ArchiveManifest":
        """Build a manifest from a parsed JSON object, any known version.

        v1 objects (no ``format_version``) upgrade through the
        :func:`upgrade_manifest_fields` deprecation shim; objects from a
        *newer* format raise :class:`~repro.errors.StoreError`.
        """
        fields = upgrade_manifest_fields(fields)
        segments = tuple(
            SegmentRecord.from_dict(segment) for segment in fields.pop("segments", [])
        )
        return cls(segments=segments, **fields)

    @classmethod
    def from_json(cls, text: str) -> "ArchiveManifest":
        """Parse a manifest from JSON text (v1 and segment-free included)."""
        return cls.from_dict(json.loads(text))


@dataclass
class MicrOlonysArchive:
    """Everything that goes onto the analog medium for one database."""

    manifest: ArchiveManifest
    data_emblem_images: list[np.ndarray]
    system_emblem_images: list[np.ndarray]
    bootstrap_text: str
    notes: list[str] = field(default_factory=list)

    @property
    def total_emblem_count(self) -> int:
        """Total number of emblem frames on the medium."""
        return len(self.data_emblem_images) + len(self.system_emblem_images)
