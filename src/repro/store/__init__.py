"""``repro.store`` — the on-media layout layer behind the ``repro.api`` sessions.

Three parts, mirroring the tentpole it implements:

* :mod:`repro.store.manifest` — the versioned, self-describing **manifest
  v3** (format version, embedded :class:`~repro.api.ArchiveConfig`,
  per-segment content hashes, and the ``generation``/``parent`` append
  lineage) plus the v1/v2 deprecation shims;
* :mod:`repro.store.backends` — pluggable **storage backends**
  (``directory`` / ``container`` / ``memory``), registered in
  :data:`repro.registry.stores`, each exposing a streaming
  :class:`~repro.store.backends.ArchiveSink` (creatable fresh or reopened
  for append) and a random-access
  :class:`~repro.store.backends.ArchiveSource` that always serves the
  *superseding* (newest valid) manifest;
* :mod:`repro.store.target` — the **target-URI grammar** (``dir:`` /
  ``file:`` / ``mem:`` / ``http(s):`` / ``vol:``, or a filesystem path
  sniffed by shape), parsed by :func:`parse_target` into a typed
  :class:`TargetSpec`; the spelling is the only place a backend or a
  volume geometry is chosen, and every opener below routes through it;
* :mod:`repro.store.volumes` — **sharded volume sets**: frames striped
  across K data volumes plus M cross-shard Reed-Solomon parity volumes,
  surviving the loss of any M whole members;
* the helpers below — backend resolution (:func:`open_sink` /
  :func:`open_append_sink` / :func:`open_source`; a missing target fails
  inside the backend with a :class:`~repro.errors.StoreError`),
  :func:`manifest_digest` (the
  parent-pinning hash of the append lineage) and :func:`load_archive` for
  materialising a full :class:`~repro.core.archive.MicrOlonysArchive` from
  any source (reads never need it: they fetch each segment's frames from
  the source as they decode).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.core.archive import ArchiveManifest, MicrOlonysArchive
from repro.errors import StoreError
from repro.store.backends import (
    BOOTSTRAP_NAME,
    CONTAINER_MAGIC,
    MANIFEST_NAME,
    ArchiveSink,
    ArchiveSource,
    ContainerBackend,
    ContainerScan,
    DirectoryBackend,
    MemoryBackend,
    StorageBackend,
    frame_record_name,
    repair_container,
    scan_container,
)
from repro.store.manifest import (
    MANIFEST_FORMAT_VERSION,
    manifest_generation_of,
    manifest_record_name,
    upgrade_manifest_fields,
)
from repro.store.target import TargetSpec, VolumeSetSpec, parse_target
from repro.store.volumes import VolumeSetBackend

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "ArchiveSink",
    "ArchiveSource",
    "StorageBackend",
    "DirectoryBackend",
    "ContainerBackend",
    "MemoryBackend",
    "VolumeSetBackend",
    "ContainerScan",
    "TargetSpec",
    "VolumeSetSpec",
    "parse_target",
    "open_sink",
    "open_append_sink",
    "open_source",
    "frame_record_name",
    "load_archive",
    "manifest_digest",
    "manifest_generation_of",
    "manifest_record_name",
    "repair_container",
    "scan_container",
    "upgrade_manifest_fields",
]


def _local(target: "str | Path | TargetSpec") -> "tuple[StorageBackend, str]":
    """The backend and backend-native target of a *local* archive target."""
    from repro import registry  # lazy: registry imports this package

    spec = parse_target(target)
    if spec.store is None:
        raise StoreError(
            f"remote target {spec.target!r} cannot be opened as a local "
            "archive; use the repro.server client paths (e.g. `repro inspect`)"
        )
    return registry.get_store(spec.store), spec.target


def open_sink(target: "str | Path | TargetSpec") -> ArchiveSink:
    """Create a fresh archive at ``target`` with the backend its spelling names."""
    backend, native = _local(target)
    return backend.create(native)


def open_append_sink(target: "str | Path | TargetSpec") -> ArchiveSink:
    """Reopen an *existing* archive target for an incremental append session."""
    backend, native = _local(target)
    return backend.append(native)


def open_source(target: "str | Path | TargetSpec") -> ArchiveSource:
    """Open an existing archive target for reading."""
    backend, native = _local(target)
    return backend.open(native)


def manifest_digest(manifest: ArchiveManifest) -> str:
    """The SHA-256 hex digest pinning ``manifest`` in the append lineage.

    Hashed over the canonical (sorted-keys) JSON serialisation, so the
    digest survives storage round-trips and v1/v2 shim upgrades alike: a
    generation's ``parent`` field must equal this digest of the manifest it
    supersedes.
    """
    return hashlib.sha256(manifest.to_json().encode("utf-8")).hexdigest()


def load_archive(source: "ArchiveSource | str | Path | TargetSpec") -> MicrOlonysArchive:
    """Materialise a full in-memory archive artefact from any source.

    This reads *every* frame the superseding manifest describes into
    memory, for callers that want the rasters themselves; every restore,
    full or partial, fetches frames from the source segment by segment.
    """
    opened = not isinstance(source, ArchiveSource)
    if opened:
        source = open_source(source)
    try:
        manifest = source.manifest()
        return MicrOlonysArchive(
            manifest=manifest,
            data_emblem_images=source.get_frames("data", 0, manifest.data_emblem_count),
            system_emblem_images=source.get_frames(
                "system", 0, manifest.system_emblem_count
            ),
            bootstrap_text=source.get_text(BOOTSTRAP_NAME),
        )
    finally:
        if opened:
            source.close()
