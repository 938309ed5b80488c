"""``repro.store`` — the on-media layout layer behind the ``repro.api`` sessions.

Its parts:

* :mod:`repro.store.manifest` — the versioned, self-describing **manifest
  v3** (format version, embedded :class:`~repro.api.ArchiveConfig`,
  per-segment content hashes, and the ``generation``/``parent`` append
  lineage) plus the v1/v2 deprecation shims;
* :mod:`repro.store.backends` — the **storage backends**
  (``directory`` / ``container`` / ``memory``), each exposing a streaming
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
* the helpers below — :data:`BACKENDS`, every backend by the name
  :func:`parse_target` gives it; backend resolution (:func:`open_sink` /
  :func:`open_append_sink` / :func:`open_source`; a misspelt scheme fails
  inside :func:`parse_target` with a did-you-mean error, a missing target
  inside the backend with a :class:`~repro.errors.StoreError`); and
  :func:`manifest_digest`, the parent-pinning hash of the append lineage.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.core.archive import ArchiveManifest
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
    "manifest_digest",
    "manifest_generation_of",
    "manifest_record_name",
    "repair_container",
    "scan_container",
    "upgrade_manifest_fields",
]


#: Every storage backend, by the name :func:`parse_target` gives it
#: (:attr:`TargetSpec.store`).
BACKENDS: dict[str, StorageBackend] = {
    backend.name: backend
    for backend in (ContainerBackend(), DirectoryBackend(), MemoryBackend(), VolumeSetBackend())
}


def _local(target: "str | Path | TargetSpec") -> "tuple[StorageBackend, str]":
    """The backend and backend-native target of a *local* archive target."""
    spec = parse_target(target)
    if spec.store is None:
        raise StoreError(
            f"remote target {spec.target!r} cannot be opened as a local "
            "archive; use the repro.server client paths (e.g. `repro inspect`)"
        )
    return BACKENDS[spec.store], spec.target


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
