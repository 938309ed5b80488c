"""Manifest v4: the versioned, self-describing on-media archive description.

The paper's bootstrap layer insists that everything needed to restore an
archive lives *on the medium*; this module applies the same discipline to the
store layer.  A v4 manifest is a JSON object carrying:

* ``format_version`` — the layout version;
* ``config`` — the writing session's :class:`~repro.api.ArchiveConfig` as
  plain data, so a cold reader can rebuild the exact decode stack by name;
* per-segment records with logical byte ranges (``offset``/``length``),
  frame locations (``emblem_start``/``emblem_count``) and content hashes
  (``crc32`` + ``sha256``), so any byte range can be located, decoded and
  verified without decoding the rest of the archive;
* ``generation`` and ``parent`` — the incremental-append lineage.  Every
  append session writes a *new* manifest one generation up, carrying the
  SHA-256 digest of its parent manifest and the full, monotonically
  renumbered segment list (old segments plus the appended ones), under a
  generation-numbered record name.  The **newest valid manifest supersedes
  all older ones**: a reader only ever consults the superseding manifest,
  and a torn append simply falls back to the previous generation;
* ``volumes`` (v4, optional) — the sharded volume-set map when the archive
  is striped across K data + M parity volumes by
  :mod:`repro.store.volumes`: volume ids and roles, stripe geometry, and
  per-shard frame runs with byte lengths and SHA-256 content hashes, so a
  degraded reader can locate, check and rebuild any shard.  Single-volume
  archives simply omit the field.

The historical **v1** layout (no ``format_version``, ``config`` or segment
hashes) and **v2** layout (no ``generation``/``parent``) still load through
:func:`upgrade_manifest_fields`, which warns :class:`DeprecationWarning` and
fills the missing fields with their absent-value defaults.  **v3** (the
pre-volume layout) is a strict subset of v4 — it loads silently and keeps
its version number, so append lineages written by older libraries keep
digesting identically.

The version number and the upgrade live with
:class:`~repro.core.archive.ArchiveManifest` in :mod:`repro.core.archive`
and are re-exported here; this module owns the manifest record names.
"""

from __future__ import annotations

import re

from repro.core.archive import (
    MANIFEST_FORMAT_VERSION,
    manifest_version,
    upgrade_manifest_fields,
)
from repro.errors import StoreError

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "manifest_version",
    "manifest_record_name",
    "manifest_generation_of",
    "upgrade_manifest_fields",
]

#: Record/file name of a manifest: generation 0 keeps the historical
#: ``manifest.json`` so v1/v2 readers and tools still find it; appended
#: generations live under generation-numbered names next to it.
_MANIFEST_RECORD = re.compile(r"^manifest(?:_gen_(\d{4,}))?\.json$")


def manifest_record_name(generation: int) -> str:
    """The store record/file name holding the manifest of ``generation``."""
    if generation < 0:
        raise StoreError(f"manifest generation must be >= 0, got {generation}")
    if generation == 0:
        return "manifest.json"
    return f"manifest_gen_{generation:04d}.json"


def manifest_generation_of(name: str) -> int | None:
    """The generation a manifest record name claims, or ``None`` for
    non-manifest records."""
    match = _MANIFEST_RECORD.match(name)
    if match is None:
        return None
    return int(match.group(1)) if match.group(1) else 0
