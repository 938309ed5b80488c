"""Pluggable storage backends: where an archive's frames and manifest live.

A backend owns the physical layout of one archive *target* and exposes two
session handles:

* :class:`ArchiveSink` — the write side: frames are appended one at a time
  (``put_frame``), text artefacts (Bootstrap, config) and the manifest are
  written alongside them, so a streaming writer never holds more than the
  executor window in memory.  :meth:`StorageBackend.append` reopens an
  existing target for an *incremental* write session: new records land after
  the existing ones and a new, higher-generation manifest supersedes the old
  one (which stays on the medium for lineage and fallback);
* :class:`ArchiveSource` — the read side: the manifest and any *single*
  frame are retrievable without reading the rest of the archive, which is
  what makes :meth:`repro.api.ArchiveReader.read_range` random-access.
  :meth:`ArchiveSource.manifest` always returns the **superseding**
  manifest — the newest generation that parses — falling back generation by
  generation when an append was torn.

Three backends ship registered in :data:`repro.registry.stores`:

``directory``
    One PGM file per frame plus ``manifest.json`` / ``bootstrap.txt`` — the
    historical directory layout, v1 manifests included, now written with a
    v3+ manifest (appends add ``manifest_gen_NNNN.json`` files next to it).
``container``
    A single appendable archive file: a magic header, a stream of
    self-describing length-prefixed records (frames as PGM bytes), and a
    JSON record index behind a fixed-size trailer.  Appends write new
    records *after* the old trailer, then a merged index and a new trailer,
    so every complete generation keeps its own intact (index, trailer) pair.
    Random access goes through the newest trailer's index; a truncated tail
    degrades to a linear scan of the record stream, so a damaged file is
    still readable record by record, and :func:`repair_container` truncates
    a torn tail append back to the last valid trailer (finishing the index
    instead when the appended generation actually completed).
``memory``
    An in-process dict keyed by target name (``mem:<name>``), for tests and
    benchmarks.
"""

from __future__ import annotations

import io
import json
import struct
import threading
import warnings
from dataclasses import dataclass, field
from types import TracebackType
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from repro.core.archive import ArchiveManifest
from repro.errors import StoreError
from repro.media.image import pgm_bytes, pgm_from_bytes, pgm_parts
from repro.store.manifest import manifest_generation_of, manifest_record_name

__all__ = [
    "ArchiveSink",
    "ArchiveSource",
    "StorageBackend",
    "DirectoryBackend",
    "ContainerBackend",
    "MemoryBackend",
    "ContainerScan",
    "scan_container",
    "repair_container",
    "frame_record_name",
    "CONTAINER_MAGIC",
]

#: Frame kinds a store understands (mirrors the archive artefact).
FRAME_KINDS = ("data", "system")

#: Artefact names shared by every backend.
MANIFEST_NAME = "manifest.json"
BOOTSTRAP_NAME = "bootstrap.txt"


def _frame_name(kind: str, index: int) -> str:
    """Canonical record/file stem for one emblem frame."""
    if kind not in FRAME_KINDS:
        raise StoreError(f"unknown frame kind {kind!r} (expected one of {FRAME_KINDS})")
    return f"{kind}_emblem_{index:04d}.pgm"


def frame_record_name(kind: str, index: int) -> str:
    """Public record/file name of one emblem frame (fsck and tooling)."""
    return _frame_name(kind, index)


def _superseding_manifest_names(names: "Iterator[str] | list[str]") -> list[str]:
    """Manifest record names, newest generation first."""
    candidates = [
        (generation, name)
        for name in names
        if (generation := manifest_generation_of(name)) is not None
    ]
    return [name for _, name in sorted(candidates, reverse=True)]


# --------------------------------------------------------------------------- #
# Session handles
# --------------------------------------------------------------------------- #
class ArchiveSink:
    """Write handle for one archive target (returned by ``backend.create``
    for a fresh archive, ``backend.append`` for an incremental session)."""

    def put_frame(self, kind: str, index: int, image: np.ndarray) -> None:
        """Persist one emblem raster (``kind`` is ``"data"`` or ``"system"``)."""
        raise NotImplementedError

    def put_frames(
        self, kind: str, start_index: int, images: "Iterable[np.ndarray]"
    ) -> None:
        """Persist a batch of consecutive frames starting at ``start_index``.

        The write hot path: the streaming session hands every segment's
        emblem batch here in one call.  The default loops :meth:`put_frame`;
        backends override it to skip per-frame overhead (the container sink
        coalesces a whole batch into large sequential writes with a single
        flush).
        """
        for offset, image in enumerate(images):
            self.put_frame(kind, start_index + offset, image)

    def put_text(self, name: str, text: str) -> None:
        """Persist a named text artefact (Bootstrap, config)."""
        raise NotImplementedError

    def put_bytes(self, name: str, payload: bytes) -> None:
        """Persist a named *binary* record (e.g. a cross-shard parity run).

        Unlike :meth:`put_frame` the payload is opaque: no PGM framing, no
        UTF-8 — the bytes come back verbatim from
        :meth:`ArchiveSource.get_bytes`.
        """
        raise NotImplementedError

    def put_manifest(self, manifest: ArchiveManifest) -> None:
        """Persist the archive manifest (v3 JSON) under its generation's
        record name — appended generations never overwrite their parent."""
        self.put_text(manifest_record_name(manifest.generation), manifest.to_json() + "\n")

    def close(self) -> None:
        """Finalise the target (idempotent)."""

    def abort(self) -> None:
        """Drop the session, rolling back as far as the layout allows.

        A failed session must never *finalise* a half-written generation;
        backends that can, restore the target to its pre-session state
        (the container appending sink truncates back to where it started).
        The default just closes.
        """
        self.close()

    def __enter__(self) -> "ArchiveSink":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        self.close()


class ArchiveSource:
    """Read handle for one archive target (returned by ``backend.open``).

    The contract that enables partial restore: :meth:`manifest` and
    :meth:`get_frame` must not require reading any other frame.
    """

    def manifest(self) -> ArchiveManifest:
        """The *superseding* archive manifest: the newest generation that
        parses (v1/v2 load through the deprecation shim).

        A torn append leaves a newer manifest record unreadable (or absent)
        — the reader then falls back to the last complete generation, so an
        interrupted ``append`` never takes down the archive it extended.
        """
        errors: list[str] = []
        for name in _superseding_manifest_names(self.names()):
            try:
                return ArchiveManifest.from_json(self.get_text(name))
            except (StoreError, ValueError) as exc:
                errors.append(f"{name}: {exc}")
        detail = f" ({'; '.join(errors)})" if errors else ""
        raise StoreError(f"{self._describe()} holds no readable manifest{detail}")

    def names(self) -> list[str]:
        """Every record/artefact name present on the target."""
        raise NotImplementedError

    def get_text(self, name: str) -> str:
        raise NotImplementedError

    def get_bytes(self, name: str) -> bytes:
        """The verbatim payload of a named record (inverse of
        :meth:`ArchiveSink.put_bytes`; frame records return their serialised
        PGM bytes)."""
        raise NotImplementedError

    def get_frame(self, kind: str, index: int) -> np.ndarray:
        raise NotImplementedError

    def frame_count(self, kind: str) -> int:
        prefix = f"{kind}_emblem_"
        return sum(1 for name in self.names() if name.startswith(prefix))

    def get_frames(self, kind: str, start: int, count: int) -> list[np.ndarray]:
        """A contiguous run of frames (the unit partial restore fetches)."""
        return [self.get_frame(kind, index) for index in range(start, start + count)]

    def iter_frames(self, kind: str) -> Iterator[np.ndarray]:
        for index in range(self.frame_count(kind)):
            yield self.get_frame(kind, index)

    def _describe(self) -> str:
        """Human name of the target, for error messages."""
        return type(self).__name__

    def close(self) -> None:
        """Release the target (idempotent)."""

    def __enter__(self) -> "ArchiveSource":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        self.close()


class StorageBackend:
    """A named storage layout; stateless factory for sinks and sources."""

    name = "base"
    description = ""

    def create(self, target: "str | Path") -> ArchiveSink:
        """Open ``target`` for writing a fresh archive."""
        raise NotImplementedError

    def append(self, target: "str | Path") -> ArchiveSink:
        """Reopen an *existing* archive at ``target`` for an incremental
        append session (new frames plus a superseding manifest)."""
        raise NotImplementedError

    def open(self, target: "str | Path") -> ArchiveSource:
        """Open an existing archive at ``target`` for reading."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Directory backend — one PGM file per frame
# --------------------------------------------------------------------------- #
class _DirectorySink(ArchiveSink):
    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def put_frame(self, kind: str, index: int, image: np.ndarray) -> None:
        header, raster = pgm_parts(image)
        with open(self.directory / _frame_name(kind, index), "wb") as stream:
            stream.write(header)
            stream.write(raster)  # zero-copy: the raster buffer goes straight out

    def put_text(self, name: str, text: str) -> None:
        (self.directory / name).write_text(text)

    def put_bytes(self, name: str, payload: bytes) -> None:
        (self.directory / name).write_bytes(payload)


class _DirectorySource(ArchiveSource):
    def __init__(self, directory: Path):
        self.directory = directory
        if not (directory / MANIFEST_NAME).exists():
            raise StoreError(f"{directory} does not contain an archive manifest")

    def names(self) -> list[str]:
        return sorted(path.name for path in self.directory.iterdir() if path.is_file())

    def get_text(self, name: str) -> str:
        path = self.directory / name
        if not path.exists():
            raise StoreError(f"{self.directory} has no {name!r}")
        return path.read_text()

    def get_bytes(self, name: str) -> bytes:
        path = self.directory / name
        if not path.exists():
            raise StoreError(f"{self.directory} has no {name!r}")
        return path.read_bytes()

    def get_frame(self, kind: str, index: int) -> np.ndarray:
        path = self.directory / _frame_name(kind, index)
        if not path.exists():
            raise StoreError(f"{self.directory} has no {kind} frame {index}")
        return pgm_from_bytes(path.read_bytes(), str(path))

    def frame_count(self, kind: str) -> int:
        prefix = f"{kind}_emblem_"
        return sum(1 for _ in self.directory.glob(f"{prefix}*.pgm"))

    def _describe(self) -> str:
        return str(self.directory)


class DirectoryBackend(StorageBackend):
    """PGM files on disk — the historical directory layout."""

    name = "directory"
    description = "one PGM file per frame in a directory (the classic layout)"

    def create(self, target: "str | Path") -> ArchiveSink:
        return _DirectorySink(Path(target))

    def append(self, target: "str | Path") -> ArchiveSink:
        directory = Path(target)
        if not (directory / MANIFEST_NAME).exists():
            raise StoreError(
                f"{directory} does not contain an archive manifest; "
                "append needs an existing archive to extend"
            )
        return _DirectorySink(directory)

    def open(self, target: "str | Path") -> ArchiveSource:
        return _DirectorySource(Path(target))


# --------------------------------------------------------------------------- #
# Container backend — a single appendable archive file
# --------------------------------------------------------------------------- #
#: File magic: layout name + container format version.
CONTAINER_MAGIC = b"ULEARC02"
#: Trailer magic marking an intact record index.
_INDEX_MAGIC = b"ULEIDX02"
#: Trailer: u64 little-endian index-payload offset + index magic.
_TRAILER = struct.Struct("<Q8s")
#: Record header: u16 name length; the name and a u64 payload length follow.
_NAME_LEN = struct.Struct("<H")
_PAYLOAD_LEN = struct.Struct("<Q")
#: Reserved record name holding the JSON index.
_INDEX_NAME = "__index__"


def _pack_record(name: str, payload: bytes) -> bytes:
    encoded = name.encode("utf-8")
    return (
        _NAME_LEN.pack(len(encoded))
        + encoded
        + _PAYLOAD_LEN.pack(len(payload))
        + payload
    )


def _record_header_size(name: str) -> int:
    """Bytes between a record's start and its payload."""
    return _NAME_LEN.size + len(name.encode("utf-8")) + _PAYLOAD_LEN.size


@dataclass
class ContainerScan:
    """What a linear walk of a container's record stream found.

    The walk understands both unit kinds that legally appear after the file
    magic — length-prefixed records and 16-byte (index offset, magic)
    trailer blocks — so it parses multi-generation containers, where each
    append leaves the previous generation's index and trailer in place.
    """

    #: Total file size in bytes.
    size: int
    #: Every complete record: ``(name, payload_offset, payload_length)``, in
    #: stream order (duplicate names legal; the *last* occurrence wins).
    records: list[tuple[str, int, int]] = field(default_factory=list)
    #: End offset of every complete, well-formed trailer block.
    trailer_ends: list[int] = field(default_factory=list)
    #: One past the last byte of the last complete unit; anything beyond it
    #: is a torn tail.
    end_of_valid: int = 0

    @property
    def torn_bytes(self) -> int:
        """Unparseable bytes dangling past the last complete unit."""
        return self.size - self.end_of_valid

    @property
    def intact(self) -> bool:
        """True when the file ends exactly on a complete trailer."""
        return (
            self.torn_bytes == 0
            and bool(self.trailer_ends)
            and self.trailer_ends[-1] == self.size
        )

    def index(self) -> dict[str, tuple[int, int]]:
        """Record index from the scan (last duplicate wins, as on append)."""
        return {
            name: (offset, length)
            for name, offset, length in self.records
            if name != _INDEX_NAME
        }


def _scan_stream(stream: BinaryIO, size: int) -> ContainerScan:
    """Walk an open container stream (see :func:`scan_container`)."""
    scan = ContainerScan(size=size)
    position = len(CONTAINER_MAGIC)
    while position + _NAME_LEN.size <= size:
        stream.seek(position)
        head = stream.read(min(_TRAILER.size, size - position))
        # A trailer block: 8-byte index offset + index magic.  The magic in
        # bytes 8..16 cannot collide with a record, whose bytes there would
        # be UTF-8 name text (all record names are ASCII file names).
        if len(head) == _TRAILER.size and head[8:] == _INDEX_MAGIC:
            offset = _TRAILER.unpack(head)[0]
            if len(CONTAINER_MAGIC) <= offset <= position:
                position += _TRAILER.size
                scan.trailer_ends.append(position)
                scan.end_of_valid = position
                continue
        (name_len,) = _NAME_LEN.unpack(head[: _NAME_LEN.size])
        stream.seek(position + _NAME_LEN.size)
        body = stream.read(name_len + _PAYLOAD_LEN.size)
        if len(body) < name_len + _PAYLOAD_LEN.size:
            break
        name = body[:name_len].decode("utf-8", errors="replace")
        (payload_len,) = _PAYLOAD_LEN.unpack(body[name_len:])
        payload_start = position + _record_header_size(name)
        if payload_start + payload_len > size:
            break  # truncated final record
        scan.records.append((name, payload_start, payload_len))
        position = payload_start + payload_len
        scan.end_of_valid = position
    return scan


def scan_container(path: "str | Path") -> ContainerScan:
    """Linearly walk ``path``'s record stream, tolerating a torn tail.

    Used by the damaged-index read fallback, by append-session recovery, and
    by :func:`repair_container`; every complete record before any damage is
    reported.
    """
    path = Path(path)
    try:
        with open(path, "rb") as stream:
            if stream.read(len(CONTAINER_MAGIC)) != CONTAINER_MAGIC:
                raise StoreError(f"{path}: not a ULE container archive (bad magic)")
            stream.seek(0, io.SEEK_END)
            return _scan_stream(stream, stream.tell())
    except OSError as exc:
        raise StoreError(f"{path}: cannot open container archive: {exc}") from exc


def repair_container(path: "str | Path") -> dict[str, object]:
    """Truncate a torn tail append back to a loadable state, in place.

    Two cases, decided by what the linear scan finds past the last valid
    trailer:

    * the appended generation's *manifest record* made it to the medium
      (only the new index/trailer are damaged or missing): the append
      effectively completed, so the repair keeps every complete record,
      truncates the dangling bytes, and finishes the job by writing a merged
      index and a fresh trailer;
    * otherwise the append died mid-records: the repair truncates back to
      the last valid trailer, dropping the partial generation — the archive
      returns to exactly its previous complete state.

    Returns a report dict: ``action`` (``"intact"`` / ``"completed-index"``
    / ``"truncated"``), ``bytes_removed``, ``size_before``, ``size_after``.

    Raises
    ------
    StoreError
        When the file is not a container, or holds no valid trailer *and* no
        complete manifest record (nothing loadable to repair back to).
    """
    path = Path(path)
    scan = scan_container(path)
    size_before = scan.size
    if scan.intact:
        return {
            "action": "intact",
            "bytes_removed": 0,
            "size_before": size_before,
            "size_after": size_before,
        }
    last_trailer_end = scan.trailer_ends[-1] if scan.trailer_ends else 0
    manifest_after_trailer = any(
        offset >= last_trailer_end and manifest_generation_of(name) is not None
        for name, offset, _length in scan.records
    )
    try:
        with open(path, "r+b") as stream:
            if manifest_after_trailer:
                # The generation's records all landed; finish its index.
                stream.truncate(scan.end_of_valid)
                stream.seek(scan.end_of_valid)
                index_payload = json.dumps(
                    [[name, offset, length] for name, (offset, length) in scan.index().items()]
                ).encode("utf-8")
                stream.write(_pack_record(_INDEX_NAME, index_payload))
                index_offset = scan.end_of_valid + _record_header_size(_INDEX_NAME)
                stream.write(_TRAILER.pack(index_offset, _INDEX_MAGIC))
                size_after = stream.tell()
                return {
                    "action": "completed-index",
                    "bytes_removed": size_before - scan.end_of_valid,
                    "size_before": size_before,
                    "size_after": size_after,
                }
            if not last_trailer_end:
                raise StoreError(
                    f"{path}: no valid trailer and no complete manifest record; "
                    "the container cannot be repaired to a loadable state"
                )
            stream.truncate(last_trailer_end)
            return {
                "action": "truncated",
                "bytes_removed": size_before - last_trailer_end,
                "size_before": size_before,
                "size_after": last_trailer_end,
            }
    except OSError as exc:
        raise StoreError(f"{path}: cannot repair container archive: {exc}") from exc


#: Coalesce at least this many record bytes before issuing a write.  Frames
#: are tens of KiB each; buffering a few MiB turns the old one-syscall-per-
#: record pattern into large sequential writes without holding a whole
#: archive in memory.
_SINK_FLUSH_BYTES = 4 * 1024 * 1024


class _ContainerSink(ArchiveSink):
    """Write side of the container backend.

    A fresh sink starts a new file; ``appending=True`` reopens an existing
    container, inherits its record index, and appends new records after the
    old trailer — close() then writes a *merged* index (old + new entries)
    and a new trailer, so the previous generation's (index, trailer) pair
    stays untouched on the medium as the fallback state.

    Records are coalesced in a pending-parts list and written out with one
    ``writelines`` call per ~4 MiB (and once per :meth:`put_frames` batch),
    so the per-record cost is list appends, not stream writes.  Frame
    payloads are buffered as memoryviews of the caller's rasters — zero
    copies until the bytes hit the file.
    """

    def __init__(self, path: Path, appending: bool = False):
        self.path = path
        self._index: dict[str, tuple[int, int]] = {}
        self._closed = False
        #: Packed-but-unwritten record parts (bytes / memoryview) + their size.
        self._pending: "list[bytes | memoryview]" = []
        self._pending_bytes = 0
        #: Pre-session file size; abort() truncates back to it (append only).
        self._rollback_size: int | None = None
        if appending:
            scan = scan_container(path)
            if not scan.intact:
                raise StoreError(
                    f"{path}: container has a torn tail append "
                    f"({scan.torn_bytes} dangling bytes past the last "
                    "complete record; no intact trailer at end of file); run "
                    "`python -m repro verify --repair` before appending"
                )
            self._index = scan.index()
            self._stream = open(path, "r+b")
            self._stream.seek(scan.size)
            self._offset = scan.size
            self._rollback_size = scan.size
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(path, "wb")
            self._stream.write(CONTAINER_MAGIC)
            self._offset = len(CONTAINER_MAGIC)

    def _flush(self) -> None:
        if self._pending:
            self._stream.writelines(self._pending)
            self._pending = []
            self._pending_bytes = 0

    def _append(self, name: str, *parts: "bytes | memoryview") -> None:
        """Queue one record whose payload is the concatenation of ``parts``."""
        if self._closed:
            raise StoreError(f"{self.path}: container sink is closed")
        if name in self._index:
            raise StoreError(f"{self.path}: record {name!r} already written")
        encoded = name.encode("utf-8")
        payload_len = sum(len(part) for part in parts)
        self._pending.append(
            _NAME_LEN.pack(len(encoded)) + encoded + _PAYLOAD_LEN.pack(payload_len)
        )
        self._pending.extend(parts)
        header = _record_header_size(name)
        self._pending_bytes += header + payload_len
        self._index[name] = (self._offset + header, payload_len)
        self._offset += header + payload_len
        if self._pending_bytes >= _SINK_FLUSH_BYTES:
            self._flush()

    def put_frame(self, kind: str, index: int, image: np.ndarray) -> None:
        header, raster = pgm_parts(image)
        self._append(_frame_name(kind, index), header, raster)

    def put_frames(
        self, kind: str, start_index: int, images: "Iterable[np.ndarray]"
    ) -> None:
        for offset, image in enumerate(images):
            header, raster = pgm_parts(image)
            self._append(_frame_name(kind, start_index + offset), header, raster)
        self._flush()

    def put_text(self, name: str, text: str) -> None:
        self._append(name, text.encode("utf-8"))

    def put_bytes(self, name: str, payload: bytes) -> None:
        self._append(name, payload)

    def close(self) -> None:
        if self._closed:
            return
        self._flush()
        self._closed = True
        index_payload = json.dumps(
            [[name, offset, length] for name, (offset, length) in self._index.items()]
        ).encode("utf-8")
        self._stream.write(_pack_record(_INDEX_NAME, index_payload))
        index_offset = self._offset + _record_header_size(_INDEX_NAME)
        self._stream.write(_TRAILER.pack(index_offset, _INDEX_MAGIC))
        self._stream.close()

    def abort(self) -> None:
        """Roll a failed session back instead of finalising it.

        An appending sink truncates the file to its pre-session size, so the
        previous generation's intact (index, trailer) pair is the end of the
        file again — the archive is exactly what it was before the append
        started, and a retried append sees no half-written records.  A fresh
        sink just closes without writing an index (the target never held a
        complete archive to roll back to).
        """
        if self._closed:
            return
        self._closed = True
        # Drop unwritten records first: truncate() flushes the stream's own
        # buffer, and rolled-back bytes must never reach the medium.
        self._pending = []
        self._pending_bytes = 0
        if self._rollback_size is not None:
            self._stream.truncate(self._rollback_size)
        self._stream.close()


#: Idle read handles kept open per container source.  Concurrent readers
#: beyond this open short-lived extra handles instead of queueing, so a
#: burst of request threads never serialises on one seek position.
_SOURCE_POOL_MAX = 8


class _ContainerSource(ArchiveSource):
    """Read side of the container backend — safe for *concurrent* readers.

    Readers no longer share one seek position: every :meth:`_read` borrows a
    dedicated file handle from a small idle pool (opening a fresh one when
    the pool is empty), seeks and reads on it privately, and returns it.
    Prefetch workers, decode executors and server request threads can
    therefore fetch records truly in parallel; :meth:`close` drains the pool
    and marks the source closed, after which in-flight handles are closed on
    release instead of being pooled again.
    """

    def __init__(self, path: Path):
        self.path = path
        self._lock = threading.Lock()
        self._handles: list[BinaryIO] = []  # lint: guarded-by(_lock)
        self._closed = False  # lint: guarded-by(_lock)
        try:
            stream = open(path, "rb")
        except OSError as exc:
            raise StoreError(f"{path}: cannot open container archive: {exc}") from exc
        if stream.read(len(CONTAINER_MAGIC)) != CONTAINER_MAGIC:
            stream.close()
            raise StoreError(f"{path}: not a ULE container archive (bad magic)")
        #: True when the trailer index was unusable and the record index had
        #: to be rebuilt by a linear scan (`inspect` surfaces this so damage
        #: is visible, not silently absorbed).
        self.recovered_by_scan = False
        self._index = self._load_index(stream)
        self._handles.append(stream)

    # -------------------------------------------------------------- #
    def _load_index(self, stream: BinaryIO) -> dict[str, tuple[int, int]]:
        """The record index: from the newest trailer, or by scanning on damage.

        Takes the stream explicitly: it runs only from ``__init__``, before
        the source is shared with any other thread, so it may seek freely
        on the not-yet-pooled handle.
        """
        stream.seek(0, io.SEEK_END)
        size = stream.tell()
        reason = "no intact index trailer at end of file"
        if size >= len(CONTAINER_MAGIC) + _TRAILER.size:
            stream.seek(size - _TRAILER.size)
            offset, magic = _TRAILER.unpack(stream.read(_TRAILER.size))
            if magic == _INDEX_MAGIC and offset < size - _TRAILER.size:
                stream.seek(offset)
                payload = stream.read(size - _TRAILER.size - offset)
                try:
                    entries = json.loads(payload.decode("utf-8"))
                    return {name: (start, length) for name, start, length in entries}
                except (ValueError, TypeError):
                    reason = "trailer index record is corrupt"
        index = _scan_stream(stream, size).index()
        if not index:
            raise StoreError(f"{self.path}: container archive holds no readable records")
        self.recovered_by_scan = True
        warnings.warn(
            f"{self.path}: {reason}; record index recovered by scanning the "
            "stream (reads still work; run `python -m repro verify --repair` "
            "to rebuild the index)",
            RuntimeWarning,
            stacklevel=3,
        )
        return index

    def _acquire(self) -> BinaryIO:
        """Borrow a read handle: pooled when one is idle, fresh otherwise."""
        with self._lock:
            if self._closed:
                raise StoreError(f"{self.path}: container source is closed")
            if self._handles:
                return self._handles.pop()
        try:
            return open(self.path, "rb")
        except OSError as exc:
            raise StoreError(f"{self.path}: cannot open container archive: {exc}") from exc

    def _release(self, handle: BinaryIO) -> None:
        with self._lock:
            if not self._closed and len(self._handles) < _SOURCE_POOL_MAX:
                self._handles.append(handle)
                return
        handle.close()

    def _read(self, name: str) -> bytes:
        entry = self._index.get(name)
        if entry is None:
            raise StoreError(f"{self.path} has no record {name!r}")
        offset, length = entry
        handle = self._acquire()
        try:
            handle.seek(offset)
            payload = handle.read(length)
        finally:
            self._release(handle)
        if len(payload) != length:
            raise StoreError(f"{self.path}: record {name!r} is truncated")
        return payload

    # -------------------------------------------------------------- #
    def names(self) -> list[str]:
        return sorted(self._index)

    def get_text(self, name: str) -> str:
        return self._read(name).decode("utf-8")

    def get_bytes(self, name: str) -> bytes:
        return self._read(name)

    def get_frame(self, kind: str, index: int) -> np.ndarray:
        name = _frame_name(kind, index)
        return pgm_from_bytes(self._read(name), f"{self.path}:{name}")

    def frame_count(self, kind: str) -> int:
        prefix = f"{kind}_emblem_"
        return sum(1 for name in self._index if name.startswith(prefix))

    def _describe(self) -> str:
        return str(self.path)

    def close(self) -> None:
        # Borrowed handles are never yanked mid-read: marking the source
        # closed makes _release() close them as each reader finishes.
        with self._lock:
            self._closed = True
            handles, self._handles = self._handles, []
        for handle in handles:
            handle.close()


class ContainerBackend(StorageBackend):
    """A single appendable archive file with an indexed record stream."""

    name = "container"
    description = "single-file archive: length-prefixed records + JSON index"

    def create(self, target: "str | Path") -> ArchiveSink:
        return _ContainerSink(Path(target))

    def append(self, target: "str | Path") -> ArchiveSink:
        path = Path(target)
        if not path.is_file():
            raise StoreError(
                f"{path} is not an existing container archive; "
                "append needs an existing archive to extend"
            )
        return _ContainerSink(path, appending=True)

    def open(self, target: "str | Path") -> ArchiveSource:
        return _ContainerSource(Path(target))


# --------------------------------------------------------------------------- #
# Memory backend — for tests and benchmarks
# --------------------------------------------------------------------------- #
#: All in-process memory targets, keyed by name (``mem:foo`` -> ``"foo"``).
_MEMORY_TARGETS: dict[str, dict[str, bytes]] = {}


def _memory_key(target: "str | Path") -> str:
    key = str(target)
    return key[4:] if key.startswith("mem:") else key


class _MemorySink(ArchiveSink):
    def __init__(self, records: dict[str, bytes]):
        self._records = records

    def put_frame(self, kind: str, index: int, image: np.ndarray) -> None:
        self._records[_frame_name(kind, index)] = pgm_bytes(image)

    def put_text(self, name: str, text: str) -> None:
        self._records[name] = text.encode("utf-8")

    def put_bytes(self, name: str, payload: bytes) -> None:
        self._records[name] = bytes(payload)


class _MemorySource(ArchiveSource):
    def __init__(self, key: str, records: dict[str, bytes]):
        self._key = key
        self._records = records

    def _read(self, name: str) -> bytes:
        try:
            return self._records[name]
        except KeyError:
            raise StoreError(f"memory archive {self._key!r} has no record {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._records)

    def get_text(self, name: str) -> str:
        return self._read(name).decode("utf-8")

    def get_bytes(self, name: str) -> bytes:
        return self._read(name)

    def get_frame(self, kind: str, index: int) -> np.ndarray:
        name = _frame_name(kind, index)
        return pgm_from_bytes(self._read(name), f"mem:{self._key}:{name}")

    def frame_count(self, kind: str) -> int:
        prefix = f"{kind}_emblem_"
        return sum(1 for name in self._records if name.startswith(prefix))

    def _describe(self) -> str:
        return f"mem:{self._key}"


class MemoryBackend(StorageBackend):
    """In-process storage keyed by target name — tests and benchmarks."""

    name = "memory"
    description = "in-process dict store (targets are 'mem:<name>' keys)"

    def create(self, target: "str | Path") -> ArchiveSink:
        records: dict[str, bytes] = {}
        _MEMORY_TARGETS[_memory_key(target)] = records
        return _MemorySink(records)

    def append(self, target: "str | Path") -> ArchiveSink:
        key = _memory_key(target)
        records = _MEMORY_TARGETS.get(key)
        if records is None:
            raise StoreError(
                f"no memory archive named {key!r} exists in this process; "
                "append needs an existing archive to extend"
            )
        return _MemorySink(records)

    def open(self, target: "str | Path") -> ArchiveSource:
        key = _memory_key(target)
        records = _MEMORY_TARGETS.get(key)
        if records is None:
            raise StoreError(f"no memory archive named {key!r} exists in this process")
        return _MemorySource(key, records)

    @staticmethod
    def discard(target: "str | Path") -> None:
        """Drop a memory target (no-op when absent)."""
        _MEMORY_TARGETS.pop(_memory_key(target), None)
