"""The archive repository: many named archives under one root, served safely.

This is the concurrency core of :mod:`repro.server` — everything here is
plain blocking code (the asyncio front end calls it on worker threads), and
every rule that keeps concurrent tenants from corrupting each other lives
here rather than in the HTTP handlers:

* **naming** — an archive name maps to the target ``dir:<root>/<name>``
  (directory layout) or ``file:<root>/<name>.ule`` (single-file
  container); names are validated against a strict pattern, so a request
  path can never escape the root;
* **writer locking** — each archive has one :class:`threading.Lock`; uploads
  and appends hold it for their whole session, so concurrent writers
  *serialize* (or fail fast with :class:`~repro.errors.ArchiveBusyError`
  when the caller asked not to wait) instead of interleaving records;
* **reader pooling** — :class:`repro.api.ArchiveReader` sessions own
  executors and mutate counters, so one reader must not serve two requests
  at once.  A per-archive :class:`_ReaderPool` checks readers out per
  request and back in after, and every committed write *invalidates* the
  pool (epoch bump) so no later request is served off a superseded
  manifest;
* **the shared segment cache** — one :class:`~repro.server.cache.
  SegmentCache` is threaded into every pooled reader, so a segment decoded
  for any request is free for every later request that covers it.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.api import ArchiveConfig, ArchiveReader, VerifyReport, open_archive, open_restore
from repro.api.session import ArchiveWriter
from repro.errors import (
    ArchiveBusyError,
    ArchiveNotFoundError,
    BadRequestError,
    StoreError,
)
from repro.server.cache import DEFAULT_CACHE_BYTES, SegmentCache
from repro.store import MANIFEST_NAME, open_source

__all__ = ["ArchiveRepository", "WriteSession"]

#: Legal archive names: no path separators, no leading dot, bounded length.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Container archives live as ``<name>`` + this suffix under the root.
_CONTAINER_SUFFIX = ".ule"

#: Idle readers retained per archive between requests.
_MAX_IDLE_READERS = 4


def validate_archive_name(name: str) -> str:
    """``name`` unchanged when it is a legal archive name; raises otherwise."""
    if not _NAME_RE.match(name):
        raise BadRequestError(
            f"illegal archive name {name!r}: use 1-64 letters, digits, '.', "
            "'_' or '-', starting with a letter or digit"
        )
    return name


class _ReaderPool:
    """Check-out/check-in pool of :class:`ArchiveReader` sessions.

    A reader serves exactly one request at a time; between requests up to
    ``max_idle`` readers stay open (keeping their partial-decode executors
    and source handles warm).  :meth:`invalidate` bumps the pool epoch and
    closes the idle readers — readers checked out before the bump finish
    their in-flight request against the old (still fully readable)
    generation and are then closed instead of returning to the pool.
    """

    def __init__(self, opener: Callable[[], ArchiveReader], max_idle: int = _MAX_IDLE_READERS):
        self._opener = opener
        self._max_idle = max_idle
        self._lock = threading.Lock()
        self._idle: list[ArchiveReader] = []  # lint: guarded-by(_lock)
        self._epoch = 0  # lint: guarded-by(_lock)
        self._closed = False  # lint: guarded-by(_lock)

    @contextmanager
    def reader(self) -> Iterator[ArchiveReader]:
        with self._lock:
            epoch = self._epoch
            instance = self._idle.pop() if self._idle else None
        if instance is None:
            instance = self._opener()
        try:
            yield instance
        except BaseException:
            # A failed request may leave the reader's source mid-state;
            # close rather than guess, the next request reopens cleanly.
            instance.close()
            raise
        else:
            with self._lock:
                keep = (
                    not self._closed
                    and epoch == self._epoch
                    and len(self._idle) < self._max_idle
                )
                if keep:
                    self._idle.append(instance)
            if not keep:
                instance.close()

    def invalidate(self) -> None:
        """Retire every idle reader; later check-outs reopen fresh."""
        with self._lock:
            self._epoch += 1
            stale, self._idle = self._idle, []
        for reader in stale:
            reader.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            stale, self._idle = self._idle, []
        for reader in stale:
            reader.close()


@dataclass
class _ArchiveState:
    """Per-archive concurrency state, created lazily per name."""

    pool: _ReaderPool
    #: Serialises uploads and appends to this archive.  Acquired and
    #: released on (possibly different) worker threads of one write
    #: session, which threading.Lock permits.
    writer_lock: threading.Lock = field(default_factory=threading.Lock)


class WriteSession:
    """One serialized write (upload or append) against one archive.

    Returned by :meth:`ArchiveRepository.begin_upload` /
    :meth:`~ArchiveRepository.begin_append` *holding the archive's writer
    lock*; the caller must finish with exactly one of :meth:`commit` or
    :meth:`abort`, which release it.  :meth:`write` blocks on the underlying
    :class:`~repro.api.session.ArchiveWriter`'s bounded queue when the
    encode pipeline falls behind — that is the service's backpressure: the
    HTTP front end awaits the blocked call on a worker thread and stops
    reading the request body until the pipeline catches up.
    """

    def __init__(
        self,
        repository: "ArchiveRepository",
        name: str,
        state: _ArchiveState,
        writer: ArchiveWriter,
        layout: str,
    ):
        self._repository = repository
        self._name = name
        self._state = state
        self._writer = writer
        self._layout = layout
        self._bytes_in = 0
        self._done = False

    @property
    def bytes_written(self) -> int:
        """Payload bytes accepted so far."""
        return self._bytes_in

    def write(self, chunk: bytes) -> None:
        """Feed payload bytes (blocks for backpressure; see class docs)."""
        self._writer.write(chunk)
        self._bytes_in += len(chunk)

    def commit(self) -> dict[str, object]:
        """Finish encoding, finalise the target, release the writer lock."""
        if self._done:
            raise ArchiveBusyError(f"write session for {self._name!r} already finished")
        self._done = True
        try:
            archive = self._writer.close()
        finally:
            self._state.writer_lock.release()
        # Later reads must see the new generation, not a pooled reader's
        # superseded manifest.
        self._state.pool.invalidate()
        manifest = archive.manifest
        return {
            "name": self._name,
            "store": self._layout,
            "generation": manifest.generation,
            "payload_bytes": manifest.archive_bytes,
            "payload_crc32": manifest.archive_crc32,
            "segments": max(len(manifest.segments), 1),
            "data_emblems": manifest.data_emblem_count,
            "system_emblems": manifest.system_emblem_count,
        }

    def abort(self) -> None:
        """Drop the session (an append rolls its target back), release the lock."""
        if self._done:
            return
        self._done = True
        try:
            self._writer.abort()
        finally:
            self._state.writer_lock.release()
        self._state.pool.invalidate()


class ArchiveRepository:
    """A root directory of named archives plus their shared runtime state."""

    def __init__(
        self,
        root: "str | Path",
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        lock_timeout: float = 30.0,
        reader_overrides: "dict[str, object] | None" = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: The decoded-segment cache every pooled reader shares.
        self.cache = SegmentCache(cache_bytes)
        #: How long a waiting writer queues for the archive lock before
        #: giving up with :class:`ArchiveBusyError`.
        self.lock_timeout = lock_timeout
        self._reader_overrides = dict(reader_overrides or {})
        self._lock = threading.Lock()
        self._states: dict[str, _ArchiveState] = {}  # lint: guarded-by(_lock)

    # ------------------------------------------------------------------ #
    # Name / target resolution
    # ------------------------------------------------------------------ #
    def _target(self, name: str, layout: str) -> str:
        """The target URI of archive ``name`` in ``layout``."""
        if layout == "container":
            return f"file:{self.root / name}{_CONTAINER_SUFFIX}"
        return f"dir:{self.root / name}"

    def _existing(self, name: str) -> "tuple[str, str] | None":
        """The (target URI, layout) of an existing archive, or ``None``."""
        if (self.root / name / MANIFEST_NAME).exists():
            return self._target(name, "directory"), "directory"
        if (self.root / f"{name}{_CONTAINER_SUFFIX}").is_file():
            return self._target(name, "container"), "container"
        return None

    def _resolve(self, name: str) -> "tuple[str, str]":
        located = self._existing(validate_archive_name(name))
        if located is None:
            raise ArchiveNotFoundError(f"no archive named {name!r} in {self.root}")
        return located

    def _state(self, name: str) -> _ArchiveState:
        with self._lock:
            state = self._states.get(name)
            if state is None:
                opener = _ReaderOpener(self, name)
                state = self._states[name] = _ArchiveState(pool=_ReaderPool(opener))
            return state

    def _open_reader(self, name: str) -> ArchiveReader:
        target, _layout = self._resolve(name)
        return open_restore(
            target, segment_cache=self.cache, **self._reader_overrides
        )

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #
    def _acquire_writer(self, name: str, state: _ArchiveState, wait: bool) -> None:
        if wait:
            acquired = state.writer_lock.acquire(timeout=self.lock_timeout)
        else:
            acquired = state.writer_lock.acquire(blocking=False)
        if not acquired:
            raise ArchiveBusyError(
                f"archive {name!r} has a write in progress"
                + ("" if wait else " (requested no-wait)")
            )

    def begin_upload(
        self,
        name: str,
        *,
        layout: str = "container",
        replace: bool = False,
        wait: bool = True,
        **config_fields: object,
    ) -> WriteSession:
        """Start a fresh-archive upload session (holds the writer lock).

        ``layout`` (the HTTP ``store`` parameter) picks the target:
        ``container`` (default) writes ``file:<root>/<name>.ule``,
        ``directory`` writes ``dir:<root>/<name>``.  An existing archive
        under ``name`` is refused unless ``replace`` is true *and* the
        layouts agree (container targets truncate cleanly).
        """
        validate_archive_name(name)
        if layout not in ("container", "directory"):
            raise BadRequestError(
                f"store {layout!r} not servable; use 'container' or 'directory'"
            )
        state = self._state(name)
        self._acquire_writer(name, state, wait)
        try:
            located = self._existing(name)
            if located is not None:
                if not replace:
                    raise ArchiveBusyError(
                        f"archive {name!r} already exists; append to it or "
                        "pass replace=1 to overwrite"
                    )
                if located[1] != layout:
                    raise BadRequestError(
                        f"archive {name!r} already uses the {located[1]!r} "
                        f"layout; cannot replace it with {layout!r}"
                    )
                if layout == "directory":
                    raise BadRequestError(
                        f"archive {name!r} uses the directory layout, which "
                        "does not support in-place replace; delete it first"
                    )
            config = ArchiveConfig(
                **{key: value for key, value in config_fields.items() if value is not None}  # type: ignore[arg-type]
            )
            writer = open_archive(config, target=self._target(name, layout))
        except BaseException:
            state.writer_lock.release()
            raise
        return WriteSession(self, name, state, writer, layout)

    def begin_append(self, name: str, *, wait: bool = True) -> WriteSession:
        """Start an append session extending an existing archive."""
        state = self._state(name)
        self._acquire_writer(name, state, wait)
        try:
            target, layout = self._resolve(name)
            writer = open_archive(target=target, append=True)
        except BaseException:
            state.writer_lock.release()
            raise
        return WriteSession(self, name, state, writer, layout)

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def payload_length(self, name: str) -> int:
        """Total payload bytes of the archive's current generation."""
        with self._state(name).pool.reader() as reader:
            return reader.manifest.archive_bytes

    def read_range(self, name: str, offset: int, length: "int | None") -> "tuple[bytes, int]":
        """``(payload[offset:offset+length], total_bytes)`` via a pooled reader."""
        with self._state(name).pool.reader() as reader:
            total = reader.manifest.archive_bytes
            span = total - offset if length is None else length
            if span < 0:
                span = 0
            return reader.read_range(offset, span), total

    def verify(self, name: str, *, deep: bool = True) -> VerifyReport:
        """fsck the named archive on its store target."""
        with self._state(name).pool.reader() as reader:
            return reader.verify(deep=deep)

    def inspect(self, name: str) -> dict[str, object]:
        """The archive's manifest summary (no frame is read)."""
        target, layout = self._resolve(name)
        with open_source(target) as source:
            manifest = source.manifest()
        return {
            "name": name,
            "store": layout,
            "format_version": manifest.format_version,
            "generation": manifest.generation,
            "parent": manifest.parent,
            "profile": manifest.profile_name,
            "codec": manifest.dbcoder_profile,
            "payload_kind": manifest.payload_kind,
            "payload_bytes": manifest.archive_bytes,
            "payload_crc32": manifest.archive_crc32,
            "segment_size": manifest.segment_size,
            "segments": [segment.to_dict() for segment in manifest.segments],
            "data_emblems": manifest.data_emblem_count,
            "system_emblems": manifest.system_emblem_count,
            "config": manifest.config,
        }

    def list_archives(self) -> list[dict[str, object]]:
        """Every archive under the root, with cheap manifest facts."""
        names: set[str] = set()
        for path in sorted(self.root.iterdir()):
            if path.is_dir() and (path / MANIFEST_NAME).exists():
                names.add(path.name)
            elif path.is_file() and path.suffix == _CONTAINER_SUFFIX:
                names.add(path.stem)
        listing: list[dict[str, object]] = []
        for name in sorted(names):
            entry: dict[str, object] = {"name": name}
            try:
                target, layout = self._resolve(name)
                with open_source(target) as source:
                    manifest = source.manifest()
                entry.update(
                    store=layout,
                    generation=manifest.generation,
                    payload_bytes=manifest.archive_bytes,
                    segments=max(len(manifest.segments), 1),
                )
            except (StoreError, BadRequestError, ArchiveNotFoundError) as exc:
                # A damaged or mid-creation archive stays listed — with the
                # failure attached — rather than silently vanishing.
                entry["error"] = str(exc)
            listing.append(entry)
        return listing

    def stats(self) -> dict[str, object]:
        """Repository-level counters for ``GET /stats``."""
        return {
            "root": str(self.root),
            "archives": len(self.list_archives()),
            "segment_cache": self.cache.stats(),
        }

    def close(self) -> None:
        """Close every pooled reader (idempotent)."""
        with self._lock:
            states = list(self._states.values())
        for state in states:
            state.pool.close()


class _ReaderOpener:
    """Picklable/no-closure opener for :class:`_ReaderPool` (one per archive)."""

    def __init__(self, repository: ArchiveRepository, name: str):
        self._repository = repository
        self._name = name

    def __call__(self) -> ArchiveReader:
        return self._repository._open_reader(self._name)
