"""Session-based streaming I/O over the archival pipeline.

:func:`open_archive` returns an :class:`ArchiveWriter` — a context manager
that accepts payload chunks of any size via :meth:`~ArchiveWriter.write` and
encodes them *while they arrive*: a background thread feeds them over a
bounded queue to :func:`~repro.pipeline.pipeline.encode_segments`, so
segments encode (optionally in parallel, on the session's own executor)
concurrently with the caller producing data, and an ``on_batch`` callback
sees each segment's emblem batch as it completes.  :func:`open_restore`
returns the reading half, an :class:`~repro.api.reader.ArchiveReader`
running the six restoration steps of Figure 2b, and :func:`run_end_to_end`
runs all seven steps of Figure 2a — including step 7's channel
``record``/``scan`` — plus the restore in one call.
"""

from __future__ import annotations

import queue
import threading
from types import TracebackType
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.api.config import ArchiveConfig
from repro.api.reader import ArchiveReader, RestorationResult, SegmentCacheLike
from repro.core.archive import ArchiveManifest, MicrOlonysArchive, SegmentRecord
from repro.core.profiles import media_name
from repro.dbcoder.dbcoder import codec_name
from repro.errors import ArchiveError, ConfigError, RestorationError
from repro.mocoder.emblem import Frame
from repro.pipeline.executors import get_executor
from repro.pipeline.pipeline import EncodedSegment, build_system_artifacts, encode_segments
from repro.store import (
    BOOTSTRAP_NAME,
    ArchiveSource,
    TargetSpec,
    manifest_digest,
    open_append_sink,
    open_sink,
    open_source,
    parse_target,
)

__all__ = [
    "ArchiveWriter",
    "EndToEndResult",
    "open_archive",
    "open_restore",
    "run_end_to_end",
]

#: Sentinel closing the writer's chunk queue.
_EOF = object()


class ArchiveWriter:
    """A streaming archival session (returned by :func:`open_archive`).

    Usage::

        with open_archive(config) as writer:
            for chunk in source:
                writer.write(chunk)
        archive = writer.archive        # or the return value of close()

    Chunks are re-segmented by the pipeline's segmenter, so ``write`` calls
    need not align with segment boundaries.  Encoding runs on a background
    thread, through an executor the session builds from its config and
    closes when the last segment is encoded, while the caller keeps
    writing; at most a bounded window of chunks and in-flight segments
    exist at once.  ``on_batch`` (if given) is called with each completed
    :class:`~repro.pipeline.EncodedSegment` — its
    :class:`~repro.core.archive.SegmentRecord` and emblem images — from the
    encoder thread.

    With a ``target`` the session also *persists* the archive through a
    :mod:`repro.store` backend: emblem frames stream onto the target as each
    batch completes, and ``close()`` writes the system emblems, the
    Bootstrap, the session config and the v3 manifest alongside them —
    ``collect`` then defaults to ``False``, so huge archives stay
    memory-bounded on the way to disk.

    With an ``append_base`` manifest (see ``open_archive(append=True)``)
    the session *extends* an existing target instead of creating one: frame
    numbering, segment indices and payload offsets resume where the base
    manifest left off, the whole-archive CRC-32 chains through the appended
    bytes, and ``close()`` writes a superseding manifest one generation up
    whose ``parent`` digest pins the base — the new manifest's segment list
    is cumulative, so readers address the whole multi-generation payload
    exactly as if it had been archived in one session.
    """

    def __init__(
        self,
        config: ArchiveConfig,
        *,
        on_batch: Callable[[EncodedSegment], None] | None = None,
        collect: bool | None = None,
        target: "str | Path | TargetSpec | None" = None,
        append_base: ArchiveManifest | None = None,
    ):
        self.config = config
        self.on_batch = on_batch
        self.target = target
        #: The parsed target every store operation of this session routes
        #: through (one :func:`repro.store.parse_target` call per session).
        self._spec = parse_target(target) if target is not None else None
        #: With ``collect=False`` emblem images are dropped after the
        #: callbacks (and any store sink) run — the bounded-memory mode; the
        #: closed archive then carries the manifest, system emblems and
        #: Bootstrap but an empty data-image list.  Defaults to ``False``
        #: when a ``target`` persists the frames, ``True`` otherwise.
        self.collect = collect if collect is not None else target is None
        self._base = append_base
        if append_base is not None:
            if target is None:
                raise ArchiveError("an append session needs a store target to extend")
            if not append_base.segments:
                raise ArchiveError(
                    "this archive has no segment records (pre-pipeline layout); "
                    "it cannot be appended to — re-archive it first"
                )
            assert self._spec is not None
            self._sink = open_append_sink(self._spec)
        else:
            self._sink = open_sink(self._spec) if self._spec is not None else None
        self.archive: MicrOlonysArchive | None = None
        self._profile = config.media_profile()
        self._codec = config.resolve_codec()
        self._queue: "queue.Queue[bytes | object]" = queue.Queue(maxsize=8)
        self._records: list[SegmentRecord] = []
        self._images: list[Frame] = []
        # The encoder thread stores a failure here; the caller's thread
        # consumes (reads *and clears*) it — that pair must be atomic or two
        # racing callers could both observe, or both miss, the error.
        self._state_lock = threading.Lock()
        self._error: BaseException | None = None  # lint: guarded-by(_state_lock)
        # zlib.crc32 chains: crc32(a + b) == crc32(b, crc32(a)), so seeding
        # with the base manifest's CRC makes the appended manifest's
        # archive_crc32 exactly the CRC of the concatenated payload.
        self._crc = append_base.archive_crc32 if append_base else 0
        self._length = append_base.archive_bytes if append_base else 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._encode_loop, name="repro-archive-writer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    def _chunks(self) -> Iterator[bytes]:
        while True:
            chunk = self._queue.get()
            if not isinstance(chunk, bytes):  # the _EOF sentinel
                return
            yield chunk

    def _encode_loop(self) -> None:
        base = self._base
        # An append resumes the segment, byte and frame numbering of the
        # superseded manifest, so the new manifest's cumulative segment list
        # stays monotone across generations.
        numbering = (
            (len(base.segments), base.archive_bytes, base.data_emblem_count)
            if base is not None else (0, 0, 0)
        )
        try:
            with get_executor(self.config.executor) as executor:
                for batch in encode_segments(
                    self._chunks(), self._profile.spec, self._codec, self.config.outer_code,
                    self.config.segment_size, executor, base=numbering,
                ):
                    record = batch.record
                    self._records.append(record)
                    if self._sink is not None:
                        # One batched call per segment: the container sink
                        # turns this into a single coalesced write instead of
                        # one stream write per frame.
                        self._sink.put_frames("data", record.emblem_start, batch.images)
                    if self.collect:
                        self._images.extend(batch.images)
                    if self.on_batch is not None:
                        self.on_batch(batch)
        except BaseException as exc:  # surfaced on the caller's thread
            with self._state_lock:
                self._error = exc
            # Unblock a writer stuck on a full queue, then discard the rest.
            while True:
                try:
                    if self._queue.get_nowait() is _EOF:
                        break
                except queue.Empty:
                    break

    def _check_error(self) -> None:
        with self._state_lock:
            error, self._error = self._error, None
        if error is not None:
            self._closed = True
            if self._sink is not None:
                self._sink.abort()
            raise error

    # ------------------------------------------------------------------ #
    def write(self, chunk: bytes) -> None:
        """Feed payload bytes into the archive (any chunk size)."""
        if self._closed:
            raise ArchiveError("this archive session is closed")
        self._check_error()
        chunk = bytes(chunk)
        if not chunk:
            return
        self._crc = zlib.crc32(chunk, self._crc) & 0xFFFFFFFF
        self._length += len(chunk)
        while True:
            try:
                self._queue.put(chunk, timeout=0.1)
                return
            except queue.Full:
                self._check_error()

    def close(self) -> MicrOlonysArchive:
        """Finish encoding and assemble the archive artefact (idempotent)."""
        if self._closed:
            if self.archive is None:
                raise ArchiveError("this archive session failed; nothing to return")
            return self.archive
        self._closed = True
        self._queue.put(_EOF)
        self._thread.join()
        with self._state_lock:
            error, self._error = self._error, None
        if error is not None:
            if self._sink is not None:
                self._sink.abort()
            raise error
        base = self._base
        if base is None:
            system_images, bootstrap_text = build_system_artifacts(
                self._profile, outer_code=self.config.outer_code
            )
            system_count = len(system_images)
        else:
            # The target already carries the system emblems and Bootstrap of
            # generation 0; re-deriving them here would be wasted work and —
            # worse — could stamp a count that disagrees with what is
            # physically on the medium, so the superseding manifest inherits
            # the base's count verbatim.
            system_images = []
            bootstrap_text = ""
            system_count = base.system_emblem_count
        segments = (base.segments if base else ()) + tuple(self._records)
        manifest = ArchiveManifest(
            profile_name=self._profile.name,
            dbcoder_profile=self._codec.profile.name,
            archive_bytes=self._length,
            archive_crc32=self._crc,
            data_emblem_count=sum(record.emblem_count for record in segments),
            system_emblem_count=system_count,
            payload_kind=self.config.payload_kind,
            segment_size=self.config.segment_size,
            segments=segments,
            config=self.config.to_dict(),
            generation=base.generation + 1 if base else 0,
            parent=manifest_digest(base) if base else None,
        )
        if self._sink is not None:
            if base is None:
                self._sink.put_frames("system", 0, system_images)
                self._sink.put_text(BOOTSTRAP_NAME, bootstrap_text)
                self._sink.put_text("config.json", self.config.to_json() + "\n")
            self._sink.put_manifest(manifest)
            self._sink.close()
        if base is not None:
            # Reflect the medium's Bootstrap in the returned artefact (the
            # sink is closed, so the superseding layout is fully readable).
            with open_source(self._spec) as source:
                bootstrap_text = source.get_text(BOOTSTRAP_NAME)
        self.archive = MicrOlonysArchive(
            manifest=manifest,
            data_emblem_images=self._images,
            system_emblem_images=list(system_images),
            bootstrap_text=bootstrap_text,
        )
        return self.archive

    def abort(self) -> None:
        """Drop the session without assembling an archive.

        An append session rolls its target back to the pre-append state
        (no half-written generation is ever finalised onto the medium).
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(_EOF)
        self._thread.join()
        with self._state_lock:
            self._error = None
        if self._sink is not None:
            self._sink.abort()

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# --------------------------------------------------------------------------- #
# Facade entry points
# --------------------------------------------------------------------------- #
def _resolve_config(
    config: object,
    overrides: dict[str, object],
    manifest: ArchiveManifest | None = None,
) -> ArchiveConfig:
    """The session config: ``config`` or a default, plus keyword overrides.

    Without a ``config``, an archive ``manifest`` describes itself: its
    embedded config is used verbatim, and a manifest that predates embedded
    configs (v1) supplies the media profile, codec, payload kind and
    segment size.  With neither, the default :class:`ArchiveConfig` applies.
    """
    if config is None:
        if manifest is None:
            config = ArchiveConfig()
        elif manifest.config is not None:
            config = ArchiveConfig.from_dict(manifest.config)
        else:
            config = ArchiveConfig(
                media=manifest.profile_name,
                codec=manifest.dbcoder_profile,
                payload_kind=manifest.payload_kind,
                segment_size=manifest.segment_size,
            )
    elif not isinstance(config, ArchiveConfig):
        raise ConfigError(
            f"config must be an ArchiveConfig or None, got {type(config).__name__} "
            f"{config!r:.60}; pass an archive target to open_archive as target=..., "
            "and config overrides to open_archive/open_restore as keywords"
        )
    return config.replace(**overrides) if overrides else config


def _resolve_append(
    target: "str | Path | TargetSpec",
    config: object,
    overrides: dict[str, object],
) -> "tuple[ArchiveConfig, ArchiveManifest]":
    """The session config and superseding base manifest of an append.

    Without an explicit ``config`` the target describes itself, exactly as
    in :func:`open_restore`; either way the resolved config must name the
    same media profile, codec and outer-code choice the archive was written
    with — an appended generation has to decode under the stack the
    superseded generations already committed to the medium.  The payload
    kind is the base manifest's unless ``overrides`` name one.
    """
    with open_source(target) as source:
        base = source.manifest()
    config = _resolve_config(config, overrides, base)
    if "payload_kind" not in overrides:
        config = config.replace(payload_kind=base.payload_kind)
    if config.media != media_name(base.profile_name):
        raise ArchiveError(
            f"cannot append with media {config.media!r} to an archive written "
            f"on {base.profile_name!r}; the emblem geometry must match"
        )
    if config.codec != codec_name(base.dbcoder_profile):
        raise ArchiveError(
            f"cannot append with codec {config.codec!r} to an archive written "
            f"with {base.dbcoder_profile!r}"
        )
    if base.config is not None and bool(base.config.get("outer_code", True)) != config.outer_code:
        raise ArchiveError(
            "cannot append with a different outer_code setting than the "
            "archive was written with"
        )
    return config, base


def open_archive(
    config: ArchiveConfig | None = None,
    *,
    on_batch: Callable[[EncodedSegment], None] | None = None,
    collect: bool | None = None,
    target: "str | Path | TargetSpec | None" = None,
    append: bool = False,
    **overrides: object,
) -> ArchiveWriter:
    """Open a streaming archival session.

    ``config`` defaults to ``ArchiveConfig()``; keyword ``overrides`` are
    applied on top (``open_archive(media="paper", codec="dense")``).
    ``on_batch`` receives each completed segment as an
    :class:`~repro.pipeline.EncodedSegment`: its
    :class:`~repro.core.archive.SegmentRecord` and emblem images, so a
    recorder-facing consumer can persist frames as they are emitted.  It
    runs on the encoder thread.  ``collect=False`` drops each batch's images
    after the callback — peak memory then stays bounded by the executor
    window regardless of payload size.

    ``target`` persists the archive through the :mod:`repro.store` backend
    its spelling names (:mod:`repro.store.target`: ``dir:``, ``file:``,
    ``mem:``, ``vol:`` or a filesystem path): frames stream onto the target
    as they encode and ``collect`` defaults to ``False``, so
    ``open_archive(..., target="file:backup.ule")`` writes an arbitrarily
    large archive in bounded memory.

    ``append=True`` *extends* an existing target instead of creating one —
    true incremental backup: the session resumes frame numbering and
    payload offsets from the target's superseding manifest, streams the new
    payload through the same pipeline, and closes by writing a manifest one
    generation up (``parent``-pinned to the old one) whose cumulative
    segment list makes :meth:`ArchiveReader.read_range` /
    :meth:`~ArchiveReader.restore_segment` work transparently across the
    generation boundary.  When no ``config`` is given the target describes
    itself, exactly as in :func:`open_restore`; the media profile, codec and
    outer-code choice must match the archive being extended, and the
    payload kind stays the extended archive's unless ``payload_kind=``
    overrides it.
    """
    if append:
        if target is None:
            raise ArchiveError("open_archive(append=True) needs a target to extend")
        # Parse once up front: the base-manifest read and the writer share
        # one spec.
        spec = parse_target(target)
        config, base = _resolve_append(spec, config, overrides)
        return ArchiveWriter(
            config, on_batch=on_batch, collect=collect, target=spec, append_base=base
        )
    config = _resolve_config(config, overrides)
    return ArchiveWriter(config, on_batch=on_batch, collect=collect, target=target)


def open_restore(
    source: "MicrOlonysArchive | ArchiveSource | str | Path | TargetSpec",
    config: ArchiveConfig | None = None,
    *,
    segment_cache: SegmentCacheLike | None = None,
    **overrides: object,
) -> ArchiveReader:
    """Open a restoration session over an archive artefact or store target.

    ``segment_cache`` (any :class:`SegmentCacheLike`, e.g.
    :class:`repro.server.SegmentCache`) lets partial restores serve covering
    segments whose SHA-256 digest is already cached without fetching or
    decoding anything; decoded misses are admitted on the way out.  Because
    keys are content digests, one cache is safely shared across readers,
    archives and generations.

    ``source`` may be an in-memory :class:`~repro.core.archive.
    MicrOlonysArchive`, an open :class:`~repro.store.ArchiveSource`, or a
    target naming a saved archive (a ``dir:``/``file:``/``mem:``/``vol:``
    URI or a filesystem path, see :mod:`repro.store.target`).  Store-backed
    sessions open *cold*: only the manifest is read up front, and every read
    fetches a segment's frames when the decode reaches it — a full
    :meth:`~ArchiveReader.read` holds only the segments in flight, and
    :meth:`ArchiveReader.read_range` / :meth:`~ArchiveReader.restore_segment`
    fetch and decode just the segments they need.  The config's
    ``decode_mode`` applies to all of them alike.

    When no ``config`` is given, the archive describes itself: a v2
    manifest's embedded config is used verbatim, a v1 manifest supplies the
    media profile and codec — exactly the paper's self-description
    discipline; ``overrides`` then adjust individual fields
    (``open_restore(path, decode_mode="dynarisc")``).
    """
    archive: MicrOlonysArchive | None = None
    archive_source: ArchiveSource | None = None
    if isinstance(source, MicrOlonysArchive):
        archive = source
        manifest = archive.manifest
        config = _resolve_config(config, overrides, manifest)
    elif isinstance(source, ArchiveSource):
        archive_source = source
        manifest = archive_source.manifest()
        config = _resolve_config(config, overrides, manifest)
    else:
        archive_source = open_source(source)
        try:
            manifest = archive_source.manifest()
            config = _resolve_config(config, overrides, manifest)
        except BaseException:
            archive_source.close()
            raise
    reader = ArchiveReader(archive, config, source=archive_source, segment_cache=segment_cache)
    reader._manifest = manifest
    return reader


@dataclass
class EndToEndResult:
    """Everything produced by one :func:`run_end_to_end` run."""

    config: ArchiveConfig
    archive: MicrOlonysArchive
    restoration: RestorationResult
    frames_recorded: int
    channel_name: str
    notes: list[str] = field(default_factory=list)

    @property
    def payload(self) -> bytes:
        """The restored payload bytes."""
        return self.restoration.payload

    @property
    def ok(self) -> bool:
        """True when restoration completed (it is bit-exact by construction)."""
        return self.restoration.bit_exact


def run_end_to_end(
    config: ArchiveConfig | None = None,
    payload: bytes = b"",
    **overrides: object,
) -> EndToEndResult:
    """All seven steps of Figure 2a plus restoration, in one call.

    Archives ``payload`` with the configured codec and media profile,
    **records** the emblems onto the configured channel and **scans** them
    back (step 7 — the simulated analog hop every other entry point leaves
    out), then restores from the degraded scans and integrity-checks the
    result.  Raises :class:`~repro.errors.RestorationError` (or a media
    error) if the chain is not bit-exact; on success the returned
    :class:`EndToEndResult` carries the archive, the scan statistics and the
    restored payload.
    """
    config = _resolve_config(config, overrides)
    with open_archive(config) as writer:
        writer.write(payload)
    archive = writer.archive

    # Step 7 + restoration: the analog hop *streams* — each segment's frames
    # are recorded onto the configured medium, scanned back (with
    # batching-invariant per-frame seeding) and decoded as one job through
    # the configured executor, instead of staging whole-archive record and
    # scan passes.
    with open_restore(archive, config) as reader:
        restoration = reader.read_via_channel(seed=config.scan_seed)
    if restoration.payload != payload:
        raise RestorationError(
            "end-to-end restoration returned different bytes than were archived"
        )
    manifest = archive.manifest
    return EndToEndResult(
        config=config,
        archive=archive,
        restoration=restoration,
        frames_recorded=manifest.data_emblem_count + manifest.system_emblem_count,
        channel_name=config.channel().name,
        notes=list(restoration.notes),
    )
