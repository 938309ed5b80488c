"""Session-based streaming I/O over the archival pipeline.

:func:`open_archive` returns an :class:`ArchiveWriter` — a context manager
that accepts payload chunks of any size via :meth:`~ArchiveWriter.write` and
encodes them *while they arrive*: a background thread drives the streaming
pipeline over a bounded queue, so segments encode (optionally in parallel)
concurrently with the caller producing data, and per-segment progress
callbacks fire as emblem batches complete.  :func:`open_restore` returns the
reading half, an :class:`~repro.api.reader.ArchiveReader` running the six
restoration steps of Figure 2b, and :func:`run_end_to_end` runs all seven
steps of Figure 2a — including step 7's channel ``record``/``scan`` — plus
the restore in one call.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
from types import TracebackType
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.api.config import ArchiveConfig
from repro.api.reader import ArchiveReader, RestorationResult, SegmentCacheLike
from repro.core.archive import ArchiveManifest, MicrOlonysArchive, SegmentRecord
from repro.errors import ArchiveError, RestorationError
from repro.pipeline.pipeline import (
    ArchivePipeline,
    EncodedSegment,
    build_system_artifacts,
)
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
    thread while the caller keeps writing; at most a bounded window of
    chunks and in-flight segments exist at once.  ``progress`` (if given) is
    called with each completed :class:`~repro.core.archive.SegmentRecord`,
    from the encoder thread.

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
        payload_kind: str | None = None,
        progress: Callable[[SegmentRecord], None] | None = None,
        on_batch: Callable[[EncodedSegment], None] | None = None,
        collect: bool | None = None,
        target: "str | Path | None" = None,
        store: str | None = None,
        append_base: ArchiveManifest | None = None,
    ):
        self.config = config
        self.payload_kind = payload_kind if payload_kind is not None else config.payload_kind
        self.progress = progress
        self.on_batch = on_batch
        self.target = target
        self._store = store
        #: The parsed target spec every store operation of this session
        #: routes through — one :func:`repro.store.parse_target` call per
        #: session, so the bare-path deprecation warns once and ``vol:``
        #: geometry defaults (``config.volume_parity``/``volume_stripe``)
        #: apply only when *creating* a volume set (an appended set's
        #: geometry is read back from the medium instead).
        self._spec: TargetSpec | None = None
        if target is not None:
            self._spec = parse_target(
                target,
                store=store if store is not None else config.store,
                default_store=None if append_base is not None else "directory",
            )
            if append_base is None:
                self._spec = self._spec.with_volume_defaults(
                    config.volume_parity, config.volume_stripe
                )
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
        #: Rebasing offsets: an append session resumes the frame, segment and
        #: byte numbering of the superseded manifest, so the new manifest's
        #: cumulative segment list stays monotone across generations.
        self._base_frames = append_base.data_emblem_count if append_base else 0
        self._base_segments = len(append_base.segments) if append_base else 0
        self._base_bytes = append_base.archive_bytes if append_base else 0
        self._frames_written = self._base_frames
        self.archive: MicrOlonysArchive | None = None
        self._profile = config.media_profile()
        self._pipeline = ArchivePipeline(
            profile=self._profile,
            dbcoder_profile=config.resolve_codec(),
            outer_code=config.outer_code,
            segment_size=config.segment_size,
            executor=config.executor,
        )
        self._queue: "queue.Queue[bytes | object]" = queue.Queue(maxsize=8)
        self._records: list[SegmentRecord] = []
        self._images: list[np.ndarray] = []
        # The encoder thread stores a failure here; the caller's thread
        # consumes (reads *and clears*) it — that pair must be atomic or two
        # racing callers could both observe, or both miss, the error.
        self._state_lock = threading.Lock()
        self._error: BaseException | None = None  # lint: guarded-by(_state_lock)
        # zlib.crc32 chains: crc32(a + b) == crc32(b, crc32(a)), so seeding
        # with the base manifest's CRC makes the appended manifest's
        # archive_crc32 exactly the CRC of the concatenated payload.
        self._crc = append_base.archive_crc32 if append_base else 0
        self._length = self._base_bytes
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

    def _rebase(self, record: SegmentRecord) -> SegmentRecord:
        """Renumber a pipeline-local record into the archive-wide sequence."""
        if self._base is None:
            return record
        return dataclasses.replace(
            record,
            index=record.index + self._base_segments,
            offset=record.offset + self._base_bytes,
            emblem_start=record.emblem_start + self._base_frames,
        )

    def _encode_loop(self) -> None:
        try:
            for batch in self._pipeline.iter_encode(self._chunks()):
                batch.record = self._rebase(batch.record)
                self._records.append(batch.record)
                if self._sink is not None:
                    # One batched call per segment: the container sink turns
                    # this into a single coalesced write instead of one
                    # stream write per frame.
                    self._sink.put_frames("data", self._frames_written, batch.images)
                    self._frames_written += len(batch.images)
                if self.collect:
                    self._images.extend(batch.images)
                if self.on_batch is not None:
                    self.on_batch(batch)
                if self.progress is not None:
                    self.progress(batch.record)
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
            dbcoder_profile=self._pipeline.codec.manifest_name,
            archive_bytes=self._length,
            archive_crc32=self._crc,
            data_emblem_count=sum(record.emblem_count for record in segments),
            system_emblem_count=system_count,
            payload_kind=self.payload_kind,
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
            system_emblem_images=system_images,
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
    config: ArchiveConfig | None, overrides: dict[str, object]
) -> ArchiveConfig:
    """Default config + keyword overrides, validated once."""
    config = config if config is not None else ArchiveConfig()
    return config.replace(**overrides) if overrides else config


def _resolve_append(
    target: "str | Path | TargetSpec",
    store: str | None,
    config: ArchiveConfig | None,
    overrides: dict[str, object],
) -> "tuple[ArchiveConfig, ArchiveManifest]":
    """The session config and superseding base manifest of an append.

    Without an explicit ``config`` the target describes itself, exactly as
    in :func:`open_restore`; either way the resolved config must name the
    same media profile, codec and outer-code choice the archive was written
    with — an appended generation has to decode under the stack the
    superseded generations already committed to the medium.
    """
    from repro import registry  # lazy: registry imports repro.store

    with open_source(target, store) as source:
        base = source.manifest()
    if config is None:
        if base.config is not None:
            config = ArchiveConfig.from_dict(base.config)
        else:
            config = ArchiveConfig(
                media=base.profile_name,
                codec=base.dbcoder_profile,
                payload_kind=base.payload_kind,
                segment_size=base.segment_size,
            )
    if overrides:
        config = config.replace(**overrides)
    if config.media != registry.media.resolve_name(base.profile_name):
        raise ArchiveError(
            f"cannot append with media {config.media!r} to an archive written "
            f"on {base.profile_name!r}; the emblem geometry must match"
        )
    if config.codec != registry.codecs.resolve_name(base.dbcoder_profile):
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
    payload_kind: str | None = None,
    progress: Callable[[SegmentRecord], None] | None = None,
    on_batch: Callable[[EncodedSegment], None] | None = None,
    collect: bool | None = None,
    target: "str | Path | None" = None,
    store: str | None = None,
    append: bool = False,
    **overrides: object,
) -> ArchiveWriter:
    """Open a streaming archival session.

    ``config`` defaults to ``ArchiveConfig()``; keyword ``overrides`` are
    applied on top (``open_archive(media="paper", codec="dense")``).
    ``progress`` receives each completed
    :class:`~repro.core.archive.SegmentRecord`; ``on_batch`` additionally
    receives the emblem images (an :class:`~repro.pipeline.EncodedSegment`),
    so a recorder-facing consumer can persist frames as they are emitted.
    Both callbacks run on the encoder thread.  ``collect=False`` drops each
    batch's images after the callbacks — peak memory then stays bounded by
    the executor window regardless of payload size.

    ``target`` persists the archive through a :mod:`repro.store` backend
    (``store`` names it explicitly: ``"directory"``, ``"container"``,
    ``"memory"``; otherwise ``config.store`` or the target's shape decides):
    frames stream onto the target as they encode and ``collect`` defaults to
    ``False``, so ``open_archive(..., target="backup.ule", store="container")``
    writes an arbitrarily large archive in bounded memory.

    ``append=True`` *extends* an existing target instead of creating one —
    true incremental backup: the session resumes frame numbering and
    payload offsets from the target's superseding manifest, streams the new
    payload through the same pipeline, and closes by writing a manifest one
    generation up (``parent``-pinned to the old one) whose cumulative
    segment list makes :meth:`ArchiveReader.read_range` /
    :meth:`~ArchiveReader.restore_segment` work transparently across the
    generation boundary.  When no ``config`` is given the target describes
    itself, exactly as in :func:`open_restore`; the media profile, codec and
    outer-code choice must match the archive being extended.
    """
    if append:
        if target is None:
            raise ArchiveError("open_archive(append=True) needs a target to extend")
        # Parse once up front so the bare-path deprecation warns a single
        # time and both the base-manifest read and the writer share one spec.
        spec = parse_target(target, store=store)
        config, base = _resolve_append(spec, None, config, overrides)
        if payload_kind is None:
            payload_kind = base.payload_kind
        return ArchiveWriter(
            config, payload_kind=payload_kind, progress=progress, on_batch=on_batch,
            collect=collect, target=spec, store=None, append_base=base,
        )
    config = _resolve_config(config, overrides)
    return ArchiveWriter(
        config, payload_kind=payload_kind, progress=progress, on_batch=on_batch,
        collect=collect, target=target, store=store,
    )


def open_restore(
    source: "MicrOlonysArchive | ArchiveSource | str | Path | TargetSpec",
    config: ArchiveConfig | None = None,
    *,
    store: str | None = None,
    on_segment: Callable[[SegmentRecord], None] | None = None,
    via_channel: bool = False,
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

    ``via_channel=True`` makes :meth:`ArchiveReader.read` re-run the
    simulated record/scan cycle first, through the streaming per-batch
    channel path (equivalent to calling
    :meth:`~ArchiveReader.read_via_channel` explicitly).

    ``source`` may be an in-memory :class:`~repro.core.archive.
    MicrOlonysArchive`, an open :class:`~repro.store.ArchiveSource`, or a
    path/key to a saved archive — a directory, a single-file container, or a
    ``mem:`` target (``store`` forces the backend; otherwise the layout is
    sniffed).  Store-backed sessions open *cold*: only the manifest is read
    up front, so :meth:`ArchiveReader.read_range` /
    :meth:`~ArchiveReader.restore_segment` fetch and decode just the
    segments they need.

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
    elif isinstance(source, ArchiveSource):
        archive_source = source
        manifest = archive_source.manifest()
    else:
        archive_source = open_source(source, store)
        manifest = archive_source.manifest()
    if config is None:
        if manifest.config is not None:
            config = ArchiveConfig.from_dict(manifest.config)
        else:
            config = ArchiveConfig(
                media=manifest.profile_name,
                codec=manifest.dbcoder_profile,
                payload_kind=manifest.payload_kind,
                segment_size=manifest.segment_size,
            )
    if overrides:
        config = config.replace(**overrides)
    reader = ArchiveReader(
        archive, config, source=archive_source, on_segment=on_segment,
        via_channel=via_channel, segment_cache=segment_cache,
    )
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
    *,
    payload_kind: str | None = None,
    progress: Callable[[SegmentRecord], None] | None = None,
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
    with open_archive(config, payload_kind=payload_kind, progress=progress) as writer:
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
