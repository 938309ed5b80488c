"""The restoration session: :class:`ArchiveReader` and what it returns.

:func:`repro.api.open_restore` opens an :class:`ArchiveReader`, the one way
to restore an archive.  It runs the six restoration steps of Figure 2b over
the archive artefact, a simulated channel, externally produced scans or a
store target, decodes every data stream through
:class:`~repro.pipeline.RestorePipeline`, and checks archives on their
target (:meth:`ArchiveReader.verify`).
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass, field
from types import TracebackType
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.api.config import ArchiveConfig
from repro.bootstrap.document import BootstrapDocument
from repro.core.archive import ArchiveManifest, MicrOlonysArchive, SegmentRecord
from repro.dbcoder.dbcoder import Profile
from repro.dbcoder.formats import unpack_container
from repro.dbms.database import Database
from repro.dbms.dump import db_load
from repro.dynarisc.emulator import DynaRiscEmulator
from repro.errors import (
    ArchiveError,
    ExecutionLimitExceeded,
    ReproError,
    RestorationError,
    StoreError,
)
from repro.mocoder.mocoder import DecodeReport, MOCoder
from repro.nested import NestedDynaRiscMachine
from repro.pipeline.executors import SegmentExecutor, get_executor
from repro.pipeline.pipeline import (
    ChannelSpec,
    DecodedSegment,
    RestorePipeline,
    merge_reports,
    resolve_decode_executor,
)
from repro.store import (
    BOOTSTRAP_NAME,
    ArchiveSource,
    FramePrefetcher,
    frame_record_name,
    load_archive,
    manifest_digest,
    manifest_generation_of,
)
from repro.util.crc import crc32_of

__all__ = [
    "ArchiveReader",
    "GenerationInfo",
    "RestorationResult",
    "SegmentCacheLike",
    "VerifyReport",
]


class SegmentCacheLike(Protocol):
    """What :class:`ArchiveReader` needs from a shared decoded-segment cache.

    Keys are the manifest-v3 per-segment SHA-256 hex digests — *content*
    addresses, so an appended generation or a re-uploaded archive can never
    serve stale bytes through a matching key: different payload bytes hash
    to a different key.  Implementations must be safe for concurrent calls
    from multiple threads (:class:`repro.server.SegmentCache`, shared across
    request handlers, is the canonical one).
    """

    def get(self, key: str) -> bytes | None:
        """The cached payload for ``key``, or ``None`` on a miss."""
        ...  # pragma: no cover - protocol

    def put(self, key: str, data: bytes) -> None:
        """Admit ``data`` under ``key`` (the cache may decline or evict)."""
        ...  # pragma: no cover - protocol


@dataclass
class GenerationInfo:
    """One manifest generation found on a store target during verify."""

    generation: int
    record_name: str
    #: ``"active"`` (the superseding manifest), ``"superseded"`` (a valid
    #: older generation kept for lineage/fallback) or ``"damaged"``.
    status: str
    segments: int = 0
    archive_bytes: int = 0
    digest: str | None = None
    parent: str | None = None

    def to_dict(self) -> dict[str, object]:
        return dict(self.__dict__)


@dataclass
class VerifyReport:
    """What :meth:`ArchiveReader.verify` found on one archive target.

    ``errors`` are integrity violations (a missing/corrupt frame, a failed
    segment hash, a broken lineage); ``warnings`` are survivable oddities;
    ``orphaned`` lists records the superseding manifest does not reference
    (typically the complete frames of a torn append) and ``superseded`` the
    older generations' manifest records, which are *expected* residents of
    an appendable archive.
    """

    deep: bool = True
    generations: list[GenerationInfo] = field(default_factory=list)
    segments_checked: int = 0
    frames_checked: int = 0
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    orphaned: list[str] = field(default_factory=list)
    superseded: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no integrity violation was found."""
        return not self.errors

    @property
    def active_generation(self) -> int | None:
        """The superseding manifest's generation, when one was readable."""
        for info in self.generations:
            if info.status == "active":
                return info.generation
        return None

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "deep": self.deep,
            "active_generation": self.active_generation,
            "generations": [info.to_dict() for info in self.generations],
            "segments_checked": self.segments_checked,
            "frames_checked": self.frames_checked,
            "errors": list(self.errors),
            "warnings": list(self.warnings),
            "orphaned": list(self.orphaned),
            "superseded": list(self.superseded),
        }


@dataclass
class RestorationResult:
    """Everything recovered from a scanned archive."""

    payload: bytes
    database: Database | None
    archive_text: str | None
    data_report: DecodeReport
    system_report: DecodeReport | None
    decode_mode: str
    emulator_steps: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def bit_exact(self) -> bool:
        """True when every integrity check passed (always true on success)."""
        return True


def _restore_units(manifest: ArchiveManifest) -> tuple[SegmentRecord, ...]:
    """The manifest's segment records, or one record spanning the payload.

    A pre-pipeline (v1) manifest carries no segment records; its archive
    length and CRC-32 describe the single unit the whole payload forms.
    """
    if manifest.segments:
        return manifest.segments
    whole = SegmentRecord(
        index=0,
        offset=0,
        length=manifest.archive_bytes,
        crc32=manifest.archive_crc32,
        emblem_start=0,
        emblem_count=manifest.data_emblem_count,
        container_bytes=0,
    )
    return (whole,)


class ArchiveReader:
    """A restoration session (returned by :func:`open_restore`).

    The reader runs the six restoration steps of Figure 2b, as a future
    user would perform them:

    1. scan the medium; OCR the Bootstrap text and image-preprocess the
       emblems — here the scans come from the archive artefact, a simulated
       :class:`~repro.media.channel.MediaChannel` or :meth:`read_from_scans`;
    2. implement the VeRisc emulator from the Bootstrap pseudocode (the
       portability benchmark exercises independent implementations; the
       library ships the reference one);
    3. instantiate the archived DynaRisc emulator and the MOCoder decoder;
    4. decode the *system emblems* to obtain the DBCoder decoder;
    5. decode the *data emblems* through the
       :class:`~repro.pipeline.RestorePipeline`, then run the DBCoder decoder
       on the result to obtain the SQL text archive;
    6. load the archive into a present-day DBMS (:func:`repro.dbms.db_load`).

    ``config.decode_mode`` selects how faithfully step 5 runs: ``"python"``
    uses the reference decoders, ``"dynarisc"`` runs the archived DBCoder
    decoder under the DynaRisc emulator, and ``"nested"`` runs it inside the
    full VeRisc-hosted nested emulator — the complete ULE chain.
    ``read()`` restores straight from the archive artefact,
    ``read_via_channel()`` re-runs the simulated record/scan cycle first.

    When the session was opened over a :mod:`repro.store` target (a saved
    directory, a container file, or a ``mem:`` key), the reader is
    **random-access**: :meth:`restore_segment` and :meth:`read_range` use
    the manifest to locate, fetch, decode and hash-verify only the segments
    covering the request — no other frame is read from the medium, and
    multi-segment requests decode in parallel through the configured
    executor.  ``on_segment`` (if given) is called with each
    :class:`~repro.core.archive.SegmentRecord` a partial restore decodes,
    and :attr:`segments_decoded` / :attr:`frames_decoded` tally the work
    done across the session's partial reads.

    The session builds one executor on first use and shares it across every
    restore, partial read and verify; :meth:`close` (or leaving the ``with``
    block) releases it.
    """

    def __init__(
        self,
        archive: MicrOlonysArchive | None,
        config: ArchiveConfig,
        *,
        source: ArchiveSource | None = None,
        on_segment: Callable[[SegmentRecord], None] | None = None,
        via_channel: bool = False,
        segment_cache: SegmentCacheLike | None = None,
    ):
        if archive is None and source is None:
            raise ArchiveError("an ArchiveReader needs an archive artefact or a store source")
        self._archive = archive
        self._source = source
        self._manifest = archive.manifest if archive is not None else None
        self.config = config
        self.on_segment = on_segment
        #: When true, :meth:`read` routes through the simulated record/scan
        #: cycle (the streaming channel path) instead of reading the
        #: artefact's pristine rasters directly.
        self.via_channel = via_channel
        #: Shared decoded-segment cache consulted by partial restores; keys
        #: are per-segment SHA-256 digests, so it may be shared across
        #: readers, archives and (server) request threads.
        self.segment_cache = segment_cache
        #: Partial-restore work counters (full ``read()`` reports its own
        #: statistics through the returned :class:`RestorationResult`).
        #: ``segments_cached`` counts covering segments served from
        #: ``segment_cache`` without touching the medium; the ``on_segment``
        #: hook fires only for segments actually decoded.
        self.segments_decoded = 0
        self.frames_decoded = 0
        self.segments_cached = 0
        self._profile = config.media_profile()
        self._executor: SegmentExecutor | None = None

    # ------------------------------------------------------------------ #
    @property
    def manifest(self) -> ArchiveManifest:
        """The archive manifest (loaded without touching any frame)."""
        if self._manifest is None:
            self._manifest = self._source.manifest()
        return self._manifest

    @property
    def archive(self) -> MicrOlonysArchive:
        """The full archive artefact (materialises every frame on demand)."""
        if self._archive is None:
            self._archive = load_archive(self._source)
            self._manifest = self._archive.manifest
        return self._archive

    def _pipeline(self, channel: ChannelSpec | None = None) -> RestorePipeline:
        """A restore pipeline over the session's executor (built once)."""
        if self._executor is None:
            self._executor = get_executor(
                resolve_decode_executor(self.config.executor, self.config.decode_parallelism)
            )
        return RestorePipeline(
            self._profile,
            executor=self._executor,
            channel=channel,
            decode_parallelism=self.config.decode_parallelism,
        )

    def _frames(self, record: SegmentRecord) -> list[np.ndarray]:
        """The data frames of one segment, from the source or the artefact."""
        if self._archive is not None:
            end = record.emblem_start + record.emblem_count
            frames = self._archive.data_emblem_images[record.emblem_start:end]
            if len(frames) != record.emblem_count:
                raise StoreError(
                    f"segment {record.index} expects {record.emblem_count} frames "
                    f"at {record.emblem_start}; the artefact holds {len(frames)}"
                )
            return list(frames)
        return self._source.get_frames("data", record.emblem_start, record.emblem_count)

    # ------------------------------------------------------------------ #
    def read(self) -> RestorationResult:
        """Restore the whole payload from the archive artefact.

        Sessions opened with ``via_channel=True`` re-run the simulated
        record/scan cycle (the streaming per-batch channel path) first.
        """
        if self.via_channel:
            return self.read_via_channel()
        return self._restore_archive(None)

    def read_via_channel(self, seed: int | None = None) -> RestorationResult:
        """Record on the configured medium, scan back, then restore.

        The channel simulation *streams*: each segment's frames are
        recorded, scanned (per-frame seeded) and decoded as one job through
        the configured executor, so step 7 parallelises and overlaps with
        decoding instead of staging a whole-archive record/scan pass.  The
        config names the medium and distortion, so every executor worker
        rebuilds the same channel from a :class:`~repro.pipeline.ChannelSpec`.
        """
        if seed is None:
            seed = self.config.scan_seed
        return self._restore_archive(
            ChannelSpec(media=self.config.media, distortion=self.config.distortion, seed=seed)
        )

    def read_from_scans(
        self,
        data_images: list[np.ndarray],
        system_images: "list[np.ndarray] | None" = None,
        bootstrap_text: str | None = None,
        payload_kind: str = "sql",
        manifest: ArchiveManifest | None = None,
    ) -> RestorationResult:
        """Restore from externally produced scans (steps 1-6).

        ``manifest`` defaults to the session's own.  Each segment of a
        multi-segment manifest needs one scan per recorded frame (damaged
        frames may be blank, but not absent); a one-segment or pre-pipeline
        archive is one unit spanning every scan provided, so there the outer
        code rebuilds absent frames too.

        Raises
        ------
        RestorationError
            If the recovered stream fails any of its integrity checks.
        """
        if manifest is None:
            manifest = self.manifest
        return self._restore(
            data_images, system_images, bootstrap_text, payload_kind, manifest, None
        )

    def payload(self) -> bytes:
        """Convenience: the restored payload bytes."""
        return self.read().payload

    def _restore_archive(self, channel: ChannelSpec | None) -> RestorationResult:
        archive = self.archive
        return self._restore(
            archive.data_emblem_images,
            archive.system_emblem_images,
            archive.bootstrap_text,
            archive.manifest.payload_kind,
            archive.manifest,
            channel,
        )

    def _restore(
        self,
        data_images: list[np.ndarray],
        system_images: list[np.ndarray] | None,
        bootstrap_text: str | None,
        payload_kind: str,
        manifest: ArchiveManifest,
        channel: ChannelSpec | None,
    ) -> RestorationResult:
        """Steps 1-6, optionally simulating the analog hop along the way.

        With a :class:`~repro.pipeline.ChannelSpec`, the incoming images are
        the *recorded-side* rasters: the system stream is recorded/scanned
        here (lane 1 of the per-frame seed space) and the data stream is
        recorded/scanned per batch inside the decode jobs (lane 0).
        """
        notes: list[str] = []
        mode = self.config.decode_mode

        # Steps 2-3: the Bootstrap provides the emulator and MOCoder decoder.
        if bootstrap_text is not None:
            bootstrap = BootstrapDocument.parse(bootstrap_text)
            notes.append(
                f"bootstrap verified: {len(bootstrap.sections)} sections, "
                f"{bootstrap.letter_count} letters, ~{bootstrap.page_count} pages"
            )

        # Step 4: recover the archived DBCoder decoder from the system emblems.
        system_report = None
        decoder_code: bytes | None = None
        if system_images:
            if channel is not None:
                system_images = channel.simulate(system_images, 0, lane=1)
            decoder_code, system_report = MOCoder(self._profile.spec).decode(system_images)
            notes.append(
                f"system emblems decoded: {system_report.emblems_decoded} of "
                f"{system_report.emblems_seen} scans, "
                f"{system_report.rs_corrections} symbol corrections"
            )

        # Step 5: every segment decodes through the pipeline.  The manifest
        # names the compression codec; user-registered codecs only decode
        # under the reference (python) decoders.  The emulated modes stop
        # the pipeline at each segment's container and run the archived
        # decoder on it here, once per container.
        archived_decoder = None
        if mode != "python":
            from repro import registry  # lazy: registry imports repro.store

            if not registry.get_codec(manifest.dbcoder_profile).is_builtin:
                raise RestorationError(
                    f"codec {manifest.dbcoder_profile!r} is user-registered; the "
                    "archived DynaRisc decoder only handles the PORTABLE profile — "
                    "restore with decode_mode='python'"
                )
            archived_decoder = decoder_code
            if archived_decoder is None:
                notes.append(
                    "no system emblems were provided; fell back to the reference decoder"
                )
        records = _restore_units(manifest)

        def frames_for(record: SegmentRecord) -> list[np.ndarray]:
            if len(records) == 1:
                # One unit spanning every scan: the outer code rebuilds
                # absent frames, so no scan count is required.
                return data_images
            end = record.emblem_start + record.emblem_count
            if end > len(data_images):
                raise RestorationError(
                    f"segment {record.index} expects emblem frames "
                    f"{record.emblem_start}..{end - 1} but only "
                    f"{len(data_images)} scans were provided; segmented "
                    "restore needs one scan per recorded frame (damaged "
                    "frames may be blank, but not absent)"
                )
            return data_images[record.emblem_start:end]

        parts: list[bytes] = []
        reports: list[DecodeReport] = []
        emulator_steps = 0
        pipeline = self._pipeline(channel)
        for decoded in pipeline.iter_decode(
            manifest, records, frames_for, decode_payload=archived_decoder is None
        ):
            if archived_decoder is not None:
                part, steps = self._run_archived_decoder(archived_decoder, decoded)
                emulator_steps += steps
            else:
                assert decoded.payload is not None  # decode_payload=True
                part = decoded.payload
            parts.append(part)
            reports.append(decoded.report)
        payload = b"".join(parts)
        if len(payload) != manifest.archive_bytes or crc32_of(payload) != manifest.archive_crc32:
            raise RestorationError(
                "reassembled payload does not match the manifest's archive "
                "length/CRC; the restoration is not bit-for-bit"
            )
        if channel is not None:
            notes.append(
                f"channel simulated per batch over {channel.media} "
                f"(streaming record/scan, seed={channel.seed})"
            )
        if archived_decoder is not None:
            notes.append(
                f"{len(records)} segments decoded under the {mode} emulator "
                f"({emulator_steps} emulated steps)"
            )
        else:
            notes.append(
                f"{len(records)} segments decoded independently "
                f"(executor: {self.config.executor})"
            )

        # Step 6: load the SQL archive into a present-day database.
        database = None
        archive_text = None
        if payload_kind == "sql":
            archive_text = payload.decode("utf-8")
            database = db_load(archive_text)

        return RestorationResult(
            payload=payload,
            database=database,
            archive_text=archive_text,
            data_report=merge_reports(reports),
            system_report=system_report,
            decode_mode=mode,
            emulator_steps=emulator_steps,
            notes=notes,
        )

    def _run_archived_decoder(
        self, decoder_code: bytes, decoded: DecodedSegment
    ) -> tuple[bytes, int]:
        """Decode one segment's container under the configured emulator."""
        record = decoded.record
        header, stream = unpack_container(decoded.container)
        if header.profile_id != Profile.PORTABLE:
            raise RestorationError(
                f"segment {record.index}: the archived DynaRisc decoder handles "
                f"the PORTABLE profile; this archive used DBCoder profile id "
                f"{header.profile_id}"
            )
        if self.config.decode_mode == "dynarisc":
            # The archived LZSS decoder needs at most ~32 steps per output
            # byte (all length-3 matches) and ~21 per input-plus-output byte;
            # a looping decoder from damaged or hostile system emblems must
            # fail rather than spin for hours.
            budget = 64 * (header.original_length + len(stream)) + 4096
            emulator = DynaRiscEmulator(decoder_code, input_data=stream, step_limit=budget)
            try:
                part = emulator.run(0)
            except ExecutionLimitExceeded as exc:
                raise ExecutionLimitExceeded(
                    f"segment {record.index}: the archived decoder ran past its "
                    f"budget of {budget} DynaRisc steps for {header.original_length} "
                    f"output bytes ({exc})"
                ) from exc
            steps = emulator.steps
        else:
            nested = NestedDynaRiscMachine(
                decoder_code, input_data=stream, entry=0, step_limit=2_000_000_000
            )
            part, steps = nested.run(), nested.steps
        if len(part) != header.original_length or crc32_of(part) != header.original_crc32:
            raise RestorationError(
                f"segment {record.index}: restored stream does not match the "
                "archived length/CRC; the restoration is not bit-for-bit"
            )
        return part, steps

    # ------------------------------------------------------------------ #
    # Random-access restore
    # ------------------------------------------------------------------ #
    def _decode_records(self, records: list[SegmentRecord]) -> list[bytes]:
        """Decode exactly ``records`` (in order), verifying every hash.

        With ``config.readahead`` > 0 and a store-backed session, up to that
        many segments' frames are prefetched from the backend on background
        threads while earlier segments decode — backend I/O overlaps MOCoder
        decode instead of serialising in front of it.

        With a :attr:`segment_cache`, segments whose SHA-256 digest is
        cached are served straight from memory (their frames are never
        fetched, their emblems never decoded); only the misses go through
        the pipeline, and their decoded — hash-verified — payloads are
        admitted to the cache on the way out.
        """
        cache = self.segment_cache
        parts_by_position: "list[bytes | None]" = [None] * len(records)
        misses: list[SegmentRecord] = []
        miss_positions: list[int] = []
        for position, record in enumerate(records):
            cached = (
                cache.get(record.sha256)
                if cache is not None and record.sha256 is not None
                else None
            )
            if cached is not None and len(cached) == record.length:
                parts_by_position[position] = cached
                self.segments_cached += 1
            else:
                misses.append(record)
                miss_positions.append(position)
        if misses:
            for job, payload in enumerate(self._decode_uncached(misses)):
                record = misses[job]
                parts_by_position[miss_positions[job]] = payload
                if cache is not None and record.sha256 is not None:
                    cache.put(record.sha256, payload)
        parts: list[bytes] = []
        for position, part in enumerate(parts_by_position):
            if part is None:  # a decode yielded short — never expected
                raise RestorationError(
                    f"segment {records[position].index} produced no payload"
                )
            parts.append(part)
        return parts

    def _decode_uncached(self, records: list[SegmentRecord]) -> Iterator[bytes]:
        """Pipeline-decode ``records`` (cache misses), yielding payloads in order."""
        prefetcher = None
        frames_for = self._frames
        if self.config.readahead > 0 and self._archive is None:
            prefetcher = FramePrefetcher(self._frames, records, self.config.readahead)
            frames_for = prefetcher.frames_for
        try:
            for decoded in self._pipeline().iter_decode(self.manifest, records, frames_for):
                self.segments_decoded += 1
                self.frames_decoded += decoded.record.emblem_count
                if self.on_segment is not None:
                    self.on_segment(decoded.record)
                assert decoded.payload is not None  # decode_payload=True
                yield decoded.payload
        finally:
            if prefetcher is not None:
                prefetcher.close()

    def restore_segment(self, index: int) -> bytes:
        """Decode and verify segment ``index`` alone, returning its bytes.

        Only that segment's frames are fetched and decoded; damage anywhere
        else on the medium is irrelevant to this call.  A pre-pipeline (v1)
        archive has one segment, the whole payload.
        """
        segments = _restore_units(self.manifest)
        if not 0 <= index < len(segments):
            raise ArchiveError(
                f"segment index {index} out of range (archive has {len(segments)} segments)"
            )
        return self._decode_records([segments[index]])[0]

    def read_range(self, offset: int, length: int) -> bytes:
        """Restore exactly ``payload[offset:offset + length]``.

        The manifest's logical byte ranges select the covering segments;
        only their frames are fetched and decoded (in parallel, through the
        configured executor), each verified against its archived CRC-32 and
        SHA-256 before the requested slice is cut out.  Out-of-range
        requests clamp exactly like Python byte slicing.
        """
        if offset < 0 or length < 0:
            raise ValueError("read_range offset and length must be non-negative")
        total = self.manifest.archive_bytes
        end = min(offset + length, total)
        if offset >= end:
            return b""
        segments = _restore_units(self.manifest)
        # Segments are contiguous and sorted by offset: bisect for the first
        # segment ending past `offset`, then take segments until `end`.
        starts = [record.offset for record in segments]
        first = bisect.bisect_right(starts, offset) - 1
        covering: list[SegmentRecord] = []
        for record in segments[max(first, 0):]:
            if record.offset >= end:
                break
            if record.end > offset:
                covering.append(record)
        parts = self._decode_records(covering)
        window = b"".join(parts)
        base = covering[0].offset
        return window[offset - base:end - base]

    # ------------------------------------------------------------------ #
    # fsck: multi-generation archive verification
    # ------------------------------------------------------------------ #
    def verify(self, *, deep: bool = True) -> VerifyReport:
        """Integrity-check the archive on its store target (fsck).

        Walks **every manifest generation** on the target: each one must
        parse, carry the generation its record name claims, pin its parent's
        digest, and extend its parent's segment list; the superseding
        (newest valid) manifest must additionally be internally monotone —
        contiguous segment indices, byte offsets and frame runs summing to
        its archive totals.  Records the superseding manifest does not
        reference are reported as ``orphaned`` (the footprint of a torn
        append), older manifests as ``superseded``.

        With ``deep=True`` (the default) every segment is then re-decoded
        *independently* — fetched, MOCoder-decoded and re-checked against
        its manifest CRC-32/SHA-256 through the session's executor — and the
        system-emblem stream is decoded too, all without ever assembling the
        full payload or loading a database; ``deep=False`` stops at reading
        and parsing every referenced frame raster.

        Sharded volume sets (:mod:`repro.store.volumes`) additionally get a
        **cross-shard parity audit**: unavailable member volumes are
        reported as errors, and with ``deep=True`` every shard and parity
        record is re-hashed and each stripe's parity recomputed from its
        data shards.

        Verification never raises on damage — every finding lands in the
        returned :class:`VerifyReport` (``report.ok`` summarises) — only on
        a target that is not an archive at all.
        """
        if self._source is None:
            raise ArchiveError(
                "verify needs a store-backed session (a saved directory, "
                "a container file, or a mem: target)"
            )
        source = self._source
        report = VerifyReport(deep=deep)
        names = source.names()

        # --- every generation's manifest: parse + lineage ---------------- #
        manifests: dict[int, tuple[str, ArchiveManifest]] = {}
        candidates = sorted(
            (generation, name)
            for name in names
            if (generation := manifest_generation_of(name)) is not None
        )
        for generation, name in candidates:
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", DeprecationWarning)
                    manifest = ArchiveManifest.from_json(source.get_text(name))
                for entry in caught:
                    report.warnings.append(f"{name}: {entry.message}")
            except (ReproError, ValueError) as exc:
                report.errors.append(f"{name}: unreadable manifest: {exc}")
                report.generations.append(GenerationInfo(generation, name, "damaged"))
                continue
            if manifest.generation != generation:
                report.errors.append(
                    f"{name}: record name claims generation {generation} but the "
                    f"manifest says {manifest.generation}"
                )
            manifests[generation] = (name, manifest)
        if not manifests:
            report.errors.append("no readable manifest on the target")
            return report
        active_generation = max(manifests)
        for generation in sorted(manifests):
            name, manifest = manifests[generation]
            status = "active" if generation == active_generation else "superseded"
            report.generations.append(
                GenerationInfo(
                    generation=generation,
                    record_name=name,
                    status=status,
                    segments=len(manifest.segments),
                    archive_bytes=manifest.archive_bytes,
                    digest=manifest_digest(manifest),
                    parent=manifest.parent,
                )
            )
            if status == "superseded":
                report.superseded.append(name)
            if generation == 0:
                if manifest.parent is not None:
                    report.errors.append(
                        f"{name}: generation 0 must not carry a parent digest"
                    )
                continue
            parent_entry = manifests.get(generation - 1)
            if parent_entry is None:
                report.errors.append(
                    f"{name}: parent generation {generation - 1} manifest is "
                    "missing or unreadable"
                )
                continue
            parent_name, parent_manifest = parent_entry
            if manifest.parent != manifest_digest(parent_manifest):
                report.errors.append(
                    f"{name}: parent digest does not match {parent_name}"
                )
            if manifest.segments[: len(parent_manifest.segments)] != parent_manifest.segments:
                report.errors.append(
                    f"{name}: segment list does not extend {parent_name}'s"
                )

        # --- the superseding manifest must be internally monotone --------- #
        active_name, active = manifests[active_generation]
        offset = frame = 0
        for position, record in enumerate(active.segments):
            if record.index != position:
                report.errors.append(
                    f"{active_name}: segment {position} carries index {record.index}"
                )
            if record.offset != offset or record.emblem_start != frame:
                report.errors.append(
                    f"{active_name}: segment {record.index} breaks byte/frame "
                    "contiguity"
                )
            offset += record.length
            frame += record.emblem_count
        if active.segments and (
            active.archive_bytes != offset or active.data_emblem_count != frame
        ):
            report.errors.append(
                f"{active_name}: segment totals ({offset} bytes, {frame} frames) "
                f"do not match the manifest's archive totals "
                f"({active.archive_bytes} bytes, {active.data_emblem_count} frames)"
            )

        # --- orphaned records: present but unreferenced ------------------- #
        expected = {name for _, name in candidates}
        expected.update({BOOTSTRAP_NAME, "config.json"})
        expected.update(
            frame_record_name("data", index) for index in range(active.data_emblem_count)
        )
        expected.update(
            frame_record_name("system", index)
            for index in range(active.system_emblem_count)
        )
        # Orphans (present but unreferenced — the footprint of a torn
        # append) are reported once, through this dedicated field.
        report.orphaned = sorted(set(names) - expected)
        try:
            source.get_text(BOOTSTRAP_NAME)
        except ReproError as exc:
            report.errors.append(f"{BOOTSTRAP_NAME}: {exc}")

        # --- cross-shard parity audit (sharded volume sets) --------------- #
        # A volume-set source exposes parity_audit(); single-volume sources
        # don't, and skip it.  Missing member volumes are *errors* even
        # though degraded reads still succeed: the archive is damaged and
        # has lost (some of) its erasure margin.
        parity_audit = getattr(source, "parity_audit", None)
        if parity_audit is not None:
            try:
                audit_errors, audit_warnings = parity_audit(deep=deep)
            except ReproError as exc:
                report.errors.append(f"volume parity audit: {exc}")
            else:
                report.errors.extend(f"volume set: {entry}" for entry in audit_errors)
                report.warnings.extend(f"volume set: {entry}" for entry in audit_warnings)

        # --- frames: presence/parse (shallow) or full re-decode (deep) ---- #
        if not deep:
            for kind, count in (
                ("data", active.data_emblem_count),
                ("system", active.system_emblem_count),
            ):
                for index in range(count):
                    try:
                        source.get_frame(kind, index)
                        report.frames_checked += 1
                    except ReproError as exc:
                        report.errors.append(f"{kind} frame {index}: {exc}")
            return report

        def frames_for(record: SegmentRecord) -> list[np.ndarray]:
            return source.get_frames("data", record.emblem_start, record.emblem_count)

        pipeline = self._pipeline()
        for record in active.segments:
            try:
                for _ in pipeline.iter_decode(active, [record], frames_for):
                    pass
                report.segments_checked += 1
                report.frames_checked += record.emblem_count
            except ReproError as exc:
                report.errors.append(f"segment {record.index}: {exc}")
        if active.system_emblem_count:
            try:
                system_images = source.get_frames("system", 0, active.system_emblem_count)
                MOCoder(self._profile.spec).decode(system_images)
                report.frames_checked += active.system_emblem_count
            except ReproError as exc:
                report.errors.append(f"system emblems: {exc}")
        return report

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the store source and the session executor (idempotent)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        if self._source is not None:
            self._source.close()

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        self.close()
