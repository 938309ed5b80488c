"""The streaming, chunked archival/restore pipeline.

A one-shot flow that materialises the payload, the DBCoder container and
every emblem raster at once is fine for the paper's 1.2 MB SQL archive and
hopeless for multi-gigabyte dumps.  This module splits the seven-step flow
(Figure 2a) at the payload layer:

* the :mod:`~repro.pipeline.segmenter` slices the payload into fixed-size
  segments, reading file-like sources incrementally;
* each segment runs **DBCoder encode + MOCoder encode** independently — its
  own container, its own emblem stream, its own outer-code parity groups —
  through a pluggable :mod:`~repro.pipeline.executors` backend (serial,
  thread pool, process pool);
* emblem batches are emitted *incrementally and in payload order*, so a
  consumer can write frames to the recorder as they appear; peak memory is
  bounded by ``segment_size * executor.window`` instead of the payload size.

Restoration mirrors the split: every :class:`~repro.core.archive.
SegmentRecord` names the emblem frames of one segment, so segments decode
independently (and in parallel), and damage in one segment never forces the
others to be re-decoded.  :class:`RestorePipeline` is the only code that
turns scans into payload bytes; :class:`repro.api.ArchiveReader` drives it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    from repro.media.channel import MediaChannel

from repro.core.archive import ArchiveManifest, SegmentRecord
from repro.core.profiles import MediaProfile, TEST_PROFILE
from repro.bootstrap.document import build_bootstrap
from repro.dbcoder.dbcoder import Profile
from repro.dynarisc.programs import get_program
from repro.errors import RestorationError
from repro.mocoder.emblem import EmblemKind, EmblemSpec
from repro.mocoder.mocoder import DecodeReport, Emblem, MOCoder
from repro.nested import dynarisc_emulator_image
from repro.pipeline.executors import SegmentExecutor, get_executor
from repro.pipeline.segmenter import (
    DEFAULT_SEGMENT_SIZE,
    PayloadSource,
    iter_segments,
)
from repro.util.crc import crc32_of

__all__ = [
    "ArchivePipeline",
    "ChannelSpec",
    "RestorePipeline",
    "EncodedSegment",
    "DecodedSegment",
    "build_system_artifacts",
]


# --------------------------------------------------------------------------- #
# Streaming channel simulation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChannelSpec:
    """Picklable description of the simulated analog hop (step 7).

    Decode jobs that carry a ``ChannelSpec`` *record* their segment's emblem
    rasters onto the named medium and *scan* them back (with per-frame
    seeding, see :meth:`repro.media.channel.MediaChannel.scan_frames`) before
    decoding — the channel simulation streams batch by batch through the
    executor instead of staging a whole-archive record/scan pass.  Everything
    is named through :mod:`repro.registry` so the spec pickles into
    process-pool workers.
    """

    #: Media profile registry name (the channel factory).
    media: str
    #: Optional distortion-profile registry name overriding the channel default.
    distortion: str | None = None
    #: Base scan seed; per-frame streams derive from (seed, lane, frame index).
    seed: int | None = None

    def build_channel(self) -> "MediaChannel":
        """Instantiate the named channel (the single construction point —
        callers on the consumer thread and in executor workers alike must
        build channels here so every lane simulates the same medium)."""
        from repro import registry  # deferred: registry imports this package

        channel = registry.get_media(self.media).channel()
        if self.distortion is not None:
            channel.distortion = registry.get_distortion(self.distortion)
        return channel

    def simulate(
        self, images: list[np.ndarray], frame_start: int, lane: int = 0
    ) -> list[np.ndarray]:
        """Record ``images`` onto the simulated medium and scan them back."""
        channel = self.build_channel()
        frames = channel.record(list(images))
        return channel.scan_frames(
            frames, seed=self.seed, start_index=frame_start, lane=lane
        ).images


def resolve_decode_executor(
    executor: "str | SegmentExecutor | None", decode_parallelism: int
) -> "str | SegmentExecutor | None":
    """The executor sub-segment decoding should actually run on.

    ``decode_parallelism`` > 1 over the default ``"serial"`` executor would
    be a silent no-op (chunks would still decode one after another), so the
    combination upgrades to a thread pool sized to the parallelism.  Any
    explicit executor choice — another name, a ``name:N`` spec, or an
    instance — is respected as given.
    """
    if decode_parallelism > 1 and (executor is None or executor == "serial"):
        return f"thread:{decode_parallelism}"
    return executor


# --------------------------------------------------------------------------- #
# Per-segment jobs (module-level and plain-data so process pools can use them)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _EncodeJob:
    spec: EmblemSpec
    #: Registry name of the compression codec (see :data:`repro.registry.codecs`);
    #: a plain string so the job pickles into process-pool workers.
    codec: str
    outer_code: bool
    kind: int
    index: int
    offset: int
    data: bytes


@dataclass(frozen=True)
class _EncodeResult:
    index: int
    offset: int
    length: int
    crc32: int
    sha256: str
    container_bytes: int
    #: All of the segment's rasters in one (count, H, W) array.  Inside one
    #: address space (serial/thread executors) the consumer slices views out
    #: of this buffer — zero copies; across a process pool the single array
    #: pickles as one contiguous buffer instead of one pickle frame per
    #: raster.
    images: np.ndarray


def _encode_segment_job(job: _EncodeJob) -> _EncodeResult:
    """Steps 2-3 for one segment: DBCoder container -> emblem rasters."""
    from repro import registry  # deferred: registry imports this package

    container = registry.get_codec(job.codec).encode(job.data)
    mocoder = MOCoder(job.spec, outer_code=job.outer_code)
    stream = mocoder.encode(container, kind=EmblemKind(job.kind))
    return _EncodeResult(
        index=job.index,
        offset=job.offset,
        length=len(job.data),
        crc32=crc32_of(job.data),
        sha256=hashlib.sha256(job.data).hexdigest(),
        container_bytes=len(container),
        images=stream.images_array(),
    )


@dataclass(frozen=True)
class _DecodeJob:
    """One segment's scans, or one contiguous chunk of them."""

    spec: EmblemSpec
    record: SegmentRecord
    #: Codec registry name from the archive manifest (``"PORTABLE"`` and
    #: friends resolve case-insensitively to the built-ins); ``None`` stops
    #: the decode at the DBCoder container.
    codec: str | None
    #: Index of ``images[0]`` within the segment's scans, and how many
    #: chunks the segment was split into (1: this job finishes the segment).
    chunk_start: int
    chunk_count: int
    images: list[np.ndarray]
    #: When set, the job records/scans its images through the simulated
    #: medium before decoding (streaming channel simulation).
    channel: ChannelSpec | None = None


@dataclass(frozen=True)
class _DecodedChunk:
    """One chunk's emblems, merged into its segment on the consuming thread."""

    record: SegmentRecord
    chunk_count: int
    emblems: dict[int, Emblem]
    report: DecodeReport


def _verify_segment_payload(record: SegmentRecord, payload: bytes) -> None:
    """Check one restored segment against its manifest record."""
    if len(payload) != record.length or crc32_of(payload) != record.crc32:
        raise RestorationError(
            f"segment {record.index}: restored bytes do not match the "
            "manifest's segment length/CRC"
        )
    # v2 manifests additionally pin a SHA-256 over the segment payload.
    if (
        record.sha256 is not None
        and hashlib.sha256(payload).hexdigest() != record.sha256
    ):
        raise RestorationError(
            f"segment {record.index}: restored bytes do not match the "
            "manifest's segment SHA-256 content hash"
        )


def _finish_segment(
    mocoder: MOCoder,
    record: SegmentRecord,
    emblems: dict[int, Emblem],
    report: DecodeReport,
    codec: str | None,
) -> "DecodedSegment":
    """Reassemble a segment's container; with a codec, decode and verify it."""
    from repro import registry  # deferred: registry imports this package

    container, report = mocoder.assemble(emblems, report)
    payload = None
    if codec is not None:
        payload = registry.get_codec(codec).decode(container)
        _verify_segment_payload(record, payload)
    return DecodedSegment(record=record, payload=payload, report=report, container=container)


def _decode_job(job: _DecodeJob) -> "DecodedSegment | _DecodedChunk":
    """Step 5 for one job: scanned rasters -> emblems.

    A job holding a whole segment also finishes it (group reassembly, codec
    decode, hash check) in the executor; a chunk's emblems go back to the
    consumer, which finishes the segment once all of its chunks are in.
    """
    images = list(job.images)
    if job.channel is not None:
        images = job.channel.simulate(images, job.record.emblem_start + job.chunk_start)
    mocoder = MOCoder(job.spec)
    report = DecodeReport(emblems_seen=len(images))
    emblems = mocoder.decode_images(images, report, image_offset=job.chunk_start)
    if job.chunk_count > 1:
        return _DecodedChunk(job.record, job.chunk_count, emblems, report)
    return _finish_segment(mocoder, job.record, emblems, report, job.codec)


# --------------------------------------------------------------------------- #
# Public result types
# --------------------------------------------------------------------------- #
@dataclass
class EncodedSegment:
    """One segment's emblem batch, emitted incrementally by the pipeline."""

    record: SegmentRecord
    images: list[np.ndarray]


@dataclass
class DecodedSegment:
    """One segment restored back to its DBCoder container and payload bytes."""

    record: SegmentRecord
    #: The verified payload; ``None`` when decoding stopped at the container.
    payload: bytes | None
    report: DecodeReport
    container: bytes


def merge_reports(reports: Iterable[DecodeReport]) -> DecodeReport:
    """Aggregate per-segment decode statistics into one report."""
    merged = DecodeReport()
    for report in reports:
        merged.emblems_seen += report.emblems_seen
        merged.emblems_decoded += report.emblems_decoded
        merged.emblems_failed += report.emblems_failed
        merged.rs_corrections += report.rs_corrections
        merged.groups_reconstructed += report.groups_reconstructed
        merged.failures.extend(report.failures)
    return merged


def build_system_artifacts(
    profile: MediaProfile, outer_code: bool = True
) -> tuple[list[np.ndarray], str]:
    """Steps 4-6 of the archival flow.

    Returns the system emblem images (the archived DBCoder decoder) and the
    rendered Bootstrap text; neither depends on the payload, so the pipeline
    builds them once per archive regardless of the segment count.
    """
    system_mocoder = MOCoder(profile.spec, outer_code=outer_code)
    dbcoder_decoder = get_program("lzss_decoder")
    system_stream = system_mocoder.encode(dbcoder_decoder.code, kind=EmblemKind.SYSTEM)
    emulator = dynarisc_emulator_image()
    mocoder_decoder = get_program("manchester_unpack")
    bootstrap = build_bootstrap(
        dynarisc_emulator_image=emulator.to_bytes(),
        mocoder_decoder_image=mocoder_decoder.code,
        dynarisc_entry=emulator.entry,
        mocoder_entry=mocoder_decoder.entry,
    )
    return system_stream.images(), bootstrap.render()


# --------------------------------------------------------------------------- #
# Archival
# --------------------------------------------------------------------------- #
class ArchivePipeline:
    """Streaming, chunked archival: payload source -> emblem batches.

    Parameters
    ----------
    profile:
        Media profile selecting the emblem geometry.
    dbcoder_profile:
        Compression codec applied to every segment: a
        :class:`~repro.dbcoder.Profile`, a registry name (``"portable"``,
        ``"dense"``, ... — including user codecs registered with
        :func:`repro.registry.register_codec`), or a
        :class:`~repro.registry.Codec` instance.
    outer_code:
        Whether each segment's emblem stream gets 17+3 parity groups.
    segment_size:
        Payload bytes per segment; ``None`` keeps the whole payload in one
        segment (the one-shot behaviour).
    executor:
        Executor name (``"serial"``, ``"thread[:N]"``, ``"process[:N]"``,
        ``"auto"``) or a :class:`~repro.pipeline.executors.SegmentExecutor`
        instance.
    """

    def __init__(
        self,
        profile: MediaProfile = TEST_PROFILE,
        dbcoder_profile: "Profile | str" = Profile.PORTABLE,
        outer_code: bool = True,
        segment_size: int | None = DEFAULT_SEGMENT_SIZE,
        executor: str | SegmentExecutor = "serial",
    ):
        from repro import registry  # deferred: registry imports this package
        from repro.errors import RegistryError

        self.profile = profile
        self.codec = registry.get_codec(dbcoder_profile)
        # Jobs ship only the codec *name* (they must pickle into workers), so
        # the codec has to be resolvable by name wherever jobs run — fail
        # fast here rather than deep inside an executor.
        if self.codec.name not in registry.codecs:
            raise RegistryError(
                f"codec {self.codec.name!r} is not registered; register it with "
                "repro.registry.register_codec() (or registry.codecs.register) "
                "before constructing a pipeline — segment jobs resolve codecs "
                "by name"
            )
        #: The built-in DBCoder profile, or ``None`` for user codecs.
        self.dbcoder_profile = self.codec.profile
        self.outer_code = outer_code
        self.segment_size = segment_size
        self.executor = executor
        self._owns_executor = not isinstance(executor, SegmentExecutor)

    # ------------------------------------------------------------------ #
    def iter_encode(
        self,
        source: PayloadSource,
        kind: EmblemKind = EmblemKind.DATA,
    ) -> Iterator[EncodedSegment]:
        """Encode ``source`` segment by segment, yielding emblem batches.

        Batches arrive in payload order; only ``executor.window`` segments
        are in flight at once, so a consumer that writes each batch to the
        medium and drops it holds O(segment) memory for any payload size.
        """
        executor = get_executor(self.executor)

        def jobs() -> Iterator[_EncodeJob]:
            for segment in iter_segments(source, self.segment_size):
                yield _EncodeJob(
                    spec=self.profile.spec,
                    codec=self.codec.name,
                    outer_code=self.outer_code,
                    kind=int(kind),
                    index=segment.index,
                    offset=segment.offset,
                    data=segment.data,
                )

        emblem_start = 0
        try:
            for result in executor.map_ordered(_encode_segment_job, jobs()):
                record = SegmentRecord(
                    index=result.index,
                    offset=result.offset,
                    length=result.length,
                    crc32=result.crc32,
                    emblem_start=emblem_start,
                    emblem_count=len(result.images),
                    container_bytes=result.container_bytes,
                    sha256=result.sha256,
                )
                emblem_start += record.emblem_count
                # list() of the (count, H, W) batch yields per-frame views
                # sharing the batch buffer — no per-frame copies.
                yield EncodedSegment(record=record, images=list(result.images))
        finally:
            if self._owns_executor:
                executor.close()


# --------------------------------------------------------------------------- #
# Restoration
# --------------------------------------------------------------------------- #
class RestorePipeline:
    """Per-segment restoration: scanned emblem rasters -> payload bytes.

    Parameters
    ----------
    profile:
        Media profile whose emblem spec the scans were produced with.
    executor:
        Executor spec or instance mapping the per-segment (or per-chunk)
        decode jobs.
    channel:
        Optional :class:`ChannelSpec`.  When set, every decode job *records*
        its emblem rasters onto the named medium and *scans* them back
        (per-frame seeded) before decoding — streaming channel simulation,
        batch by batch through the executor.
    decode_parallelism:
        Sub-segment parallelism: when > 1, each segment's scans are split
        into up to that many contiguous chunks decoded as independent
        executor jobs (the serial group reassembly runs on the consuming
        thread), so one huge segment no longer bounds restore latency.
        Chunks never shrink below :data:`MIN_DECODE_CHUNK` scans.
    """

    def __init__(
        self,
        profile: MediaProfile = TEST_PROFILE,
        executor: str | SegmentExecutor = "serial",
        channel: ChannelSpec | None = None,
        decode_parallelism: int = 1,
    ):
        self.profile = profile
        self.decode_parallelism = max(1, int(decode_parallelism))
        self.executor = resolve_decode_executor(executor, self.decode_parallelism)
        self.channel = channel
        self._owns_executor = not isinstance(self.executor, SegmentExecutor)

    def iter_decode(
        self,
        manifest: ArchiveManifest,
        records: Iterable[SegmentRecord],
        frames_for: "Callable[[SegmentRecord], list[np.ndarray]]",
        decode_payload: bool = True,
    ) -> Iterator[DecodedSegment]:
        """Decode ``records`` in order, fetching each segment's frames on demand.

        ``frames_for`` is called lazily (inside the executor's bounded
        submission window) with one record at a time, so a storage-backed
        caller only ever pulls the frames of the segments actually being
        decoded.  Each segment is verified against its record's CRC-32 and
        SHA-256; ``decode_payload=False`` stops at the DBCoder container
        (the emulated modes run the database-layout decoder themselves).

        ``map_ordered`` preserves submission order, so all chunks of one
        segment arrive consecutively and the segment finishes as soon as its
        last chunk lands, while later jobs keep decoding in the executor.
        """
        spec = self.profile.spec
        mocoder = MOCoder(spec)
        codec = (manifest.dbcoder_profile or "portable") if decode_payload else None

        def jobs() -> Iterator[_DecodeJob]:
            for record in records:
                images = frames_for(record)
                # Floored chunks: a small segment is one vectorised decode
                # call, so fanning it out would only add executor round-trips.
                bounds = chunk_bounds(
                    len(images), self.decode_parallelism, min_chunk=MIN_DECODE_CHUNK
                )
                for start, end in bounds:
                    yield _DecodeJob(
                        spec=spec,
                        record=record,
                        codec=codec,
                        chunk_start=start,
                        chunk_count=len(bounds),
                        images=images[start:end],
                        channel=self.channel,
                    )

        executor = get_executor(self.executor)
        chunks: list[_DecodedChunk] = []
        try:
            for result in executor.map_ordered(_decode_job, jobs()):
                if isinstance(result, DecodedSegment):
                    yield result
                    continue
                chunks.append(result)
                if len(chunks) == result.chunk_count:
                    emblems: dict[int, Emblem] = {}
                    for chunk in chunks:
                        emblems.update(chunk.emblems)
                    report = merge_reports(chunk.report for chunk in chunks)
                    yield _finish_segment(mocoder, result.record, emblems, report, codec)
                    chunks = []
        finally:
            if self._owns_executor:
                executor.close()


# --------------------------------------------------------------------------- #
# Sub-segment chunking
# --------------------------------------------------------------------------- #
#: Floor on scans per decode chunk.  The batched decode path amortises its
#: per-call numpy dispatch across a whole chunk, so splitting a small segment
#: across executor workers costs more (job pickling, thread wake-ups, a GIL'd
#: merge) than it saves — ``decode_parallelism=2`` measured *0.89x of serial*
#: on the 287-frame bench smoke payload before this floor collapsed such
#: segments to one chunk.
MIN_DECODE_CHUNK = 160


def chunk_bounds(count: int, parts: int, min_chunk: int = 1) -> list[tuple[int, int]]:
    """Split ``count`` items into at most ``parts`` contiguous (start, end) runs.

    Runs differ in length by at most one and never come back empty, so the
    split is deterministic and every item lands in exactly one run.
    ``min_chunk`` caps ``parts`` so no run is shorter than it (a single run
    is always allowed): the restore pipeline passes :data:`MIN_DECODE_CHUNK`
    so small segments stay one job instead of paying executor overhead per
    near-empty chunk.
    """
    if min_chunk > 1:
        parts = min(parts, count // min_chunk)
    parts = max(1, min(parts, count)) if count else 1
    base, extra = divmod(count, parts)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(parts):
        end = start + base + (1 if index < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds
