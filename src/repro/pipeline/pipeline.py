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
others to be re-decoded.  Within a segment the restore reads data frames
first: the rest of a segment (its parity frames) is fetched and decoded only
when one of its data frames fails or is absent
(:func:`~repro.mocoder.mocoder.stream_layout` says where each frame sits).
:class:`RestorePipeline` is the only code that turns scans into payload
bytes; :class:`repro.api.ArchiveReader` drives it.
"""

from __future__ import annotations

import functools
import hashlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    from repro.media.channel import MediaChannel

from repro.core.archive import ArchiveManifest, SegmentRecord
from repro.core.profiles import MediaProfile, TEST_PROFILE
from repro.bootstrap.document import build_bootstrap
from repro.dbcoder.dbcoder import Profile
from repro.dynarisc.programs import get_program
from repro.errors import RestorationError
from repro.mocoder.emblem import AbsentFrame, EmblemKind, EmblemSpec, Frame
from repro.mocoder.mocoder import (
    DecodedRun,
    DecodeReport,
    Emblem,
    FrameGroup,
    MOCoder,
    merge_runs,
    stream_layout,
)
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
        self, images: Sequence[Frame], frame_start: int, lane: int = 0
    ) -> list[Frame]:
        """Record ``images`` onto the simulated medium and scan them back;
        an :class:`~repro.mocoder.emblem.AbsentFrame` stays absent."""
        channel = self.build_channel()
        scans = list(images)
        present = [
            (at, image) for at, image in enumerate(images) if not isinstance(image, AbsentFrame)
        ]
        for start, run in _contiguous_runs(present):
            scans[start:start + len(run)] = channel.scan_frames(
                channel.record(run), seed=self.seed, start_index=frame_start + start, lane=lane
            ).images
        return scans


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


#: ``fetch(start, count)``: a stream's frames from position ``start``,
#: ``count`` of them or (``None``) through its last frame.
FrameRun = Callable[[int, "int | None"], Sequence[Frame]]


@dataclass(frozen=True)
class _DecodeJob:
    """Runs of one segment's scans: all of them, or a chunk of them."""

    spec: EmblemSpec
    outer_code: bool
    record: SegmentRecord
    #: Codec registry name from the archive manifest (``"PORTABLE"`` and
    #: friends resolve case-insensitively to the built-ins); ``None`` stops
    #: the decode at the DBCoder container.
    codec: str | None
    #: The segment's frame layout; ``None`` when every frame is decoded.
    layout: tuple[FrameGroup, ...] | None
    #: How many jobs the segment was split into (1: this job may finish it).
    chunk_count: int
    #: ``(segment position of the first scan, scans)`` runs.
    runs: list[tuple[int, list[Frame]]]
    #: When set, the job records/scans its images through the simulated
    #: medium before decoding (streaming channel simulation).
    channel: ChannelSpec | None = None


@dataclass(frozen=True)
class _DecodedChunk:
    """A job's decoded runs, finished into their segment on the consuming thread."""

    record: SegmentRecord
    chunk_count: int
    runs: list[DecodedRun]
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


def _decode_run(
    mocoder: MOCoder,
    first_index: int,
    start: int,
    frames: Sequence[Frame],
    report: DecodeReport,
    channel: ChannelSpec | None = None,
    lane: int = 0,
) -> DecodedRun:
    """Decode the run of a stream's frames at position ``start``.

    ``first_index + start`` is the run's first frame index: it seeds the
    channel's per-frame scans and numbers the report's failures.
    """
    if channel is not None:
        frames = channel.simulate(frames, first_index + start, lane=lane)
    report.emblems_seen += len(frames)
    emblems = mocoder.decode_images(frames, report, first_index + start)
    return DecodedRun(start, len(frames), emblems)


def _decode_job(job: _DecodeJob) -> "DecodedSegment | _DecodedChunk":
    """Step 5 for one job: scanned rasters -> emblems.

    A job holding a whole segment also finishes it (group reassembly, codec
    decode, hash check) in the executor when its data frames fill every data
    slot.  Otherwise, and for every chunk of a split segment, the decoded
    runs go back to the consumer, which decodes the rest of the segment if
    it must and finishes it.
    """
    mocoder = MOCoder(job.spec, outer_code=job.outer_code)
    report = DecodeReport()
    runs = [
        _decode_run(mocoder, job.record.emblem_start, start, frames, report, job.channel)
        for start, frames in job.runs
    ]
    if job.chunk_count == 1 and (
        job.layout is None or mocoder.covers_data(job.layout, runs)
    ):
        return _finish_segment(mocoder, job.record, merge_runs(runs), report, job.codec)
    return _DecodedChunk(job.record, job.chunk_count, runs, report)


class _StreamRead:
    """One emblem stream read data-first, driven from the consuming thread.

    :meth:`first_runs` fetches once, from the stream's first frame through
    its last data frame, and returns the data frames' runs; the parity frames
    of inner groups come along in that fetch and are held undecoded.  When
    the decoded data frames leave a data slot empty, or a decoded header
    disagrees with the layout, :meth:`follow_up` decodes every frame not yet
    decoded (the held parity, and the last group's, fetched then), which is
    exactly what decoding every frame gives.  No frame is fetched or decoded
    twice.  ``every_frame`` (the verify audit), and a frame count no encode
    produces, read every frame at once.
    """

    def __init__(
        self,
        mocoder: MOCoder,
        frame_count: int,
        fetch: FrameRun,
        *,
        first_index: int = 0,
        every_frame: bool = False,
        channel: ChannelSpec | None = None,
        lane: int = 0,
    ):
        self.mocoder = mocoder
        self.layout = (
            None if every_frame else stream_layout(frame_count, mocoder.outer_code_enabled)
        )
        self._fetch = fetch
        self._first_index = first_index
        self._channel = channel
        self._lane = lane
        #: Fetched but undecoded runs: the inner groups' parity frames.
        self._held: list[tuple[int, Sequence[Frame]]] = []

    def first_runs(self) -> list[tuple[int, Sequence[Frame]]]:
        """Fetch and return the runs to decode first: data frames, or every frame."""
        if self.layout is None:
            return [(0, self._fetch(0, None))]
        frames = self._fetch(0, self.layout[-1].data_end)
        runs = [(group.start, frames[group.start:group.data_end]) for group in self.layout]
        self._held = [
            (group.data_end, frames[group.data_end:group.end]) for group in self.layout[:-1]
        ]
        return [(start, run) for start, run in runs if run]

    def decode(self, start: int, frames: Sequence[Frame], report: DecodeReport) -> DecodedRun:
        return _decode_run(
            self.mocoder, self._first_index, start, frames, report, self._channel, self._lane
        )

    def follow_up(self, runs: list[DecodedRun], report: DecodeReport) -> dict[int, Emblem]:
        """Decode the rest when ``runs`` fall short; merge everything in stream order."""
        if self.layout is not None and not self.mocoder.covers_data(self.layout, runs):
            data_end = self.layout[-1].data_end
            rest = self._held + [(data_end, self._fetch(data_end, None))]
            runs = runs + [self.decode(start, frames, report) for start, frames in rest if frames]
        return merge_runs(runs)


_Item = TypeVar("_Item")


def _contiguous_runs(frames: Sequence[tuple[int, _Item]]) -> list[tuple[int, list[_Item]]]:
    """Group position-tagged frames into ``(start, frames)`` runs."""
    runs: list[tuple[int, list[_Item]]] = []
    for position, frame in frames:
        if runs and runs[-1][0] + len(runs[-1][1]) == position:
            runs[-1][1].append(frame)
        else:
            runs.append((position, [frame]))
    return runs


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
        merged.failed_frames.extend(report.failed_frames)
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
        Executor spec or instance mapping the per-segment decode jobs.  A
        segment of at least ``2 * MIN_DECODE_CHUNK`` data frames splits them
        into up to ``executor.workers`` chunks decoded as independent jobs
        (the group reassembly runs on the consuming thread), so one huge
        segment does not bound restore latency; ``serial`` runs one job at a
        time and never splits.
    channel:
        Optional :class:`ChannelSpec`.  When set, every decode job *records*
        its emblem rasters onto the named medium and *scans* them back
        (per-frame seeded) before decoding — streaming channel simulation,
        batch by batch through the executor.
    outer_code:
        Whether the archive's streams carry 3 parity frames per group of 17
        data frames (its manifest's ``outer_code``).
    """

    def __init__(
        self,
        profile: MediaProfile = TEST_PROFILE,
        executor: str | SegmentExecutor = "serial",
        channel: ChannelSpec | None = None,
        outer_code: bool = True,
    ):
        self.profile = profile
        self.executor = executor
        self.channel = channel
        self.outer_code = outer_code
        self._owns_executor = not isinstance(self.executor, SegmentExecutor)

    def iter_decode(
        self,
        manifest: ArchiveManifest,
        records: Iterable[SegmentRecord],
        frames_for: "Callable[[SegmentRecord, int, int | None], Sequence[Frame]]",
        decode_payload: bool = True,
        *,
        every_frame: bool = False,
    ) -> Iterator[DecodedSegment]:
        """Decode ``records`` in order, fetching each segment's frames on demand.

        ``frames_for(record, start, count)`` returns a run of the segment's
        frames from position ``start`` (``count=None``: through its last
        frame).  It is called lazily, inside the executor's bounded
        submission window, so a storage-backed caller only ever pulls frames
        of the segments being decoded — and of those, on a clean medium,
        one run from the first frame through the last data frame.  When one
        of its data frames fails or is absent, or a decoded header disagrees
        with the segment's layout (scans out of order, foreign), the rest of
        the segment is fetched and decoded on the consuming thread, which
        restores what decoding every frame upfront would.  ``every_frame``
        decodes every frame from the start: the verify audit.

        Each segment is verified against its record's CRC-32 and SHA-256;
        ``decode_payload=False`` stops at the DBCoder container (the
        emulated modes run the database-layout decoder themselves).
        ``map_ordered`` preserves submission order, so all chunks of one
        segment arrive consecutively and the segment finishes as soon as its
        last chunk lands, while later jobs keep decoding in the executor.
        """
        spec = self.profile.spec
        mocoder = MOCoder(spec, outer_code=self.outer_code)
        codec = (manifest.dbcoder_profile or "portable") if decode_payload else None
        executor = get_executor(self.executor)
        reads: deque[_StreamRead] = deque()

        def jobs() -> Iterator[_DecodeJob]:
            for record in records:
                read = _StreamRead(
                    mocoder, record.emblem_count, functools.partial(frames_for, record),
                    first_index=record.emblem_start, every_frame=every_frame,
                    channel=self.channel,
                )
                reads.append(read)
                frames = [
                    (start + offset, frame)
                    for start, run in read.first_runs()
                    for offset, frame in enumerate(run)
                ]
                # Floored chunks: a small segment is one vectorised decode
                # call, so fanning it out would only add executor round-trips.
                bounds = chunk_bounds(len(frames), executor.workers, min_chunk=MIN_DECODE_CHUNK)
                for start, end in bounds:
                    yield _DecodeJob(
                        spec=spec,
                        outer_code=self.outer_code,
                        record=record,
                        codec=codec,
                        layout=read.layout,
                        chunk_count=len(bounds),
                        runs=_contiguous_runs(frames[start:end]),
                        channel=self.channel,
                    )

        chunks: list[_DecodedChunk] = []
        try:
            for result in executor.map_ordered(_decode_job, jobs()):
                if isinstance(result, DecodedSegment):
                    reads.popleft()
                    yield result
                    continue
                chunks.append(result)
                if len(chunks) == result.chunk_count:
                    runs = [run for chunk in chunks for run in chunk.runs]
                    report = merge_reports(chunk.report for chunk in chunks)
                    emblems = reads.popleft().follow_up(runs, report)
                    yield _finish_segment(mocoder, result.record, emblems, report, codec)
                    chunks = []
        finally:
            if self._owns_executor:
                executor.close()

    def decode_system(self, frame_count: int, fetch: FrameRun) -> tuple[bytes, DecodeReport]:
        """Decode the system stream (the archived decoder) on this thread.

        It reads like a segment: ``fetch(start, count)`` runs as
        ``frames_for`` does in :meth:`iter_decode`, data frames first and the
        rest only when they fall short; the channel scans it on lane 1 of
        the per-frame seed space.
        """
        mocoder = MOCoder(self.profile.spec, outer_code=self.outer_code)
        read = _StreamRead(mocoder, frame_count, fetch, channel=self.channel, lane=1)
        report = DecodeReport()
        runs = [read.decode(start, frames, report) for start, frames in read.first_runs()]
        return mocoder.assemble(read.follow_up(runs, report), report)


# --------------------------------------------------------------------------- #
# Sub-segment chunking
# --------------------------------------------------------------------------- #
#: Floor on scans per decode chunk.  The batched decode path amortises its
#: per-call numpy dispatch across a whole chunk, so splitting a small segment
#: across executor workers costs more (job pickling, thread wake-ups, a GIL'd
#: merge) than it saves — a 2-way split measured *0.89x of serial* on the
#: 287-frame bench smoke payload before this floor collapsed such segments
#: to one chunk.
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
