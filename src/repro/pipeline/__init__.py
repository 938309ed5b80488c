"""Streaming, chunked archival/restore pipeline (segment scheduler + coders).

Splits payloads into fixed-size segments, runs DBCoder + MOCoder per segment
through a pluggable executor (serial / thread / process), and emits emblem
batches incrementally so peak memory is bounded by the segment size rather
than the payload size.  See :mod:`repro.pipeline.pipeline` for the flow and
:class:`~repro.core.archive.SegmentRecord` for the manifest metadata that
makes segments independently restorable.
"""

from repro.pipeline.executors import (
    ProcessPoolSegmentExecutor,
    SegmentExecutor,
    SerialExecutor,
    ThreadPoolSegmentExecutor,
    get_executor,
)
from repro.pipeline.pipeline import (
    ArchivePipeline,
    ChannelSpec,
    DecodedSegment,
    EncodedSegment,
    RestorePipeline,
    build_system_artifacts,
    merge_reports,
)
from repro.pipeline.segmenter import DEFAULT_SEGMENT_SIZE, Segment, iter_segments, segment_count

__all__ = [
    "ArchivePipeline",
    "ChannelSpec",
    "RestorePipeline",
    "EncodedSegment",
    "DecodedSegment",
    "build_system_artifacts",
    "merge_reports",
    "SegmentExecutor",
    "SerialExecutor",
    "ThreadPoolSegmentExecutor",
    "ProcessPoolSegmentExecutor",
    "get_executor",
    "DEFAULT_SEGMENT_SIZE",
    "Segment",
    "iter_segments",
    "segment_count",
]
