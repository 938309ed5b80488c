"""Streaming, chunked archival/restore pipeline (segment scheduler + coders).

Splits payloads into fixed-size segments, runs DBCoder + MOCoder per segment
through a pluggable executor (serial / thread / process), and emits emblem
batches incrementally so peak memory is bounded by the segment size rather
than the payload size.  See :mod:`repro.pipeline.pipeline` for the flow and
:class:`~repro.core.archive.SegmentRecord` for the manifest metadata that
makes segments independently restorable.

The flow's entry points are the sessions of :mod:`repro.api`:
``open_archive`` encodes segment by segment (``on_batch=`` sees each emblem
batch) and ``open_restore`` decodes.  This package exports the pieces those
sessions and their callbacks handle, not a second way to archive or restore.
"""

from repro.pipeline.executors import (
    ProcessPoolSegmentExecutor,
    SegmentExecutor,
    SerialExecutor,
    ThreadPoolSegmentExecutor,
    get_executor,
)
from repro.pipeline.pipeline import (
    ChannelSpec,
    DecodedSegment,
    EncodedSegment,
    build_system_artifacts,
    merge_reports,
)
from repro.pipeline.segmenter import DEFAULT_SEGMENT_SIZE, Segment, iter_segments, segment_count

__all__ = [
    "ChannelSpec",
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
