"""Payload segmentation for the streaming archival pipeline.

Feeding the *whole* payload through DBCoder and MOCoder at once makes peak
memory scale with the payload.  The pipeline instead slices the payload into
fixed-size segments; each segment flows through the coders independently,
so peak memory is bounded by the segment size (times the number of
in-flight segments) no matter how large the payload is.

The payload arrives as an iterable of byte chunks of any size (an archive
session's ``write`` calls), consumed incrementally — the full payload is
never materialised here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: Default pipeline segment size (1 MiB of payload per segment).
DEFAULT_SEGMENT_SIZE = 1 << 20


@dataclass(frozen=True)
class Segment:
    """One contiguous slice of the payload, ready to be encoded."""

    index: int
    offset: int
    data: bytes


def segment_count(total_length: int, segment_size: int | None) -> int:
    """Number of segments a payload of ``total_length`` bytes splits into."""
    if segment_size is None or total_length <= 0:
        return 1
    if segment_size <= 0:
        raise ValueError(f"segment size must be positive, got {segment_size}")
    return -(-total_length // segment_size)


def iter_segments(chunks: Iterable[bytes], segment_size: int | None) -> Iterator[Segment]:
    """Cut the byte ``chunks`` into :class:`Segment` objects of ``segment_size``
    bytes, whatever the chunks' own sizes.

    ``segment_size=None`` yields a single segment spanning the whole payload
    (the one-shot mode).  An empty payload still yields one empty segment so
    every archive has at least one segment record.
    """
    if segment_size is not None and segment_size <= 0:
        raise ValueError(f"segment size must be positive, got {segment_size}")
    index = 0
    offset = 0
    pending = bytearray()
    consumed = 0
    for chunk in chunks:
        pending.extend(chunk)
        if segment_size is None:
            continue
        # Cut segments against a moving start index; the buffer is compacted
        # once per incoming chunk, not once per segment.
        while len(pending) - consumed >= segment_size:
            data = bytes(pending[consumed:consumed + segment_size])
            consumed += segment_size
            yield Segment(index=index, offset=offset, data=data)
            index += 1
            offset += len(data)
        if consumed:
            del pending[:consumed]
            consumed = 0
    if pending or index == 0:
        yield Segment(index=index, offset=offset, data=bytes(pending))
