"""Payload segmentation for the streaming archival pipeline.

Feeding the *whole* payload through DBCoder and MOCoder at once makes peak
memory scale with the payload.  The pipeline instead slices the payload into
fixed-size segments; each segment flows through the coders independently,
so peak memory is bounded by the segment size (times the number of
in-flight segments) no matter how large the payload is.

Sources may be ``bytes``, a binary file object, or any iterable of byte
chunks; file objects and iterables are consumed incrementally — the full
payload is never materialised here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Union

from repro.util.crc import crc32_of

#: Default pipeline segment size (1 MiB of payload per segment).
DEFAULT_SEGMENT_SIZE = 1 << 20

#: Anything the segmenter can slice into segments.
PayloadSource = Union[bytes, bytearray, memoryview, BinaryIO, Iterable[bytes]]


@dataclass(frozen=True)
class Segment:
    """One contiguous slice of the payload, ready to be encoded."""

    index: int
    offset: int
    data: bytes

    @property
    def length(self) -> int:
        """Number of payload bytes in this segment."""
        return len(self.data)

    @property
    def crc32(self) -> int:
        """CRC-32 of exactly this segment's bytes."""
        return crc32_of(self.data)


def segment_count(total_length: int, segment_size: int | None) -> int:
    """Number of segments a payload of ``total_length`` bytes splits into."""
    if segment_size is None or total_length <= 0:
        return 1
    if segment_size <= 0:
        raise ValueError(f"segment size must be positive, got {segment_size}")
    return -(-total_length // segment_size)


def iter_segments(source: PayloadSource, segment_size: int | None) -> Iterator[Segment]:
    """Slice ``source`` into :class:`Segment` objects of ``segment_size`` bytes.

    ``segment_size=None`` yields a single segment spanning the whole payload
    (the one-shot mode).  An empty payload still yields one empty segment so
    every archive has at least one segment record.
    """
    if segment_size is not None and segment_size <= 0:
        raise ValueError(f"segment size must be positive, got {segment_size}")
    if isinstance(source, (bytes, bytearray, memoryview)):
        # Sized in-memory sources are sliced in place: no pending buffer, no
        # second copy of the payload.
        view = memoryview(source)
        step = len(view) if segment_size is None else segment_size
        index = 0
        offset = 0
        while offset < len(view):
            data = bytes(view[offset:offset + step])
            yield Segment(index=index, offset=offset, data=data)
            index += 1
            offset += len(data)
        if index == 0:
            yield Segment(index=0, offset=0, data=b"")
        return
    if hasattr(source, "read"):
        chunks: Iterable[bytes] = _iter_file_chunks(
            source, segment_size or DEFAULT_SEGMENT_SIZE
        )
    else:
        chunks = source

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


def _iter_file_chunks(stream: BinaryIO, chunk_size: int) -> Iterator[bytes]:
    """Read a binary file object in bounded chunks."""
    while True:
        chunk = stream.read(chunk_size)
        if not chunk:
            return
        yield chunk
