"""The MOCoder facade: byte streams <-> sets of emblem images.

``MOCoder.encode`` corresponds to step 3 (and 5) of the paper's archival flow:
it takes the binary stream produced by DBCoder and lays it out across data
emblems, adding three outer-code parity emblems per group of seventeen.
``MOCoder.decode`` reverses the process from scanned emblem images, applying
the inner Reed-Solomon correction per emblem and reconstructing any missing
emblems (up to three per group of twenty) from the parity emblems.
:func:`stream_layout` is the one statement of where a stream's data and
parity frames sit; the encoder writes it and the restore pipeline reads by
it, decoding the parity frames only when the data frames fall short.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import MissingEmblemError, MOCoderError, RestorationError
from repro.mocoder.emblem import (
    Emblem,
    EmblemKind,
    EmblemSpec,
    Frame,
    build_emblem,
    decode_image_batch,
    render_emblem_batch,
)
from repro.mocoder.outer_code import GROUP_DATA, GROUP_PARITY, GROUP_SIZE, OuterCode
from repro.util.crc import crc32_of


@dataclass
class EncodedStream:
    """The result of encoding one byte stream into emblems."""

    spec: EmblemSpec
    kind: EmblemKind
    stream_length: int
    emblems: list[Emblem]

    @property
    def data_emblem_count(self) -> int:
        """Number of emblems carrying stream payload."""
        return sum(1 for emblem in self.emblems if emblem.header.kind != EmblemKind.PARITY)

    @property
    def parity_emblem_count(self) -> int:
        """Number of outer-code parity emblems."""
        return len(self.emblems) - self.data_emblem_count

    def images_array(self) -> np.ndarray:
        """Render every emblem in one batched pass; shape (count, H, W).

        All emblems of a stream share one spec, so the whole stream renders
        as a single vectorised :func:`~repro.mocoder.emblem.
        render_emblem_batch` call; each ``result[i]`` is bit-identical to
        ``self.emblems[i].to_image()``.  The batch array doubles as a
        zero-copy handoff: slicing it yields views, not pickled copies.
        """
        return render_emblem_batch(self.emblems)

    def images(self) -> list[np.ndarray]:
        """Render every emblem to a raster image (views into one batch)."""
        return list(self.images_array())


#: The emblem header stores a stream's frame count in 16 bits.
MAX_STREAM_FRAMES = 0xFFFF


@dataclass(frozen=True)
class FrameGroup:
    """One outer-code group of a stream: its data frames, then its parity frames."""

    index: int
    #: Stream position of the group's first frame.
    start: int
    data: int
    parity: int

    @property
    def data_end(self) -> int:
        """Stream position just past the group's last data frame."""
        return self.start + self.data

    @property
    def end(self) -> int:
        """Stream position just past the group's last parity frame."""
        return self.data_end + self.parity


def stream_layout(frame_count: int, outer_code: bool = True) -> tuple[FrameGroup, ...] | None:
    """The groups :meth:`MOCoder.encode` lays a stream of ``frame_count`` frames out in.

    Each group is up to 17 data frames followed by 3 parity frames (none
    without the outer code), and only the last group may hold fewer data
    frames, so the frame count alone says where every data frame sits.
    ``None`` for a count the encoder never produces (a hostile manifest).
    """
    parity = GROUP_PARITY if outer_code else 0
    width = GROUP_DATA + parity
    if not 0 < frame_count <= MAX_STREAM_FRAMES or 0 < frame_count % width <= parity:
        return None
    return tuple(
        FrameGroup(index, start, min(width, frame_count - start) - parity, parity)
        for index, start in enumerate(range(0, frame_count, width))
    )


class DecodedRun(NamedTuple):
    """The emblems decoded from one contiguous run of a stream's frames."""

    #: Stream position of the run's first frame.
    start: int
    #: Frames in the run, decoded or not.
    count: int
    #: Emblem index -> emblem, as :meth:`MOCoder.decode_images` returns them.
    emblems: dict[int, Emblem]


def merge_runs(runs: Sequence[DecodedRun]) -> dict[int, Emblem]:
    """Merge decoded runs in stream order, as one pass over their frames would."""
    merged: dict[int, Emblem] = {}
    for run in sorted(runs, key=lambda run: run.start):
        merged.update(run.emblems)
    return merged


@dataclass
class DecodeReport:
    """Statistics collected while decoding a set of scanned emblems.

    A restore decodes a segment's data frames first and its parity frames
    only when a data slot stays empty, so ``emblems_seen`` counts the frames
    actually decoded, not the frames the stream holds.
    """

    emblems_seen: int = 0
    emblems_decoded: int = 0
    emblems_failed: int = 0
    rs_corrections: int = 0
    groups_reconstructed: int = 0
    failures: list[str] = field(default_factory=list)
    #: ``(frame index, reason)`` for every frame that failed to decode.
    failed_frames: list[tuple[int, str]] = field(default_factory=list)


class MOCoder:
    """Media layout coder for a given emblem specification.

    Parameters
    ----------
    spec:
        Emblem geometry/coding parameters.
    outer_code:
        When true (the default), every group of up to 17 data emblems gets 3
        parity emblems so that any 3 emblems of the group of 20 may be lost.
    """

    def __init__(self, spec: EmblemSpec, outer_code: bool = True):
        self.spec = spec
        self.outer_code_enabled = outer_code
        self._outer = OuterCode(GROUP_DATA, GROUP_PARITY)

    # ------------------------------------------------------------------ #
    # Sizing helpers
    # ------------------------------------------------------------------ #
    def data_emblems_needed(self, stream_length: int) -> int:
        """Number of data emblems required for a stream of ``stream_length`` bytes."""
        capacity = self.spec.payload_capacity
        return max(1, -(-stream_length // capacity))

    def total_emblems_needed(self, stream_length: int) -> int:
        """Total emblem count (data + parity) for a stream of ``stream_length`` bytes."""
        data = self.data_emblems_needed(stream_length)
        if not self.outer_code_enabled:
            return data
        groups = -(-data // GROUP_DATA)
        return data + groups * GROUP_PARITY

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, data: bytes, kind: EmblemKind = EmblemKind.DATA) -> EncodedStream:
        """Lay a byte stream out across emblems (plus parity emblems)."""
        if kind == EmblemKind.PARITY:
            raise MOCoderError("PARITY is reserved for outer-code emblems")
        data = bytes(data)
        capacity = self.spec.payload_capacity
        stream_crc = crc32_of(data)
        chunks = [data[offset:offset + capacity] for offset in range(0, len(data), capacity)]
        if not chunks:
            chunks = [b""]
        total = self.total_emblems_needed(len(data))
        layout = stream_layout(total, self.outer_code_enabled)
        if layout is None:
            raise MOCoderError(
                f"a stream of {total} emblems exceeds the emblem header's "
                f"{MAX_STREAM_FRAMES}-frame limit"
            )

        emblems: list[Emblem] = []
        for group in layout:
            # Every group before the last holds GROUP_DATA data frames.
            first = group.index * GROUP_DATA
            group_chunks = chunks[first:first + group.data]
            for slot, chunk in enumerate(group_chunks):
                emblems.append(
                    build_emblem(
                        spec=self.spec,
                        kind=kind,
                        index=group.start + slot,
                        total=total,
                        group_index=group.index,
                        slot_in_group=slot,
                        payload=chunk,
                        stream_length=len(data),
                        stream_crc32=stream_crc,
                    )
                )
            if group.parity:
                parity_payloads = self._outer.encode_group(list(group_chunks))
                for parity_slot, parity_payload in enumerate(parity_payloads):
                    emblems.append(
                        build_emblem(
                            spec=self.spec,
                            kind=EmblemKind.PARITY,
                            index=group.data_end + parity_slot,
                            total=total,
                            group_index=group.index,
                            slot_in_group=GROUP_DATA + parity_slot,
                            payload=parity_payload,
                            stream_length=len(data),
                            stream_crc32=stream_crc,
                        )
                    )
        return EncodedStream(
            spec=self.spec, kind=kind, stream_length=len(data), emblems=emblems
        )

    def encode_to_images(self, data: bytes, kind: EmblemKind = EmblemKind.DATA) -> list[np.ndarray]:
        """Encode a stream and render every emblem to a raster image."""
        return self.encode(data, kind).images()

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_images(
        self,
        images: Sequence[Frame],
        report: DecodeReport,
        image_offset: int = 0,
    ) -> dict[int, Emblem]:
        """Decode scanned images to emblems, recording statistics in ``report``.

        This is the per-image half of :meth:`decode` — every image is
        independent, so callers may split an emblem stream into contiguous
        runs and decode each run on its own (``image_offset`` keeps failures
        numbered by the frame index of the run's first image), then merge the
        returned ``{emblem index: emblem}`` maps with :func:`merge_runs` and
        finish with :meth:`assemble`.

        Decoding runs through the vectorised
        :func:`~repro.mocoder.emblem.decode_image_batch`; an
        :class:`~repro.mocoder.emblem.AbsentFrame` fails with its own reason.
        """
        decoded: dict[int, Emblem] = {}
        for image_index, outcome in enumerate(decode_image_batch(self.spec, images)):
            if isinstance(outcome, MOCoderError):
                report.emblems_failed += 1
                report.failures.append(f"emblem image {image_offset + image_index}: {outcome}")
                report.failed_frames.append((image_offset + image_index, str(outcome)))
                continue
            emblem, corrections = outcome
            report.emblems_decoded += 1
            report.rs_corrections += corrections
            decoded[emblem.header.index] = emblem
        return decoded

    def decode(self, images: Sequence[Frame]) -> tuple[bytes, DecodeReport]:
        """Recover the byte stream from scanned emblem images.

        Emblems may arrive in any order; missing or unreadable emblems are
        reconstructed from the outer code when no more than three emblems of
        any group of twenty are lost.

        Raises
        ------
        MissingEmblemError
            If a group lost more emblems than the outer code can rebuild.
        RestorationError
            If the reassembled stream fails its CRC-32 check.
        """
        report = DecodeReport(emblems_seen=len(images))
        return self.assemble(self.decode_images(images, report), report)

    def assemble(self, decoded: dict[int, Emblem], report: DecodeReport) -> tuple[bytes, DecodeReport]:
        """Reassemble the byte stream from decoded emblems (the serial half).

        ``decoded`` maps emblem index -> emblem, as produced by one or more
        :meth:`decode_images` calls; ``report`` carries their merged
        statistics and receives the reconstruction tallies.
        """
        if not decoded:
            raise MissingEmblemError("no emblem could be decoded from the provided scans")

        reference = next(iter(decoded.values())).header
        stream_length = reference.stream_length
        stream_crc = reference.stream_crc32
        capacity = self.spec.payload_capacity
        data_count = self.data_emblems_needed(stream_length)

        chunks, rebuilt = self._collect_chunks(
            decoded, data_count, capacity, stream_length, report
        )
        data = b"".join(chunks)[:stream_length]
        if crc32_of(data) != stream_crc:
            raise RestorationError(
                "reassembled stream fails its CRC-32 check; the archive was not "
                "restored bit-for-bit"
            )
        if rebuilt:
            report.failures.append(
                f"{rebuilt} of {data_count} data emblems were missing and reconstructed"
            )
        return data, report

    def covers_data(self, layout: tuple[FrameGroup, ...], runs: Sequence[DecodedRun]) -> bool:
        """Whether the decoded ``runs`` fill every data slot of ``layout``,
        each emblem where the layout puts it.

        ``False`` when a data slot is empty, and when a decoded header
        disagrees with ``layout``: an emblem that came from outside its own
        run (scans out of order, a foreign frame), or whose group, slot,
        kind, frame count or stream length is not what the layout puts at
        its index.  Either way only decoding every frame says what the
        stream holds.
        """
        frame_count = layout[-1].end
        data_count = sum(group.data for group in layout)
        width = GROUP_DATA + layout[0].parity
        stream: tuple[int, int] | None = None
        covered: set[int] = set()
        for run in runs:
            for index, emblem in run.emblems.items():
                header = emblem.header
                if not run.start <= index < min(run.start + run.count, frame_count):
                    return False
                group = layout[index // width]
                slot = index - group.start
                is_parity = slot >= group.data
                if is_parity:
                    slot += GROUP_DATA - group.data
                if (
                    header.total != frame_count
                    or header.group_index != group.index
                    or header.slot_in_group != slot
                    or (header.kind == EmblemKind.PARITY) != is_parity
                ):
                    return False
                if stream is None:
                    stream = (header.stream_length, header.stream_crc32)
                    if self.data_emblems_needed(header.stream_length) != data_count:
                        return False
                elif (header.stream_length, header.stream_crc32) != stream:
                    return False
                covered.add(index)
        return all(covered.issuperset(range(group.start, group.data_end)) for group in layout)

    # ------------------------------------------------------------------ #
    def _collect_chunks(
        self,
        decoded: dict[int, Emblem],
        data_count: int,
        capacity: int,
        stream_length: int,
        report: DecodeReport,
    ) -> tuple[list[bytes], int]:
        """Assemble the ordered data chunks, reconstructing groups as needed;
        also returns how many data chunks were rebuilt."""
        by_group: dict[int, dict[int, Emblem]] = {}
        for emblem in decoded.values():
            by_group.setdefault(emblem.header.group_index, {})[emblem.header.slot_in_group] = emblem

        groups = -(-data_count // GROUP_DATA)
        chunks: list[bytes] = []
        rebuilt = 0
        for group_index in range(groups):
            slots = by_group.get(group_index, {})
            group_first_chunk = group_index * GROUP_DATA
            group_chunk_count = min(GROUP_DATA, data_count - group_first_chunk)
            have_all_data = all(slot in slots for slot in range(group_chunk_count))
            if have_all_data:
                for slot in range(group_chunk_count):
                    chunks.append(slots[slot].payload)
                continue
            if not self.outer_code_enabled:
                missing = [slot for slot in range(group_chunk_count) if slot not in slots]
                raise MissingEmblemError(
                    f"group {group_index}: emblems for slots {missing} are missing and "
                    "no outer code was used"
                )
            report.groups_reconstructed += 1
            shards: list[bytes | None] = []
            for slot in range(GROUP_SIZE):
                if slot in slots:
                    shards.append(slots[slot].payload)
                elif slot >= group_chunk_count and slot < GROUP_DATA:
                    # This data slot never existed (short final group); its
                    # contribution to the parity was all zeros.
                    shards.append(b"")
                else:
                    shards.append(None)
            try:
                recovered = self._outer.reconstruct_group(shards)
            except MissingEmblemError as exc:
                raise MissingEmblemError(f"group {group_index}: {exc}") from exc
            for slot in range(group_chunk_count):
                chunk_index = group_first_chunk + slot
                expected = min(capacity, max(0, stream_length - chunk_index * capacity))
                if slot in slots:
                    chunks.append(slots[slot].payload)
                else:
                    chunks.append(recovered[slot][:expected])
                    rebuilt += 1
        return chunks, rebuilt
