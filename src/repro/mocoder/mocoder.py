"""The MOCoder facade: byte streams <-> sets of emblem images.

``MOCoder.encode`` corresponds to step 3 (and 5) of the paper's archival flow:
it takes the binary stream produced by DBCoder and lays it out across data
emblems, adding three outer-code parity emblems per group of seventeen.
``MOCoder.decode`` reverses the process from scanned emblem images, applying
the inner Reed-Solomon correction per emblem and reconstructing any missing
emblems (up to three per group of twenty) from the parity emblems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MissingEmblemError, MOCoderError, RestorationError
from repro.mocoder.emblem import (
    Emblem,
    EmblemKind,
    EmblemSpec,
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


@dataclass
class DecodeReport:
    """Statistics collected while decoding a set of scanned emblems."""

    emblems_seen: int = 0
    emblems_decoded: int = 0
    emblems_failed: int = 0
    rs_corrections: int = 0
    groups_reconstructed: int = 0
    failures: list[str] = field(default_factory=list)


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
        data_count = len(chunks)
        groups = -(-data_count // GROUP_DATA)
        total = data_count + (groups * GROUP_PARITY if self.outer_code_enabled else 0)

        emblems: list[Emblem] = []
        index = 0
        for group_index in range(groups):
            group_chunks = chunks[group_index * GROUP_DATA:(group_index + 1) * GROUP_DATA]
            for slot, chunk in enumerate(group_chunks):
                emblems.append(
                    build_emblem(
                        spec=self.spec,
                        kind=kind,
                        index=index,
                        total=total,
                        group_index=group_index,
                        slot_in_group=slot,
                        payload=chunk,
                        stream_length=len(data),
                        stream_crc32=stream_crc,
                    )
                )
                index += 1
            if self.outer_code_enabled:
                parity_payloads = self._outer.encode_group(list(group_chunks))
                for parity_slot, parity_payload in enumerate(parity_payloads):
                    emblems.append(
                        build_emblem(
                            spec=self.spec,
                            kind=EmblemKind.PARITY,
                            index=index,
                            total=total,
                            group_index=group_index,
                            slot_in_group=GROUP_DATA + parity_slot,
                            payload=parity_payload,
                            stream_length=len(data),
                            stream_crc32=stream_crc,
                        )
                    )
                    index += 1
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
        images: list[np.ndarray],
        report: DecodeReport,
        image_offset: int = 0,
    ) -> dict[int, Emblem]:
        """Decode scanned images to emblems, recording statistics in ``report``.

        This is the per-image half of :meth:`decode` — every image is
        independent, so callers may split an emblem stream into contiguous
        chunks and run this over each chunk in parallel (``image_offset``
        keeps failure messages numbered by the original scan position), then
        merge the returned ``{emblem index: emblem}`` maps and finish with
        :meth:`assemble`.

        Decoding runs through the vectorised
        :func:`~repro.mocoder.emblem.decode_image_batch` (bit-identical to
        per-image ``Emblem.from_image``, including failure messages).
        """
        decoded: dict[int, Emblem] = {}
        for image_index, outcome in enumerate(decode_image_batch(self.spec, images)):
            if isinstance(outcome, MOCoderError):
                report.emblems_failed += 1
                report.failures.append(f"emblem image {image_offset + image_index}: {outcome}")
                continue
            emblem, corrections = outcome
            report.emblems_decoded += 1
            report.rs_corrections += corrections
            decoded[emblem.header.index] = emblem
        return decoded

    def decode(self, images: list[np.ndarray]) -> tuple[bytes, DecodeReport]:
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
        total = reference.total
        capacity = self.spec.payload_capacity
        data_count = max(1, -(-stream_length // capacity)) if stream_length else 1

        chunks = self._collect_chunks(decoded, data_count, capacity, stream_length, report)
        data = b"".join(chunks)[:stream_length]
        if crc32_of(data) != stream_crc:
            raise RestorationError(
                "reassembled stream fails its CRC-32 check; the archive was not "
                "restored bit-for-bit"
            )
        if len(decoded) < total:
            report.failures.append(
                f"{total - len(decoded)} of {total} emblems were missing and reconstructed"
            )
        return data, report

    # ------------------------------------------------------------------ #
    def _collect_chunks(
        self,
        decoded: dict[int, Emblem],
        data_count: int,
        capacity: int,
        stream_length: int,
        report: DecodeReport,
    ) -> list[bytes]:
        """Assemble the ordered data chunks, reconstructing groups as needed."""
        by_group: dict[int, dict[int, Emblem]] = {}
        for emblem in decoded.values():
            by_group.setdefault(emblem.header.group_index, {})[emblem.header.slot_in_group] = emblem

        groups = -(-data_count // GROUP_DATA)
        chunks: list[bytes] = []
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
            recovered = self._outer.reconstruct_group(shards)
            for slot in range(group_chunk_count):
                chunk_index = group_first_chunk + slot
                expected = min(capacity, max(0, stream_length - chunk_index * capacity))
                payload = slots[slot].payload if slot in slots else recovered[slot][:expected]
                chunks.append(payload)
        return chunks
