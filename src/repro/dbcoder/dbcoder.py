"""The DBCoder facade: textual database archive <-> compact binary layout.

``DBCoder.encode`` is what step 2 of the paper's archival flow (Figure 2a)
performs: it takes the software-independent textual archive produced by
``db_dump`` and emits a compressed binary stream for MOCoder.  ``decode`` is
the inverse, normally executed inside the emulated DynaRisc environment at
restoration time; the Python implementation here is the reference model and
the encoder-side tool.

The :class:`Profile` names are the codec table: :func:`codec_name` resolves
a config's ``"portable"`` or a manifest's ``"PORTABLE"`` to the lower-case
name a config stores, and ``DBCoder(Profile[name.upper()])`` is its codec.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ContainerFormatError, DecompressionError, resolve_name
from repro.dbcoder.arithmetic import arithmetic_decode, arithmetic_encode
from repro.dbcoder.formats import pack_container, unpack_container
from repro.dbcoder.lz77 import lzss_compress, lzss_decompress
from repro.util.crc import crc32_of


class Profile(enum.IntEnum):
    """DBCoder compression profiles."""

    STORE = 0
    """No compression; baseline and debugging aid."""

    PORTABLE = 1
    """Byte-aligned LZSS only — the profile whose decoder is archived as a
    DynaRisc program and therefore the one used on the emulated restoration
    path."""

    DENSE = 2
    """LZSS followed by adaptive arithmetic coding — the paper's stated
    LZ77 + arithmetic-coding pipeline, used when density matters most."""

    @property
    def description(self) -> str:
        """One line on the profile, as ``repro profiles`` lists it."""
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    Profile.STORE: "no compression (baseline and debugging aid)",
    Profile.PORTABLE: "byte-aligned LZSS; decodable by the archived DynaRisc decoder",
    Profile.DENSE: "LZSS + adaptive arithmetic coding (maximum density)",
}


def codec_name(name: str) -> str:
    """The codec ``name`` spells, in any case: a :class:`Profile` name in
    lower case.  An unknown name raises
    :class:`~repro.errors.UnknownNameError` with a did-you-mean suggestion."""
    return resolve_name("codec", name, sorted(profile.name.lower() for profile in Profile))


@dataclass(frozen=True)
class EncodingReport:
    """Statistics describing one DBCoder encoding run."""

    profile: Profile
    original_bytes: int
    encoded_bytes: int

    @property
    def ratio(self) -> float:
        """Compression ratio (original / encoded); 0 for empty input."""
        if self.encoded_bytes == 0:
            return 0.0
        return self.original_bytes / self.encoded_bytes


class DBCoder:
    """Database layout encoder/decoder.

    Parameters
    ----------
    profile:
        Compression profile; see :class:`Profile`.
    """

    def __init__(self, profile: Profile = Profile.PORTABLE):
        self.profile = Profile(profile)

    # ------------------------------------------------------------------ #
    # Encoding (runs today, on the archivist's machine)
    # ------------------------------------------------------------------ #
    def encode(self, data: bytes) -> bytes:
        """Compress ``data`` and wrap it in a DBCoder container."""
        payload = self.compress_payload(data)
        return pack_container(int(self.profile), data, payload)

    def compress_payload(self, data: bytes) -> bytes:
        """Compress ``data`` without the container header.

        This raw form is what the archived DynaRisc decoder consumes directly
        (the container header is interpreted by MOCoder-level tooling).
        """
        if self.profile == Profile.STORE:
            return bytes(data)
        lzss = lzss_compress(data)
        if self.profile == Profile.PORTABLE:
            return lzss
        return arithmetic_encode(lzss)

    def report(self, data: bytes) -> EncodingReport:
        """Encode ``data`` and return size statistics (used by benchmarks)."""
        encoded = self.encode(data)
        return EncodingReport(
            profile=self.profile,
            original_bytes=len(data),
            encoded_bytes=len(encoded),
        )

    # ------------------------------------------------------------------ #
    # Decoding (reference model of the archived decoder)
    # ------------------------------------------------------------------ #
    def decode(self, container: bytes) -> bytes:
        """Decode a DBCoder container back into the original archive bytes.

        Raises
        ------
        ContainerFormatError
            If the container is malformed or names no DBCoder profile.
        DecompressionError
            If the recovered data does not match the stored length/CRC, i.e.
            the restoration would not be bit-for-bit faithful.
        """
        header, payload = unpack_container(container)
        try:
            profile = Profile(header.profile_id)
        except ValueError:
            raise ContainerFormatError(
                f"container names unknown DBCoder profile id {header.profile_id} "
                f"(known ids: {', '.join(str(known.value) for known in Profile)})"
            ) from None
        data = self.decompress_payload(payload, profile)
        if len(data) != header.original_length:
            raise DecompressionError(
                f"restored {len(data)} bytes but the archive recorded "
                f"{header.original_length}"
            )
        if crc32_of(data) != header.original_crc32:
            raise DecompressionError("restored data fails the archived CRC-32 check")
        return data

    @staticmethod
    def decompress_payload(payload: bytes, profile: Profile) -> bytes:
        """Decompress a raw payload according to ``profile``."""
        if profile == Profile.STORE:
            return bytes(payload)
        if profile == Profile.PORTABLE:
            return lzss_decompress(payload)
        return lzss_decompress(arithmetic_decode(payload))
