"""Minimal raster image I/O.

Emblems and scans are plain 2-D numpy arrays of uint8 gray values (0 = black,
255 = white).  For interoperability with external viewers the library reads
and writes the two simplest binary Netpbm formats — appropriate for a project
whose premise is that formats must stay decodable decades from now:

* PBM (P4), one bit per pixel, for bilevel rasters — every rendered emblem,
  and so every frame record the store writes;
* PGM (P5), one byte per pixel, for grayscale scans and older frame records.

:func:`netpbm_from_bytes` reads either, deciding by the magic number.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import MediaError
from repro.util.nptypes import GrayImage
from repro.util.raster import bilevel_tones


def pgm_bytes(image: GrayImage) -> bytes:
    """Serialise a grayscale image as binary PGM (P5) bytes."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise MediaError(f"PGM images are single-channel; got shape {image.shape}")
    if image.dtype != np.uint8:
        image = np.clip(image, 0, 255).astype(np.uint8)
    height, width = image.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + image.tobytes()


def write_pgm(path: str | Path, image: GrayImage) -> None:
    """Write a grayscale image as a binary PGM (P5) file."""
    with open(path, "wb") as stream:
        stream.write(pgm_bytes(image))


def read_pgm(path: str | Path) -> GrayImage:
    """Read a binary PGM (P5) file into a uint8 array."""
    with open(path, "rb") as stream:
        data = stream.read()
    return _parse_pgm(data, str(path))


def pbm_bytes(image: GrayImage, name: str = "<image>") -> bytes:
    """Serialise a bilevel raster as binary PBM (P4) bytes.

    The record is ``P4\\n<width> <height>\\n``, then each row packed MSB
    first with 1 = black and the row's padding bits zero.  A raster that is
    not 2-D uint8 with every pixel 0 or 255 raises
    :class:`~repro.errors.MediaError` naming ``name``.
    """
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8 or not bilevel_tones(image):
        raise MediaError(
            f"{name}: a PBM frame must be a 2-D uint8 raster of 0 and 255 pixels "
            f"(got {image.dtype} of shape {image.shape})"
        )
    height, width = image.shape
    packed = np.packbits(image, axis=1)  # 1 = white
    np.invert(packed, out=packed)  # 1 = black
    if width % 8:
        packed[:, -1] &= 0xFF << (8 - width % 8) & 0xFF  # padding bits zero
    return f"P4\n{width} {height}\n".encode("ascii") + packed.tobytes()


def netpbm_from_bytes(data: bytes, name: str = "<bytes>") -> GrayImage:
    """Parse a binary PBM (P4) or PGM (P5) record, by its magic number, into
    a fresh, writable uint8 raster (a PBM's pixels are 0 and 255)."""
    if data.startswith(b"P4"):
        return _parse_pbm(data, name)
    if data.startswith(b"P5"):
        return _parse_pgm(data, name)
    raise MediaError(f"{name}: not a binary PBM (P4) or PGM (P5) file")


def _header_tokens(data: bytes, count: int, path: "str | Path", kind: str) -> tuple[list[int], int]:
    """The ``count`` decimal header tokens after a Netpbm magic number, and
    the offset of the raster behind them.

    Tokens are ASCII decimal digits separated by whitespace (``#`` comments
    allowed); one whitespace byte ends the header.  Anything else raises
    :class:`~repro.errors.MediaError` naming ``path``.
    """
    tokens: list[int] = []
    position = 2
    while len(tokens) < count:
        while position < len(data) and data[position:position + 1].isspace():
            position += 1
        if position < len(data) and data[position:position + 1] == b"#":
            end = data.find(b"\n", position)
            position = end + 1 if end >= 0 else len(data)
            continue
        start = position
        while position < len(data) and not data[position:position + 1].isspace():
            position += 1
        token = data[start:position]
        if not token.isdigit():
            raise MediaError(f"{path}: malformed {kind} header token {token[:16]!r}")
        tokens.append(int(token))
    if tokens[0] < 1 or tokens[1] < 1:
        raise MediaError(f"{path}: {kind} size {tokens[0]}x{tokens[1]} is empty")
    return tokens, position + 1  # single whitespace after the last token


def _parse_pgm(data: bytes, path: "str | Path") -> GrayImage:
    """Parse P5 bytes, rejecting anything but an 8-bit raster that fits.

    The header is ``P5``, then width, height and maxval (see
    :func:`_header_tokens`); width and height must be at least 1, maxval
    must be 255, and width x height raster bytes must follow.  Any other
    input raises :class:`~repro.errors.MediaError` naming ``path``.
    """
    if not data.startswith(b"P5"):
        raise MediaError(f"{path}: not a binary PGM (P5) file")
    (width, height, max_value), position = _header_tokens(data, 3, path, "PGM")
    if max_value != 255:
        raise MediaError(f"{path}: only 8-bit PGM files are supported (maxval {max_value})")
    available = max(0, len(data) - position)
    if available < width * height:
        raise MediaError(
            f"{path}: PGM raster holds {available} bytes, {width}x{height} needs "
            f"{width * height}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=position)
    return pixels.reshape(height, width).copy()


def _parse_pbm(data: bytes, path: "str | Path") -> GrayImage:
    """Parse P4 bytes into a 0/255 raster.

    The header is ``P4``, then width and height (see :func:`_header_tokens`),
    each at least 1; ceil(width / 8) x height raster bytes must follow, and
    a row's padding bits are ignored.  Any other input raises
    :class:`~repro.errors.MediaError` naming ``path``.
    """
    (width, height), position = _header_tokens(data, 2, path, "PBM")
    row_bytes = (width + 7) // 8
    available = max(0, len(data) - position)
    if available < row_bytes * height:
        raise MediaError(
            f"{path}: PBM raster holds {available} bytes, {width}x{height} needs "
            f"{row_bytes * height}"
        )
    packed = np.frombuffer(data, dtype=np.uint8, count=row_bytes * height, offset=position)
    image = np.unpackbits(packed.reshape(height, row_bytes), axis=1, count=width)
    # 1 (black) - 1 = 0 and 0 (white) - 1 wraps to 255; one pass, and
    # measured faster than inverting the bits and multiplying by 255.
    np.subtract(image, 1, out=image)
    return image
