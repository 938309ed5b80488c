"""Minimal raster image I/O.

Emblems and scans are plain 2-D numpy arrays of uint8 gray values (0 = black,
255 = white).  For interoperability with external viewers the library reads
and writes binary PGM (P5), the simplest widely supported grayscale format —
appropriate for a project whose premise is that formats must stay decodable
decades from now.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import MediaError
from repro.util.nptypes import GrayImage


def pgm_parts(image: GrayImage) -> tuple[bytes, memoryview]:
    """Serialise a grayscale image as ``(PGM header, raster memoryview)``.

    The raster part is a zero-copy view of the array's buffer whenever the
    input is already contiguous uint8 (every emblem raster is), so batched
    sinks can hand it straight to ``write()`` without materialising
    ``header + pixels`` as a fresh bytes object per frame.  The view is only
    valid while the array is alive and unmodified — write it out before
    letting go of the image.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise MediaError(f"PGM images are single-channel; got shape {image.shape}")
    if image.dtype != np.uint8:
        image = np.clip(image, 0, 255).astype(np.uint8)
    image = np.ascontiguousarray(image)
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    # A flat view keeps downstream consumers simple (len() == byte count).
    return header, image.reshape(-1).data


def pgm_bytes(image: GrayImage) -> bytes:
    """Serialise a grayscale image as binary PGM (P5) bytes."""
    header, raster = pgm_parts(image)
    return header + bytes(raster)


def write_pgm(path: str | Path, image: GrayImage) -> None:
    """Write a grayscale image as a binary PGM (P5) file."""
    with open(path, "wb") as stream:
        stream.write(pgm_bytes(image))


def pgm_from_bytes(data: bytes, name: str = "<bytes>") -> GrayImage:
    """Parse binary PGM (P5) bytes into a uint8 array."""
    return _parse_pgm(data, name)


def read_pgm(path: str | Path) -> GrayImage:
    """Read a binary PGM (P5) file into a uint8 array."""
    with open(path, "rb") as stream:
        data = stream.read()
    return _parse_pgm(data, str(path))


def _parse_pgm(data: bytes, path: "str | Path") -> GrayImage:
    """Parse P5 bytes, rejecting anything but an 8-bit raster that fits.

    The header is ``P5``, then width, height and maxval as ASCII decimal
    tokens separated by whitespace (``#`` comments allowed), then one
    whitespace byte; width and height must be at least 1, maxval must be
    255, and width x height raster bytes must follow.  Any other input
    raises :class:`~repro.errors.MediaError` naming ``path``.
    """
    if not data.startswith(b"P5"):
        raise MediaError(f"{path}: not a binary PGM (P5) file")
    # Parse the three header tokens (width, height, maxval), skipping comments.
    tokens: list[int] = []
    position = 2
    while len(tokens) < 3:
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
            raise MediaError(f"{path}: malformed PGM header token {token[:16]!r}")
        tokens.append(int(token))
    position += 1  # single whitespace after maxval
    width, height, max_value = tokens
    if width < 1 or height < 1:
        raise MediaError(f"{path}: PGM size {width}x{height} is empty")
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
