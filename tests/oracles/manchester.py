"""Oracles for :mod:`repro.mocoder.manchester`.

- :func:`manchester_encode` — the per-bit differential-Manchester loop: the
  level toggles at every bit boundary and again mid-bit for a ``0``;
- :func:`manchester_encode_fast` — the single-stream XOR prefix scan over
  the toggle stream;
- :func:`manchester_decode` — the single-stream half-cell comparison.

The library's row-batched :func:`~repro.mocoder.manchester.
manchester_encode_rows` and :func:`~repro.mocoder.manchester.
manchester_decode_rows` must match them row by row.
"""

from __future__ import annotations

import numpy as np


def manchester_encode(bits: np.ndarray, initial_level: int = 0) -> np.ndarray:
    """Encode a 0/1 bit array into a cell array twice as long.

    ``initial_level`` is the signal level *before* the first clock transition;
    cells use 1 for a dark cell and 0 for a light cell.
    """
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    cells = np.zeros(2 * bits.size, dtype=np.uint8)
    level = 1 if initial_level else 0
    for index, bit in enumerate(bits):
        level ^= 1                      # clock transition at the bit boundary
        cells[2 * index] = level
        if bit == 0:
            level ^= 1                  # mid-bit transition encodes a zero
        cells[2 * index + 1] = level
    return cells


def manchester_encode_fast(bits: np.ndarray, initial_level: int = 0) -> np.ndarray:
    """:func:`manchester_encode` as an XOR prefix scan of the toggle stream."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if bits.size == 0:
        return np.zeros(0, dtype=np.uint8)
    toggles = np.empty(2 * bits.size, dtype=np.uint8)
    toggles[0::2] = 1                       # clock transition at every bit boundary
    toggles[1::2] = bits == 0               # mid-bit transition encodes a zero
    cells = np.bitwise_xor.accumulate(toggles)
    if initial_level:
        cells ^= 1
    return cells


def manchester_decode(cells: np.ndarray) -> np.ndarray:
    """Decode a binarised cell array (0/1) back into bits.

    A bit is 1 when its two half-cells carry the same level (no mid-bit
    transition) and 0 otherwise.  A trailing odd half-cell is ignored.
    """
    cells = np.asarray(cells).ravel()
    usable = (cells.size // 2) * 2
    cells = cells[:usable].astype(np.int16)
    return (cells[0::2] == cells[1::2]).astype(np.uint8)
