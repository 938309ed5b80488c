"""Differential-Manchester cell coding.

Unlike QR-style codes, MOCoder does not rely on a separate clocking system:
the bit signal and the clock signal are paired in the cell stream, the way
Differential Manchester encoding pairs them on floppy disks (§3.1).  Every
data bit occupies two consecutive cells:

* the level always toggles at the start of a bit period (the clock), and
* a toggle in the middle of the period encodes a ``0`` while the absence of a
  mid-period toggle encodes a ``1``.

Decoding therefore needs only a *local* comparison of the two half-cells of a
bit, which keeps clock recovery immune to the slow, large-scale intensity
drifts (fading, illumination gradients) that defeat schemes relying on an
absolute reference.
"""

from __future__ import annotations

import numpy as np
from repro.util.nptypes import BitArray


def manchester_encode_rows(bits: BitArray, initial_level: int = 0) -> BitArray:
    """Encode each row of 0/1 bits: (rows, bits) -> (rows, 2*bits) cells.

    Each row is an independent cell stream; ``initial_level`` is the signal
    level *before* its first clock transition, and cells use 1 for a dark
    cell and 0 for a light one.  Every half-cell either toggles the level
    or not — the first half of a bit always (the clock), the second half
    exactly when the bit is 0 — so a cell stream is the XOR prefix scan of
    its toggles.  This runs the (sequential) prefix scan over the *bit*
    stream only — half the elements — and derives both half-cells from it:
    with ``S(i)`` the number of ones among ``bits[0..i]``, the second
    half-cell of bit ``i`` is ``S(i) & 1`` and the first is its complement
    XOR ``bits[i]``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError(f"expected a (rows, bits) array, got shape {bits.shape}")
    rows, width = bits.shape
    if width == 0:
        return np.zeros((rows, 0), dtype=np.uint8)
    # Inclusive prefix parity of the bit stream; uint8 overflow keeps mod 2.
    parity = np.add.accumulate(bits, axis=1, dtype=np.uint8)
    parity &= 1
    cells = np.empty((rows, 2 * width), dtype=np.uint8)
    cells[:, 1::2] = parity
    np.bitwise_xor(parity, bits, out=parity)
    parity ^= 1
    cells[:, 0::2] = parity
    if initial_level:
        cells ^= 1
    return cells


def manchester_decode_rows(cells: BitArray) -> BitArray:
    """Decode each row of binarised cells: (rows, cells) -> (rows, cells // 2) bits.

    A bit is 1 when its two half-cells carry the same level (no mid-bit
    transition) and 0 otherwise; only the comparison *within* a bit matters,
    so no absolute level or running clock is needed.  A trailing odd
    half-cell is ignored.
    """
    cells = np.asarray(cells)
    if cells.ndim != 2:
        raise ValueError(f"expected a (rows, cells) array, got shape {cells.shape}")
    usable = (cells.shape[1] // 2) * 2
    return (cells[:, 0:usable:2] == cells[:, 1:usable:2]).astype(np.uint8)
