"""Dtype-precise numpy array aliases for the archive stack's hot boundaries.

Annotating a raster as a bare ``np.ndarray`` documents *that* a buffer
crosses the boundary but not *what* it holds; these aliases pin the dtype
contracts the codecs actually rely on:

* every emblem raster is 8-bit grayscale (``uint8``, 0 = ink, 255 = blank) —
  the Netpbm writers, the Manchester cell detector and the channel simulations
  all assume that range without rescaling;
* Reed-Solomon parity and codeword buffers are GF(2^8) *symbols*, one per
  ``uint8`` — arithmetic on wider dtypes would silently leave the field;
* bit vectors are ``uint8`` arrays of 0/1 (``np.packbits`` discipline).

The aliases deliberately do not encode shape: a :data:`GrayImage` is
``(H, W)`` and a :data:`ImageStack` is ``(count, H, W)`` by convention
(documented where produced), since numpy's typing cannot yet express that
without losing compatibility with slicing.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

__all__ = ["ByteArray", "GrayImage", "ImageStack", "SymbolArray", "BitArray", "FloatImage"]

#: Generic ``uint8`` buffer (serialised payload bytes as an array).
ByteArray = NDArray[np.uint8]

#: One 8-bit grayscale raster, shape ``(H, W)``; 0 = ink, 255 = blank.
GrayImage = NDArray[np.uint8]

#: A batch of grayscale rasters, shape ``(count, H, W)``.
ImageStack = NDArray[np.uint8]

#: GF(2^8) symbols (Reed-Solomon data/parity), one symbol per ``uint8``.
SymbolArray = NDArray[np.uint8]

#: A 0/1 bit vector stored one bit per ``uint8``.
BitArray = NDArray[np.uint8]

#: Intermediate float raster (channel physics before re-quantisation).
FloatImage = NDArray[np.float64]
