"""Oracles for :mod:`repro.mocoder.interleave`.

The single-emblem codeword interleave and its inverse.  The library renders
and decodes whole batches of emblems at once
(:func:`repro.mocoder.emblem.render_emblem_batch`,
:func:`repro.mocoder.interleave.deinterleave_blocks_batch`); each emblem of a
batch must match these.
"""

from __future__ import annotations

import numpy as np


def interleave_blocks(codewords: np.ndarray) -> bytes:
    """Serialise a (blocks, n) codeword array column-major."""
    codewords = np.asarray(codewords, dtype=np.uint8)
    if codewords.ndim != 2:
        raise ValueError(f"expected a 2-D codeword array, got shape {codewords.shape}")
    return codewords.T.reshape(-1).tobytes()


def deinterleave_blocks(stream: bytes, block_count: int, codeword_length: int) -> np.ndarray:
    """Rebuild the (blocks, n) codeword array from a column-major stream."""
    expected = block_count * codeword_length
    if len(stream) < expected:
        raise ValueError(
            f"interleaved stream holds {len(stream)} bytes, expected at least {expected}"
        )
    flat = np.frombuffer(bytes(stream[:expected]), dtype=np.uint8)
    return flat.reshape(codeword_length, block_count).T.copy()
