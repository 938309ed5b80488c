"""Byte interleaving of Reed-Solomon codewords within an emblem.

The inner RS blocks are "spread over the entire emblem" (§3.1): codeword
bytes are transmitted column-wise across all blocks, so a localised burst of
damage (a scratch, a dust spot) lands on many blocks a little rather than on
one block a lot, staying under the 16-error-per-block correction limit.
"""

from __future__ import annotations

import numpy as np


def deinterleave_blocks_batch(streams: np.ndarray, block_count: int, codeword_length: int) -> np.ndarray:
    """Deinterleave many streams at once: (count, bytes) -> (count, blocks, n).

    Each stream carries its emblem's codewords column-major (byte ``j`` of
    every block, then byte ``j + 1``; see
    :func:`~repro.mocoder.emblem.render_emblem_batch`), and any bytes past
    ``block_count * codeword_length`` are ignored.  The whole batch is one
    strided reshape/transpose over the stacked streams — no per-stream (let
    alone per-codeword) gathers — so a chunk of emblems deinterleaves in a
    single numpy pass.
    """
    streams = np.asarray(streams, dtype=np.uint8)
    if streams.ndim != 2:
        raise ValueError(f"expected a (count, bytes) stream array, got shape {streams.shape}")
    expected = block_count * codeword_length
    if streams.shape[1] < expected:
        raise ValueError(
            f"interleaved streams hold {streams.shape[1]} bytes each, "
            f"expected at least {expected}"
        )
    view = streams[:, :expected].reshape(-1, codeword_length, block_count)
    return np.ascontiguousarray(view.transpose(0, 2, 1))
