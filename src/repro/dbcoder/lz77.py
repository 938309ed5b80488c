"""Byte-aligned LZSS compression (the LZ77 half of DBCoder).

The stream format is deliberately byte-aligned and minimal so that the
archived DynaRisc decoder (:mod:`repro.dynarisc.programs.lzss`) stays small —
the paper's whole point is that the decoder must be easy to run in a far
future with almost no infrastructure.

Format
------
The stream is a sequence of *groups*.  Each group is one flag byte followed by
up to eight items; bit ``i`` of the flag byte (LSB first) describes item ``i``:

* flag bit 1 — the item is a single literal byte;
* flag bit 0 — the item is a match: two bytes encoding a backwards offset
  (1..4095) and a length (3..18)::

      byte0 = offset & 0xFF
      byte1 = ((offset >> 8) << 4) | (length - 3)

The stream carries no explicit length; decoding stops at end of input, which
matches the memory-mapped input port semantics of the emulated decoder.
Matches may overlap the current position (offset < length), which both the
Python and the DynaRisc decoders handle by copying byte-by-byte.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecompressionError

#: Sliding-window size (offsets must fit in 12 bits).
WINDOW_SIZE = 4096

#: Minimum match length worth encoding (a 2-byte match token must beat it).
MIN_MATCH = 3

#: Maximum match length encodable in the 4-bit length field.
MAX_MATCH = 18


#: Longest hash chain the compressor walks per position.  128 recent
#: candidates recover effectively all of the exhaustive search's ratio on
#: text/SQL payloads while bounding the worst case on pathological inputs.
MAX_CHAIN = 128

#: Minimum remaining candidates before the matcher switches from scalar to
#: numpy-batched rejection; below this the array call costs more than it
#: saves.
_BATCH_MIN = 16


def _build_chains(data: bytes) -> list[int]:
    """Hash chains for every position, built in one vectorised pass.

    ``chains[pos]`` is the nearest earlier position whose 3-byte prefix
    equals the one at ``pos`` (or -1).  A stable argsort over the packed
    prefix keys groups equal keys in position order, so each element's
    predecessor within its group is exactly the chain link incremental
    dict-based filing would produce — the whole ``head``/``prev``
    bookkeeping collapses into three array ops.
    """
    n = len(data)
    if n < MIN_MATCH:
        return []
    arr = np.frombuffer(data, dtype=np.uint8)
    keys = (
        arr[:-2].astype(np.int32)
        | (arr[1:-1].astype(np.int32) << 8)
        | (arr[2:].astype(np.int32) << 16)
    )
    order = np.argsort(keys, kind="stable")
    chains = np.full(n - 2, -1, dtype=np.int64)
    same = keys[order[1:]] == keys[order[:-1]]
    chains[order[1:][same]] = order[:-1][same]
    return chains.tolist()


def _scan_tail(
    data: bytes,
    data_arr: np.ndarray,
    chains: list[int],
    pos: int,
    limit: int,
    chain: int,
    candidate: int,
    window_start: int,
    best_offset: int,
    best_length: int,
) -> tuple[int, int]:
    """Finish a chain walk with numpy-batched candidate rejection.

    Entered from the scalar walk after a streak of rejections (so a current
    best exists and many more rejections are likely).  Gathers the
    rejection byte ``data[candidate + best_length]`` across every remaining
    candidate in one indexed read and jumps from survivor to survivor; the
    gather is redone only when ``best_length`` grows (at most ``MAX_MATCH``
    times).  Examines exactly the candidates the scalar walk would have,
    in the same order — bit-identical results, without the per-candidate
    Python compare on the rejected ones.
    """
    tail: list[int] = []
    while candidate >= 0 and candidate >= window_start and len(tail) < chain:
        tail.append(candidate)
        candidate = chains[candidate]
    count = len(tail)
    if not count:
        return best_offset, best_length
    tail_arr = np.asarray(tail, dtype=np.intp)
    hits: np.ndarray | None = None
    hits_pos = 0
    hits_length = -1  # best_length the current gather is valid for
    index = 0
    while index < count:
        if hits_length != best_length:
            hits = index + np.nonzero(
                data_arr[tail_arr[index:] + best_length] == data[pos + best_length]
            )[0]
            hits_pos = 0
            hits_length = best_length
        if hits_pos >= len(hits):
            break
        index = int(hits[hits_pos])
        hits_pos += 1
        surviving = tail[index]
        index += 1
        length = 0
        while length < limit and data[surviving + length] == data[pos + length]:
            length += 1
        if length > best_length:
            best_length = length
            best_offset = pos - surviving
            if length == limit:
                break
    return best_offset, best_length


def lzss_compress(data: bytes, max_chain: int = MAX_CHAIN, lazy: bool = True) -> bytes:
    """Compress ``data`` with LZSS parsing over hash chains.

    The chains over 3-byte prefixes are built up front in one vectorised
    pass (:func:`_build_chains`); matching walks each chain newest-first
    (so ties keep the smallest offset, like an exhaustive window search),
    stopping early when the maximum encodable length is reached or
    ``max_chain`` candidates were tried.  Long chains batch the one-byte
    candidate rejection test through numpy, skipping straight to the next
    viable candidate.  Output is bit-identical to the incremental
    dict-filed scan in ``tests/oracles/lz77.py``.

    ``max_chain=0`` disables matching entirely — every byte is emitted as a
    literal, in both the greedy and the lazy parse.

    With ``lazy`` (the default) the parse adds one token of lookahead: when
    a match is found at ``pos``, the matcher also probes ``pos + 1``, and if
    the next position matches *longer*, the current byte is emitted as a
    literal so the longer match wins — the classic lazy-evaluation parse
    (deflate's ``max_lazy`` idea), worth a few percent of ratio on text/SQL
    at a modest throughput cost.  ``lazy=False`` reproduces the greedy
    parse byte for byte, which is what the exhaustive-matcher equivalence
    test pins.  The stream format is unchanged either way.

    Empty input compresses to an empty stream.
    """
    data = bytes(data)
    n = len(data)
    if n == 0:
        return b""

    out = bytearray()
    flags = 0
    flag_count = 0
    group = bytearray()
    chains = _build_chains(data)
    data_arr = np.frombuffer(data, dtype=np.uint8)

    def find_match(pos: int, limit: int, floor: int = 0, chain: int | None = None) -> tuple[int, int]:
        """Longest chain match at ``pos``.

        ``floor`` sets a length the match must strictly beat; the lazy probe
        passes the current match's length, so most candidates die on the
        single-byte rejection test instead of a full comparison.  ``chain``
        caps the candidates walked (the probe uses a quarter budget, as
        deflate does).  Returns ``(0, floor)`` when nothing beats the floor.
        """
        best_offset = 0
        best_length = floor
        candidate = chains[pos]
        window_start = pos - (WINDOW_SIZE - 1)
        if chain is None:
            chain = max_chain
        misses = 0
        while candidate >= 0 and candidate >= window_start and chain > 0:
            chain -= 1
            # A longer match must extend past the current best; one byte
            # rejects most candidates without a full comparison.
            if not best_length or data[candidate + best_length] == data[pos + best_length]:
                length = 0
                while length < limit and data[candidate + length] == data[pos + length]:
                    length += 1
                if length > best_length:
                    best_length = length
                    best_offset = pos - candidate
                    if length == limit:
                        break
                misses = 0
            else:
                misses += 1
                if misses >= _BATCH_MIN and chain >= _BATCH_MIN:
                    # A long rejection streak with plenty of budget left:
                    # hand the remaining chain to the batched tail scan,
                    # which gathers the rejection byte over all remaining
                    # candidates at once and jumps survivor to survivor.
                    return _scan_tail(
                        data, data_arr, chains, pos, limit, chain,
                        chains[candidate], window_start,
                        best_offset, best_length,
                    )
            candidate = chains[candidate]
        return best_offset, best_length

    def flush_group() -> None:
        nonlocal flags, flag_count, group
        if flag_count:
            out.append(flags)
            out.extend(group)
            flags = 0
            flag_count = 0
            group = bytearray()

    pos = 0
    carried: tuple[int, int] | None = None  # match pre-computed by a lazy probe
    while pos < n:
        limit = min(MAX_MATCH, n - pos)
        if carried is not None:
            best_offset, best_length = carried
            carried = None
        elif limit >= MIN_MATCH:
            best_offset, best_length = find_match(pos, limit)
        else:
            best_offset, best_length = 0, 0

        if lazy and MIN_MATCH <= best_length < limit:
            # One-token lookahead: if pos+1 matches strictly longer, demote
            # this position to a literal and keep the longer match.  A zero
            # max_chain stays zero here too, so literal-only mode holds for
            # the probe as well as the main scan.
            next_limit = min(MAX_MATCH, n - pos - 1)
            if next_limit > best_length:
                next_offset, next_length = find_match(
                    pos + 1,
                    next_limit,
                    floor=best_length,
                    chain=max(1, max_chain // 4) if max_chain else 0,
                )
                if next_offset:
                    flags |= 1 << flag_count
                    group.append(data[pos])
                    carried = (next_offset, next_length)
                    pos += 1
                    flag_count += 1
                    if flag_count == 8:
                        flush_group()
                    continue

        if best_length >= MIN_MATCH:
            group.append(best_offset & 0xFF)
            group.append(((best_offset >> 8) << 4) | (best_length - MIN_MATCH))
            pos += best_length
        else:
            flags |= 1 << flag_count
            group.append(data[pos])
            pos += 1
        flag_count += 1
        if flag_count == 8:
            flush_group()
    flush_group()
    return bytes(out)


def lzss_decompress(stream: bytes) -> bytes:
    """Decompress an LZSS stream (Python reference for the DynaRisc decoder).

    Raises
    ------
    DecompressionError
        If a match token references history that does not exist.
    """
    out = bytearray()
    pos = 0
    n = len(stream)
    while pos < n:
        flags = stream[pos]
        pos += 1
        for item in range(8):
            if pos >= n:
                break
            if (flags >> item) & 1:
                out.append(stream[pos])
                pos += 1
            else:
                if pos + 1 >= n:
                    # A trailing, half-written match token means the encoder
                    # stopped mid-stream; treat it as end of data.
                    pos = n
                    break
                byte0 = stream[pos]
                byte1 = stream[pos + 1]
                pos += 2
                offset = byte0 | ((byte1 >> 4) << 8)
                length = (byte1 & 0x0F) + MIN_MATCH
                if offset == 0 or offset > len(out):
                    raise DecompressionError(
                        f"match offset {offset} exceeds decoded history ({len(out)} bytes)"
                    )
                start = len(out) - offset
                for index in range(length):
                    out.append(out[start + index])
    return bytes(out)
