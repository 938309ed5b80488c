"""Oracles for :mod:`repro.dbcoder.lz77`.

:func:`find_longest_match` is the exhaustive window matcher (one
``bytes.rfind`` per candidate length over the whole 4095-byte window), the
ground truth for the hash-chain search.  :func:`lzss_compress` is the
incremental dict-filed compressor the vectorised
:func:`repro.dbcoder.lz77.lzss_compress` was derived from; the two must
produce the same stream byte for byte under every ``(max_chain, lazy)``.
"""

from __future__ import annotations

from repro.dbcoder.lz77 import MAX_CHAIN, MAX_MATCH, MIN_MATCH, WINDOW_SIZE


def find_longest_match(data: bytes, pos: int, limit: int) -> tuple[int, int]:
    """Return ``(offset, length)`` of the longest window match at ``pos``.

    Returns ``(0, 0)`` when no match of at least MIN_MATCH exists.
    """
    best_offset = 0
    best_length = 0
    window_start = max(0, pos - (WINDOW_SIZE - 1))
    length = MIN_MATCH
    while length <= limit:
        # The search region ends at pos + length - 1 so any hit starts at an
        # index <= pos - 1, i.e. strictly before the current position, while
        # still allowing matches that overlap the bytes being encoded.
        index = data.rfind(data[pos:pos + length], window_start, pos + length - 1)
        if index < 0:
            break
        best_offset = pos - index
        best_length = length
        length += 1
    return best_offset, best_length


def lzss_compress(data: bytes, max_chain: int = MAX_CHAIN, lazy: bool = True) -> bytes:
    """The incremental dict-filed compressor.

    Files each position under its 3-byte prefix as the scan advances, the
    classic ``head``/``prev`` hash-chain bookkeeping.
    """
    data = bytes(data)
    n = len(data)
    if n == 0:
        return b""

    out = bytearray()
    flags = 0
    flag_count = 0
    group = bytearray()
    head: dict[int, int] = {}
    prev = [-1] * max(0, n - 2)
    filed = 0  # positions < filed are already in the hash chains

    def file_through(end: int) -> None:
        """File positions ``filed .. end-1`` under their 3-byte prefixes.

        Positions in the final two bytes have no full key and are skipped.
        """
        nonlocal filed
        stop = min(end, n - 2)
        while filed < stop:
            key = data[filed] | (data[filed + 1] << 8) | (data[filed + 2] << 16)
            prev[filed] = head.get(key, -1)
            head[key] = filed
            filed += 1
        if end > filed:
            filed = end

    def find_match(pos: int, limit: int, floor: int = 0, chain: int | None = None) -> tuple[int, int]:
        best_offset = 0
        best_length = floor
        key = data[pos] | (data[pos + 1] << 8) | (data[pos + 2] << 16)
        candidate = head.get(key, -1)
        window_start = pos - (WINDOW_SIZE - 1)
        if chain is None:
            chain = max_chain
        while candidate >= 0 and candidate >= window_start and chain > 0:
            chain -= 1
            if not best_length or data[candidate + best_length] == data[pos + best_length]:
                length = 0
                while length < limit and data[candidate + length] == data[pos + length]:
                    length += 1
                if length > best_length:
                    best_length = length
                    best_offset = pos - candidate
                    if length == limit:
                        break
            candidate = prev[candidate]
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
    carried: tuple[int, int] | None = None
    while pos < n:
        limit = min(MAX_MATCH, n - pos)
        if carried is not None:
            best_offset, best_length = carried
            carried = None
        elif limit >= MIN_MATCH:
            file_through(pos)
            best_offset, best_length = find_match(pos, limit)
        else:
            best_offset, best_length = 0, 0

        if lazy and MIN_MATCH <= best_length < limit:
            next_limit = min(MAX_MATCH, n - pos - 1)
            if next_limit > best_length:
                file_through(pos + 1)
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
