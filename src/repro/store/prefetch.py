"""Readahead for partial restore: overlap backend frame fetch with decode.

:meth:`repro.api.ArchiveReader.read_range` pulls each covering segment's
frames from the storage backend *lazily*, one record at a time, inside the
decode executor's submission window — which serialises fetch behind decode
when the backend is slow (spinning disk, network object store, a damaged
container falling back to linear scans).  :class:`FramePrefetcher` wraps the
reader's frame provider and keeps up to ``depth`` records' frames in flight
on background threads, so the next segment's bytes are (usually) already in
memory by the time the executor asks for them.

The prefetcher is deliberately dumb about ordering: records must be consumed
in the order they were given (which is how the restore pipeline consumes
them); a record requested out of order falls back to a direct fetch.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from types import TracebackType
from typing import Callable, Generic, Iterable, TypeVar

RecordT = TypeVar("RecordT")
FramesT = TypeVar("FramesT")

#: Upper bound on prefetch worker threads, whatever the requested depth.
_MAX_WORKERS = 8

__all__ = ["FramePrefetcher", "map_concurrently"]


def map_concurrently(
    fetch: Callable[[RecordT], FramesT],
    records: Iterable[RecordT],
    pool: ThreadPoolExecutor,
) -> list[FramesT]:
    """Order-preserving parallel map over a caller-owned thread pool.

    The shard-parallel fetch primitive of the volume-set source: every
    record is submitted up front, so fetches against distinct backends (or
    distinct pooled container handles) genuinely overlap; results come back
    in input order.  The first fetch error propagates after submission — the
    pool outlives the call, so stragglers just finish in the background.
    """
    futures = [pool.submit(fetch, record) for record in records]
    return [future.result() for future in futures]


class FramePrefetcher(Generic[RecordT, FramesT]):
    """Fetch up to ``depth`` records' frames ahead of the consumer.

    Parameters
    ----------
    fetch:
        The underlying frame provider (``record -> frames``); called on
        worker threads, so it must be thread-safe for *distinct* records —
        the store backends qualify (directory reads are independent files,
        container reads each borrow a private handle from the source's
        pool, so they proceed genuinely in parallel).
    records:
        The records that will be consumed, in consumption order.
    depth:
        How many records may be in flight at once (> 0).

    Use as a context manager, or call :meth:`close` — outstanding fetches
    are cancelled/awaited so no worker outlives the restore session.
    """

    def __init__(
        self,
        fetch: Callable[[RecordT], FramesT],
        records: Iterable[RecordT],
        depth: int,
    ):
        if depth <= 0:
            raise ValueError(f"prefetch depth must be positive, got {depth}")
        self._fetch = fetch
        self._depth = depth
        self._pool = ThreadPoolExecutor(
            max_workers=min(depth, _MAX_WORKERS),
            thread_name_prefix="repro-prefetch",
        )
        # close() may run from a different thread than frames_for() (e.g. a
        # with-block unwinding while the decode executor still drains), so
        # all consumption-side state shares one lock.
        self._lock = threading.Lock()
        self._records = deque(records)  # lint: guarded-by(_lock)
        #: (record, future) pairs in submission (= consumption) order.
        self._inflight: deque[tuple[RecordT, Future[FramesT]]] = (
            deque()
        )  # lint: guarded-by(_lock)
        self._closed = False  # lint: guarded-by(_lock)
        self._fill()

    # ------------------------------------------------------------------ #
    def _fill(self) -> None:  # lint: requires-lock(_lock)
        while self._records and len(self._inflight) < self._depth:
            record = self._records.popleft()
            self._inflight.append((record, self._pool.submit(self._fetch, record)))

    def frames_for(self, record: RecordT) -> FramesT:
        """The frames of ``record`` — prefetched when consumed in order.

        This is shaped exactly like the provider it wraps, so it drops into
        :meth:`repro.pipeline.RestorePipeline.iter_decode` as the
        ``frames_for`` callback.
        """
        future: "Future[FramesT] | None" = None
        with self._lock:
            if (
                not self._closed
                and self._inflight
                and self._inflight[0][0] is record
            ):
                _, future = self._inflight.popleft()
                self._fill()
        if future is not None:
            # Block outside the lock: a slow fetch must not stall close().
            return future.result()
        # Closed, out-of-order, or unknown record: serve it directly rather
        # than guessing at the consumer's new ordering.
        return self._fetch(record)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Cancel pending fetches and release the worker threads (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._inflight)
            self._inflight.clear()
            self._records.clear()
        for _, future in pending:
            future.cancel()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "FramePrefetcher[RecordT, FramesT]":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        self.close()
