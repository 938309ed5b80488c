"""Pluggable executors for the streaming pipeline's per-segment work.

Segments are independent, so the pipeline maps a pure function over them.
The executor decides *where* that function runs:

* :class:`SerialExecutor` — inline, in submission order (zero overhead, the
  default, and the reference every parallel backend must match byte for
  byte);
* :class:`ThreadPoolSegmentExecutor` — a ``concurrent.futures`` thread pool;
  the encode hot loops are numpy-heavy and release the GIL for much of their
  time;
* :class:`ProcessPoolSegmentExecutor` — a ``concurrent.futures`` process
  pool for CPU-bound stages (the LZSS compressor is pure Python and scales
  with processes, not threads).

All executors preserve submission order and bound the number of in-flight
segments, so downstream consumers see a deterministic stream and peak memory
stays proportional to ``window``, not to the payload.

:data:`EXECUTORS` is the executor name table (``serial``, ``thread``,
``process`` and ``auto``); :func:`get_executor` builds one from a
``"name:workers"`` spec through it, and each archive or restore session
builds its own from its config and closes it when done.  A pool without a
worker count, and ``auto``'s choice, use the CPUs this process may run on
(its affinity mask where the platform has one), not every CPU the machine
shows.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from collections import deque
from types import TracebackType
from typing import Callable, Iterable, Iterator, TypeVar

from repro.errors import resolve_name

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask where the
    platform has one (a process pinned to one CPU gets 1), else every CPU
    the machine shows."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class SegmentExecutor:
    """Base class: ordered, bounded mapping of a function over segments."""

    name = "base"

    #: How many jobs run at once.  A restore splits a large segment's decode
    #: into up to this many jobs, so an executor that runs one job at a time
    #: never pays for a split.
    workers = 1

    def map_ordered(
        self, function: Callable[[ItemT], ResultT], items: Iterable[ItemT]
    ) -> Iterator[ResultT]:
        """Apply ``function`` to every item, yielding results in input order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "SegmentExecutor":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        self.close()


class SerialExecutor(SegmentExecutor):
    """Run every segment inline on the calling thread."""

    name = "serial"

    def map_ordered(
        self, function: Callable[[ItemT], ResultT], items: Iterable[ItemT]
    ) -> Iterator[ResultT]:
        for item in items:
            yield function(item)


class _PoolExecutor(SegmentExecutor):
    """Shared logic for the ``concurrent.futures``-backed executors.

    Keeps at most ``window`` futures in flight (default ``2 * workers``) and
    yields results in submission order, so memory is bounded and output is
    deterministic regardless of worker scheduling.
    """

    def __init__(self, workers: int | None = None, window: int | None = None):
        self.workers = max(1, workers if workers is not None else _usable_cpus())
        self.window = max(1, window if window is not None else 2 * self.workers)
        self._pool: Executor | None = None

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    @property
    def pool(self) -> Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def map_ordered(
        self, function: Callable[[ItemT], ResultT], items: Iterable[ItemT]
    ) -> Iterator[ResultT]:
        pending: deque[Future[ResultT]] = deque()
        iterator = iter(items)
        exhausted = False
        try:
            while pending or not exhausted:
                while not exhausted and len(pending) < self.window:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append(self.pool.submit(function, item))
                if pending:
                    yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadPoolSegmentExecutor(_PoolExecutor):
    """Bounded-window thread-pool executor."""

    name = "thread"

    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(max_workers=self.workers)


class ProcessPoolSegmentExecutor(_PoolExecutor):
    """Bounded-window process-pool executor.

    The mapped function and its arguments must be picklable; the pipeline's
    segment jobs are module-level functions over plain data for exactly this
    reason.
    """

    name = "process"

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.workers)


def parse_executor_spec(spec: str) -> tuple[str, int | None]:
    """Split an executor spec into its base name and worker count.

    ``"thread:4"`` -> ``("thread", 4)``; a bad worker count raises
    :class:`ValueError`.
    """
    name, _, count = str(spec).partition(":")
    try:
        workers = int(count) if count else None
    except ValueError:
        raise ValueError(
            f"bad executor spec {spec!r}: worker count must be an integer"
        ) from None
    if workers is not None and workers < 1:
        raise ValueError(f"bad executor spec {spec!r}: worker count must be >= 1")
    return name, workers


def _auto_executor(workers: int | None = None) -> SegmentExecutor:
    """``auto``: a process pool when this process may use more than one CPU,
    else serial."""
    if _usable_cpus() > 1:
        return ProcessPoolSegmentExecutor(workers=workers)
    return SerialExecutor()


#: The executor name table: factories (``workers -> SegmentExecutor``), by name.
EXECUTORS: dict[str, Callable[[int | None], SegmentExecutor]] = {
    "auto": _auto_executor,
    "process": ProcessPoolSegmentExecutor,
    "serial": lambda workers=None: SerialExecutor(),
    "thread": ThreadPoolSegmentExecutor,
}


def executor_name(name: str) -> str:
    """The :data:`EXECUTORS` key ``name`` spells, in any case; an unknown
    name raises :class:`~repro.errors.UnknownNameError` with a did-you-mean
    suggestion."""
    return resolve_name("executor", name, sorted(EXECUTORS))


def get_executor(spec: str) -> SegmentExecutor:
    """A new executor from a name or ``"name:workers"`` spec.

    ``"serial"`` runs inline; ``"thread"`` / ``"process"`` use every CPU
    this process may run on; ``"thread:4"`` pins the worker count;
    ``"auto"`` picks a process pool when that is more than one CPU and
    serial otherwise.  Unknown names raise
    :class:`~repro.errors.UnknownNameError` with a did-you-mean suggestion.
    The caller owns the executor and closes it when done.
    """
    name, workers = parse_executor_spec(spec)
    return EXECUTORS[executor_name(name)](workers)
