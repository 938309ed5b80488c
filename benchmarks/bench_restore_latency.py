"""Restore-latency benchmark: sub-segment parallel decode, readahead, emulation.

Measures three restore paths:

1. **sub-segment parallel decode**: a *single huge segment* historically
   decoded on one core; ``decode_parallelism`` splits its per-image emblem
   decoding into chunks mapped through the executor, so restore latency for
   the worst case (one segment = the whole archive) drops toward
   ``serial / workers``;
2. **readahead**: ``read_range`` over a store target fetches each covering
   segment's frames lazily, serialising backend I/O in front of decode; a
   prefetching frame source (``readahead`` in :class:`~repro.api.
   ArchiveConfig`) overlaps the two — the effect is measured against a
   deliberately slowed backend modelling a remote/cold store;
3. **emulated restore**: a one-segment ``portable`` archive restored with
   ``decode_mode="dynarisc"``, so the archived LZSS decoder runs under the
   DynaRisc interpreter; the ``emulated`` block reports MB/s, seconds and
   the emulator step count.

Run standalone (it is *not* collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_restore_latency.py            # full
    PYTHONPATH=src python benchmarks/bench_restore_latency.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import ArchiveConfig, open_archive, open_restore
from repro.store import ArchiveSource, open_source

#: Timed sections take the best of this many runs.  bench_volumes uses 3;
#: the single-segment modes here are compared against *each other* (the
#: ``speedup_vs_serial`` ratio), so a couple of extra runs per mode tighten
#: the ratio against scheduler jitter at negligible wall-clock cost.
_TIMING_RUNS = 5


def payload_bytes(size: int, seed: int = 41) -> bytes:
    rng = np.random.default_rng(seed)  # lint: disable=REP101 -- benchmark harness; seed is an explicit literal
    return bytes(rng.integers(0, 256, size=size, dtype=np.uint8))


class SlowSource(ArchiveSource):
    """An :class:`ArchiveSource` proxy adding fixed latency per frame fetch.

    Models a cold/remote backend (object store, tape robot, a scanner
    feeding frames) where fetching a segment's frames costs real wall-clock
    — the regime readahead exists for.
    """

    def __init__(self, inner: ArchiveSource, delay_per_fetch: float):
        self._inner = inner
        self._delay = delay_per_fetch

    def manifest(self):
        return self._inner.manifest()

    def get_text(self, name):
        return self._inner.get_text(name)

    def get_frame(self, kind, index):
        time.sleep(self._delay)
        return self._inner.get_frame(kind, index)

    def frame_count(self, kind):
        return self._inner.frame_count(kind)

    def get_frames(self, kind, start, count):
        time.sleep(self._delay)
        return self._inner.get_frames(kind, start, count)

    def close(self):
        self._inner.close()


def bench_single_segment_decode(payload: bytes, parallelisms: list[int]) -> dict:
    """One-shot archive (a single huge segment) vs. decode_parallelism."""
    config = ArchiveConfig(media="test", codec="store", segment_size=None)
    with open_archive(config) as writer:
        writer.write(payload)
    archive = writer.archive
    frames = archive.manifest.data_emblem_count
    print(f"single-segment decode: {len(payload) / 1e6:.2f} MB payload, "
          f"{frames} frames in one segment")

    results: dict = {"frames": frames, "modes": {}}
    baseline = None
    for parallelism in parallelisms:
        # Best-of-N, matching bench_volumes: a single cold run folds lazy
        # table construction and allocator warm-up into the one number the
        # regression gate pins.
        elapsed = None
        with open_restore(
            archive,
            config,
            executor=f"thread:{parallelism}" if parallelism > 1 else "serial",
            decode_parallelism=parallelism,
        ) as reader:
            for _ in range(_TIMING_RUNS):
                start = time.perf_counter()
                result = reader.read()
                run = time.perf_counter() - start
                assert result.payload == payload
                elapsed = run if elapsed is None else min(elapsed, run)
        baseline = baseline if baseline is not None else elapsed
        label = f"decode_parallelism={parallelism}"
        print(f"  {label:<24} {elapsed:6.2f} s  "
              f"{len(payload) / 1e6 / elapsed:5.2f} MB/s  "
              f"({baseline / elapsed:4.2f}x vs serial)")
        results["modes"][str(parallelism)] = {
            "seconds": elapsed,
            # Restore throughput: higher is better (gated by bench-check).
            "mb_per_s": len(payload) / 1e6 / elapsed,
            # Ratio of the serial mode's time to this mode's: higher is better;
            # below 1.0 the parallel mode is a slowdown.
            "speedup_vs_serial": baseline / elapsed,
        }
    return results


def bench_emulated_restore(payload: bytes) -> dict:
    """One-segment ``portable`` archive restored by the archived DynaRisc decoder.

    The whole restore — MOCoder decode plus the archived LZSS decoder run
    under :class:`~repro.dynarisc.emulator.DynaRiscEmulator` — is timed, so
    the row tracks the interpreter on the future user's path.
    """
    config = ArchiveConfig(media="test", codec="portable", segment_size=None)
    with open_archive(config) as writer:
        writer.write(payload)
    elapsed = None
    with open_restore(writer.archive, config, decode_mode="dynarisc") as reader:
        for _ in range(_TIMING_RUNS):
            start = time.perf_counter()
            result = reader.read()
            run = time.perf_counter() - start
            assert result.payload == payload
            elapsed = run if elapsed is None else min(elapsed, run)
    steps = result.emulator_steps
    print(f"emulated restore (decode_mode=dynarisc): {len(payload) / 1e6:.2f} MB payload, "
          f"{elapsed:6.2f} s  {len(payload) / 1e6 / elapsed:5.3f} MB/s  "
          f"{steps} emulator steps ({steps / elapsed / 1e6:.2f} M steps/s incl. MOCoder)")
    return {
        "seconds": elapsed,
        # Restore throughput through the emulator: higher is better.
        "mb_per_s": len(payload) / 1e6 / elapsed,
        "emulator_steps": steps,
    }


def bench_read_range_readahead(
    payload: bytes,
    segment_size: int,
    workdir: Path,
    depths: list[int],
    slice_bytes: int,
    fetch_delay: float,
) -> dict:
    """read_range latency vs. readahead depth over a slowed container backend."""
    target = workdir / "latency.ule"
    config = ArchiveConfig(media="test", codec="store", segment_size=segment_size)
    with open_archive(config, target=target, store="container") as writer:
        writer.write(payload)
    offset = len(payload) // 8
    print(f"read_range: {slice_bytes}-byte slice over a container backend with "
          f"{fetch_delay * 1e3:.0f} ms simulated fetch latency per segment")

    results: dict = {
        "slice_bytes": slice_bytes,
        "fetch_delay_seconds": fetch_delay,
        "depths": {},
    }
    baseline = None
    for depth in depths:
        source = SlowSource(open_source(target), fetch_delay)
        reader = open_restore(source, readahead=depth)
        start = time.perf_counter()
        got = reader.read_range(offset, slice_bytes)
        elapsed = time.perf_counter() - start
        reader.close()
        assert got == payload[offset:offset + slice_bytes]
        baseline = baseline if baseline is not None else elapsed
        print(f"  readahead={depth:<2} {elapsed:6.2f} s  "
              f"({baseline / max(elapsed, 1e-9):4.2f}x vs no readahead, "
              f"{reader.segments_decoded} segments decoded)")
        results["depths"][str(depth)] = {
            "seconds": elapsed,
            "segments_decoded": reader.segments_decoded,
            # Restore throughput over the slowed backend: higher is better.
            "mb_per_s": slice_bytes / 1e6 / max(elapsed, 1e-9),
            # Ratio of the readahead=0 time to this depth's: higher is better;
            # 1.0 means prefetching hid no backend latency.
            "speedup_vs_lazy": baseline / max(elapsed, 1e-9),
        }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small payload, quick)")
    parser.add_argument("--workers", type=int, default=min(4, os.cpu_count() or 1),
                        help="max decode parallelism to sweep (default min(4, cpus))")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurements as JSON to PATH")
    args = parser.parse_args(argv)

    if args.smoke:
        single_bytes = 48_000
        range_bytes = 96_000
        segment_size = 4_096
        slice_bytes = 48_000
        fetch_delay = 0.05
    else:
        single_bytes = 400_000
        range_bytes = 400_000
        segment_size = 8_192
        slice_bytes = 200_000
        fetch_delay = 0.1
    parallelisms = sorted({1, 2, max(2, args.workers)})
    depths = [0, 2, 4]

    workdir = Path(tempfile.mkdtemp(prefix="bench-restore-latency-"))
    try:
        single = bench_single_segment_decode(payload_bytes(single_bytes), parallelisms)
        emulated = bench_emulated_restore(payload_bytes(single_bytes))
        ranged = bench_read_range_readahead(
            payload_bytes(range_bytes), segment_size, workdir, depths,
            slice_bytes, fetch_delay,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.json:
        report = {
            "benchmark": "restore-latency",
            "smoke": bool(args.smoke),
            "cpus_visible": os.cpu_count(),
            "single_segment": single,
            "emulated": emulated,
            "read_range": ranged,
        }
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
