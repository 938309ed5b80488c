"""Store benchmark: streaming writes and random-access partial restore.

Measures the two claims behind ``repro.store``:

1. **bounded-memory streaming**: archiving through a store target with
   ``collect=False`` holds only the executor window in memory, while the
   collecting session materialises every raster — tracemalloc peaks make
   the gap visible across the directory, container and memory backends;
2. **random access**: ``read_range`` over a small slice decodes only the
   covering segments, so its latency (and frames-decoded count) stays flat
   as the archive grows, while a full restore scales with the payload.

Methodology notes (both fixed after the seed's phantom-trajectory run):

* throughput and peak memory come from *separate* runs — tracemalloc's
  allocation hooks tax the encode hot path severalfold, so timing under
  them reports the profiler's overhead, not the store's throughput;
* archives go through ``cinema-35mm-2k``, the densest registered profile
  (~80x raster expansion).  The seed benchmarked the unit-test profile,
  whose ~700 bytes of raster per payload byte made every backend read as
  "0.1 MB/s" regardless of how fast the sink actually was.
* write timings are best-of-``_TIMING_RUNS`` to damp scheduler noise;
* the scratch workdir lives on tmpfs (``/dev/shm``) when available: the
  subject under test is the store stack (encode, serialisation, sink
  batching), and CI block devices are throttled erratically enough to
  drown the signal otherwise.

Run standalone (it is *not* collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_store.py            # full
    PYTHONPATH=src python benchmarks/bench_store.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.api import ArchiveConfig, open_archive, open_restore
from repro.store import MemoryBackend


#: Media profile the archives are written through (densest registered).
BENCH_MEDIA = "cinema-35mm-2k"

#: Timed write passes per backend; the best is reported.  Three passes on
#: the 1-vCPU CI runner keep the downside noise well inside the 0.7x
#: regression-gate floor (single runs have been observed to swing 2x).
_TIMING_RUNS = 3


def payload_bytes(size: int, seed: int = 7) -> bytes:
    rng = np.random.default_rng(seed)  # lint: disable=REP101 -- benchmark harness; seed is an explicit literal
    return bytes(rng.integers(0, 256, size=size, dtype=np.uint8))


def timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def bench_write(payload: bytes, segment_size: int, workdir: Path) -> dict:
    config = ArchiveConfig(media=BENCH_MEDIA, codec="store", segment_size=segment_size)
    print(f"write: {len(payload) / 1e6:.2f} MB payload, segment_size={segment_size}, "
          f"media={BENCH_MEDIA}")

    tracemalloc.start()
    with open_archive(config) as writer:
        writer.write(payload)
    _, collected_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"  collect=True (in-memory artefact)   peak {collected_peak / 1e6:8.1f} MB")

    measurements: dict = {"collected_peak_bytes": collected_peak, "streaming": {}}
    # (backend, target-URI scheme, path or memory key); the scheme alone
    # picks the backend.
    targets = [
        ("directory", "dir", workdir / "arch-dir"),
        ("container", "file", workdir / "arch.ule"),
        ("memory", "mem", "bench-store"),
    ]
    for store, scheme, target in targets:
        # Timing and memory come from separate runs: tracemalloc's hooks tax
        # every allocation in the encode hot path, so timing under it
        # understates throughput severalfold (the directory/container
        # targets are re-archived into a scratch name first, then measured).
        def archive_to(destination):
            with open_archive(config, target=f"{scheme}:{destination}") as writer:
                writer.write(payload)

        timing_target = target if store == "memory" else (
            Path(str(target) + ".timing")
        )
        elapsed = float("inf")
        for _ in range(_TIMING_RUNS):
            start = time.perf_counter()
            archive_to(timing_target)
            elapsed = min(elapsed, time.perf_counter() - start)
            if store == "memory":
                MemoryBackend.discard(f"mem:{target}")
            elif timing_target.is_dir():
                shutil.rmtree(timing_target)
            else:
                timing_target.unlink()

        tracemalloc.start()
        archive_to(target)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rate = len(payload) / 1e6 / elapsed
        print(f"  {store:<10} streaming (collect=False) peak {peak / 1e6:8.1f} MB  "
              f"{elapsed:6.2f} s  {rate:5.1f} MB/s")
        measurements["streaming"][store] = {
            "peak_bytes": peak,
            "seconds": elapsed,
            "mb_per_s": rate,
        }
    return measurements


def bench_read(payload: bytes, workdir: Path, slice_bytes: int) -> dict:
    target = f"file:{workdir / 'arch.ule'}"
    print(f"read: container archive, {slice_bytes}-byte random slices")

    result, full_time = timed(lambda: open_restore(target).read())
    assert result.payload == payload
    full_frames = result.data_report.emblems_seen
    print(f"  full restore        {full_time:6.2f} s  {full_frames:5d} frames decoded")

    rng = np.random.default_rng(11)  # lint: disable=REP101 -- benchmark harness; seed is an explicit literal
    offsets = rng.integers(0, max(len(payload) - slice_bytes, 1), size=5)
    reader = open_restore(target)
    start = time.perf_counter()
    for offset in offsets:
        got = reader.read_range(int(offset), slice_bytes)
        assert got == payload[int(offset):int(offset) + slice_bytes]
    partial_time = (time.perf_counter() - start) / len(offsets)
    frames = reader.frames_decoded / len(offsets)
    print(f"  read_range (avg)    {partial_time:6.2f} s  {frames:5.1f} frames decoded  "
          f"({full_time / max(partial_time, 1e-9):4.1f}x faster than full)")
    return {
        "full_restore_seconds": full_time,
        "full_restore_frames": full_frames,
        "slice_bytes": slice_bytes,
        "read_range_avg_seconds": partial_time,
        "read_range_avg_frames": frames,
        # Full-restore time over the average read_range time: higher is better
        # (partial reads decode fewer frames).
        "speedup_vs_full": full_time / max(partial_time, 1e-9),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small payload, quick)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurements as JSON to PATH "
                             "(the CI benchmark-trajectory artifact)")
    args = parser.parse_args(argv)

    size = 128_000 if args.smoke else 2_000_000
    segment_size = 64 * 1024 if args.smoke else 256 * 1024
    slice_bytes = 512 if args.smoke else 4_096
    payload = payload_bytes(size)

    scratch_root = Path("/dev/shm")
    workdir = Path(tempfile.mkdtemp(
        prefix="bench-store-",
        dir=scratch_root if scratch_root.is_dir() else None,
    ))
    try:
        write_results = bench_write(payload, segment_size, workdir)
        read_results = bench_read(payload, workdir, slice_bytes)
    finally:
        MemoryBackend.discard("mem:bench-store")
        shutil.rmtree(workdir, ignore_errors=True)

    if args.json:
        report = {
            "benchmark": "store",
            "smoke": bool(args.smoke),
            "payload_bytes": size,
            "segment_size": segment_size,
            "write": write_results,
            "read": read_results,
        }
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
