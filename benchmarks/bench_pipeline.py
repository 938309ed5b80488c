"""Pipeline benchmark: one-shot vs. streaming vs. parallel archival.

Measures — rather than asserts — the three claims behind the streaming
pipeline:

1. **throughput**: encode MB/s for the one-shot session, the streaming
   serial session, and the streaming parallel session (thread and process
   executors), all through ``repro.api.open_archive`` on the same payload;
2. **peak memory**: the one-shot path materialises every emblem raster at
   once, the streaming path holds only the in-flight window — tracemalloc
   peaks make the difference visible;
3. **per-segment restore**: an archive with a deliberately corrupted segment
   still restores byte-identically, decoding segments independently.

Run standalone (it is *not* collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_pipeline.py            # full (~4 MiB)
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke    # CI-sized

Two speedup figures are reported: the pipeline vs. today's one-shot path
(pure parallelism — needs >= 2 usable CPUs to exceed 1x, since both share
the vectorised hot loops), and the pipeline vs. a one-shot run with the
*seed's* hot-loop implementations temporarily re-installed (kron rendering,
cumulative-sum Manchester, LFSR/Horner Reed-Solomon), which isolates the
vectorisation work this PR landed.  ``--assert-speedup`` turns the
>= 2x-over-seed-baseline criterion into a hard exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro import registry
from repro.api import ArchiveConfig, open_archive, open_restore
from repro.core.profiles import MediaProfile
from repro.media.distortions import OFFICE_SCAN
from repro.media.paper import PaperChannel
from repro.mocoder.emblem import EmblemSpec

#: Mid-sized emblems for the benchmark: paper-like capacity (~57 kB/emblem)
#: at 2 px/cell so the one-shot raster set stays a few hundred megabytes.
BENCH_PROFILE = MediaProfile(
    name="bench-paper-2px",
    description="benchmark emblems: A4-paper capacity at 2 px/cell",
    spec=EmblemSpec(
        name="bench-paper-2px",
        data_cells_x=1064,
        data_cells_y=1056,
        cell_pixels=2,
    ),
    channel_factory=lambda: PaperChannel(dpi=300, distortion=OFFICE_SCAN.scaled(0.25)),
)

# Plug the bench profile into the media registry so configs select it by name.
if BENCH_PROFILE.name not in registry.media:
    registry.media.register(BENCH_PROFILE.name, BENCH_PROFILE)


def _make_payload(size: int, seed: int = 20210101) -> bytes:
    rng = np.random.default_rng(seed)  # lint: disable=REP101 -- benchmark harness; seed is an explicit literal
    return bytes(rng.integers(0, 256, size=size, dtype=np.uint8))


@contextlib.contextmanager
def seed_hot_loops():
    """Temporarily restore the seed's implementations of the encode hot loops.

    The pipeline PR vectorised four of them (RS parity via the
    multiplication-table matrix product, RS syndromes without the Horner
    recurrence, repeat-based emblem rendering, XOR-prefix-scan Manchester);
    this context re-installs seed-equivalent versions so the benchmark can
    *measure* the optimisation instead of asserting it.
    """
    from repro.mocoder import emblem as emblem_mod
    from repro.mocoder import mocoder as mocoder_mod
    from repro.mocoder.emblem import Emblem, WHITE, BLACK
    from repro.mocoder.reed_solomon import ReedSolomonCode

    def kron_to_image(self):  # the seed's renderer
        spec = self.spec
        cells = self._build_cell_grid()
        image = np.full((spec.total_cells_y, spec.total_cells_x), WHITE, dtype=np.uint8)
        image[cells == 1] = BLACK
        if spec.cell_pixels > 1:
            image = np.kron(
                image, np.ones((spec.cell_pixels, spec.cell_pixels), dtype=np.uint8)
            )
        return image

    def cumsum_manchester(bits, initial_level=0):  # the seed's encoder
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        if bits.size == 0:
            return np.zeros(0, dtype=np.uint8)
        zeros_before = np.concatenate([[0], np.cumsum(bits == 0)[:-1]]).astype(np.int64)
        clock_parity = (np.arange(1, bits.size + 1) + zeros_before) & 1
        first_half = (initial_level ^ clock_parity) & 1
        second_half = first_half ^ (bits == 0)
        cells = np.empty(2 * bits.size, dtype=np.uint8)
        cells[0::2] = first_half
        cells[1::2] = second_half
        return cells

    def per_emblem_batch(emblems):  # the seed had no batched renderer
        return np.stack([emblem.to_image() for emblem in emblems])

    saved = (
        Emblem.to_image,
        emblem_mod.manchester_encode_fast,
        mocoder_mod.render_emblem_batch,
        ReedSolomonCode.encode_blocks,
        ReedSolomonCode.syndromes_blocks,
    )
    Emblem.to_image = kron_to_image
    emblem_mod.manchester_encode_fast = cumsum_manchester
    mocoder_mod.render_emblem_batch = per_emblem_batch
    ReedSolomonCode.encode_blocks = ReedSolomonCode._encode_blocks_reference
    ReedSolomonCode.syndromes_blocks = ReedSolomonCode._syndromes_blocks_reference
    try:
        yield
    finally:
        (
            Emblem.to_image,
            emblem_mod.manchester_encode_fast,
            mocoder_mod.render_emblem_batch,
            ReedSolomonCode.encode_blocks,
            ReedSolomonCode.syndromes_blocks,
        ) = saved


#: Timed passes per mode; the best is reported (single-run numbers flap by
#: 2-3x on busy single-CPU CI runners, which would trip the regression gate).
_TIMING_RUNS = 2


def _timed(fn):
    """(result, seconds, traced_peak_bytes) for one benchmark mode.

    Timing and memory are measured in *separate* runs: tracemalloc's
    overhead grows with the amount of live traced memory, which would
    penalise the memory-hungry modes' timings and overstate the streaming
    speedup.  Timing is best-of-``_TIMING_RUNS`` to damp scheduler noise.
    """
    elapsed = float("inf")
    for _ in range(_TIMING_RUNS):
        start = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def bench_encode(payload: bytes, segment_size: int, codec: str,
                 executors: list[str]) -> dict[str, tuple[float, float, int | None]]:
    """Return {mode: (seconds, MB/s, peak_bytes)} for each encode mode."""
    results: dict[str, tuple[float, float, int | None]] = {}
    mb = len(payload) / 1e6

    def one_shot():
        with open_archive(
            ArchiveConfig(media=BENCH_PROFILE.name, codec=codec, segment_size=None)
        ) as writer:
            writer.write(payload)
        return writer.archive.manifest.data_emblem_count

    with seed_hot_loops():
        seconds = float("inf")
        for _ in range(_TIMING_RUNS):
            start = time.perf_counter()
            one_shot()
            seconds = min(seconds, time.perf_counter() - start)
    results["one-shot (seed loops)"] = (seconds, mb / seconds, None)

    count, seconds, peak = _timed(one_shot)
    results["one-shot"] = (seconds, mb / seconds, peak)

    for executor in executors:
        config = ArchiveConfig(
            media=BENCH_PROFILE.name,
            codec=codec,
            segment_size=segment_size,
            executor=executor,
        )

        def streaming():
            # collect=False drops each batch after counting it: the
            # bounded-memory usage pattern a recorder-facing consumer
            # would follow.
            emblems = 0

            def count(batch):
                nonlocal emblems
                emblems += len(batch.images)

            with open_archive(config, on_batch=count, collect=False) as writer:
                writer.write(payload)
            return emblems

        count, seconds, peak = _timed(streaming)
        results[f"streaming {executor}"] = (seconds, mb / seconds, peak)
    return results


def bench_segmented_restore(payload: bytes, segment_size: int,
                            codec: str) -> tuple[bool, int, float]:
    """Corrupt one segment's emblems; restore via per-segment decode."""
    with open_archive(
        ArchiveConfig(media=BENCH_PROFILE.name, codec=codec, segment_size=segment_size)
    ) as writer:
        writer.write(payload)
    archive = writer.archive
    segments = archive.manifest.segments
    assert len(segments) > 1, "restore demo needs a multi-segment archive"
    # Blank out one emblem frame of the middle segment (within the outer
    # code's 3-per-group erasure budget).
    victim = segments[len(segments) // 2]
    blank = np.full_like(archive.data_emblem_images[victim.emblem_start], 255)
    archive.data_emblem_images[victim.emblem_start] = blank
    start = time.perf_counter()
    result = open_restore(archive).read()
    elapsed = time.perf_counter() - start
    return result.payload == payload, result.data_report.groups_reconstructed, elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: small payload, serial + one worker pair")
    parser.add_argument("--payload-mb", type=float, default=4.0,
                        help="payload size in MiB (default 4)")
    parser.add_argument("--segment-kb", type=int, default=512,
                        help="pipeline segment size in KiB (default 512)")
    parser.add_argument("--codec", choices=["store", "portable", "dense"],
                        default="store",
                        help="compression codec (store isolates the MOCoder path)")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="worker count for the parallel executors")
    parser.add_argument("--assert-speedup", action="store_true",
                        help="exit non-zero unless the best pipeline mode reaches "
                             ">= 2x the seed-baseline one-shot throughput")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the measurements as JSON to PATH "
                             "(the CI benchmark-trajectory artifact)")
    args = parser.parse_args(argv)

    if args.smoke:
        payload_bytes = 512 * 1024
        segment_size = 128 * 1024
        # Fixed names: the committed baseline's keys must not depend on how
        # many CPUs the recording host had.
        executors = ["serial", "thread:2"]
    else:
        payload_bytes = int(args.payload_mb * 1024 * 1024)
        segment_size = args.segment_kb * 1024
        executors = ["serial", f"thread:{args.workers}", f"process:{args.workers}"]
    print(f"payload: {payload_bytes / 1e6:.1f} MB random bytes | "
          f"segment: {segment_size // 1024} KiB | codec: {args.codec} | "
          f"cpus visible: {os.cpu_count()}")
    payload = _make_payload(payload_bytes)

    results = bench_encode(payload, segment_size, args.codec, executors)
    print(f"\n{'mode':<22} {'seconds':>9} {'MB/s':>8} {'py-heap peak':>14}")
    for mode, (seconds, mbps, peak) in results.items():
        peak_text = f"{peak / 1e6:>11.1f} MB" if peak is not None else f"{'-':>14}"
        print(f"{mode:<22} {seconds:>9.2f} {mbps:>8.2f} {peak_text}")
    print("(py-heap peak: tracemalloc over the parent process; process-pool "
          "workers allocate in their own address spaces)")

    ok, reconstructed, restore_seconds = bench_segmented_restore(
        payload[: min(payload_bytes, 2 * 1024 * 1024)], segment_size, args.codec
    )
    print(f"\nsegment-corrupted restore: bit-exact={ok}, "
          f"outer-code groups reconstructed={reconstructed}, {restore_seconds:.2f}s")
    if not ok:
        print("FAIL: corrupted-segment archive did not restore bit-exactly")
        return 1

    one_shot_mbps = results["one-shot"][1]
    seed_mbps = results["one-shot (seed loops)"][1]
    parallel_mbps = max(
        mbps for mode, (_, mbps, _) in results.items() if not mode.startswith("one-shot")
    )
    speedup = parallel_mbps / one_shot_mbps
    print(f"\nbest pipeline vs one-shot:            {speedup:.2f}x "
          f"({parallel_mbps:.2f} vs {one_shot_mbps:.2f} MB/s)")
    print(f"best pipeline vs seed one-shot loops: {parallel_mbps / seed_mbps:.2f}x "
          f"({parallel_mbps:.2f} vs {seed_mbps:.2f} MB/s)")

    if args.json:
        report = {
            "benchmark": "pipeline",
            "smoke": bool(args.smoke),
            "payload_bytes": payload_bytes,
            "segment_size": segment_size,
            "codec": args.codec,
            "cpus_visible": os.cpu_count(),
            "encode": {
                mode: {
                    "seconds": seconds,
                    "mb_per_s": mbps,
                    "py_heap_peak_bytes": peak,
                }
                for mode, (seconds, mbps, peak) in results.items()
            },
            "segmented_restore": {
                "bit_exact": ok,
                "groups_reconstructed": reconstructed,
                "seconds": restore_seconds,
            },
            # Parallel encode time over one-shot encode time: higher is better
            # (more of the pipeline overlapped).
            "speedup_vs_one_shot": speedup,
            # Parallel throughput over the seed's loop throughput:
            # higher is better.
            "speedup_vs_seed_loops": parallel_mbps / seed_mbps,
        }
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")

    if args.assert_speedup and parallel_mbps / seed_mbps < 2.0:
        print("FAIL: --assert-speedup requires >= 2.0x over the seed baseline")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
