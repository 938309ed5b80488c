"""The benchmark's workloads: seeded inputs, timed operations, verification.

Each workload runs in one process as a closed loop with one client: the next
operation starts when the previous one has returned and been verified.  A
run is ``SETUP_REPEATS`` set-ups (generating the seeded SQL) followed by a
measured phase of ``--seconds``:

* ``tpch-microfilm-roundtrip`` — cycles of: archive ~1.5 MB of TPC-H SQL
  onto a microfilm container file (portable codec, 256 KiB segments,
  ``thread:2``); restore it from the stored frames after damaging every data
  frame in place and blanking the first data frame of every second segment;
  then a few 4 KiB range reads from the stored container.
* ``emulated-restore`` — cycles of: archive ~48 KB of SQL (one microfilm
  segment) to memory and a container file; restore it with the archived
  DBCoder decoder running under the DynaRisc emulator; then a few range
  reads from the container.
* ``cinema-range-reads`` — archive ~1.5 MB of SQL onto cinema film (dense
  codec, 64 KiB segments, serial executor) ``RANGE_ARCHIVES`` times, each
  followed by a share of the 4 KiB range reads at seeded offsets (one
  restore session per archive), until at least ``min_reads`` reads are
  done and ``--seconds`` have passed.

Range-read offsets are drawn uniformly from the 4 KiB-aligned blocks of the
payload, so each read is served by exactly one segment and every read of a
workload decodes the same number of frames.

Every restore and read is compared with its input by SHA-256; restores also
compare the restored tables' row counts with the generated database.  A
mismatch or an exception counts as a failed operation and is reported on
stderr with its traceback.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import scipy

# Layer functions are called through their modules (``dbms.tpch_archive_of_size``)
# so that the tracer's runtime wrappers see every call.
from repro import api, dbms
from repro.media import distortions
from repro.util.rng import deterministic_rng
from tracer import Tracer, layer_metrics, self_time_table

MB = 1_000_000
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The SQL reaches ``ArchiveWriter.write`` in chunks of this size.
WRITE_CHUNK = 1 << 20
#: The range-read workload archives only to have something to read; it
#: archives this many times, each followed by a share of the reads, so
#: ``archive_mb_s`` is a median there too.
RANGE_ARCHIVES = 3
#: RNG lanes under the workload seed (independent streams per purpose).
_DAMAGE_LANE = 1
_OFFSET_LANE = 2


@dataclass(frozen=True)
class Damage:
    """In-place damage applied to every data frame before a restore."""

    dust_spots: int
    dust_radius: int
    scratches: int
    scratch_width: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``roundtrip``, ``emulated`` or ``ranges``.
    kind: str
    sql_bytes: int
    #: :class:`repro.api.ArchiveConfig` fields.
    config: dict[str, Any]
    damage: Damage | None = None
    #: Range reads per cycle (roundtrip and emulated).
    probe_reads: int = 0
    #: Range reads per run at least (ranges).
    min_reads: int = 0
    read_length: int = 4096


FULL = {
    workload.name: workload
    for workload in (
        Workload(
            "tpch-microfilm-roundtrip", "roundtrip", 1_500_000,
            dict(media="microfilm", codec="portable", segment_size=256 * 1024,
                 payload_kind="sql", executor="thread:2"),
            # One scratch per frame: with two, about one seed in thirty loses
            # more frames of an outer-code group than its 3 parity frames cover.
            damage=Damage(dust_spots=200, dust_radius=6, scratches=1, scratch_width=4),
            probe_reads=4,
        ),
        Workload(
            "emulated-restore", "emulated", 48_000,
            dict(media="microfilm", codec="portable", payload_kind="sql"),
            probe_reads=4,
        ),
        Workload(
            "cinema-range-reads", "ranges", 1_500_000,
            dict(media="cinema", codec="dense", segment_size=64 * 1024, payload_kind="sql"),
            min_reads=100,
        ),
    )
}

#: The same three flows on the small test geometry with ~20 KB inputs, for
#: the benchmark's own self-test.
SMOKE = {
    "tpch-microfilm-roundtrip": Workload(
        "tpch-microfilm-roundtrip", "roundtrip", 20_000,
        dict(media="test", codec="portable", segment_size=4096, payload_kind="sql",
             executor="thread:2"),
        damage=Damage(dust_spots=2, dust_radius=1, scratches=0, scratch_width=1),
        probe_reads=2, read_length=1024,
    ),
    "emulated-restore": Workload(
        "emulated-restore", "emulated", 20_000,
        dict(media="test", codec="portable", payload_kind="sql"),
        probe_reads=2, read_length=1024,
    ),
    "cinema-range-reads": Workload(
        "cinema-range-reads", "ranges", 20_000,
        dict(media="test", codec="dense", segment_size=2048, payload_kind="sql"),
        min_reads=6, read_length=1024,
    ),
}

#: End-to-end metrics and their units (``failed_op_share`` is printed but
#: the result line carries it as ``failed``/``attempted``).
E2E_UNITS = {
    "archive_mb_s": "MB/s",
    "restore_mb_s": "MB/s",
    "range_read_p50_ms": "ms",
    "range_read_p90_ms": "ms",
    "media_frames_per_mb": "frames/MB",
    "encoded_bytes_per_input_byte": "ratio",
    "stored_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "failed_op_share": "share",
}

LAYER_UNITS = {
    "dbms.generate_s": "s",
    "dbms.load_s": "s",
    "dbcoder.encode_s": "s",
    "dbcoder.compression_ratio": "ratio",
    "dbcoder.decode_s": "s",
    "mocoder.encode_s": "s",
    "mocoder.decode_s": "s",
    "mocoder.rs_decode_s": "s",
    "mocoder.outer_reconstruct_s": "s",
    "mocoder.useful_frame_ratio": "ratio",
    "mocoder.frames_decoded": "count",
    "mocoder.rs_corrections": "count",
    "mocoder.emblems_failed": "count",
    "mocoder.groups_reconstructed": "count",
    "store.write_s": "s",
    "store.bytes_written": "bytes",
    "store.read_s": "s",
    "store.bytes_read_per_op": "bytes",
    "dynarisc.run_s": "s",
    "dynarisc.steps": "count",
    "dynarisc.steps_per_s": "1/s",
    "api.archive_self_s": "s",
    "core.restore_self_s": "s",
    "pipeline.encode_concurrency": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}


@dataclass
class Inputs:
    """What set-up generates from the seed; the program sees only these."""

    sql: bytes
    digest: str
    rows: dict[str, int]


@dataclass
class Tally:
    """Timings, counts and failures accumulated over one run."""

    attempted: int = 0
    failed: int = 0
    archive_s: list[float] = field(default_factory=list)
    restore_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    #: Wall time of the timed parts of each cycle but the first (which pays
    #: one-time warm-up), split by tracing state, for the tracing overhead.
    cycle_s: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    counts: dict[str, int] = field(default_factory=dict)
    layout: dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """One run of one workload: set-up, measured phase, metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.config = api.ArchiveConfig(**workload.config)
        self.target = f"file:{workdir / (workload.name + '.ule')}"
        self.tracer = Tracer() if trace else None
        self.tally = Tally()
        self.setup_s: list[float] = []
        self._traced = False

    # ------------------------------------------------------------------ #
    # Tracing helpers
    # ------------------------------------------------------------------ #
    def _set_traced(self, traced: bool) -> None:
        """Install the layer wrappers for a traced operation, remove them after."""
        self._traced = traced and self.tracer is not None
        if self.tracer is not None:
            if self._traced:
                self.tracer.install()
            else:
                self.tracer.uninstall()

    def _op(self, name: str, kind: str, cycle: int) -> "_Op":
        return _Op(self.tracer if self._traced else None, name, kind, cycle)

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #
    def setup(self) -> Inputs:
        self._set_traced(True)
        inputs = None
        for repeat in range(SETUP_REPEATS):
            with self._op("setup", "setup", repeat) as op:
                database, sql = dbms.tpch_archive_of_size(self.workload.sql_bytes, self.seed)
                payload = sql.encode("utf-8")
                inputs = Inputs(payload, _sha256(payload),
                                {table.name: table.row_count for table in database.tables})
            self.setup_s.append(op.seconds)
        self._set_traced(False)
        assert inputs is not None
        return inputs

    def _offsets(self, size: int) -> Iterator[int]:
        """Seeded offsets of whole ``read_length`` blocks of the payload."""
        rng = deterministic_rng((self.seed, _OFFSET_LANE))
        blocks = max(size // self.workload.read_length, 1)
        while True:
            yield int(rng.integers(0, blocks)) * self.workload.read_length

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def _archive(self, inputs: Inputs, cycle: int, collect: bool = False) -> Any:
        """Archive the SQL onto the container target; returns the artefact."""
        target = Path(self.target.removeprefix("file:"))
        if target.exists():
            target.unlink()
        self.tally.attempted += 1
        try:
            with self._op("archive", "archive", cycle) as op:
                with api.open_archive(self.config, target=self.target,
                                           collect=collect) as writer:
                    for start in range(0, len(inputs.sql), WRITE_CHUNK):
                        writer.write(inputs.sql[start:start + WRITE_CHUNK])
            archive = writer.archive
        except Exception:
            self.tally.fail(f"archive (cycle {cycle})")
            return None
        self.tally.archive_s.append(op.seconds)
        manifest = archive.manifest
        self.tally.layout = {
            "media": manifest.profile_name,
            "codec": manifest.dbcoder_profile,
            "executor": self.config.executor,
            "sql_bytes": len(inputs.sql),
            "segments": len(manifest.segments),
            "frames": manifest.data_emblem_count,
            "system_frames": manifest.system_emblem_count,
            "container_bytes": sum(record.container_bytes for record in manifest.segments),
            "stored_bytes": target.stat().st_size,
        }
        return archive

    def _check_restore(self, result: Any, inputs: Inputs) -> None:
        if _sha256(result.payload) != inputs.digest:
            raise AssertionError("restored payload differs from the archived SQL")
        rows = {table.name: table.row_count for table in result.database.tables}
        if rows != inputs.rows:
            raise AssertionError(f"restored row counts {rows} differ from {inputs.rows}")

    def _damage(self, frames: list[np.ndarray], manifest: Any) -> int:
        """Damage every data frame in place; returns a CRC of the damaged frames."""
        damage = self.workload.damage
        assert damage is not None
        rng = deterministic_rng((self.seed, _DAMAGE_LANE))
        for frame in frames:
            frame[...] = distortions.add_dust(frame, damage.dust_spots, damage.dust_radius, rng)
            frame[...] = distortions.add_scratches(
                frame, damage.scratches, damage.scratch_width, rng
            )
        for record in manifest.segments[1::2]:
            frames[record.emblem_start].fill(255)
        crc = 0
        for frame in frames:
            crc = zlib.crc32(frame, crc)
        return crc

    def _restore_damaged(self, inputs: Inputs, cycle: int) -> float | None:
        """Load the stored frames, damage them, restore from the scans."""
        self.tally.attempted += 1
        try:
            with self._op("restore.load", "decode", cycle) as load:
                reader = api.open_restore(self.target)
                archive = reader.archive
            with reader:
                damage_crc = self._damage(archive.data_emblem_images, archive.manifest)
                with self._op("restore.decode", "decode", cycle) as decode:
                    result = reader.read_from_scans(
                        archive.data_emblem_images, archive.system_emblem_images,
                        archive.bootstrap_text, archive.manifest.payload_kind, archive.manifest,
                    )
            self._check_restore(result, inputs)
        except Exception:
            self.tally.fail(f"restore (cycle {cycle})")
            return None
        seconds = load.seconds + decode.seconds
        self.tally.restore_s.append(seconds)
        reports = [result.data_report, result.system_report]
        self._count(
            damage_crc=damage_crc,
            rs_corrections=sum(report.rs_corrections for report in reports),
            emblems_failed=sum(report.emblems_failed for report in reports),
            groups_reconstructed=sum(report.groups_reconstructed for report in reports),
        )
        return seconds

    def _restore_emulated(self, archive: Any, inputs: Inputs, cycle: int) -> float | None:
        self.tally.attempted += 1
        try:
            with self._op("restore.emulated", "decode", cycle) as op:
                result = api.open_restore(archive, decode_mode="dynarisc").read()
            self._check_restore(result, inputs)
        except Exception:
            self.tally.fail(f"emulated restore (cycle {cycle})")
            return None
        self.tally.restore_s.append(op.seconds)
        self._count(emulator_steps=result.emulator_steps)
        return op.seconds

    def _read(self, reader: Any, inputs: Inputs, offset: int, cycle: int) -> float | None:
        length = self.workload.read_length
        self.tally.attempted += 1
        try:
            with self._op("read", "decode", cycle) as op:
                data = reader.read_range(offset, length)
            if _sha256(data) != _sha256(inputs.sql[offset:offset + length]):
                raise AssertionError(f"read_range({offset}, {length}) returned other bytes")
        except Exception:
            self.tally.fail(f"read_range at {offset} (cycle {cycle})")
            return None
        self.tally.read_s.append(op.seconds)
        return op.seconds

    def _probe_reads(self, inputs: Inputs, cycle: int) -> float:
        """A few range reads from the stored container; returns their time.

        Every cycle reads the same offsets, so each cycle repeats the same work.
        """
        total = 0.0
        offsets = self._offsets(len(inputs.sql))
        reader = self._open_reader("read.open", cycle)
        if reader is None:
            return total
        with reader:
            for _ in range(self.workload.probe_reads):
                total += self._read(reader, inputs, next(offsets), cycle) or 0.0
            self._count_reads(reader, self.workload.probe_reads)
        return total

    def _open_reader(self, name: str, cycle: int) -> Any:
        """A restore session on the stored container, or ``None`` on failure."""
        self.tally.attempted += 1
        try:
            with self._op(name, "decode", cycle):
                return api.open_restore(self.target)
        except Exception:
            self.tally.fail(f"open_restore (cycle {cycle})")
            return None

    def _count(self, **counts: int) -> None:
        """Keep the first cycle's exact counts (every cycle repeats them)."""
        for name, value in counts.items():
            self.tally.counts.setdefault(name, int(value))

    def _count_reads(self, reader: Any, reads: int) -> None:
        self._count(frames_per_read=reader.frames_decoded // max(reads, 1))

    # ------------------------------------------------------------------ #
    # Measured phase
    # ------------------------------------------------------------------ #
    def _cycles(self, started: float) -> Iterator[int]:
        """Cycle numbers until ``--seconds`` have passed.

        A traced run alternates untraced and traced cycles, starting and
        ending untraced (at least three), so the tracing overhead compares
        neighbouring cycles.
        """
        cycle = 0
        minimum = 3 if self.trace else 1
        while cycle < minimum or time.perf_counter() - started < self.seconds:
            self._set_traced(cycle % 2 == 1)
            yield cycle
            cycle += 1
        if self.trace and cycle % 2 == 0:
            self._set_traced(False)
            yield cycle
        self._set_traced(False)

    def measure(self, inputs: Inputs) -> None:
        started = time.perf_counter()
        kind = self.workload.kind
        if kind == "ranges":
            self._measure_ranges(inputs, started)
            return
        for cycle in self._cycles(started):
            archive = self._archive(inputs, cycle, collect=kind == "emulated")
            if archive is None:
                continue
            if kind == "roundtrip":
                restore = self._restore_damaged(inputs, cycle)
            else:
                restore = self._restore_emulated(archive, inputs, cycle)
            del archive
            reads = self._probe_reads(inputs, cycle)
            if restore is not None and cycle > 0:
                self.tally.cycle_s[self._traced].append(
                    self.tally.archive_s[-1] + restore + reads
                )

    def _measure_ranges(self, inputs: Inputs, started: float) -> None:
        offsets = self._offsets(len(inputs.sql))
        read = 0
        for repeat in range(RANGE_ARCHIVES):
            self._set_traced(True)
            archived = self._archive(inputs, repeat) is not None
            self._set_traced(False)
            reader = self._open_reader("open", -1) if archived else None
            if reader is None:
                return
            # Each archive is followed by its share of the reads, so the
            # archive timings sample the whole run rather than its start.
            quota = (repeat + 1) * self.workload.min_reads // RANGE_ARCHIVES
            last = repeat == RANGE_ARCHIVES - 1
            first_read = read
            with reader:
                while read < quota or (last and time.perf_counter() - started < self.seconds):
                    self._set_traced(self.trace and read % 2 == 1)
                    seconds = self._read(reader, inputs, next(offsets), read)
                    if seconds is not None and read > 0:
                        self.tally.cycle_s[self._traced].append(seconds)
                    read += 1
                self._set_traced(False)
                self._count_reads(reader, read - first_read)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def e2e_metrics(self, inputs: Inputs) -> dict[str, float]:
        tally, layout = self.tally, self.tally.layout
        megabytes = len(inputs.sql) / MB
        reads = tally.read_s

        def median_rate(size_mb: float, seconds: list[float]) -> float:
            return statistics.median(size_mb / s for s in seconds) if seconds else 0.0

        def percentile_ms(q: int) -> float:
            return float(np.percentile(reads, q)) * 1e3 if reads else 0.0

        # The range-read workload restores only what its reads return.
        restore_mb_s = (
            median_rate(self.workload.read_length / MB, reads)
            if self.workload.kind == "ranges" else median_rate(megabytes, tally.restore_s)
        )
        return {
            "archive_mb_s": median_rate(megabytes, tally.archive_s),
            "restore_mb_s": restore_mb_s,
            "range_read_p50_ms": percentile_ms(50),
            "range_read_p90_ms": percentile_ms(90),
            "media_frames_per_mb": layout.get("frames", 0) / megabytes,
            "encoded_bytes_per_input_byte": layout.get("container_bytes", 0) / len(inputs.sql),
            "stored_bytes_per_input_byte": layout.get("stored_bytes", 0) / len(inputs.sql),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(self.setup_s),
            "failed_op_share": tally.failed / max(tally.attempted, 1),
        }

    def per_layer(self) -> dict[str, float]:
        assert self.tracer is not None
        metrics = layer_metrics(self.tracer.spans)
        untraced, traced = self.tally.cycle_s[False], self.tally.cycle_s[True]
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
            if untraced and traced else 0.0
        )
        return {
            name: int(value)
            if LAYER_UNITS[name] in ("count", "bytes") and float(value).is_integer() else value
            for name, value in metrics.items()
        }

    def stamp(self, inputs: Inputs) -> dict[str, Any]:
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            **self.tally.layout,
            "sql_bytes": len(inputs.sql),
            "archives": len(self.tally.archive_s),
            "restores": len(self.tally.restore_s),
            "reads": len(self.tally.read_s),
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
        }


class _Op:
    """Times a block and, while tracing, records it as an end-to-end span."""

    def __init__(self, tracer: Tracer | None, name: str, kind: str, cycle: int):
        self._span = tracer.span(name, kind=kind, cycle=cycle) if tracer is not None else None
        self.seconds = 0.0

    def __enter__(self) -> "_Op":
        if self._span is not None:
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self._start
        if self._span is not None:
            self._span.__exit__(*exc)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> dict[str, Any]:
    """Run one workload in a scratch directory under ``out_dir``; returns its report."""
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, seconds, trace, workdir)
        inputs = runner.setup()
        runner.measure(inputs)
        e2e = runner.e2e_metrics(inputs)
        report: dict[str, Any] = {
            "stamp": runner.stamp(inputs),
            "counts": dict(runner.tally.counts, **{
                key: runner.tally.layout[key]
                for key in ("frames", "system_frames", "container_bytes", "stored_bytes")
                if key in runner.tally.layout
            }),
            "e2e": e2e,
        }
        if trace:
            assert runner.tracer is not None
            report["layers"] = runner.per_layer()
            report["self_times"] = self_time_table(runner.tracer.spans)
            trace_path = out_dir / f"trace-{workload.name}-seed{seed}.json"
            runner.tracer.write_chrome_trace(str(trace_path))
            report["trace_file"] = str(trace_path)
        report["attempted"] = runner.tally.attempted
        report["failed"] = runner.tally.failed
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
