"""Runtime span tracing of the ``repro`` layers, from outside ``src/``.

:class:`Tracer` wraps the public entry points of each package layer at run
time (``install``/``uninstall``), records one span per call — name, layer,
start, end, parent span and thread — in memory, and exports the spans as
Chrome trace-event JSON (``chrome://tracing`` / Perfetto).  :func:`layer_metrics`
turns a span list into the per-layer metrics the benchmark reports, and
:func:`self_time_table` into a per-span self-time table.

Nothing here imports from ``repro`` at module import time: the targets are
resolved when :meth:`Tracer.install` runs, so the same benchmark files work
against any checkout of the program.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Layers whose spans count as "covered" time inside an end-to-end span.
#: ``e2e`` spans are recorded by the benchmark itself around each operation.
PROGRAM_LAYERS = ("dbms", "dbcoder", "mocoder", "store", "dynarisc")

#: A probe runs before the wrapped call with its ``(args, kwargs)`` and returns
#: a finisher that maps the call's result to span attributes (counts).
Probe = Callable[[tuple, dict], Callable[[Any], dict]]


@dataclass
class Span:
    """One recorded call."""

    span_id: int
    parent: int | None
    name: str
    layer: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _probe_encode(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    data = _arg(args, kwargs, 1, "data")
    return lambda container: {"bytes_in": len(data), "bytes_out": len(container)}


def _probe_decode_images(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    from repro.mocoder import EmblemKind

    images = _arg(args, kwargs, 1, "images")
    report = _arg(args, kwargs, 2, "report")
    corrections, failed = report.rs_corrections, report.emblems_failed

    def finish(decoded: dict) -> dict:
        useful = sum(1 for emblem in decoded.values() if emblem.header.kind != EmblemKind.PARITY)
        return {
            "frames": len(images),
            "useful_frames": useful,
            "rs_corrections": report.rs_corrections - corrections,
            "emblems_failed": report.emblems_failed - failed,
        }

    return finish


def _probe_assemble(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    report = _arg(args, kwargs, 2, "report")
    groups = report.groups_reconstructed
    return lambda _result: {"groups_reconstructed": report.groups_reconstructed - groups}


def _probe_put_frames(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    images = _arg(args, kwargs, 3, "images")
    # Counting must not consume an iterator the sink has yet to read.
    total = sum(int(image.nbytes) for image in images) if isinstance(images, (list, tuple)) else 0
    return lambda _result: {"bytes": total}


def _probe_put_text(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    text = _arg(args, kwargs, 2, "text")
    return lambda _result: {"bytes": len(text.encode("utf-8"))}


def _probe_get_frames(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    return lambda frames: {"bytes": sum(int(frame.nbytes) for frame in frames)}


def _probe_get_text(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    return lambda text: {"bytes": len(text.encode("utf-8"))}


def _probe_emulator(args: tuple, kwargs: dict) -> Callable[[Any], dict]:
    emulator = args[0]
    steps = emulator.steps
    return lambda _result: {"steps": emulator.steps - steps}


#: (module, attribute path, span name, layer, probe).  An attribute path of a
#: class method on a base class also wraps every subclass override, so the
#: store rows cover each backend's sink and source.
TARGETS: tuple[tuple[str, str, str, str, Probe | None], ...] = (
    ("repro.dbms.tpch", "tpch_archive_of_size", "dbms.generate", "dbms", None),
    ("repro.dbms.dump", "db_load", "dbms.load", "dbms", None),
    ("repro.dbcoder.dbcoder", "DBCoder.encode", "dbcoder.encode", "dbcoder", _probe_encode),
    ("repro.dbcoder.dbcoder", "DBCoder.decode", "dbcoder.decode", "dbcoder", None),
    ("repro.dbcoder.dbcoder", "DBCoder.decompress_payload", "dbcoder.decompress", "dbcoder", None),
    ("repro.mocoder.mocoder", "MOCoder.encode", "mocoder.encode", "mocoder", None),
    ("repro.mocoder.mocoder", "EncodedStream.images_array", "mocoder.render", "mocoder", None),
    ("repro.mocoder.mocoder", "MOCoder.decode", "mocoder.decode", "mocoder", None),
    ("repro.mocoder.mocoder", "MOCoder.decode_images", "mocoder.decode_images", "mocoder",
     _probe_decode_images),
    ("repro.mocoder.mocoder", "MOCoder.assemble", "mocoder.assemble", "mocoder", _probe_assemble),
    ("repro.mocoder.reed_solomon", "ReedSolomonCode.syndromes_blocks", "mocoder.rs_syndromes",
     "mocoder", None),
    ("repro.mocoder.reed_solomon", "ReedSolomonCode.decode_blocks", "mocoder.rs_decode",
     "mocoder", None),
    ("repro.mocoder.outer_code", "OuterCode.reconstruct_group", "mocoder.outer_reconstruct",
     "mocoder", None),
    ("repro.store.backends", "ArchiveSink.put_frames", "store.put_frames", "store",
     _probe_put_frames),
    ("repro.store.backends", "ArchiveSink.put_text", "store.put_text", "store", _probe_put_text),
    ("repro.store.backends", "ArchiveSink.put_manifest", "store.put_manifest", "store", None),
    ("repro.store.backends", "ArchiveSink.close", "store.sink_close", "store", None),
    ("repro.store.backends", "ArchiveSource.get_frames", "store.get_frames", "store",
     _probe_get_frames),
    ("repro.store.backends", "ArchiveSource.get_text", "store.get_text", "store", _probe_get_text),
    ("repro.store.backends", "ArchiveSource.manifest", "store.manifest", "store", None),
    ("repro.dynarisc.emulator", "DynaRiscEmulator.run", "dynarisc.run", "dynarisc",
     _probe_emulator),
)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Tracer:
    """In-memory span recorder that patches the program's layer boundaries.

    Spans nest through a per-thread stack, so work that an executor runs on
    a pool thread becomes a root span of that thread; end-to-end spans
    recorded with :meth:`span` on the caller's thread bound everything.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str = "e2e", **attrs: Any) -> Iterator[dict]:
        """Record a span around a block; yields its (mutable) attributes."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, layer, threading.get_ident(), start, end, attrs)
            )

    def _wrap(self, func: Callable, name: str, layer: str, probe: Probe | None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            finish = probe(args, kwargs) if probe is not None else None
            with tracer.span(name, layer) as attrs:
                result = func(*args, **kwargs)
                if finish is not None:
                    attrs.update(finish(result))
            return result

        return functools.wraps(func)(traced)

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry (idempotent while installed)."""
        if self._undo:
            return
        for module_name, path, name, layer, probe in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                for cls in _subclasses(getattr(module, class_name)):
                    raw = cls.__dict__.get(method)
                    if raw is None:
                        continue
                    if isinstance(raw, staticmethod):
                        wrapped: object = staticmethod(self._wrap(raw.__func__, name, layer, probe))
                    else:
                        wrapped = self._wrap(raw, name, layer, probe)
                    self._undo.append((cls, method, raw))
                    setattr(cls, method, wrapped)
                continue
            # A module-level function is imported by name into other modules
            # (``from repro.dbms.dump import db_load``); rebind every alias.
            original = getattr(module, path)
            wrapped = self._wrap(original, name, layer, probe)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        self._undo.append((loaded, alias, original))
                        setattr(loaded, alias, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (complete events)."""
        threads = {ident: index for index, ident in
                   enumerate(dict.fromkeys(span.thread for span in self.spans))}
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": threads[span.thread],
                "args": {"id": span.span_id, "parent": span.parent, **span.attrs},
            }
            for span in sorted(self.spans, key=lambda span: span.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.chrome_trace(), stream)


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _covered(merged: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the sorted disjoint ``merged``."""
    total = 0.0
    index = max(bisect.bisect_right(merged, (start, float("inf"))) - 1, 0)
    for low, high in merged[index:]:
        if low >= end:
            break
        total += max(0.0, min(high, end) - max(low, start))
    return total


class _Index:
    """Span lookups shared by the metric computations."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {span.span_id: span for span in spans}
        self.e2e = sorted((span for span in spans if span.layer == "e2e"),
                          key=lambda span: span.start)
        self._starts = [span.start for span in self.e2e]
        self.layer_intervals = _merge(
            [(span.start, span.end) for span in spans if span.layer in PROGRAM_LAYERS]
        )

    def op_of(self, span: Span) -> Span | None:
        """The end-to-end span whose interval contains ``span``'s start."""
        index = bisect.bisect_right(self._starts, span.start) - 1
        if index >= 0 and self.e2e[index].end >= span.start:
            return self.e2e[index]
        return None

    def outermost(self, span: Span, names: frozenset[str]) -> bool:
        parent = self.by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if parent.name in names:
                return False
            parent = self.by_id.get(parent.parent) if parent.parent is not None else None
        return True


def _self_times(spans: list[Span]) -> dict[int, float]:
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {span.span_id: span.duration - child_time.get(span.span_id, 0.0) for span in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    Every layer span is attributed to the end-to-end span it started in; the
    benchmark tags those with ``kind`` (``setup``, ``archive`` or ``decode``)
    and ``cycle``.  Times and counts are per operation: per setup, per
    archive, or per decode cycle (one restore with its range reads, or one
    range read).  A time counts a metric's outermost call only, so nested
    calls (``put_manifest`` into ``put_text``) are not counted twice.
    """
    index = _Index(spans)
    cycles: dict[str, set] = {"setup": set(), "archive": set(), "decode": set()}
    e2e_time = {kind: 0.0 for kind in cycles}
    uncovered = {kind: 0.0 for kind in cycles}
    for op in index.e2e:
        kind = op.attrs.get("kind")
        if kind in cycles:
            cycles[kind].add(op.attrs.get("cycle"))
            e2e_time[kind] += op.duration
            uncovered[kind] += op.duration - _covered(index.layer_intervals, op.start, op.end)

    def total(kind: str, names: tuple[str, ...], attr: str | None = None) -> float:
        # Times count the outermost call only; a count attribute sits on the
        # one span that measured it (put_manifest's bytes are its put_text's).
        wanted = frozenset(names)
        value = 0.0
        for span in index.spans:
            if span.name not in wanted or (attr is None and not index.outermost(span, wanted)):
                continue
            op = index.op_of(span)
            if op is None or op.attrs.get("kind") != kind:
                continue
            value += span.duration if attr is None else span.attrs.get(attr, 0)
        return value

    def per(kind: str, names: tuple[str, ...], attr: str | None = None) -> float:
        return total(kind, names, attr) / max(len(cycles[kind]), 1)

    encode_names = ("dbcoder.encode", "mocoder.encode", "mocoder.render")
    store_write = ("store.put_frames", "store.put_text", "store.put_manifest", "store.sink_close")
    store_read = ("store.get_frames", "store.get_text", "store.manifest")
    frames = total("decode", ("mocoder.decode_images",), "frames")
    run_s = per("decode", ("dynarisc.run",))
    steps = per("decode", ("dynarisc.run",), "steps")
    bytes_in = total("archive", ("dbcoder.encode",), "bytes_in")
    bytes_out = total("archive", ("dbcoder.encode",), "bytes_out")
    timed = e2e_time["archive"] + e2e_time["decode"]
    return {
        "dbms.generate_s": per("setup", ("dbms.generate",)),
        "dbms.load_s": per("decode", ("dbms.load",)),
        "dbcoder.encode_s": per("archive", ("dbcoder.encode",)),
        "dbcoder.compression_ratio": bytes_in / bytes_out if bytes_out else 0.0,
        "dbcoder.decode_s": per("decode", ("dbcoder.decode", "dbcoder.decompress")),
        "mocoder.encode_s": per("archive", ("mocoder.encode", "mocoder.render")),
        "mocoder.decode_s": per(
            "decode", ("mocoder.decode", "mocoder.decode_images", "mocoder.assemble")
        ),
        "mocoder.rs_decode_s": per("decode", ("mocoder.rs_syndromes", "mocoder.rs_decode")),
        "mocoder.outer_reconstruct_s": per("decode", ("mocoder.outer_reconstruct",)),
        "mocoder.useful_frame_ratio": (
            total("decode", ("mocoder.decode_images",), "useful_frames") / frames if frames else 0.0
        ),
        "mocoder.frames_decoded": per("decode", ("mocoder.decode_images",), "frames"),
        "mocoder.rs_corrections": per("decode", ("mocoder.decode_images",), "rs_corrections"),
        "mocoder.emblems_failed": per("decode", ("mocoder.decode_images",), "emblems_failed"),
        "mocoder.groups_reconstructed": per(
            "decode", ("mocoder.assemble",), "groups_reconstructed"
        ),
        "store.write_s": per("archive", store_write),
        "store.bytes_written": per("archive", store_write, "bytes"),
        "store.read_s": per("decode", store_read),
        "store.bytes_read_per_op": per("decode", store_read, "bytes"),
        "dynarisc.run_s": run_s,
        "dynarisc.steps": steps,
        "dynarisc.steps_per_s": steps / run_s if run_s else 0.0,
        "api.archive_self_s": uncovered["archive"] / max(len(cycles["archive"]), 1),
        "core.restore_self_s": uncovered["decode"] / max(len(cycles["decode"]), 1),
        "pipeline.encode_concurrency": (
            total("archive", encode_names) / e2e_time["archive"] if e2e_time["archive"] else 0.0
        ),
        "trace.coverage": (
            1.0 - (uncovered["archive"] + uncovered["decode"]) / timed if timed else 0.0
        ),
    }


def self_time_table(spans: list[Span]) -> list[dict]:
    """Self time, share of end-to-end time and call count per span name.

    Shares are of the summed end-to-end span time (set-up included); work on
    pool threads overlaps the caller, so shares may sum past 1.
    """
    self_time = _self_times(spans)
    timed = sum(span.duration for span in spans if span.layer == "e2e")
    rows: dict[str, dict] = {}
    for span in spans:
        if span.layer == "e2e":
            continue
        row = rows.setdefault(span.name, {"name": span.name, "layer": span.layer,
                                          "calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_time[span.span_id]
    for row in rows.values():
        row["share"] = row["self_s"] / timed if timed else 0.0
    return sorted(rows.values(), key=lambda row: (row["layer"], -row["self_s"]))
