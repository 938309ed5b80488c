"""Sharded multi-volume archives: K data + M parity volumes, cross-shard RS.

One archive today is one directory/container; losing the medium loses the
archive.  :class:`VolumeSetBackend` stripes an archive's emblem frames
across **K data volumes** and writes **M parity volumes**, where every
member volume is an ordinary ``directory``/``container``/``memory`` backend
target reused unchanged.  Parity is the same systematic GF(256)
Reed-Solomon erasure code MOCoder uses *within* a segment
(:mod:`repro.mocoder.outer_code`, whose ``encode_parity`` takes the
bit-sliced path for stripe-sized payloads), applied *across* volumes: the
serialised frame records of K aligned shard runs form a stripe, and any M
whole volumes may be lost while every frame — and therefore every byte of
the archive — reconstructs bit-for-bit.  The set never parses a frame: it
stripes, hashes and rebuilds the serialised records it is handed.

Layout of one volume set (``vol:k=2,m=1:/a,/b,/p``)::

    volume 0 (data)       volume 1 (data)       volume 2 (parity)
    ---------------       ---------------       -----------------
    volume.json           volume.json           volume.json
    data_emblem_0000.pgm  data_emblem_0001.pgm  parity_data_000000_p00.bin
    data_emblem_0002.pgm  data_emblem_0003.pgm  parity_data_000001_p00.bin
    ...                   ...                   ...
    bootstrap.txt         bootstrap.txt         bootstrap.txt
    config.json           config.json           config.json
    manifest.json         manifest.json         manifest.json

Frames live *whole* on their assigned data volume under their ordinary
record names, so a healthy volume set reads at full speed with zero
decoding; small artefacts (manifests, Bootstrap, config, the per-volume
identity record) are replicated to **every** member, so they survive any M
losses trivially.  The **manifest v4 shard map** records the stripe
geometry and, per shard, the exact frame runs with byte lengths and SHA-256
hashes — readers never infer placement arithmetically, which is what lets
append sessions start fresh stripes per generation while old stripes stay
immutable.

Degraded reads are transparent: a missing (or hash-mismatching, i.e.
corrupted) shard is rebuilt on the fly from the stripe's survivors, checked
against the recorded SHA-256, and cached.  More than M unavailable volumes
fail fast with a :class:`~repro.errors.StoreError` naming the missing
members.  :meth:`repro.api.ArchiveReader.verify` calls
:meth:`_VolumeSetSource.parity_audit` to fold missing-volume damage and a
full cross-shard parity recomputation into its report.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.archive import ArchiveManifest
from repro.errors import StoreError
from repro.mocoder.outer_code import OuterCode, get_outer_code
from repro.store.backends import (
    FRAME_KINDS,
    ArchiveSink,
    ArchiveSource,
    StorageBackend,
    _frame_record_of,
    frame_record_name,
)
from repro.store.target import TargetSpec, VolumeSetSpec, parse_member, parse_target

__all__ = ["VolumeSetBackend", "VOLUME_META_NAME", "parity_record_name"]

#: Per-volume identity record, replicated so any survivor can describe the set.
VOLUME_META_NAME = "volume.json"

#: Reconstructed stripes kept per source (one stripe = K shards of frames).
_RECONSTRUCTION_CACHE = 4

#: Ceiling on shard-fetch worker threads per source.
_MAX_FETCH_WORKERS = 8


def parity_record_name(kind: str, ordinal: int, parity_index: int) -> str:
    """Record name of one parity shard (hidden from logical listings)."""
    return f"parity_{kind}_{ordinal:06d}_p{parity_index:02d}.bin"


def _is_internal_name(name: str) -> bool:
    """Volume-set bookkeeping records, hidden from the logical namespace."""
    return name == VOLUME_META_NAME or (name.startswith("parity_") and name.endswith(".bin"))


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# --------------------------------------------------------------------------- #
# The shard map: typed stripe records <-> manifest v4 ``volumes`` JSON
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ShardEntry:
    """One data shard of a stripe: a run of whole frames on one volume."""

    volume: int
    #: ``(frame index, serialised byte length, sha256)`` per frame, in order.
    frames: tuple[tuple[int, int, str], ...]

    @property
    def length(self) -> int:
        return sum(length for _, length, _ in self.frames)


@dataclass(frozen=True)
class _ParityEntry:
    """One parity shard of a stripe, stored as a raw binary record."""

    volume: int
    name: str
    length: int
    sha256: str


@dataclass(frozen=True)
class _Stripe:
    """One cross-volume stripe: up to K data shards + M parity shards."""

    kind: str
    ordinal: int
    start: int
    count: int
    #: Padded shard width the parity was computed at (= longest shard).
    width: int
    shards: tuple[_ShardEntry, ...]
    parity: tuple[_ParityEntry, ...]

    def to_field(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "ordinal": self.ordinal,
            "start": self.start,
            "count": self.count,
            "width": self.width,
            "shards": [
                {"volume": shard.volume, "frames": [list(frame) for frame in shard.frames]}
                for shard in self.shards
            ],
            "parity": [
                {
                    "volume": entry.volume,
                    "name": entry.name,
                    "length": entry.length,
                    "sha256": entry.sha256,
                }
                for entry in self.parity
            ],
        }

    @classmethod
    def from_field(cls, fields: dict[str, object]) -> "_Stripe":
        try:
            shards = tuple(
                _ShardEntry(
                    volume=int(shard["volume"]),  # type: ignore[index, call-overload]
                    frames=tuple(
                        (int(index), int(length), str(digest))
                        for index, length, digest in shard["frames"]  # type: ignore[index, call-overload]
                    ),
                )
                for shard in fields["shards"]  # type: ignore[union-attr, index]
            )
            parity = tuple(
                _ParityEntry(
                    volume=int(entry["volume"]),  # type: ignore[index, call-overload]
                    name=str(entry["name"]),  # type: ignore[index, call-overload]
                    length=int(entry["length"]),  # type: ignore[index, call-overload]
                    sha256=str(entry["sha256"]),  # type: ignore[index, call-overload]
                )
                for entry in fields["parity"]  # type: ignore[union-attr, index]
            )
            return cls(
                kind=str(fields["kind"]),
                ordinal=int(fields["ordinal"]),  # type: ignore[call-overload]
                start=int(fields["start"]),  # type: ignore[call-overload]
                count=int(fields["count"]),  # type: ignore[call-overload]
                width=int(fields["width"]),  # type: ignore[call-overload]
                shards=shards,
                parity=parity,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"volume-set shard map is malformed: {exc}") from exc


@dataclass(frozen=True)
class _SetGeometry:
    """The immutable identity of one volume set (mirrors ``volume.json``)."""

    set_id: str
    data: int
    parity: int
    stripe: int

    @property
    def total(self) -> int:
        return self.data + self.parity

    def meta_payload(self, index: int) -> bytes:
        return json.dumps(
            {
                "set_id": self.set_id,
                "index": index,
                "role": "data" if index < self.data else "parity",
                "data": self.data,
                "parity": self.parity,
                "stripe": self.stripe,
                "volume_count": self.total,
            },
            indent=2,
            sort_keys=True,
        ).encode("utf-8")


def _shard_map_field(geometry: _SetGeometry, stripes: "list[_Stripe]") -> dict[str, object]:
    return {
        "set_id": geometry.set_id,
        "data": geometry.data,
        "parity": geometry.parity,
        "stripe": geometry.stripe,
        "volume_count": geometry.total,
        "stripes": [stripe.to_field() for stripe in stripes],
    }


def _parse_shard_map(field: "dict[str, object] | None") -> tuple[_SetGeometry, list[_Stripe]]:
    if field is None:
        raise StoreError(
            "manifest carries no volume shard map; the target is not a "
            "volume-set archive"
        )
    try:
        geometry = _SetGeometry(
            set_id=str(field["set_id"]),
            data=int(field["data"]),  # type: ignore[call-overload]
            parity=int(field["parity"]),  # type: ignore[call-overload]
            stripe=int(field["stripe"]),  # type: ignore[call-overload]
        )
        stripe_fields = field["stripes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"volume-set shard map is malformed: {exc}") from exc
    if not isinstance(stripe_fields, list):
        raise StoreError("volume-set shard map is malformed: 'stripes' is not a list")
    return geometry, [_Stripe.from_field(fields) for fields in stripe_fields]


# --------------------------------------------------------------------------- #
# Member resolution
# --------------------------------------------------------------------------- #
def _volume_spec(target: "str | Path") -> VolumeSetSpec:
    """The :class:`VolumeSetSpec` a backend-level target string names."""
    spec: TargetSpec = parse_target(str(target))
    if spec.volumes is None:
        raise StoreError(
            f"the volumes backend needs a vol: target URI naming the member "
            f"volumes (e.g. vol:k=4,m=2:/a,/b,...), got {str(target)!r}"
        )
    return spec.volumes


def _member_backends(spec: VolumeSetSpec) -> list[tuple[str, str, "StorageBackend"]]:
    """``(raw member, backend target, backend)`` per member, in shard order."""
    from repro import registry  # lazy: registry imports repro.store

    resolved = []
    for member in spec.members:
        store, member_target = parse_member(member)
        resolved.append((member, member_target, registry.get_store(store)))
    return resolved


# --------------------------------------------------------------------------- #
# Write side
# --------------------------------------------------------------------------- #
class _VolumeSetSink(ArchiveSink):
    """Stripe frame records across the member sinks and emit cross-shard parity.

    Every other record (Bootstrap, config) is replicated to each member.
    Frames arrive in index order (the session contract); each run of
    ``stripe`` consecutive same-kind frames goes whole to the next data
    member, and once K runs are buffered the stripe's parity is computed
    over the serialised bytes and written to the parity members.  A final
    short stripe (fewer than K runs) treats the absent runs as zero-length
    shards — exactly how :meth:`OuterCode.encode_group` pads them.

    ``put_manifest`` flushes any partial stripes, injects the cumulative
    shard map into the manifest's ``volumes`` field, and replicates the
    manifest to every member, *after* all frame/parity records — so the
    newest manifest found on any surviving member always describes fully
    persisted stripes, preserving the torn-append fallback semantics.
    """

    def __init__(
        self,
        geometry: _SetGeometry,
        subs: "list[ArchiveSink]",
        *,
        base_stripes: "list[_Stripe]",
        describe: str,
    ):
        self._geometry = geometry
        self._subs = subs
        self._describe = describe
        self._outer: OuterCode = get_outer_code(geometry.data, geometry.parity)
        self._pending: dict[str, list[tuple[int, bytes]]] = {kind: [] for kind in FRAME_KINDS}
        self._base_stripes = base_stripes
        self._stripes: list[_Stripe] = []
        self._ordinal = 1 + max(
            (stripe.ordinal for stripe in base_stripes), default=-1
        )
        self._closed = False

    # -------------------------------------------------------------- #
    def put_bytes(self, name: str, *parts: "bytes | memoryview") -> None:
        if self._closed:
            raise StoreError(f"{self._describe}: volume-set sink is closed")
        frame = _frame_record_of(name)
        if frame is None:
            for sub in self._subs:
                sub.put_bytes(name, *parts)
            return
        kind, index = frame
        payload = b"".join(parts)
        pending = self._pending[kind]
        member = len(pending) // self._geometry.stripe
        self._subs[member].put_bytes(name, payload)
        pending.append((index, payload))
        if len(pending) == self._geometry.data * self._geometry.stripe:
            self._flush_stripe(kind)

    def _flush_stripe(self, kind: str) -> None:
        pending = self._pending[kind]
        if not pending:
            return
        depth = self._geometry.stripe
        runs = [pending[at : at + depth] for at in range(0, len(pending), depth)]
        payloads = [b"".join(payload for _, payload in run) for run in runs]
        parity_payloads = self._outer.encode_group(payloads)
        width = max(len(payload) for payload in payloads)
        shards = tuple(
            _ShardEntry(
                volume=member,
                frames=tuple(
                    (index, len(payload), _sha256(payload)) for index, payload in run
                ),
            )
            for member, run in enumerate(runs)
        )
        parity = []
        for parity_index, payload in enumerate(parity_payloads):
            volume = self._geometry.data + parity_index
            name = parity_record_name(kind, self._ordinal, parity_index)
            self._subs[volume].put_bytes(name, payload)
            parity.append(
                _ParityEntry(
                    volume=volume, name=name, length=len(payload), sha256=_sha256(payload)
                )
            )
        self._stripes.append(
            _Stripe(
                kind=kind,
                ordinal=self._ordinal,
                start=pending[0][0],
                count=len(pending),
                width=width,
                shards=shards,
                parity=tuple(parity),
            )
        )
        self._ordinal += 1
        self._pending[kind] = []

    # -------------------------------------------------------------- #
    def put_manifest(self, manifest: ArchiveManifest) -> None:
        for kind in FRAME_KINDS:
            self._flush_stripe(kind)
        shard_map = _shard_map_field(self._geometry, self._base_stripes + self._stripes)
        manifest = replace(
            manifest,
            volumes=shard_map,
            format_version=max(manifest.format_version, 4),
        )
        for sub in self._subs:
            sub.put_manifest(manifest)

    def close(self) -> None:
        if self._closed:
            return
        for kind in FRAME_KINDS:
            self._flush_stripe(kind)
        self._closed = True
        for sub in self._subs:
            sub.close()

    def abort(self) -> None:
        if self._closed:
            return
        self._closed = True
        for sub in self._subs:
            sub.abort()


# --------------------------------------------------------------------------- #
# Read side
# --------------------------------------------------------------------------- #
class _VolumeSetSource(ArchiveSource):
    """Read a volume set, reconstructing shards on missing/corrupt volumes.

    Every direct frame read is integrity-checked against the shard map's
    SHA-256 before it is trusted; a mismatch (bit rot) is handled exactly
    like a missing volume — the stripe is rebuilt from its survivors and the
    recovered shard re-checked.  Multi-frame fetches fan out across the
    member volumes on a thread pool, so a K-wide set serves
    :meth:`get_frames` roughly K-way parallel.
    """

    def __init__(self, spec: VolumeSetSpec, describe: str):
        self._spec = spec
        self._desc = describe
        self._subs: "list[ArchiveSource | None]" = []
        self._missing: dict[int, str] = {}
        self._geometry_warnings: list[str] = []
        for index, (member, member_target, backend) in enumerate(_member_backends(spec)):
            try:
                self._subs.append(backend.open(member_target))
            except StoreError as exc:
                self._subs.append(None)
                self._missing[index] = f"{member}: {exc}"
        self._geometry = self._resolve_geometry()
        alive = len(self._subs) - len(self._missing)
        if alive < self._geometry.data:
            lost = ", ".join(
                self._spec.members[index] for index in sorted(self._missing)
            )
            raise StoreError(
                f"{describe}: {len(self._missing)} of {self._geometry.total} "
                f"volumes are unavailable ({lost}); at most "
                f"{self._geometry.parity} losses are recoverable"
            )
        self._lock = threading.Lock()
        self._manifest: ArchiveManifest | None = None  # lint: guarded-by(_lock)
        self._stripes: list[_Stripe] | None = None  # lint: guarded-by(_lock)
        #: frame record name -> (stripe index, data volume, sha256).
        self._frame_map: dict[str, tuple[int, int, str]] = {}  # lint: guarded-by(_lock)
        self._reconstructed: "OrderedDict[int, dict[str, bytes]]" = (
            OrderedDict()
        )  # lint: guarded-by(_lock)
        #: stripe index -> event set once its in-flight repair finishes.
        self._repairs: dict[int, threading.Event] = {}  # lint: guarded-by(_lock)
        self._pool = ThreadPoolExecutor(
            max_workers=min(self._geometry.total, _MAX_FETCH_WORKERS),
            thread_name_prefix="repro-volume",
        )
        # Stripe reconstruction fans out its own shard fetches.  It must NOT
        # share ``_pool``: a degraded ``get_frames`` already saturates that
        # pool with frame fetches, and a nested submit-and-wait from inside a
        # worker would deadlock once every worker blocks on a queued subtask.
        self._repair_pool = ThreadPoolExecutor(
            max_workers=min(self._geometry.total, _MAX_FETCH_WORKERS),
            thread_name_prefix="repro-volume-repair",
        )

    # -------------------------------------------------------------- #
    def _resolve_geometry(self) -> _SetGeometry:
        """Adopt the set identity from the members' ``volume.json`` records.

        The medium is authoritative: URI options (``k=``/``m=``) merely
        cross-check it.  Members that disagree on the set id, or sit at the
        wrong position, are configuration errors, not damage.
        """
        geometry: _SetGeometry | None = None
        for index, sub in enumerate(self._subs):
            if sub is None:
                continue
            try:
                fields = json.loads(sub.get_text(VOLUME_META_NAME))
                found = _SetGeometry(
                    set_id=str(fields["set_id"]),
                    data=int(fields["data"]),
                    parity=int(fields["parity"]),
                    stripe=int(fields["stripe"]),
                )
                claimed_index = int(fields["index"])
            except (StoreError, ValueError, KeyError, TypeError) as exc:
                # An unreadable identity record is damage, not misconfiguration.
                self._subs[index] = None
                self._missing[index] = (
                    f"{self._spec.members[index]}: unreadable {VOLUME_META_NAME} ({exc})"
                )
                continue
            if claimed_index != index:
                raise StoreError(
                    f"{self._desc}: member {self._spec.members[index]!r} "
                    f"identifies as volume {claimed_index}, but is listed at "
                    f"position {index}; list the members in their original order"
                )
            if geometry is None:
                geometry = found
            elif found != geometry:
                raise StoreError(
                    f"{self._desc}: member {self._spec.members[index]!r} belongs "
                    f"to a different volume set (set_id {found.set_id} vs "
                    f"{geometry.set_id})"
                )
        if geometry is None:
            lost = ", ".join(self._spec.members[index] for index in sorted(self._missing))
            raise StoreError(
                f"{self._desc}: no member volume is readable ({lost})"
            )
        if len(self._spec.members) != geometry.total:
            raise StoreError(
                f"{self._desc}: the set was written across {geometry.total} "
                f"volumes but {len(self._spec.members)} members were listed"
            )
        for key, declared, actual in (
            ("k", self._spec.data, geometry.data),
            ("m", self._spec.parity, geometry.parity),
            ("stripe", self._spec.stripe, geometry.stripe),
        ):
            if declared is not None and declared != actual:
                raise StoreError(
                    f"{self._desc}: target declares {key}={declared} but the "
                    f"set was written with {key}={actual}"
                )
        return geometry

    @property
    def geometry(self) -> _SetGeometry:
        return self._geometry

    @property
    def missing_volumes(self) -> dict[int, str]:
        """Unavailable members: volume index -> reason."""
        return dict(self._missing)

    # -------------------------------------------------------------- #
    def manifest(self) -> ArchiveManifest:
        with self._lock:
            if self._manifest is not None:
                return self._manifest
        manifest = super().manifest()
        geometry, stripes = _parse_shard_map(manifest.volumes)
        if geometry.set_id != self._geometry.set_id:
            raise StoreError(
                f"{self._desc}: the manifest's shard map belongs to set "
                f"{geometry.set_id}, not {self._geometry.set_id}"
            )
        frame_map: dict[str, tuple[int, int, str]] = {
            frame_record_name(stripe.kind, index): (at, shard.volume, digest)
            for at, stripe in enumerate(stripes)
            for shard in stripe.shards
            for index, _length, digest in shard.frames
        }
        with self._lock:
            self._manifest = manifest
            self._stripes = stripes
            self._frame_map = frame_map
        return manifest

    def _ensure_map(self) -> "list[_Stripe]":
        with self._lock:
            if self._stripes is not None:
                return self._stripes
        self.manifest()
        with self._lock:
            assert self._stripes is not None
            return self._stripes

    # -------------------------------------------------------------- #
    def names(self) -> list[str]:
        """The logical record namespace: parity shards and the per-volume
        identity record are implementation detail and stay hidden."""
        seen: set[str] = set()
        for sub in self._subs:
            if sub is not None:
                seen.update(name for name in sub.names() if not _is_internal_name(name))
        return sorted(seen)

    def get_bytes(self, name: str) -> bytes:
        """A frame record checked against its shard-map SHA-256, and rebuilt
        from its stripe when its shard is missing or corrupt; any other
        record from the first member that holds it."""
        if _frame_record_of(name) is None:
            errors: list[str] = []
            for sub in self._subs:
                if sub is None:
                    continue
                try:
                    return sub.get_bytes(name)
                except StoreError as exc:
                    errors.append(str(exc))
            detail = f" ({errors[0]})" if errors else ""
            raise StoreError(f"{self._desc} has no readable record {name!r}{detail}")
        self._ensure_map()
        with self._lock:
            entry = self._frame_map.get(name)
        if entry is None:
            raise StoreError(f"{self._desc} has no frame record {name!r}")
        stripe_at, volume, digest = entry
        sub = self._subs[volume]
        if sub is not None:
            try:
                payload = sub.get_bytes(name)
                if _sha256(payload) == digest:
                    return payload
            except StoreError:
                pass  # fall through to reconstruction, like a missing volume
        return self._reconstruct_stripe(stripe_at)[name]

    def get_frames(self, kind: str, start: int, count: int) -> list[np.ndarray]:
        self._ensure_map()
        # Shard-parallel fetch: frames on distinct member backends overlap;
        # results come back in frame order, the first error propagating.
        return list(
            self._pool.map(lambda index: self.get_frame(kind, index), range(start, start + count))
        )

    # -------------------------------------------------------------- #
    def _shard_payload(self, shard: _ShardEntry, kind: str) -> "bytes | None":
        """One shard's serialised bytes, or ``None`` when damaged/missing."""
        sub = self._subs[shard.volume]
        if sub is None:
            return None
        parts: list[bytes] = []
        for index, _length, digest in shard.frames:
            try:
                payload = sub.get_bytes(frame_record_name(kind, index))
            except StoreError:
                return None
            if _sha256(payload) != digest:
                return None
            parts.append(payload)
        return b"".join(parts)

    def _parity_payload(self, entry: _ParityEntry) -> "bytes | None":
        sub = self._subs[entry.volume]
        if sub is None:
            return None
        try:
            payload = sub.get_bytes(entry.name)
        except StoreError:
            return None
        if _sha256(payload) != entry.sha256:
            return None
        return payload

    def _reconstruct_stripe(self, stripe_at: int) -> dict[str, bytes]:
        """Rebuild every frame of one stripe from its surviving shards.

        Single-flight per stripe: a degraded ``get_frames`` fans frames of the
        *same* stripe across the fetch pool, and each one lands here.  Only the
        first caller runs the (expensive) repair; the rest wait on its event and
        then read the cache.  A waiter that finds the cache still empty (the
        repair raised) takes over and retries rather than inheriting the error.
        """
        while True:
            with self._lock:
                cached = self._reconstructed.get(stripe_at)
                if cached is not None:
                    self._reconstructed.move_to_end(stripe_at)
                    return cached
                pending = self._repairs.get(stripe_at)
                if pending is None:
                    pending = self._repairs[stripe_at] = threading.Event()
                    break
            pending.wait()
        try:
            return self._repair_stripe(stripe_at)
        finally:
            with self._lock:
                del self._repairs[stripe_at]
            pending.set()

    def _repair_stripe(self, stripe_at: int) -> dict[str, bytes]:
        stripe = self._ensure_map()[stripe_at]
        geometry = self._geometry
        slots: "list[bytes | None]" = [None] * geometry.total
        # Shard and parity payloads live on distinct member backends, so the
        # reads (and their SHA-256 sweeps) overlap on the source's fetch pool
        # just like a healthy get_frames fan-out.
        shard_payloads = self._repair_pool.map(
            lambda shard: self._shard_payload(shard, stripe.kind), stripe.shards
        )
        for member, payload in enumerate(shard_payloads):
            slots[member] = payload
        for member in range(len(stripe.shards), geometry.data):
            slots[member] = b""  # a short stripe's absent shards are all-zero
        parity_payloads = self._repair_pool.map(self._parity_payload, stripe.parity)
        for parity_index, payload in enumerate(parity_payloads):
            slots[geometry.data + parity_index] = payload
        outer = get_outer_code(geometry.data, geometry.parity)
        try:
            payloads = outer.reconstruct_group(slots)
        except Exception as exc:
            damaged = [
                at for at, slot in enumerate(slots) if slot is None
            ]
            raise StoreError(
                f"{self._desc}: stripe {stripe.ordinal} ({stripe.kind}) cannot "
                f"be reconstructed — shards {damaged} are missing or corrupt "
                f"and only {geometry.parity} losses are recoverable ({exc})"
            ) from exc
        recovered: dict[str, bytes] = {}
        for member, shard in enumerate(stripe.shards):
            offset = 0
            for index, length, digest in shard.frames:
                payload = payloads[member][offset : offset + length]
                if _sha256(payload) != digest:
                    raise StoreError(
                        f"{self._desc}: reconstructed frame "
                        f"{frame_record_name(stripe.kind, index)} fails its "
                        "shard-map SHA-256; more shards are damaged than the "
                        "parity can repair"
                    )
                recovered[frame_record_name(stripe.kind, index)] = payload
                offset += length
        with self._lock:
            self._reconstructed[stripe_at] = recovered
            while len(self._reconstructed) > _RECONSTRUCTION_CACHE:
                self._reconstructed.popitem(last=False)
        return recovered

    # -------------------------------------------------------------- #
    def parity_audit(self, deep: bool = True) -> tuple[list[str], list[str]]:
        """Cross-shard audit for :meth:`repro.api.ArchiveReader.verify`.

        Returns ``(errors, warnings)``.  Unavailable volumes are *errors*
        (the archive is damaged, even though reads still succeed degraded);
        ``deep`` additionally re-reads every shard against its SHA-256 and,
        where all data shards survive, recomputes the stripe parity and
        compares it with the stored parity records.
        """
        errors = [
            f"volume {index} is unavailable: {reason}"
            for index, reason in sorted(self._missing.items())
        ]
        warnings = list(self._geometry_warnings)
        if not deep:
            return errors, warnings
        geometry = self._geometry
        outer = get_outer_code(geometry.data, geometry.parity)
        for stripe in self._ensure_map():
            payloads: "list[bytes | None]" = []
            for shard in stripe.shards:
                payload = self._shard_payload(shard, stripe.kind)
                payloads.append(payload)
                if payload is None and self._subs[shard.volume] is not None:
                    errors.append(
                        f"stripe {stripe.ordinal} ({stripe.kind}): shard on "
                        f"volume {shard.volume} is corrupt (SHA-256 mismatch "
                        "or unreadable record)"
                    )
            stored_parity = [self._parity_payload(entry) for entry in stripe.parity]
            for entry, payload in zip(stripe.parity, stored_parity):
                if payload is None and self._subs[entry.volume] is not None:
                    errors.append(
                        f"stripe {stripe.ordinal} ({stripe.kind}): parity record "
                        f"{entry.name} on volume {entry.volume} is corrupt"
                    )
            if all(payload is not None for payload in payloads):
                recomputed = outer.encode_group([p for p in payloads if p is not None])
                for entry, have in zip(stripe.parity, stored_parity):
                    want = recomputed[entry.volume - geometry.data]
                    if have is not None and have != want:
                        errors.append(
                            f"stripe {stripe.ordinal} ({stripe.kind}): parity "
                            f"record {entry.name} does not match the parity "
                            "recomputed from the data shards"
                        )
        return errors, warnings

    # -------------------------------------------------------------- #
    def _describe(self) -> str:
        return self._desc

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self._repair_pool.shutdown(wait=True)
        for sub in self._subs:
            if sub is not None:
                sub.close()


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #
class VolumeSetBackend(StorageBackend):
    """K data + M parity member volumes with cross-shard Reed-Solomon parity."""

    name = "volumes"
    description = (
        "sharded volume set: frames striped across K data volumes plus M "
        "cross-shard Reed-Solomon parity volumes (vol:k=K,m=M:member,member,...)"
    )

    def create(self, target: "str | Path") -> ArchiveSink:
        spec = _volume_spec(target).resolved()
        assert spec.data is not None and spec.parity is not None and spec.stripe is not None
        geometry = _SetGeometry(
            set_id=os.urandom(8).hex(),
            data=spec.data,
            parity=spec.parity,
            stripe=spec.stripe,
        )
        subs: list[ArchiveSink] = []
        try:
            for index, (_member, member_target, backend) in enumerate(_member_backends(spec)):
                sub = backend.create(member_target)
                subs.append(sub)
                sub.put_bytes(VOLUME_META_NAME, geometry.meta_payload(index))
        except Exception:
            for sub in subs:
                sub.abort()
            raise
        return _VolumeSetSink(geometry, subs, base_stripes=[], describe=spec.uri())

    def append(self, target: "str | Path") -> ArchiveSink:
        spec = _volume_spec(target)
        source = self.open(target)
        try:
            assert isinstance(source, _VolumeSetSource)
            if source_missing := source.missing_volumes:
                lost = ", ".join(
                    spec.members[index] for index in sorted(source_missing)
                )
                raise StoreError(
                    f"{spec.uri()}: append needs every member volume present, "
                    f"but {lost} are unavailable; restore the set (or rebuild "
                    "the volumes) before appending"
                )
            manifest = source.manifest()
            geometry, base_stripes = _parse_shard_map(manifest.volumes)
        finally:
            source.close()
        subs: list[ArchiveSink] = []
        try:
            for _member, member_target, backend in _member_backends(spec):
                subs.append(backend.append(member_target))
        except Exception:
            for sub in subs:
                sub.abort()
            raise
        return _VolumeSetSink(
            geometry, subs, base_stripes=base_stripes, describe=spec.uri()
        )

    def open(self, target: "str | Path") -> ArchiveSource:
        spec = _volume_spec(target)
        return _VolumeSetSource(spec, spec.uri())
