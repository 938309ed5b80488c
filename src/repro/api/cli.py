"""``python -m repro`` — the command-line face of the :mod:`repro.api` facade.

Subcommands
-----------
``archive``
    Archive a payload file onto the target ``-o`` names (``dir:<path>``
    writes one Netpbm file per frame, ``file:<path>`` a single archive file,
    ``vol:...`` a sharded volume set; a plain path is sniffed by shape, see
    :mod:`repro.store.target`).  Every frame record is a 1-bit PBM (P4)
    under its ``data_emblem_NNNN.pgm`` name; readers tell it from the 8-bit
    PGM (P5) frames of older archives by its magic number, and read both.
    The input streams through an
    :class:`~repro.api.session.ArchiveWriter` with ``collect=False`` —
    frames go straight to the target as they encode, so peak memory stays
    bounded by the executor window regardless of payload size.  The
    resolved :class:`~repro.api.ArchiveConfig` is embedded in the manifest
    *and* saved as ``config.json``, so a run is
    reproducible from the artefact alone.
    With ``--append`` the run *extends* an existing archive instead of
    creating one: new frames land after the old ones and a superseding
    manifest one generation up makes the appended bytes addressable as a
    seamless continuation of the payload (true incremental backup).
``restore``
    Restore a saved archive (any target spelling ``-i`` accepts) back to
    the payload file, optionally re-running the simulated record/scan cycle
    first (``--via-channel``), or restoring just a byte range
    (``--offset``/``--length`` — only the covering segments are decoded).
    A restore, full or partial, reports every frame it could not read — a
    record that is lost or unparsable, or a frame that failed to decode —
    one line each, or in ``--json`` as ``emblems_failed`` and
    ``failed_frames`` (``{"data": [[index, reason], ...], "system": [...]}``);
    the outer code rebuilds such frames as long as a group loses at most
    three.
``verify``
    fsck for archives: walk every manifest generation (lineage, segment
    monotonicity), re-check each segment's CRC-32/SHA-256 content hashes by
    decoding it independently (``--shallow`` stops at reading the frames),
    and report superseded/orphaned records.  On a container file,
    ``--repair`` truncates a torn tail append back to the last valid
    trailer (or finishes the index when the appended generation actually
    completed) before verifying.
``inspect``
    Summarise a saved archive's manifest — format version, embedded config,
    per-segment byte ranges, frame runs and content hashes — without
    loading any image.  Also accepts an ``http(s)://`` URL naming an
    archive on a running ``serve`` instance
    (``repro inspect http://host:port/archives/name``).
``serve``
    Serve a directory of named archives over HTTP — streaming uploads and
    appends, ranged reads through a shared decoded-segment cache, verify
    and inspect endpoints (see :mod:`repro.server`).
``profiles``
    List every name a config or target accepts: media channels and their
    aliases, codecs, executors, distortion profiles and storage backends
    (``--json`` for machine-readable output).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable

from repro.api.config import ArchiveConfig
from repro.api.session import open_archive, open_restore
from repro.core.profiles import MEDIA_ALIASES, PROFILES
from repro.dbcoder.dbcoder import Profile
from repro.errors import ReproError, StoreError
from repro.media.distortions import DISTORTIONS
from repro.pipeline.executors import EXECUTORS
from repro.store import BACKENDS, open_source, parse_target, repair_container, scan_container

#: Chunk size used when streaming the input file into the writer.
_READ_CHUNK = 1 << 20


def _load_config(args: argparse.Namespace) -> ArchiveConfig:
    """Build the run config from ``--config`` JSON plus per-flag overrides."""
    if getattr(args, "config", None):
        config = ArchiveConfig.from_json(Path(args.config).read_text())
    else:
        config = ArchiveConfig()
    overrides = {}
    for key in ("media", "codec", "executor", "segment_size", "decode_mode",
                "distortion", "scan_seed", "payload_kind"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "no_outer_code", False):
        overrides["outer_code"] = False
    return config.replace(**overrides) if overrides else config


def _failed_frames(
    streams: dict[str, Iterable[tuple[int, str]]],
) -> dict[str, list[list[object]]]:
    """``{stream: [[index, reason], ...]}``: the frames a restore could not
    read or decode, as ``--json`` reports them."""
    return {stream: [[index, reason] for index, reason in frames]
            for stream, frames in streams.items()}


def _print_failed_frames(failed_frames: dict[str, list[list[object]]]) -> None:
    for stream, frames in failed_frames.items():
        for index, reason in frames:
            print(f"  {stream} frame {index} not read: {reason}")


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def _cmd_archive(args: argparse.Namespace) -> int:
    input_path = Path(args.input)
    spec = parse_target(args.output)
    if args.append:
        # The existing target describes itself (its superseding manifest
        # supplies the config); explicit flags override on top.
        overrides = {}
        for key in ("media", "codec", "executor", "segment_size", "payload_kind"):
            value = getattr(args, key, None)
            if value is not None:
                overrides[key] = value
        base_config = (
            ArchiveConfig.from_json(Path(args.config).read_text()) if args.config else None
        )
        writer_session = open_archive(base_config, target=spec, append=True, **overrides)
    else:
        writer_session = open_archive(_load_config(args), target=spec)
    # Frames stream straight onto the store target as batches complete
    # (collect=False via target=...), so huge archives never accumulate
    # their emblem rasters in memory.
    with writer_session as writer, input_path.open("rb") as stream:
        while True:
            chunk = stream.read(_READ_CHUNK)
            if not chunk:
                break
            writer.write(chunk)
    config = writer.config
    manifest = writer.archive.manifest
    summary = {
        "output": str(args.output),
        "store": spec.store,
        "config": config.to_dict(),
        "format_version": manifest.format_version,
        "generation": manifest.generation,
        "payload_bytes": manifest.archive_bytes,
        "segments": max(len(manifest.segments), 1),
        "data_emblems": manifest.data_emblem_count,
        "system_emblems": manifest.system_emblem_count,
        "bootstrap_lines": len(writer.archive.bootstrap_text.splitlines()),
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        verb = "appended; archive now holds" if args.append else "archived"
        print(f"{verb} {manifest.archive_bytes:,} bytes -> {args.output} "
              f"({summary['store']} store, manifest v{manifest.format_version}, "
              f"generation {manifest.generation})")
        print(f"  {config.describe()}")
        print(f"  {summary['segments']} segments, "
              f"{manifest.data_emblem_count} data + "
              f"{manifest.system_emblem_count} system emblems, "
              f"{summary['bootstrap_lines']}-line Bootstrap")
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    overrides = {}
    for key in ("decode_mode", "executor", "distortion"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    partial = args.offset is not None or args.length is not None
    if partial and args.via_channel:
        raise ReproError("--offset/--length cannot be combined with --via-channel")
    with open_restore(args.input, **overrides) as reader:
        output_path = Path(args.output)
        if partial:
            offset = args.offset or 0
            length = args.length if args.length is not None else (
                reader.manifest.archive_bytes - offset
            )
            payload = reader.read_range(offset, length)
            output_path.write_bytes(payload)
            failed_frames = _failed_frames(reader.failed_frames)
            summary = {
                "output": str(output_path),
                "offset": offset,
                "length": len(payload),
                "segments_decoded": reader.segments_decoded,
                "frames_decoded": reader.frames_decoded,
                "segments_total": max(len(reader.manifest.segments), 1),
                "emblems_failed": sum(len(frames) for frames in failed_frames.values()),
                "failed_frames": failed_frames,
            }
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                print(f"restored bytes [{offset}:{offset + len(payload)}) -> "
                      f"{output_path} (decoded {reader.segments_decoded} of "
                      f"{summary['segments_total']} segments, "
                      f"{reader.frames_decoded} frames)")
                _print_failed_frames(failed_frames)
            return 0
        if args.via_channel:
            result = reader.read_via_channel(seed=args.seed)
        else:
            result = reader.read()
        output_path.write_bytes(result.payload)
        system = result.system_report
        failed_frames = _failed_frames({
            "data": result.data_report.failed_frames,
            "system": system.failed_frames if system is not None else [],
        })
        summary = {
            "output": str(output_path),
            "payload_bytes": len(result.payload),
            "payload_kind": reader.manifest.payload_kind,
            "decode_mode": result.decode_mode,
            "emblems_decoded": result.data_report.emblems_decoded,
            "emblems_failed": sum(len(frames) for frames in failed_frames.values()),
            "failed_frames": failed_frames,
            "rs_corrections": result.data_report.rs_corrections,
            "groups_reconstructed": result.data_report.groups_reconstructed,
            "emulator_steps": result.emulator_steps,
            "bit_exact": result.bit_exact,
        }
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"restored {len(result.payload):,} bytes -> {output_path} "
                  f"(bit-exact: {result.bit_exact})")
            for note in result.notes:
                print(f"  {note}")
            _print_failed_frames(failed_frames)
        return 0


def _inspect_over_http(url: str, as_json: bool) -> int:
    """``inspect`` against a running ``serve`` instance's JSON endpoint."""
    import urllib.error
    import urllib.request

    target = url.rstrip("/")
    if not target.endswith("/inspect"):
        target += "/inspect"
    try:
        with urllib.request.urlopen(target, timeout=30) as response:
            summary = json.loads(response.read())
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = str(json.loads(exc.read()).get("error", ""))
        except (ValueError, OSError):
            detail = ""
        raise ReproError(
            f"{target}: HTTP {exc.code}" + (f" — {detail}" if detail else "")
        ) from exc
    except urllib.error.URLError as exc:
        raise ReproError(f"{target}: {exc.reason}") from exc
    if as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    lineage = f", generation {summary['generation']}" if summary.get("generation") else ""
    print(f"{url}: {summary['payload_kind']} payload, "
          f"{summary['payload_bytes']:,} bytes on {summary['profile']} "
          f"via {summary['codec']} "
          f"(manifest v{summary['format_version']}{lineage})")
    print(f"  {summary['data_emblems']} data + "
          f"{summary['system_emblems']} system emblems, "
          f"{max(len(summary['segments']), 1)} segments "
          f"(segment_size={summary['segment_size'] or 'one-shot'})")
    for segment in summary["segments"]:
        sha = segment["sha256"][:12] if segment.get("sha256") else "-"
        print(f"  segment {segment['index']}: bytes "
              f"[{segment['offset']}:{segment['offset'] + segment['length']}) "
              f"crc32={segment['crc32']:08x} sha256={sha}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    spec = parse_target(args.input)
    if spec.is_remote:
        return _inspect_over_http(spec.target, args.json)
    try:
        source = open_source(spec)
    except (ValueError, TypeError) as exc:
        raise ReproError(f"{args.input} is not a readable archive: {exc}") from exc
    with source:
        try:
            manifest = source.manifest()
        except (ValueError, TypeError) as exc:
            raise ReproError(
                f"{args.input} does not hold a valid archive manifest: {exc}"
            ) from exc
        saved_config = manifest.config
        if saved_config is None:
            try:
                saved_config = json.loads(source.get_text("config.json"))
            except (ReproError, ValueError):
                saved_config = None
    # Container sources flag an index rebuilt by linear scan (damaged or
    # missing trailer); other backends have no trailer index to lose.
    index_status = (
        "recovered-by-scan" if getattr(source, "recovered_by_scan", False) else "ok"
    )
    volume_summary = None
    if manifest.volumes is not None:
        shard_map = manifest.volumes
        missing = getattr(source, "missing_volumes", None) or {}
        volume_summary = {
            "set_id": shard_map.get("set_id"),
            "data": shard_map.get("data"),
            "parity": shard_map.get("parity"),
            "stripe": shard_map.get("stripe"),
            "volume_count": shard_map.get("volume_count"),
            "stripes": len(shard_map.get("stripes", [])),
            "missing_volumes": sorted(missing),
        }
    summary = {
        "directory": str(args.input),
        "index": index_status,
        "format_version": manifest.format_version,
        "generation": manifest.generation,
        "parent": manifest.parent,
        "profile": manifest.profile_name,
        "codec": manifest.dbcoder_profile,
        "payload_kind": manifest.payload_kind,
        "payload_bytes": manifest.archive_bytes,
        "payload_crc32": manifest.archive_crc32,
        "segment_size": manifest.segment_size,
        "segments": [segment.to_dict() for segment in manifest.segments],
        "data_emblems": manifest.data_emblem_count,
        "system_emblems": manifest.system_emblem_count,
        "config": saved_config,
        "volumes": volume_summary,
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        lineage = (
            f", generation {manifest.generation}" if manifest.generation else ""
        )
        print(f"{args.input}: {manifest.payload_kind} payload, "
              f"{manifest.archive_bytes:,} bytes on {manifest.profile_name} "
              f"via {manifest.dbcoder_profile} "
              f"(manifest v{manifest.format_version}{lineage})")
        print(f"  {manifest.data_emblem_count} data + "
              f"{manifest.system_emblem_count} system emblems, "
              f"{max(len(manifest.segments), 1)} segments "
              f"(segment_size={manifest.segment_size or 'one-shot'})")
        if index_status != "ok":
            print(f"  index: {index_status}")
        if volume_summary is not None:
            degraded = (
                f", volumes {volume_summary['missing_volumes']} MISSING "
                "(reads run degraded)"
                if volume_summary["missing_volumes"]
                else ""
            )
            print(f"  volume set {volume_summary['set_id']}: "
                  f"k={volume_summary['data']} data + "
                  f"m={volume_summary['parity']} parity volumes, "
                  f"stripe depth {volume_summary['stripe']}, "
                  f"{volume_summary['stripes']} stripes{degraded}")
        for segment in manifest.segments:
            sha = segment.sha256[:12] if segment.sha256 else "-"
            print(f"  segment {segment.index}: bytes [{segment.offset}:{segment.end}) "
                  f"frames [{segment.emblem_start}:"
                  f"{segment.emblem_start + segment.emblem_count}) "
                  f"crc32={segment.crc32:08x} sha256={sha}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = parse_target(args.input)
    store = spec.store
    repair_report = None
    torn_tail = None
    if store == "container":
        # Only the single-file container can tear mid-append; diagnose (and
        # optionally repair) its tail before walking the generations.  A cut
        # exactly on a record boundary leaves zero dangling bytes but still
        # no trailer at EOF, so the gate is intactness, not byte count.
        scan = scan_container(spec.target)
        if args.repair:
            repair_report = repair_container(spec.target)
        elif not scan.intact:
            torn_tail = scan.torn_bytes
    elif args.repair:
        # A store-level misuse, not a generic CLI error: the target's backend
        # simply has no repairable record stream.
        raise StoreError(
            f"--repair only applies to container archives; {args.input} is a "
            f"{store} target"
        )
    with open_restore(spec) as reader:
        report = reader.verify(deep=not args.shallow)
    if torn_tail is not None:
        report.errors.append(
            f"container has a torn tail append ({torn_tail} dangling bytes "
            "past the last complete record; no intact trailer at end of "
            "file); run `verify --repair` to restore it"
        )
    summary = report.to_dict()
    summary["target"] = str(args.input)
    summary["store"] = store
    if repair_report is not None:
        summary["repair"] = repair_report
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        verdict = "ok" if report.ok else "PROBLEMS FOUND"
        mode = "shallow" if args.shallow else "deep"
        print(f"{args.input}: {verdict} ({store} store, {mode} check, "
              f"active generation {report.active_generation})")
        if repair_report is not None and repair_report["action"] != "intact":
            print(f"  repaired: {repair_report['action']}, "
                  f"{repair_report['bytes_removed']} bytes removed")
        for info in report.generations:
            line = (f"  generation {info.generation} [{info.status}] "
                    f"{info.record_name}: {info.segments} segments, "
                    f"{info.archive_bytes:,} bytes")
            if info.parent:
                line += f", parent {info.parent[:12]}"
            print(line)
        print(f"  checked {report.segments_checked} segments, "
              f"{report.frames_checked} frames")
        for name in report.orphaned:
            print(f"  orphaned: {name}")
        for message in report.errors:
            print(f"  error: {message}")
        for message in report.warnings:
            print(f"  warning: {message}")
    return 0 if report.ok else 1


def _cmd_profiles(args: argparse.Namespace) -> int:
    listing = {
        "media": [
            {
                "name": name,
                "description": profile.description,
                "emblem_payload_bytes": profile.spec.payload_capacity,
            }
            for name, profile in sorted(PROFILES.items())
        ],
        "media_aliases": dict(MEDIA_ALIASES),
        "codecs": [
            {"name": profile.name.lower(), "description": profile.description}
            for profile in sorted(Profile, key=lambda profile: profile.name)
        ],
        "executors": sorted(EXECUTORS),
        "distortions": sorted(DISTORTIONS),
        "stores": [
            {"name": name, "description": backend.description}
            for name, backend in sorted(BACKENDS.items())
        ],
    }
    if args.json:
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    print("media channels:")
    for entry in listing["media"]:
        print(f"  {entry['name']:<22} {entry['description']}")
    aliases = listing["media_aliases"]
    print(f"  aliases: {', '.join(f'{a} -> {t}' for a, t in sorted(aliases.items()))}")
    print("codecs:")
    for entry in listing["codecs"]:
        print(f"  {entry['name']:<22} {entry['description']}")
    print(f"executors: {', '.join(listing['executors'])} "
          f"(suffix ':N' pins the worker count)")
    print(f"distortions: {', '.join(listing['distortions'])}")
    print("stores:")
    for entry in listing["stores"]:
        print(f"  {entry['name']:<22} {entry['description']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so plain CLI runs never pay for the service stack.
    from repro.server import ArchiveRepository, ReproServer
    from repro.server.cache import DEFAULT_CACHE_BYTES

    cache_bytes = DEFAULT_CACHE_BYTES if args.cache_bytes is None else args.cache_bytes
    repository = ArchiveRepository(args.root, cache_bytes=cache_bytes)
    request_timeout = (
        None if args.request_timeout is not None and args.request_timeout <= 0
        else args.request_timeout
    )
    server = (
        ReproServer(repository, host=args.host, port=args.port)
        if args.request_timeout is None
        else ReproServer(
            repository, host=args.host, port=args.port, request_timeout=request_timeout
        )
    )
    handle = server.start_in_thread()
    try:
        if args.port_file:
            Path(args.port_file).write_text(f"{server.port}\n")
        print(f"serving {repository.root} on {server.base_url} (Ctrl-C to stop)",
              flush=True)
        try:
            handle.join()
        except KeyboardInterrupt:
            print("stopping", file=sys.stderr)
    finally:
        handle.stop()
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Micr'Olonys / ULE archival toolchain (CIDR 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    archive = sub.add_parser("archive", help="archive a payload file onto a storage backend")
    archive.add_argument("--input", "-i", required=True, help="payload file to archive")
    archive.add_argument("--output", "-o", required=True,
                         help="archive target URI: dir:<path>, file:<path>, mem:<name>, "
                              "vol:k=K,m=M:<member,member,...>, or a path (an existing "
                              "directory or a new name without .ule is a directory "
                              "archive, an existing file or a new *.ule a container)")
    archive.add_argument("--append", action="store_true",
                         help="extend an existing archive at --output instead of "
                              "creating one (writes a superseding manifest one "
                              "generation up)")
    archive.add_argument("--config", help="ArchiveConfig JSON file (flags override it)")
    archive.add_argument("--media", help="media channel name (see 'profiles')")
    archive.add_argument("--codec", help="compression codec name")
    archive.add_argument("--executor", help="executor spec, e.g. serial, thread:4")
    archive.add_argument("--segment-size", dest="segment_size", type=int,
                         help="payload bytes per pipeline segment")
    archive.add_argument("--payload-kind", dest="payload_kind",
                         help="manifest payload kind (e.g. sql, binary)")
    archive.add_argument("--distortion", help="distortion profile override")
    archive.add_argument("--no-outer-code", dest="no_outer_code", action="store_true",
                         help="skip the 17+3 inter-emblem parity groups")
    archive.add_argument("--json", action="store_true", help="machine-readable summary")
    archive.set_defaults(handler=_cmd_archive)

    restore = sub.add_parser("restore", help="restore a saved archive (full or a byte range)")
    restore.add_argument("--input", "-i", required=True,
                         help="archive target URI: dir:<path>, file:<path>, mem:<name>, "
                              "vol:<members>, or a path")
    restore.add_argument("--output", "-o", required=True, help="file for the restored payload")
    restore.add_argument("--offset", type=int,
                         help="partial restore: first payload byte to recover")
    restore.add_argument("--length", type=int,
                         help="partial restore: number of payload bytes to recover")
    restore.add_argument("--decode-mode", dest="decode_mode",
                         choices=["python", "dynarisc", "nested"],
                         help="restoration fidelity (default: python)")
    restore.add_argument("--executor", help="executor spec for segmented decode "
                                            "(thread:N also splits large segments N ways)")
    restore.add_argument("--distortion", help="distortion profile for --via-channel")
    restore.add_argument("--via-channel", dest="via_channel", action="store_true",
                         help="record/scan through the simulated medium first "
                              "(streams batch by batch through the executor)")
    restore.add_argument("--seed", type=int, help="scan seed for --via-channel")
    restore.add_argument("--json", action="store_true", help="machine-readable summary")
    restore.set_defaults(handler=_cmd_restore)

    inspect = sub.add_parser("inspect", help="summarise a saved archive's manifest")
    inspect.add_argument("input", help="archive target URI (dir:/file:/mem:/vol:), a "
                                      "path, or http(s)://host/archives/<name>")
    inspect.add_argument("--json", action="store_true", help="machine-readable summary")
    inspect.set_defaults(handler=_cmd_inspect)

    verify = sub.add_parser("verify", help="fsck a saved archive (walks every "
                                           "manifest generation)")
    verify.add_argument("input", help="archive target URI (dir:/file:/mem:/vol:) or a path")
    verify.add_argument("--shallow", action="store_true",
                        help="skip the per-segment hash re-decode; only read and "
                             "parse every referenced frame")
    verify.add_argument("--repair", action="store_true",
                        help="container: truncate a torn tail append back to the "
                             "last valid state before verifying")
    verify.add_argument("--json", action="store_true", help="machine-readable report")
    verify.set_defaults(handler=_cmd_verify)

    profiles = sub.add_parser("profiles", help="list registered media/codecs/executors")
    profiles.add_argument("--json", action="store_true", help="machine-readable listing")
    profiles.set_defaults(handler=_cmd_profiles)

    serve = sub.add_parser("serve", help="serve a repository of named archives over HTTP")
    serve.add_argument("--root", required=True,
                       help="directory holding the named archives (created if missing)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port; 0 picks an ephemeral port (default 8765)")
    serve.add_argument("--port-file", dest="port_file",
                       help="write the bound port to this file once listening "
                            "(lets scripts use --port 0)")
    serve.add_argument("--cache-bytes", dest="cache_bytes", type=int,
                       help="decoded-segment cache budget in bytes (default 64 MiB; "
                            "0 disables caching)")
    serve.add_argument("--request-timeout", dest="request_timeout", type=float,
                       help="seconds of socket silence tolerated per request "
                            "(headers, keep-alive waits and body chunks) before "
                            "answering 408 and dropping the connection "
                            "(default 30; 0 disables)")
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
