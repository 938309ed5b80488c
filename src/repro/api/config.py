"""The unified archival configuration: one dataclass describes a whole run.

An :class:`ArchiveConfig` names every pluggable choice of the seven-step
flow — media channel, compression codec, outer code, segment size, executor,
restoration decode mode, scanner distortion — by *string* through
:mod:`repro.registry`, so a config is plain data: it JSON round-trips, ships
alongside an archive, and fully reproduces a run on another machine.  This
is the paper's self-describing-contract idea applied to the library's own
surface area.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

from repro import registry
from repro.core.profiles import MediaProfile
from repro.dbcoder.formats import HEADER_SIZE as CONTAINER_HEADER_SIZE
from repro.errors import ConfigError, UnknownNameError
from repro.media.channel import MediaChannel
from repro.mocoder.mocoder import MOCoder
from repro.pipeline.executors import parse_executor_spec
from repro.pipeline.pipeline import ChannelSpec
from repro.pipeline.segmenter import segment_count

__all__ = ["ArchiveConfig"]

#: Valid values for ``decode_mode``: the reference decoders, or the archived
#: DBCoder decoder under the DynaRisc emulator or the nested VeRisc stack.
DECODE_MODES = ("python", "dynarisc", "nested")

#: Keys older archives embed in their manifest config, and where each now lives.
_RETIRED_KEYS = {
    "store": "spell the backend as the scheme of the target URI (dir:, file:, mem:, vol:)",
    "volume_parity": "spell the parity volume count as m= in the vol: target URI",
    "volume_stripe": "spell the stripe depth as stripe= in the vol: target URI",
    "decode_parallelism": (
        "a segment's decode now splits across the executor's workers; "
        'pass executor="thread:N" (or "process:N")'
    ),
    "readahead": (
        "reads fetch each segment's frames inside the executor's submission "
        'window; pass executor="thread:N" to overlap fetch with decode'
    ),
}

#: Whether a media profile's channel applies raster distortion profiles,
#: memoised per profile object so config validation doesn't rebuild a
#: channel on every construction.  Values hold a strong reference to the
#: profile so ids are never reused.
_DISTORTION_SUPPORT: dict[int, tuple[MediaProfile, bool]] = {}


def _channel_supports_distortion(profile: MediaProfile) -> bool:
    cached = _DISTORTION_SUPPORT.get(id(profile))
    if cached is not None and cached[0] is profile:
        return cached[1]
    supports = getattr(profile.channel(), "supports_distortion", True)
    _DISTORTION_SUPPORT[id(profile)] = (profile, supports)
    return supports


@dataclass(frozen=True)
class ArchiveConfig:
    """Everything needed to archive (and restore) a payload, by name.

    Parameters
    ----------
    media:
        Media channel name from :data:`repro.registry.media`
        (``"paper"``, ``"microfilm"``, ``"cinema"``, ``"dna"``, ``"test"``,
        or a canonical profile name).  Canonicalised on construction.
    codec:
        Compression codec name from :data:`repro.registry.codecs`
        (``"store"`` / ``"portable"`` / ``"dense"`` or a user codec).
    executor:
        Pipeline executor spec: a registry name optionally suffixed with a
        worker count (``"serial"``, ``"thread:4"``, ``"process"``, ``"auto"``).
        Restore fetches each segment's frames inside the executor's
        submission window and splits a segment of at least
        ``2 * MIN_DECODE_CHUNK`` frames into up to that many decode jobs.
        ``"thread:N"`` restores fastest; ``"process:N"`` pays off only when
        encoding with the pure-Python codecs.
    outer_code:
        Whether MOCoder adds the 17+3 inter-emblem parity groups.
    segment_size:
        Payload bytes per pipeline segment; ``None`` keeps the whole payload
        in one segment (the historical one-shot layout).
    decode_mode:
        Restoration fidelity for every read, partial reads included:
        ``"python"`` (reference decoders), ``"dynarisc"`` or ``"nested"``
        (the archived decoder under an emulator).
    distortion:
        Optional distortion-profile name from
        :data:`repro.registry.distortions` overriding the channel's default
        scanner model; ``None`` keeps the channel default.
    scan_seed:
        Seed for the simulated record/scan cycle (reproducible damage).
    payload_kind:
        Recorded in the manifest; ``"sql"`` payloads are reloaded into the
        miniature DBMS at restore time.

    Where an archive lives — its storage backend and, for a volume set, its
    geometry — is not part of the config: the session's target URI spells
    it (:mod:`repro.store.target`).
    """

    media: str = "test-small"
    codec: str = "portable"
    executor: str = "serial"
    outer_code: bool = True
    segment_size: int | None = None
    decode_mode: str = "python"
    distortion: str | None = None
    scan_seed: int | None = None
    payload_kind: str = "binary"

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        self._check_types()
        try:
            object.__setattr__(self, "media", registry.media.resolve_name(self.media))
            object.__setattr__(self, "codec", registry.codecs.resolve_name(self.codec))
            name, workers = parse_executor_spec(self.executor)
            registry.executors.resolve_name(name)
            if self.distortion is not None:
                object.__setattr__(
                    self, "distortion", registry.distortions.resolve_name(self.distortion)
                )
        except UnknownNameError as exc:
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.segment_size is not None and self.segment_size <= 0:
            raise ConfigError(
                f"segment_size must be a positive byte count or None, got {self.segment_size}"
            )
        if self.distortion is not None:
            # Reject overrides the channel would silently ignore (e.g. the
            # DNA channel, whose error model is strand-level).
            if not _channel_supports_distortion(registry.get_media(self.media)):
                raise ConfigError(
                    f"media channel {self.media!r} does not apply raster "
                    "distortion profiles; its degradation is configured on "
                    "the channel itself"
                )
        if self.decode_mode not in DECODE_MODES:
            raise ConfigError(
                f"decode_mode must be one of {DECODE_MODES}, got {self.decode_mode!r}"
            )
        if workers is None and ":" in self.executor:
            # "thread:" with an empty count normalises to the bare name.
            object.__setattr__(self, "executor", name)

    def _check_types(self) -> None:
        """Reject values of a type the pipeline cannot honour.

        JSON configs arrive untyped: ``"outer_code": "no"`` is truthy, and a
        ``bool`` is an ``int`` to Python, so both are checked explicitly.
        """
        for name in ("segment_size", "scan_seed"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.outer_code, bool):
            raise ConfigError(f"outer_code must be true or false, got {self.outer_code!r}")
        if not isinstance(self.payload_kind, str):
            raise ConfigError(f"payload_kind must be a string, got {self.payload_kind!r}")

    @classmethod
    def _check_keys(cls, fields: dict[str, Any]) -> None:
        """Reject keys that are not config fields, naming the new spelling of
        a retired one."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(fields) - known)
        retired = [key for key in unknown if key in _RETIRED_KEYS]
        if retired:
            raise ConfigError("; ".join(
                f"config key {key!r} was removed: {_RETIRED_KEYS[key]}" for key in retired
            ))
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(unknown)} "
                f"(valid keys: {', '.join(sorted(known))})"
            )

    # ------------------------------------------------------------------ #
    # Serialisation: a config is plain data and must survive JSON exactly.
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """The config as a JSON-serialisable dict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, fields: dict[str, Any]) -> "ArchiveConfig":
        """Build (and validate) a config from :meth:`to_dict` output.

        Keys that archives written by earlier releases still embed
        (:data:`_RETIRED_KEYS`) are dropped: an existing archive's backend
        comes from its target, a volume set's geometry from its members,
        and restore chunking and frame fetch overlap from the session's
        executor.

        Raises
        ------
        ConfigError
            On unknown keys, unknown registry names, or invalid values.
        """
        if not isinstance(fields, dict):
            raise ConfigError(f"config must be a JSON object, got {type(fields).__name__}")
        fields = {key: value for key, value in fields.items() if key not in _RETIRED_KEYS}
        cls._check_keys(fields)
        return cls(**fields)

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise the config as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArchiveConfig":
        """Parse a config from JSON text (inverse of :meth:`to_json`)."""
        try:
            fields = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(fields)

    def replace(self, **changes: Any) -> "ArchiveConfig":
        """A copy with ``changes`` applied (re-validated)."""
        self._check_keys(changes)
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Resolution: names -> live objects.
    # ------------------------------------------------------------------ #
    def media_profile(self) -> MediaProfile:
        """The resolved media profile (emblem geometry and channel factory)."""
        return registry.get_media(self.media)

    def resolve_codec(self) -> "registry.Codec":
        """The resolved compression codec."""
        return registry.get_codec(self.codec)

    def channel(self) -> MediaChannel:
        """A fresh media channel for step 7 (record/scan), with any
        distortion override applied."""
        return ChannelSpec(self.media, self.distortion).build_channel()

    # ------------------------------------------------------------------ #
    def estimate_emblems(self, payload_bytes: int) -> int:
        """Estimate the data-emblem count for a payload of ``payload_bytes``.

        Exact for the ``store`` codec; an upper bound for compressible
        payloads under the compressing codecs (compression is not modelled).
        """
        profile = self.media_profile()
        mocoder = MOCoder(profile.spec, outer_code=self.outer_code)
        segments = segment_count(payload_bytes, self.segment_size)
        total = 0
        remaining = payload_bytes
        for _ in range(segments):
            if self.segment_size is None:
                length = remaining
            else:
                length = min(self.segment_size, remaining)
            total += mocoder.total_emblems_needed(length + CONTAINER_HEADER_SIZE)
            remaining -= length
        return total

    def describe(self) -> str:
        """One-line human description (used by the CLI)."""
        parts = [f"media={self.media}", f"codec={self.codec}", f"executor={self.executor}"]
        parts.append(f"segment_size={self.segment_size if self.segment_size else 'one-shot'}")
        parts.append(f"outer_code={'on' if self.outer_code else 'off'}")
        if self.distortion:
            parts.append(f"distortion={self.distortion}")
        if self.decode_mode != "python":
            parts.append(f"decode_mode={self.decode_mode}")
        return " ".join(parts)
