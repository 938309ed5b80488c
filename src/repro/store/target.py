"""Target URIs: the one way to say where an archive lives.

Every archive target — a session's ``target``, :func:`~repro.api.open_restore`'s
source, the CLI's ``-o``/``-i``/positional targets and the server's repository
paths — goes through :func:`parse_target`, which returns a typed
:class:`TargetSpec`.  The spelling alone picks the storage backend and, for a
volume set, its geometry:

``dir:/path/to/archive``
    A ``directory`` backend archive (one Netpbm file per frame).
``file:/path/to/archive.ule``
    A ``container`` backend archive (single indexed record file).
``mem:name``
    An in-process ``memory`` backend archive.
``http://host:port/archives/name`` / ``https://...``
    A remote archive served by :mod:`repro.server` (read-only client paths).
``vol:k=4,m=2,stripe=1:/mnt/a,/mnt/b,...``
    A sharded **volume set**: K data + M parity member volumes, each member
    itself a ``dir:``/``file:``/``mem:`` target or a filesystem path.
    Omitted options resolve when a set is created (``m=1``, ``stripe=1``,
    ``k`` = members − ``m``); an existing set's geometry is read back from
    its members.
a filesystem path
    A scheme-less string or a :class:`pathlib.Path`.  An existing directory
    is a ``directory`` archive and an existing file a ``container``; a new
    target is a ``container`` when its name ends in ``.ule`` and a
    ``directory`` otherwise.

Unknown schemes raise the did-you-mean
:class:`~repro.errors.UnknownNameError` of every name lookup
(:func:`~repro.errors.resolve_name`); an empty path or ``mem:`` key and a
malformed ``vol:`` spec raise :class:`~repro.errors.StoreError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StoreError, resolve_name

__all__ = [
    "TargetSpec",
    "VolumeSetSpec",
    "parse_target",
    "parse_member",
]

#: Schemes the target grammar understands.
KNOWN_SCHEMES = ("dir", "file", "mem", "http", "https", "vol")

#: scheme -> storage-backend name (remote schemes have no backend).
_SCHEME_STORES = {
    "dir": "directory",
    "file": "container",
    "mem": "memory",
    "vol": "volumes",
}

#: storage-backend name -> canonical scheme.
_STORE_SCHEMES = {store: scheme for scheme, store in _SCHEME_STORES.items()}

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*):")

#: Keys legal in a ``vol:`` options segment.
_VOL_OPTIONS = ("k", "m", "stripe")

#: A ``vol:`` option value: plain ASCII decimal digits (no sign, space or ``_``).
_DECIMAL_RE = re.compile(r"[0-9]+")

#: Parity volumes and stripe depth of a new set whose URI omits ``m=``/``stripe=``.
_DEFAULT_PARITY = 1
_DEFAULT_STRIPE = 1

#: File-name suffix that makes a new scheme-less target a container.
_CONTAINER_SUFFIX = ".ule"


@dataclass(frozen=True)
class VolumeSetSpec:
    """The parsed geometry of one ``vol:`` target.

    ``data``/``parity``/``stripe`` stay ``None`` when the URI omitted them;
    :meth:`resolved` fills the gaps and validates the final shape.
    """

    #: Member volume targets, in shard order: data volumes first, then
    #: parity volumes.  Each is a ``dir:``/``file:``/``mem:`` target or a
    #: filesystem path (sniffed by :func:`parse_member`).
    members: tuple[str, ...]
    #: K — number of data volumes (``None``: members − M).
    data: int | None = None
    #: M — number of parity volumes (``None``: members − K, else 1).
    parity: int | None = None
    #: Frames per shard within one stripe (``None``: 1).
    stripe: int | None = None

    def resolved(self) -> "VolumeSetSpec":
        """A fully-specified, shape-checked copy.

        An omitted ``m`` is what the member list leaves after ``k`` (1 when
        both are omitted), an omitted ``k`` what it leaves after ``m``, and
        an omitted ``stripe`` is 1.
        """
        total = len(self.members)
        data = self.data
        parity = self.parity
        if parity is None:
            parity = _DEFAULT_PARITY if data is None else total - data
        if data is None:
            data = total - parity
        stripe = self.stripe if self.stripe is not None else _DEFAULT_STRIPE
        if data + parity != total:
            raise StoreError(
                f"volume set lists {total} members but k={data} + m={parity} "
                f"= {data + parity}; the counts must match the member list"
            )
        if data < 1 or parity < 1:
            raise StoreError(
                f"a volume set needs at least 1 data and 1 parity volume, "
                f"got k={data}, m={parity}"
            )
        if total > 255:
            raise StoreError(
                f"a volume set cannot exceed 255 volumes (GF(256) erasure "
                f"coding), got {total}"
            )
        if stripe < 1:
            raise StoreError(f"volume stripe depth must be >= 1, got {stripe}")
        return VolumeSetSpec(self.members, data, parity, stripe)

    def uri(self) -> str:
        """The canonical ``vol:`` spelling of this spec."""
        options = [
            f"{key}={value}"
            for key, value in (("k", self.data), ("m", self.parity), ("stripe", self.stripe))
            if value is not None
        ]
        head = f"{','.join(options)}:" if options else ""
        return f"vol:{head}{','.join(self.members)}"


@dataclass(frozen=True)
class TargetSpec:
    """One parsed archive target: where it lives and which backend owns it."""

    #: Canonical scheme: one of :data:`KNOWN_SCHEMES`, or ``"path"`` for a
    #: scheme-less filesystem target.
    scheme: str
    #: Storage-backend name (``directory``/``container``/``memory``/
    #: ``volumes``), a key of :data:`repro.store.BACKENDS`; ``None`` only for
    #: remote (``http(s)``) targets.
    store: str | None
    #: The backend-native target (a filesystem path, a ``mem:`` key, a
    #: canonical ``vol:`` URI, or a full URL for remote targets).
    target: str
    #: Parsed volume-set geometry, for ``vol:`` targets only.
    volumes: VolumeSetSpec | None = None

    @property
    def is_remote(self) -> bool:
        """True for ``http(s)`` targets (served by :mod:`repro.server`)."""
        return self.scheme in ("http", "https")

    def uri(self) -> str:
        """A canonical URI spelling of this target."""
        if self.store in ("directory", "container"):
            return f"{_STORE_SCHEMES[self.store]}:{self.target}"
        return self.target


def _sniff_path(path: str) -> str:
    """The backend of a filesystem target (see the module docs for the rule)."""
    if not path:
        raise StoreError("an archive target needs a non-empty path")
    candidate = Path(path)
    if candidate.is_dir():
        return "directory"
    if candidate.is_file():
        return "container"
    return "container" if candidate.name.endswith(_CONTAINER_SUFFIX) else "directory"


def _parse_volume_options(text: str) -> dict[str, int]:
    options: dict[str, int] = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in _VOL_OPTIONS:
            raise StoreError(
                f"unknown volume-set option {key!r} (valid options: "
                f"{', '.join(_VOL_OPTIONS)})"
            )
        if key in options:
            raise StoreError(f"volume-set option {key!r} is given more than once")
        if not _DECIMAL_RE.fullmatch(value):
            raise StoreError(
                f"volume-set option {key!r} must be an integer written in "
                f"decimal digits, got {value!r}"
            )
        options[key] = int(value)
    return options


def _parse_volume_spec(rest: str) -> VolumeSetSpec:
    """Parse the text after ``vol:`` into a :class:`VolumeSetSpec`."""
    head, colon, tail = rest.partition(":")
    if colon and head and all("=" in part for part in head.split(",")):
        options = _parse_volume_options(head)
        member_text = tail
    else:
        options = {}
        member_text = rest
    members = tuple(part.strip() for part in member_text.split(",") if part.strip())
    if len(members) < 2:
        raise StoreError(
            f"a volume set needs at least 2 member volumes, got "
            f"{len(members)} in {'vol:' + rest!r}"
        )
    for member in members:
        parse_member(member)
    spec = VolumeSetSpec(
        members=members,
        data=options.get("k"),
        parity=options.get("m"),
        stripe=options.get("stripe"),
    )
    if spec.data is not None and spec.parity is not None:
        spec.resolved()  # validate the fully-specified shape eagerly
    return spec


def parse_member(raw: str) -> tuple[str, str]:
    """Resolve one volume-set member to ``(backend name, backend target)``.

    A member is a ``dir:``/``file:``/``mem:`` target or a filesystem path,
    parsed exactly like a top-level target by :func:`parse_target`.
    """
    match = _SCHEME_RE.match(raw)
    if match and match.group(1).lower() in ("vol", "http", "https"):
        raise StoreError(
            f"volume-set member {raw!r} uses the {match.group(1)!r} scheme; "
            "members must be local dir:/file:/mem: targets"
        )
    spec = parse_target(raw)
    assert spec.store is not None  # every local scheme names a backend
    return spec.store, spec.target


def parse_target(raw: "str | Path | TargetSpec") -> TargetSpec:
    """Parse any archive-target spelling into a :class:`TargetSpec`.

    ``raw`` is a target URI (see the module docs for the grammar), a
    filesystem path as a scheme-less string or a :class:`~pathlib.Path`, or
    an already-parsed :class:`TargetSpec` (passed through).

    Raises
    ------
    UnknownNameError
        On an unrecognised URI scheme (with a did-you-mean suggestion).
    StoreError
        On an empty path or ``mem:`` key, or a malformed ``vol:`` spec.
    """
    if isinstance(raw, TargetSpec):
        return raw
    text = str(raw)
    match = None if isinstance(raw, Path) else _SCHEME_RE.match(text)
    if match is None:
        return TargetSpec(scheme="path", store=_sniff_path(text), target=text)
    scheme = resolve_name("target scheme", match.group(1), KNOWN_SCHEMES)
    rest = text[match.end():]
    if scheme in ("http", "https"):
        return TargetSpec(scheme=scheme, store=None, target=text)
    if scheme == "vol":
        volumes = _parse_volume_spec(rest)
        return TargetSpec(scheme="vol", store="volumes", target=volumes.uri(), volumes=volumes)
    if not rest:
        raise StoreError(
            f"target {text!r} names no {'key' if scheme == 'mem' else 'path'}"
        )
    if scheme == "mem":
        # The memory backend's native target is the mem:-prefixed key.
        return TargetSpec(scheme="mem", store="memory", target=f"mem:{rest}")
    return TargetSpec(scheme=scheme, store=_SCHEME_STORES[scheme], target=rest)
