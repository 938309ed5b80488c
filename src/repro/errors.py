"""Exception hierarchy for the ULE / Micr'Olonys reproduction.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Sub-hierarchies mirror the major subsystems:
the virtual machines, the database coder, the media coder, the analog media
channels, the Bootstrap document, and the DBMS substrate.

:func:`resolve_name` is the one lookup behind every name table (media,
codecs, executors, distortions, target schemes): it lives here, the lowest
layer, beside the :class:`UnknownNameError` it raises, so each table can sit
in the module that defines its values.
"""

from __future__ import annotations

import difflib
from typing import Collection, Mapping


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --------------------------------------------------------------------------- #
# Virtual machines (VeRisc / DynaRisc)
# --------------------------------------------------------------------------- #
class EmulationError(ReproError):
    """Base class for errors raised while assembling or emulating programs."""


class AssemblyError(EmulationError):
    """A source program could not be assembled.

    Attributes
    ----------
    line:
        1-based line number in the source text, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidInstructionError(EmulationError):
    """An instruction word could not be decoded by the emulator."""


class MachineFault(EmulationError):
    """The emulated machine performed an illegal operation (bad address,
    stack underflow, division fault, ...)."""


class ExecutionLimitExceeded(EmulationError):
    """The emulated program ran longer than the configured step budget."""


# --------------------------------------------------------------------------- #
# DBCoder (database layout coder)
# --------------------------------------------------------------------------- #
class DBCoderError(ReproError):
    """Base class for database-layout encoding/decoding errors."""


class DecompressionError(DBCoderError):
    """Raised when a compressed stream is corrupt or truncated."""


class ContainerFormatError(DBCoderError):
    """Raised when a DBCoder container header is malformed."""


# --------------------------------------------------------------------------- #
# MOCoder (media layout coder)
# --------------------------------------------------------------------------- #
class MOCoderError(ReproError):
    """Base class for media-layout encoding/decoding errors."""


class EmblemFormatError(MOCoderError):
    """An emblem image does not have the expected structure."""


class EmblemDetectionError(MOCoderError):
    """The emblem geometry could not be located in a scanned image."""


class ECCError(MOCoderError):
    """Base class for error-correction failures."""


class UncorrectableBlockError(ECCError):
    """An inner Reed-Solomon block had more errors than the code can fix."""


class MissingEmblemError(ECCError):
    """More emblems are missing from a group than the outer code can rebuild."""


# --------------------------------------------------------------------------- #
# Media channels (paper / microfilm / cinema film / dna)
# --------------------------------------------------------------------------- #
class MediaError(ReproError):
    """Base class for analog-media channel errors."""


class MediaCapacityError(MediaError):
    """The payload does not fit on the configured medium."""


# --------------------------------------------------------------------------- #
# Bootstrap document
# --------------------------------------------------------------------------- #
class BootstrapError(ReproError):
    """Base class for Bootstrap document errors."""


class LetterCodecError(BootstrapError):
    """The hexadecimal letter encoding encountered an invalid character."""


class BootstrapParseError(BootstrapError):
    """The Bootstrap document text could not be parsed back into sections."""


# --------------------------------------------------------------------------- #
# DBMS substrate
# --------------------------------------------------------------------------- #
class DBMSError(ReproError):
    """Base class for the miniature relational engine."""


class SchemaError(DBMSError):
    """A table definition or row does not match the declared schema."""


class SQLDumpError(DBMSError):
    """A SQL archive file could not be parsed by ``db_load``."""


# --------------------------------------------------------------------------- #
# End-to-end pipeline
# --------------------------------------------------------------------------- #
class ArchiveError(ReproError):
    """Base class for end-to-end archival/restoration errors."""


class RestorationError(ArchiveError):
    """The archived database could not be restored bit-for-bit."""


class StoreError(ArchiveError):
    """An on-media archive store (directory/container/memory) is invalid,
    corrupt, or was asked for something it does not contain."""


# --------------------------------------------------------------------------- #
# Archive service (repro.server)
# --------------------------------------------------------------------------- #
class ServerError(ReproError):
    """Base class for the multi-tenant archive service layer."""


class ArchiveNotFoundError(ServerError):
    """The repository holds no archive under the requested name (HTTP 404)."""


class ArchiveBusyError(ServerError):
    """A conflicting writer holds the archive's writer lock, or the name is
    already taken by an existing archive (HTTP 409)."""


class BadRequestError(ServerError):
    """A service request is malformed: an illegal archive name, an invalid
    Range header, unparsable parameters (HTTP 400)."""


# --------------------------------------------------------------------------- #
# Name tables and the unified configuration facade
# --------------------------------------------------------------------------- #
class RegistryError(ReproError):
    """Base class for name-table registration/lookup errors."""


class UnknownNameError(RegistryError, KeyError):
    """A name-table lookup (codec, media channel, executor, ...) failed.

    Carries the failed ``name``, the table's ``kind``, the valid ``choices``
    and a did-you-mean ``suggestion`` (closest valid name, when one is close
    enough).  Inherits :class:`KeyError` so callers that catch ``KeyError``
    from ``get_profile`` keep working.
    """

    def __init__(self, kind: str, name: str, choices: list[str], suggestion: str | None = None):
        self.kind = kind
        self.name = name
        self.choices = list(choices)
        self.suggestion = suggestion
        message = f"unknown {kind} {name!r}"
        if suggestion:
            message += f"; did you mean {suggestion!r}?"
        message += f" (valid names: {', '.join(self.choices) or 'none registered'})"
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message and mangle the quotes.
        return self.args[0]

    def __reduce__(
        self,
    ) -> "tuple[type[UnknownNameError], tuple[str, str, list[str], str | None]]":
        # Exceptions pickle via (cls, self.args) by default, which would call
        # __init__ with the rendered message instead of the four fields; this
        # matters when the error crosses a process-pool boundary.
        return (UnknownNameError, (self.kind, self.name, self.choices, self.suggestion))


def resolve_name(
    kind: str,
    name: str,
    names: Collection[str],
    aliases: Mapping[str, str] | None = None,
) -> str:
    """The entry of a name table that ``name`` spells.

    ``names`` are the table's canonical (lower-case) names and ``aliases``
    map short spellings onto them; a lookup ignores case and surrounding
    space.  A miss raises :class:`UnknownNameError` for ``kind``, listing
    ``names`` in the order given and then the sorted aliases, and suggesting
    the closest of them.
    """
    key = str(name).strip().lower()
    aliases = aliases or {}
    resolved = aliases.get(key, key)
    if resolved in names:
        return resolved
    choices = [*names, *sorted(aliases)]
    close = difflib.get_close_matches(key, choices, n=1, cutoff=0.5)
    raise UnknownNameError(kind, name, choices, close[0] if close else None)


class ConfigError(ArchiveError):
    """An :class:`repro.api.ArchiveConfig` is invalid or cannot be parsed."""
