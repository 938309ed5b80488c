"""Universal Layout Emulation (ULE) for long-term database archival.

A faithful, pure-Python reproduction of *"Universal Layout Emulation for
Long-Term Database Archival"* (Appuswamy & Joguin, CIDR 2021) and of
Micr'Olonys, its end-to-end archival system for visual analog media.

Public API highlights
---------------------
* :mod:`repro.api` — the unified facade: :class:`~repro.api.ArchiveConfig`
  (one JSON-round-trippable config naming every choice),
  :func:`~repro.api.open_archive` / :func:`~repro.api.open_restore`
  (session-based streaming I/O — the one way to archive and the one way to
  restore), :func:`~repro.api.run_end_to_end` (all seven Figure 2a steps
  in one call) and the ``python -m repro`` CLI.
* every name a config accepts resolves through the table beside what it
  names: :data:`repro.core.PROFILES` (media, with short aliases; extended by
  :func:`repro.core.register_profile`), the :class:`repro.dbcoder.Profile`
  names (codecs), :data:`repro.pipeline.executors.EXECUTORS`,
  :data:`repro.media.distortions.DISTORTIONS` and
  :data:`repro.store.BACKENDS`, each lookup case-insensitive with a
  did-you-mean :class:`~repro.errors.UnknownNameError`.
* :mod:`repro.store` — the on-media layout layer: versioned self-describing
  manifests (v2), ``directory``/``container``/``memory`` storage backends,
  and the random-access sources behind
  :meth:`~repro.api.ArchiveReader.read_range`.
* :class:`repro.dbcoder.DBCoder` — database layout coder (LZSS + arithmetic
  coding, plus a columnar extension).
* :class:`repro.mocoder.MOCoder` — media layout coder (emblems, differential
  Manchester cells, nested Reed-Solomon codes).
* :mod:`repro.verisc`, :mod:`repro.dynarisc`, :mod:`repro.nested` — the
  universal emulation stack (4-instruction VeRisc, 23-instruction DynaRisc,
  and the DynaRisc emulator written in VeRisc).
* :mod:`repro.media` — simulated paper, microfilm, cinema film and DNA
  channels with archival-realistic distortions.
* :mod:`repro.dbms` — the miniature relational engine, TPC-H-like generator
  and ``db_dump`` / ``db_load``.

Attribute access is lazy (PEP 562): importing :mod:`repro` does **not** pull
in numpy/scipy — submodules load on first touch of a re-exported name.  This
keeps dependency-light tools (``python -m repro.devtools.lint``) runnable in
environments without the numeric stack installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

__version__ = "1.1.0"

#: Re-exported name -> the submodule that defines it.  ``__getattr__`` below
#: resolves each entry on first access so importing :mod:`repro` stays cheap.
_EXPORTS: dict[str, str] = {
    # repro.api — unified facade
    "ArchiveConfig": "repro.api",
    "ArchiveReader": "repro.api",
    "ArchiveWriter": "repro.api",
    "EndToEndResult": "repro.api",
    "RestorationResult": "repro.api",
    "SegmentCacheLike": "repro.api",
    "VerifyReport": "repro.api",
    "open_archive": "repro.api",
    "open_restore": "repro.api",
    "run_end_to_end": "repro.api",
    # whole submodules
    "store": "repro",
    "devtools": "repro",
    "server": "repro",
    # repro.core — manifests, archive artefacts, profiles
    "MicrOlonysArchive": "repro.core",
    "ArchiveManifest": "repro.core",
    "SegmentRecord": "repro.core",
    "MediaProfile": "repro.core",
    "PAPER_PROFILE": "repro.core",
    "MICROFILM_PROFILE": "repro.core",
    "MICROFILM_DENSE_PROFILE": "repro.core",
    "CINEMA_PROFILE": "repro.core",
    "TEST_PROFILE": "repro.core",
    "DNA_PROFILE": "repro.core",
    "PROFILES": "repro.core",
    "get_profile": "repro.core",
    # repro.pipeline
    "DEFAULT_SEGMENT_SIZE": "repro.pipeline",
    "get_executor": "repro.pipeline",
    # coders
    "DBCoder": "repro.dbcoder",
    "Profile": "repro.dbcoder",
    "MOCoder": "repro.mocoder",
    "EmblemSpec": "repro.mocoder",
    "EmblemKind": "repro.mocoder",
    # repro.dbms
    "Database": "repro.dbms",
    "Table": "repro.dbms",
    "Column": "repro.dbms",
    "ColumnType": "repro.dbms",
    "db_dump": "repro.dbms",
    "db_load": "repro.dbms",
    "generate_tpch": "repro.dbms",
    # repro.errors
    "ReproError": "repro.errors",
    "RegistryError": "repro.errors",
    "UnknownNameError": "repro.errors",
    "ConfigError": "repro.errors",
    "StoreError": "repro.errors",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    if target == "repro":  # the name *is* a submodule (repro.store, ...)
        return importlib.import_module(f"repro.{name}")
    module = importlib.import_module(target)
    value = getattr(module, name)
    globals()[name] = value  # cache so __getattr__ runs once per name
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


if TYPE_CHECKING:  # static importers see the eager imports
    from repro import server, store  # noqa: F401
    from repro.api import (  # noqa: F401
        ArchiveConfig,
        ArchiveReader,
        ArchiveWriter,
        EndToEndResult,
        RestorationResult,
        SegmentCacheLike,
        VerifyReport,
        open_archive,
        open_restore,
        run_end_to_end,
    )
    from repro.core import (  # noqa: F401
        CINEMA_PROFILE,
        DNA_PROFILE,
        MICROFILM_DENSE_PROFILE,
        MICROFILM_PROFILE,
        PAPER_PROFILE,
        PROFILES,
        TEST_PROFILE,
        ArchiveManifest,
        MediaProfile,
        MicrOlonysArchive,
        SegmentRecord,
        get_profile,
    )
    from repro.dbcoder import DBCoder, Profile  # noqa: F401
    from repro.dbms import (  # noqa: F401
        Column,
        ColumnType,
        Database,
        Table,
        db_dump,
        db_load,
        generate_tpch,
    )
    from repro.errors import (  # noqa: F401
        ConfigError,
        RegistryError,
        ReproError,
        StoreError,
        UnknownNameError,
    )
    from repro.mocoder import EmblemKind, EmblemSpec, MOCoder  # noqa: F401
    from repro.pipeline import DEFAULT_SEGMENT_SIZE, get_executor  # noqa: F401
