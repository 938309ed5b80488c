"""Shared fixtures for the test suite.

The archive-building helpers (``make_payload`` / ``write_archive`` /
``build_archive``) are session-scoped *factory* fixtures: they return plain
stateless callables, so hypothesis ``@given`` tests may use them without
tripping the function-scoped-fixture health check, and the store, channel
and append suites all build their archives the same way instead of each
re-declaring private module helpers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiles import TEST_PROFILE
from repro.mocoder.emblem import EmblemSpec


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for test data."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_spec() -> EmblemSpec:
    """The small emblem spec used throughout the fast tests."""
    return TEST_PROFILE.spec


@pytest.fixture
def sql_sample() -> bytes:
    """A small, realistic SQL-archive-like payload."""
    lines = [
        "CREATE TABLE lineitem (l_orderkey INTEGER, l_comment VARCHAR(255));",
    ]
    for key in range(120):
        lines.append(
            f"INSERT INTO lineitem VALUES ({key}, 'carefully final deposits {key % 7}');"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# --------------------------------------------------------------------------- #
# Archive-building factories (shared by the store / channel / append suites)
# --------------------------------------------------------------------------- #
def _make_payload(size: int, seed: int = 20210104) -> bytes:
    generator = np.random.default_rng(seed)
    return bytes(generator.integers(0, 256, size=size, dtype=np.uint8))


@pytest.fixture(scope="session")
def make_payload():
    """Factory: ``make_payload(size, seed=...)`` -> deterministic random bytes."""
    return _make_payload


@pytest.fixture(scope="session")
def write_archive():
    """Factory: archive ``payload`` onto a store target, returning the config.

    ``write_archive(target, payload, media=..., codec=..., segment_size=...)``
    creates a fresh archive at ``target`` (a target URI such as
    ``f"file:{path}"``, whose scheme picks the backend); ``append=True``
    instead extends the existing archive at ``target`` (the target describes
    itself, exactly like ``open_archive(append=True)``).
    """
    from repro.api import ArchiveConfig, open_archive

    def _write(target, payload: bytes, *, media="test", codec="portable",
               segment_size=2048, append=False, **overrides) -> ArchiveConfig:
        if append:
            with open_archive(target=target, append=True, **overrides) as writer:
                writer.write(payload)
        else:
            config = ArchiveConfig(media=media, codec=codec,
                                   segment_size=segment_size, **overrides)
            with open_archive(config, target=target) as writer:
                writer.write(payload)
        return writer.config

    return _write


@pytest.fixture(scope="session")
def build_archive():
    """Factory: ``build_archive(config, payload)`` -> in-memory archive artefact."""
    from repro.api import open_archive

    def _build(config, payload: bytes):
        with open_archive(config) as writer:
            writer.write(payload)
        return writer.archive

    return _build
