"""The store's record contract and its one frame-record codec.

Every backend is a store of named byte records: a sink writes them
(``put_bytes``), a source lists and returns them (``names`` /
``get_bytes``).  A frame is a P5 PGM record: ``ArchiveSink.put_frame``
writes it and ``ArchiveSource.get_frame`` reads it, and no other code in
``repro.store`` serialises or parses one — an AST check below pins that.
The contract tests run the same script on every backend, the volume set
included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.store
from repro.core.archive import ArchiveManifest
from repro.errors import MediaError, StoreError
from repro.media.image import pgm_bytes
from repro.store import MemoryBackend, frame_record_name, open_sink, open_source

STORE_DIR = Path(repro.store.__file__).parent

FRAMES = 5


def _frames(count: int, seed: int = 21) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=(24, 32), dtype=np.uint8) for _ in range(count)]


@pytest.fixture(params=["dir", "file", "mem", "vol"])
def target(request, tmp_path):
    """``(target URI, a string every error about it contains)``."""
    kind = request.param
    if kind == "dir":
        yield f"dir:{tmp_path / 'arch'}", str(tmp_path / "arch")
    elif kind == "file":
        yield f"file:{tmp_path / 'arch.ule'}", str(tmp_path / "arch.ule")
    elif kind == "mem":
        key = f"test-records-{tmp_path.name}"
        try:
            yield f"mem:{key}", key
        finally:
            MemoryBackend.discard(f"mem:{key}")
    else:
        members = [str(tmp_path / f"vol{index}") for index in range(3)]
        yield f"vol:k=2,m=1:{','.join(members)}", members[0]


@pytest.fixture
def written(target):
    """A target holding ``FRAMES`` frames, an unparsable frame record after
    them, a text record, a record that is not UTF-8, and a manifest."""
    uri, label = target
    frames = _frames(FRAMES)
    manifest = ArchiveManifest(
        profile_name="test-small",
        dbcoder_profile="store",
        archive_bytes=1,
        archive_crc32=0,
        data_emblem_count=FRAMES + 1,
        system_emblem_count=0,
    )
    with open_sink(uri) as sink:
        sink.put_frames("data", 0, frames)
        sink.put_bytes(frame_record_name("data", FRAMES), b"P5\n32 24\n255\n", b"short")
        sink.put_text("note.txt", "plain text")
        sink.put_bytes("latin.txt", "café".encode("latin-1"))
        sink.put_manifest(manifest)
    return uri, label, frames


class TestRecordContract:
    def test_frames_come_back_pixel_identical(self, written):
        uri, _, frames = written
        with open_source(uri) as source:
            got = source.get_frames("data", 0, FRAMES)
            last = source.get_frame("data", FRAMES - 1)
        assert len(got) == FRAMES
        for want, have in zip(frames, got):
            assert have.dtype == np.uint8
            assert np.array_equal(want, have)
        assert np.array_equal(last, frames[-1])

    def test_a_frame_record_is_the_pgm_of_its_raster(self, written):
        uri, _, frames = written
        with open_source(uri) as source:
            for index, frame in enumerate(frames):
                assert source.get_bytes(frame_record_name("data", index)) == pgm_bytes(frame)
            assert source.get_text("note.txt") == "plain text"

    def test_a_missing_record_raises_store_error(self, written):
        uri, label, _ = written
        name = frame_record_name("data", FRAMES + 7)
        with open_source(uri) as source:
            with pytest.raises(StoreError) as excinfo:
                source.get_frame("data", FRAMES + 7)
            assert label in str(excinfo.value) and name in str(excinfo.value)
            with pytest.raises(StoreError) as excinfo:
                source.get_bytes("absent.txt")
            assert label in str(excinfo.value) and "absent.txt" in str(excinfo.value)

    def test_an_unparsable_frame_record_raises_media_error(self, written):
        uri, label, _ = written
        with open_source(uri) as source:
            with pytest.raises(MediaError) as excinfo:
                source.get_frame("data", FRAMES)
        message = str(excinfo.value)
        assert label in message and frame_record_name("data", FRAMES) in message

    def test_text_that_is_not_utf8_raises_store_error(self, written):
        uri, label, _ = written
        with open_source(uri) as source:
            with pytest.raises(StoreError) as excinfo:
                source.get_text("latin.txt")
        message = str(excinfo.value)
        assert label in message and "latin.txt" in message and "UTF-8" in message


# --------------------------------------------------------------------------- #
# One frame-record codec: the AST of repro.store
# --------------------------------------------------------------------------- #
#: Readers and writers only the two session base classes define.
SESSION_ONLY = {"get_text", "get_frame", "put_frame", "put_text", "frame_count"}


def _store_functions() -> "list[tuple[str, str | None, ast.FunctionDef]]":
    """``(module, enclosing class or None, function)`` for every function
    defined in ``repro.store``."""
    found = []
    for path in sorted(STORE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (path.name, node.name, item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
            elif isinstance(node, ast.FunctionDef):
                found.append((path.name, None, node))
    return found


def _callers(*names: str) -> set[tuple[str | None, str]]:
    """``(class, function)`` of every store function that calls one of ``names``."""
    callers = set()
    for _module, owner, function in _store_functions():
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            called = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if called in names:
                callers.add((owner, function.name))
    return callers


class TestOneFrameCodec:
    def test_only_put_frame_serialises_a_frame(self):
        assert _callers("pgm_parts", "pgm_bytes") == {("ArchiveSink", "put_frame")}

    def test_only_get_frame_parses_a_frame(self):
        assert _callers("pgm_from_bytes") == {("ArchiveSource", "get_frame")}

    def test_no_backend_redefines_the_record_readers_and_writers(self):
        redefined = [
            f"{module}: {owner}.{function.name}"
            for module, owner, function in _store_functions()
            if function.name in SESSION_ONLY
            and (owner not in ("ArchiveSink", "ArchiveSource") or function.name == "frame_count")
        ]
        assert redefined == []
