"""Frame records are 1-bit PBM (P4); archives of the PGM era stay readable.

An archive written before the store switched to P4 holds 8-bit PGM (P5)
frame records under the same ``.pgm`` names.  Such an archive is made here
by rewriting every frame record of a fresh archive as P5 through
``put_bytes``.  It must restore bit-exact from every backend, take an append
whose new frames are P4 beside its P5 ones, pass deep ``verify`` with no
orphan, and read degraded with a member volume deleted.  A P4 copy and a P5
copy of one archive decode to the same bytes and the same reports.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import open_restore
from repro.errors import ReproError
from repro.media.distortions import add_dust
from repro.media.image import netpbm_from_bytes, pbm_bytes, pgm_bytes
from repro.store import MemoryBackend, frame_record_name, open_sink, open_source
from repro.store.backends import _frame_record_of
from repro.store.manifest import manifest_generation_of


def _copy_archive(source_uri: str, target_uri: str, encode=pgm_bytes, damage=None) -> None:
    """Copy every record of the archive at ``source_uri`` to a fresh
    ``target_uri`` through ``put_bytes``, each frame re-encoded by
    ``encode`` after ``damage`` (a ``name -> raster`` edit) where given."""
    with open_source(source_uri) as source:
        names = source.names()
        manifest = source.manifest()
        with open_sink(target_uri) as sink:
            for name in names:
                if _frame_record_of(name) is not None:
                    frame = netpbm_from_bytes(source.get_bytes(name))
                    if damage is not None:
                        frame = damage(name, frame)
                    sink.put_bytes(name, encode(frame))
                elif manifest_generation_of(name) is None:
                    sink.put_bytes(name, source.get_bytes(name))
            sink.put_manifest(manifest)  # last: a volume set maps the frames then


def _formats(uri: str) -> dict[str, bytes]:
    """The magic numbers of the data frame records, by record name."""
    with open_source(uri) as source:
        count = source.manifest().data_emblem_count
        return {
            frame_record_name("data", index): source.get_bytes(
                frame_record_name("data", index)
            )[:2]
            for index in range(count)
        }


@pytest.fixture
def original(tmp_path, make_payload, write_archive):
    """A P4 archive of 5,120 random bytes in memory: ``(uri, payload)``."""
    uri = f"mem:netpbm-{tmp_path.name}"
    payload = make_payload(5_120, seed=723)
    write_archive(uri, payload)
    yield uri, payload
    MemoryBackend.discard(uri)


@pytest.fixture(params=["dir", "file", "vol"])
def pgm_era(request, tmp_path, original):
    """The original archive rewritten with P5 frame records on a backend."""
    uri, payload = original
    if request.param == "dir":
        target = f"dir:{tmp_path / 'arch'}"
    elif request.param == "file":
        target = f"file:{tmp_path / 'arch.ule'}"
    else:
        members = ",".join(str(tmp_path / f"vol{index}") for index in range(3))
        target = f"vol:k=2,m=1:{members}"
    _copy_archive(uri, target)
    return target, payload


class TestPgmEraArchives:
    def test_restores_bit_exact_with_the_same_report(self, pgm_era, original):
        target, payload = pgm_era
        assert set(_formats(target).values()) == {b"P5"}
        with open_restore(original[0]) as reader:
            want = reader.read()
        with open_restore(target) as reader:
            got = reader.read()
            archive = reader.archive
        assert got.payload == payload
        assert got.data_report == want.data_report
        assert got.system_report == want.system_report
        assert all(frame.flags.writeable for frame in archive.data_emblem_images)

    def test_an_append_writes_p4_beside_p5_and_verifies(
        self, pgm_era, make_payload, write_archive, tmp_path
    ):
        target, payload = pgm_era
        more = make_payload(3_000, seed=724)
        write_archive(target, more, append=True)
        formats = _formats(target)
        assert set(formats.values()) == {b"P4", b"P5"}
        first_new = min(name for name, magic in formats.items() if magic == b"P4")
        assert all(
            magic == (b"P4" if name >= first_new else b"P5")
            for name, magic in formats.items()
        )
        with open_restore(target) as reader:
            assert reader.read().payload == payload + more
            report = reader.verify(deep=True)
        assert report.ok, report.errors
        assert report.orphaned == []
        if target.startswith("vol:"):
            shutil.rmtree(tmp_path / "vol1")
            with open_restore(target) as reader:
                assert reader.read().payload == payload + more
                assert reader.read_range(4_000, 2_000) == (payload + more)[4_000:6_000]


class TestP4AndP5CopiesDecodeAlike:
    @settings(max_examples=8, deadline=None)
    @given(
        size=st.integers(1, 6_000),
        seed=st.integers(0, 2**32 - 1),
        dusty=st.sets(st.integers(0, 40), max_size=6),
        blank=st.sets(st.integers(0, 40), max_size=3),
    )
    def test_same_bytes_and_reports(self, write_archive, size, seed, dusty, blank):
        """Dust (0/255 specks) and blanks applied to both copies alike; the
        outcome — payload or error — and both decode reports match."""
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        uri = f"mem:netpbm-prop-{seed}-{size}"
        copies = {"P4": f"{uri}-p4", "P5": f"{uri}-p5"}

        def damage(name: str, frame: np.ndarray) -> np.ndarray:
            kind, index = _frame_record_of(name)
            if kind == "data" and index in blank:
                return np.full_like(frame, 255)
            if kind == "data" and index in dusty:
                return add_dust(frame, 60, 5, np.random.default_rng((seed, index)))
            return frame

        try:
            write_archive(uri, payload)
            _copy_archive(uri, copies["P4"], encode=pbm_bytes, damage=damage)
            _copy_archive(uri, copies["P5"], encode=pgm_bytes, damage=damage)
            outcomes = {}
            for magic, copy in copies.items():
                assert set(_formats(copy).values()) == {magic.encode()}
                with open_restore(copy) as reader:
                    try:
                        result = reader.read()
                        outcomes[magic] = (result.payload, result.data_report,
                                           result.system_report)
                    except ReproError as exc:
                        outcomes[magic] = (type(exc), str(exc))
            assert outcomes["P4"] == outcomes["P5"]
        finally:
            for target in (uri, *copies.values()):
                MemoryBackend.discard(target)
