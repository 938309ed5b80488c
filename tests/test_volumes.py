"""Sharded volume sets: striping, cross-shard parity, and degraded reads.

The ``volumes`` backend stripes segment frames across K data volumes and
writes M Reed–Solomon parity volumes; these tests pin the recovery
contract from the outside, through ``open_archive`` / ``open_restore``:

* healthy reads are byte-identical to a single-volume archive;
* any ≤ M whole-volume losses — and silent on-media corruption, which is
  treated as an erasure — restore byte-identically, for the full payload
  AND for boundary-spanning ``read_range`` windows;
* ``verify`` reports the damage even while reads still succeed;
* more than M losses fail with a clean :class:`StoreError` naming the
  missing members;
* append sessions stripe new generations consistently, and degraded
  reads span generations.

A hypothesis fault matrix drives random payloads through random (K, M)
geometries and random loss subsets; a deterministic K=4, M=2 suite pins
the acceptance scenario exactly.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ArchiveConfig, open_archive, open_restore
from repro.errors import StoreError
from repro.store import open_source


def vol_uri(root: Path, total: int, *, k: int, m: int, stripe: int = 1) -> str:
    """A ``vol:`` target URI over ``total`` directory members under ``root``."""
    members = ",".join(str(root / f"vol{index}") for index in range(total))
    return f"vol:k={k},m={m},stripe={stripe}:{members}"


def kill_volumes(root: Path, indices) -> list[str]:
    """Delete whole member volumes, returning the paths removed."""
    removed = []
    for index in indices:
        member = root / f"vol{index}"
        shutil.rmtree(member)
        removed.append(str(member))
    return removed


def write_volume_archive(uri: str, payload: bytes, *, segment_size=1024, **overrides):
    config = ArchiveConfig(media="test", codec="portable",
                           segment_size=segment_size, **overrides)
    with open_archive(config, target=uri) as writer:
        writer.write(payload)
    return writer.config


# --------------------------------------------------------------------------- #
# The acceptance scenario: K=4, M=2, any two volumes lost
# --------------------------------------------------------------------------- #
class TestAcceptanceK4M2:
    K, M = 4, 2

    @pytest.fixture()
    def archived(self, tmp_path, make_payload):
        payload = make_payload(6_000, seed=91)
        uri = vol_uri(tmp_path, self.K + self.M, k=self.K, m=self.M)
        write_volume_archive(uri, payload)
        return uri, payload

    def test_healthy_roundtrip_and_clean_verify(self, archived):
        uri, payload = archived
        with open_restore(uri) as reader:
            assert reader.read().payload == payload
            assert reader.read_range(1_500, 1_000) == payload[1_500:2_500]
            report = reader.verify(deep=True)
        assert report.ok, report.errors

    @pytest.mark.parametrize("lost", [(0, 1), (0, 5), (3, 4), (4, 5)])
    def test_any_two_losses_read_byte_identical(self, archived, tmp_path, lost):
        uri, payload = archived
        removed = kill_volumes(tmp_path, lost)
        with open_restore(uri) as reader:
            report = reader.verify(deep=True)
            assert not report.ok  # the damage is reported...
            joined = "\n".join(report.errors)
            for member in removed:
                assert member in joined  # ...naming each lost member
            # ...while reads stay byte-identical, full and partial alike.
            assert reader.read().payload == payload
            # A window spanning a segment boundary exercises multi-stripe
            # reconstruction on the partial-restore path.
            assert reader.read_range(900, 300) == payload[900:1_200]
            assert reader.read_range(0, len(payload)) == payload

    def test_more_than_m_losses_fail_cleanly(self, archived, tmp_path):
        uri, _ = archived
        removed = kill_volumes(tmp_path, (1, 2, 4))
        with pytest.raises(StoreError) as excinfo:
            open_restore(uri)
        message = str(excinfo.value)
        assert "3 of 6 volumes are unavailable" in message
        for member in removed:
            assert member in message
        assert "at most 2 losses are recoverable" in message

    def test_degraded_append_is_refused(self, archived, tmp_path, make_payload):
        uri, _ = archived
        kill_volumes(tmp_path, (0,))
        with pytest.raises(StoreError, match="append needs every member volume"):
            with open_archive(target=uri, append=True) as writer:
                writer.write(make_payload(500, seed=92))


# --------------------------------------------------------------------------- #
# Corruption is an erasure: SHA-256 mismatches trigger reconstruction
# --------------------------------------------------------------------------- #
class TestCorruption:
    def test_corrupt_frames_reconstruct_and_deep_verify_reports(
        self, tmp_path, make_payload
    ):
        payload = make_payload(5_000, seed=93)
        uri = vol_uri(tmp_path, 4, k=3, m=1, stripe=2)
        write_volume_archive(uri, payload)
        # Flip bytes in every frame stored on one data volume.
        frames = sorted((tmp_path / "vol1").glob("*_emblem_*.pgm"))
        assert frames
        for frame in frames:
            blob = bytearray(frame.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            frame.write_bytes(bytes(blob))
        with open_restore(uri) as reader:
            assert reader.read().payload == payload
            assert reader.read_range(2_000, 1_500) == payload[2_000:3_500]
            report = reader.verify(deep=True)
        assert not report.ok
        assert any("corrupt" in error for error in report.errors)

    def test_corruption_beyond_parity_budget_fails_loudly(
        self, tmp_path, make_payload
    ):
        payload = make_payload(4_000, seed=94)
        uri = vol_uri(tmp_path, 3, k=2, m=1)
        write_volume_archive(uri, payload)
        # Corrupt the same stripe on two volumes: one loss over budget.
        for member in ("vol0", "vol1"):
            for frame in sorted((tmp_path / member).glob("data_emblem_*.pgm"))[:1]:
                blob = bytearray(frame.read_bytes())
                blob[-40] ^= 0xFF
                frame.write_bytes(bytes(blob))
        # The set cannot rebuild the stripe and says so ...
        with open_source(uri) as source:
            with pytest.raises(StoreError, match="cannot be reconstructed"):
                source.get_frames("data", 0, 2)
        # ... so the reader takes its two frames as erasures: the outer code
        # rebuilds them, the report names each with the set's reason, and
        # verify fails.
        with open_restore(uri) as reader:
            result = reader.read()
            report = reader.verify(deep=True)
        assert result.payload == payload
        failed = result.data_report.failed_frames
        assert [index for index, _ in failed] == [0, 1]
        assert all("cannot be reconstructed" in reason for _, reason in failed)
        assert not report.ok
        assert any(error.startswith("data frame 0: ") for error in report.errors)


# --------------------------------------------------------------------------- #
# Degraded reads repair each stripe once, however many frames need it
# --------------------------------------------------------------------------- #
class TestSingleFlightRepair:
    def test_degraded_read_repairs_each_stripe_exactly_once(
        self, tmp_path, make_payload, monkeypatch
    ):
        """A degraded ``get_frames`` fans frames of the same stripe across the
        fetch pool concurrently; without the single-flight guard each of them
        would redo the whole reconstruction (the measured ~2x redundant work
        behind the degraded-read penalty)."""
        from repro.store import volumes as volumes_mod

        payload = make_payload(12_000, seed=95)
        uri = vol_uri(tmp_path, 6, k=4, m=2, stripe=2)
        write_volume_archive(uri, payload)
        kill_volumes(tmp_path, [0, 1])

        repairs: list[int] = []
        original = volumes_mod._VolumeSetSource._repair_stripe

        def counting(self, stripe_at):
            repairs.append(stripe_at)
            return original(self, stripe_at)

        monkeypatch.setattr(volumes_mod._VolumeSetSource, "_repair_stripe", counting)
        with open_restore(uri) as reader:
            assert reader.read().payload == payload
        assert repairs, "a 2-of-6 loss must force stripe repairs"
        assert len(repairs) == len(set(repairs)), (
            f"stripes repaired more than once: {sorted(repairs)}"
        )

    def test_a_stripe_that_cannot_be_rebuilt_fails_once_per_source(
        self, tmp_path, make_payload, monkeypatch
    ):
        """A failed repair is remembered: the reader's frame-by-frame refetch
        of the stripe's lost frames raises the same error without reading
        and hashing the stripe again, and the outer code still rebuilds the
        two lost frames of segment 0."""
        from repro.store import volumes as volumes_mod

        payload = make_payload(5_120, seed=96)
        uri = vol_uri(tmp_path, 3, k=2, m=1, stripe=4)
        write_volume_archive(uri, payload, segment_size=2048)
        # Stripe 0: frames 0-3 on volume 0, frames 4-7 on volume 1.
        (tmp_path / "vol0" / "data_emblem_0001.pgm").unlink()
        (tmp_path / "vol1" / "data_emblem_0006.pgm").unlink()

        repairs: list[int] = []
        original = volumes_mod._VolumeSetSource._repair_stripe

        def counting(self, stripe_at):
            repairs.append(stripe_at)
            return original(self, stripe_at)

        monkeypatch.setattr(volumes_mod._VolumeSetSource, "_repair_stripe", counting)
        with open_restore(uri) as reader:
            result = reader.read()
        assert result.payload == payload
        assert repairs == [0]
        failed = result.data_report.failed_frames
        assert [index for index, _ in failed] == [1, 6]
        assert all("cannot be reconstructed" in reason for _, reason in failed)
        assert result.data_report.groups_reconstructed == 1

    def test_a_failed_repair_is_retried_by_the_next_read(self, tmp_path, make_payload):
        """The failure is remembered for one run fetch only: once a lost
        record is put back, the next read() on the same source rebuilds the
        stripe and restores with no failed frame."""
        payload = make_payload(5_120, seed=96)
        uri = vol_uri(tmp_path, 3, k=2, m=1, stripe=4)
        write_volume_archive(uri, payload, segment_size=2048)
        record = tmp_path / "vol0" / "data_emblem_0001.pgm"
        kept = record.read_bytes()
        record.unlink()
        (tmp_path / "vol1" / "data_emblem_0006.pgm").unlink()

        with open_restore(uri) as reader:
            first = reader.read()
            record.write_bytes(kept)
            second = reader.read()
        assert first.payload == payload
        assert [index for index, _ in first.data_report.failed_frames] == [1, 6]
        assert second.payload == payload
        assert second.data_report.failed_frames == []
        assert second.data_report.emblems_failed == 0


# --------------------------------------------------------------------------- #
# Append sessions stripe new generations consistently
# --------------------------------------------------------------------------- #
class TestAppend:
    def test_append_then_degraded_restore_spans_generations(
        self, tmp_path, make_payload
    ):
        first = make_payload(3_000, seed=95)
        tail = make_payload(2_500, seed=96)
        uri = vol_uri(tmp_path, 5, k=3, m=2, stripe=2)
        write_volume_archive(uri, first)
        with open_archive(target=uri, append=True) as writer:
            writer.write(tail)
        combined = first + tail
        with open_restore(uri) as reader:
            assert reader.read().payload == combined
        # Lose two volumes: both generations must reconstruct.
        kill_volumes(tmp_path, (1, 3))
        with open_restore(uri) as reader:
            assert reader.read().payload == combined
            boundary = len(first)
            assert (
                reader.read_range(boundary - 400, 800)
                == combined[boundary - 400:boundary + 400]
            )
            assert not reader.verify(deep=True).ok


# --------------------------------------------------------------------------- #
# The hypothesis fault matrix
# --------------------------------------------------------------------------- #
GEOMETRIES = [(2, 1), (3, 2), (4, 2)]


@st.composite
def fault_cases(draw):
    """(payload, K, M, loss subset, corrupt?) — damage never exceeds M."""
    k, m = draw(st.sampled_from(GEOMETRIES))
    payload = draw(st.binary(min_size=64, max_size=2_000))
    budget = draw(st.integers(min_value=0, max_value=m))
    losses = draw(
        st.lists(
            st.integers(min_value=0, max_value=k + m - 1),
            min_size=budget, max_size=budget, unique=True,
        )
    )
    corrupt_instead = draw(st.booleans())
    return payload, k, m, tuple(losses), corrupt_instead


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=fault_cases())
def test_fault_matrix_restores_byte_identical(case):
    payload, k, m, losses, corrupt_instead = case
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        uri = vol_uri(root, k + m, k=k, m=m)
        write_volume_archive(uri, payload, segment_size=512)
        if corrupt_instead:
            # Damage the members in place instead of deleting them whole.
            for index in losses:
                for record in sorted((root / f"vol{index}").glob("*emblem*")):
                    blob = bytearray(record.read_bytes())
                    blob[len(blob) // 3] ^= 0x55
                    record.write_bytes(bytes(blob))
        else:
            kill_volumes(root, losses)
        with open_restore(uri) as reader:
            assert reader.read().payload == payload
            if len(payload) >= 4:
                quarter = len(payload) // 4
                assert (
                    reader.read_range(quarter, 2 * quarter)
                    == payload[quarter:3 * quarter]
                )
            report = reader.verify(deep=True)
            if losses and not corrupt_instead:
                assert not report.ok


@settings(max_examples=4, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_losses_beyond_parity_fail_with_named_members(geometry, seed):
    k, m = geometry
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        uri = vol_uri(root, k + m, k=k, m=m)
        write_volume_archive(uri, bytes([seed % 256]) * 256, segment_size=512)
        lost = kill_volumes(root, range(m + 1))
        with pytest.raises(StoreError) as excinfo:
            open_restore(uri)
        message = str(excinfo.value)
        for member in lost:
            assert member in message
        assert f"at most {m} losses are recoverable" in message


# --------------------------------------------------------------------------- #
# Mixed member backends and the public surface
# --------------------------------------------------------------------------- #
class TestSurface:
    def test_mixed_member_backends_roundtrip(self, tmp_path, make_payload):
        payload = make_payload(3_000, seed=97)
        members = ",".join([
            f"dir:{tmp_path / 'a'}",
            f"file:{tmp_path / 'b.ule'}",
            f"mem:volset-{tmp_path.name}",
            f"dir:{tmp_path / 'd'}",
        ])
        uri = f"vol:k=3,m=1:{members}"
        write_volume_archive(uri, payload)
        with open_restore(uri) as reader:
            assert reader.read().payload == payload
            assert reader.verify(deep=True).ok

    def test_members_must_be_listed_in_original_order(self, tmp_path, make_payload):
        payload = make_payload(1_500, seed=98)
        uri = vol_uri(tmp_path, 3, k=2, m=1)
        write_volume_archive(uri, payload)
        shuffled = ",".join(
            str(tmp_path / f"vol{index}") for index in (1, 0, 2)
        )
        with pytest.raises(StoreError, match="original order"):
            open_restore(f"vol:k=2,m=1:{shuffled}")

    def test_omitted_geometry_creates_one_parity_volume(self, tmp_path, make_payload):
        """A vol: URI without m=/stripe= creates k=N-1, m=1, stripe=1; the
        set's geometry is then read back from its members, not the URI."""
        payload = make_payload(3_000, seed=99)
        uri = "vol:" + ",".join(str(tmp_path / f"vol{index}") for index in range(4))
        write_volume_archive(uri, payload[:2_000])
        with open_archive(target=uri, append=True) as writer:
            writer.write(payload[2_000:])
        kill_volumes(tmp_path, (1,))
        with open_restore(uri) as reader:
            shard_map = reader.manifest.volumes
            assert shard_map is not None
            assert (shard_map["data"], shard_map["parity"], shard_map["stripe"]) == (3, 1, 1)
            assert reader.read().payload == payload
