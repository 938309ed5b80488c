"""A lost frame record is an erasure.

A frame record the target cannot serve — deleted, truncated, its PGM header
overwritten, or a volume-set stripe damaged past its ``m`` budget — reaches
the decoder as an absent frame.  The outer code rebuilds it exactly as it
rebuilds a blank frame, the decode report lists it with the store's reason,
and it costs no other frame of its run.  ``verify`` still reports each such
record as an error naming its kind and index, deep or shallow, and a group
that loses more frames than its parity still fails, naming the group.

The archive under test: 5,120 random bytes, ``store`` codec, test media,
2,048-byte segments — segment 0 is frames 0-13 (11 data + 3 parity), and
the system stream is 1 data + 3 parity frames.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import open_restore
from repro.errors import MissingEmblemError
from repro.mocoder.emblem import AbsentFrame
from repro.store import frame_record_name, scan_container

REPO_ROOT = Path(__file__).resolve().parents[1]

PAYLOAD_SEED = 2105


@pytest.fixture
def payload(make_payload):
    return make_payload(5_120, seed=PAYLOAD_SEED)


@pytest.fixture
def directory(tmp_path, payload, write_archive):
    target = tmp_path / "arch"
    write_archive(f"dir:{target}", payload, codec="store")
    return target


def _restore_and_verify(target: str):
    with open_restore(target) as reader:
        result = reader.read()
        deep = reader.verify(deep=True)
        shallow = reader.verify(deep=False)
    return result, deep, shallow


def _assert_reported(report, kind: str, index: int) -> None:
    """``report`` fails with one error naming the record, and no warning."""
    name = frame_record_name(kind, index)
    assert not report.ok
    named = [error for error in report.errors if error.startswith(f"{kind} frame {index}: ")]
    assert len(named) == 1 and name in named[0], report.errors
    assert not any(f"{kind} frame {index} " in warning for warning in report.warnings)


class TestDirectoryTarget:
    def test_deleted_data_record(self, directory, payload):
        (directory / "data_emblem_0003.pgm").unlink()
        result, deep, shallow = _restore_and_verify(f"dir:{directory}")
        assert result.payload == payload
        [(index, reason)] = result.data_report.failed_frames
        assert index == 3 and "data_emblem_0003.pgm" in reason
        assert result.data_report.groups_reconstructed == 1
        _assert_reported(deep, "data", 3)
        _assert_reported(shallow, "data", 3)

    def test_truncated_data_record(self, directory, payload):
        path = directory / "data_emblem_0016.pgm"
        path.write_bytes(path.read_bytes()[:10])
        result, deep, shallow = _restore_and_verify(f"dir:{directory}")
        assert result.payload == payload
        [(index, reason)] = result.data_report.failed_frames
        assert index == 16 and "data_emblem_0016.pgm" in reason
        _assert_reported(deep, "data", 16)
        _assert_reported(shallow, "data", 16)

    def test_deleted_parity_record(self, directory, payload):
        """A clean restore never reads parity; with a data frame of the same
        group lost too, the lost parity is one more erasure."""
        (directory / "data_emblem_0012.pgm").unlink()
        result, deep, shallow = _restore_and_verify(f"dir:{directory}")
        assert result.payload == payload
        assert result.data_report.failed_frames == []
        _assert_reported(deep, "data", 12)
        _assert_reported(shallow, "data", 12)

        (directory / "data_emblem_0000.pgm").unlink()
        with open_restore(f"dir:{directory}") as reader:
            result = reader.read()
        assert result.payload == payload
        assert [index for index, _ in result.data_report.failed_frames] == [0, 12]
        assert result.data_report.groups_reconstructed == 1

    def test_a_bad_record_costs_no_other_frame_of_its_run(self, directory, payload):
        (directory / "data_emblem_0005.pgm").unlink()
        with open_restore(f"dir:{directory}") as reader:
            result = reader.read()
        assert result.payload == payload
        assert result.data_report.emblems_failed == 1
        # The other 27 of the 28 data frames decode, and the 3 parity frames
        # of segment 0 that rebuild the lost one.
        assert result.data_report.emblems_decoded == 27 + 3

    def test_four_lost_frames_of_a_group_fail_naming_the_group(self, directory):
        for index in range(4):
            (directory / frame_record_name("data", index)).unlink()
        with open_restore(f"dir:{directory}") as reader:
            with pytest.raises(MissingEmblemError, match="group 0"):
                reader.read()

    def test_lost_system_record(self, tmp_path, payload, write_archive):
        target = tmp_path / "portable"
        write_archive(f"dir:{target}", payload)
        (target / "system_emblem_0000.pgm").unlink()
        result, deep, shallow = _restore_and_verify(f"dir:{target}")
        assert result.payload == payload
        [(index, reason)] = result.system_report.failed_frames
        assert index == 0 and "system_emblem_0000.pgm" in reason
        _assert_reported(deep, "system", 0)
        _assert_reported(shallow, "system", 0)
        with open_restore(f"dir:{target}", decode_mode="dynarisc") as reader:
            assert reader.read().payload == payload

    def test_archive_artefact_holds_a_lost_record_as_absent(
        self, tmp_path, payload, write_archive
    ):
        """``reader.archive`` fetches through the same erasure path as every
        read, and its frame lists restore through the outer code."""
        target = tmp_path / "portable"
        write_archive(f"dir:{target}", payload)
        (target / "data_emblem_0003.pgm").unlink()
        with open_restore(f"dir:{target}") as reader:
            archive = reader.archive
            frames = archive.data_emblem_images
            assert len(frames) == archive.manifest.data_emblem_count
            assert isinstance(frames[3], AbsentFrame)
            assert "data_emblem_0003.pgm" in frames[3].reason
            assert sum(isinstance(frame, AbsentFrame) for frame in frames) == 1
            result = reader.read_from_scans(
                frames, archive.system_emblem_images, archive.bootstrap_text
            )
        assert result.payload == payload
        [(index, reason)] = result.data_report.failed_frames
        assert index == 3 and "data_emblem_0003.pgm" in reason
        assert result.data_report.groups_reconstructed == 1

    def test_lost_record_through_the_channel(self, directory, payload):
        (directory / "data_emblem_0003.pgm").unlink()
        with open_restore(f"dir:{directory}") as reader:
            result = reader.read_via_channel(seed=5)
        assert result.payload == payload
        assert 3 in [index for index, _ in result.data_report.failed_frames]


class TestOtherTargets:
    def test_container_record_with_its_header_overwritten(
        self, tmp_path, payload, write_archive
    ):
        path = tmp_path / "arch.ule"
        write_archive(f"file:{path}", payload, codec="store")
        name = frame_record_name("data", 5)
        [offset] = [start for record, start, _ in scan_container(path).records if record == name]
        with open(path, "r+b") as stream:
            stream.seek(offset)
            stream.write(b"XX")
        result, deep, shallow = _restore_and_verify(f"file:{path}")
        assert result.payload == payload
        [(index, reason)] = result.data_report.failed_frames
        assert index == 5 and name in reason and "PGM" in reason
        _assert_reported(deep, "data", 5)
        _assert_reported(shallow, "data", 5)

    def test_volume_stripe_damaged_past_its_parity(self, tmp_path, payload, write_archive):
        members = [tmp_path / f"vol{index}" for index in range(3)]
        uri = f"vol:k=2,m=1:{','.join(map(str, members))}"
        write_archive(uri, payload, codec="store")
        # Stripe 1 holds frame 2 on volume 0 and frame 3 on volume 1.
        (members[0] / "data_emblem_0002.pgm").unlink()
        (members[1] / "data_emblem_0003.pgm").unlink()
        result, deep, shallow = _restore_and_verify(uri)
        assert result.payload == payload
        failed = result.data_report.failed_frames
        assert [index for index, _ in failed] == [2, 3]
        assert all("cannot be reconstructed" in reason for _, reason in failed)
        for report in (deep, shallow):
            assert not report.ok
            assert any(error.startswith("data frame 2: ") for error in report.errors)
            assert any(error.startswith("data frame 3: ") for error in report.errors)


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def _lose_records_3_and_16(directory: Path) -> None:
    """Delete data record 3 and cut data record 16 to 10 bytes."""
    (directory / "data_emblem_0003.pgm").unlink()
    truncated = directory / "data_emblem_0016.pgm"
    truncated.write_bytes(truncated.read_bytes()[:10])


def test_cli_restores_bit_exact_and_verify_names_both_records(directory, payload, tmp_path):
    _lose_records_3_and_16(directory)
    restored = tmp_path / "restored.bin"
    proc = _run_cli("restore", "-i", f"dir:{directory}", "-o", str(restored))
    assert proc.returncode == 0, proc.stderr
    assert restored.read_bytes() == payload
    proc = _run_cli("verify", f"dir:{directory}", "--json")
    assert proc.returncode != 0
    errors = json.loads(proc.stdout)["errors"]
    assert any("data_emblem_0003.pgm" in error for error in errors)
    assert any("data_emblem_0016.pgm" in error for error in errors)


def test_cli_restore_reports_the_frames_it_could_not_read(directory, payload, tmp_path):
    restored = tmp_path / "restored.bin"
    clean = _run_cli("restore", "-i", f"dir:{directory}", "-o", str(restored))
    assert clean.returncode == 0, clean.stderr
    assert "not read" not in clean.stdout

    _lose_records_3_and_16(directory)
    proc = _run_cli("restore", "-i", f"dir:{directory}", "-o", str(restored))
    assert proc.returncode == 0, proc.stderr
    assert restored.read_bytes() == payload
    lines = [line for line in proc.stdout.splitlines() if "not read" in line]
    assert len(lines) == 2, proc.stdout
    assert "data frame 3 not read: " in lines[0] and "data_emblem_0003.pgm" in lines[0]
    assert "data frame 16 not read: " in lines[1] and "data_emblem_0016.pgm" in lines[1]

    proc = _run_cli("restore", "-i", f"dir:{directory}", "-o", str(restored), "--json")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["emblems_failed"] == 2
    assert summary["failed_frames"]["system"] == []
    [(lost, lost_reason), (cut, cut_reason)] = summary["failed_frames"]["data"]
    assert (lost, cut) == (3, 16)
    assert "data_emblem_0003.pgm" in lost_reason and "data_emblem_0016.pgm" in cut_reason
    assert summary["groups_reconstructed"] == 2  # frames 3 and 16 sit in two groups


def test_cli_partial_restore_reports_the_frames_it_could_not_read(directory, payload, tmp_path):
    """``--offset``/``--length`` reports the frames of the segments it decoded."""
    (directory / "data_emblem_0003.pgm").unlink()
    restored = tmp_path / "slice.bin"
    partial = ("restore", "-i", f"dir:{directory}", "-o", str(restored))
    proc = _run_cli(*partial, "--offset", "0", "--length", "1000")
    assert proc.returncode == 0, proc.stderr
    assert restored.read_bytes() == payload[:1000]
    lines = [line for line in proc.stdout.splitlines() if "not read" in line]
    assert len(lines) == 1, proc.stdout
    assert "data frame 3 not read: " in lines[0] and "data_emblem_0003.pgm" in lines[0]

    proc = _run_cli(*partial, "--offset", "0", "--length", "1000", "--json")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["emblems_failed"] == 1 and summary["segments_decoded"] == 1
    [(index, reason)] = summary["failed_frames"]["data"]
    assert index == 3 and "data_emblem_0003.pgm" in reason
    assert summary["failed_frames"]["system"] == []

    # A slice of segment 2 decodes none of segment 0's frames.
    proc = _run_cli(*partial, "--offset", "4500", "--length", "500", "--json")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["emblems_failed"] == 0
    assert summary["failed_frames"] == {"data": [], "system": []}


def test_cli_emulated_partial_restore_reports_a_lost_system_record(
    tmp_path, payload, write_archive
):
    """The emulated modes decode the system stream once for partial reads."""
    target = tmp_path / "portable"
    write_archive(f"dir:{target}", payload)
    (target / "system_emblem_0000.pgm").unlink()
    restored = tmp_path / "slice.bin"
    proc = _run_cli("restore", "-i", f"dir:{target}", "-o", str(restored),
                    "--offset", "100", "--length", "2000", "--decode-mode", "dynarisc",
                    "--json")
    assert proc.returncode == 0, proc.stderr
    assert restored.read_bytes() == payload[100:2100]
    summary = json.loads(proc.stdout)
    assert summary["emblems_failed"] == 1 and summary["failed_frames"]["data"] == []
    [(index, reason)] = summary["failed_frames"]["system"]
    assert index == 0 and "system_emblem_0000.pgm" in reason
