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


def test_cli_restores_bit_exact_and_verify_names_both_records(directory, payload, tmp_path):
    (directory / "data_emblem_0003.pgm").unlink()
    truncated = directory / "data_emblem_0016.pgm"
    truncated.write_bytes(truncated.read_bytes()[:10])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env, timeout=300,
        )

    restored = tmp_path / "restored.bin"
    proc = run("restore", "-i", f"dir:{directory}", "-o", str(restored))
    assert proc.returncode == 0, proc.stderr
    assert restored.read_bytes() == payload
    proc = run("verify", f"dir:{directory}", "--json")
    assert proc.returncode != 0
    errors = json.loads(proc.stdout)["errors"]
    assert any("data_emblem_0003.pgm" in error for error in errors)
    assert any("data_emblem_0016.pgm" in error for error in errors)
