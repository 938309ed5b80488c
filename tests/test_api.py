"""Tests for the unified :mod:`repro.api` facade and :mod:`repro.registry`.

Covers the ArchiveConfig JSON contract (round-trip + rejection of unknown
names/keys), the registry register/duplicate/unregister/did-you-mean paths,
session-based streaming I/O, the one-call end-to-end flow across media
channels and codecs selected purely by name, that sessions join their
worker threads, and a ``python -m repro`` CLI smoke test via subprocess.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import (
    ArchiveConfig,
    open_archive,
    open_restore,
    registry,
    run_end_to_end,
)
from repro.errors import (
    ArchiveError,
    ConfigError,
    RegistryError,
    ReproError,
    RestorationError,
    UnknownNameError,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def random_payload(size: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return bytes(rng.integers(0, 256, size=size, dtype=np.uint8))


# --------------------------------------------------------------------------- #
# ArchiveConfig: the JSON contract
# --------------------------------------------------------------------------- #
class TestArchiveConfig:
    def test_defaults_validate(self):
        config = ArchiveConfig()
        assert config.media == "test-small"
        assert config.codec == "portable"

    def test_aliases_canonicalise(self):
        config = ArchiveConfig(media="paper", codec="DENSE")
        assert config.media == "paper-a4-600dpi"
        assert config.codec == "dense"

    def test_json_roundtrip(self):
        config = ArchiveConfig(
            media="microfilm",
            codec="store",
            executor="thread:2",
            segment_size=4096,
            distortion="pristine",
            scan_seed=42,
            payload_kind="sql",
            outer_code=False,
        )
        assert ArchiveConfig.from_json(config.to_json()) == config
        assert ArchiveConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("field,value", [
        ("media", "wax-cylinder"),
        ("codec", "lzma"),
        ("executor", "quantum"),
        ("distortion", "volcanic-ash"),
    ])
    def test_unknown_names_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ArchiveConfig(**{field: value})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ArchiveConfig.from_dict({"media": "test", "compression": "dense"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            ArchiveConfig(segment_size=0)
        with pytest.raises(ConfigError):
            ArchiveConfig(decode_mode="magic")
        with pytest.raises(ConfigError):
            ArchiveConfig(executor="thread:zero")
        with pytest.raises(ConfigError):
            ArchiveConfig.from_json("{not json")

    @pytest.mark.parametrize("fields", [
        {"outer_code": "no"},
        {"outer_code": 0},
        {"segment_size": "x"},
        {"segment_size": True},
        {"scan_seed": "abc"},
        {"payload_kind": 7},
    ], ids=lambda fields: "-".join(f"{k}={v!r}" for k, v in fields.items()))
    def test_values_of_the_wrong_type_rejected(self, fields):
        with pytest.raises(ConfigError, match=next(iter(fields))):
            ArchiveConfig.from_dict({"media": "test", **fields})

    def test_replace_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys: medai"):
            ArchiveConfig().replace(medai="paper")

    def test_retired_keys_name_the_target_uri(self):
        """Stored configs drop the keys the target URI took over; live calls
        are told where each one went."""
        old = {"media": "test", "store": "container", "volume_parity": 2,
               "volume_stripe": 3, "decode_parallelism": True, "readahead": 1.5}
        assert ArchiveConfig.from_dict(old) == ArchiveConfig(media="test")
        for key, spelling in (("store", "scheme"), ("volume_parity", "m="),
                              ("volume_stripe", "stripe=")):
            with pytest.raises(ConfigError, match=f"{key}.*{spelling}.*target URI"):
                ArchiveConfig().replace(**{key: old[key]})

    def test_distortion_override_reaches_the_channel(self):
        config = ArchiveConfig(media="test", distortion="pristine")
        assert config.channel().distortion.name == "pristine"
        # The base registry entry is untouched.
        assert registry.get_media("test").channel().distortion.name != "pristine"


# --------------------------------------------------------------------------- #
# Registries
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_register_get_unregister(self):
        reg = registry.Registry("widget")
        reg.register("alpha", 1)
        assert reg.get("ALPHA") == 1 and "alpha" in reg
        reg.alias("a", "alpha")
        assert reg.get("a") == 1
        reg.unregister("alpha")
        assert "alpha" not in reg and "a" not in reg

    def test_duplicate_registration_rejected(self):
        reg = registry.Registry("widget")
        reg.register("alpha", 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("alpha", 2)
        assert reg.register("alpha", 2, overwrite=True) == 2

    def test_unknown_name_error_carries_suggestion(self):
        with pytest.raises(UnknownNameError) as excinfo:
            registry.get_codec("portble")
        error = excinfo.value
        assert error.suggestion == "portable"
        assert "did you mean 'portable'?" in str(error)
        assert isinstance(error, ReproError) and isinstance(error, KeyError)

    def test_unregister_unknown_raises(self):
        reg = registry.Registry("widget")
        with pytest.raises(UnknownNameError):
            reg.unregister("ghost")

    def test_custom_codec_roundtrips_through_the_facade(self):
        name = "xor-55-test"
        if name in registry.codecs:
            registry.codecs.unregister(name)
        registry.register_codec(name, _xor55, _xor55, "XOR with 0x55 (test codec)")
        try:
            payload = b"custom codec payload " * 64
            result = run_end_to_end(
                ArchiveConfig(media="test", codec=name, scan_seed=5), payload
            )
            assert result.payload == payload
            assert result.archive.manifest.dbcoder_profile == name
            # The archived DynaRisc decoder only knows the built-in profiles,
            # for full and partial reads alike.
            with open_restore(result.archive, decode_mode="dynarisc") as reader:
                for read in (reader.read, lambda: reader.read_range(0, 10)):
                    with pytest.raises(RestorationError, match="user-registered"):
                        read()
        finally:
            registry.codecs.unregister(name)


def _xor55(data: bytes) -> bytes:
    return bytes(byte ^ 0x55 for byte in data)


# --------------------------------------------------------------------------- #
# Sessions
# --------------------------------------------------------------------------- #
class TestSessions:
    def test_chunked_writes_match_one_shot(self):
        payload = random_payload(9_000, seed=3)
        config = ArchiveConfig(media="test", segment_size=2048)
        with open_archive(config) as writer:
            for start in range(0, len(payload), 700):
                writer.write(payload[start:start + 700])
        chunked = writer.archive
        with open_archive(config) as writer:
            writer.write(payload)
        oneshot = writer.archive
        assert chunked.manifest == oneshot.manifest
        assert all(
            np.array_equal(a, b)
            for a, b in zip(chunked.data_emblem_images, oneshot.data_emblem_images)
        )
        assert open_restore(chunked).read().payload == payload

    def test_progress_callback_sees_every_segment(self):
        payload = random_payload(8_192, seed=8)
        records = []
        with open_archive(
            ArchiveConfig(media="test", segment_size=2048), progress=records.append
        ) as writer:
            writer.write(payload)
        assert [record.index for record in records] == [0, 1, 2, 3]
        assert sum(record.length for record in records) == len(payload)

    def test_write_after_close_raises(self):
        with open_archive(ArchiveConfig(media="test")) as writer:
            writer.write(b"x")
        with pytest.raises(ArchiveError):
            writer.write(b"y")

    def test_empty_archive_roundtrips(self):
        with open_archive(ArchiveConfig(media="test")) as writer:
            pass
        assert open_restore(writer.archive).read().payload == b""

    def test_read_from_scans_takes_the_payload_kind_from_the_manifest(self, sql_sample):
        payload = random_payload(3_000, seed=31)
        with open_archive(ArchiveConfig(media="test", segment_size=2048)) as writer:
            writer.write(payload)
        binary = writer.archive
        result = open_restore(binary).read_from_scans(binary.data_emblem_images)
        assert result.payload == payload and result.database is None

        with open_archive(ArchiveConfig(media="test", payload_kind="sql")) as writer:
            writer.write(sql_sample)
        sql = writer.archive
        result = open_restore(sql).read_from_scans(sql.data_emblem_images)
        assert result.payload == sql_sample
        assert result.database is not None
        assert result.database.table("lineitem").row_count == 120

    def test_keyword_overrides(self):
        writer = open_archive(codec="store", media="test")
        try:
            assert writer.config.codec == "store"
        finally:
            writer.abort()

    @pytest.mark.parametrize("call", [
        lambda: open_archive("mem:positional-target"),
        lambda: open_archive({"media": "test"}),
        lambda: run_end_to_end("test", b"payload"),
    ], ids=["target-as-config", "dict-as-config", "end-to-end"])
    def test_non_config_argument_rejected(self, call):
        """A positional target (or any non-config) is a ConfigError that
        says where the target and the overrides go."""
        with pytest.raises(ConfigError, match="target=.*keywords"):
            call()

    def test_open_restore_closes_what_it_opened_on_a_bad_config(self, tmp_path,
                                                               monkeypatch):
        from repro.api import session
        from repro.errors import StoreError
        from repro.store import open_source

        target = f"file:{tmp_path / 'backup.ule'}"
        with open_archive(ArchiveConfig(media="test"), target=target) as writer:
            writer.write(b"restore me")
        opened = []

        def recording_open_source(spec):
            opened.append(open_source(spec))
            return opened[-1]

        monkeypatch.setattr(session, "open_source", recording_open_source)
        with pytest.raises(ConfigError, match="target=.*keywords"):
            open_restore(target, "not-a-config")
        with pytest.raises(ConfigError, match="decode_mode"):
            open_restore(target, decode_mode="bogus")
        assert len(opened) == 2
        for source in opened:
            with pytest.raises(StoreError, match="closed"):
                source.get_text("config.json")
        # A source the caller opened stays the caller's to close.
        with open_source(target) as source:
            with pytest.raises(ConfigError):
                open_restore(source, decode_mode="bogus")
            assert source.get_text("config.json")


# --------------------------------------------------------------------------- #
# run_end_to_end: two media x two codecs, selected purely by name
# --------------------------------------------------------------------------- #
class TestRunEndToEnd:
    @pytest.mark.parametrize("media", ["test", "dna"])
    @pytest.mark.parametrize("codec", ["store", "portable"])
    def test_media_codec_matrix(self, media, codec):
        """Archive -> record -> scan -> restore across channels and codecs."""
        payload = (b"SELECT * FROM lineitem; -- " * 40)[:1_000]
        config = ArchiveConfig(media=media, codec=codec, scan_seed=21)
        result = run_end_to_end(config, payload)
        assert result.ok
        assert result.payload == payload
        assert result.frames_recorded >= result.archive.manifest.data_emblem_count
        assert result.config.media == registry.media.resolve_name(media)

    def test_end_to_end_records_channel_name(self):
        result = run_end_to_end(ArchiveConfig(media="dna", scan_seed=2), b"abc" * 50)
        assert "DNA" in result.channel_name.upper()


# --------------------------------------------------------------------------- #
# Sessions release their workers
# --------------------------------------------------------------------------- #
class TestNoLeakedWorkers:
    def test_run_end_to_end_joins_its_threads(self):
        payload = random_payload(3_000, seed=5)
        before = threading.active_count()
        result = run_end_to_end(
            ArchiveConfig(executor="thread:2", segment_size=512), payload
        )
        assert result.payload == payload
        assert threading.active_count() == before

    def test_reader_block_joins_its_threads(self, build_archive):
        payload = random_payload(3_000, seed=6)
        config = ArchiveConfig(segment_size=512)
        archive = build_archive(config, payload)
        before = threading.active_count()
        with open_restore(archive, config, executor="thread:2") as reader:
            assert reader.read().payload == payload
            # The session's pool lives until the block closes the reader.
            assert threading.active_count() > before
        assert threading.active_count() == before


# --------------------------------------------------------------------------- #
# CLI smoke test
# --------------------------------------------------------------------------- #
class TestCLI:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        )

    def test_archive_inspect_restore_cycle(self, tmp_path):
        payload = b"INSERT INTO nation VALUES (1, 'FRANCE');\n" * 120
        payload_path = tmp_path / "payload.sql"
        payload_path.write_bytes(payload)
        archive_dir = tmp_path / "arch"

        proc = self._run(
            "archive", "-i", str(payload_path), "-o", str(archive_dir),
            "--media", "test", "--codec", "portable",
            "--segment-size", "2048", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["payload_bytes"] == len(payload)
        assert (archive_dir / "config.json").exists()
        assert ArchiveConfig.from_json(
            (archive_dir / "config.json").read_text()
        ).codec == "portable"

        proc = self._run("inspect", str(archive_dir), "--json")
        assert proc.returncode == 0, proc.stderr
        inspected = json.loads(proc.stdout)
        assert inspected["codec"] == "PORTABLE"
        assert inspected["payload_bytes"] == len(payload)

        restored_path = tmp_path / "restored.sql"
        proc = self._run(
            "restore", "-i", str(archive_dir), "-o", str(restored_path),
            "--via-channel", "--seed", "9", "--json",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["bit_exact"] is True
        assert restored_path.read_bytes() == payload

    def test_profiles_json_is_valid(self):
        proc = self._run("profiles", "--json")
        assert proc.returncode == 0, proc.stderr
        listing = json.loads(proc.stdout)
        assert {"media", "codecs", "executors", "distortions"} <= set(listing)
        names = {entry["name"] for entry in listing["media"]}
        assert {"paper-a4-600dpi", "dna-oligo", "test-small"} <= names

    def test_unknown_codec_fails_with_suggestion(self, tmp_path):
        payload_path = tmp_path / "p.bin"
        payload_path.write_bytes(b"x" * 10)
        proc = self._run(
            "archive", "-i", str(payload_path), "-o", str(tmp_path / "a"),
            "--codec", "portble",
        )
        assert proc.returncode == 2
        assert "did you mean 'portable'?" in proc.stderr
