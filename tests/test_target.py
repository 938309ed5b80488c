"""The target-URI grammar: one parser for every archive spelling.

:func:`repro.store.parse_target` is the single front door through which
``open_archive`` / ``open_restore`` / the CLI / the server route every
target, and the only place a backend or a volume geometry is chosen.  These
tests pin the grammar itself: each scheme parses to the right backend,
filesystem paths (strings, Paths and bare ``vol:`` members alike) sniff by
one silent rule, hostile input is rejected with ``StoreError`` before
anything touches the disk, unknown schemes raise the name-table
did-you-mean error, the retired ``store=``-style keywords point at the URI
spelling, and the ``vol:`` sub-grammar validates its geometry eagerly.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import StoreError, UnknownNameError
from repro.store import TargetSpec, VolumeSetSpec, parse_target
from repro.store.target import parse_member


# --------------------------------------------------------------------------- #
# Explicit schemes
# --------------------------------------------------------------------------- #
class TestSchemes:
    def test_dir_scheme(self):
        spec = parse_target("dir:/tmp/archive")
        assert spec.scheme == "dir"
        assert spec.store == "directory"
        assert spec.target == "/tmp/archive"
        assert not spec.is_remote
        assert spec.uri() == "dir:/tmp/archive"

    def test_file_scheme(self):
        spec = parse_target("file:/tmp/archive.ule")
        assert spec.store == "container"
        assert spec.target == "/tmp/archive.ule"
        assert spec.uri() == "file:/tmp/archive.ule"

    def test_mem_scheme_keeps_full_key(self):
        spec = parse_target("mem:scratch")
        assert spec.store == "memory"
        # The memory backend's native target *is* the mem:-prefixed key.
        assert spec.target == "mem:scratch"
        assert spec.uri() == "mem:scratch"

    @pytest.mark.parametrize("url", [
        "http://localhost:8080/archives/demo",
        "https://archive.example.org/archives/demo",
    ])
    def test_http_is_remote_with_no_local_backend(self, url):
        spec = parse_target(url)
        assert spec.is_remote
        assert spec.store is None
        assert spec.target == url
        assert spec.uri() == url

    def test_schemes_are_case_insensitive(self):
        assert parse_target("DIR:/tmp/x").store == "directory"
        assert parse_target("MEM:x").store == "memory"

    def test_specs_pass_through(self):
        spec = parse_target("dir:/tmp/archive")
        assert parse_target(spec) is spec

    def test_unknown_scheme_suggests_a_close_match(self):
        with pytest.raises(UnknownNameError) as excinfo:
            parse_target("dri:/tmp/archive")
        message = str(excinfo.value)
        assert "dri" in message
        assert "dir" in message  # did-you-mean suggestion

    def test_unknown_scheme_lists_choices(self):
        with pytest.raises(UnknownNameError) as excinfo:
            parse_target("zzq:/tmp/archive")
        for scheme in ("dir", "file", "mem", "vol"):
            assert scheme in str(excinfo.value)


# --------------------------------------------------------------------------- #
# The pre-URI spellings: strings and Paths are silent filesystem paths, sniffed
# by one rule that bare vol: members share
# --------------------------------------------------------------------------- #
class TestLegacySpellings:
    #: (what is on disk, the target's name, the backend it sniffs to).
    CASES = [
        ("dir", "archive", "directory"),
        ("file", "archive", "container"),
        ("dir", "archive.ule", "directory"),
        ("file", "archive.bin", "container"),
        (None, "archive", "directory"),
        (None, "archive.ule", "container"),
    ]

    @pytest.mark.parametrize("existing,name,store", CASES, ids=[
        "existing-dir", "existing-file", "existing-dir-named-ule",
        "existing-file-without-ule", "new-name", "new-ule",
    ])
    def test_paths_sniff_alike(self, tmp_path, existing, name, store):
        """An existing directory is a directory archive, an existing file a
        container; a new target is a container exactly when its name ends
        in .ule.  A str, a Path and a bare vol: member agree, silently."""
        target = tmp_path / name
        if existing == "dir":
            target.mkdir()
        elif existing == "file":
            target.write_bytes(b"stub")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from_str = parse_target(str(target))
            from_path = parse_target(target)
            member = parse_member(str(target))
        assert from_str == from_path == TargetSpec("path", store, str(target))
        assert member == (store, str(target))
        assert from_str.uri() == f"{'dir' if store == 'directory' else 'file'}:{target}"

    def test_path_objects_do_not_warn(self, tmp_path):
        target = tmp_path / "archive"
        target.mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = parse_target(target)
        assert spec.store == "directory"
        assert spec.target == str(target)

    def test_missing_bare_string_falls_back_to_default_store(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = parse_target(str(tmp_path / "new"))
        assert spec.store == "directory"


# --------------------------------------------------------------------------- #
# The removed store= override: the target URI is the only backend spelling
# --------------------------------------------------------------------------- #
class TestStoreOverride:
    def test_conflicting_override_is_rejected(self, tmp_path):
        from repro.api import open_archive
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="scheme of the target URI"):
            open_archive(target=f"dir:{tmp_path / 'archive'}", store="container")
        assert not (tmp_path / "archive").exists()

    @pytest.mark.parametrize("key", ["store", "volume_parity", "volume_stripe"])
    def test_retired_keywords_name_the_target_uri(self, tmp_path, key, make_payload,
                                                  write_archive):
        """``store=`` and the volume-geometry keywords are gone: the target
        URI spells them, and passing one says so instead of a TypeError."""
        from repro.api import open_archive, open_restore
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="target URI"):
            open_archive(target=f"dir:{tmp_path / 'new'}", **{key: 1})
        assert not (tmp_path / "new").exists()
        existing = f"dir:{tmp_path / 'old'}"
        write_archive(existing, make_payload(500, seed=80))
        with pytest.raises(ConfigError, match="target URI"):
            open_archive(target=existing, append=True, **{key: 1})
        with pytest.raises(ConfigError, match="target URI"):
            open_restore(existing, **{key: 1})

    def test_remote_target_rejects_any_store(self):
        from repro.store import open_sink, open_source

        spec = parse_target("http://localhost/archives/x")
        assert spec.is_remote and spec.store is None
        for opener in (open_sink, open_source):
            with pytest.raises(StoreError, match="remote target"):
                opener(spec)

    def test_volumes_store_needs_a_vol_uri(self, tmp_path):
        from repro.store import BACKENDS

        with pytest.raises(StoreError, match="needs a vol: target URI"):
            BACKENDS["volumes"].create(str(tmp_path / "set"))


# --------------------------------------------------------------------------- #
# Hostile input: validate, then reject with StoreError
# --------------------------------------------------------------------------- #
#: (target, message) — each must fail before anything touches the disk.
HOSTILE_TARGETS = [
    ("dir:", "names no path"),
    ("file:", "names no path"),
    ("mem:", "names no key"),
    ("", "non-empty path"),
    ("vol:k=2,m=1:dir:,/b,/c", "names no path"),
    ("vol:k=3,k=2,m=1:/a,/b,/c", "more than once"),
    ("vol:k=1_0,m=1:/a,/b", "decimal digits"),
    ("vol:k= 2,m=1:/a,/b,/c", "decimal digits"),
    ("vol:k=+2,m=1:/a,/b,/c", "decimal digits"),
    ("vol:k=2,m=1,stripe=:/a,/b,/c", "decimal digits"),
]


@pytest.mark.parametrize("raw,message", HOSTILE_TARGETS, ids=[
    "empty-dir", "empty-file", "empty-mem-key", "empty-string", "empty-member",
    "repeated-option", "underscore-digits", "spaced-digits", "signed-digits",
    "empty-option",
])
def test_hostile_targets_are_rejected(tmp_path, monkeypatch, raw, message):
    from repro.api import ArchiveConfig, open_archive

    monkeypatch.chdir(tmp_path)
    with pytest.raises(StoreError, match=message):
        parse_target(raw)
    with pytest.raises(StoreError, match=message):
        open_archive(ArchiveConfig(media="test"), target=raw)
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------- #
# The vol: sub-grammar
# --------------------------------------------------------------------------- #
class TestVolumeGrammar:
    def test_full_spelling(self):
        spec = parse_target("vol:k=4,m=2,stripe=3:/mnt/a,/mnt/b,/mnt/c,/mnt/d,/mnt/e,/mnt/f")
        assert spec.store == "volumes"
        volumes = spec.volumes
        assert isinstance(volumes, VolumeSetSpec)
        assert volumes.data == 4
        assert volumes.parity == 2
        assert volumes.stripe == 3
        assert volumes.members == (
            "/mnt/a", "/mnt/b", "/mnt/c", "/mnt/d", "/mnt/e", "/mnt/f",
        )
        # The canonical URI round-trips through the parser unchanged.
        assert parse_target(spec.uri()).volumes == volumes

    def test_options_are_optional(self):
        spec = parse_target("vol:/mnt/a,/mnt/b,/mnt/c")
        assert spec.volumes is not None
        assert spec.volumes.data is None
        assert spec.volumes.parity is None
        assert spec.volumes.stripe is None

    def test_omitted_geometry_resolves_to_constants(self):
        volumes = parse_target("vol:/mnt/a,/mnt/b,/mnt/c").volumes
        assert volumes is not None
        resolved = volumes.resolved()
        assert (resolved.data, resolved.parity, resolved.stripe) == (2, 1, 1)
        assert resolved.members == volumes.members
        # A spelled-out option is kept; only the omitted ones are filled.
        resolved = parse_target("vol:stripe=2:/mnt/a,/mnt/b,/mnt/c").volumes.resolved()
        assert (resolved.data, resolved.parity, resolved.stripe) == (2, 1, 2)

    def test_partial_options_fill_from_member_count(self):
        volumes = parse_target("vol:m=2:/a,/b,/c,/d,/e").volumes
        assert volumes is not None
        assert (volumes.resolved().data, volumes.resolved().parity) == (3, 2)
        volumes = parse_target("vol:k=3:/a,/b,/c,/d").volumes
        assert volumes is not None
        assert (volumes.resolved().data, volumes.resolved().parity) == (3, 1)

    def test_count_mismatch_is_rejected_eagerly(self):
        with pytest.raises(StoreError, match="must match the member list"):
            parse_target("vol:k=4,m=2:/a,/b,/c")

    def test_too_few_members(self):
        with pytest.raises(StoreError, match="at least 2 member volumes"):
            parse_target("vol:k=1,m=1:/only")

    def test_unknown_option(self):
        with pytest.raises(StoreError, match="unknown volume-set option"):
            parse_target("vol:q=3:/a,/b")

    def test_non_integer_option(self):
        with pytest.raises(StoreError, match="must be an integer"):
            parse_target("vol:k=four,m=2:/a,/b,/c,/d,/e,/f")

    @pytest.mark.parametrize("member", [
        "vol:/x,/y", "http://host/archives/x", "https://host/archives/x",
    ])
    def test_nested_remote_or_vol_members_rejected(self, member):
        with pytest.raises(StoreError, match="must be local"):
            parse_target(f"vol:{member},/mnt/b")

    def test_zero_parity_rejected_on_resolve(self):
        with pytest.raises(StoreError, match="at least 1 data and 1 parity"):
            parse_target("vol:k=2,m=0:/a,/b")

    def test_members_may_carry_their_own_schemes(self):
        spec = parse_target("vol:k=2,m=1:dir:/mnt/a,file:/mnt/b.ule,mem:c")
        assert spec.volumes is not None
        assert parse_member(spec.volumes.members[0]) == ("directory", "/mnt/a")
        assert parse_member(spec.volumes.members[1]) == ("container", "/mnt/b.ule")
        assert parse_member(spec.volumes.members[2]) == ("memory", "mem:c")

    def test_bare_members_sniff_by_shape(self, tmp_path):
        existing_dir = tmp_path / "a"
        existing_dir.mkdir()
        existing_file = tmp_path / "b"
        existing_file.write_bytes(b"stub")
        assert parse_member(str(existing_dir)) == ("directory", str(existing_dir))
        assert parse_member(str(existing_file)) == ("container", str(existing_file))
        assert parse_member(str(tmp_path / "new.ule")) == ("container", str(tmp_path / "new.ule"))
        assert parse_member(str(tmp_path / "new")) == ("directory", str(tmp_path / "new"))


# --------------------------------------------------------------------------- #
# The high-level API routes every spelling through the parser
# --------------------------------------------------------------------------- #
class TestApiIntegration:
    def test_uri_targets_round_trip_through_open_archive(self, tmp_path, make_payload):
        from repro.api import ArchiveConfig, open_archive, open_restore

        payload = make_payload(4_000, seed=77)
        uri = f"dir:{tmp_path / 'archive'}"
        config = ArchiveConfig(media="test", segment_size=1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with open_archive(config, target=uri) as writer:
                writer.write(payload)
            with open_restore(uri) as reader:
                assert reader.read().payload == payload

    def test_bare_string_paths_round_trip_silently(self, tmp_path, make_payload):
        from repro.api import ArchiveConfig, open_archive, open_restore

        payload = make_payload(3_000, seed=78)
        target = tmp_path / "archive.ule"
        config = ArchiveConfig(media="test", segment_size=1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with open_archive(config, target=str(target)) as writer:
                writer.write(payload)
            assert target.is_file()  # a new *.ule name is a container
            for spelling in (str(target), f"file:{target}", target):
                with open_restore(spelling) as reader:
                    assert reader.read().payload == payload

    def test_path_objects_stay_silent_in_open_archive(self, tmp_path, make_payload):
        from repro.api import ArchiveConfig, open_archive, open_restore

        payload = make_payload(3_000, seed=79)
        target = tmp_path / "archive"
        config = ArchiveConfig(media="test", segment_size=1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with open_archive(config, target=target) as writer:
                writer.write(payload)
            with open_restore(target) as reader:
                assert reader.read().payload == payload

    def test_open_restore_rejects_remote_targets(self):
        from repro.api import open_restore
        from repro.errors import StoreError

        with pytest.raises(StoreError, match="remote target"):
            open_restore("http://localhost:1/archives/demo")
