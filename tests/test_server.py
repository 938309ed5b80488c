"""The archive service: cache, repository concurrency, and the HTTP surface.

Three layers, tested mostly through their public faces:

* :class:`repro.server.SegmentCache` — LRU behaviour under a byte budget,
  and the content-addressing contract (a cached read is byte-for-byte the
  uncached read, across appends: hypothesis checks it);
* :class:`repro.server.ArchiveRepository` — writer-lock serialization
  (queue or fail fast), reader pooling across committed generations,
  concurrent readers over both storage backends;
* :class:`repro.server.ReproServer` — the full HTTP round trip must be
  byte-identical to the in-process session API, honour ``Range``, map
  library errors onto 400/404/409/416, and report cache hits in ``/stats``.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import open_restore
from repro.errors import ArchiveBusyError, ArchiveNotFoundError, BadRequestError
from repro.server import ArchiveRepository, ReproServer, SegmentCache
from repro.server.http import HTTPError, parse_range
from repro.server.repository import validate_archive_name

# --------------------------------------------------------------------------- #
# SegmentCache
# --------------------------------------------------------------------------- #
class TestSegmentCache:
    def test_roundtrip_and_counters(self):
        cache = SegmentCache(budget_bytes=1024)
        assert cache.get("k") is None
        cache.put("k", b"payload")
        assert cache.get("k") == b"payload"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["current_bytes"] == 7
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_evicts_least_recently_used_under_budget(self):
        cache = SegmentCache(budget_bytes=100)
        cache.put("a", b"x" * 40)
        cache.put("b", b"y" * 40)
        assert cache.get("a") is not None  # refresh "a": now "b" is LRU
        cache.put("c", b"z" * 40)  # 120 bytes > 100: one eviction
        assert cache.get("b") is None
        assert cache.get("a") == b"x" * 40
        assert cache.get("c") == b"z" * 40
        assert cache.current_bytes <= 100
        assert cache.stats()["evictions"] == 1

    def test_oversized_entry_is_declined(self):
        cache = SegmentCache(budget_bytes=10)
        cache.put("big", b"x" * 11)
        assert len(cache) == 0
        assert cache.get("big") is None

    def test_zero_budget_disables_caching_but_keeps_counters(self):
        cache = SegmentCache(budget_bytes=0)
        cache.put("k", b"data")
        assert cache.get("k") is None
        assert cache.stats()["misses"] == 1

    def test_replacing_a_key_accounts_bytes_once(self):
        cache = SegmentCache(budget_bytes=100)
        cache.put("k", b"x" * 60)
        cache.put("k", b"y" * 30)
        assert cache.current_bytes == 30
        assert cache.get("k") == b"y" * 30

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SegmentCache(budget_bytes=-1)


# --------------------------------------------------------------------------- #
# HTTP Range parsing
# --------------------------------------------------------------------------- #
class TestParseRange:
    def test_forms(self):
        assert parse_range("bytes=0-9", 100) == (0, 10)
        assert parse_range("bytes=90-", 100) == (90, 10)
        assert parse_range("bytes=-4", 100) == (96, 4)
        assert parse_range("bytes=-400", 100) == (0, 100)  # suffix clamps
        assert parse_range("bytes=50-9999", 100) == (50, 50)  # end clamps

    @pytest.mark.parametrize("header", ["bytes=100-", "bytes=2000-2100", "bytes=-0"])
    def test_unsatisfiable_is_416(self, header):
        with pytest.raises(HTTPError) as excinfo:
            parse_range(header, 100)
        assert excinfo.value.status == 416

    @pytest.mark.parametrize("header", ["bytes=9-5", "bytes=-", "octets=1-2", "1-2"])
    def test_malformed_is_400(self, header):
        with pytest.raises(HTTPError) as excinfo:
            parse_range(header, 100)
        assert excinfo.value.status == 400


# --------------------------------------------------------------------------- #
# Archive naming
# --------------------------------------------------------------------------- #
class TestArchiveNames:
    @pytest.mark.parametrize("name", ["db", "a-b_c.d", "X" * 64, "7zip"])
    def test_legal(self, name):
        assert validate_archive_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "../evil", "a/b", ".hidden", "-dash", "X" * 65, "a b"]
    )
    def test_illegal(self, name):
        with pytest.raises(BadRequestError):
            validate_archive_name(name)


# --------------------------------------------------------------------------- #
# ArchiveRepository
# --------------------------------------------------------------------------- #
@pytest.fixture
def repository(tmp_path):
    repo = ArchiveRepository(tmp_path / "root", cache_bytes=1 << 20, lock_timeout=10.0)
    yield repo
    repo.close()


def _upload(repo, name, payload, *, layout="container", **extra):
    session = repo.begin_upload(name, layout=layout, media="test", segment_size=2048, **extra)
    try:
        session.write(payload)
    except BaseException:
        session.abort()
        raise
    return session.commit()


class TestRepository:
    @pytest.mark.parametrize("store", ["container", "directory"])
    def test_upload_then_ranged_reads(self, repository, make_payload, store):
        payload = make_payload(20_000, seed=11)
        summary = _upload(repository, f"arc-{store}", payload, layout=store)
        assert summary["payload_bytes"] == len(payload)
        name = f"arc-{store}"
        data, total = repository.read_range(name, 0, None)
        assert data == payload and total == len(payload)
        data, _ = repository.read_range(name, 5000, 1234)
        assert data == payload[5000:6234]
        # beyond-the-end reads clamp like slicing
        data, _ = repository.read_range(name, len(payload) - 10, 10_000)
        assert data == payload[-10:]

    def test_missing_archive_raises(self, repository):
        with pytest.raises(ArchiveNotFoundError):
            repository.read_range("nope", 0, 1)
        with pytest.raises(ArchiveNotFoundError):
            repository.begin_append("nope")

    def test_existing_archive_needs_replace(self, repository, make_payload):
        payload = make_payload(4_000, seed=3)
        _upload(repository, "dup", payload)
        with pytest.raises(ArchiveBusyError):
            _upload(repository, "dup", payload)
        replaced = make_payload(6_000, seed=4)
        _upload(repository, "dup", replaced, replace=True)
        data, _ = repository.read_range("dup", 0, None)
        assert data == replaced

    def test_directory_layout_refuses_replace(self, repository, make_payload):
        _upload(repository, "dirarc", make_payload(2_000, seed=5), layout="directory")
        with pytest.raises(BadRequestError):
            _upload(repository, "dirarc", b"x", layout="directory", replace=True)
        with pytest.raises(BadRequestError):
            _upload(repository, "dirarc", b"x", layout="container", replace=True)

    def test_append_visible_to_later_reads(self, repository, make_payload):
        base = make_payload(10_000, seed=6)
        tail = make_payload(3_000, seed=7)
        _upload(repository, "grow", base)
        # Warm the reader pool and the cache on generation 0 first.
        data, _ = repository.read_range("grow", 0, None)
        assert data == base
        session = repository.begin_append("grow")
        session.write(tail)
        summary = session.commit()
        assert summary["generation"] == 1
        data, total = repository.read_range("grow", 0, None)
        assert data == base + tail and total == len(base) + len(tail)
        # The cache served generation-0 segments only by content hash, so
        # nothing stale can have crossed the append; the straddling slice
        # proves it.
        straddle, _ = repository.read_range("grow", len(base) - 100, 200)
        assert straddle == (base + tail)[len(base) - 100 : len(base) + 100]

    def test_repeated_reads_hit_the_cache(self, repository, make_payload):
        payload = make_payload(16_000, seed=8)
        _upload(repository, "hot", payload)
        first, _ = repository.read_range("hot", 4096, 2048)
        before = repository.cache.stats()
        second, _ = repository.read_range("hot", 4096, 2048)
        after = repository.cache.stats()
        assert first == second == payload[4096:6144]
        assert after["hits"] > before["hits"]

    def test_append_nowait_fails_fast_then_recovers(self, repository, make_payload):
        _upload(repository, "busy", make_payload(4_000, seed=9))
        holder = repository.begin_append("busy")
        try:
            with pytest.raises(ArchiveBusyError):
                repository.begin_append("busy", wait=False)
        finally:
            holder.abort()
        # The lock was released by abort: a new writer gets in.
        session = repository.begin_append("busy", wait=False)
        session.write(b"tail")
        session.commit()
        assert repository.verify("busy").ok

    def test_concurrent_appends_serialize(self, repository, make_payload):
        base = make_payload(6_000, seed=10)
        _upload(repository, "race", base)
        tails = {"one": make_payload(2_000, seed=21), "two": make_payload(2_000, seed=22)}
        errors: list[BaseException] = []

        def append(tail: bytes) -> None:
            try:
                session = repository.begin_append("race")
                session.write(tail)
                session.commit()
            except BaseException as exc:  # re-raised in the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=append, args=(t,)) for t in tails.values()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        data, _ = repository.read_range("race", 0, None)
        assert data in (
            base + tails["one"] + tails["two"],
            base + tails["two"] + tails["one"],
        )
        report = repository.verify("race")
        assert report.ok, report.errors

    def test_concurrent_reads_two_archives_two_backends(self, repository, make_payload):
        payloads = {
            "cont": make_payload(24_000, seed=31),
            "dirs": make_payload(24_000, seed=32),
        }
        _upload(repository, "cont", payloads["cont"], layout="container")
        _upload(repository, "dirs", payloads["dirs"], layout="directory")
        jobs = [
            (name, offset)
            for name in payloads
            for offset in range(0, 24_000, 1_500)
        ]

        def read(job: "tuple[str, int]") -> bool:
            name, offset = job
            data, total = repository.read_range(name, offset, 1_000)
            return total == 24_000 and data == payloads[name][offset : offset + 1_000]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, jobs))
        assert all(results)

    def test_list_and_stats(self, repository, make_payload):
        _upload(repository, "one", make_payload(2_000, seed=41))
        _upload(repository, "two", make_payload(2_000, seed=42), layout="directory")
        listing = {entry["name"]: entry for entry in repository.list_archives()}
        assert set(listing) == {"one", "two"}
        assert listing["one"]["store"] == "container"
        assert listing["two"]["store"] == "directory"
        stats = repository.stats()
        assert stats["archives"] == 2
        assert stats["segment_cache"]["budget_bytes"] == 1 << 20


# --------------------------------------------------------------------------- #
# Cached reads == uncached reads, byte for byte (the content-address contract)
# --------------------------------------------------------------------------- #
_HYPO_TOTAL = 20_000


@pytest.fixture(scope="module")
def cached_and_plain_readers(tmp_path_factory, write_archive, make_payload):
    """One archive, one cache-backed reader, one plain reader, one truth."""
    target = f"file:{tmp_path_factory.mktemp('server-hypo') / 'hypo.ule'}"
    payload = make_payload(_HYPO_TOTAL, seed=77)
    write_archive(target, payload, segment_size=1024)
    cache = SegmentCache(budget_bytes=256 * 1024)
    cached = open_restore(target, segment_cache=cache)
    plain = open_restore(target)
    yield cached, plain, payload
    cached.close()
    plain.close()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    offset=st.integers(min_value=0, max_value=_HYPO_TOTAL + 64),
    length=st.integers(min_value=0, max_value=4096),
)
def test_cached_reads_equal_uncached_reads(cached_and_plain_readers, offset, length):
    cached, plain, payload = cached_and_plain_readers
    expected = payload[offset : offset + length]
    assert cached.read_range(offset, length) == expected
    assert plain.read_range(offset, length) == expected


def test_cache_is_actually_exercised(cached_and_plain_readers):
    cached, _plain, _payload = cached_and_plain_readers
    cached.read_range(0, _HYPO_TOTAL)
    before = cached.segments_cached
    cached.read_range(0, _HYPO_TOTAL)
    assert cached.segments_cached > before


# --------------------------------------------------------------------------- #
# The HTTP surface
# --------------------------------------------------------------------------- #
@pytest.fixture
def served(tmp_path):
    repository = ArchiveRepository(tmp_path / "root", cache_bytes=1 << 20, lock_timeout=10.0)
    server = ReproServer(repository, port=0)
    handle = server.start_in_thread()
    yield server
    handle.stop()


def _request(server, method, path, body=None, headers=None):
    """(status, headers, body) for one request against the test server."""
    request = urllib.request.Request(
        f"{server.base_url}{path}", data=body, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestHTTP:
    def test_roundtrip_is_byte_identical_to_session_api(
        self, served, make_payload, tmp_path
    ):
        payload = make_payload(30_000, seed=51)
        status, _, body = _request(
            served, "PUT", "/archives/demo?media=test&segment_size=2048", body=payload
        )
        assert status == 201, body
        summary = json.loads(body)
        assert summary["payload_bytes"] == len(payload)
        assert summary["generation"] == 0

        # Full read over HTTP == the original bytes.
        status, headers, data = _request(served, "GET", "/archives/demo/data")
        assert status == 200 and data == payload
        assert headers["X-Archive-Bytes"] == str(len(payload))

        # ...and == what the in-process session API restores from the same
        # on-disk artefact the server wrote.
        with open_restore(served.repository.root / "demo.ule") as reader:
            assert reader.read_range(0, len(payload)) == payload

        # Ranged read: correct status, header and bytes.
        status, headers, part = _request(
            served, "GET", "/archives/demo/data", headers={"Range": "bytes=1000-2999"}
        )
        assert status == 206
        assert headers["Content-Range"] == f"bytes 1000-2999/{len(payload)}"
        assert part == payload[1000:3000]

        # Append over HTTP, then read the combined payload back.
        tail = make_payload(5_000, seed=52)
        status, _, body = _request(served, "POST", "/archives/demo/append", body=tail)
        assert status == 200, body
        assert json.loads(body)["generation"] == 1
        status, _, combined = _request(served, "GET", "/archives/demo/data")
        assert combined == payload + tail

        # Verify + inspect agree with what we uploaded.
        status, _, body = _request(served, "GET", "/archives/demo/verify")
        report = json.loads(body)
        assert status == 200 and report["ok"], report
        status, _, body = _request(served, "GET", "/archives/demo/inspect")
        summary = json.loads(body)
        assert summary["generation"] == 1
        assert summary["payload_bytes"] == len(payload) + len(tail)

        # Listing names it; stats show cache traffic from the reads above.
        status, _, body = _request(served, "GET", "/archives")
        names = [entry["name"] for entry in json.loads(body)["archives"]]
        assert names == ["demo"]
        _request(served, "GET", "/archives/demo/data", headers={"Range": "bytes=1000-2999"})
        status, _, body = _request(served, "GET", "/stats")
        stats = json.loads(body)
        assert stats["repository"]["segment_cache"]["hits"] > 0
        assert stats["requests"]["routes"]["GET /archives/{name}/data"]["requests"] >= 3

    def test_error_mapping(self, served, make_payload):
        status, _, _ = _request(served, "GET", "/archives/missing/data")
        assert status == 404
        status, _, _ = _request(served, "GET", "/archives/missing/inspect")
        assert status == 404
        status, _, body = _request(served, "PUT", "/archives/bad?media=no-such-media", body=b"x")
        assert status == 400, body
        status, _, _ = _request(served, "GET", "/nowhere")
        assert status == 404
        status, _, _ = _request(served, "DELETE", "/archives/missing/data")
        assert status == 405

        payload = make_payload(4_000, seed=53)
        assert _request(served, "PUT", "/archives/ok", body=payload)[0] == 201
        status, _, _ = _request(
            served, "GET", "/archives/ok/data", headers={"Range": "bytes=999999-"}
        )
        assert status == 416
        status, _, _ = _request(
            served, "GET", "/archives/ok/data", headers={"Range": "elephants=1-2"}
        )
        assert status == 400
        # A second upload without replace=1 conflicts.
        status, _, _ = _request(served, "PUT", "/archives/ok", body=payload)
        assert status == 409

    def test_path_traversal_is_rejected(self, served):
        connection = http.client.HTTPConnection("127.0.0.1", served.port, timeout=30)
        try:
            connection.request("PUT", "/archives/%2e%2e%2fevil", body=b"x")
            response = connection.getresponse()
            assert response.status in (400, 404)
            response.read()
        finally:
            connection.close()
        assert not (served.repository.root.parent / "evil.ule").exists()

    def test_append_nowait_conflict_is_409(self, served, make_payload):
        payload = make_payload(4_000, seed=54)
        assert _request(served, "PUT", "/archives/locked", body=payload)[0] == 201
        holder = served.repository.begin_append("locked")
        try:
            status, _, body = _request(
                served, "POST", "/archives/locked/append?nowait=1", body=b"tail"
            )
            assert status == 409, body
        finally:
            holder.abort()
        status, _, _ = _request(served, "POST", "/archives/locked/append", body=b"tail")
        assert status == 200

    def test_concurrent_http_appends_serialize(self, served, make_payload):
        base = make_payload(6_000, seed=55)
        assert _request(served, "PUT", "/archives/multi", body=base)[0] == 201
        tails = [make_payload(1_500, seed=60 + i) for i in range(2)]

        def append(tail: bytes) -> int:
            return _request(served, "POST", "/archives/multi/append", body=tail)[0]

        with ThreadPoolExecutor(max_workers=2) as pool:
            statuses = list(pool.map(append, tails))
        assert statuses == [200, 200]
        _, _, data = _request(served, "GET", "/archives/multi/data")
        assert data in (base + tails[0] + tails[1], base + tails[1] + tails[0])
        _, _, body = _request(served, "GET", "/archives/multi/verify")
        assert json.loads(body)["ok"]

    def test_concurrent_http_reads_across_archives(self, served, make_payload):
        payloads = {
            "r1": make_payload(20_000, seed=71),
            "r2": make_payload(20_000, seed=72),
        }
        for name, payload in payloads.items():
            query = "?media=test&segment_size=2048" + ("&store=directory" if name == "r2" else "")
            assert _request(served, "PUT", f"/archives/{name}{query}", body=payload)[0] == 201

        def read(job: "tuple[str, int]") -> bool:
            name, offset = job
            status, _, data = _request(
                served,
                "GET",
                f"/archives/{name}/data",
                headers={"Range": f"bytes={offset}-{offset + 999}"},
            )
            return status == 206 and data == payloads[name][offset : offset + 1000]

        jobs = [(name, offset) for name in payloads for offset in range(0, 20_000, 1_250)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, jobs))
        assert all(results)

    def test_chunked_upload(self, served, make_payload):
        payload = make_payload(10_000, seed=81)
        connection = http.client.HTTPConnection("127.0.0.1", served.port, timeout=60)
        try:
            connection.putrequest("PUT", "/archives/chunked?media=test&segment_size=2048")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            for start in range(0, len(payload), 3_000):
                piece = payload[start : start + 3_000]
                connection.send(f"{len(piece):x}\r\n".encode() + piece + b"\r\n")
            connection.send(b"0\r\n\r\n")
            response = connection.getresponse()
            body = response.read()
            assert response.status == 201, body
        finally:
            connection.close()
        _, _, data = _request(served, "GET", "/archives/chunked/data")
        assert data == payload


# --------------------------------------------------------------------------- #
# Slowloris defense: request timeouts
# --------------------------------------------------------------------------- #
@pytest.fixture
def served_with_timeout(tmp_path):
    repository = ArchiveRepository(tmp_path / "root", cache_bytes=1 << 20, lock_timeout=10.0)
    server = ReproServer(repository, port=0, request_timeout=0.5)
    handle = server.start_in_thread()
    yield server
    handle.stop()


class TestRequestTimeouts:
    def test_default_timeout_is_enabled(self):
        from repro.server.app import DEFAULT_REQUEST_TIMEOUT

        assert DEFAULT_REQUEST_TIMEOUT == 30.0

    def test_stalled_headers_get_408_and_a_close(self, served_with_timeout):
        import socket

        with socket.create_connection(
            ("127.0.0.1", served_with_timeout.port), timeout=10
        ) as client:
            client.sendall(b"GET /stats HTTP/1.1\r\nHost: loca")  # ...and stall
            client.settimeout(10)
            blob = b""
            while True:
                chunk = client.recv(4096)
                if not chunk:
                    break  # server closed the connection
                blob += chunk
        assert b"408" in blob.split(b"\r\n", 1)[0]
        assert b"timed out waiting for request headers" in blob

    def test_stalled_body_gets_408(self, served_with_timeout):
        import socket

        with socket.create_connection(
            ("127.0.0.1", served_with_timeout.port), timeout=10
        ) as client:
            client.sendall(
                b"PUT /archives/slow?media=test HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: 50000\r\n"
                b"\r\n"
                b"only a few bytes arrive"  # ...then the body stalls
            )
            client.settimeout(10)
            blob = b""
            while True:
                chunk = client.recv(4096)
                if not chunk:
                    break
                blob += chunk
        assert b"408" in blob.split(b"\r\n", 1)[0]
        assert b"timed out waiting for request body bytes" in blob

    def test_prompt_requests_are_unaffected(self, served_with_timeout, make_payload):
        payload = make_payload(5_000, seed=83)
        status, _, body = _request(
            served_with_timeout,
            "PUT",
            "/archives/prompt?media=test&segment_size=2048",
            body=payload,
        )
        assert status == 201, body
        status, _, data = _request(served_with_timeout, "GET", "/archives/prompt/data")
        assert status == 200
        assert data == payload

    def test_timeout_can_be_disabled(self, tmp_path):
        repository = ArchiveRepository(tmp_path / "root", cache_bytes=1 << 20, lock_timeout=10.0)
        server = ReproServer(repository, port=0, request_timeout=None)
        assert server.request_timeout is None
