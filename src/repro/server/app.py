"""The asyncio front end of the archive service.

:class:`ReproServer` binds an :class:`~repro.server.repository.
ArchiveRepository` to a TCP port.  The event loop only parses requests and
shuttles bytes; every blocking repository call runs on a bounded worker
thread pool via ``run_in_executor``.  Uploads stream: each body chunk is
handed to the write session on a worker thread, and when the encode
pipeline's bounded queue is full that call blocks, the coroutine stops
reading the socket, and TCP backpressure reaches the client — the server
never buffers an unbounded body.

Every socket-read await — request headers, keep-alive idle waits, and each
body chunk — is bounded by ``request_timeout`` (default
:data:`DEFAULT_REQUEST_TIMEOUT` seconds): a slowloris client that opens a
connection and trickles bytes gets a 408 and is dropped instead of pinning
a connection handler forever.

Routes
------
===========================================  ==========================================
``GET /archives``                            list archives under the root
``PUT /archives/{name}``                     streaming upload of a new archive
``POST /archives/{name}/append``             streaming append to an existing archive
``GET /archives/{name}/data``                payload bytes; HTTP ``Range`` honoured
``GET /archives/{name}/verify``              fsck (``?shallow=1`` skips frame decode)
``GET /archives/{name}/inspect``             manifest summary
``GET /stats``                               repository + cache + request metrics
===========================================  ==========================================
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Awaitable, Callable, TypeVar

from repro.errors import (
    ArchiveBusyError,
    ArchiveNotFoundError,
    BadRequestError,
    ConfigError,
    ReproError,
    UnknownNameError,
)
from repro.server.http import (
    HTTPError,
    HTTPRequest,
    iter_body,
    json_body,
    parse_range,
    read_request,
    send_response,
)
from repro.server.metrics import ServerMetrics
from repro.server.repository import ArchiveRepository, WriteSession

__all__ = ["ReproServer", "ServerHandle", "DEFAULT_REQUEST_TIMEOUT"]

_LOG = logging.getLogger("repro.server")

_R = TypeVar("_R")

#: Worker threads bridging the event loop to the blocking repository.  Write
#: sessions occupy a thread only per chunk (not for their whole lifetime),
#: so this bounds concurrent *blocking calls*, not concurrent clients.
_DEFAULT_WORKERS = 16

#: Default seconds a connection may sit silent — waiting for request headers
#: (including between keep-alive requests) or mid-body between chunks —
#: before the server answers 408 and drops it.  Bounds how long a slowloris
#: client (trickling one byte per minute) can pin a connection handler.
DEFAULT_REQUEST_TIMEOUT = 30.0


@dataclass
class _Reply:
    """What a route handler produces; the connection loop sends it."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)
    bytes_in: int = 0


_Handler = Callable[[HTTPRequest, asyncio.StreamReader, str], Awaitable[_Reply]]


def _status_for(error: ReproError) -> int:
    """Map a library error onto the HTTP status the client should see."""
    if isinstance(error, ArchiveNotFoundError):
        return 404
    if isinstance(error, ArchiveBusyError):
        return 409
    if isinstance(error, (BadRequestError, ConfigError, UnknownNameError)):
        return 400
    return 500


class ReproServer:
    """Serve one :class:`ArchiveRepository` over HTTP/1.1.

    Run it on the current loop (``await server.run()``), or from
    synchronous code via :meth:`start_in_thread`, which returns a
    :class:`ServerHandle` context manager — the shape the tests, the
    benchmark and the CLI all share.
    """

    def __init__(
        self,
        repository: ArchiveRepository,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_workers: int = _DEFAULT_WORKERS,
        request_timeout: "float | None" = DEFAULT_REQUEST_TIMEOUT,
    ):
        self.repository = repository
        self.host = host
        #: Seconds of silence tolerated while reading a request (headers or
        #: body) and between keep-alive requests; ``None`` disables the
        #: guard.  See :data:`DEFAULT_REQUEST_TIMEOUT`.
        self.request_timeout = request_timeout
        #: Requested port; replaced by the bound port after :meth:`start`
        #: (pass ``0`` for an ephemeral port).
        self.port = port
        self.metrics = ServerMetrics()
        self._pool = ThreadPoolExecutor(max_workers=max_workers, thread_name_prefix="repro-serve")
        self._server: "asyncio.AbstractServer | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop_requested: "asyncio.Event | None" = None
        # Only touched from the event-loop thread.
        self._writers: set[asyncio.StreamWriter] = set()
        name = r"(?P<name>[^/]+)"
        self._routes: tuple[tuple[str, re.Pattern[str], str, _Handler], ...] = (
            ("GET", re.compile(r"^/archives/?$"), "GET /archives", self._handle_list),
            ("GET", re.compile(r"^/stats/?$"), "GET /stats", self._handle_stats),
            (
                "PUT",
                re.compile(rf"^/archives/{name}$"),
                "PUT /archives/{name}",
                self._handle_upload,
            ),
            (
                "POST",
                re.compile(rf"^/archives/{name}/append$"),
                "POST /archives/{name}/append",
                self._handle_append,
            ),
            (
                "GET",
                re.compile(rf"^/archives/{name}/data$"),
                "GET /archives/{name}/data",
                self._handle_data,
            ),
            (
                "GET",
                re.compile(rf"^/archives/{name}/verify$"),
                "GET /archives/{name}/verify",
                self._handle_verify,
            ),
            (
                "GET",
                re.compile(rf"^/archives/{name}/inspect$"),
                "GET /archives/{name}/inspect",
                self._handle_inspect,
            ),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind and start accepting (resolves ``port`` when ``0`` was asked)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        sockets = self._server.sockets
        if sockets:
            self.port = sockets[0].getsockname()[1]
        _LOG.info("serving %s on %s", self.repository.root, self.base_url)

    async def stop(self) -> None:
        """Stop accepting, drop open connections, close the repository."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            # Keep-alive connections sit in read_request forever; closing
            # their transports unblocks the handlers so wait_closed returns.
            for writer in list(self._writers):
                writer.close()
            await server.wait_closed()
        self._pool.shutdown(wait=True, cancel_futures=True)
        self.repository.close()

    async def run(self, *, ready: "threading.Event | None" = None) -> None:
        """Serve until :meth:`request_stop` (or cancellation), then clean up."""
        await self.start()
        self._stop_requested = asyncio.Event()
        if ready is not None:
            ready.set()
        try:
            await self._stop_requested.wait()
        finally:
            await self.stop()

    def request_stop(self) -> None:
        """Ask a running :meth:`run` to exit; safe from any thread."""
        loop, event = self._loop, self._stop_requested
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    def start_in_thread(self) -> "ServerHandle":
        """Run the server on a daemon thread; returns once it is accepting."""
        ready = threading.Event()
        failures: list[BaseException] = []

        def main() -> None:
            try:
                asyncio.run(self.run(ready=ready))
            except BaseException as error:  # surfaced to the caller below
                failures.append(error)
                ready.set()

        thread = threading.Thread(target=main, name="repro-server", daemon=True)
        thread.start()
        if not ready.wait(timeout=30.0):
            raise RuntimeError("server did not start within 30s")
        if failures:
            raise RuntimeError(f"server failed to start: {failures[0]}") from failures[0]
        return ServerHandle(self, thread)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _call(self, fn: Callable[..., _R], /, *args: object) -> _R:
        """Run a blocking repository call on the worker pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, functools.partial(fn, *args))

    async def _with_timeout(self, awaitable: "Awaitable[_R]") -> _R:
        """Bound a socket-read await by :attr:`request_timeout` (if set)."""
        if self.request_timeout is None:
            return await awaitable
        return await asyncio.wait_for(awaitable, self.request_timeout)

    def _route_for(self, request: HTTPRequest) -> "tuple[str, _Handler, str]":
        """(metrics label, handler, archive name) for a request, or 404/405."""
        allowed: set[str] = set()
        for method, pattern, label, handler in self._routes:
            matched = pattern.match(request.path)
            if matched is None:
                continue
            if method != request.method:
                allowed.add(method)
                continue
            return label, handler, matched.groupdict().get("name", "")
        if allowed:
            raise HTTPError(
                405,
                f"method {request.method} not allowed for {request.path} "
                f"(try {', '.join(sorted(allowed))})",
            )
        raise HTTPError(404, f"no route for {request.method} {request.path}")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            raise
        except ConnectionError:
            pass  # client went away; nothing to answer
        except Exception:
            _LOG.exception("connection handler crashed")
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await self._with_timeout(read_request(reader))
            except TimeoutError:
                # Slow headers (or an idle keep-alive connection): answer 408
                # best-effort and drop the connection — the handler must not
                # stay pinned by a client trickling bytes.
                with contextlib.suppress(Exception):
                    await send_response(
                        writer,
                        408,
                        json_body({"error": "timed out waiting for request headers"}),
                        keep_alive=False,
                    )
                return
            except HTTPError as error:
                await send_response(
                    writer,
                    error.status,
                    json_body({"error": error.message}),
                    keep_alive=False,
                )
                return
            if request is None:
                return
            keep_alive = request.keep_alive
            label = f"{request.method} {request.path}"
            started = time.perf_counter()
            failed = True
            try:
                label, handler, name = self._route_for(request)
                reply = await handler(request, reader, name)
                failed = False
            except HTTPError as error:
                reply = _Reply(error.status, json_body({"error": error.message}))
            except ReproError as error:
                status = _status_for(error)
                if status >= 500:
                    _LOG.exception("request %s failed", label)
                reply = _Reply(
                    status, json_body({"error": str(error), "kind": type(error).__name__})
                )
            except Exception as error:
                _LOG.exception("unhandled error serving %s", label)
                reply = _Reply(500, json_body({"error": f"internal error: {error}"}))
            if failed:
                # The request body may be partly unread; the connection's
                # framing is unknown, so answer and close.
                keep_alive = False
            await send_response(
                writer,
                reply.status,
                reply.body,
                content_type=reply.content_type,
                headers=reply.headers,
                keep_alive=keep_alive,
            )
            self.metrics.observe(
                label,
                time.perf_counter() - started,
                error=failed,
                bytes_in=reply.bytes_in,
                bytes_out=len(reply.body),
            )
            if not keep_alive:
                return

    # ------------------------------------------------------------------ #
    # Route handlers
    # ------------------------------------------------------------------ #
    async def _handle_list(
        self, request: HTTPRequest, reader: asyncio.StreamReader, name: str
    ) -> _Reply:
        listing = await self._call(self.repository.list_archives)
        return _Reply(body=json_body({"archives": listing}))

    async def _handle_stats(
        self, request: HTTPRequest, reader: asyncio.StreamReader, name: str
    ) -> _Reply:
        repository = await self._call(self.repository.stats)
        payload = {
            "server": {"host": self.host, "port": self.port},
            "repository": repository,
            "requests": self.metrics.snapshot(),
        }
        return _Reply(body=json_body(payload))

    async def _handle_inspect(
        self, request: HTTPRequest, reader: asyncio.StreamReader, name: str
    ) -> _Reply:
        summary = await self._call(self.repository.inspect, name)
        return _Reply(body=json_body(summary))

    async def _handle_verify(
        self, request: HTTPRequest, reader: asyncio.StreamReader, name: str
    ) -> _Reply:
        deep = not request.flag("shallow")
        report = await self._call(
            functools.partial(self.repository.verify, name, deep=deep)
        )
        return _Reply(body=json_body({"name": name, **report.to_dict()}))

    async def _handle_data(
        self, request: HTTPRequest, reader: asyncio.StreamReader, name: str
    ) -> _Reply:
        range_header = request.headers.get("range")
        if range_header is not None:
            total = await self._call(self.repository.payload_length, name)
            offset, length = parse_range(range_header, total)
            data, total = await self._call(self.repository.read_range, name, offset, length)
            end = offset + len(data) - 1
            return _Reply(
                206,
                data,
                "application/octet-stream",
                {
                    "Content-Range": f"bytes {offset}-{end}/{total}",
                    "Accept-Ranges": "bytes",
                },
            )
        offset = request.int_param("offset") or 0
        length = request.int_param("length")
        if offset < 0 or (length is not None and length < 0):
            raise HTTPError(400, "offset/length must be non-negative")
        data, total = await self._call(self.repository.read_range, name, offset, length)
        return _Reply(
            200,
            data,
            "application/octet-stream",
            {"Accept-Ranges": "bytes", "X-Archive-Bytes": str(total)},
        )

    async def _handle_upload(
        self, request: HTTPRequest, reader: asyncio.StreamReader, name: str
    ) -> _Reply:
        begin = functools.partial(
            self.repository.begin_upload,
            name,
            layout=request.query.get("store", "container"),
            replace=request.flag("replace"),
            wait=not request.flag("nowait"),
            media=request.query.get("media"),
            codec=request.query.get("codec"),
            executor=request.query.get("executor"),
            payload_kind=request.query.get("payload_kind"),
            segment_size=request.int_param("segment_size"),
        )
        session = await self._call(begin)
        summary, received = await self._stream_body(request, reader, name, session)
        return _Reply(201, json_body(summary), bytes_in=received)

    async def _handle_append(
        self, request: HTTPRequest, reader: asyncio.StreamReader, name: str
    ) -> _Reply:
        begin = functools.partial(
            self.repository.begin_append, name, wait=not request.flag("nowait")
        )
        session = await self._call(begin)
        summary, received = await self._stream_body(request, reader, name, session)
        return _Reply(200, json_body(summary), bytes_in=received)

    async def _stream_body(
        self,
        request: HTTPRequest,
        reader: asyncio.StreamReader,
        name: str,
        session: WriteSession,
    ) -> "tuple[dict[str, object], int]":
        """Pump the request body into a write session, then commit.

        Each chunk is written on a worker thread; the write blocks when the
        encode pipeline's bounded queue is full, which pauses this coroutine
        and stops the socket read — end-to-end backpressure.  Any failure
        aborts the session (releasing the archive's writer lock) before the
        error propagates.
        """
        received = 0
        try:
            chunks = iter_body(reader, request).__aiter__()
            while True:
                try:
                    chunk = await self._with_timeout(anext(chunks))
                except StopAsyncIteration:
                    break
                except TimeoutError:
                    # A slowloris body: the client holds the stream open but
                    # stops sending.  408 via the normal error path; the
                    # session aborts below, releasing the writer lock.
                    raise HTTPError(
                        408,
                        f"timed out waiting for request body bytes after "
                        f"{received} received",
                    ) from None
                await self._call(session.write, chunk)
                received += len(chunk)
            summary = await self._call(session.commit)
        except BaseException:
            try:
                await self._call(session.abort)
            except ReproError as abort_error:
                _LOG.warning("abort of write to %r failed: %s", name, abort_error)
            raise
        return summary, received


class ServerHandle:
    """A running background server (from :meth:`ReproServer.start_in_thread`)."""

    def __init__(self, server: ReproServer, thread: threading.Thread):
        self.server = server
        self._thread = thread

    @property
    def base_url(self) -> str:
        return self.server.base_url

    @property
    def port(self) -> int:
        return self.server.port

    def join(self, timeout: "float | None" = None) -> None:
        """Block until the server thread exits (interruptible by Ctrl-C)."""
        self._thread.join(timeout)

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown; joins the server thread."""
        self.server.request_stop()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
