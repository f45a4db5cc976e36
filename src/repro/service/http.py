"""The one HTTP/1.1 front end of the analysis server and the fleet router.

Both fronts speak the same hand-rolled, stdlib-only dialect: request line,
headers, ``Content-Length`` bodies (chunked uploads are refused with 501),
and persistent connections.  :class:`HttpFrontEnd` owns everything the two
share — the listener, the keep-alive loop, per-request accounting, the
route table and the drain skeleton — so a client cannot tell whether it is
talking to a single worker or to the router in front of a fleet.  The
worker server and the router supply only their job handler, ``/healthz``
payload, ``/metrics`` text and drain hook.

Keep-alive rules (HTTP/1.1 defaults, deliberately minimal):

* a connection stays open after a response unless the request carried
  ``Connection: close``, the server is draining, or the response itself is
  an error the connection cannot recover from (malformed head);
* an EOF at a request boundary is a clean close, not an error — clients
  that open one connection per request (the blocking
  :class:`~repro.service.client.ServiceClient`) hit exactly this path;
* the response always announces its intent in a ``Connection`` header so
  pooled clients know whether the socket is reusable.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time

from repro.errors import ReproError

#: HTTP status reasons for the subset of codes the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

#: POST endpoints that run analysis jobs (``/<kind>`` for each job kind).
JOB_ROUTES = ("/analyze", "/certify", "/lint", "/infer", "/fuzz")


class HttpError(ReproError):
    """Abort the current request with this status and message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def read_head(reader):
    """Parse one request head; ``None`` on clean EOF at a request boundary.

    Returns ``(method, path, headers)`` with header names lower-cased and
    the query string stripped from the path.
    """
    raw_line = await reader.readline()
    if not raw_line:
        return None  # client closed between requests: clean keep-alive end
    request_line = raw_line.decode("latin-1").rstrip("\r\n")
    if not request_line:
        raise HttpError(400, "empty request")
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, path, _version = parts
    headers = {}
    while True:
        line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not line:
            break
        if len(headers) > 100:
            raise HttpError(400, "too many headers")
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, path.split("?", 1)[0], headers


async def read_body(reader, method: str, headers: dict, *, max_body: int,
                    read_timeout: float) -> bytes:
    """Read a ``Content-Length`` body (POST only; empty for other methods)."""
    if method != "POST":
        return b""
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked uploads are not supported")
    raw_length = headers.get("content-length")
    if raw_length is None:
        raise HttpError(411, "POST requires Content-Length")
    try:
        length = int(raw_length)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {raw_length!r}")
    if length < 0:
        raise HttpError(400, f"bad Content-Length {raw_length!r}")
    if length > max_body:
        raise HttpError(
            413, f"request body of {length} bytes exceeds limit {max_body}"
        )
    try:
        return await asyncio.wait_for(
            reader.readexactly(length), timeout=read_timeout
        )
    except asyncio.TimeoutError:
        raise HttpError(408, "timed out reading request body")


def encode_response(status: int, payload, content_type: str, *,
                    keep_alive: bool, extra_headers: dict | None = None) -> bytes:
    """Serialise one response (dict/list payloads become indented JSON)."""
    if isinstance(payload, (dict, list)):
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    elif isinstance(payload, bytes):
        body = payload
    else:
        body = str(payload).encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if status == 429 and not (extra_headers and "Retry-After" in extra_headers):
        head += "Retry-After: 1\r\n"
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    return head.encode("latin-1") + body


async def write_response(writer, status: int, payload, content_type: str, *,
                         keep_alive: bool, extra_headers: dict | None = None) -> None:
    writer.write(encode_response(
        status, payload, content_type,
        keep_alive=keep_alive, extra_headers=extra_headers,
    ))
    await writer.drain()


def wants_close(headers: dict) -> bool:
    """Did the request ask for the connection to be closed after the reply?"""
    return "close" in headers.get("connection", "").lower()


class HttpFrontEnd:
    """Listener, keep-alive request loop, accounting, routing and drain.

    A subclass sets ``config`` (``host``, ``port``, ``max_body``,
    ``read_timeout``, ``drain_timeout``) and ``telemetry`` (a
    ``requests`` counter, a ``request_seconds`` histogram and an
    ``inflight_requests`` gauge, under its own series names), opens the
    listener with :meth:`_listen` from its ``start()``, and implements
    four hooks:

    * ``_jobs(kind, payload)`` — answer one job request (a parsed JSON
      body) with its response object;
    * ``_health()`` — the ``/healthz`` payload (503 while draining);
    * ``_metrics()`` — the ``/metrics`` exposition text;
    * ``_drain_backend(deadline)`` — release the back end after the
      listener has closed; it waits for in-flight requests with
      :meth:`_wait_idle` at whatever point suits it.
    """

    def __init__(self) -> None:
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._started = time.monotonic()
        self._draining = False
        self._active = 0  # requests currently being parsed/served
        self._connections: dict = {}  # writer -> busy flag (idle keep-alives)
        self._idle = asyncio.Event()  # set whenever _active == 0
        self._idle.set()
        self._stopped = asyncio.Event()  # set when the drain completes
        self._tasks: list = []  # background tasks cancelled by the drain
        self._drain_task = None

    # -- hooks ---------------------------------------------------------------

    async def _jobs(self, kind: str, payload) -> dict:
        raise NotImplementedError

    def _health(self) -> dict:
        raise NotImplementedError

    async def _metrics(self) -> str:
        raise NotImplementedError

    async def _drain_backend(self, deadline: float) -> None:
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------

    async def _listen(self) -> None:
        """Open the listener on the configured address."""
        self._started = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _spawn(self, coroutine) -> None:
        """Run a background task until the drain begins."""
        self._tasks.append(asyncio.get_running_loop().create_task(coroutine))

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.begin_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    def begin_drain(self) -> None:
        """Idempotently start the graceful shutdown sequence."""
        if self._draining:
            return
        self._draining = True
        self._drain_task = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        # idle keep-alive connections hold no work; close them so the
        # request loop sees EOF and exits cleanly
        for writer, busy in list(self._connections.items()):
            if not busy:
                writer.close()
        await self._drain_backend(time.monotonic() + self.config.drain_timeout)
        self._stopped.set()

    async def _wait_idle(self, deadline: float) -> None:
        """Wait (until ``deadline``) for every in-flight request to finish."""
        remaining = max(0.0, deadline - time.monotonic())
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=remaining or 0.05)
        except asyncio.TimeoutError:  # pragma: no cover - only on stuck work
            pass

    async def serve_forever(self) -> None:
        """Run until a signal (or :meth:`begin_drain`) completes the drain."""
        if self._server is None:
            await self.start()
        self.install_signal_handlers()
        await self._stopped.wait()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        """Serve one connection: a keep-alive loop of request/response."""
        self._connections[writer] = False
        try:
            first = True
            while True:
                keep_alive = await self._serve_one(reader, writer, first)
                first = False
                if not keep_alive:
                    break
        finally:
            self._connections.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, reader, writer, first: bool) -> bool:
        """Serve one request; returns whether the connection stays open."""
        try:
            head = await asyncio.wait_for(
                read_head(reader), timeout=self.config.read_timeout
            )
        except asyncio.TimeoutError:
            if first:
                # a fresh connection that never sent a head gets told why;
                # an idle keep-alive just expires silently
                started = self._begin_request(writer)
                try:
                    await self._respond_safely(
                        writer, 408, {"error": "timed out reading request head"}
                    )
                finally:
                    self._end_request(writer, 408, "?", started)
            return False
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        if head is None:
            return False  # clean EOF between requests
        started = self._begin_request(writer)
        endpoint, status = "?", 500
        keep_alive = True
        try:
            method, path, headers = head
            endpoint = path
            if wants_close(headers):
                keep_alive = False
            body = await read_body(
                reader, method, headers,
                max_body=self.config.max_body,
                read_timeout=self.config.read_timeout,
            )
            status, payload, content_type = await self._route(method, path, body)
            if self._draining:
                keep_alive = False
            await write_response(
                writer, status, payload, content_type, keep_alive=keep_alive
            )
        except HttpError as exc:
            status = exc.status
            keep_alive = keep_alive and status in (404, 405, 429, 503) and not self._draining
            keep_alive = await self._respond_safely(
                writer, status, {"error": str(exc)}, keep_alive=keep_alive
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            status = 0  # client went away; nothing to answer
            keep_alive = False
        except Exception as exc:  # noqa: BLE001 - the loop must survive anything
            status = 500
            keep_alive = False
            await self._respond_safely(
                writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        finally:
            self._end_request(writer, status, endpoint, started)
        return keep_alive

    def _begin_request(self, writer) -> float:
        self._active += 1
        if writer in self._connections:
            self._connections[writer] = True
        self._idle.clear()
        self.telemetry.inflight_requests.inc()
        return time.perf_counter()

    def _end_request(self, writer, status: int, endpoint: str, started: float) -> None:
        self.telemetry.requests.inc(endpoint=endpoint, status=str(status))
        self.telemetry.request_seconds.observe(time.perf_counter() - started)
        self.telemetry.inflight_requests.dec()
        if writer in self._connections:
            self._connections[writer] = False
        self._active -= 1
        if self._active == 0:
            self._idle.set()

    async def _respond_safely(
        self, writer, status: int, payload, keep_alive: bool = False
    ) -> bool:
        """Write an error response; False when the client is already gone."""
        try:
            await write_response(
                writer, status, payload, "application/json", keep_alive=keep_alive
            )
        except (ConnectionError, OSError):
            return False
        return keep_alive

    # -- routing -------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET /healthz")
            status = 503 if self._draining else 200
            return status, self._health(), "application/json"
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET /metrics")
            return 200, await self._metrics(), "text/plain; version=0.0.4"
        if path in JOB_ROUTES:
            if method != "POST":
                raise HttpError(405, f"use POST {path}")
            if self._draining:
                raise HttpError(503, "service is draining")
            try:
                payload = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise HttpError(400, f"request body is not valid JSON: {exc}")
            return 200, await self._jobs(path.lstrip("/"), payload), "application/json"
        raise HttpError(404, f"no route for {path}")
