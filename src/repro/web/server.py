"""Development WSGI server for the advising web app.

Equivalent to the artifact's ``./run.sh`` (which launched the Flask
app under Gunicorn with a configurable host/port): builds the advisor
once, then serves it.

Concurrency: by default connections are answered by reusable handler
threads (:class:`ThreadingWSGIServer`) over a single shared
:class:`AdvisorApp`.  A thread that finishes a connection waits for
the next one, and a new thread starts only when none is idle; at most
:data:`MAX_IDLE_HANDLERS` wait, so the extra threads of a burst exit
after their connection.  The advisor's index is published as an
immutable handle and every mutable counter on the serving path is
lock-guarded, so the only scaling limit is the scoring work itself;
nothing in the program keeps per-thread state, so a reused thread
carries nothing from one request to the next.  ``threads=False``
restores the strictly serial server (useful for step-debugging).

The request path (:class:`HardenedRequestHandler`) answers one
HTTP/1.x request per connection.  It receives the request head with
``recv``, parses it by :mod:`http.server`'s and :mod:`email`'s rules,
builds the WSGI environ ``wsgiref`` would build, and sends the whole
response with one ``sendall``: the bytes wsgiref's server sends,
without its ``email`` parser, its per-connection file objects or its
``ServerHandler``.  Hardening over the stock server: per-connection
socket timeouts (a stalled client cannot wedge the process),
access/error lines routed through :mod:`logging` instead of raw
stderr, and the app-level payload cap and request deadline are
configurable here.

Lifecycle signals (:func:`run`):

* **SIGTERM** — graceful drain: the app stops admitting gated work
  (503 + ``Retry-After``), in-flight requests get ``drain_timeout_s``
  to finish, a final snapshot is saved when a store is configured,
  then the server exits;
* **SIGHUP** — zero-downtime reload: the latest good snapshot is
  loaded off the serving path and swapped in atomically (same code
  path as ``POST /api/reload``).
"""

from __future__ import annotations

import io
import logging
import re
import signal
import sys
import threading
import time
from collections import deque
from http.client import LineTooLong
from socketserver import ThreadingMixIn
from urllib.parse import unquote
from wsgiref.handlers import BaseHandler, format_date_time
from wsgiref.simple_server import (
    WSGIRequestHandler,
    WSGIServer,
    make_server,
    software_version,
)
from wsgiref.util import FileWrapper

from repro.core.advisor import AdvisingTool
from repro.core.config import (
    DEFAULT_DEADLINE_MS,
    DEFAULT_DRAIN_TIMEOUT_MS,
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_IN_FLIGHT,
)
from repro.core.persistence import PersistenceError
from repro.web.app import AdvisorApp

logger = logging.getLogger("repro.web.server")


#: handler threads kept waiting for the next connection; the extra
#: threads a burst starts exit after their connection.  The bound caps
#: the memory idle threads hold (each keeps its stack mapped, with its
#: touched pages resident) after a burst; it is not tuned for speed:
#: the benchmark's clients hold 2 connections, so any bound of 2 or
#: more serves them the same
MAX_IDLE_HANDLERS = 16

#: connections the kernel queues for ``accept()``, on every listener
#: (socketserver's default of 5 makes a burst of clients wait out a
#: SYN retransmit, a second or more)
LISTEN_BACKLOG = 128

#: :mod:`http.server`'s bounds on a request head: bytes per line
#: (terminator included) and header lines (the blank line included)
MAX_LINE = 65536
MAX_HEADERS = 100

#: bytes asked of one ``recv`` while reading a request head
_RECV_BYTES = 65536

#: a line :mod:`email.feedparser` takes into the header block: a
#: continuation, an envelope ``From `` line, or a name and a colon
_HEADER_LINE = re.compile(r"From |[\041-\071\073-\176]*:|[\t ]")
#: one line with its terminator, split as :mod:`email` splits
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def header_fields(block: str) -> list[tuple[str, str]]:
    """The ``(name, value)`` fields of a request's header lines, as
    :mod:`http.client` gets them from :mod:`email` (``compat32``).

    *block* is the header lines decoded as ISO-8859-1.  The block ends
    at the first line that is not a header line (a blank line, no
    colon, a space in the name); a line starting with a space or tab
    continues the previous field (its terminator kept); ``From `` lines
    and lines with an empty name are skipped.
    """
    fields: list[tuple[str, str]] = []
    name = None
    value = ""
    for line in _LINE.findall(block):
        if not _HEADER_LINE.match(line):
            break
        if line[0] in " \t":
            if name is not None:
                value += line
            continue
        if name is not None:
            fields.append((name, value.rstrip("\r\n")))
            name = None
        colon = line.find(":")
        if colon > 0 and not line.startswith("From "):
            name = line[:colon]
            value = line[colon + 1:].lstrip(" \t")
    if name is not None:
        fields.append((name, value.rstrip("\r\n")))
    return fields


class _RequestBody(io.RawIOBase):
    """``wsgi.input``'s raw stream: the bytes received with the head,
    then the socket (under an :class:`io.BufferedReader`, so reads
    behave as a socket file's do)."""

    def __init__(self, sock, received: bytes) -> None:
        super().__init__()
        self._sock = sock
        self._received = memoryview(received)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self._received:
            count = min(len(buffer), len(self._received))
            buffer[:count] = self._received[:count]
            self._received = self._received[count:]
            return count
        return self._sock.recv_into(buffer)


class _Response:
    """One WSGI response, laid out byte for byte as ``wsgiref``'s
    ``ServerHandler`` writes it, and held until it is sent whole."""

    __slots__ = ("modern", "status", "headers", "result", "parts",
                 "size", "started")

    def __init__(self, modern: bool) -> None:
        #: False for an HTTP/0.9 request: the body goes alone
        self.modern = modern
        self.status = self.headers = self.result = None
        self.parts: list[bytes] = []
        #: body bytes, for the access line
        self.size = 0
        #: the status line and headers are laid out
        self.started = False

    def start_response(self, status: str, headers: list,
                       exc_info=None):
        if exc_info:
            try:
                if self.started:
                    raise exc_info[1].with_traceback(exc_info[2])
            finally:
                exc_info = None
        elif self.headers is not None:
            raise AssertionError("Headers already set!")
        self.status = status
        self.headers = headers
        return self.write

    def write(self, data: bytes) -> None:
        if type(data) is not bytes:
            raise AssertionError("write() argument must be a bytes "
                                 "instance")
        if not self.status:
            raise AssertionError("write() before start_response()")
        if not self.started:
            # a one-block body gets its length, as wsgiref sets it
            try:
                blocks = len(self.result)
            except (TypeError, AttributeError, NotImplementedError):
                blocks = 0
            self._start(str(len(data)) if blocks == 1 else None)
        self.size += len(data)
        self.parts.append(data)

    def finish(self) -> None:
        """Lay out the headers of a response that wrote no body."""
        if not self.started:
            self._start("0")

    def fail(self) -> None:
        """Replace a response that has not started with wsgiref's
        error page."""
        self.status = BaseHandler.error_status
        self.headers = BaseHandler.error_headers[:]
        self.result = [BaseHandler.error_body]
        self.write(BaseHandler.error_body)

    def _start(self, length: str | None) -> None:
        self.started = True
        if not self.modern:
            return
        headers = self.headers
        names = {name.lower() for name, _ in headers}
        lines = [f"HTTP/1.0 {self.status}\r\n"]
        if "date" not in names:
            lines.append(f"Date: {format_date_time(time.time())}\r\n")
        if "server" not in names:
            lines.append(f"Server: {software_version}\r\n")
        lines.extend(f"{name}: {value}\r\n" for name, value in headers)
        if length is not None and "content-length" not in names:
            lines.append(f"Content-Length: {length}\r\n")
        lines.append("\r\n")
        self.parts.append("".join(lines).encode("iso-8859-1"))


class HardenedRequestHandler(WSGIRequestHandler):
    """One request per connection on a lean path: the head read with
    ``recv``, the response sent with one ``sendall``, and socket
    timeouts and quiet logging.

    Parsing follows :meth:`BaseHTTPRequestHandler.parse_request` and
    :mod:`email`; a malformed request is answered by the inherited
    :meth:`send_error`, and the environ holds what ``wsgiref`` puts
    there, except the copy of ``os.environ``.
    """

    #: seconds a connection may sit idle before being dropped
    timeout = 30

    def setup(self) -> None:
        self.connection = self.request
        self.request.settimeout(self.timeout)

    def finish(self) -> None:
        """Nothing to flush: every answer leaves in one send."""

    def handle(self) -> None:
        """Read, parse and answer one request."""
        head = self._read_head()
        if head is None:
            return
        environ = self._environ(*head)
        response = _Response(self.request_version != "HTTP/0.9")
        try:
            result = self.server.get_app()(environ,
                                           response.start_response)
            response.result = result
            try:
                for data in result:
                    response.write(data)
                response.finish()
            finally:
                if hasattr(result, "close"):
                    result.close()
        except (ConnectionAbortedError, BrokenPipeError,
                ConnectionResetError):
            # the client went away; wsgiref drops these quietly
            logger.debug("%s - connection lost", self.address_string())
        except Exception:
            logger.exception("%s - error serving %r",
                             self.address_string(), self.requestline)
            if not response.started:
                response.fail()
                self.log_request(response.status.split(" ", 1)[0],
                                 response.size)
        else:
            self.log_request(response.status.split(" ", 1)[0],
                             response.size)
        self._send(b"".join(response.parts))

    def _read_head(self):
        """Receive the request line and header lines, each as
        :mod:`http.server` reads it: up to and including a line feed,
        or what is left at the end of the stream (``b""`` when
        nothing).

        Returns the header fields and the bytes received after the
        head, or None once the request is answered or dropped.
        """
        recv = self.request.recv
        buffer = recv(_RECV_BYTES)
        start = scan = 0    # the current line; where to look for its end
        in_headers = False
        lines: list = []
        while True:
            end = buffer.find(b"\n", scan) + 1
            if end:
                line = buffer[start:end]
            elif len(buffer) - start > MAX_LINE:
                line = buffer[start:]
                end = len(buffer)
            else:
                scan = len(buffer)
                chunk = recv(_RECV_BYTES)
                if chunk:
                    if type(buffer) is bytes:
                        buffer = bytearray(buffer)
                    buffer += chunk
                    continue
                line = buffer[start:]   # end of stream
                end = len(buffer)
            start = scan = end
            if not in_headers:
                if len(line) > MAX_LINE:
                    self.requestline = self.request_version = ""
                    self.command = ""
                    self._refuse(414)
                    return None
                if not self._parse_request_line(line):
                    return None
                in_headers = True
                continue
            if len(line) > MAX_LINE:
                self._refuse(431, "Line too long",
                             str(LineTooLong("header line")))
                return None
            lines.append(line)
            if len(lines) > MAX_HEADERS:
                self._refuse(431, "Too many headers",
                             f"got more than {MAX_HEADERS} headers")
                return None
            if line in (b"\r\n", b"\n", b""):
                break
        fields = header_fields(b"".join(lines).decode("iso-8859-1"))
        return fields, bytes(buffer[start:])

    def _parse_request_line(self, raw) -> bool:
        """Parse the request line as
        :meth:`BaseHTTPRequestHandler.parse_request` does; False once
        it is answered or dropped."""
        self.command = None
        self.request_version = version = self.default_request_version
        requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError(version)
                base_version_number = version.split("/", 1)[1]
                parts = base_version_number.split(".")
                if len(parts) != 2 or not all(
                        part.isdigit() and len(part) <= 10
                        for part in parts):
                    raise ValueError(version)
                version_number = int(parts[0]), int(parts[1])
            except ValueError:
                self._refuse(400, f"Bad request version ({version!r})")
                return False
            if version_number >= (2, 0):
                self._refuse(505, "Invalid HTTP version "
                             f"({base_version_number})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self._refuse(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            self._refuse(400, f"Bad HTTP/0.9 request type ({command!r})")
            return False
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        return True

    def _environ(self, fields: list, received: bytes) -> dict:
        """The WSGI environ ``wsgiref`` builds for this request, less
        its copy of ``os.environ``."""
        environ = self.server.base_environ.copy()
        environ["SERVER_PROTOCOL"] = self.request_version
        environ["SERVER_SOFTWARE"] = self.server_version
        environ["REQUEST_METHOD"] = self.command
        path, _, query = self.path.partition("?")
        environ["PATH_INFO"] = unquote(path, "iso-8859-1")
        environ["QUERY_STRING"] = query
        host = self.address_string()
        if host != self.client_address[0]:
            environ["REMOTE_HOST"] = host
        environ["REMOTE_ADDR"] = self.client_address[0]
        content_type = length = None
        for name, value in fields:
            lowered = name.lower()
            if lowered == "content-type" and content_type is None:
                content_type = value
            elif lowered == "content-length" and length is None:
                length = value
        environ["CONTENT_TYPE"] = (
            "text/plain" if content_type is None else content_type)
        if length:
            environ["CONTENT_LENGTH"] = length
        for name, value in fields:
            key = name.replace("-", "_").upper()
            if key in environ:
                continue    # CONTENT_TYPE, CONTENT_LENGTH and the like
            key = "HTTP_" + key
            if key in environ:
                environ[key] += "," + value.strip()
            else:
                environ[key] = value.strip()
        environ["wsgi.input"] = io.BufferedReader(
            _RequestBody(self.request, received))
        environ["wsgi.errors"] = sys.stderr
        environ["wsgi.version"] = (1, 0)
        environ["wsgi.run_once"] = False
        environ["wsgi.url_scheme"] = "http"
        environ["wsgi.multithread"] = False
        environ["wsgi.multiprocess"] = False
        environ["wsgi.file_wrapper"] = FileWrapper
        return environ

    def _refuse(self, code: int, message: str | None = None,
                explain: str | None = None) -> None:
        """Answer a malformed request with the stock ``send_error``."""
        self.wfile = io.BytesIO()
        self.send_error(code, message, explain)
        self._send(self.wfile.getvalue())

    def _send(self, data: bytes) -> None:
        try:
            self.request.sendall(data)
        except OSError as error:
            # as the stock handler's final flush: the client is gone
            logger.debug("%s - send failed: %s", self.address_string(),
                         error)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if logger.isEnabledFor(logging.INFO):
            logger.info("%s - %s", self.address_string(), format % args)

    def log_error(self, format: str, *args) -> None:  # noqa: A002
        logger.warning("%s - %s", self.address_string(), format % args)


class SerialWSGIServer(WSGIServer):
    """The serial WSGI server (``threads=False``): wsgiref's, with a
    listen backlog of :data:`LISTEN_BACKLOG`."""

    request_queue_size = LISTEN_BACKLOG


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """WSGI server answering connections on reusable handler threads.

    :meth:`process_request` hands each accepted connection to an idle
    handler thread, or starts a new one when none is idle.  Each
    connection is still served by :meth:`process_request_thread`
    (error handling and ``shutdown_request``).  Handlers are daemon
    threads, so a hung or slow connection never holds process exit.
    """

    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, server_address, RequestHandlerClass,  # noqa: N803
                 bind_and_activate: bool = True) -> None:
        # set before the base constructor, whose failed bind calls
        # server_close()
        self._pool = threading.Condition()
        # connections handed to idle handlers and not yet picked up
        # egeria: guarded-by[self._pool]
        self._handoff: deque = deque()
        self._idle = 0  # egeria: guarded-by[self._pool]
        self._closing = False  # egeria: guarded-by[self._pool]
        super().__init__(server_address, RequestHandlerClass,
                         bind_and_activate)

    def process_request(self, request, client_address) -> None:
        """Hand the connection to an idle handler, or start one."""
        with self._pool:
            if self._idle > len(self._handoff):
                self._handoff.append((request, client_address))
                self._pool.notify()
                return
        threading.Thread(target=self._handle_connections,
                         args=(request, client_address),
                         daemon=self.daemon_threads).start()

    def _handle_connections(self, request, client_address) -> None:
        """One handler thread: serve a connection, then wait for the
        next unless enough handlers already wait or the server closed."""
        while True:
            self.process_request_thread(request, client_address)
            with self._pool:
                if self._closing or self._idle >= MAX_IDLE_HANDLERS:
                    return
                self._idle += 1
                while not self._handoff and not self._closing:
                    self._pool.wait()
                self._idle -= 1
                if not self._handoff:
                    return
                request, client_address = self._handoff.popleft()

    def server_close(self) -> None:
        """Close the listener and wake the idle handlers, which exit.

        Handlers still serving a connection are not waited for: they
        finish it, then exit, or end with the process.  Shutdown thus
        stays bounded by the drain timeout, even while a client holds a
        connection open without finishing its request.
        """
        super().server_close()
        with self._pool:
            self._closing = True
            self._pool.notify_all()


def serve(
    advisor: AdvisingTool,
    host: str = "127.0.0.1",
    port: int = 8000,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    request_deadline_s: float | None = DEFAULT_DEADLINE_MS / 1000.0,
    threads: bool = True,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    snapshot_store=None,
) -> WSGIServer:
    """Create (but do not start) a WSGI server for *advisor*.

    Call ``serve_forever()`` on the returned server to run it, or
    ``handle_request()`` to process a single request (useful in
    tests).  Binding to port 0 picks a free port
    (``server.server_port`` reports it).  The returned server's
    ``.application`` is the :class:`AdvisorApp`, so its counters,
    lifecycle methods and ``/healthz`` view are reachable from test
    code.  ``threads`` selects the concurrent server (default) or the
    serial one.  ``snapshot_store`` enables ``POST /api/reload`` and
    the SIGHUP/SIGTERM snapshot behavior of :func:`run`.
    """
    app = AdvisorApp(advisor, max_body_bytes=max_body_bytes,
                     request_deadline_s=request_deadline_s,
                     max_in_flight=max_in_flight,
                     snapshot_store=snapshot_store)
    server_class = ThreadingWSGIServer if threads else SerialWSGIServer
    return make_server(host, port, app, server_class=server_class,
                       handler_class=HardenedRequestHandler)


def shutdown_gracefully(server: WSGIServer, app: AdvisorApp,
                        drain_timeout_s: float,
                        save_snapshot: bool = True) -> bool:
    """The SIGTERM sequence, callable directly from tests.

    Sheds new work, waits up to *drain_timeout_s* for in-flight
    requests, saves a final snapshot when the app has a store, then
    stops the accept loop.  Returns True when the drain completed
    before the deadline.
    """
    drained = app.drain(drain_timeout_s)
    if not drained:
        logger.warning("drain deadline expired with %d requests "
                       "in flight; stopping anyway", app.in_flight)
    if save_snapshot and app.snapshot_store is not None:
        try:
            info = app.snapshot_store.save(app.advisor)
            logger.info("final snapshot %d saved", info.version)
        except (PersistenceError, OSError):
            logger.exception("final snapshot failed; last committed "
                             "snapshot remains current")
    server.shutdown()
    return drained


def run(advisor: AdvisingTool, host: str = "127.0.0.1",
        port: int = 8000,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        request_deadline_s: float | None = DEFAULT_DEADLINE_MS / 1000.0,
        threads: bool = True,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        snapshot_store=None,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_MS / 1000.0,
        ) -> None:  # pragma: no cover - interactive
    """Serve *advisor* until interrupted (SIGTERM drains gracefully,
    SIGHUP hot-reloads the latest snapshot)."""
    server = serve(advisor, host, port,
                   max_body_bytes=max_body_bytes,
                   request_deadline_s=request_deadline_s,
                   threads=threads,
                   max_in_flight=max_in_flight,
                   snapshot_store=snapshot_store)
    app: AdvisorApp = server.get_app()

    def _on_sigterm(signum, frame) -> None:
        # shutdown() blocks until serve_forever() returns, so the
        # sequence runs off the signal handler's thread
        threading.Thread(
            target=shutdown_gracefully,
            args=(server, app, drain_timeout_s),
            name="drain", daemon=True).start()

    def _on_sighup(signum, frame) -> None:
        if app.snapshot_store is None:
            logger.warning("SIGHUP ignored: no snapshot store")
            return

        def _reload() -> None:
            try:
                tool = app.snapshot_store.load()
            except (PersistenceError, OSError):
                logger.exception("SIGHUP reload failed; serving the "
                                 "previous advisor")
                return
            app.reload(tool)

        threading.Thread(target=_reload, name="reload",
                         daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
        signal.signal(signal.SIGHUP, _on_sighup)
    except ValueError:
        # not the main thread (embedded run); signals stay default
        logger.debug("signal handlers not installed")

    mode = "threaded" if threads else "single-threaded"
    print(f"Serving {advisor.name!r} ({mode}) on "
          f"http://{host}:{server.server_port}/", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        app.begin_drain()
    finally:
        server.server_close()
