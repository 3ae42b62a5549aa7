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

Hardening over the stock ``wsgiref`` server: per-connection socket
timeouts (a stalled client cannot wedge the process), access/error
lines routed through :mod:`logging` instead of raw stderr, and the
app-level payload cap and request deadline are configurable here.
Each response is buffered and leaves in one send (wsgiref writes the
status line, ``Date``, ``Server``, the header block and the body
separately).

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

import logging
import signal
import threading
from collections import deque
from socketserver import ThreadingMixIn
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

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


class HardenedRequestHandler(WSGIRequestHandler):
    """Request handler with socket timeouts, quiet logging and one
    send per response."""

    #: seconds a connection may sit idle before being dropped
    timeout = 30
    #: response buffer, flushed once the body is written (a larger
    #: body goes out in more sends)
    wbufsize = 64 * 1024

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.info("%s - %s", self.address_string(), format % args)

    def log_error(self, format: str, *args) -> None:  # noqa: A002
        logger.warning("%s - %s", self.address_string(), format % args)


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """WSGI server answering connections on reusable handler threads.

    :meth:`process_request` hands each accepted connection to an idle
    handler thread, or starts a new one when none is idle.  Each
    connection is still served by :meth:`process_request_thread`
    (error handling and ``shutdown_request``).  Handlers are daemon
    threads, so a hung or slow connection never holds process exit.
    """

    daemon_threads = True

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
    server_class = ThreadingWSGIServer if threads else WSGIServer
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
