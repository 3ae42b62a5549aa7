"""Prefork multiprocess serving over a shared mmap-backed snapshot.

The single-process server (:mod:`repro.web.server`) scales with
threads, but CPython threads share one GIL — scoring-bound load tops
out near one core.  This module runs N worker *processes* instead:

* the **master** binds the listening socket, forks N workers, and then
  only supervises — it never loads an index, so its memory stays flat
  and its restart cost is trivial;
* each **worker** inherits the listener across ``fork()`` and loads
  the advisor from the snapshot store.  With binary (v4) snapshots the
  load is a ``numpy.memmap`` of the ``advisor.bin`` sidecar, so every
  worker maps the *same* read-only page-cache pages — N workers cost
  one copy of the index plus page tables.  The kernel load-balances
  ``accept()`` across the workers polling the shared, non-blocking
  listener.

Lifecycle (mirroring the threaded server's contract):

* **SIGTERM / SIGINT** (master) — fan-out SIGTERM to every worker;
  each worker runs the PR-6 graceful drain (shed new work, wait for
  in-flight requests, stop) *without* saving a final snapshot — N
  workers racing to write snapshots would be N-1 wasted writes, and
  workers serve a read-only index anyway.  The master exits once the
  last worker is reaped.
* **SIGHUP** (master) — forwarded to every worker; each reloads the
  latest good snapshot off the serving path and swaps it in atomically
  (the ``CURRENT`` flip published by the build side).  In-flight
  requests finish on the old mapping — on Linux an unlinked snapshot
  file stays readable through existing mappings until the last worker
  repoints.
* **worker death** — the master respawns crashed workers.  A worker
  that dies within :data:`QUICK_DEATH_S` of spawn counts as a strike;
  :data:`MAX_STRIKES` consecutive quick deaths abort the master
  instead of fork-bombing a persistent failure (e.g. a corrupt store).

Workers refuse ``POST /api/extend`` with a 409 (``allow_extend=False``)
— in-place extension would diverge the siblings; the supported
ingestion path is build-a-snapshot + SIGHUP.
"""

from __future__ import annotations

import errno
import logging
import os
import signal
import socket
import sys
import threading
import time

from wsgiref.simple_server import WSGIServer

from repro.core.config import (
    DEFAULT_DEADLINE_MS,
    DEFAULT_DRAIN_TIMEOUT_MS,
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_IN_FLIGHT,
)
from repro.core.persistence import PersistenceError
from repro.web.app import AdvisorApp
from repro.web.server import (
    LISTEN_BACKLOG,
    HardenedRequestHandler,
    ThreadingWSGIServer,
    shutdown_gracefully,
)

logger = logging.getLogger("repro.web.prefork")

#: a worker death within this many seconds of its spawn counts as a
#: "quick death" — the signature of a persistent startup failure
QUICK_DEATH_S = 1.0

#: consecutive quick deaths tolerated before the master gives up
MAX_STRIKES = 5


def create_listener(host: str, port: int,
                    backlog: int = LISTEN_BACKLOG) -> socket.socket:
    """Bind and listen before forking, so workers inherit one shared
    accept queue and a ``--port 0`` pick is made exactly once.

    The listener is non-blocking: every worker's accept loop wakes for
    a new connection, and the workers that lose the race must get
    ``BlockingIOError`` (which ``serve_forever`` skips) instead of
    blocking in ``accept()``, where they would never see a SIGTERM
    drain.  Accepted connections are blocking regardless.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(backlog)
    listener.setblocking(False)
    return listener


def server_from_socket(listener: socket.socket,
                       app: AdvisorApp) -> WSGIServer:
    """A :class:`ThreadingWSGIServer` serving an already-bound socket.

    ``bind_and_activate=False`` skips bind+listen; the placeholder
    socket the constructor made is swapped for *listener* and closed.
    The environ fields ``server_bind`` would have set are filled from
    the listener's actual address (which reflects a kernel-assigned
    port when the master bound port 0).
    """
    host, port = listener.getsockname()[:2]
    server = ThreadingWSGIServer((host, port), HardenedRequestHandler,
                                 bind_and_activate=False)
    placeholder = server.socket
    server.socket = listener
    placeholder.close()
    server.server_address = listener.getsockname()
    server.server_name = host
    server.server_port = port
    server.setup_environ()
    server.set_app(app)
    return server


def worker_loop(listener: socket.socket, store, *,
                max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                request_deadline_s: float | None =
                DEFAULT_DEADLINE_MS / 1000.0,
                max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
                drain_timeout_s: float =
                DEFAULT_DRAIN_TIMEOUT_MS / 1000.0) -> int:
    """One worker: load the advisor from *store*, serve *listener*.

    Runs until SIGTERM (graceful drain, no final snapshot — the index
    is read-only here) and answers SIGHUP by reloading the latest good
    snapshot.  Returns the process exit code.
    """
    try:
        advisor = store.load()
    except (PersistenceError, OSError):
        logger.exception("worker %d could not load a snapshot",
                         os.getpid())
        return 1
    app = AdvisorApp(advisor,
                     max_body_bytes=max_body_bytes,
                     request_deadline_s=request_deadline_s,
                     max_in_flight=max_in_flight,
                     snapshot_store=store,
                     allow_extend=False)
    server = server_from_socket(listener, app)

    def _on_sigterm(signum, frame) -> None:
        # shutdown() blocks until serve_forever() returns, so the
        # drain sequence runs off the signal handler's thread
        threading.Thread(
            target=shutdown_gracefully,
            args=(server, app, drain_timeout_s),
            kwargs={"save_snapshot": False},
            name="drain", daemon=True).start()

    def _on_sighup(signum, frame) -> None:
        def _reload() -> None:
            try:
                tool = store.load()
            except (PersistenceError, OSError):
                logger.exception("worker %d reload failed; serving "
                                 "the previous advisor", os.getpid())
                return
            app.reload(tool)

        threading.Thread(target=_reload, name="reload",
                         daemon=True).start()

    # the master fans SIGTERM out explicitly; a terminal Ctrl-C also
    # reaches the whole foreground process group, so workers ignore
    # SIGINT and rely on the master's orderly TERM
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGHUP, _on_sighup)
    logger.info("worker %d serving generation %d", os.getpid(),
                advisor.generation)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


#: signals whose master handlers a freshly forked worker must not run
_STARTUP_SIGNALS = {signal.SIGTERM, signal.SIGINT, signal.SIGHUP}


def _spawn(listener: socket.socket, store, options: dict) -> int:
    # the master's handlers signal the siblings; a worker must never run
    # them, so these signals stay blocked across the fork until the
    # child has reset them: a TERM then ends the not-yet-serving worker,
    # and a HUP is moot (the worker is about to load the latest
    # snapshot anyway).  worker_loop installs the serving handlers.
    signal.pthread_sigmask(signal.SIG_BLOCK, _STARTUP_SIGNALS)
    try:
        pid = os.fork()
        if not pid:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGHUP, signal.SIG_IGN)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STARTUP_SIGNALS)
    if pid:
        return pid
    # child: never return into the master's stack — any exception ends
    # the process, and os._exit skips atexit/handler teardown that
    # belongs to the master
    try:
        code = worker_loop(listener, store, **options)
    except BaseException:
        logger.exception("worker %d crashed", os.getpid())
        code = 1
    os._exit(code)


def run_prefork(store, host: str = "127.0.0.1", port: int = 8000,
                workers: int = 2, *,
                name: str | None = None,
                max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                request_deadline_s: float | None =
                DEFAULT_DEADLINE_MS / 1000.0,
                max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
                drain_timeout_s: float =
                DEFAULT_DRAIN_TIMEOUT_MS / 1000.0) -> int:
    """Master loop: bind, fork *workers* children over *store*, supervise.

    Blocks until SIGTERM/SIGINT has been fanned out and every worker
    is reaped.  Returns the master's exit code (non-zero when the
    quick-death strike budget was exhausted).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not hasattr(os, "fork"):  # pragma: no cover - non-posix
        raise RuntimeError("prefork serving requires os.fork()")
    options = {
        "max_body_bytes": max_body_bytes,
        "request_deadline_s": request_deadline_s,
        "max_in_flight": max_in_flight,
        "drain_timeout_s": drain_timeout_s,
    }
    listener = create_listener(host, port)
    bound_port = listener.getsockname()[1]
    children: dict[int, float] = {}   # pid -> spawn time
    shutting_down = False
    exit_code = 0

    def _fan_out(signum, frame) -> None:
        nonlocal shutting_down
        shutting_down = True
        for pid in list(children):
            _kill(pid, signal.SIGTERM)

    def _forward_hup(signum, frame) -> None:
        for pid in list(children):
            _kill(pid, signal.SIGHUP)

    signal.signal(signal.SIGTERM, _fan_out)
    signal.signal(signal.SIGINT, _fan_out)
    signal.signal(signal.SIGHUP, _forward_hup)

    for _ in range(workers):
        children[_spawn(listener, store, options)] = time.monotonic()
    label = name if name is not None else "snapshot store"
    # flush so wrappers capturing a pipe (the CI smoke test) see the
    # port before the first request
    print(f"Serving {label!r} (prefork, {len(children)} workers) on "
          f"http://{host}:{bound_port}/", flush=True)

    strikes = 0
    while children:
        try:
            pid, status = os.waitpid(-1, 0)
        except InterruptedError:  # pragma: no cover - pre-PEP-475 path
            continue
        except ChildProcessError:
            break
        spawned_at = children.pop(pid, None)
        if spawned_at is None:
            continue
        if shutting_down:
            continue
        lifetime = time.monotonic() - spawned_at
        logger.warning("worker %d exited (status %d) after %.1fs",
                       pid, status, lifetime)
        if lifetime < QUICK_DEATH_S:
            strikes += 1
            if strikes >= MAX_STRIKES:
                logger.error("%d consecutive quick worker deaths; "
                             "shutting down instead of respawning",
                             strikes)
                exit_code = 1
                shutting_down = True
                for other in list(children):
                    _kill(other, signal.SIGTERM)
                continue
        else:
            strikes = 0
        children[_spawn(listener, store, options)] = time.monotonic()
    listener.close()
    return exit_code


def _kill(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except OSError as error:  # pragma: no cover - reap race
        if error.errno != errno.ESRCH:
            raise


if __name__ == "__main__":  # pragma: no cover - manual smoke entry
    from repro.core.snapshots import SnapshotStore

    logging.basicConfig(level=logging.INFO)
    sys.exit(run_prefork(SnapshotStore(sys.argv[1]),
                         port=int(sys.argv[2]) if len(sys.argv) > 2
                         else 8000))
