"""Prefork serving: inherited-listener plumbing, the read-only worker
contract, and one real multiprocess run through the CLI.

The master binds the socket once; every worker wraps the *same*
inherited listener in its own WSGI server (``server_from_socket``),
so the kernel load-balances accepts across processes.  Workers serve
a shared read-only mapping — ``/api/extend`` must refuse with 409
rather than mutate one process's copy of the index.
"""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Document, Egeria
from repro.core.snapshots import SnapshotStore
from repro.web.app import AdvisorApp
from repro.web.prefork import create_listener, server_from_socket

SENTENCES = [
    "Use shared memory tiles to improve effective bandwidth.",
    "Avoid divergent branches inside warps.",
    "Coalesce global memory accesses in tight loops.",
]


def _advisor():
    return Egeria().build_advisor(
        Document.from_sentences(SENTENCES, title="Prefork Guide"))


def _call(app, method="GET", path="/", query="", body=b"",
          content_type=""):
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(body)),
        "CONTENT_TYPE": content_type,
        "wsgi.input": io.BytesIO(body),
    }
    captured: dict = {}

    def start_response(status, headers):
        captured["status"] = status

    text = b"".join(app(environ, start_response)).decode("utf-8")
    return captured["status"], text


class TestListenerPlumbing:
    def test_create_listener_binds_and_reports_port(self) -> None:
        listener = create_listener("127.0.0.1", 0)
        try:
            host, port = listener.getsockname()
            assert host == "127.0.0.1"
            assert port > 0
        finally:
            listener.close()

    def test_server_from_socket_serves_inherited_listener(self) -> None:
        """A WSGI server wrapped around a pre-bound socket answers
        real HTTP — the exact path every forked worker takes."""
        listener = create_listener("127.0.0.1", 0)
        port = listener.getsockname()[1]
        app = AdvisorApp(_advisor())
        server = server_from_socket(listener, app)
        assert server.server_port == port
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz",
                    timeout=10) as response:
                assert json.load(response)["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


    def test_accept_without_a_pending_connection_returns(self) -> None:
        """Every worker wakes for a connection; the ones that lose the
        race must not block in accept(), where a SIGTERM drain never
        reaches them."""
        server = server_from_socket(create_listener("127.0.0.1", 0),
                                    AdvisorApp(_advisor()))
        attempt = threading.Thread(target=server._handle_request_noblock,
                                   daemon=True)
        try:
            attempt.start()
            attempt.join(timeout=1)
            assert not attempt.is_alive()
        finally:
            server.server_close()


class TestReadOnlyWorkerContract:
    def test_extend_refused_when_disabled(self) -> None:
        app = AdvisorApp(_advisor(), allow_extend=False)
        status, body = _call(
            app, method="POST", path="/api/extend",
            body=json.dumps({"text": "tune the thing"}).encode(),
            content_type="application/json")
        assert status == "409 Conflict"
        assert "read-only" in body
        assert app.counters["extends"] == 0

    def test_extend_allowed_by_default(self) -> None:
        app = AdvisorApp(_advisor())
        status, _ = _call(
            app, method="POST", path="/api/extend",
            body=json.dumps(
                {"text": "Use pinned memory for transfers."}).encode(),
            content_type="application/json")
        assert status == "200 OK"


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="prefork requires os.fork")
class TestPreforkEndToEnd:
    def test_two_workers_serve_and_drain(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            SnapshotStore(tmp).save(_advisor())
            with subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "serve",
                     "--snapshots", tmp, "--port", "0", "--workers", "2"],
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True) as process:
                try:
                    port = None
                    deadline = time.time() + 60
                    while time.time() < deadline and port is None:
                        line = process.stdout.readline()
                        if not line:
                            assert process.poll() is None, \
                                "master exited before serving"
                            time.sleep(0.05)
                            continue
                        if "(prefork, 2 workers)" in line:
                            port = int(line.rsplit(":", 1)[1].rstrip("/\n"))
                    assert port is not None, "no serving line within 60s"

                    answer = None
                    deadline = time.time() + 60
                    while time.time() < deadline and answer is None:
                        try:
                            with urllib.request.urlopen(
                                    f"http://127.0.0.1:{port}/api/query"
                                    f"?q=memory+bandwidth",
                                    timeout=10) as response:
                                answer = json.load(response)
                        except OSError:
                            time.sleep(0.1)
                    assert answer and answer.get("answers")
                finally:
                    process.send_signal(signal.SIGTERM)
                    try:
                        code = process.wait(timeout=60)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()
                        pytest.fail("master survived SIGTERM for 60s")
                assert code == 0

    def test_sigterm_while_workers_start_exits(self) -> None:
        """A TERM that reaches the workers before they install their
        own handlers still ends every process (the workers must not run
        the master's inherited handler and keep serving)."""
        with tempfile.TemporaryDirectory() as tmp:
            SnapshotStore(tmp).save(_advisor())
            for _ in range(3):
                with subprocess.Popen(
                        [sys.executable, "-m", "repro.cli", "serve",
                         "--snapshots", tmp, "--port", "0",
                         "--workers", "2"],
                        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                        text=True) as process:
                    try:
                        for line in process.stdout:
                            if "(prefork, 2 workers)" in line:
                                break
                        process.send_signal(signal.SIGTERM)
                        code = process.wait(timeout=30)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()
                        pytest.fail("master survived an early SIGTERM")
                    assert code == 0
