"""Web application tests: direct WSGI invocation, plus the threaded
server over real sockets (``TestServer``)."""

from __future__ import annotations

import http.client
import io
import json
import re
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import Document, Egeria
from repro.pdf import report_to_pdf
from repro.profiler import case_study_report
from repro.web import AdvisorApp, serve
from repro.web.server import MAX_IDLE_HANDLERS, shutdown_gracefully

from tests.helpers import BlockingAdvisor

SENTENCES = [
    "Use launch bounds to control register usage and avoid spilling.",
    "Rewrite divergent branches so threads follow the thread index.",
    "Stage reused data in shared memory tiles to maximize bandwidth.",
    "The warp size is 32 threads.",
]


@pytest.fixture(scope="module")
def app() -> AdvisorApp:
    advisor = Egeria().build_advisor(
        Document.from_sentences(SENTENCES, title="Test Guide"))
    return AdvisorApp(advisor)


#: every sentence is advising (imperative) and shares "memory", so
#: queries can retrieve several answers — needed by the limit tests
MEMORY_SENTENCES = [
    "Use shared memory tiles to improve effective memory bandwidth.",
    "Avoid uncoalesced global memory accesses in tight loops.",
    "Consider using pinned memory to speed up host transfers.",
    "Use constant memory for small read-only lookup tables.",
]


@pytest.fixture(scope="module")
def multi_app() -> AdvisorApp:
    advisor = Egeria().build_advisor(
        Document.from_sentences(MEMORY_SENTENCES, title="Memory Guide"))
    return AdvisorApp(advisor)


def call(app: AdvisorApp, method: str = "GET", path: str = "/",
         query: str = "", body: bytes = b"", content_type: str = ""):
    """Invoke the WSGI app; return (status, headers, body_text)."""
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
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    text = b"".join(chunks).decode("utf-8")
    return captured["status"], captured["headers"], text


class TestRoutes:
    def test_index_summary(self, app) -> None:
        status, headers, body = call(app)
        assert status == "200 OK"
        assert headers["Content-Type"].startswith("text/html")
        assert "launch bounds" in body
        assert "<form" in body  # search + upload forms injected

    def test_index_cached(self, app) -> None:
        _, _, first = call(app)
        _, _, second = call(app)
        assert first == second

    def test_query_page(self, app) -> None:
        status, _, body = call(app, query="q=divergent+branches",
                               path="/query")
        assert status == "200 OK"
        assert "highlight" in body
        assert "divergent branches" in body

    def test_query_missing_param(self, app) -> None:
        status, _, _ = call(app, path="/query")
        assert status == "400 Bad Request"

    def test_unknown_route(self, app) -> None:
        status, _, _ = call(app, path="/nope")
        assert status == "404 Not Found"

    def test_health(self, app) -> None:
        status, headers, body = call(app, path="/health")
        assert status == "200 OK"
        assert json.loads(body)["status"] == "ok"

    def test_method_mismatch(self, app) -> None:
        status, _, _ = call(app, method="POST", path="/query")
        assert status == "404 Not Found"


class TestApiQuery:
    def test_json_payload(self, app) -> None:
        status, headers, body = call(app, path="/api/query",
                                     query="q=register+usage+spilling")
        assert status == "200 OK"
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["found"]
        assert payload["answers"][0]["score"] > 0.15
        assert "launch bounds" in payload["answers"][0]["sentence"]

    def test_json_no_result(self, app) -> None:
        _, _, body = call(app, path="/api/query", query="q=zebra+pastry")
        payload = json.loads(body)
        assert payload["found"] is False and payload["answers"] == []

    def test_json_missing_param(self, app) -> None:
        status, _, _ = call(app, path="/api/query")
        assert status == "400 Bad Request"

    def test_limit_caps_answers(self, multi_app) -> None:
        _, _, full = call(multi_app, path="/api/query",
                          query="q=global+shared+memory")
        status, _, limited = call(multi_app, path="/api/query",
                                  query="q=global+shared+memory&limit=1")
        assert status == "200 OK"
        full_answers = json.loads(full)["answers"]
        limited_answers = json.loads(limited)["answers"]
        assert len(full_answers) > 1
        assert limited_answers == full_answers[:1]

    def test_limit_zero(self, multi_app) -> None:
        _, _, body = call(multi_app, path="/api/query",
                          query="q=memory&limit=0")
        assert json.loads(body)["answers"] == []

    def test_limit_invalid(self, app) -> None:
        for raw in ("abc", "-1", "1.5"):
            status, _, _ = call(app, path="/api/query",
                                query=f"q=warp&limit={raw}")
            assert status == "400 Bad Request", raw

    def test_query_page_respects_limit(self, multi_app) -> None:
        status, _, body = call(multi_app, path="/query",
                               query="q=global+shared+memory&limit=1")
        assert status == "200 OK"
        assert body.count('class="highlight"') == 1


class TestApiBatch:
    @staticmethod
    def post(app, payload, **kwargs):
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode("utf-8"))
        return call(app, method="POST", path="/api/batch", body=body,
                    content_type="application/json", **kwargs)

    def test_answers_every_query(self, app) -> None:
        queries = ["register spilling", "divergent branches",
                   "shared memory tiles"]
        status, headers, body = self.post(app, {"queries": queries})
        assert status == "200 OK"
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["count"] == 3
        # answers come back in request order, each matching its query
        for query, answer in zip(queries, payload["answers"]):
            assert answer["query"] == query
            single = json.loads(
                call(app, path="/api/query",
                     query="q=" + query.replace(" ", "+"))[2])
            assert answer["answers"] == single["answers"]

    def test_batch_threshold_and_limit(self, multi_app) -> None:
        _, _, body = self.post(multi_app,
                               {"queries": ["global shared memory"],
                                "limit": 1, "threshold": 0.05})
        payload = json.loads(body)
        assert len(payload["answers"][0]["answers"]) == 1

    def test_malformed_json(self, app) -> None:
        status, _, body = self.post(app, b"{not json")
        assert status == "400 Bad Request"
        assert "malformed JSON" in body

    def test_non_object_body(self, app) -> None:
        status, _, _ = self.post(app, ["not", "a", "dict"])
        assert status == "400 Bad Request"

    def test_missing_or_bad_queries(self, app) -> None:
        for payload in ({}, {"queries": []}, {"queries": "one"},
                        {"queries": ["ok", ""]}, {"queries": [1, 2]}):
            status, _, _ = self.post(app, payload)
            assert status == "400 Bad Request", payload

    def test_invalid_threshold_and_limit(self, app) -> None:
        for payload in ({"queries": ["q"], "threshold": "high"},
                        {"queries": ["q"], "threshold": 2.0},
                        {"queries": ["q"], "limit": -1},
                        {"queries": ["q"], "limit": True},
                        {"queries": ["q"], "limit": 1.5}):
            status, _, _ = self.post(app, payload)
            assert status == "400 Bad Request", payload

    def test_oversize_batch_rejected(self) -> None:
        advisor = Egeria().build_advisor(
            Document.from_sentences(SENTENCES))
        small = AdvisorApp(advisor, max_batch_queries=2)
        status, _, body = self.post(small, {"queries": ["a", "b", "c"]})
        assert status == "413 Payload Too Large"
        assert json.loads(body)["error"]["limit_queries"] == 2
        assert small.counters["rejected_payloads"] == 1

    def test_batch_counter(self, app) -> None:
        before = app.counters["batch_queries"]
        self.post(app, {"queries": ["warp", "registers"]})
        assert app.counters["batch_queries"] == before + 2

    def test_get_not_allowed(self, app) -> None:
        status, _, _ = call(app, path="/api/batch")
        assert status == "404 Not Found"


class TestApiExtend:
    @staticmethod
    def post(app, payload, **kwargs):
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode("utf-8"))
        return call(app, method="POST", path="/api/extend", body=body,
                    content_type="application/json", **kwargs)

    def _fresh_app(self) -> AdvisorApp:
        advisor = Egeria().build_advisor(
            Document.from_sentences(SENTENCES, title="Extend Guide"))
        advisor.auto_compaction = False   # deterministic segment count
        return AdvisorApp(advisor)

    def test_extend_seals_a_segment_and_serves_it(self) -> None:
        app = self._fresh_app()
        status, headers, body = self.post(app, {
            "text": "Use pinned memory to accelerate host transfers.",
            "title": "Streaming Update"})
        assert status == "200 OK"
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "extended"
        assert payload["added"] == 1
        assert payload["segments"] == 2
        assert payload["generation"] == 1
        assert app.counters["extends"] == 1
        # the new sentence answers queries immediately
        _, _, answer = call(app, path="/api/query",
                            query="q=pinned+memory+transfers")
        assert "pinned memory" in answer
        # and shows up in the index health block
        _, _, health = call(app, path="/healthz")
        assert json.loads(health)["index"]["segments"] == 2

    def test_refit_collapses_segments(self) -> None:
        app = self._fresh_app()
        self.post(app, {"text": "Use streams to overlap transfers."})
        status, _, body = self.post(app, {
            "text": "Prefer warp-level primitives for reductions.",
            "refit": True})
        assert status == "200 OK"
        assert json.loads(body)["segments"] == 1

    def test_bad_bodies_are_400(self) -> None:
        app = self._fresh_app()
        for payload in ({}, {"text": ""}, {"text": 3},
                        {"text": "ok", "title": 7},
                        {"text": "ok", "refit": "yes"},
                        ["not", "a", "dict"]):
            status, _, _ = self.post(app, payload)
            assert status == "400 Bad Request", payload
        status, _, _ = self.post(app, b"{not json")
        assert status == "400 Bad Request"

    def test_get_not_allowed(self, app) -> None:
        status, _, _ = call(app, path="/api/extend")
        assert status == "404 Not Found"


class TestUpload:
    def test_pdf_body(self, app) -> None:
        pdf = report_to_pdf(case_study_report())
        status, _, body = call(app, method="POST", path="/upload",
                               body=pdf, content_type="application/pdf")
        assert status == "200 OK"
        assert "launch bounds" in body or "divergent" in body

    def test_text_body(self, app) -> None:
        report = case_study_report().to_text().encode("utf-8")
        status, _, body = call(app, method="POST", path="/upload",
                               body=report, content_type="text/plain")
        assert status == "200 OK"
        assert "highlight" in body

    def test_multipart_upload(self, app) -> None:
        pdf = report_to_pdf(case_study_report())
        boundary = "XBOUNDARYX"
        body = (
            f"--{boundary}\r\n"
            'Content-Disposition: form-data; name="report"; '
            'filename="report.pdf"\r\n'
            "Content-Type: application/pdf\r\n\r\n"
        ).encode("ascii") + pdf + f"\r\n--{boundary}--\r\n".encode("ascii")
        status, _, text = call(
            app, method="POST", path="/upload", body=body,
            content_type=f"multipart/form-data; boundary={boundary}")
        assert status == "200 OK"
        assert "divergent" in text.lower()

    def test_empty_report(self, app) -> None:
        status, _, body = call(app, method="POST", path="/upload",
                               body=b"no issues here",
                               content_type="text/plain")
        assert status == "200 OK"
        assert "No performance issues" in body


class _CountingSocket(socket.socket):
    """An accepted connection that records the size of each send."""

    def send(self, data, *args):
        self.sent.append(len(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sent.append(len(data))
        return super().sendall(data, *args)


def _get(port: int, path: str) -> int:
    """One GET on a fresh connection; the response status."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    end = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > end:
            return False
        time.sleep(0.002)
    return True


def _idle_handlers(server) -> int:
    with server._pool:
        return server._idle


def _record_handlers(server) -> set:
    """Collect the threads that run the server's per-connection call."""
    threads: set = set()
    serve_connection = server.process_request_thread

    def recording(request, client_address):
        threads.add(threading.current_thread())
        serve_connection(request, client_address)

    server.process_request_thread = recording
    return threads


def _start(server) -> threading.Thread:
    runner = threading.Thread(target=server.serve_forever, daemon=True)
    runner.start()
    return runner


def _stop(server, runner: threading.Thread) -> None:
    server.shutdown()
    runner.join(timeout=10)
    server.server_close()


class TestServer:
    QUERY = "/api/query?q=shared+memory+tiles"

    def test_serve_binds_and_answers(self) -> None:
        advisor = Egeria().build_advisor(
            Document.from_sentences(SENTENCES))
        server = serve(advisor, port=0)
        port = server.server_port
        thread = threading.Thread(target=server.handle_request)
        thread.start()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/health")
            response = conn.getresponse()
            assert response.status == 200
            assert b"ok" in response.read()
        finally:
            thread.join(timeout=5)
            server.server_close()

    def test_default_server_is_threading(self) -> None:
        from repro.web.server import ThreadingWSGIServer

        advisor = Egeria().build_advisor(
            Document.from_sentences(SENTENCES))
        server = serve(advisor, port=0)
        try:
            assert isinstance(server, ThreadingWSGIServer)
        finally:
            server.server_close()
        serial = serve(advisor, port=0, threads=False)
        try:
            assert not isinstance(serial, ThreadingWSGIServer)
        finally:
            serial.server_close()

    def test_concurrent_queries_no_cross_talk(self) -> None:
        advisor = Egeria().build_advisor(
            Document.from_sentences(SENTENCES))
        server = serve(advisor, port=0)
        port = server.server_port
        app = server.get_app()
        runner = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        runner.start()

        queries = ["register spilling", "divergent branches",
                   "shared memory tiles", "warp size threads"] * 4
        results: list[tuple[int, dict] | Exception] = [None] * len(queries)

        def fetch(slot: int, query: str) -> None:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=10)
                conn.request("GET", "/api/query?limit=2&q="
                             + query.replace(" ", "+"))
                response = conn.getresponse()
                results[slot] = (response.status,
                                 json.loads(response.read()))
                conn.close()
            except Exception as error:
                results[slot] = error

        requests_before = app.counters["requests"]
        workers = [threading.Thread(target=fetch, args=(i, q))
                   for i, q in enumerate(queries)]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=15)
        finally:
            server.shutdown()
            runner.join(timeout=5)
            server.server_close()

        expected = {q: advisor.query(q, limit=2).to_dict()
                    for q in set(queries)}
        for query, result in zip(queries, results):
            assert not isinstance(result, Exception), result
            status, payload = result
            # each response answers exactly the query that asked for it
            assert status == 200
            assert payload == expected[query]
        # lock-guarded counters saw every request exactly once
        assert app.counters["requests"] == requests_before + len(queries)
        assert app.counters["errors"] == 0

    def test_healthz_reports_query_cache(self) -> None:
        advisor = Egeria().build_advisor(
            Document.from_sentences(SENTENCES))
        app = AdvisorApp(advisor)
        call(app, path="/api/query", query="q=warp+threads")
        call(app, path="/api/query", query="q=warp+threads")
        _, _, body = call(app, path="/healthz")
        cache = json.loads(body)["query_cache"]
        assert cache["hits"] >= 1 and cache["misses"] >= 1

    def test_sequential_connections_reuse_one_handler(self) -> None:
        """A client that connects again once its answer is back is
        served by the thread that answered it."""
        server = serve(Egeria().build_advisor(
            Document.from_sentences(SENTENCES)), port=0)
        threads = _record_handlers(server)
        runner = _start(server)
        statuses = []
        try:
            for _ in range(50):
                statuses.append(_get(server.server_port, self.QUERY))
                # the handler returns to the pool just after the client
                # reads its answer; wait for that before connecting again
                assert _wait_for(lambda: _idle_handlers(server) == 1)
        finally:
            _stop(server, runner)
        assert statuses == [200] * 50
        assert len(threads) == 1

    def test_burst_beyond_idle_bound_is_answered_then_trimmed(self) -> None:
        blocking = BlockingAdvisor(Egeria().build_advisor(
            Document.from_sentences(SENTENCES)))
        server = serve(blocking, port=0)
        app = server.get_app()
        threads = _record_handlers(server)
        runner = _start(server)
        burst = MAX_IDLE_HANDLERS + 4
        statuses: list = [None] * burst

        def fetch(slot: int) -> None:
            statuses[slot] = _get(server.server_port, self.QUERY)

        clients = [threading.Thread(target=fetch, args=(slot,))
                   for slot in range(burst)]
        try:
            for client in clients:
                client.start()
            assert _wait_for(lambda: app.in_flight == burst)
            blocking.release.set()
            for client in clients:
                client.join(timeout=10)
            assert statuses == [200] * burst
            # every connection held its own thread; the surplus exit
            assert len(threads) == burst
            assert _wait_for(lambda: sum(
                thread.is_alive() for thread in threads)
                <= MAX_IDLE_HANDLERS)
            assert _idle_handlers(server) <= MAX_IDLE_HANDLERS
        finally:
            blocking.release.set()
            _stop(server, runner)
        assert _wait_for(lambda: not any(
            thread.is_alive() for thread in threads))

    def test_pool_counts_hold_under_thread_switch_storm(self) -> None:
        """Many short connections from more clients than cores, with a
        tiny switch interval: afterwards every live handler is counted
        idle and no handed-off connection is left behind."""
        server = serve(Egeria().build_advisor(
            Document.from_sentences(SENTENCES)), port=0)
        threads = _record_handlers(server)
        runner = _start(server)
        statuses: list = [[] for _ in range(6)]

        def fetch(mine: list) -> None:
            for _ in range(25):
                mine.append(_get(server.server_port, "/health"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=fetch, args=(mine,))
                       for mine in statuses]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)

        def settled() -> bool:
            with server._pool:
                return (not server._handoff and server._idle == sum(
                    thread.is_alive() for thread in threads))

        try:
            assert _wait_for(settled)
        finally:
            _stop(server, runner)
        assert statuses == [[200] * 25] * 6
        assert _wait_for(lambda: not any(
            thread.is_alive() for thread in threads))

    def test_server_close_ends_idle_handlers_without_waiting(
            self) -> None:
        """server_close() returns while a request is still in flight;
        the idle handler exits, and the held request completes."""
        blocking = BlockingAdvisor(Egeria().build_advisor(
            Document.from_sentences(SENTENCES)))
        server = serve(blocking, port=0)
        port = server.server_port
        threads = _record_handlers(server)
        runner = _start(server)
        statuses: list = []
        client = threading.Thread(
            target=lambda: statuses.append(_get(port, self.QUERY)))
        client.start()
        try:
            assert blocking.entered.wait(timeout=10)
            # a second handler answers the probe, then waits idle
            assert _get(port, "/health") == 200
            assert _wait_for(lambda: _idle_handlers(server) == 1)
            server.shutdown()
            runner.join(timeout=10)
            server.server_close()
            assert client.is_alive()   # still held in the app
            assert _wait_for(lambda: _idle_handlers(server) == 0)
        finally:
            blocking.release.set()
            client.join(timeout=10)
        assert statuses == [200]
        assert len(threads) == 2
        assert _wait_for(lambda: not any(
            thread.is_alive() for thread in threads))

    def test_sigterm_sequence_ends_within_the_drain_timeout(self) -> None:
        """Neither a connection that sends nothing (a browser
        preconnect, a TCP probe) nor a request still running at the
        drain deadline holds shutdown beyond the drain timeout."""
        blocking = BlockingAdvisor(Egeria().build_advisor(
            Document.from_sentences(SENTENCES)))
        server = serve(blocking, port=0)
        port = server.server_port
        threads = _record_handlers(server)
        runner = _start(server)
        drain_timeout_s = 0.5
        statuses: list = []
        client = threading.Thread(
            target=lambda: statuses.append(_get(port, self.QUERY)))
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10):
                assert _wait_for(lambda: len(threads) == 1)
                client.start()
                assert blocking.entered.wait(timeout=10)
                started = time.monotonic()
                drained = shutdown_gracefully(
                    server, server.get_app(), drain_timeout_s)
                runner.join(timeout=10)
                server.server_close()
                elapsed = time.monotonic() - started
        finally:
            blocking.release.set()
            if client.is_alive():
                client.join(timeout=10)
        assert drained is False
        # shutdown() waits up to one 0.5 s poll of the accept loop; a
        # held handler would add the 30 s socket timeout
        assert elapsed < drain_timeout_s + 2.0
        assert statuses == [200]

    def test_handler_that_raises_leaves_the_pool_consistent(
            self, monkeypatch) -> None:
        server = serve(Egeria().build_advisor(
            Document.from_sentences(SENTENCES)), port=0)
        serve_connection = server.process_request_thread
        failed: list = []

        def failing_once(request, client_address) -> None:
            serve_connection(request, client_address)
            if not failed:
                failed.append(threading.current_thread())
                raise RuntimeError("handler failure")

        server.process_request_thread = failing_once
        reported: list = []
        monkeypatch.setattr(threading, "excepthook", reported.append)
        runner = _start(server)
        try:
            assert _get(server.server_port, "/health") == 200
            assert _wait_for(
                lambda: failed and not failed[0].is_alive())
            assert _idle_handlers(server) == 0
            # an idle count left too high would hand these to no thread
            statuses = [_get(server.server_port, "/health")
                        for _ in range(5)]
        finally:
            _stop(server, runner)
        assert statuses == [200] * 5
        assert [type(args.exc_value) for args in reported] == [RuntimeError]

    def test_response_leaves_in_one_send(self) -> None:
        server = serve(Egeria().build_advisor(
            Document.from_sentences(SENTENCES)), port=0)
        accepted: list = []
        accept = server.get_request

        def counting_accept():
            sock, address = accept()
            counted = _CountingSocket(sock.family, sock.type, sock.proto,
                                      fileno=sock.detach())
            counted.sent = []
            accepted.append(counted)
            return counted, address

        server.get_request = counting_accept
        runner = _start(server)
        try:
            with socket.create_connection(
                    ("127.0.0.1", server.server_port), timeout=10) as sock:
                sock.sendall(f"GET {self.QUERY} HTTP/1.0\r\n\r\n"
                             .encode("ascii"))
                response = b"".join(iter(lambda: sock.recv(65536), b""))
        finally:
            _stop(server, runner)
        assert response.startswith(b"HTTP/1.0 200 OK\r\n")
        assert len(accepted) == 1
        assert accepted[0].sent == [len(response)]

    def test_program_keeps_no_per_thread_state(self) -> None:
        """Handler threads are reused, so nothing may carry over from one
        request to the next on the same thread."""
        pattern = re.compile(r"threading\.local|import local\b|contextvars")
        root = Path(repro.__file__).parent
        offenders = [str(path) for path in sorted(root.rglob("*.py"))
                     if pattern.search(path.read_text(encoding="utf-8"))]
        assert offenders == []
