"""The lean request path against the stock one.

:class:`repro.web.server.HardenedRequestHandler` reads, parses and
answers a request itself.  The reference is wsgiref's own
``WSGIRequestHandler`` (``parse_request``, the ``email`` header
parser, ``ServerHandler``), configured as the server used it before:
a 30 s timeout, a 64 KiB response buffer and the same log routing.
Both handlers serve the same app on one server, over real sockets;
every case sends the same raw bytes to each and expects the same
response bytes (``Date`` masked) and the same environ.
"""

from __future__ import annotations

import json
import logging
import re
import selectors
import socket
import string
import threading
import time
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from wsgiref.handlers import BaseHandler
from wsgiref.simple_server import WSGIRequestHandler, make_server

from repro import Document, Egeria
from repro.profiler import case_study_report
from repro.web import AdvisorApp, serve
from repro.web.server import (
    LISTEN_BACKLOG,
    MAX_HEADERS,
    MAX_LINE,
    HardenedRequestHandler,
    ThreadingWSGIServer,
    header_fields,
)

SENTENCES = [
    "Use launch bounds to control register usage and avoid spilling.",
    "Rewrite divergent branches so threads follow the thread index.",
    "Stage reused data in shared memory tiles to maximize bandwidth.",
    "The warp size is 32 threads.",
]

logger = logging.getLogger("repro.web.server")


class StockHandler(WSGIRequestHandler):
    """wsgiref's request path, as the server ran it before."""

    timeout = 30
    wbufsize = 64 * 1024

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.info("%s - %s", self.address_string(), format % args)

    def log_error(self, format: str, *args) -> None:  # noqa: A002
        logger.warning("%s - %s", self.address_string(), format % args)


def _advisor_app() -> AdvisorApp:
    return AdvisorApp(Egeria().build_advisor(
        Document.from_sentences(SENTENCES, title="Test Guide")))


class Recorder:
    """A WSGI app that keeps each environ (less the OS environment
    and the stream objects), reads the body its ``Content-Length``
    announces, and echoes both."""

    def __init__(self) -> None:
        self.seen: list[dict] = []

    def __call__(self, environ, start_response):
        length = environ.get("CONTENT_LENGTH", "")
        body = environ["wsgi.input"].read(int(length)) \
            if length.isdigit() else b""
        seen = {key: value for key, value in environ.items()
                if key not in BaseHandler.os_environ
                and key not in ("wsgi.input", "wsgi.errors")}
        self.seen.append(seen)
        text = repr(sorted((key, repr(value))
                           for key, value in seen.items()))
        payload = text.encode("utf-8") + b"\n" + body
        start_response("200 OK", [("Content-Type", "text/plain"),
                                  ("Content-Length", str(len(payload)))])
        return [payload]


def raising_app(environ, start_response):
    raise RuntimeError("app failure")


def raising_after_start_response(environ, start_response):
    start_response("200 OK", [("Content-Type", "text/plain")])
    raise RuntimeError("app failure")


def raising_mid_body(environ, start_response):
    start_response("200 OK", [("Content-Type", "text/plain")])
    yield b"first block"
    raise RuntimeError("app failure")


def no_length_app(environ, start_response):
    start_response("201 Created", [("Content-Type", "text/plain")])
    return [b"one block"]


def generator_app(environ, start_response):
    start_response("200 OK", [("Content-Type", "text/plain")])
    yield b"two "
    yield b"blocks"


def empty_app(environ, start_response):
    start_response("204 No Content", [("X-Empty", "yes")])
    return []


def write_app(environ, start_response):
    write = start_response("200 OK", [("Content-Type", "text/plain")])
    write(b"written, ")
    return [b"then returned"]


def own_date_app(environ, start_response):
    start_response("200 OK", [("date", "Thu, 01 Jan 1970 00:00:00 GMT"),
                              ("SERVER", "own")])
    return [b"x"]


@pytest.fixture(scope="module")
def server():
    httpd = make_server("127.0.0.1", 0, Recorder(),
                        server_class=ThreadingWSGIServer,
                        handler_class=HardenedRequestHandler)
    runner = threading.Thread(target=httpd.serve_forever, daemon=True)
    runner.start()
    yield httpd
    httpd.shutdown()
    runner.join(timeout=10)
    httpd.server_close()


def exchange(server, handler_class, chunks, app, *, pause_s=0.0,
             shut_write=False) -> bytes:
    """Send *chunks* on a fresh connection to *server* answered by
    *handler_class* and *app*; the bytes that come back."""
    server.RequestHandlerClass = handler_class
    server.set_app(app)
    with socket.create_connection(("127.0.0.1", server.server_port),
                                  timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for number, chunk in enumerate(chunks):
            if number and pause_s:
                time.sleep(pause_s)
            sock.sendall(chunk)
        if shut_write:
            sock.shutdown(socket.SHUT_WR)
        return b"".join(iter(lambda: sock.recv(65536), b""))


def masked(response: bytes) -> bytes:
    """*response* with the ``Date`` header's value masked."""
    head, blank, body = response.partition(b"\r\n\r\n")
    head = re.sub(rb"(\r\nDate: )[^\r\n]*", rb"\1*", head, count=1)
    return head + blank + body


def both(server, chunks, app_factory, **kwargs) -> tuple[bytes, bytes]:
    """The stock and the lean response to the same bytes, each from
    a fresh app made by *app_factory*."""
    stock = exchange(server, StockHandler, chunks, app_factory(), **kwargs)
    lean = exchange(server, HardenedRequestHandler, chunks,
                    app_factory(), **kwargs)
    return masked(stock), masked(lean)


@dataclass
class Case:
    name: str
    chunks: list
    app: str = "advisor"
    shut_write: bool = False
    pause_s: float = 0.0
    #: the status line expected of both (None: no status line)
    status: bytes | None = field(default=None)


def _head(request_line: str, *headers: str) -> bytes:
    return (request_line + "\r\n"
            + "".join(header + "\r\n" for header in headers)
            + "\r\n").encode("latin-1")


def _json_post(path: str, payload: dict, *extra: str) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return _head(f"POST {path} HTTP/1.0", "Content-Type: application/json",
                 f"Content-Length: {len(body)}", *extra) + body


def _multipart_upload() -> bytes:
    boundary = "XBOUNDARYX"
    body = (
        f"--{boundary}\r\n"
        'Content-Disposition: form-data; name="report"; '
        'filename="report.txt"\r\n'
        "Content-Type: text/plain\r\n\r\n"
        + case_study_report().to_text()
        + f"\r\n--{boundary}--\r\n").encode("utf-8")
    return _head("POST /upload HTTP/1.0",
                 f"Content-Type: multipart/form-data; boundary={boundary}",
                 f"Content-Length: {len(body)}") + body


_BATCH = json.dumps({"queries": ["shared memory", "warp size"]}).encode()

CASES = [
    Case("get", [_head("GET /api/query?q=shared+memory+tiles HTTP/1.0",
                       "Host: example", "User-Agent: test")],
         status=b"HTTP/1.0 200 OK"),
    Case("summary page", [_head("GET / HTTP/1.0")],
         status=b"HTTP/1.0 200 OK"),
    Case("answer page", [_head("GET /query?q=warp+size&limit=1 HTTP/1.0")],
         status=b"HTTP/1.0 200 OK"),
    Case("post batch", [_json_post("/api/batch", {
        "queries": ["shared memory tiles", "register spilling"],
        "limit": 1})], status=b"HTTP/1.0 200 OK"),
    Case("post extend", [_json_post("/api/extend", {
        "text": "Use texture memory for read-only data with spatial "
                "locality.", "title": "More"})],
         status=b"HTTP/1.0 200 OK"),
    Case("multipart upload", [_multipart_upload()],
         status=b"HTTP/1.0 200 OK"),
    Case("not found", [_head("GET /nowhere HTTP/1.0")],
         status=b"HTTP/1.0 404 Not Found"),
    Case("missing q", [_head("GET /api/query HTTP/1.0")],
         status=b"HTTP/1.0 400 Bad Request"),
    Case("head", [_head("HEAD /api/query?q=warp HTTP/1.0")],
         status=b"HTTP/1.0 404 Not Found"),
    Case("http/1.1 keep-alive", [_head(
        "GET /api/query?q=warp+size HTTP/1.1", "Host: example",
        "Connection: keep-alive")], status=b"HTTP/1.0 200 OK"),
    Case("percent-escaped path", [_head(
        "GET /api/%71uery?q=warp%20size HTTP/1.0")],
         status=b"HTTP/1.0 200 OK"),
    Case("double-slash path", [_head("GET ///api/query?q=warp HTTP/1.0")],
         status=b"HTTP/1.0 200 OK"),
    Case("duplicate content-length", [_head(
        "POST /api/batch HTTP/1.0", f"Content-Length: {len(_BATCH)}",
        "Content-Length: 3") + _BATCH], status=b"HTTP/1.0 200 OK"),
    Case("head and body 50 ms apart", [
        _head("POST /api/batch HTTP/1.0", f"Content-Length: {len(_BATCH)}"),
        _BATCH], pause_s=0.05, status=b"HTTP/1.0 200 OK"),
    Case("truncated body", [_head("POST /api/batch HTTP/1.0",
                                  "Content-Length: 100") + b'{"queries"'],
         shut_write=True, status=b"HTTP/1.0 400 Bad Request"),
    Case("invalid content-length", [_head(
        "POST /api/batch HTTP/1.0", "Content-Length: ten")],
         status=b"HTTP/1.0 400 Bad Request"),
    Case("app raises", [_head("GET /boom HTTP/1.0")], app="raises",
         status=b"HTTP/1.0 500 Internal Server Error"),
    Case("app raises after start_response", [_head("GET / HTTP/1.0")],
         app="raises late", status=b"HTTP/1.0 500 Internal Server Error"),
    Case("app raises mid-body", [_head("GET / HTTP/1.0")],
         app="raises mid-body", status=b"HTTP/1.0 200 OK"),
    Case("no content-length", [_head("GET / HTTP/1.0")], app="no length",
         status=b"HTTP/1.0 201 Created"),
    Case("generator body", [_head("GET / HTTP/1.0")], app="generator",
         status=b"HTTP/1.0 200 OK"),
    Case("empty body", [_head("GET / HTTP/1.0")], app="empty",
         status=b"HTTP/1.0 204 No Content"),
    Case("write callable", [_head("GET / HTTP/1.0")], app="write",
         status=b"HTTP/1.0 200 OK"),
    Case("app's own date and server", [_head("GET / HTTP/1.0")],
         app="own date", status=b"HTTP/1.0 200 OK"),
    # malformed request lines
    Case("empty request line", [b"\r\n"]),
    Case("nothing sent", [], shut_write=True),
    Case("request line over the limit",
         [b"GET /" + b"a" * (MAX_LINE + 1 - 5)],
         status=b"HTTP/1.0 414 Request-URI Too Long"),
    Case("request line at the limit",
         [b"GET /" + b"a" * (MAX_LINE - 16) + b" HTTP/1.0\r\n\r\n"],
         status=b"HTTP/1.0 404 Not Found"),
    Case("garbage", [b"\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03\r\n\r\n"]),
    Case("bad version", [_head("GET / HTTP/1")]),
    Case("bad version digits", [_head("GET / HTTP/1.x")]),
    Case("lowercase version", [_head("GET / http/1.0")]),
    Case("version over 10 digits", [_head("GET / HTTP/1.00000000001")]),
    Case("non-ascii digit in version", [b"GET / HTTP/1.\xb2\r\n\r\n"]),
    Case("http/2.0", [_head("GET / HTTP/2.0")]),
    Case("http/1.5 is accepted", [_head("GET /health HTTP/1.5")],
         status=b"HTTP/1.0 200 OK"),
    Case("one word", [_head("GET")]),
    Case("four words, bad version", [_head("GET / x y")]),
    Case("four words", [_head("GET / x HTTP/1.0")],
         status=b"HTTP/1.0 400 Bad request syntax ('GET / x HTTP/1.0')"),
    Case("http/0.9 get", [_head("GET /health")]),
    Case("http/0.9 post", [_head("POST /api/batch")]),
    Case("explicit http/0.9", [_head("GET /health HTTP/0.9")]),
    Case("request line without a terminator",
         [b"GET /health HTTP/1.0"], shut_write=True,
         status=b"HTTP/1.0 200 OK"),
    # header blocks
    Case("header line over the limit",
         [b"GET /health HTTP/1.0\r\nX-A: " + b"a" * (MAX_LINE + 1 - 5)],
         status=b"HTTP/1.0 431 Line too long"),
    Case("header line over the limit, head request",
         [b"HEAD /health HTTP/1.0\r\nX-A: " + b"a" * (MAX_LINE + 1 - 5)],
         status=b"HTTP/1.0 431 Line too long"),
    Case("header line at the limit",
         [b"GET /health HTTP/1.0\r\nX-A: " + b"a" * (MAX_LINE - 7)
          + b"\r\n\r\n"], app="record", status=b"HTTP/1.0 200 OK"),
    Case("99 headers", [_head("GET /health HTTP/1.0", *(
        f"X-H{n}: {n}" for n in range(MAX_HEADERS - 1)))],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("100 headers", [_head("GET /health HTTP/1.0", *(
        f"X-H{n}: {n}" for n in range(MAX_HEADERS)))],
         status=b"HTTP/1.0 431 Too many headers"),
    Case("101 headers", [_head("GET /health HTTP/1.0", *(
        f"X-H{n}: {n}" for n in range(MAX_HEADERS + 1)))],
         status=b"HTTP/1.0 431 Too many headers"),
    Case("colon-less line ends the block", [_head(
        "GET /x HTTP/1.0", "X-A: 1", "no colon here", "X-B: 2")],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("space in a name ends the block", [_head(
        "GET /x HTTP/1.0", "X-A: 1", "X B: 2", "X-C: 3")],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("folded lines", [_head(
        "GET /x HTTP/1.0", "X-A: one", "   two", "\tthree ", "X-B: 4")],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("continuation first", [_head(
        "GET /x HTTP/1.0", " X-A: 1", "X-B: 2")],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("bare carriage return splits a line",
         [b"GET /x HTTP/1.0\r\nX-A: 1\rX-B: 2\r\nX-C: 3\r\r\n\r\n"],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("bare line feeds", [b"GET /x HTTP/1.0\nX-A: 1\nX-B: 2\n\n"],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("envelope lines", [_head(
        "GET /x HTTP/1.0", "From someone", "X-A: 1", "From x: 2",
        "  folded", "X-B: 3", "From last")],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("empty name", [_head("GET /x HTTP/1.0", "X-A: 1", ": 2", " 3",
                              "X-B: 4")],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("end of stream inside the head",
         [b"GET /x HTTP/1.0\r\nX-A: 1\r\nX-B: 2"], shut_write=True,
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("duplicate and look-alike headers", [_head(
        "GET /x?a=1&b=%20 HTTP/1.0", "X-A: 1", "x-a:  2 ", "X_A: 3",
        "Content-Type:  text/html  ", "content-type: text/xml",
        "Content-Length:", "Path-Info: /elsewhere", "Http-X: 4", "X: 5",
        "X: 6", "Server-Name: other", "Https: on")],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("non-ascii bytes", [
        b"GET /caf\xe9/%C3%A9/%FF?q=\xe9 HTTP/1.0\r\nX-A: caf\xe9\r\n\r\n"],
         app="record", status=b"HTTP/1.0 200 OK"),
    Case("head split across sends",
         [b"GET /x?q=1 HT", b"TP/1.0\r\nX-A: 1\r", b"\nX-B: 2\r\n\r", b"\n"],
         pause_s=0.01, app="record", status=b"HTTP/1.0 200 OK"),
]

APPS = {
    "raises": lambda: raising_app,
    "raises late": lambda: raising_after_start_response,
    "raises mid-body": lambda: raising_mid_body,
    "no length": lambda: no_length_app,
    "generator": lambda: generator_app,
    "empty": lambda: empty_app,
    "write": lambda: write_app,
    "own date": lambda: own_date_app,
    "record": Recorder,
}


@pytest.fixture(scope="module")
def advisor_apps():
    """Fresh advisor apps on demand: a case may change the advisor
    (``/api/extend``), so each side gets one of its own."""
    _advisor_app()   # load the tagger and parser once
    return _advisor_app


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_lean_path_answers_as_the_stock_one(server, advisor_apps,
                                            case) -> None:
    factory = APPS.get(case.app, advisor_apps)
    recorders: list = []

    def make():
        app = factory()
        recorders.append(app)
        return app

    stock, lean = both(server, case.chunks, make, pause_s=case.pause_s,
                       shut_write=case.shut_write)
    assert lean == stock
    if case.status is None:
        assert not lean.startswith(b"HTTP/")
    else:
        assert lean.split(b"\r\n", 1)[0] == case.status
    if case.app == "record":
        assert recorders[0].seen == recorders[1].seen
        assert len(recorders[0].seen) == 1


def test_environ_holds_what_the_app_reads(server) -> None:
    recorder = Recorder()
    body = b'{"x": 1}'
    exchange(server, HardenedRequestHandler, [_head(
        "POST /a%20b?q=1 HTTP/1.0", "Content-Type: application/json",
        f"Content-Length: {len(body)}", "X-Request-Id: r-7") + body],
        recorder)
    [environ] = recorder.seen
    assert environ["REQUEST_METHOD"] == "POST"
    assert environ["PATH_INFO"] == "/a b"
    assert environ["QUERY_STRING"] == "q=1"
    assert environ["CONTENT_TYPE"] == "application/json"
    assert environ["CONTENT_LENGTH"] == str(len(body))
    assert environ["HTTP_X_REQUEST_ID"] == "r-7"
    assert environ["SERVER_PROTOCOL"] == "HTTP/1.0"
    assert environ["wsgi.url_scheme"] == "http"


class TestHeaderFields:
    def test_fields_in_order_with_duplicates(self) -> None:
        assert header_fields("A: 1\r\nb:2\r\nA:  3 \r\n\r\n") == [
            ("A", "1"), ("b", "2"), ("A", "3 ")]

    def test_folding_keeps_the_line_breaks(self) -> None:
        assert header_fields("A: 1\r\n  2\r\n\t3\r\n\r\n") == [
            ("A", "1\r\n  2\r\n\t3")]

    def test_block_ends_at_the_first_non_header_line(self) -> None:
        assert header_fields("A: 1\r\nnot a header\r\nB: 2\r\n") == [
            ("A", "1")]


# -- the property -----------------------------------------------------------

_TOKEN = string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~"
_PATH = ("".join(chr(c) for c in range(0x21, 0x7f) if chr(c) not in "?#")
         + "\xe9\xff\xc0")
_VALUE = st.text(alphabet=st.characters(
    min_codepoint=0x20, max_codepoint=0xff,
    blacklist_characters="\x7f\x85"), max_size=24)
_NAMES = st.sampled_from([
    "X-A", "x-a", "X_A", "Accept", "Host", "Content-Type", "content-type",
    "X-Request-Id", "Path-Info", "Query-String", "Https", "Http-X-A",
    "Server-Port", "From"]) | st.text(alphabet=_TOKEN, min_size=1,
                                      max_size=10)


@st.composite
def raw_requests(draw) -> list[bytes]:
    """A well-formed request, cut into the sends that carry it."""
    segments = draw(st.lists(st.text(alphabet=_PATH, max_size=8)
                             | st.sampled_from(["%41", "%e9", "%C3%A9",
                                                "%zz", "%", "//"]),
                             max_size=5))
    path = "/" + "".join(segments)
    query = draw(st.none() | st.text(alphabet=_PATH + "?= ", max_size=16)
                 .map(lambda text: text.replace(" ", "+")))
    target = path if query is None else f"{path}?{query}"
    body = draw(st.binary(max_size=200))
    method = "POST" if body else draw(st.sampled_from(
        ["GET", "DELETE", "OPTIONS"]))
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    lines = [f"{method} {target} {version}"]
    fields = draw(st.lists(st.tuples(
        _NAMES.filter(lambda name: name.lower() != "content-length"),
        _VALUE, st.none() | _VALUE), max_size=8))
    for name, value, folded in fields:
        lines.append(f"{name}: {value}")
        if folded is not None:
            lines.append(" " + folded)
    if body:
        lines.append(f"Content-Length: {len(body)}")
    raw = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
    cuts = sorted(draw(st.sets(st.integers(1, len(raw) - 1),
                               max_size=3)))
    return [raw[start:end] for start, end
            in zip([0, *cuts], [*cuts, len(raw)])]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(chunks=raw_requests())
def test_any_request_gets_the_stock_bytes_and_environ(server,
                                                      chunks) -> None:
    recorders: list[Recorder] = []

    def make() -> Recorder:
        recorders.append(Recorder())
        return recorders[-1]

    stock, lean = both(server, chunks, make, pause_s=0.002)
    assert lean == stock
    assert stock.startswith(b"HTTP/1.0 200 OK\r\n")
    assert recorders[0].seen == recorders[1].seen


# -- the listen backlog -----------------------------------------------------

@pytest.mark.parametrize("threads", [True, False],
                         ids=["threaded", "serial"])
def test_a_burst_of_connections_is_answered_promptly(threads) -> None:
    """60 clients connecting at once are all answered within 0.5 s;
    with socketserver's backlog of 5, some wait out a SYN retransmit
    (a second or more)."""
    server = serve(Egeria().build_advisor(
        Document.from_sentences(SENTENCES)), port=0, threads=threads)
    assert server.request_queue_size == LISTEN_BACKLOG
    runner = threading.Thread(target=server.serve_forever, daemon=True)
    runner.start()
    request = b"GET /api/query?q=shared+memory+tiles HTTP/1.0\r\n\r\n"
    burst = 60
    selector = selectors.DefaultSelector()
    pending: dict = {}
    done: dict = {}
    try:
        started = time.monotonic()
        for slot in range(burst):
            sock = socket.socket()
            sock.setblocking(False)
            sock.connect_ex(("127.0.0.1", server.server_port))
            selector.register(sock, selectors.EVENT_WRITE, slot)
            pending[slot] = [sock, b""]
        deadline = started + 10
        while pending and time.monotonic() < deadline:
            for key, events in selector.select(timeout=0.1):
                slot = key.data
                sock, received = pending[slot]
                if events & selectors.EVENT_WRITE:
                    sock.sendall(request)
                    selector.modify(sock, selectors.EVENT_READ, slot)
                    continue
                chunk = sock.recv(65536)
                if chunk:
                    pending[slot][1] = received + chunk
                    continue
                selector.unregister(sock)
                sock.close()
                del pending[slot]
                done[slot] = (time.monotonic() - started, received)
    finally:
        for sock, _ in pending.values():
            sock.close()
        selector.close()
        server.shutdown()
        runner.join(timeout=10)
        server.server_close()
    assert len(done) == burst
    assert all(received.startswith(b"HTTP/1.0 200 OK\r\n")
               for _, received in done.values())
    slowest = max(elapsed for elapsed, _ in done.values())
    assert slowest < 0.5, f"slowest connection took {slowest:.3f} s"
