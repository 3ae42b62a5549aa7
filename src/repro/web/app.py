"""WSGI application serving an advising tool.

Routes (mirroring the artifact's web UI):

* ``GET /`` — the advising summary page with search box and upload
  form (Figure 6);
* ``GET /query?q=...`` — HTML answer page for a free-text query
  (Figure 7);
* ``POST /upload`` — an NVVP report (PDF or plain text body, or a
  multipart form with a ``report`` file field); responds with the
  answer pages for every extracted issue;
* ``GET /api/query?q=...`` — JSON answers for programmatic use;
* ``POST /api/batch`` — many queries answered in one request under a
  single deadline budget (JSON body ``{"queries": [...]}``);
* ``POST /api/extend`` — streaming ingestion: analyze a new guide
  (JSON body ``{"text": ..., "title": ...?, "refit": ...?}``), seal
  its advising sentences as a fresh index segment and publish the
  extended advisor without interrupting readers;
* ``POST /api/reload`` — swap in the advisor of the latest good
  snapshot without dropping in-flight queries (requires a configured
  snapshot store);
* ``GET /health`` — liveness probe;
* ``GET /healthz`` — readiness/diagnostics: advisor stats, degradation
  counters, request counters, per-status response counters, admission
  gate state, snapshot-store state, query-cache counters.

The query routes accept a ``limit`` parameter capping each answer to
its top-k recommendations; the cap is pushed down into the retrieval
layer (partial selection) and honoured by the HTML renderer.

The application object is a standard WSGI callable, so it runs under
any WSGI server (the bundled :func:`repro.web.server.serve`, gunicorn,
etc.) and is unit-testable by direct invocation.  One instance may be
driven by many server threads concurrently: the advisor is shared
read-only and every mutable counter lives in a lock-guarded
:class:`ThreadSafeCounters`.

Hardening: request bodies are capped (413 on oversize), every request
runs under a deadline budget (503 on expiry), malformed bodies and
multipart payloads yield structured JSON 400s, and no handler ever
leaks a raw traceback — unexpected errors become JSON 500s.

Lifecycle (this layer's durability contract):

* **admission control** — at most ``max_in_flight`` requests execute
  concurrently; excess load is shed immediately with a 429 +
  ``Retry-After`` instead of queueing into deadline expiry.  Probe
  routes (``/health``, ``/healthz``) and the reload endpoint bypass
  the gate so observability survives saturation;
* **zero-downtime reload** — every request captures the advisor
  reference once at dispatch, so :meth:`AdvisorApp.reload` (driven by
  ``POST /api/reload`` or SIGHUP) swaps in a freshly loaded snapshot
  while in-flight queries finish on the old index;
* **graceful drain** — :meth:`AdvisorApp.begin_drain` sheds new work
  with 503 + ``Retry-After`` and :meth:`AdvisorApp.drain` waits (under
  a deadline) for in-flight requests to finish, the SIGTERM sequence
  of :mod:`repro.web.server`.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from urllib.parse import parse_qs

from repro.core.advisor import AdvisingTool
from repro.core.config import (
    DEFAULT_DEADLINE_MS,
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_RETRY_AFTER_S,
)
from repro.core.persistence import PersistenceError
from repro.core.render import render_answer, render_summary
from repro.docs.document import Document
from repro.resilience.faults import active_injector
from repro.resilience.policy import Deadline, DeadlineExceeded

logger = logging.getLogger("repro.web.app")

_SEARCH_FORM = """
<form action="/query" method="get" style="margin:1em 0">
  <input type="text" name="q" size="50" placeholder="optimization question">
  <button type="submit">Ask</button>
</form>
<form action="/upload" method="post" enctype="multipart/form-data"
      style="margin:1em 0">
  <input type="file" name="report">
  <button type="submit">Upload report</button>
</form>
"""


class HTTPError(Exception):
    """A handler-raised error rendered as a structured JSON response."""

    def __init__(self, status: str, message: str, **detail) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.detail = detail


class MultipartError(ValueError):
    """The multipart/form-data body could not be parsed."""


class ThreadSafeCounters:
    """Lock-guarded named counters shared across server threads.

    Mapping-like for reads (``counters["requests"]``, ``snapshot()``)
    so existing probes keep working; all writes go through
    :meth:`increment`, which is atomic under the lock — a bare
    ``dict[key] += 1`` is a read-modify-write race once the WSGI
    server dispatches handlers on multiple threads.

    ``extensible=True`` lets :meth:`increment` create keys on first
    use — the per-status response counters can't know every status
    line up front; the fixed default keeps the typo protection for
    the named request counters.
    """

    def __init__(self, names: tuple[str, ...] = (),
                 extensible: bool = False) -> None:
        self._lock = threading.Lock()
        self._extensible = extensible
        # egeria: guarded-by[self._lock]
        self._values: dict[str, int] = dict.fromkeys(names, 0)

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            if self._extensible and name not in self._values:
                self._values[name] = 0
            self._values[name] += amount

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._values[name]

    def __iter__(self):
        return iter(self.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._values)

    def snapshot(self) -> dict[str, int]:
        """Consistent point-in-time copy (the ``/healthz`` payload)."""
        with self._lock:
            return dict(self._values)


#: hard cap on queries accepted by one ``/api/batch`` request
DEFAULT_MAX_BATCH_QUERIES = 256


class AdvisorApp:
    """WSGI app wrapping one :class:`AdvisingTool`.

    The advisor reference itself is mutable state: :meth:`reload`
    publishes a replacement with a single attribute assignment (atomic
    under the GIL), and every request captures the reference exactly
    once at dispatch — a request never observes two different indexes.
    """

    #: routes that bypass admission control and draining — probes and
    #: the reload endpoint must keep answering while the gate is
    #: saturated or the server is shutting down
    _UNGATED = frozenset({"/health", "/healthz", "/api/reload"})

    def __init__(
        self,
        advisor: AdvisingTool,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        request_deadline_s: float | None = DEFAULT_DEADLINE_MS / 1000.0,
        max_batch_queries: int = DEFAULT_MAX_BATCH_QUERIES,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        retry_after_s: int = DEFAULT_RETRY_AFTER_S,
        snapshot_store=None,
        allow_extend: bool = True,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self._advisor = advisor
        # prefork workers serve a shared read-only mapping: in-place
        # extension would diverge the siblings, so ingestion is
        # refused with a 409 pointing at the build-and-reload path
        self.allow_extend = allow_extend
        self.max_body_bytes = max_body_bytes
        self.request_deadline_s = request_deadline_s
        self.max_batch_queries = max_batch_queries
        self.max_in_flight = max_in_flight
        self.retry_after_s = retry_after_s
        self.snapshot_store = snapshot_store
        # egeria: guarded-by[self._summary_lock]
        self._summary_html: str | None = None
        # egeria: guarded-by[self._summary_lock]
        self._summary_key: tuple[int, int] | None = None
        self._summary_lock = threading.Lock()
        self._gate = threading.Condition()
        self._in_flight = 0   # egeria: guarded-by[self._gate]
        self._draining = False  # egeria: guarded-by[self._gate]
        self.counters = ThreadSafeCounters((
            "requests",
            "errors",
            "rejected_payloads",
            "rejected_admission",
            "rejected_draining",
            "deadline_expired",
            "degraded_answers",
            "body_read_errors",
            "batch_queries",
            "reloads",
            "extends",
        ))
        self.status_counters = ThreadSafeCounters(extensible=True)

    @property
    def advisor(self) -> AdvisingTool:
        """The currently published advisor (swapped by :meth:`reload`)."""
        return self._advisor

    # -- lifecycle ------------------------------------------------------

    def reload(self, advisor: AdvisingTool) -> int:
        """Publish *advisor* as the serving index.

        A single reference swap: requests dispatched after this line
        see the new advisor, in-flight requests finish on the old one.
        Returns the new advisor's index generation.
        """
        self._advisor = advisor
        self.counters.increment("reloads")
        logger.info("advisor reloaded (generation %d, %d sentences)",
                    advisor.generation, len(advisor.advising_sentences))
        return advisor.generation

    def begin_drain(self) -> None:
        """Stop admitting gated work; probes keep answering."""
        with self._gate:
            self._draining = True

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Begin draining and wait for in-flight requests to finish.

        Returns True when the gate emptied within *timeout_s*, False
        when requests were still running at the deadline (the caller
        decides whether to hard-stop anyway).
        """
        self.begin_drain()
        end = time.monotonic() + timeout_s
        with self._gate:
            while self._in_flight > 0:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._gate.wait(remaining)
        return True

    @property
    def draining(self) -> bool:
        with self._gate:
            return self._draining

    @property
    def in_flight(self) -> int:
        with self._gate:
            return self._in_flight

    # -- WSGI entry point -----------------------------------------------

    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/")
        self.counters.increment("requests")
        if path in self._UNGATED:
            return self._dispatch(environ, start_response, method, path)
        with self._gate:
            if self._draining:
                self.counters.increment("rejected_draining")
                return self._json_error(
                    start_response, "503 Service Unavailable",
                    "server is draining", retry_after=True)
            if self._in_flight >= self.max_in_flight:
                self.counters.increment("rejected_admission")
                return self._json_error(
                    start_response, "429 Too Many Requests",
                    f"{self._in_flight} requests already in flight "
                    f"(limit {self.max_in_flight})", retry_after=True,
                    limit_in_flight=self.max_in_flight)
            self._in_flight += 1
        try:
            return self._dispatch(environ, start_response, method, path)
        finally:
            with self._gate:
                self._in_flight -= 1
                self._gate.notify_all()

    def _dispatch(self, environ, start_response, method: str, path: str):
        # one capture per request: reload() may swap self._advisor at
        # any point, but this request sticks with what it saw here
        advisor = self._advisor
        deadline = Deadline(self.request_deadline_s)
        try:
            if path == "/" and method == "GET":
                return self._respond(start_response,
                                     self.summary_page(advisor))
            if path == "/query" and method == "GET":
                return self._query(advisor, environ, start_response)
            if path == "/api/query" and method == "GET":
                return self._api_query(advisor, environ, start_response)
            if path == "/api/batch" and method == "POST":
                return self._api_batch(advisor, environ, start_response,
                                       deadline)
            if path == "/upload" and method == "POST":
                return self._upload(advisor, environ, start_response,
                                    deadline)
            if path == "/api/reload" and method == "POST":
                return self._api_reload(start_response)
            if path == "/api/extend" and method == "POST":
                return self._api_extend(advisor, environ, start_response)
            if path == "/health" and method == "GET":
                return self._respond(start_response, '{"status": "ok"}',
                                     content_type="application/json")
            if path == "/healthz" and method == "GET":
                return self._healthz(advisor, start_response)
            raise HTTPError("404 Not Found", f"no route for {path}")
        except HTTPError as error:
            if error.status.startswith("413"):
                self.counters.increment("rejected_payloads")
            return self._json_error(start_response, error.status,
                                    error.message, **error.detail)
        except DeadlineExceeded as error:
            self.counters.increment("deadline_expired")
            return self._json_error(
                start_response, "503 Service Unavailable", str(error),
                retry_after=True)
        except Exception as error:
            # never leak a traceback to the client; log it server-side
            self.counters.increment("errors")
            logger.exception("unhandled error serving %s %s", method, path)
            return self._json_error(
                start_response, "500 Internal Server Error",
                "internal error", type=type(error).__name__)

    # -- handlers -----------------------------------------------------------

    def summary_page(self, advisor: AdvisingTool | None = None) -> str:
        advisor = advisor if advisor is not None else self._advisor
        key = (id(advisor), advisor.generation)
        with self._summary_lock:
            if self._summary_html is None or self._summary_key != key:
                summary = render_summary(advisor)
                self._summary_html = summary.replace(
                    "<h1>", _SEARCH_FORM + "<h1>", 1)
                self._summary_key = key
            return self._summary_html

    def _answer(self, advisor: AdvisingTool, query: str,
                limit: int | None = None):
        answer = advisor.query(query, limit=limit)
        if answer.degraded:
            self.counters.increment("degraded_answers")
        return answer

    def _query(self, advisor, environ, start_response):
        query, limit = self._query_params(environ)
        answer = self._answer(advisor, query, limit)
        return self._respond(
            start_response,
            render_answer(advisor, answer, limit=limit))

    def _api_query(self, advisor, environ, start_response):
        query, limit = self._query_params(environ)
        answer = self._answer(advisor, query, limit)
        return self._respond(start_response, json.dumps(answer.to_dict()),
                             content_type="application/json")

    def _api_reload(self, start_response):
        """Load the latest good snapshot and swap it in."""
        if self.snapshot_store is None:
            raise HTTPError("409 Conflict",
                            "no snapshot store configured")
        try:
            tool, report = self.snapshot_store.load_with_report()
        except PersistenceError as error:
            raise HTTPError("503 Service Unavailable",
                            f"reload failed: {error}")
        generation = self.reload(tool)
        return self._respond(
            start_response,
            json.dumps({
                "status": "reloaded",
                "snapshot_version": report.version,
                "recovered": report.recovered,
                "generation": generation,
            }),
            content_type="application/json")

    def _api_extend(self, advisor, environ, start_response):
        """Streaming ingestion: fold a new guide into the advisor.

        Body: ``{"text": ..., "title": str?, "refit": bool?}``.  The
        new document's advising sentences are sealed as one immutable
        index segment (``refit=True`` forces the rebuild-the-world
        path), so readers keep serving from their captured index until
        the extended one is published.
        """
        if not self.allow_extend:
            raise HTTPError(
                "409 Conflict",
                "extension is disabled on this worker (prefork workers "
                "serve a shared read-only index; rebuild a snapshot and "
                "reload instead)")
        body = self._read_body(environ)
        try:
            payload = json.loads(body.decode("utf-8", errors="replace"))
        except ValueError:
            raise HTTPError("400 Bad Request", "malformed JSON body")
        if not isinstance(payload, dict):
            raise HTTPError("400 Bad Request",
                            "body must be a JSON object")
        text = payload.get("text")
        if not isinstance(text, str) or not text.strip():
            raise HTTPError("400 Bad Request",
                            "'text' must be a non-empty string")
        title = payload.get("title")
        if title is not None and not isinstance(title, str):
            raise HTTPError("400 Bad Request", "'title' must be a string")
        refit = payload.get("refit", False)
        if not isinstance(refit, bool):
            raise HTTPError("400 Bad Request", "'refit' must be a boolean")
        document = Document.from_text(text, title=title or "Extension")
        added = advisor.extend(document, refit=refit)
        self.counters.increment("extends")
        index = advisor.recommender.index
        return self._respond(
            start_response,
            json.dumps({
                "status": "extended",
                "added": added,
                "refit": refit,
                "generation": advisor.generation,
                "segments": index.n_segments,
                "advising_sentences": len(advisor.advising_sentences),
            }),
            content_type="application/json")

    def _api_batch(self, advisor, environ, start_response,
                   deadline: Deadline):
        """Answer many queries in one request under one deadline budget.

        Body: ``{"queries": [...], "threshold": float?, "limit": int?}``.
        Amortizes connection and parsing overhead for report-style
        clients that would otherwise fire dozens of ``/api/query``
        round-trips.
        """
        body = self._read_body(environ)
        try:
            payload = json.loads(body.decode("utf-8", errors="replace"))
        except ValueError:
            raise HTTPError("400 Bad Request", "malformed JSON body")
        if not isinstance(payload, dict):
            raise HTTPError("400 Bad Request",
                            "body must be a JSON object")
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries or not all(
                isinstance(q, str) and q.strip() for q in queries):
            raise HTTPError(
                "400 Bad Request",
                "'queries' must be a non-empty list of non-empty strings")
        if len(queries) > self.max_batch_queries:
            raise HTTPError(
                "413 Payload Too Large",
                f"batch of {len(queries)} queries exceeds the "
                f"{self.max_batch_queries}-query limit",
                limit_queries=self.max_batch_queries)
        threshold = payload.get("threshold")
        if threshold is not None:
            if not isinstance(threshold, (int, float)) or \
                    not 0.0 <= float(threshold) <= 1.0:
                raise HTTPError("400 Bad Request",
                                "'threshold' must be a number in [0, 1]")
            threshold = float(threshold)
        limit = payload.get("limit")
        if limit is not None and (
                not isinstance(limit, int) or isinstance(limit, bool)
                or limit < 0):
            raise HTTPError("400 Bad Request",
                            "'limit' must be a non-negative integer")
        answers = []
        for query in queries:
            deadline.check("batch.answer")
            answer = advisor.query(query.strip(),
                                   threshold=threshold, limit=limit)
            if answer.degraded:
                self.counters.increment("degraded_answers")
            answers.append(answer.to_dict())
        self.counters.increment("batch_queries", len(queries))
        return self._respond(
            start_response,
            json.dumps({"count": len(answers), "answers": answers}),
            content_type="application/json")

    def _upload(self, advisor, environ, start_response,
                deadline: Deadline):
        body = self._read_body(environ)
        content_type = environ.get("CONTENT_TYPE", "")
        if content_type.startswith("multipart/form-data"):
            try:
                body = _extract_multipart_file(body, content_type)
            except MultipartError as error:
                raise HTTPError("400 Bad Request",
                                f"malformed multipart body: {error}")
        deadline.check("upload.parse")
        if body.startswith(b"%PDF"):
            try:
                answers = advisor.query_report_pdf(body)
            except Exception as error:
                raise HTTPError("400 Bad Request",
                                "could not parse PDF report",
                                type=type(error).__name__)
        else:
            try:
                answers = advisor.query_report(
                    body.decode("utf-8", errors="replace"))
            except Exception as error:
                raise HTTPError("400 Bad Request",
                                "could not parse report",
                                type=type(error).__name__)
        if not answers:
            return self._respond(
                start_response,
                "<p>No performance issues found in the report.</p>")
        pages = []
        for answer in answers:
            deadline.check("upload.answer")
            if answer.degraded:
                self.counters.increment("degraded_answers")
            pages.append(render_answer(advisor, answer))
        combined = "\n<hr>\n".join(pages)
        return self._respond(start_response, combined)

    def _healthz(self, advisor, start_response):
        payload = advisor.health()
        payload["requests"] = self.counters.snapshot()
        payload["responses"] = self.status_counters.snapshot()
        with self._gate:
            payload["admission"] = {
                "in_flight": self._in_flight,
                "max_in_flight": self.max_in_flight,
                "draining": self._draining,
            }
        if self.snapshot_store is not None:
            payload["snapshots"] = self.snapshot_store.stats()
        injector = active_injector()
        if injector is not None:
            payload["fault_injection"] = {
                "plan": injector.plan.name,
                "points": injector.stats(),
            }
        return self._respond(start_response, json.dumps(payload),
                             content_type="application/json")

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _query_params(environ) -> tuple[str, int | None]:
        """The required ``q`` and the optional ``limit`` (top-k cap)
        parameters, from one parse of the query string."""
        params = parse_qs(environ.get("QUERY_STRING", ""))
        query = params.get("q", [""])[0].strip()
        if not query:
            raise HTTPError("400 Bad Request",
                            "missing query parameter 'q'")
        raw = params.get("limit", [""])[0].strip()
        if not raw:
            return query, None
        try:
            limit = int(raw)
        except ValueError:
            raise HTTPError("400 Bad Request",
                            f"invalid limit parameter: {raw!r}")
        if limit < 0:
            raise HTTPError("400 Bad Request",
                            "limit must be >= 0")
        return query, limit

    def _read_body(self, environ) -> bytes:
        """Read the request body, enforcing presence, size and
        completeness of ``Content-Length``."""
        raw_length = environ.get("CONTENT_LENGTH")
        if raw_length in (None, ""):
            raise HTTPError("400 Bad Request",
                            "missing Content-Length header")
        try:
            length = int(raw_length)
        except (TypeError, ValueError):
            raise HTTPError("400 Bad Request",
                            f"invalid Content-Length: {raw_length!r}")
        if length < 0:
            raise HTTPError("400 Bad Request",
                            "negative Content-Length")
        if length > self.max_body_bytes:
            raise HTTPError(
                "413 Payload Too Large",
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
                limit_bytes=self.max_body_bytes)
        stream = environ.get("wsgi.input")
        if stream is None or length == 0:
            return b""
        try:
            data = stream.read(length)
        except (OSError, ValueError) as error:
            # OSError: client hung up / transport failure; ValueError:
            # closed or misbehaving stream object.  Anything else is a
            # server bug and belongs in the 500 path with a traceback,
            # not a client-blaming 400.
            self.counters.increment("body_read_errors")
            raise HTTPError("400 Bad Request",
                            "could not read request body",
                            type=type(error).__name__)
        if len(data) < length:
            raise HTTPError(
                "400 Bad Request",
                f"truncated request body: got {len(data)} of "
                f"{length} bytes")
        return data

    def _respond(self, start_response, body: str, status: str = "200 OK",
                 content_type: str = "text/html; charset=utf-8",
                 extra_headers: tuple = ()):
        data = body.encode("utf-8")
        self.status_counters.increment(status.split(" ", 1)[0])
        headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(data))),
        ]
        headers.extend(extra_headers)
        start_response(status, headers)
        return [data]

    def _json_error(self, start_response, status: str, message: str,
                    retry_after: bool = False, **detail):
        payload: dict = {"error": {"status": status, "message": message}}
        if detail:
            payload["error"].update(detail)
        extra = (("Retry-After", str(self.retry_after_s)),) \
            if retry_after else ()
        return self._respond(start_response, json.dumps(payload),
                             status=status,
                             content_type="application/json",
                             extra_headers=extra)


def _extract_multipart_file(body: bytes, content_type: str) -> bytes:
    """Pull the first file payload out of a multipart/form-data body.

    Raises :class:`MultipartError` on a missing boundary declaration,
    a body that does not contain the boundary, or the absence of any
    file part — truncated uploads surface as a 400, never a 500.
    """
    match = re.search(r'boundary="?([^";,\s]+)"?', content_type)
    if match is None:
        raise MultipartError("no boundary in Content-Type")
    boundary = b"--" + match.group(1).encode("ascii", errors="replace")
    parts = body.split(boundary)
    if len(parts) < 2:
        raise MultipartError("boundary never appears in body")
    for part in parts:
        header_end = part.find(b"\r\n\r\n")
        if header_end < 0:
            continue
        headers = part[:header_end]
        if b"filename=" not in headers:
            continue
        payload = part[header_end + 4:]
        return payload.rstrip(b"\r\n-")
    raise MultipartError("no file part in multipart body")
