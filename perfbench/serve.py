"""serve-unique and serve-repeat-ingest: HTTP request -> response.

Set-up (``setup_s``, the median of :data:`SETUP_REPEATS`): the Stage II
fit over the generated corpus, the commit of a binary (v4, mmap)
snapshot, and the time from spawning ``python -m repro.cli serve
--snapshots DIR`` (the default threaded server) to its first answered
query, detected by a connect retry every 2 ms.  Each set-up is followed
by its share of the measured window on the server it started, so set-up
and window samples spread over the whole run.  Throughput, p50 and p90
are medians over these windows.

The load generator is this process: :data:`CONNECTIONS` threads, each
a closed loop of HTTP/1.0 requests on fresh connections.

* ``serve-unique`` sends queries whose normalized terms never repeat,
  so every one misses the query cache; after the read window it posts
  the ingest batches one at a time to the idle server
  (``ingest_p50_ms``).
* ``serve-repeat-ingest`` draws queries from a hot set that fits the
  cache, while connection 1 posts the same ingest batches at fixed
  request positions, so every commit ingests the same amount.

Checks: every response must be 2xx; a fixed query sample must answer
exactly as an in-process dense, uncached reference recommender over
the same corpus (after replaying the ingest batches in-process, for
serve-repeat-ingest).

The traced run launches the server through ``launcher.py``, which
wraps the program's callables in spans; an untraced server started from
the same snapshot takes turns with it, for the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from urllib.parse import quote_plus

import inputs
import tracing
from common import (BENCH_DIR, ROOT, make_workdir, median, metric,
                    peak_rss_mb, percentile, program_env, remove_tree,
                    snapshot_digest, stop_process, tree_bytes,
                    warm_interpreter)

SETUP_REPEATS = 4
CONNECTIONS = 2
#: untimed requests that warm the server's code paths before the window
WARMUP_REQUESTS = 100
#: queries whose answers are compared with the in-process reference
SAMPLE = 40
#: serve-repeat-ingest: connection 1 posts ingest batch k just before
#: its request number FIRST_EXTEND_AT + k * EXTEND_EVERY
FIRST_EXTEND_AT = 150
EXTEND_EVERY = 100
#: queries generated per second of window (several times the rate any
#: server here sustains; a connection that runs out stops early)
QUERIES_PER_SECOND = 2500
#: traced runs alternate this many traced / untraced window pairs
TRACE_ALTERNATIONS = 4
TITLE = "HPC advising corpus"


# -- HTTP -------------------------------------------------------------------


def _query_request(query: str, request_id: str) -> bytes:
    return (f"GET /api/query?q={quote_plus(query)}&limit={inputs.LIMIT} "
            f"HTTP/1.0\r\nHost: 127.0.0.1\r\n"
            f"X-Request-Id: {request_id}\r\n\r\n").encode("ascii")


def _extend_request(text: str, title: str, request_id: str) -> bytes:
    body = json.dumps({"text": text, "title": title}).encode("utf-8")
    head = (f"POST /api/extend HTTP/1.0\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"X-Request-Id: {request_id}\r\n\r\n").encode("ascii")
    return head + body


def _roundtrip(port: int, payload: bytes) -> tuple[int, bytes]:
    """Send one request on a fresh connection; (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/") or not head[9:12].isdigit():
        raise ConnectionError(f"malformed response {head[:40]!r}")
    return int(head[9:12]), body


def _get_json(port: int, path: str) -> dict:
    status, body = _roundtrip(
        port, f"GET {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n".encode())
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# -- server lifecycle -------------------------------------------------------


def _spawn(store_dir: str, port: int, spans_path: str | None):
    serve = ["serve", "--snapshots", store_dir, "--port", str(port)]
    if spans_path is None:
        command = [sys.executable, "-m", "repro.cli", *serve]
    else:
        command = [sys.executable, os.path.join(BENCH_DIR, "launcher.py"),
                   spans_path, *serve]
    return subprocess.Popen(command, cwd=ROOT, env=program_env(),
                            stdout=subprocess.DEVNULL)


def _first_answer(process, port: int, payload: bytes) -> None:
    """Wait for the server's first answer, retrying refused connects
    every 2 ms."""
    deadline = time.monotonic() + 120
    while True:
        try:
            status, _ = _roundtrip(port, payload)
        except ConnectionRefusedError:
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server never answered")
            time.sleep(0.002)
            continue
        if status != 200:
            raise RuntimeError(f"first query answered {status}")
        return


def _setup(corpus, store_dir, probe, spans_path=None):
    """One set-up: fit, commit, spawn, first answer.  Returns the
    timings, the server process, its port and the fitted tool."""
    from repro.core.advisor import AdvisingTool
    from repro.core.snapshots import SnapshotStore
    from repro.docs.document import Document

    port = _free_port()
    start = time.perf_counter()
    document = Document.from_sentences(corpus, title=TITLE)
    tool = AdvisingTool(document, document.sentences)
    fitted = time.perf_counter()
    info = SnapshotStore(store_dir, binary=True).save(tool)
    committed = time.perf_counter()
    process = _spawn(store_dir, port, spans_path)
    try:
        _first_answer(process, port, _query_request(probe, "cold-start"))
    except BaseException:
        stop_process(process, graceful=False)
        raise
    answered = time.perf_counter()
    timings = {"fit": fitted - start, "commit": committed - fitted,
               "cold_start": answered - committed,
               "total": answered - start}
    return timings, process, port, tool, info


# -- load generation --------------------------------------------------------


class Load:
    """The load generator: closed-loop connections over fixed request
    sequences, run in one or more windows (each on its own server),
    plus the ingest batches of the workload.  Results accumulate over
    the windows."""

    def __init__(self, sequences: list[list[str]], sample: set[str],
                 extends: list[str], tag: str) -> None:
        self.sequences = sequences
        self.sample = sample
        self.extends = extends
        self.tag = tag
        #: where each connection resumes in its sequence
        self.offsets = [0] * len(sequences)
        #: per connection: (request id, start ns, end ns, status)
        self.spans: list[list[tuple]] = [[] for _ in sequences]
        self.extend_ms: list[float] = []
        self.extended: list[dict] = []
        self.answers: dict[str, bytes] = {}
        self.statuses: dict[int, int] = {}
        self.errors = 0
        self.requests = 0
        self.window_requests = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: per window, in order: p50, p90 and answered queries per
        #: second (a host slowdown over part of the run shows here)
        self.window_p50_ms: list[float] = []
        self.window_p90_ms: list[float] = []
        self.window_rate: list[float] = []
        self._lock = threading.Lock()

    def _send(self, port: int, payload: bytes):
        """One request; ``(status, body, start_ns, end_ns)``, or
        ``None`` after a socket error.  Every outcome is counted."""
        start = time.perf_counter_ns()
        try:
            status, body = _roundtrip(port, payload)
        except OSError:
            with self._lock:
                self.errors += 1
                self.requests += 1
            return None
        end = time.perf_counter_ns()
        with self._lock:
            self.statuses[status] = self.statuses.get(status, 0) + 1
            self.requests += 1
        return status, body, start, end

    def _query(self, port: int, query: str, request_id: str,
               spans=None) -> bytes | None:
        sent = self._send(port, _query_request(query, request_id))
        if sent is None:
            return None
        status, body, start, end = sent
        if spans is not None:
            spans.append((request_id, start, end, status))
        if query in self.sample and query not in self.answers:
            self.answers[query] = body
        return body

    def _extend(self, port: int, k: int) -> None:
        request_id = f"{self.tag}-extend-{len(self.extend_ms)}"
        sent = self._send(port, _extend_request(
            self.extends[k], f"Ingest {k}", request_id))
        if sent is not None:
            self.extend_ms.append((sent[3] - sent[2]) / 1e6)
            if sent[0] == 200:
                self.extended.append(json.loads(sent[1]))

    def _connection(self, port: int, k: int, deadline: float,
                    ingest: bool) -> None:
        sequence, spans = self.sequences[k], self.spans[k]
        # connection 1 carries the ingest batches, at fixed positions
        # counted from the start of the window
        due = ([FIRST_EXTEND_AT + EXTEND_EVERY * i
                for i in range(len(self.extends))]
               if ingest and k == 1 else [])
        first = self.offsets[k]
        sent = 0
        for n in range(first, len(sequence)):
            if sent < len(due) and n - first == due[sent]:
                self._extend(port, sent)
                sent += 1
            elif sent == len(due) and time.perf_counter() >= deadline:
                break
            self._query(port, sequence[n], f"{self.tag}-{k}-{n}", spans)
            self.offsets[k] = n + 1

    def window(self, port: int, seconds: float, ingest: bool) -> None:
        """Run every connection for *seconds*; with *ingest*, until
        every ingest batch is in as well."""
        requests = self.requests
        marks = [len(spans) for spans in self.spans]
        cpu = time.process_time()
        start = time.perf_counter()
        threads = [threading.Thread(
            target=self._connection,
            args=(port, k, start + seconds, ingest))
            for k in range(len(self.sequences))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        self.wall_s += wall
        self.cpu_s += time.process_time() - cpu
        self.window_requests += self.requests - requests
        window = [(end - begin, status)
                  for spans, mark in zip(self.spans, marks)
                  for _, begin, end, status in spans[mark:]]
        if window:
            window_ms = [duration / 1e6 for duration, _ in window]
            self.window_p50_ms.append(median(window_ms))
            self.window_p90_ms.append(percentile(window_ms, 90))
            self.window_rate.append(
                sum(200 <= status < 300 for _, status in window) / wall)

    def ingest_idle(self, port: int) -> None:
        """Post every ingest batch in turn to the otherwise idle
        server."""
        for k in range(len(self.extends)):
            self._extend(port, k)

    def ask(self, port: int, queries: list[str]) -> dict[str, bytes]:
        """Ask *queries* in turn; their answers."""
        answers = {}
        for k, query in enumerate(queries):
            body = self._query(port, query, f"{self.tag}-check-{k}")
            if body is not None:
                answers[query] = body
        return answers

    @property
    def query_ms(self) -> list[float]:
        return [(end - start) / 1e6 for spans in self.spans
                for _, start, end, _ in spans]

    @property
    def failed(self) -> int:
        bad = sum(count for status, count in self.statuses.items()
                  if not 200 <= status < 300)
        return bad + self.errors


# -- reference answers ------------------------------------------------------


def _indexed(answers: dict[str, bytes], index_of: dict[str, int]
             ) -> dict[str, list[tuple]]:
    """Served answers as ``(sentence index, score)`` lists."""
    return {query: [(index_of[answer["sentence"]], answer["score"])
                    for answer in json.loads(body)["answers"]]
            for query, body in answers.items()}


def _reference(tool, queries) -> dict[str, list[tuple]]:
    """Dense, uncached ``(sentence index, score)`` answers of *tool*'s
    current index, rounded as the web API rounds them."""
    from repro.textproc.normalize import NormalizationPipeline

    normalize = NormalizationPipeline()
    recommender = tool.recommender
    out = {}
    for query in queries:
        rows = recommender.index.query_tokens(
            normalize(query), limit=inputs.LIMIT, prune=False)
        out[query] = [(recommender.sentences[row].index, round(score, 4))
                      for row, score in rows]
    return out


def _mismatches(answers: dict[str, bytes], tool, reference) -> int:
    index_of = {sentence.text: sentence.index
                for sentence in tool.document.iter_sentences()}
    try:
        served = _indexed(answers, index_of)
    except KeyError:
        return len(reference)
    return sum(served.get(query) != expected
               for query, expected in reference.items())


# -- the workloads ------------------------------------------------------------


class Plan:
    """Everything one workload sends, generated from the seed."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.ingest = workload == "serve-repeat-ingest"
        self.corpus = inputs.corpus_sentences(seed)
        self.warm_batch, *self.batches = inputs.ingest_batches(seed)
        count = int(seconds * QUERIES_PER_SECOND) + 1000
        if self.ingest:
            hot = inputs.hot_queries(seed)
            self.probe, self.warmup = hot[0], hot
            drawn = inputs.hot_sequence(seed, hot, count)
            self.sample = hot[:SAMPLE]
        else:
            queries = inputs.unique_queries(
                seed, count + WARMUP_REQUESTS + 1)
            self.probe = queries[0]
            self.warmup = queries[1:WARMUP_REQUESTS + 1]
            drawn = queries[WARMUP_REQUESTS + 1:]
        self.sequences = [drawn[k::CONNECTIONS]
                          for k in range(CONNECTIONS)]
        if not self.ingest:
            self.sample = [sequence[i] for sequence in self.sequences
                           for i in range(SAMPLE // CONNECTIONS)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pin = inputs.check_pins(workload)
    plan = Plan(workload, seed, seconds)
    work = make_workdir(workload)
    try:
        return _run(plan, seconds, trace, work, pin)
    finally:
        remove_tree(work)


class Segment:
    """One server's share of the run: warm-up before its window, then
    the ingest and checks that follow it."""

    def __init__(self, plan: Plan, load: Load, port: int, process) -> None:
        self.plan, self.load = plan, load
        self.port, self.process = port, process
        if plan.ingest:
            self._warm_extend()
        for k, query in enumerate(plan.warmup):
            status, _ = _roundtrip(port,
                                   _query_request(query, f"warm-{k}"))
            if status != 200:
                raise RuntimeError(f"warm-up query answered {status}")
        self.before = _get_json(port, "/healthz")

    def window(self, seconds: float, ingest: bool = True) -> None:
        self.load.window(self.port, seconds, self.plan.ingest and ingest)

    def close(self) -> None:
        """Post-window work: the check (serve-repeat-ingest) or the
        idle ingest (serve-unique); then the server's counters."""
        if self.plan.ingest:
            # the answers change with every extend: ask the sample
            # again once every batch is in
            self.answers = self.load.ask(self.port, self.plan.sample)
        else:
            self.answers = None
            self._warm_extend()
            self.load.ingest_idle(self.port)
        self.after = _get_json(self.port, "/healthz")
        self.rss_mb = peak_rss_mb(self.process.pid)

    def _warm_extend(self) -> None:
        """The first Stage I of a server process loads its tagger and
        parser: an untimed extend pays for that."""
        status, _ = _roundtrip(self.port, _extend_request(
            self.plan.warm_batch, "Ingest warm-up",
            f"{self.load.tag}-warm-extend"))
        if status != 200:
            raise RuntimeError(f"warm-up extend answered {status}")


def _new_load(plan: Plan, tag: str) -> Load:
    return Load(plan.sequences, set() if plan.ingest else set(plan.sample),
                plan.batches, tag)


def _run(plan: Plan, seconds, trace, work, pin) -> dict:
    warm_interpreter()
    if trace:
        return _run_traced(plan, seconds, work, pin)
    # set-up repeats and window shares alternate, each share on the
    # server just set up, so both sample the machine across the run
    load = _new_load(plan, "q")
    timings, segments = [], []
    for repeat in range(SETUP_REPEATS):
        # the previous set-up's tool is not resident during this one
        tool = info = None
        gc.collect()
        setup, process, port, tool, info = _setup(
            plan.corpus, os.path.join(work, f"snapshots-{repeat}"),
            plan.probe)
        timings.append(setup)
        try:
            segment = Segment(plan, load, port, process)
            segment.window(seconds / SETUP_REPEATS)
            segment.close()
            segments.append(segment)
        finally:
            stop_process(process, graceful=False)
    layout = _layout(tool, info)
    reference = _replay(plan, tool)
    mismatched = _mismatched(plan, load, segments, tool, reference)
    _report(plan.workload, pin, timings, load, segments, layout,
            mismatched)
    return {
        "correct": load.failed + mismatched == 0,
        "attempted": load.requests,
        "failed": load.failed + mismatched,
        "samples": {"queries": len(load.query_ms),
                    "windows": len(load.window_rate),
                    "extends": len(load.extend_ms),
                    "setup": len(timings)},
        # medians over the windows, one per server: a host slowdown
        # over part of the run moves them less than pooled figures
        "metrics": {
            "setup_s": metric(median([t["total"] for t in timings]), "s"),
            "throughput_per_s": metric(median(load.window_rate), "1/s"),
            "latency_p50_ms": metric(median(load.window_p50_ms), "ms"),
            "latency_p90_ms": metric(median(load.window_p90_ms), "ms"),
            "ingest_p50_ms": metric(median(load.extend_ms), "ms"),
            "peak_rss_mb": metric(
                median([segment.rss_mb for segment in segments]), "MB"),
            "snapshot_mb": metric(layout["snapshot_bytes"] / 2**20, "MB"),
        },
    }


def _run_traced(plan: Plan, seconds, work, pin) -> dict:
    """One traced set-up and server; an untraced server started from a
    copy of the same snapshot takes turns with it, window by window,
    so the two p50s differ by the tracing overhead, not by drift."""
    tracer = tracing.Tracer()
    spans_path = os.path.join(work, "server-spans.json")
    store_dir = os.path.join(work, "snapshots")
    tracer.begin("setup")
    uninstall = tracing.install(tracer, tracing.layer_targets())
    try:
        setup, traced_process, traced_port, tool, info = _setup(
            plan.corpus, store_dir, plan.probe, spans_path)
    finally:
        uninstall()
    loads = (_new_load(plan, "t"), _new_load(plan, "u"))
    process = None
    try:
        copy = os.path.join(work, "untraced")
        shutil.copytree(store_dir, copy)
        port = _free_port()
        process = _spawn(copy, port, None)
        _first_answer(process, port,
                      _query_request(plan.probe, "cold-start"))
        segments = (Segment(plan, loads[0], traced_port, traced_process),
                    Segment(plan, loads[1], port, process))
        share = seconds / 2 / TRACE_ALTERNATIONS
        for turn in range(TRACE_ALTERNATIONS):
            # the second of two back-to-back windows runs slower, so
            # the order flips every turn
            for segment in (segments if turn % 2 == 0
                            else segments[::-1]):
                segment.window(share, ingest=turn == 0)
        for segment in segments:
            segment.close()
    finally:
        if process is not None:
            stop_process(process, graceful=False)
        # the traced server writes its spans on a graceful exit
        stop_process(traced_process)
    layout = _layout(tool, info)
    reference = _replay(plan, tool)
    mismatched = sum(_mismatched(plan, load, [segment], tool, reference)
                     for load, segment in zip(loads, segments))
    _report(plan.workload, pin, [setup], loads[0], segments[:1], layout,
            mismatched)
    failed = sum(load.failed for load in loads) + mismatched
    spans, totals = tracing.Tracer.load(spans_path)
    return {
        "correct": failed == 0,
        "attempted": sum(load.requests for load in loads),
        "failed": failed,
        "samples": {"queries": len(loads[0].query_ms),
                    "extends": len(loads[0].extend_ms), "setup": 1},
        "layers": _trace_layers(tracer, spans, totals, loads[0],
                                loads[1], segments[0], setup, layout),
    }


def _layout(tool, info) -> dict:
    index = tool.recommender.index
    return {"rows": len(index),
            "nnz": sum(segment.matrix.nnz for segment in index.segments),
            "snapshot_bytes": tree_bytes(info.path),
            "snapshot_sha256": snapshot_digest(info.path)}


def _replay(plan: Plan, tool) -> dict[str, list[tuple]]:
    """Answer the sample from the set-up's in-process tool, after
    replaying the ingest the server saw before answering it."""
    from repro.docs.document import Document

    if plan.ingest:
        tool.auto_compaction = False
        tool.extend(Document.from_text(plan.warm_batch,
                                       title="Ingest warm-up"))
        for k, text in enumerate(plan.batches):
            tool.extend(Document.from_text(text, title=f"Ingest {k}"))
    return _reference(tool, plan.sample)


def _mismatched(plan, load, segments, tool, reference) -> int:
    """Sample answers that differ from the reference: those of the
    window (serve-unique) or of every server's post-window check."""
    if not plan.ingest:
        return _mismatches(load.answers, tool, reference)
    return sum(_mismatches(segment.answers, tool, reference)
               for segment in segments)


def _delta(windows, *path) -> float:
    """Growth of one ``/healthz`` counter over each ``(before, after)``
    pair of payloads, summed."""
    def get(payload):
        for key in path:
            payload = payload.get(key, {}) if isinstance(payload, dict) \
                else {}
        return payload if isinstance(payload, (int, float)) else 0

    return sum(get(after) - get(before) for before, after in windows)


def _report(workload, pin, timings, load, segments, layout,
            mismatched) -> None:
    windows = [(segment.before, segment.after) for segment in segments]
    hits = _delta(windows, "query_cache", "hits")
    misses = _delta(windows, "query_cache", "misses")
    query_ms = load.query_ms
    p99 = percentile(query_ms, 99)
    beyond = sum(value > p99 for value in query_ms)
    sealed = sum(response["added"] > 0 for response in load.extended)
    print(f"# {workload}: inputs sha256 {pin[:16]} (default seed); "
          f"snapshot sha256 {layout['snapshot_sha256'][:16]}, "
          f"{layout['rows']} rows")
    print("# setup repeats (fit/commit/cold start s): " + ", ".join(
        f"{t['fit']:.3f}/{t['commit']:.3f}/{t['cold_start']:.3f}"
        for t in timings))
    print(f"# server cache hit ratio {hits / max(1, hits + misses):.4f} "
          f"({hits}/{hits + misses} lookups), repairs "
          f"{_delta(windows, 'query_cache', 'repairs')}")
    print(f"# p99 {p99:.3f} ms over {len(query_ms)} queries "
          f"({beyond} beyond it); per window: p50 "
          f"{[round(value, 3) for value in load.window_p50_ms]} ms, p90 "
          f"{[round(value, 3) for value in load.window_p90_ms]} ms, "
          f"{[round(value, 1) for value in load.window_rate]} answers/s")
    print(f"# extends {len(load.extend_ms)}, segments sealed {sealed}, "
          f"p50 {median(load.extend_ms):.1f} ms; per server after the "
          f"window: segments "
          f"{[seg.after['index']['segments'] for seg in segments]}, "
          f"merges {_delta(windows, 'index', 'compactions', 'merges')}")
    print(f"# load generator: "
          f"{1e3 * load.cpu_s / max(1, load.window_requests):.3f}"
          f" ms CPU per request, {load.cpu_s / load.wall_s:.1%} of one "
          f"core; {mismatched} sample mismatches")


def _trace_layers(tracer, spans, totals, load, untraced, segment, setup,
                  layout) -> dict:
    """The traced server's layers (:func:`_served_layers`) plus the
    set-up's, measured in this process, per set-up."""
    harness = tracer.totals()
    load_spans = [span for span in spans if span[2] == "snapshots.load"]
    out = _served_layers(spans, totals, load, segment.before,
                         segment.after)
    out.update({
        "recommender.fit_ms": harness.get(
            ("setup", "recommender.fit"), (0, 0))[1] / 1e6,
        "retrieval.rows": layout["rows"],
        "retrieval.nnz": layout["nnz"],
        "snapshots.save_ms": harness.get(
            ("setup", "snapshots.save"), (0, 0))[1] / 1e6,
        "binindex.pack_ms": harness.get(
            ("setup", "binindex.pack"), (0, 0))[1] / 1e6,
        "snapshots.bytes": layout["snapshot_bytes"],
        "snapshots.load_ms": ((load_spans[0][4] - load_spans[0][3]) / 1e6
                              if load_spans else 0.0),
        "web.cold_start_ms": setup["cold_start"] * 1e3,
        "client.cpu_ms_per_req": 1e3 * untraced.cpu_s
        / max(1, untraced.window_requests),
        "trace.overhead_ms": median(load.query_ms)
        - median(untraced.query_ms),
    })
    return out


def _served_layers(spans, totals, load: Load, before: dict,
                   after: dict) -> dict:
    """Per-layer means of a traced server: per window query, per timed
    extend.  Server counters are summed per phase (see ``tracing``):
    the window queries of each connection, and the timed extends;
    *before* and *after* are its ``/healthz`` around them."""
    by_request: dict[str, dict[str, tuple]] = {}
    for span in spans:
        by_request.setdefault(span[5], {})[span[2]] = span
    queries = max(1, len(load.query_ms))
    window_phases = [f"{load.tag}-{k}" for k in range(len(load.spans))]
    extend_phase = f"{load.tag}-extend"
    extends = max(1, len(load.extend_ms))

    def per_query(name, field):
        return sum(totals.get((phase, name), (0, 0, 0, 0))[field]
                   for phase in window_phases) / queries

    def per_extend(name, field=1):
        return totals.get((extend_phase, name), (0, 0, 0, 0))[field] \
            / extends

    http = uncovered = rtt = 0
    for request, start, end, _ in (span for spans_ in load.spans
                                   for span in spans_):
        mine = by_request.get(request, {})
        duration = end - start
        rtt += duration
        app_span = mine.get("web.app")
        if app_span is not None:
            http += duration - (app_span[4] - app_span[3])
        connection = mine.get("web.connection")
        overlap = 0
        if connection is not None:
            overlap = max(0, min(end, connection[4])
                          - max(start, connection[3]))
        uncovered += duration - overlap
    windows = [(before, after)]
    hits = _delta(windows, "query_cache", "hits")
    misses = _delta(windows, "query_cache", "misses")
    indexed = per_query("retrieval.rows_indexed", 0)
    out = {
        "docs.load_ms": (per_extend("docs.text", 2)
                         + per_extend("docs.sentences", 2)) / 1e6,
        "recognizer.self_ms": per_extend("recognizer.recognize", 2) / 1e6,
        "recognizer.degraded": (
            after["degradation"]["build_events"]
            + after["degradation"]["quarantined_sentences"]
            + after["degradation"]["answer_events"]),
        "web.http_ms": http / queries / 1e6,
        "web.app_ms": per_query("web.app", 2) / 1e6,
        "recommender.normalize_ms":
            per_query("recommender.normalize", 1) / 1e6,
        "retrieval.score_ms": sum(
            per_query(name, 2) for name in ("retrieval.query",
                                            "retrieval.candidates",
                                            "retrieval.dense")) / 1e6,
        "recommender.self_ms":
            per_query("recommender.recommend", 2) / 1e6,
        "retrieval.candidate_ratio": (
            per_query("retrieval.rows_scored", 0) / indexed
            if indexed else 0.0),
        "cache.hit_ratio": hits / max(1, hits + misses),
        "cache.repairs": _delta(windows, "query_cache", "repairs"),
        "cache.evictions": _delta(windows, "query_cache", "evictions"),
        "cache.invalidations": (
            _delta(windows, "query_cache", "invalidations_wholesale")
            + _delta(windows, "query_cache", "invalidations_segment")),
        "ingest.extend_ms": per_extend("ingest.extend") / 1e6,
        "ingest.stage1_ms": per_extend("recognizer.recognize") / 1e6,
        "segments.count": after["index"]["segments"],
        "compaction.merges": _delta(windows, "index", "compactions",
                                    "merges"),
        "compaction.refits": _delta(windows, "index", "compactions",
                                    "refits"),
        "compaction.aborted": _delta(windows, "index", "compactions",
                                     "aborted"),
        "compaction.ms": sum(span[4] - span[3] for span in spans
                             if span[2] == "compaction.compact") / 1e6,
        # the /healthz read that opened the window is counted as a 200
        "web.responses_2xx": sum(
            _delta(windows, "responses", str(status))
            for status in range(200, 300)) - 1,
        "web.responses_4xx": sum(
            _delta(windows, "responses", str(status))
            for status in range(400, 500) if status != 429),
        "web.responses_429": _delta(windows, "responses", "429"),
        "web.responses_5xx": sum(
            _delta(windows, "responses", str(status))
            for status in range(500, 600)),
        "trace.uncovered_share": uncovered / rtt if rtt else 0.0,
    }
    sentences = inputs.INGEST_SENTENCES
    for layer in ("textproc.tokens", "textproc.stems", "pipeline.terms",
                  "parsing.graph", "srl.frames"):
        out[f"{layer}_ms"] = per_extend(layer) / 1e6
        runs = per_extend(layer, 0)
        if layer.startswith(("parsing", "srl")):
            out[f"{layer}_ratio"] = runs / sentences
        else:
            out[f"{layer}_runs"] = runs
            out[f"{layer}_failures"] = per_extend(layer, 3)
    return out
