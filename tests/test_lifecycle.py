"""Zero-downtime lifecycle tests: atomic index swap, reload under
load, admission control, and graceful drain.

The acceptance bar: a reload under concurrent query load completes
with zero failed requests and bit-identical scores before and after
for an unchanged corpus; concurrent ``extend()`` never exposes a torn
index to in-flight queries.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import Document, Egeria
from repro.core.snapshots import SnapshotStore
from repro.web.app import AdvisorApp
from repro.web.server import serve, shutdown_gracefully

from tests.helpers import BlockingAdvisor

BASE_SENTENCES = [
    "Use shared memory tiles to improve effective bandwidth.",
    "Avoid divergent branches inside warps.",
    "Coalesce global memory accesses in tight loops.",
]

EXTRA_SENTENCES = [
    "Use pinned memory to accelerate host transfers.",
    "Prefer warp-level primitives over shared-memory reductions.",
]


def _advisor(sentences=None, title="Lifecycle Guide"):
    return Egeria().build_advisor(
        Document.from_sentences(sentences or BASE_SENTENCES, title=title))


def call(app, method="GET", path="/", query="", body=b"",
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
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    return captured["status"], captured["headers"], \
        b"".join(chunks).decode("utf-8")


class TestAtomicIndexSwap:
    def test_extend_bumps_generation_and_is_atomic(self) -> None:
        advisor = _advisor()
        before = advisor.generation
        count_before = len(advisor.advising_sentences)
        advisor.extend(Document.from_sentences(EXTRA_SENTENCES,
                                               title="Extra"))
        assert advisor.generation == before + 1
        assert len(advisor.advising_sentences) > count_before

    def test_concurrent_extend_vs_queries_no_torn_reads(self) -> None:
        """Readers hammer the advisor while a writer extends it
        repeatedly; every observed index handle must be internally
        consistent (generation and sentence count move together)."""
        advisor = _advisor()
        # background compaction also publishes generations; keep this
        # test's generation→count ledger driven by extend() alone
        advisor.auto_compaction = False
        # generation → expected advising-sentence count, filled in by
        # the writer as each extend() publishes
        expected = {advisor.generation: len(advisor.advising_sentences)}
        expected_lock = threading.Lock()
        errors: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                index = advisor._index  # one atomic handle read
                with expected_lock:
                    want = expected.get(index.generation)
                if want is not None and len(index.advising) != want:
                    errors.append(
                        f"generation {index.generation} exposed "
                        f"{len(index.advising)} sentences, wanted {want}")
                    return
                answer = advisor.query("memory bandwidth")
                if not answer.found:
                    errors.append("query lost its answers mid-extend")
                    return

        readers = [threading.Thread(target=reader) for _ in range(6)]
        for thread in readers:
            thread.start()
        try:
            for round_no in range(5):
                advisor.extend(Document.from_sentences(
                    [f"Use stream {round_no} to overlap transfers.",
                     *EXTRA_SENTENCES],
                    title=f"Round {round_no}"))
                with expected_lock:
                    expected[advisor.generation] = len(
                        advisor.advising_sentences)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
        assert errors == []
        assert advisor.generation == 5

    def test_freeze_blocks_writers_not_readers(self) -> None:
        advisor = _advisor()
        with advisor.freeze() as index:
            # readers still work while a snapshot serializes
            assert advisor.query("memory bandwidth").found
            assert index.generation == advisor.generation


class TestAdmissionControl:
    def test_saturated_gate_sheds_with_429(self) -> None:
        blocking = BlockingAdvisor(_advisor())
        app = AdvisorApp(blocking, max_in_flight=1)
        results: list = []

        def occupant() -> None:
            results.append(call(app, path="/api/query", query="q=memory"))

        thread = threading.Thread(target=occupant)
        thread.start()
        try:
            assert blocking.entered.wait(timeout=10)
            status, headers, body = call(app, path="/api/query",
                                         query="q=memory")
            assert status == "429 Too Many Requests"
            assert "Retry-After" in headers
            payload = json.loads(body)
            assert payload["error"]["limit_in_flight"] == 1
            # probes bypass the gate even at saturation
            probe_status, _, probe_body = call(app, path="/healthz")
            assert probe_status == "200 OK"
            health = json.loads(probe_body)
            assert health["admission"]["in_flight"] == 1
            assert health["admission"]["max_in_flight"] == 1
        finally:
            blocking.release.set()
            thread.join(timeout=10)
        assert results[0][0] == "200 OK"
        assert app.counters["rejected_admission"] == 1
        assert app.in_flight == 0

    def test_status_counters_track_every_response(self) -> None:
        app = AdvisorApp(_advisor())
        call(app, path="/api/query", query="q=memory")
        call(app, path="/nope")
        counts = app.status_counters.snapshot()
        assert counts["200"] >= 1
        assert counts["404"] == 1

    def test_max_in_flight_validation(self) -> None:
        with pytest.raises(ValueError):
            AdvisorApp(_advisor(), max_in_flight=0)


class TestDrain:
    def test_draining_sheds_gated_routes_only(self) -> None:
        app = AdvisorApp(_advisor())
        app.begin_drain()
        status, headers, _ = call(app, path="/api/query", query="q=memory")
        assert status == "503 Service Unavailable"
        assert "Retry-After" in headers
        assert app.counters["rejected_draining"] == 1
        probe_status, _, body = call(app, path="/healthz")
        assert probe_status == "200 OK"
        assert json.loads(body)["admission"]["draining"] is True

    def test_drain_waits_for_in_flight(self) -> None:
        blocking = BlockingAdvisor(_advisor())
        app = AdvisorApp(blocking)
        done: list = []

        def occupant() -> None:
            done.append(call(app, path="/api/query", query="q=memory"))

        thread = threading.Thread(target=occupant)
        thread.start()
        assert blocking.entered.wait(timeout=10)
        assert app.drain(timeout_s=0.05) is False  # still occupied
        blocking.release.set()
        assert app.drain(timeout_s=10) is True
        thread.join(timeout=10)
        assert done[0][0] == "200 OK"

    def test_drain_on_idle_app_returns_immediately(self) -> None:
        app = AdvisorApp(_advisor())
        assert app.drain(timeout_s=0.01) is True


class TestReload:
    def test_reload_without_store_is_409(self) -> None:
        app = AdvisorApp(_advisor())
        status, _, body = call(app, "POST", "/api/reload")
        assert status == "409 Conflict"
        assert "snapshot store" in json.loads(body)["error"]["message"]

    def test_reload_endpoint_swaps_advisor(self, tmp_path) -> None:
        advisor = _advisor()
        store = SnapshotStore(str(tmp_path))
        store.save(advisor)
        app = AdvisorApp(advisor, snapshot_store=store)
        status, _, body = call(app, "POST", "/api/reload")
        assert status == "200 OK"
        payload = json.loads(body)
        assert payload["status"] == "reloaded"
        assert payload["snapshot_version"] == 1
        assert app.advisor is not advisor  # fresh instance swapped in
        assert app.counters["reloads"] == 1

    def test_reload_on_empty_store_is_503_and_keeps_advisor(
            self, tmp_path) -> None:
        advisor = _advisor()
        store = SnapshotStore(str(tmp_path))
        app = AdvisorApp(advisor, snapshot_store=store)
        status, headers, _ = call(app, "POST", "/api/reload")
        assert status == "503 Service Unavailable"
        assert app.advisor is advisor

    def test_reload_under_load_zero_failures_identical_scores(
            self, tmp_path) -> None:
        """The acceptance scenario: hot reload while queries are in
        flight — no request fails, and an unchanged corpus yields
        bit-identical scores before and after."""
        advisor = _advisor()
        store = SnapshotStore(str(tmp_path))
        store.save(advisor)
        app = AdvisorApp(advisor, snapshot_store=store)
        # start from a snapshot-loaded advisor so every subsequent
        # reload serves the same normalized corpus
        assert call(app, "POST", "/api/reload")[0] == "200 OK"
        query = "q=memory+bandwidth"
        _, _, baseline = call(app, path="/api/query", query=query)
        failures: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                status, _, body = call(app, path="/api/query", query=query)
                if status != "200 OK":
                    failures.append(status)
                    return
                if body != baseline:
                    failures.append(f"answer drifted: {body[:80]}")
                    return

        readers = [threading.Thread(target=reader) for _ in range(6)]
        for thread in readers:
            thread.start()
        try:
            for _ in range(5):
                status, _, _ = call(app, "POST", "/api/reload")
                assert status == "200 OK"
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=15)
        assert failures == []
        assert app.counters["errors"] == 0
        assert app.counters["reloads"] == 6  # initial + 5 under load
        _, _, after = call(app, path="/api/query", query=query)
        assert after == baseline

    def test_summary_page_invalidates_after_reload(self,
                                                   tmp_path) -> None:
        advisor = _advisor()
        store = SnapshotStore(str(tmp_path))
        app = AdvisorApp(advisor, snapshot_store=store)
        _, _, first = call(app, path="/")
        assert "shared memory tiles" in first
        replacement = _advisor(
            ["Use vector loads for aligned global memory."],
            title="Replacement Guide")
        store.save(replacement)
        status, _, _ = call(app, "POST", "/api/reload")
        assert status == "200 OK"
        _, _, second = call(app, path="/")
        assert "vector loads" in second


class TestServerShutdown:
    def test_shutdown_gracefully_drains_and_snapshots(self,
                                                      tmp_path) -> None:
        advisor = _advisor()
        store = SnapshotStore(str(tmp_path))
        server = serve(advisor, port=0, snapshot_store=store)
        app = server.get_app()
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            drained = shutdown_gracefully(server, app,
                                          drain_timeout_s=5)
            assert drained is True
            assert store.versions() == [1]  # final snapshot committed
            assert app.draining
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.server_close()
