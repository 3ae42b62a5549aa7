"""CI smoke for the binary index + prefork serving path.

End-to-end, through real processes and real sockets, in under a
minute:

1. build a small advisor and commit it to a snapshot store with
   :class:`~repro.core.snapshots.SnapshotStore` (manifest format 3:
   header + ``advisor.bin`` sidecar);
2. round-trip check: load the snapshot, and a ``save_advisor`` file
   pair, and assert both answer bit-identically to the freshly built
   advisor;
3. start ``serve --snapshots DIR --port 0 --workers 2`` (prefork),
   parse the bound port from the serving line, poll ``/healthz``,
   issue one real query, assert ``/api/extend`` is refused with 409;
4. open a connection that never sends a request (a browser
   preconnect), then send :data:`RACE_QUERIES` more queries, each on a
   fresh connection, so both workers wake for connections only one of
   them accepts; then SIGTERM the master and assert the whole tree
   exits 0 within the drain timeout plus :data:`EXIT_MARGIN_S` (a
   worker stuck in ``accept()`` would never see the drain, and the
   idle connection must not hold a worker past it), printing the time
   taken.

Usage::

    PYTHONPATH=src python tools/prefork_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

from repro.core.config import DEFAULT_DRAIN_TIMEOUT_MS
from repro.core.snapshots import MANIFEST_FORMAT, SnapshotStore
from repro.docs.document import Document
from repro.core.egeria import Egeria

SENTENCES = [
    "Use shared memory tiles to improve effective bandwidth.",
    "Avoid divergent branches inside warps.",
    "Coalesce global memory accesses in tight loops.",
    "Unroll small loops to expose instruction level parallelism.",
    "Overlap data transfer with computation using streams.",
    "Prefer pinned memory for large host to device transfers.",
]

QUERY = "improve memory bandwidth"

#: queries sent before SIGTERM, each on its own connection
RACE_QUERIES = 20

#: seconds allowed beyond the drain timeout for the tree to exit
EXIT_MARGIN_S = 5.0


def _signature(tool) -> list:
    return [(r.sentence.index, struct.pack("<d", r.score).hex(),
             tuple(r.matched_terms))
            for r in tool.recommender.recommend(QUERY, limit=10)]


def _fail(message: str) -> None:
    print(f"prefork smoke: FAIL — {message}")
    sys.exit(1)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "snapshots")
        tool = Egeria().build_advisor(
            Document.from_sentences(SENTENCES, title="Smoke Guide"))
        expected = _signature(tool)
        info = SnapshotStore(store_dir).save(tool)
        print(f"prefork smoke: committed snapshot {info.version}")

        # round-trip: snapshot and saved-file loads bit-identical
        manifest = json.load(open(os.path.join(
            store_dir, info.name, "MANIFEST.json")))
        if manifest.get("format") != MANIFEST_FORMAT:
            _fail(f"expected manifest format {MANIFEST_FORMAT}, "
                  f"got {manifest.get('format')}")
        if _signature(SnapshotStore(store_dir).load()) != expected:
            _fail("snapshot round-trip answers are not bit-identical")
        from repro.core.persistence import load_advisor, save_advisor

        saved_path = os.path.join(tmp, "advisor.json")
        save_advisor(tool, saved_path)
        if _signature(load_advisor(saved_path)) != expected:
            _fail("saved-advisor round-trip answers are not "
                  "bit-identical")
        print("prefork smoke: round-trip bit-identical")

        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--snapshots", store_dir, "--port", "0",
                   "--workers", "2"]
        # its own process group, so a failed run can kill the workers
        process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   start_new_session=True)
        idle = None
        try:
            port = None
            deadline = time.time() + 60
            while time.time() < deadline:
                line = process.stdout.readline()
                if not line:
                    if process.poll() is not None:
                        _fail("server exited before printing its port")
                    time.sleep(0.05)
                    continue
                match = re.search(r"\(prefork, (\d+) workers\) on "
                                  r"http://[^:]+:(\d+)/", line)
                if match:
                    if int(match.group(1)) != 2:
                        _fail(f"expected 2 workers, serving line says "
                              f"{match.group(1)}")
                    port = int(match.group(2))
                    break
            if port is None:
                _fail("no prefork serving line within 60s")
            base = f"http://127.0.0.1:{port}"

            deadline = time.time() + 60
            health = None
            while time.time() < deadline:
                try:
                    with urllib.request.urlopen(base + "/healthz",
                                                timeout=10) as response:
                        health = json.load(response)
                        break
                except OSError:
                    time.sleep(0.1)
            if health is None:
                _fail("workers never answered /healthz")
            print(f"prefork smoke: healthz ok "
                  f"({health.get('advising_sentences', '?')} sentences)")

            with urllib.request.urlopen(
                    f"{base}/api/query?q=memory+bandwidth",
                    timeout=30) as response:
                answer = json.load(response)
            if not answer.get("answers"):
                _fail(f"query returned no answers: {answer}")
            print("prefork smoke: query answered")

            request = urllib.request.Request(
                base + "/api/extend",
                data=json.dumps({"text": "tune the thing"}).encode(),
                headers={"Content-Type": "application/json"})
            try:
                urllib.request.urlopen(request, timeout=30)
                _fail("/api/extend succeeded on a prefork worker; "
                      "expected 409")
            except urllib.error.HTTPError as error:
                if error.code != 409:
                    _fail(f"/api/extend returned {error.code}, "
                          f"expected 409")
            print("prefork smoke: extend refused with 409")

            # accepted before the queries below (the backlog is FIFO)
            # and held open, silent, until the tree has exited
            idle = socket.create_connection(("127.0.0.1", port),
                                            timeout=10)
            for _ in range(RACE_QUERIES):
                with urllib.request.urlopen(
                        f"{base}/api/query?q=memory+bandwidth",
                        timeout=30) as response:
                    if response.status != 200:
                        _fail(f"query answered {response.status}")
            print(f"prefork smoke: {RACE_QUERIES} more queries answered")
        finally:
            limit = DEFAULT_DRAIN_TIMEOUT_MS / 1000.0 + EXIT_MARGIN_S
            started = time.monotonic()
            process.send_signal(signal.SIGTERM)
            try:
                code = process.wait(timeout=limit)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                _fail(f"master did not exit within {limit:.0f}s of "
                      f"SIGTERM")
            elapsed = time.monotonic() - started
            if idle is not None:
                idle.close()
        if code != 0:
            _fail(f"master exited {code} after SIGTERM")
        print(f"prefork smoke: graceful shutdown, exit 0 in "
              f"{elapsed:.2f}s")
    print("prefork smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
