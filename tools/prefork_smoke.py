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
4. SIGTERM the master and assert the whole tree drains to exit 0.

Usage::

    PYTHONPATH=src python tools/prefork_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

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
        process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True)
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
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                code = process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                _fail("master did not exit within 60s of SIGTERM")
        if code != 0:
            _fail(f"master exited {code} after SIGTERM")
        print("prefork smoke: graceful shutdown, exit 0")
    print("prefork smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
