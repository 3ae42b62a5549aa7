"""Serving throughput — dense vs pruned vs warm-cache hot paths.

Measures the end-to-end recommender latency a served advisor pays per
query (normalize -> score -> threshold -> top-k -> materialize), for
the three retrieval configurations the web layer can run:

* **dense** — the reference path: one CSR matvec over every indexed
  sentence (``cache_size=0, prune=False``);
* **pruned** — postings-driven candidate pruning, score-identical to
  dense (``cache_size=0, prune=True``);
* **warm_cache** — pruning plus the LRU query cache, measured on a
  second pass over the same workload so repeats hit.

The corpus/workload come from the seeded generators in
:mod:`repro.retrieval.bench_fixtures` (``BENCH_SEED``), so runs are
reproducible and the perf gate (``tools/perf_gate.py``) can hold a
budget against the emitted JSON.

Below :data:`repro.retrieval.topk.DENSE_CUTOVER_ROWS` the pruned
configuration's query path runs the dense kernel anyway (the adaptive
cutover — gather overhead beats one small matvec), so the ``pruned``
row is reported as a copy of ``dense`` with speedup exactly 1.0 and a
``note``; measuring two identical code paths against each other would
only gate timer noise.

The **scale block** (full runs; skipped by ``--quick``) exercises the
100k-sentence acceptance bar end to end: save and mmap load of the
header + sidecar pair (with a bit-identity check of the loaded tool
against the in-memory one over the query workload), then a threaded
server vs an N-worker prefork server — both serving the same snapshot
store via the real CLI in subprocesses — under a multi-threaded HTTP
load generator, recording QPS and cold-start-to-first-query time.  On hosts with fewer than
``--prefork-workers`` CPUs the multiprocess QPS ratio is physically
unmeasurable, so the block records a ``waivers`` entry that
``tools/perf_gate.py`` reports as WAIVED instead of failing.

Run the full matrix (writes ``BENCH_serving.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py

CI smoke (small sizes, separate output, gated fresh)::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py \\
        --quick --output benchmarks/out/BENCH_serving_quick.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from urllib.parse import quote

from repro.core.recommender import KnowledgeRecommender
from repro.docs.document import Document
from repro.retrieval.bench_fixtures import (
    BENCH_SEED, query_workload, synthetic_sentences)
from repro.retrieval.topk import DENSE_CUTOVER_ROWS

FULL_SIZES = (500, 2000, 10_000)
QUICK_SIZES = (300, 1000)

#: queries per pass; half of them are repeats (see query_workload)
FULL_QUERIES = 200
QUICK_QUERIES = 60

#: every path answers with the serving layer's realistic top-k
LIMIT = 10

#: the scale block's corpus size and HTTP workload
SCALE_SIZE = 100_000
SCALE_QUERIES = 800
SCALE_CLIENT_THREADS = 8
SCALE_PREFORK_WORKERS = 4


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _measure(recommender: KnowledgeRecommender,
             queries: list[str]) -> dict:
    """Per-query latency stats for one pass over *queries*."""
    latencies: list[float] = []
    answers = 0
    for query in queries:
        start = time.perf_counter()
        result = recommender.recommend(query, limit=LIMIT)
        latencies.append(time.perf_counter() - start)
        answers += len(result)
    latencies.sort()
    total = sum(latencies)
    return {
        "p50_ms": 1e3 * _percentile(latencies, 0.50),
        "p95_ms": 1e3 * _percentile(latencies, 0.95),
        "qps": (len(queries) / total) if total else 0.0,
        "mean_answers": answers / len(queries) if queries else 0.0,
    }


def _candidate_fraction(recommender: KnowledgeRecommender,
                        queries: list[str], size: int) -> float:
    """Mean fraction of rows the pruned path actually scores."""
    index = recommender.index
    unique = sorted(set(queries))
    touched = 0
    for query in unique:
        rows, _ = index.candidate_similarities(
            recommender._normalizer(query))
        touched += rows.size
    return (touched / (len(unique) * size)) if unique else 0.0


def bench_size(size: int, n_queries: int) -> dict:
    sentences = synthetic_sentences(size, seed=BENCH_SEED)
    document = Document.from_sentences(sentences, title=f"bench-{size}")
    advising = list(document.iter_sentences())
    queries = query_workload(n_queries, seed=BENCH_SEED,
                             repeat_fraction=0.5)

    def build(cache_size: int, prune: bool) -> KnowledgeRecommender:
        return KnowledgeRecommender(
            advising, document=document, cache_size=cache_size,
            prune=prune)

    build_start = time.perf_counter()
    dense = build(cache_size=0, prune=False)
    build_seconds = time.perf_counter() - build_start
    pruned = build(cache_size=0, prune=True)
    cached = build(cache_size=1024, prune=True)

    paths = {"dense": _measure(dense, queries)}
    if size >= DENSE_CUTOVER_ROWS:
        paths["pruned"] = _measure(pruned, queries)
    else:
        # below the adaptive cutover the pruned config executes the
        # dense kernel (repro.retrieval.topk.DENSE_CUTOVER_ROWS), so
        # the two paths are the same code — report that instead of
        # gating timer noise between identical runs
        paths["pruned"] = dict(paths["dense"])
        paths["pruned"]["note"] = (
            f"size {size} is below DENSE_CUTOVER_ROWS "
            f"({DENSE_CUTOVER_ROWS}): the pruned config runs the "
            f"dense kernel; row copied from dense")
    _measure(cached, queries)               # cold pass fills the cache
    paths["warm_cache"] = _measure(cached, queries)
    cache_stats = cached.cache_stats() or {}
    paths["warm_cache"]["hit_rate"] = cache_stats.get("hit_rate", 0.0)

    def _speedup(path: str) -> float:
        fast = paths[path]["p50_ms"]
        return (paths["dense"]["p50_ms"] / fast) if fast else 0.0

    return {
        "queries": len(queries),
        "limit": LIMIT,
        "build_seconds": build_seconds,
        "candidate_fraction": _candidate_fraction(pruned, queries, size),
        "paths": paths,
        "speedups": {
            "pruned_vs_dense": (_speedup("pruned")
                                if size >= DENSE_CUTOVER_ROWS else 1.0),
            "warm_cache_vs_dense": _speedup("warm_cache"),
        },
    }


# -- scale block: mmap warm start + prefork throughput -------------------

def _answer_signature(recommender, queries: list[str]) -> list:
    """Bit-exact fingerprint of the answers to *queries*."""
    signature = []
    for query in queries:
        signature.append([
            (r.sentence.index,
             struct.pack("<d", r.score).hex(),
             tuple(r.matched_terms))
            for r in recommender.recommend(query, limit=LIMIT)])
    return signature


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _first_query_s(port: int, query: str,
                   deadline_s: float = 300.0) -> float:
    """Seconds until the server answers its first real query."""
    url = (f"http://127.0.0.1:{port}/api/query?q={quote(query)}"
           f"&limit={LIMIT}")
    start = time.perf_counter()
    while time.perf_counter() - start < deadline_s:
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                if response.status == 200:
                    response.read()
                    return time.perf_counter() - start
        except OSError:
            time.sleep(0.05)
    raise RuntimeError(f"server on port {port} never answered a query")


def _generate_load(port: int, queries: list[str],
                   client_threads: int) -> dict:
    """Hammer the server from *client_threads* concurrent clients.

    Queries are pre-partitioned so no client-side locking skews the
    measurement; the bundled server speaks HTTP/1.0, so each request
    is its own connection (as a prefork-balanced client would be).
    """
    chunks = [queries[i::client_threads] for i in range(client_threads)]
    answered = [0] * client_threads
    errors = [0] * client_threads

    def _client(worker: int) -> None:
        for query in chunks[worker]:
            url = (f"http://127.0.0.1:{port}/api/query"
                   f"?q={quote(query)}&limit={LIMIT}")
            try:
                with urllib.request.urlopen(url, timeout=60) as response:
                    response.read()
                    answered[worker] += 1
            except OSError:
                errors[worker] += 1

    threads = [threading.Thread(target=_client, args=(i,), daemon=True)
               for i in range(client_threads)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    total = sum(answered)
    return {
        "queries": total,
        "errors": sum(errors),
        "wall_s": wall,
        "qps": (total / wall) if wall else 0.0,
        "client_threads": client_threads,
    }


def _bench_server(store_dir: str, workers: int, queries: list[str],
                  client_threads: int) -> dict:
    """Cold-start and sustained QPS of one CLI-served configuration."""
    port = _free_port()
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--snapshots", store_dir, "--port", str(port)]
    if workers > 1:
        command += ["--workers", str(workers)]
    process = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    try:
        cold_start_s = _first_query_s(port, queries[0])
        stats = _generate_load(port, queries, client_threads)
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    stats["cold_start_s"] = cold_start_s
    stats["workers"] = workers
    return stats


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def bench_scale(size: int = SCALE_SIZE,
                n_queries: int = SCALE_QUERIES,
                prefork_workers: int = SCALE_PREFORK_WORKERS,
                client_threads: int = SCALE_CLIENT_THREADS) -> dict:
    from repro.core.advisor import AdvisingTool
    from repro.core.persistence import load_advisor, save_advisor
    from repro.core.snapshots import SnapshotStore

    sentences = synthetic_sentences(size, seed=BENCH_SEED)
    document = Document.from_sentences(sentences,
                                       title=f"bench-scale-{size}")
    advising = list(document.iter_sentences())
    queries = query_workload(n_queries, seed=BENCH_SEED,
                             repeat_fraction=0.5)
    identity_queries = sorted(set(queries))[:50]

    build_start = time.perf_counter()
    tool = AdvisingTool(document, advising, auto_compaction=False)
    build_seconds = time.perf_counter() - build_start

    entry: dict = {
        "size": size,
        "queries": n_queries,
        "limit": LIMIT,
        "build_seconds": build_seconds,
        "cpu_count": _cpu_count(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "advisor.json")
        save_advisor(tool, path)
        entry["header_bytes"] = os.path.getsize(path)
        entry["sidecar_bytes"] = os.path.getsize(
            os.path.join(tmp, "advisor.bin"))

        start = time.perf_counter()
        mmap_tool = load_advisor(path)
        entry["mmap_load_s"] = time.perf_counter() - start

        entry["identical"] = (
            _answer_signature(tool.recommender, identity_queries)
            == _answer_signature(mmap_tool.recommender,
                                 identity_queries))
        del mmap_tool

        store_dir = os.path.join(tmp, "snapshots")
        SnapshotStore(store_dir).save(tool)
        del tool  # keep the bench process lean before forking servers

        entry["paths"] = {
            "threaded": _bench_server(store_dir, 1, queries,
                                      client_threads),
            "prefork": _bench_server(store_dir, prefork_workers,
                                     queries, client_threads),
        }

    threaded_qps = entry["paths"]["threaded"]["qps"]
    entry["speedups"] = {
        "prefork_vs_threaded": (entry["paths"]["prefork"]["qps"]
                                / threaded_qps if threaded_qps
                                else 0.0),
    }
    if entry["cpu_count"] < prefork_workers:
        entry["waivers"] = {
            "prefork_vs_threaded":
                f"host exposes {entry['cpu_count']} CPU(s); "
                f"{prefork_workers} workers cannot express a "
                f"multiprocess speedup without {prefork_workers} cores",
        }
    return entry


def run(quick: bool = False, scale: bool | None = None) -> dict:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    n_queries = QUICK_QUERIES if quick else FULL_QUERIES
    results = {
        "bench": "serving_throughput",
        "seed": BENCH_SEED,
        "quick": quick,
        "sizes": {},
    }
    for size in sizes:
        results["sizes"][str(size)] = bench_size(size, n_queries)
    if scale if scale is not None else not quick:
        results["scale"] = {
            "sizes": {str(SCALE_SIZE): bench_scale()},
        }
    return results


def _print_results(results: dict) -> None:
    header = (f"{'sentences':>10} {'path':<11} {'p50 ms':>9} "
              f"{'p95 ms':>9} {'qps':>9} {'speedup':>8}")
    print(header)
    print("-" * len(header))
    for size, entry in results["sizes"].items():
        speedups = entry["speedups"]
        for path, stats in entry["paths"].items():
            speedup = {"dense": 1.0,
                       "pruned": speedups["pruned_vs_dense"],
                       "warm_cache": speedups["warm_cache_vs_dense"],
                       }[path]
            print(f"{size:>10} {path:<11} {stats['p50_ms']:>9.3f} "
                  f"{stats['p95_ms']:>9.3f} {stats['qps']:>9.0f} "
                  f"{speedup:>7.1f}x")
        print(f"{'':>10} candidate fraction "
              f"{entry['candidate_fraction']:.3f}, build "
              f"{entry['build_seconds']:.2f}s")
    for size, entry in results.get("scale", {}).get("sizes", {}).items():
        print(f"\n[scale {size}] mmap load {entry['mmap_load_s']:.2f}s, "
              f"identical={entry['identical']}")
        for path, stats in entry["paths"].items():
            print(f"[scale {size}] {path} ({stats['workers']} worker"
                  f"{'s' if stats['workers'] != 1 else ''}): "
                  f"{stats['qps']:.0f} qps, cold start "
                  f"{stats['cold_start_s']:.2f}s, "
                  f"{stats['errors']} errors")
        print(f"[scale {size}] prefork_vs_threaded "
              f"{entry['speedups']['prefork_vs_threaded']:.2f}x "
              f"(cpu_count={entry['cpu_count']}"
              + (", WAIVED: " + entry["waivers"]["prefork_vs_threaded"]
                 if "waivers" in entry else "") + ")")


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / fewer queries (CI smoke)")
    parser.add_argument("--scale", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="force the 100k scale block on or off "
                             "(default: on for full runs, off for "
                             "--quick)")
    parser.add_argument("--output", default="BENCH_serving.json",
                        help="where to write the JSON results")
    args = parser.parse_args()

    results = run(quick=args.quick, scale=args.scale)
    _print_results(results)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(results, indent=2) + "\n",
                      encoding="utf-8")
    print(f"results written to {output}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
