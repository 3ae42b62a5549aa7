"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/run.py --write-benchmark-json``), and every run's
output is checked against it, so the two cannot drift apart.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 10

WORKLOADS = {
    "build-guides":
        "4 bundled guides (5,241 sentences) as HTML -> pre-filtered "
        "build -> committed v4 snapshot; loader, Stage I, Stage II fit "
        "and persistence do the work",
    "serve-unique":
        "threaded server over a 30k-sentence mmap snapshot; queries "
        "never repeat, so every one misses the cache and scores",
    "serve-repeat-ingest":
        "same server; a hot query set hits the cache while one "
        "connection posts fixed /api/extend batches (Stage I, seal, "
        "compaction, cache repair)",
}

#: name -> (unit, better, bound); every workload reports all of them.
#: Timings get the largest bound allowed: on a shared 2-vCPU VM, CPU
#: speed drifts by 15-20% over minutes, and by up to 2x between busy
#: and quiet stretches of the host, and with it every timing.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "ingest_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "snapshot_mb": ("MB", "lower", 0.15),
}

#: name -> unit; reported by the traced run (``--trace 1``).  A layer a
#: workload does not exercise reads 0.
PER_LAYER = {
    "docs.load_ms": "ms",
    "textproc.tokens_ms": "ms",
    "textproc.tokens_runs": "count",
    "textproc.tokens_failures": "count",
    "textproc.stems_ms": "ms",
    "textproc.stems_runs": "count",
    "textproc.stems_failures": "count",
    "pipeline.terms_ms": "ms",
    "pipeline.terms_runs": "count",
    "pipeline.terms_failures": "count",
    "parsing.graph_ms": "ms",
    "parsing.graph_ratio": "ratio",
    "srl.frames_ms": "ms",
    "srl.frames_ratio": "ratio",
    "stage1.skip_ratio": "ratio",
    "stage1.defer_ratio": "ratio",
    "stage1.fast_path_ratio": "ratio",
    "stage1.train_ms": "ms",
    "recognizer.self_ms": "ms",
    "recognizer.degraded": "count",
    "recommender.fit_ms": "ms",
    "retrieval.rows": "count",
    "retrieval.nnz": "count",
    "snapshots.save_ms": "ms",
    "binindex.pack_ms": "ms",
    "snapshots.bytes": "bytes",
    "snapshots.load_ms": "ms",
    "web.cold_start_ms": "ms",
    "web.http_ms": "ms",
    "web.app_ms": "ms",
    "recommender.normalize_ms": "ms",
    "retrieval.score_ms": "ms",
    "recommender.self_ms": "ms",
    "retrieval.candidate_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.repairs": "count",
    "cache.evictions": "count",
    "cache.invalidations": "count",
    "ingest.extend_ms": "ms",
    "ingest.stage1_ms": "ms",
    "segments.count": "count",
    "compaction.merges": "count",
    "compaction.refits": "count",
    "compaction.aborted": "count",
    "compaction.ms": "ms",
    "web.responses_2xx": "count",
    "web.responses_4xx": "count",
    "web.responses_429": "count",
    "web.responses_5xx": "count",
    "client.cpu_ms_per_req": "ms",
    "trace.overhead_ms": "ms",
    "trace.uncovered_share": "ratio",
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)}
            for name, unit in PER_LAYER.items()
        ],
    }


def _better(name: str) -> str:
    higher = ("stage1.skip_ratio", "stage1.fast_path_ratio",
              "cache.hit_ratio", "web.responses_2xx")
    return "higher" if name in higher else "lower"
