"""build-guides: raw guide HTML -> pre-filtered build -> v4 snapshot.

Set-up is the operator's one-time ``train-prefilter`` step over the
four guides; ``setup_s`` is the median of :data:`SETUP_REPEATS`
trainings (single cold trainings on a shared VM swing by 20%), each
followed by its share of the build window.  Each op loads the four
HTML guides, builds one advisor over them with a fresh
``Egeria(prefilter=...)`` and commits it as a binary snapshot.
``peak_rss_mb`` is the highest ``VmHWM`` of one training or one build,
the mark reset before each: the untimed reference build and the
checks (which reload a snapshot while the built tool is alive) are
the harness's, not the program's.

Checks (outside the timed region): every build's ``(index, text,
selector)`` set equals the pure cascade's, computed once before
set-up; every committed snapshot reloads through ``SnapshotStore.load``
and answers a fixed probe sample exactly as the in-memory tool does.
"""

from __future__ import annotations

import gc
import os
import time

import inputs
import tracing
from common import (make_workdir, median, metric, peak_rss_mb,
                    percentile, remove_tree, reset_peak_rss,
                    snapshot_digest, tree_bytes)

WORKLOAD = "build-guides"
NAME = "HPC programming guides"
SETUP_REPEATS = 5
#: builds per window, at least (a window also lasts seconds / rounds)
MIN_OPS = 2
#: every Nth advising sentence of the reference build is a probe query
PROBE_STRIDE = 40


def _load(html: dict[str, str]) -> list:
    from repro.docs.html_loader import HTMLDocumentLoader

    return [HTMLDocumentLoader().load(text, title=name)
            for name, text in html.items()]


def _build(html: dict[str, str], prefilter, store_dir: str):
    """One op: HTML -> advisor -> committed binary snapshot."""
    from repro.core.egeria import Egeria
    from repro.core.snapshots import SnapshotStore

    tool = Egeria(prefilter=prefilter).build_advisor_multi(
        _load(html), name=NAME)
    info = SnapshotStore(store_dir, binary=True).save(tool)
    return tool, info


def _advising_set(tool) -> list[tuple]:
    return [(s.index, s.text, tool.provenance[s.index])
            for s in tool.advising_sentences]


def _answers(tool, probes: list[str]) -> list[list[tuple]]:
    return [[(r.sentence.index, r.score)
             for r in tool.query(probe, limit=inputs.LIMIT)
             .recommendations]
            for probe in probes]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pin = inputs.check_pins(WORKLOAD)
    html = inputs.guide_html(seed)
    work = make_workdir(WORKLOAD)
    try:
        return _run(html, seconds, trace, work, pin)
    finally:
        remove_tree(work)


def _run(html, seconds, trace, work, pin) -> dict:
    from repro.core.egeria import Egeria
    from repro.core.snapshots import SnapshotStore
    from repro.stage1 import model as stage1_model

    # the pure-cascade reference, outside setup_s; it also loads every
    # lazily built model (tagger, parser) before anything is timed
    reference_tool = Egeria().build_advisor_multi(_load(html), name=NAME)
    reference = _advising_set(reference_tool)
    document = reference_tool.document
    sentences = len(document)
    probes = [s.text for s in
              reference_tool.advising_sentences[::PROBE_STRIDE]]
    del reference_tool

    tracer = tracing.Tracer() if trace else None
    targets = tracing.layer_targets() if trace else None
    setup_times: list[float] = []
    setup_peaks: list[float] = []
    build_peaks: list[float] = []
    checksums: list[str] = []
    setup_ok = True
    latencies: list[float] = []
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    op_windows: list[tuple[str, int, int]] = []
    digests: list[str] = []
    sizes: list[int] = []
    layers: list[dict] = []
    attempted = failed = 0
    # set-up repeats and build windows alternate, so both sample the
    # machine across the whole run rather than one stretch of it
    rounds = 1 if trace else SETUP_REPEATS
    for round_ in range(rounds):
        gc.collect()
        uninstall = None
        if trace:
            tracer.begin("setup")
            uninstall = tracing.install(tracer, targets)
        reset_peak_rss()
        start = time.perf_counter()
        prefilter, _, evaluation = \
            stage1_model.train_prefilter_for_document(document)
        setup_times.append(time.perf_counter() - start)
        setup_peaks.append(peak_rss_mb())
        if uninstall is not None:
            uninstall()
        checksums.append(prefilter.checksum)
        setup_ok = setup_ok and evaluation.recall_vs_cascade == 1.0

        window = 0.0
        ops = 0
        while ops < MIN_OPS or window < seconds / rounds:
            store_dir = os.path.join(work, f"op-{attempted}")
            traced = trace and attempted % 2 == 0
            request = f"op-{attempted}"
            gc.collect()
            uninstall = None
            if traced:
                tracer.begin(request)
                uninstall = tracing.install(tracer, targets)
            reset_peak_rss()
            start_ns = time.perf_counter_ns()
            tool, info = _build(html, prefilter, store_dir)
            end_ns = time.perf_counter_ns()
            build_peaks.append(peak_rss_mb())
            elapsed = (end_ns - start_ns) / 1e9
            window += elapsed
            ops += 1
            latencies.append(elapsed)
            (traced_ms if traced else untraced_ms).append(elapsed * 1e3)
            if traced:
                op_windows.append((request, start_ns, end_ns))
                tracer.begin(f"check-{attempted}")
            ok = _advising_set(tool) == reference
            loaded = SnapshotStore(store_dir).load()
            ok = ok and _answers(loaded, probes) == _answers(tool, probes)
            if uninstall is not None:
                uninstall()
                tracer.begin(None)
            attempted += 1
            failed += not ok
            digests.append(snapshot_digest(info.path))
            sizes.append(tree_bytes(info.path))
            layers.append(_tool_layers(tool))
            del tool, loaded
            remove_tree(store_dir)

    stats = layers[-1]["prefilter"]
    decided = sum(stats.values())
    print(f"# {WORKLOAD}: inputs sha256 {pin[:16]} (default seed), "
          f"{sentences} sentences, {len(latencies)} builds, "
          f"setup repeats {[round(s, 3) for s in setup_times]}")
    print(f"# peak RSS MB: trainings {max(setup_peaks):.1f}, "
          f"builds {max(build_peaks):.1f}")
    print(f"# prefilter checksum {sorted(set(checksums))}; "
          f"snapshot sha256 {sorted(set(d[:16] for d in digests))}")
    print(f"# prefilter skip ratio {stats['skipped'] / decided:.4f} "
          f"({stats['skipped']}/{decided} decisions), deferred "
          f"{stats['deferred']}, keyword fast path "
          f"{stats['keyword_fast_path']}")

    latency_ms = [value * 1e3 for value in latencies]
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "samples": {"latency": len(latencies), "setup": len(setup_times)},
    }
    if not trace:
        result["metrics"] = {
            "setup_s": metric(median(setup_times), "s"),
            "throughput_per_s": metric(
                sentences * len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": metric(median(latency_ms), "ms"),
            "latency_p90_ms": metric(percentile(latency_ms, 90), "ms"),
            # a build is this workload's ingest: raw guides in,
            # servable snapshot out
            "ingest_p50_ms": metric(median(latency_ms), "ms"),
            "peak_rss_mb": metric(max(setup_peaks + build_peaks), "MB"),
            "snapshot_mb": metric(median(sizes) / 2**20, "MB"),
        }
        return result
    result["layers"] = _trace_layers(
        tracer, op_windows, layers, sentences, traced_ms, untraced_ms)
    result["layers"]["snapshots.bytes"] = median(sizes)
    return result


def _tool_layers(tool) -> dict:
    """Counts the built tool itself reports."""
    index = tool.recommender.index
    return {
        "prefilter": dict(tool.prefilter_stats),
        "degraded": len(tool.degradation_events) + len(tool.quarantined),
        "rows": len(index),
        "nnz": sum(segment.matrix.nnz for segment in index.segments),
        "segments": index.n_segments,
    }


def _trace_layers(tracer, op_windows, layers, sentences, traced_ms,
                  untraced_ms) -> dict:
    totals = tracer.totals()
    ops = len(op_windows)

    def per_op(name: str, field: int) -> float:
        return sum(totals.get((request, name), (0, 0, 0, 0))[field]
                   for request, _, _ in op_windows) / ops

    def ms(name: str, field: int = 1) -> float:
        return per_op(name, field) / 1e6

    def check_ms(name: str) -> float:
        entries = [entry for (request, key), entry in totals.items()
                   if key == name and str(request).startswith("check-")]
        return (sum(entry[1] for entry in entries)
                / max(1, sum(entry[0] for entry in entries)) / 1e6)

    covered = 0
    wall = 0
    for request, start, end in op_windows:
        wall += end - start
        covered += sum(span[4] - span[3] for span in tracer.spans
                       if span[5] == request and span[1] is None)
    train = totals.get(("setup", "stage1.train"), (0, 0, 0, 0))
    stats = layers[-1]["prefilter"]
    decided = sum(stats.values()) or 1
    out = {
        "docs.load_ms": ms("docs.html", 2) + ms("docs.text", 2)
        + ms("docs.sentences", 2),
        "stage1.skip_ratio": stats["skipped"] / decided,
        "stage1.defer_ratio": stats["deferred"] / decided,
        "stage1.fast_path_ratio": stats["keyword_fast_path"] / decided,
        "stage1.train_ms": train[2] / 1e6,
        "recognizer.self_ms": ms("recognizer.recognize", 2),
        "recognizer.degraded": sum(layer["degraded"] for layer in layers)
        / len(layers),
        "recommender.fit_ms": ms("recommender.fit"),
        "recommender.normalize_ms": ms("recommender.normalize"),
        "retrieval.rows": layers[-1]["rows"],
        "retrieval.nnz": layers[-1]["nnz"],
        "segments.count": layers[-1]["segments"],
        "snapshots.save_ms": ms("snapshots.save"),
        "binindex.pack_ms": ms("binindex.pack"),
        "snapshots.load_ms": check_ms("snapshots.load"),
        "trace.overhead_ms": median(traced_ms) - median(untraced_ms),
        "trace.uncovered_share": (wall - covered) / wall,
    }
    for layer in ("textproc.tokens", "textproc.stems", "pipeline.terms",
                  "parsing.graph", "srl.frames"):
        out[f"{layer}_ms"] = ms(layer)
        runs = per_op(layer, 0)
        if layer.startswith(("parsing", "srl")):
            out[f"{layer}_ratio"] = runs / sentences
        else:
            out[f"{layer}_runs"] = runs
            out[f"{layer}_failures"] = per_op(layer, 3)
    return out
