"""Fast-path tests: pruned/cached retrieval vs the dense reference.

The contract under test (DESIGN.md §9): for any positive threshold the
candidate-pruned path returns **bit-identical** ``(index, score)``
pairs to the dense matvec path, ``limit=`` truncates exactly like
slicing the unlimited result, and the recommender's LRU query cache
changes latency but never content.
"""

from __future__ import annotations

import importlib.util
import json
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recommender import KnowledgeRecommender
from repro.docs.document import Document
from repro.retrieval.bench_fixtures import (
    BENCH_SEED, TOPICS, query_workload, synthetic_sentences)
from repro.retrieval.topk import LRUQueryCache, select_top_k
from repro.retrieval.vsm import SentenceRetriever

import numpy as np


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_bit_identical(left, right):
    assert len(left) == len(right)
    for (i1, s1), (i2, s2) in zip(left, right):
        assert i1 == i2
        assert bits(s1) == bits(s2), (i1, s1.hex(), s2.hex())


# -- pruned path vs dense reference --------------------------------------

WORDS = st.sampled_from(sorted({w for topic in TOPICS for w in topic}))
SENTENCE = st.lists(WORDS, min_size=1, max_size=12).map(" ".join)


class TestPrunedParity:
    @settings(max_examples=40, deadline=None)
    @given(
        sentences=st.lists(SENTENCE, min_size=2, max_size=40),
        query=st.lists(WORDS, min_size=1, max_size=5).map(" ".join),
        threshold=st.sampled_from((0.05, 0.15, 0.5)),
    )
    def test_randomized_corpora_bit_identical(
            self, sentences, query, threshold) -> None:
        # min_prune_rows=0 forces the pruned kernel: these corpora sit
        # below DENSE_CUTOVER_ROWS, where prune=True alone would take
        # the dense path and the parity check would compare dense to
        # itself
        retriever = SentenceRetriever(sentences, threshold=threshold)
        dense = retriever.query(query, prune=False)
        pruned = retriever.query(query, prune=True, min_prune_rows=0)
        assert_bit_identical(pruned, dense)
        for limit in (0, 1, 3, len(sentences) + 5):
            assert retriever.query(query, limit=limit, prune=True,
                                   min_prune_rows=0) == dense[:limit]
            assert retriever.query(query, limit=limit, prune=False) \
                == dense[:limit]

    def test_seeded_corpus_bit_identical_at_paper_threshold(self) -> None:
        retriever = SentenceRetriever(synthetic_sentences(400))
        assert retriever.threshold == 0.15
        for query in query_workload(80, seed=3, repeat_fraction=0.0):
            assert_bit_identical(
                retriever.query(query, prune=True, min_prune_rows=0),
                retriever.query(query, prune=False))

    def test_small_corpus_cutover_takes_dense_path(self, monkeypatch) -> None:
        """Below DENSE_CUTOVER_ROWS, ``prune=True`` skips the postings
        kernel entirely (the pruned path lost to dense at 500–2000
        rows); ``min_prune_rows=0`` re-enables it."""
        from repro.retrieval import topk

        retriever = SentenceRetriever(synthetic_sentences(60))
        calls = []
        original = topk.PostingsScorer.candidate_scores

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(topk.PostingsScorer, "candidate_scores",
                            counting)
        retriever.query("coalesce global memory", prune=True)
        assert calls == []  # cutover: dense path, no postings walk
        retriever.query("coalesce global memory", prune=True,
                        min_prune_rows=0)
        assert calls  # forced: pruned kernel ran

    def test_nonpositive_threshold_falls_back_to_dense(self) -> None:
        # at cutoff <= 0 the dense path includes zero-score rows, so
        # pruning would be lossy; both calls must take the dense path
        retriever = SentenceRetriever(synthetic_sentences(50))
        dense = retriever.query("coalesce global memory", threshold=0.0,
                                prune=False)
        pruned = retriever.query("coalesce global memory", threshold=0.0,
                                 prune=True)
        assert pruned == dense
        assert len(dense) == 50  # every row scores >= 0.0

    def test_no_shared_terms_empty(self) -> None:
        retriever = SentenceRetriever(synthetic_sentences(30))
        assert retriever.query("zzz qqq xyzzy", prune=True) == []

    def test_negative_limit_rejected(self) -> None:
        retriever = SentenceRetriever(synthetic_sentences(10))
        with pytest.raises(ValueError):
            retriever.query("warp divergence", limit=-1)


class TestSelectTopK:
    def test_orders_desc_score_asc_index(self) -> None:
        indices = np.array([3, 5, 9, 12])
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        assert select_top_k(indices, scores, 0.2) == \
            [(5, 0.9), (3, 0.5), (9, 0.5)]

    def test_limit_cuts_ties_by_lowest_index(self) -> None:
        indices = np.array([3, 5, 9, 12])
        scores = np.array([0.5, 0.9, 0.5, 0.5])
        full = select_top_k(indices, scores, 0.0, limit=None)
        for limit in range(5):
            assert select_top_k(indices, scores, 0.0, limit=limit) \
                == full[:limit]

    def test_negative_limit_raises(self) -> None:
        with pytest.raises(ValueError):
            select_top_k(np.array([0]), np.array([1.0]), 0.0, limit=-2)


# -- the recommender's query cache ---------------------------------------


def _recommender(n: int = 60, **kwargs) -> KnowledgeRecommender:
    document = Document.from_sentences(synthetic_sentences(n))
    return KnowledgeRecommender(list(document.iter_sentences()),
                                document=document, **kwargs)


class TestQueryCache:
    def test_hit_returns_equal_fresh_objects(self) -> None:
        rec = _recommender()
        first = rec.recommend("optimize warp divergence")
        second = rec.recommend("optimize warp divergence")
        assert [(r.sentence.index, r.score, r.matched_terms)
                for r in first] == \
            [(r.sentence.index, r.score, r.matched_terms) for r in second]
        # fresh Recommendation objects per call — cached state is
        # never handed out by reference
        assert first[0] is not second[0]
        stats = rec.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cached_equals_uncached(self) -> None:
        cached = _recommender(cache_size=1024)
        uncached = _recommender(cache_size=0)
        for query in query_workload(40, seed=11, repeat_fraction=0.6):
            got = cached.recommend(query, limit=5)
            want = uncached.recommend(query, limit=5)
            assert [(r.sentence.index, bits(r.score)) for r in got] == \
                [(r.sentence.index, bits(r.score)) for r in want]
        assert cached.cache_stats()["hits"] > 0

    def test_key_includes_threshold_and_limit(self) -> None:
        rec = _recommender()
        rec.recommend("warp divergence")
        rec.recommend("warp divergence", threshold=0.3)
        rec.recommend("warp divergence", limit=2)
        stats = rec.cache_stats()
        assert stats["misses"] == 3 and stats["hits"] == 0

    def test_normalized_variants_share_entry(self) -> None:
        rec = _recommender()
        rec.recommend("Optimizing WARP divergence!")
        stats_after_first = rec.cache_stats()["misses"]
        rec.recommend("optimize warp divergences")
        stats = rec.cache_stats()
        assert stats_after_first == 1
        assert stats["hits"] == 1  # stems normalize identically

    def test_clear_cache(self) -> None:
        rec = _recommender()
        rec.recommend("shared memory bank conflict")
        rec.clear_cache()
        rec.recommend("shared memory bank conflict")
        stats = rec.cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_cache_disabled(self) -> None:
        rec = _recommender(cache_size=0)
        rec.recommend("shared memory")
        assert rec.cache_stats() is None

    def test_limit_prefix_of_unlimited(self) -> None:
        rec = _recommender()
        full = rec.recommend("coalesce global memory stride")
        limited = rec.recommend("coalesce global memory stride", limit=3)
        assert [(r.sentence.index, r.score) for r in limited] == \
            [(r.sentence.index, r.score) for r in full[:3]]

    def test_warm_cache_survives_extend(self) -> None:
        # the PR 4 wholesale flush is gone: sealing a segment keeps
        # every warm entry, and a post-extend hit is *repaired* (only
        # the new segment's rows are scored and merged) — bit-identical
        # to recomputing against the extended index from scratch
        from repro.core.egeria import Egeria

        # every term of this query is already in the seed vocabulary,
        # so the extension below cannot change its query vector
        query = "coalesce global memory"
        sentences = synthetic_sentences(40)
        advisor = Egeria().build_advisor(Document.from_sentences(sentences))
        advisor.auto_compaction = False
        advisor.query(query)
        old_recommender = advisor.recommender
        advisor.extend(Document.from_sentences(synthetic_sentences(10,
                                                                   seed=5)))
        assert advisor.recommender is not old_recommender
        # same cache object, entry still warm
        assert advisor.recommender.cache is old_recommender.cache
        stats = advisor.recommender.cache_stats()
        assert stats["entries"] > 0
        assert stats["invalidations_wholesale"] == 0
        repaired = advisor.query(query)
        stats = advisor.recommender.cache_stats()
        assert stats["hits"] >= 1
        assert stats["repairs"] >= 1
        advisor.recommender.clear_cache()
        recomputed = advisor.query(query)
        assert_bit_identical(
            [(r.sentence.index, r.score) for r in repaired.recommendations],
            [(r.sentence.index, r.score)
             for r in recomputed.recommendations])
        assert [r.matched_terms for r in repaired.recommendations] == \
            [r.matched_terms for r in recomputed.recommendations]

    def test_query_term_entering_vocabulary_drops_only_its_entry(
            self) -> None:
        # "diverg" is absent from the seed corpus but present in the
        # extension: its cached query vector is stale, so that one
        # entry is rejected (counted as a segment invalidation) while
        # other warm entries survive untouched
        from repro.core.egeria import Egeria

        advisor = Egeria().build_advisor(
            Document.from_sentences(synthetic_sentences(40)))
        advisor.auto_compaction = False
        advisor.query("optimize warp divergence")
        advisor.query("coalesce global memory")
        advisor.extend(Document.from_sentences(synthetic_sentences(10,
                                                                   seed=5)))
        advisor.query("optimize warp divergence")
        stats = advisor.recommender.cache_stats()
        assert stats["invalidations_segment"] == 1
        assert stats["invalidations_wholesale"] == 0
        assert stats["entries"] == 2

    def test_refit_flushes_wholesale(self) -> None:
        # a forced refit is the one event that rewrites weights, so it
        # must flush the shared cache and count a wholesale invalidation
        from repro.core.egeria import Egeria

        advisor = Egeria().build_advisor(
            Document.from_sentences(synthetic_sentences(40)))
        advisor.auto_compaction = False
        advisor.query("optimize warp divergence")
        advisor.extend(Document.from_sentences(synthetic_sentences(10,
                                                                   seed=5)),
                       refit=True)
        stats = advisor.recommender.cache_stats()
        assert stats["entries"] == 0
        assert stats["invalidations_wholesale"] == 1


class TestLRUQueryCache:
    def test_eviction_order_and_counter(self) -> None:
        cache = LRUQueryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refresh "a" -> "b" is oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2

    def test_rejects_nonpositive_capacity(self) -> None:
        with pytest.raises(ValueError):
            LRUQueryCache(max_entries=0)

    def test_concurrent_access_consistent(self) -> None:
        cache = LRUQueryCache(max_entries=64)
        errors: list[Exception] = []

        def worker(base: int) -> None:
            try:
                for i in range(200):
                    key = (base, i % 40)
                    cache.put(key, key)
                    got = cache.get(key)
                    assert got is None or got == key
            except Exception as error:  # surfaced to the main thread
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200
        assert len(cache) <= 64


# -- bench fixtures and the perf gate ------------------------------------


class TestBenchFixtures:
    def test_deterministic(self) -> None:
        assert synthetic_sentences(50) == synthetic_sentences(50)
        assert query_workload(50) == query_workload(50)
        assert synthetic_sentences(50, seed=1) != \
            synthetic_sentences(50, seed=2)

    def test_seed_constant_pins_artifacts(self) -> None:
        assert synthetic_sentences(5) == synthetic_sentences(
            5, seed=BENCH_SEED)

    def test_workload_repeats(self) -> None:
        workload = query_workload(100, repeat_fraction=1.0)
        assert len(set(workload)) < len(workload)
        no_repeats = query_workload(100, repeat_fraction=0.0)
        # fresh queries may still collide by chance, but only rarely
        assert len(set(no_repeats)) >= 0.9 * len(no_repeats)
        assert len(set(no_repeats)) > len(set(workload))


def _load_perf_gate():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perf_gate", root / "tools" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("perf_gate", module)
    spec.loader.exec_module(module)
    return module


class TestPerfGate:
    RESULTS = {
        "sizes": {
            "10000": {
                "paths": {
                    "dense": {"p50_ms": 0.3},
                    "pruned": {"p50_ms": 0.2},
                    "warm_cache": {"p50_ms": 0.03},
                },
                "speedups": {"pruned_vs_dense": 1.5,
                             "warm_cache_vs_dense": 10.0},
            },
        },
    }
    BUDGET = {
        "sizes": {
            "10000": {
                "p50_ms": {"pruned": 0.25, "warm_cache": 0.05},
                "min_speedups": {"warm_cache_vs_dense": 5.0},
            },
        },
    }

    def test_within_budget_passes(self) -> None:
        gate = _load_perf_gate()
        assert gate.evaluate(self.RESULTS, self.BUDGET, factor=2.0) == []

    def test_latency_regression_fails(self) -> None:
        gate = _load_perf_gate()
        results = json.loads(json.dumps(self.RESULTS))
        results["sizes"]["10000"]["paths"]["pruned"]["p50_ms"] = 1.0
        failures = gate.evaluate(results, self.BUDGET, factor=2.0)
        assert any("pruned p50" in f for f in failures)

    def test_speedup_regression_fails(self) -> None:
        gate = _load_perf_gate()
        results = json.loads(json.dumps(self.RESULTS))
        results["sizes"]["10000"]["speedups"]["warm_cache_vs_dense"] = 2.0
        failures = gate.evaluate(results, self.BUDGET, factor=2.0)
        assert any("warm_cache_vs_dense" in f for f in failures)

    def test_build_ceiling_scales_with_factor(self) -> None:
        """``build_s`` gates the result's ``build_seconds`` (the Stage II
        fit) at ``budget * factor``; a row without the measurement
        fails instead of passing silently."""
        gate = _load_perf_gate()
        budget = {"sizes": {"10000": {"build_s": 0.5}}}
        results = json.loads(json.dumps(self.RESULTS))
        results["sizes"]["10000"]["build_seconds"] = 0.9
        assert gate.evaluate(results, budget, factor=2.0) == []
        failures = gate.evaluate(results, budget, factor=1.5)
        assert any("build 0.900s exceeds 0.750s" in f for f in failures)
        del results["sizes"]["10000"]["build_seconds"]
        failures = gate.evaluate(results, budget, factor=2.0)
        assert any("build_seconds missing" in f for f in failures)

    def test_disjoint_sizes_fail_loudly(self) -> None:
        gate = _load_perf_gate()
        failures = gate.evaluate({"sizes": {"7": {}}}, self.BUDGET)
        assert any("no overlapping sizes" in f for f in failures)

    def test_waiver_suppresses_speedup_failure(self) -> None:
        # a self-waived speedup (host can't express it, e.g. prefork
        # on a 1-core box) is reported but never fails the gate
        gate = _load_perf_gate()
        results = json.loads(json.dumps(self.RESULTS))
        entry = results["sizes"]["10000"]
        entry["speedups"]["warm_cache_vs_dense"] = 0.5
        entry["waivers"] = {"warm_cache_vs_dense": "only 1 core"}
        waived: list[str] = []
        failures = gate.evaluate(results, self.BUDGET, factor=2.0,
                                 waived=waived)
        assert failures == []
        assert len(waived) == 1
        assert "only 1 core" in waived[0]

    def test_multi_check_reports_every_violation(self, tmp_path) -> None:
        """One ``--check`` run surfaces failures from every section
        instead of stopping at the first bad file."""
        serving = json.loads(json.dumps(self.RESULTS))
        serving["sizes"]["10000"]["paths"]["pruned"]["p50_ms"] = 9.0
        scale = {"sizes": {"10000": {
            "speedups": {"warm_cache_vs_dense": 1.0}}}}
        results = {"sizes": serving["sizes"], "scale": scale}
        results_path = tmp_path / "results.json"
        results_path.write_text(json.dumps(results), encoding="utf-8")
        budget_path = tmp_path / "budget.json"
        budget_path.write_text(json.dumps({
            "sizes": self.BUDGET["sizes"],
            "scale": {"sizes": {"10000": {
                "min_speedups": {"warm_cache_vs_dense": 5.0}}}},
        }), encoding="utf-8")
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "perf_gate.py"),
             "--budget", str(budget_path),
             "--check", f"serving={results_path}",
             "--check", f"scale={results_path}"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        out = proc.stdout + proc.stderr
        assert "[serving @" in out and "pruned p50" in out
        assert "[scale @" in out and "warm_cache_vs_dense" in out

    def test_checked_in_budget_accepts_shipped_results(self) -> None:
        root = Path(__file__).resolve().parent.parent
        shipped = root / "BENCH_serving.json"
        if not shipped.exists():
            pytest.skip("no committed BENCH_serving.json")
        gate = _load_perf_gate()
        results = json.loads(shipped.read_text(encoding="utf-8"))
        budget = json.loads(
            (root / "tools" / "perf_budget.json").read_text(
                encoding="utf-8"))
        assert gate.evaluate(results, budget, factor=2.0) == []
