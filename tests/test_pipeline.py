"""Annotation pipeline, analysis store, and reuse-accounting tests.

Covers the one-pass annotation IR (`repro.pipeline`): the typed
sentence/document annotations, the stage graph, the content-addressed
:class:`AnalysisStore` (memory LRU + disk tier), hit/miss accounting
through ``extend()`` / ``build_advisor_multi``, and the headline
acceptance property — Stage II built from a ``DocumentAnnotations``
artifact (or a v2 advisor file) performs **zero** tokenizer or stemmer
calls.
"""

from __future__ import annotations

import pytest

from repro import Document, Egeria
from repro.core.persistence import load_advisor, save_advisor
from repro.core.recommender import KnowledgeRecommender
from repro.pipeline import (
    AnalysisStore,
    AnnotationPipeline,
    DocumentAnnotations,
    SentenceAnnotations,
)
from repro.textproc import instrumentation


SENTENCES = [
    "Use shared memory to cut global traffic.",
    "The warp size is 32 threads.",
    "Avoid divergent branches in loops.",
    "Developers should coalesce global memory accesses.",
]


# -- the annotation IR -----------------------------------------------------


class TestAnnotations:
    def test_layers_start_uncomputed(self) -> None:
        ann = SentenceAnnotations(text="Use shared memory.")
        assert ann.computed_layers == ()
        assert not ann.has("tokens")

    def test_lexical_payload_round_trip(self) -> None:
        pipeline = AnnotationPipeline()
        ann = pipeline.fresh("Use shared memory tiles.")
        pipeline.ensure(ann, "terms")
        payload = ann.lexical_payload()
        assert set(payload) <= {"tokens", "stems", "terms"}
        twin = SentenceAnnotations.from_lexical(ann.text, payload)
        assert twin.tokens == ann.tokens
        assert twin.terms == ann.terms
        assert twin.graph is None          # structural layers don't travel

    def test_document_complete_terms(self) -> None:
        doc = DocumentAnnotations(sentences=[
            SentenceAnnotations(text="a", terms=["a"]),
            SentenceAnnotations(text="b"),
        ])
        assert not doc.complete_terms      # "b" has no terms layer
        doc.sentences[1].terms = []
        assert doc.complete_terms

    def test_from_dict_rejects_length_mismatch(self) -> None:
        doc = DocumentAnnotations(sentences=[
            SentenceAnnotations(text="a", terms=["a"])])
        with pytest.raises(ValueError):
            DocumentAnnotations.from_dict(doc.to_dict(), ["a", "b"])


class TestPipelineStages:
    def test_ensure_computes_prerequisites(self) -> None:
        pipeline = AnnotationPipeline()
        ann = pipeline.fresh("Use shared memory to avoid traffic.")
        pipeline.ensure(ann, "frames")
        # frames requires graph requires tokens
        assert ann.has("tokens") and ann.has("graph") and ann.has("frames")

    def test_ensure_is_memoized(self) -> None:
        pipeline = AnnotationPipeline()
        ann = pipeline.fresh("Use shared memory.")
        first = pipeline.ensure(ann, "tokens")
        with instrumentation.measure() as calls:
            second = pipeline.ensure(ann, "tokens")
        assert second is first
        assert calls.tokenize_calls == 0

    def test_stage_graph_validated(self) -> None:
        from repro.pipeline.stages import TokenizeStage

        with pytest.raises(ValueError):
            AnnotationPipeline(stages=[TokenizeStage(), TokenizeStage()])

    def test_describe_names_all_layers(self) -> None:
        described = AnnotationPipeline().describe()
        provided = {entry["provides"] for entry in described}
        assert provided == {"tokens", "stems", "terms", "graph", "frames"}


# -- the store -------------------------------------------------------------


class TestAnalysisStore:
    def test_hit_and_miss_accounting(self) -> None:
        store = AnalysisStore()
        assert store.get("never seen") is None
        ann = SentenceAnnotations(text="x", tokens=["x"])
        store.put("x", ann)
        assert store.get("x") is ann
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction(self) -> None:
        store = AnalysisStore(max_entries=2)
        for text in ("a", "b", "c"):
            store.put(text, SentenceAnnotations(text=text, tokens=[text]))
        assert store.get("a") is None      # oldest evicted
        assert store.get("c") is not None
        assert store.stats()["evictions"] == 1

    def test_disk_tier_survives_new_store(self, tmp_path) -> None:
        cache = str(tmp_path / "anncache")
        first = AnalysisStore(cache_dir=cache)
        pipeline = AnnotationPipeline()
        ann = pipeline.fresh("Use pinned memory for transfers.")
        pipeline.ensure(ann, "terms")
        first.put(ann.text, ann)
        assert first.stats()["disk_writes"] == 1

        second = AnalysisStore(cache_dir=cache)   # fresh process, same dir
        warm = second.get(ann.text)
        assert warm is not None
        assert warm.terms == ann.terms
        assert second.stats()["disk_hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path) -> None:
        cache = str(tmp_path / "anncache")
        store = AnalysisStore(cache_dir=cache)
        ann = SentenceAnnotations(text="y", tokens=["y"])
        store.put("y", ann)
        path = store._disk_path(store.content_key("y"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        fresh = AnalysisStore(cache_dir=cache)
        assert fresh.get("y") is None
        assert fresh.stats()["misses"] == 1


# -- reuse accounting through the framework --------------------------------


class TestStoreReuse:
    def test_build_then_extend_hits_for_repeated_text(self) -> None:
        egeria = Egeria()
        advisor = egeria.build_advisor(
            Document.from_sentences(SENTENCES, title="v1"))
        assert egeria.store is advisor.store
        advisor.store.reset_counters()
        # the extension repeats two sentences verbatim
        advisor.extend(Document.from_sentences(
            [SENTENCES[0], "Prefer pinned memory for transfers.",
             SENTENCES[2]],
            title="v2"))
        stats = advisor.store.stats()
        assert stats["hits"] >= 2
        assert advisor.health()["annotation_store"]["hits"] >= 2

    def test_build_advisor_multi_reuses_across_builds(self) -> None:
        egeria = Egeria()
        egeria.build_advisor(Document.from_sentences(SENTENCES, title="a"))
        egeria.store.reset_counters()
        docs = [Document.from_sentences(SENTENCES, title="a"),
                Document.from_sentences(
                    ["Prefer pinned memory for transfers."], title="b")]
        tool = egeria.build_advisor_multi(docs, name="merged")
        stats = egeria.store.stats()
        # every sentence seen by the earlier build is served from store
        assert stats["hits"] >= len(SENTENCES)
        assert tool.annotations is not None
        assert len(tool.annotations) == len(tool.document)

    def test_store_can_be_disabled(self) -> None:
        egeria = Egeria(use_annotations_store=False)
        assert egeria.store is None
        advisor = egeria.build_advisor(
            Document.from_sentences(SENTENCES, title="g"))
        assert advisor.store is None
        assert "annotation_store" not in advisor.health()


# -- Stage II parity and the zero-call property ----------------------------


def build_tool():
    return Egeria().build_advisor(
        Document.from_sentences(SENTENCES, title="Parity Guide"))


class TestStageTwoFromAnnotations:
    QUERIES = ["how to reduce global memory traffic",
               "divergent branches", "coalesce accesses"]

    def test_annotation_fed_scores_identical(self) -> None:
        tool = build_tool()
        assert tool.annotations is not None
        fed = tool.recommender
        cold = KnowledgeRecommender(
            tool.advising_sentences, document=tool.document,
            threshold=fed.threshold)     # no annotations: re-normalizes
        for query in self.QUERIES:
            got = [(r.sentence.index, r.score) for r in fed.recommend(query)]
            want = [(r.sentence.index, r.score)
                    for r in cold.recommend(query)]
            assert got == want

    def test_zero_nlp_calls_from_annotations(self) -> None:
        tool = build_tool()
        with instrumentation.measure() as calls:
            KnowledgeRecommender(
                tool.advising_sentences, document=tool.document,
                annotations=tool.annotations)
        assert calls.tokenize_calls == 0
        assert calls.stem_calls == 0

    def test_zero_nlp_calls_from_v2_file(self, tmp_path) -> None:
        tool = build_tool()
        path = tmp_path / "advisor.json"
        save_advisor(tool, str(path))
        with instrumentation.measure() as calls:
            restored = load_advisor(str(path))
        assert calls.total == 0
        # and it still answers (querying may tokenize the query itself)
        assert restored.query("reduce global memory traffic").found
