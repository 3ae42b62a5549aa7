"""Demand-driven Stage I: layer masks, short-circuiting, store
upgrades, the all-selector explain() view, pool/serial equivalence,
and lazy recognition against the explain()-derived reference."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Document, Egeria
from repro.core.analysis import SentenceAnalyzer
from repro.core.config import EgeriaConfig
from repro.core.recognizer import AdvisingSentenceRecognizer
from repro.core.selectors import (
    Selector,
    default_selectors,
    schedule_selectors,
)
from repro.pipeline.annotations import LAYERS, SentenceAnnotations
from repro.pipeline.layers import LayerMask, selector_cost, selector_needs
from repro.pipeline.stages import AnnotationPipeline, LayerStats
from repro.pipeline.store import AnalysisStore
from repro.resilience.faults import FaultError, FaultPlan, FaultSpec, inject
from repro.resilience.policy import RetryExhausted
from repro.stage1 import train_prefilter_for_document
from repro.textproc import instrumentation
from repro.textproc.normalize import NormalizationPipeline

ADVISING = "Use shared memory to reduce global memory traffic."
NEUTRAL = "The warp size is 32 threads."


# -- LayerMask ----------------------------------------------------------


class TestLayerMask:
    def test_of_and_contains(self) -> None:
        mask = LayerMask.of("tokens", "graph")
        assert "tokens" in mask
        assert "graph" in mask
        assert "stems" not in mask

    def test_unknown_layer_raises(self) -> None:
        with pytest.raises(KeyError):
            LayerMask.of("embeddings")
        with pytest.raises(KeyError):
            "embeddings" in LayerMask.full()  # noqa: B015

    def test_full_and_empty(self) -> None:
        assert LayerMask.full().layers == LAYERS
        assert not LayerMask.empty()
        assert len(LayerMask.full()) == len(LAYERS)

    def test_set_algebra(self) -> None:
        lexical = LayerMask.of("tokens", "stems")
        syntax = LayerMask.of("tokens", "graph")
        assert (lexical | syntax).layers == ("tokens", "stems", "graph")
        assert (lexical & syntax) == LayerMask.of("tokens")
        assert (lexical - syntax) == LayerMask.of("stems")

    def test_covers(self) -> None:
        assert LayerMask.full().covers(LayerMask.of("frames"))
        assert not LayerMask.of("tokens").covers(LayerMask.of("stems"))

    def test_layers_ordered_shallow_to_deep(self) -> None:
        mask = LayerMask.of("frames", "tokens")
        assert mask.layers == ("tokens", "frames")

    def test_hash_and_eq(self) -> None:
        assert LayerMask.of("tokens") == LayerMask.of("tokens")
        assert len({LayerMask.of("tokens"), LayerMask.of("tokens")}) == 1

    def test_cost_model(self) -> None:
        assert selector_cost("lexical") < selector_cost("syntax")
        assert selector_cost("syntax") < selector_cost("srl")
        assert selector_cost("unknown") == selector_cost("syntax")
        assert selector_needs("lexical") == ("tokens", "stems")
        assert "frames" in selector_needs("srl")


# -- short-circuiting laziness ------------------------------------------


class TestLazyShortCircuit:
    def test_keyword_sentence_never_parses(self) -> None:
        recognizer = AdvisingSentenceRecognizer()
        annotations = SentenceAnnotations(text=ADVISING)
        outcome = recognizer.classify_ex(ADVISING, annotations=annotations)
        assert outcome.is_advising and outcome.selector == "keyword"
        mask = LayerMask.from_layers(annotations.computed_layers)
        assert "graph" not in mask and "frames" not in mask

    def test_analysis_mask_tracks_materialization(self) -> None:
        analysis = SentenceAnalyzer().analyze(NEUTRAL)
        assert analysis.mask == LayerMask.empty()
        analysis.stems
        assert analysis.mask == LayerMask.of("tokens", "stems")
        analysis.graph
        assert "graph" in analysis.mask

    def test_scheduler_is_stable_noop_for_default_cascade(self) -> None:
        selectors = default_selectors()
        assert [s.name for s in schedule_selectors(selectors)] \
            == [s.name for s in selectors]

    def test_scheduler_moves_cheap_layers_first(self) -> None:
        selectors = default_selectors()
        reordered = [selectors[4], selectors[1], selectors[0]]
        scheduled = schedule_selectors(reordered)
        assert [s.layer for s in scheduled] == ["lexical", "syntax", "srl"]
        # stability: same-layer selectors keep their given order
        two_syntax = [selectors[3], selectors[2]]
        assert [s.name for s in schedule_selectors(two_syntax)] \
            == [s.name for s in two_syntax]

    def test_failure_memo_blocks_without_rerun(self) -> None:
        analysis = SentenceAnalyzer().analyze(NEUTRAL)
        plan = FaultPlan(specs=(FaultSpec(point="analysis.parse"),))
        with inject(plan):
            with pytest.raises(Exception) as first:
                analysis.graph
        # outside the chaos window the memo still blocks — the dead
        # stage is never re-executed for this analysis
        with pytest.raises(Exception) as second:
            analysis.graph
        assert second.value is first.value
        assert "graph" in analysis.failed_layers
        assert analysis.selector_blocker("syntax") is first.value
        assert analysis.selector_blocker("srl") is first.value
        assert analysis.selector_blocker("lexical") is None

    def test_failed_stemmer_does_not_block_syntax(self) -> None:
        analysis = SentenceAnalyzer().analyze(NEUTRAL)
        plan = FaultPlan(specs=(FaultSpec(point="analysis.stem"),))
        with inject(plan):
            with pytest.raises(Exception):
                analysis.stems
        # the parse consumes raw tokens, not stems
        assert analysis.selector_blocker("syntax") is None
        assert analysis.graph is not None


# -- terms-from-stems fast path -----------------------------------------


class TestTermsDerivation:
    @pytest.mark.parametrize("text", [
        ADVISING,
        NEUTRAL,
        "It is best to avoid, where possible, bank conflicts!",
        "A B C the of and 1 2 3 -- ...",
        "",
        "Punctuation-only: ?!.,;",
    ])
    def test_derived_terms_match_normalizer(self, text: str) -> None:
        pipeline = AnnotationPipeline()
        annotations = SentenceAnnotations(text=text)
        derived = pipeline.ensure(annotations, "terms")
        tokens = pipeline.ensure(annotations, "tokens")
        assert derived == NormalizationPipeline().normalize_tokens(tokens)

    def test_terms_reuse_stems_zero_extra_stem_calls(self) -> None:
        pipeline = AnnotationPipeline()
        annotations = SentenceAnnotations(text=ADVISING)
        pipeline.ensure(annotations, "stems")
        before = instrumentation.snapshot()
        pipeline.ensure(annotations, "terms")
        delta = instrumentation.snapshot() - before
        assert delta.stem_calls == 0
        assert delta.tokenize_calls == 0

    @pytest.mark.parametrize("derive_first", [True, False])
    def test_both_paths_share_one_memo(self, derive_first: bool) -> None:
        """Deriving terms from stems and ``normalize_tokens`` read and
        fill the stage's one token -> term memo; whichever path sees a
        token first, each returns the memo-free reference output."""
        pipeline = AnnotationPipeline()
        normalizer = pipeline.normalizer
        texts = [ADVISING, NEUTRAL,
                 "The memory, the Memory and THE MEMORY!",
                 "It is best to avoid, where possible, bank conflicts!",
                 "A B C the of and 1 2 3 -- ..."]
        for derive in (derive_first, not derive_first):
            for text in texts:
                annotations = SentenceAnnotations(text=text)
                tokens = pipeline.ensure(annotations, "tokens")
                expected = NormalizationPipeline().normalize_tokens(tokens)
                if derive:
                    pipeline.ensure(annotations, "stems")
                    assert pipeline.ensure(annotations, "terms") == expected
                else:
                    assert normalizer.normalize_tokens(tokens) == expected


# -- store upgrade semantics --------------------------------------------


class TestStoreUpgrades:
    def test_put_merges_missing_layers_in_place(self) -> None:
        store = AnalysisStore()
        partial = SentenceAnnotations(text=ADVISING, tokens=["Use"])
        store.put(ADVISING, partial)
        richer = SentenceAnnotations(
            text=ADVISING, tokens=["SHOULD", "NOT", "WIN"], stems=["use"])
        store.put(ADVISING, richer)
        merged = store.get(ADVISING)
        assert merged is partial            # identity preserved
        assert merged.tokens == ["Use"]     # present layers never clobbered
        assert merged.stems == ["use"]      # missing layer filled in
        assert store.upgrades == 1
        assert store.stats()["upgrades"] == 1

    def test_put_same_object_is_not_an_upgrade(self) -> None:
        store = AnalysisStore()
        record = SentenceAnnotations(text=ADVISING, tokens=["Use"])
        store.put(ADVISING, record)
        store.put(ADVISING, record)
        assert store.upgrades == 0

    def test_disk_entry_grows_with_new_layers(self, tmp_path) -> None:
        cache = str(tmp_path / "cache")
        store = AnalysisStore(cache_dir=cache)
        store.put(ADVISING, SentenceAnnotations(
            text=ADVISING, tokens=["Use"]))
        key = AnalysisStore.content_key(ADVISING)
        path = os.path.join(cache, key[:2], f"{key}.json")
        with open(path, encoding="utf-8") as handle:
            assert set(json.load(handle)["layers"]) == {"tokens"}
        store.put(ADVISING, SentenceAnnotations(
            text=ADVISING, tokens=["IGNORED"], stems=["use"]))
        with open(path, encoding="utf-8") as handle:
            layers = json.load(handle)["layers"]
        assert set(layers) == {"tokens", "stems"}
        assert layers["tokens"] == ["Use"]  # disk keeps the first value

    def test_disk_entry_not_rewritten_without_growth(self, tmp_path) -> None:
        cache = str(tmp_path / "cache")
        store = AnalysisStore(cache_dir=cache)
        record = SentenceAnnotations(text=ADVISING, tokens=["Use"])
        store.put(ADVISING, record)
        writes = store.disk_writes
        store.put(ADVISING, SentenceAnnotations(
            text=ADVISING, tokens=["Use"]))
        assert store.disk_writes == writes

    def test_upgraded_record_visible_to_disk_tier(self, tmp_path) -> None:
        """A second-process store sees the merged layer set."""
        cache = str(tmp_path / "cache")
        first = AnalysisStore(cache_dir=cache)
        first.put(ADVISING, SentenceAnnotations(
            text=ADVISING, tokens=["Use"], stems=["use"]))
        second = AnalysisStore(cache_dir=cache)
        entry = second.get(ADVISING)
        assert entry is not None and entry.stems == ["use"]


# -- full provenance: explain() is the all-selector view -------------


def explain_reference(recognizer: AdvisingSentenceRecognizer,
                      text: str) -> tuple[bool, str | None]:
    """(is_advising, selector) implied by explain(): Stage I is a
    disjunction, credited to the first scheduled selector that fires."""
    verdicts = recognizer.explain(text)
    fired = next((s.name for s in schedule_selectors(recognizer.selectors)
                  if verdicts[s.name]), None)
    return fired is not None, fired


class TestFullProvenance:
    def test_match_vectors_cover_every_selector(self) -> None:
        explained = AdvisingSentenceRecognizer().explain(ADVISING)
        assert list(explained) == [s.name for s in default_selectors()]
        assert explained["keyword"] is True

    def test_first_fired_selector_agrees_across_modes(self) -> None:
        recognizer = AdvisingSentenceRecognizer()
        for text in (ADVISING, NEUTRAL,
                     "You should coalesce global memory accesses."):
            assert recognizer.classify(text) \
                == explain_reference(recognizer, text)


# -- explain() rides the annotation store -------------------------------


class TestExplainReuse:
    def test_explain_after_build_is_a_cache_hit(self) -> None:
        store = AnalysisStore()
        recognizer = AdvisingSentenceRecognizer(store=store)
        document = Document.from_sentences([ADVISING, NEUTRAL])
        recognizer.recognize(document)
        before = instrumentation.snapshot()
        recognizer.explain(ADVISING)
        delta = instrumentation.snapshot() - before
        assert delta.tokenize_calls == 0
        assert delta.stem_calls == 0

    def test_explain_upgrades_the_stored_record(self) -> None:
        store = AnalysisStore()
        recognizer = AdvisingSentenceRecognizer(store=store)
        recognizer.recognize(Document.from_sentences([ADVISING]))
        # the keyword short-circuit left the record without a parse;
        # explain() materializes it and upgrades the store in place
        entry = store.get(ADVISING)
        assert entry is not None and entry.graph is None
        recognizer.explain(ADVISING)
        assert entry.graph is not None

    def test_repeated_explain_reuses_layers(self) -> None:
        store = AnalysisStore()
        recognizer = AdvisingSentenceRecognizer(store=store)
        recognizer.explain(NEUTRAL)
        before = instrumentation.snapshot()
        recognizer.explain(NEUTRAL)
        assert (instrumentation.snapshot() - before).total == 0


# -- worker-path configuration ------------------------------------------


class TestWorkerKnobs:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            AdvisingSentenceRecognizer(worker_min_sentences=0)
        with pytest.raises(ValueError):
            AdvisingSentenceRecognizer(worker_chunk_size=0)

    def test_min_sentences_keeps_small_batches_inline(self, monkeypatch
                                                      ) -> None:
        recognizer = AdvisingSentenceRecognizer(
            workers=4, worker_min_sentences=1000)

        def boom(texts):
            raise AssertionError("pool must not spin up below the floor")

        monkeypatch.setattr(recognizer, "_recognize_parallel", boom)
        document = Document.from_sentences([ADVISING, NEUTRAL] * 40)
        results = recognizer.recognize(document)
        assert len(results) == 80

    def test_low_floor_routes_through_worker_path(self, monkeypatch
                                                  ) -> None:
        recognizer = AdvisingSentenceRecognizer(
            workers=2, worker_min_sentences=2, worker_chunk_size=3)
        seen: dict[str, object] = {}

        def fake_parallel(texts):
            seen["texts"] = list(texts)
            return [recognizer._classify_inline(t, i)
                    for i, t in enumerate(texts)]

        monkeypatch.setattr(recognizer, "_recognize_parallel",
                            fake_parallel)
        recognizer.recognize(Document.from_sentences([ADVISING, NEUTRAL]))
        assert len(seen["texts"]) == 2

    def test_chunk_size_splits_batches(self) -> None:
        recognizer = AdvisingSentenceRecognizer(
            workers=2, worker_chunk_size=5)
        texts = [f"sentence number {i}" for i in range(12)]
        chunk = recognizer.worker_chunk_size
        batches = [(i, texts[i:i + chunk])
                   for i in range(0, len(texts), chunk)]
        assert [len(b) for _, b in batches] == [5, 5, 2]

    def test_config_knobs_round_trip(self) -> None:
        config = EgeriaConfig.from_dict({
            "worker_min_sentences": 8,
            "worker_chunk_size": 32,
        })
        assert config.worker_min_sentences == 8
        assert config.worker_chunk_size == 32
        again = EgeriaConfig.from_dict(config.to_dict())
        assert again == config

    def test_config_defaults_and_validation(self) -> None:
        config = EgeriaConfig.from_dict({})
        assert config.worker_min_sentences == 64
        assert config.worker_chunk_size is None
        with pytest.raises(ValueError):
            EgeriaConfig.from_dict({"worker_min_sentences": 0})
        with pytest.raises(ValueError):
            EgeriaConfig.from_dict({"worker_chunk_size": 0})
        # the eager Stage I mode and its key are gone
        with pytest.raises(ValueError, match="unknown config keys"):
            EgeriaConfig.from_dict({"provenance": "full"})

    def test_egeria_passes_knobs_to_recognizer(self) -> None:
        egeria = Egeria(worker_min_sentences=7, worker_chunk_size=9)
        assert egeria.recognizer.worker_min_sentences == 7
        assert egeria.recognizer.worker_chunk_size == 9


# -- the pool runs the serial per-sentence code -------------------------

#: distinct texts that make every selector fire alone and in pairs
#: where cascade order decides provenance
POOL_CORPUS = [
    ADVISING,                                           # keyword+imperative
    NEUTRAL,
    "You should coalesce global memory accesses.",      # keyword
    "The device exposes sixteen streaming multiprocessors.",
    "It is better to avoid bank conflicts in shared memory.",
    "Avoid divergent branches within a warp.",          # imperative
    "Programmers must consider the alignment of every access.",  # subject
    "It is recommended to tune the dimensions of thread blocks and "
    "grids on this architecture.",                      # comparative
    "The first step in improving flow control instructions is to "
    "avoid divergent branches.",                        # purpose
    "Developers can use the texture cache for scattered read-only "
    "data to maximize memory throughput.",              # purpose+subject
    "Restructuring the code to use pinned memory for frequently "
    "transferred buffers can help achieve overlap of copy and "
    "compute.",                                         # keyword+purpose
    "This section describes the runtime API.",
    "The compiler can place local variables in registers.",
]

#: the pool document: POOL_CORPUS, then repeats of some of its texts —
#: the serial memo answers a repeat, the memo-less workers classify it
#: again, and both must ship the same layers and counters for it
POOL_TEXTS = POOL_CORPUS + POOL_CORPUS[::2] + POOL_CORPUS[1::3]

POOL_CASES = {
    "default": lambda document: {},
    "keyword_only": lambda document: {
        "selectors": default_selectors()[:1]},
    "reversed_unscheduled": lambda document: {
        "selectors": list(reversed(default_selectors())),
        "schedule": False},
    "prefilter": lambda document: {
        "prefilter": train_prefilter_for_document(document)[0]},
}


def _observed(recognizer: AdvisingSentenceRecognizer,
              document: Document) -> tuple[list, list[dict], dict]:
    results = recognizer.recognize(document)
    decisions = [(r.sentence.index, r.is_advising, r.selector,
                  r.prefilter_skipped, r.quarantined,
                  tuple(event.layer for event in r.events))
                 for r in results]
    payloads = [annotations.lexical_payload()
                for annotations in recognizer.last_annotations]
    return decisions, payloads, recognizer.prefilter_stats


def _pooled(**kwargs) -> AdvisingSentenceRecognizer:
    return AdvisingSentenceRecognizer(
        workers=2, worker_min_sentences=1, worker_chunk_size=3, **kwargs)


class TestPoolMatchesSerial:
    def test_corpus_exercises_every_selector(self) -> None:
        recognizer = AdvisingSentenceRecognizer()
        fired = {name for text in POOL_CORPUS
                 for name, hit in recognizer.explain(text).items() if hit}
        assert fired == {s.name for s in default_selectors()}

    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_pool_equals_serial(self, case: str) -> None:
        document = Document.from_sentences(POOL_TEXTS)
        kwargs = POOL_CASES[case](document)
        serial = _observed(AdvisingSentenceRecognizer(**kwargs), document)
        pooled = _observed(_pooled(**kwargs), document)
        assert pooled == serial

    def test_pool_equals_serial_under_dead_parser(self) -> None:
        document = Document.from_sentences(POOL_TEXTS)
        plan = FaultPlan(specs=(FaultSpec(point="analysis.parse",
                                          probability=1.0),))
        with inject(plan):
            serial = _observed(AdvisingSentenceRecognizer(), document)
            pooled = _observed(_pooled(), document)
        assert any(layers for *_, layers in serial[0])
        assert pooled == serial

    def test_no_degrade_raises_on_both_paths(self) -> None:
        document = Document.from_sentences(POOL_TEXTS)
        plan = FaultPlan(specs=(FaultSpec(point="analysis.parse",
                                          probability=1.0),))
        with inject(plan):
            with pytest.raises(FaultError):
                AdvisingSentenceRecognizer(degrade=False).recognize(
                    document)
            with pytest.raises(RetryExhausted) as caught:
                _pooled(degrade=False, max_retries=0).recognize(document)
        assert isinstance(caught.value.__cause__, FaultError)


# -- layer observation --------------------------------------------------


class TestObservedPipeline:
    def test_observed_counts_only_demanded_layers(self) -> None:
        pipeline, stats = AnnotationPipeline().observed()
        annotations = SentenceAnnotations(text=ADVISING)
        pipeline.ensure(annotations, "stems")
        snap = stats.snapshot()
        assert snap["tokens"]["runs"] == 1
        assert snap["stems"]["runs"] == 1
        assert "graph" not in snap

    def test_observed_records_failures(self) -> None:
        pipeline, stats = AnnotationPipeline().observed()
        annotations = SentenceAnnotations(text=NEUTRAL)
        plan = FaultPlan(specs=(FaultSpec(point="analysis.parse"),))
        with inject(plan):
            with pytest.raises(Exception):
                pipeline.ensure(annotations, "graph")
        assert stats.snapshot()["graph"]["failures"] == 1

    def test_observed_is_idempotent(self) -> None:
        stats = LayerStats()
        pipeline, first = AnnotationPipeline().observed(stats)
        again, second = pipeline.observed(stats)
        assert first is stats and second is stats
        assert [type(s).__name__ for s in again.stages] \
            == [type(s).__name__ for s in pipeline.stages]


# -- property: lazy recognition equals the all-selector reference ------


WORDS = ["use", "shared", "memory", "avoid", "bank", "conflicts", "the",
         "warp", "size", "is", "threads", "you", "should", "coalesce",
         "global", "accesses", "to", "reduce", "traffic", "kernel",
         "performance", "better", "programmer", "one", "must", "consider",
         "in", "order", "improve", "occupancy", "32", "best"]

#: the selector layers a dead NLP stage takes down: the parse feeds
#: the syntactic selectors and (through the graph) SRL; the stemmer
#: feeds only the keyword selector — the parse reads raw tokens
DEAD_LAYER_SELECTORS = {
    "analysis.parse": {"syntax", "srl"},
    "analysis.srl": {"srl"},
    "analysis.stem": {"lexical"},
}


@st.composite
def sentences(draw):
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12))
    return " ".join(words) + "."


def _surviving(point: str) -> list[Selector]:
    return [s for s in default_selectors()
            if s.layer not in DEAD_LAYER_SELECTORS[point]]


class TestLazyEagerEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(sentences(), min_size=1, max_size=12))
    def test_advising_set_identical(self, texts: list[str]) -> None:
        document = Document.from_sentences(texts)
        recognizer = AdvisingSentenceRecognizer()
        lazy = recognizer.recognize(document)
        reference = AdvisingSentenceRecognizer()
        assert [(r.sentence.index, r.is_advising, r.selector)
                for r in lazy] \
            == [(s.index, *explain_reference(reference, s.text))
                for s in document.sentences]

    @settings(max_examples=10, deadline=None)
    @given(st.lists(sentences(), min_size=1, max_size=8),
           st.sampled_from(sorted(DEAD_LAYER_SELECTORS)))
    def test_agreement_under_total_layer_faults(self, texts: list[str],
                                                point: str) -> None:
        """With a deterministic (p=1.0) dead layer, the ladder decides
        with the surviving selectors — exactly the cascade that never
        had the dead layer's selectors."""
        document = Document.from_sentences(texts)
        plan = FaultPlan(specs=(FaultSpec(point=point, probability=1.0),))
        with inject(plan):
            degraded = AdvisingSentenceRecognizer().recognize(document)
        reduced = AdvisingSentenceRecognizer(
            selectors=_surviving(point)).recognize(document)
        assert [(r.sentence.index, r.is_advising, r.selector)
                for r in degraded] \
            == [(r.sentence.index, r.is_advising, r.selector)
                for r in reduced]

    def test_disjunction_is_order_invariant(self) -> None:
        """§3.1.2: the advising *set* does not depend on selector
        order — the formal basis of the short-circuit proof."""
        texts = [ADVISING, NEUTRAL,
                 "You should coalesce global memory accesses.",
                 "In order to improve occupancy, reduce register use."]
        document = Document.from_sentences(texts)
        forward = AdvisingSentenceRecognizer()
        backward = AdvisingSentenceRecognizer(
            selectors=list(reversed(default_selectors())), schedule=False)
        assert [r.is_advising for r in forward.recognize(document)] \
            == [r.is_advising for r in backward.recognize(document)]
