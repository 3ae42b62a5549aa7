"""Learned Stage I pre-filter: recall-safe calibration, deterministic
training, recognizer identity (serial and worker pool), persistence
round-trips, and the health surface."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Document, Egeria
from repro.core.keywords import KeywordConfig
from repro.core.persistence import (
    PersistenceError,
    load_advisor,
    save_advisor,
)
from repro.core.recognizer import AdvisingSentenceRecognizer
from repro.core.selectors import KeywordSelector
from repro.pipeline.layers import LayerMask, prefilter_mask
from repro.pipeline.store import AnalysisStore
from repro.stage1 import (
    PREFILTER_FORMAT_VERSION,
    AdvicePrefilter,
    PrefilterError,
    PrefilterFeaturizer,
    calibrate,
    evaluate_prefilter,
    train_prefilter,
    train_prefilter_for_document,
)
from repro.stage1.model import DEFER, KEYWORD, SKIP, Example
from repro.tagging.perceptron import AveragedPerceptron
from repro.textproc import instrumentation

ADVISING = "Use shared memory to reduce global memory traffic."
NEUTRAL = "The warp size is 32 threads."

#: a small keyword-dense corpus in the bench's image: ~half the
#: sentences open with a Table 2 flagging phrase, the rest are neutral
#: hardware descriptions the cascade must reject
CORPUS = [
    ADVISING,
    NEUTRAL,
    "You should coalesce global memory accesses.",
    "The device exposes sixteen streaming multiprocessors.",
    "It is better to avoid bank conflicts in shared memory.",
    "The figure above shows the memory hierarchy.",
    "In order to improve occupancy, reduce register pressure.",
    "This section describes the runtime API.",
    "Prefer to overlap transfers with kernel execution.",
    "The table lists the compute capability per device.",
]


def _distilled(sentences: list[str]):
    document = Document.from_sentences(sentences)
    prefilter, calibration, evaluation = \
        train_prefilter_for_document(document)
    return document, prefilter, calibration, evaluation


def _triples(results) -> list[tuple[int, bool, str | None]]:
    return [(r.sentence.index, r.is_advising, r.selector)
            for r in results]


# -- decide(): the three-rung ladder ------------------------------------


class TestDecide:
    def test_empty_tokens_defer(self) -> None:
        _, prefilter, _, _ = _distilled(CORPUS)
        assert prefilter.decide(()) == DEFER

    def test_oov_token_defers(self) -> None:
        _, prefilter, _, _ = _distilled(CORPUS)
        assert prefilter.decide(
            ("zyzzyva", "quux", "xylophone")) == DEFER

    def test_keyword_sentence_takes_fast_path(self) -> None:
        _, prefilter, _, _ = _distilled(CORPUS)
        assert prefilter.decide(tuple(ADVISING[:-1].split())) == KEYWORD

    def test_neutral_in_vocab_sentence_skips(self) -> None:
        _, prefilter, _, _ = _distilled(CORPUS)
        assert prefilter.decide(tuple(NEUTRAL[:-1].split())) == SKIP

    def test_decisions_are_closed_vocabulary(self) -> None:
        _, prefilter, _, _ = _distilled(CORPUS)
        for text in CORPUS:
            assert prefilter.decide(tuple(text[:-1].split())) in (
                SKIP, DEFER, KEYWORD)


# -- calibration: provable recall safety --------------------------------


class TestCalibration:
    def test_zero_false_negatives_on_calibration_corpus(self) -> None:
        _, _, calibration, _ = _distilled(CORPUS)
        assert calibration.false_negatives == 0
        assert calibration.recall == 1.0
        assert calibration.tau is not None

    def test_eval_recall_is_one_vs_labels_and_cascade(self) -> None:
        _, _, _, evaluation = _distilled(CORPUS)
        assert evaluation.recall_vs_labels == 1.0
        assert evaluation.recall_vs_cascade == 1.0
        assert evaluation.false_skips_vs_labels == 0
        assert evaluation.false_skips_vs_cascade == 0

    def test_some_negatives_actually_skip(self) -> None:
        """The filter must do work, not defer everything."""
        _, _, calibration, _ = _distilled(CORPUS)
        assert calibration.skipped > 0
        assert calibration.skip_rate > 0.0

    def test_label_length_mismatch_raises(self) -> None:
        document = Document.from_sentences(CORPUS)
        with pytest.raises(ValueError):
            train_prefilter_for_document(document, labels=[True])

    def test_verification_guard_refuses_unsafe_model(self, monkeypatch
                                                     ) -> None:
        """The zero-FN property is checked end-to-end, not assumed: if
        decide() ever skipped a calibration positive, calibrate() must
        raise rather than emit the model."""
        keywords = KeywordConfig()
        examples = (
            Example(tokens=("alpha", "beta"), positive=True),
            Example(tokens=("gamma", "beta"), positive=False),
        )
        prefilter = train_prefilter(examples, keywords)
        monkeypatch.setattr(AdvicePrefilter, "decide",
                            lambda self, tokens: SKIP)
        with pytest.raises(PrefilterError):
            calibrate(prefilter, examples)


# -- deterministic training (satellite: perceptron determinism) ---------


class TestDeterministicTraining:
    def test_same_seed_trains_identical_weights(self) -> None:
        keywords = KeywordConfig()
        examples = tuple(
            Example(tokens=tuple(text[:-1].lower().split()),
                    positive=index % 3 == 0)
            for index, text in enumerate(CORPUS))
        first = train_prefilter(examples, keywords, seed=7)
        second = train_prefilter(examples, keywords, seed=7)
        assert first.weights == second.weights
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(second.to_dict(), sort_keys=True)

    def test_full_distillation_is_reproducible(self) -> None:
        _, first, _, _ = _distilled(CORPUS)
        _, second, _, _ = _distilled(CORPUS)
        assert first.to_dict() == second.to_dict()
        assert first.checksum == second.checksum


# -- the two-class trainer equals the multiclass oracle -----------------


def _reference_prefilter(examples, keywords: KeywordConfig,
                         iterations: int, seed: int) -> AdvicePrefilter:
    """The trainer as it ran over the multiclass tagger perceptron:
    labels "advising"/"other", one featurization per example, sorted
    ``dict.fromkeys`` features, and the advising-minus-other collapse."""
    featurizer = PrefilterFeaturizer()
    keyword = KeywordSelector(keywords)
    vocabulary: set[str] = set()
    training = []
    for example in examples:
        lowers = featurizer.lowers(example.tokens)
        vocabulary.update(lowers)
        stems = featurizer.stems(lowers)
        if keyword.matches_stems(stems):
            continue
        training.append((
            dict.fromkeys(sorted(featurizer.features(lowers, stems)), 1),
            "advising" if example.positive else "other"))
    model = AveragedPerceptron()
    model.classes = {"advising", "other"}
    rng = np.random.default_rng(seed)
    order = np.arange(len(training))
    for _ in range(max(1, iterations)):
        rng.shuffle(order)
        for index in order:
            counts, truth = training[index]
            model.update(truth, model.predict(counts), counts)
    model.average_weights()
    weights = {}
    for feature in sorted(model.weights):
        labels = model.weights[feature]
        weight = labels.get("advising", 0.0) - labels.get("other", 0.0)
        if weight:
            weights[feature] = weight
    return AdvicePrefilter(
        weights=weights, vocabulary=frozenset(vocabulary),
        defer_tokens=frozenset(), keywords=keywords,
        trained_on=dict(examples=len(examples), trained=len(training),
                        iterations=iterations, seed=seed))


#: a small vocabulary with Table 2 flagging words ("should", "prefer",
#: "reduce", "better"), so some sentences take the keyword rung
_TRAIN_WORDS = ["Use", "use", "shared", "memory", "should", "prefer",
                "reduce", "better", "the", "The", "warp", "threads", "32",
                ",", ".", "bank", "conflicts", "is", "avoid", "kernel"]


@st.composite
def training_sets(draw) -> list[Example]:
    """Examples drawn from a few distinct sentences, with duplicates,
    empty sentences, list-valued tokens and all-positive,
    all-negative or mixed labels."""
    pool = draw(st.lists(
        st.lists(st.sampled_from(_TRAIN_WORDS), max_size=6).map(tuple),
        min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=1, max_size=24))
    labels = draw(st.sampled_from(["mixed", "positive", "negative"]))
    examples = []
    for index in picks:
        positive = draw(st.booleans()) if labels == "mixed" \
            else labels == "positive"
        tokens = pool[index]
        if draw(st.booleans()):
            tokens = list(tokens)
        examples.append(Example(tokens=tokens, positive=positive))
    return examples


class TestTrainerEqualsOracle:
    @settings(max_examples=150, deadline=None)
    @given(training_sets(), st.integers(min_value=0, max_value=50),
           st.integers(min_value=1, max_value=12))
    def test_weights_and_checksum_match_multiclass_perceptron(
            self, examples: list[Example], seed: int,
            iterations: int) -> None:
        keywords = KeywordConfig()
        trained = train_prefilter(examples, keywords,
                                  iterations=iterations, seed=seed)
        reference = _reference_prefilter(examples, keywords,
                                         iterations, seed)

        def hexed(model):
            return [(name, weight.hex())
                    for name, weight in model.weights.items()]

        assert hexed(trained) == hexed(reference)
        assert trained.checksum == reference.checksum


# -- each distinct sentence is featurized and decided once --------------


class TestOncePerDistinctSentence:
    def test_calibration_and_eval_decide_each_distinct_sentence_once(
            self, monkeypatch) -> None:
        """On the CUDA guide with labels (as ``train-prefilter cuda``
        runs it), calibration's verification pass and the evaluation
        each decide every distinct token sequence exactly once."""
        from repro.corpus import GUIDE_BUILDERS

        guide = GUIDE_BUILDERS["cuda"]()
        calls: list[tuple[str, ...]] = []
        decide = AdvicePrefilter.decide

        def spy(self, tokens):
            calls.append(tuple(tokens))
            return decide(self, tokens)

        monkeypatch.setattr(AdvicePrefilter, "decide", spy)
        _, calibration, evaluation = train_prefilter_for_document(
            guide.document, labels=guide.labels())
        assert calibration.sentences == evaluation.sentences == 2140
        assert len(calls) == 2 * len(set(calls)) == 2676
        assert evaluation.recall_vs_labels == 1.0

    def test_trained_model_keeps_the_warm_stem_memo(self) -> None:
        """Training's featurizer is the model's, so calibration and
        evaluation stem nothing the training already stemmed."""
        examples = tuple(
            Example(tokens=tuple(text[:-1].split()),
                    positive=index % 2 == 0)
            for index, text in enumerate(CORPUS + CORPUS))
        prefilter = train_prefilter(examples, KeywordConfig())
        before = instrumentation.snapshot()
        calibrate(prefilter, examples)
        evaluate_prefilter(prefilter, examples)
        assert (instrumentation.snapshot() - before).stem_calls == 0


# -- artifact round-trip ------------------------------------------------


class TestArtifact:
    def test_save_load_round_trip(self, tmp_path) -> None:
        _, prefilter, _, _ = _distilled(CORPUS)
        path = str(tmp_path / "model.json")
        prefilter.save(path)
        loaded = AdvicePrefilter.load(path)
        assert loaded.to_dict() == prefilter.to_dict()
        assert loaded.tau == prefilter.tau
        assert loaded.defer_tokens == prefilter.defer_tokens
        assert loaded.keywords == prefilter.keywords

    def test_checksum_tamper_rejected(self, tmp_path) -> None:
        _, prefilter, _, _ = _distilled(CORPUS)
        path = tmp_path / "model.json"
        prefilter.save(str(path))
        data = json.loads(path.read_text(encoding="utf-8"))
        data["tau"] = -1000.0
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(PrefilterError):
            AdvicePrefilter.load(str(path))

    def test_unknown_format_version_rejected(self) -> None:
        _, prefilter, _, _ = _distilled(CORPUS)
        data = prefilter.to_dict()
        data["format_version"] = PREFILTER_FORMAT_VERSION + 1
        with pytest.raises(PrefilterError):
            AdvicePrefilter.from_dict(data)

    def test_unreadable_file_raises_prefilter_error(self, tmp_path
                                                    ) -> None:
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PrefilterError):
            AdvicePrefilter.load(str(path))


# -- recognizer integration ---------------------------------------------


class TestRecognizerIntegration:
    def test_identity_with_pure_cascade(self) -> None:
        document, prefilter, _, _ = _distilled(CORPUS)
        pure = AdvisingSentenceRecognizer().recognize(document)
        filtered = AdvisingSentenceRecognizer(
            prefilter=prefilter).recognize(document)
        assert _triples(pure) == _triples(filtered)

    def test_counters_populated(self) -> None:
        document, prefilter, _, _ = _distilled(CORPUS)
        recognizer = AdvisingSentenceRecognizer(prefilter=prefilter)
        recognizer.recognize(document)
        stats = recognizer.prefilter_stats
        assert stats["skipped"] > 0
        assert stats["skipped"] + stats["deferred"] \
            + stats["keyword_fast_path"] <= len(CORPUS)

    def test_skipped_sentences_never_touch_nlp_layers(self) -> None:
        document, prefilter, _, _ = _distilled(CORPUS)
        store = AnalysisStore()
        recognizer = AdvisingSentenceRecognizer(
            prefilter=prefilter, store=store)
        results = recognizer.recognize(document)
        skipped = [r for r in results if r.prefilter_skipped]
        assert skipped, "corpus must exercise the skip rung"
        budget = prefilter_mask()
        for result in skipped:
            entry = store.get(result.sentence.text)
            assert entry is not None
            materialized = LayerMask.from_layers(entry.computed_layers)
            assert budget.covers(materialized), (
                f"skipped sentence materialized {materialized.layers}")

    def test_mismatched_keywords_disable_keyword_fast_path(self) -> None:
        """A filter distilled under different keyword sets must not
        assert provenance for a cascade it was not trained on."""
        document, prefilter, _, _ = _distilled(CORPUS)
        extended = KeywordConfig().extend(flagging_words=("warp",))
        recognizer = AdvisingSentenceRecognizer(
            keywords=extended, prefilter=prefilter)
        recognizer.recognize(document)
        assert recognizer.prefilter_stats["keyword_fast_path"] == 0


# -- property: filtered recognition == pure cascade ---------------------


_FLAGGED = ["you should", "it is better to", "prefer to",
            "it is important to", "reduce"]
_NEUTRALS = ["the hardware reports", "this section describes",
             "the table lists"]
WORDS = ["shared", "memory", "bank", "conflicts", "warp", "size",
         "threads", "coalesce", "global", "accesses", "traffic",
         "kernel", "occupancy", "register", "pressure", "device"]


@st.composite
def corpus(draw):
    count = draw(st.integers(min_value=2, max_value=8))
    sentences = []
    for index in range(count):
        opener = draw(st.sampled_from(_FLAGGED + _NEUTRALS))
        words = draw(st.lists(st.sampled_from(WORDS),
                              min_size=1, max_size=6))
        sentences.append(f"{opener} {' '.join(words)} s{index}.")
    return sentences


class TestPrefilterIdentityProperty:
    @settings(max_examples=15, deadline=None)
    @given(corpus(), st.sampled_from([1, 2]),
           st.integers(min_value=1, max_value=4))
    def test_recognition_identical_to_pure_cascade(
            self, sentences: list[str], workers: int,
            seed: int) -> None:
        """Across generated corpora, seeds and both serial and pooled
        recognition, a self-calibrated filter changes nothing
        observable: same advising set, same firing selector per
        sentence."""
        document = Document.from_sentences(sentences)
        prefilter, calibration, _ = train_prefilter_for_document(
            document, seed=seed)
        assert calibration.false_negatives == 0
        pure = AdvisingSentenceRecognizer().recognize(document)
        filtered = AdvisingSentenceRecognizer(
            workers=workers, worker_min_sentences=1, worker_chunk_size=2,
            prefilter=prefilter).recognize(document)
        assert _triples(pure) == _triples(filtered)

    @settings(max_examples=10, deadline=None)
    @given(corpus())
    def test_evaluate_agrees_with_calibration(
            self, sentences: list[str]) -> None:
        document = Document.from_sentences(sentences)
        prefilter, _, _ = train_prefilter_for_document(document)
        cascade = [r.is_advising for r in
                   AdvisingSentenceRecognizer().recognize(document)]
        examples = tuple(
            Example(tokens=tuple(s.sentence.text[:-1].split()),
                    positive=flag)
            for s, flag in zip(
                AdvisingSentenceRecognizer().recognize(document),
                cascade))
        report = evaluate_prefilter(prefilter, examples, cascade)
        assert report.false_skips_vs_cascade == 0
        assert report.recall_vs_cascade == 1.0


# -- advisor persistence + health surface -------------------------------


class TestAdvisorIntegration:
    def test_health_exposes_prefilter_counters(self) -> None:
        document, prefilter, _, _ = _distilled(CORPUS)
        tool = Egeria(prefilter=prefilter).build_advisor(document)
        block = tool.health()["prefilter"]
        assert block["enabled"] is True
        assert block["prefilter_skipped"] > 0
        assert block["prefilter_deferred"] >= 0
        assert block["tau"] == prefilter.tau
        assert block["checksum"] == prefilter.checksum

    def test_health_has_no_block_without_prefilter(self) -> None:
        tool = Egeria().build_advisor(Document.from_sentences(CORPUS))
        assert "prefilter" not in tool.health()

    def test_prefilter_survives_save_load(self, tmp_path) -> None:
        document, prefilter, _, _ = _distilled(CORPUS)
        tool = Egeria(prefilter=prefilter).build_advisor(document)
        path = str(tmp_path / "advisor.json")
        save_advisor(tool, path)
        loaded = load_advisor(path)
        assert loaded.prefilter is not None
        assert loaded.prefilter.checksum == prefilter.checksum
        assert loaded.prefilter.tau == prefilter.tau

    def test_tampered_embedded_prefilter_fails_load(self, tmp_path
                                                    ) -> None:
        document, prefilter, _, _ = _distilled(CORPUS)
        tool = Egeria(prefilter=prefilter).build_advisor(document)
        path = tmp_path / "advisor.json"
        save_advisor(tool, str(path))
        data = json.loads(path.read_text(encoding="utf-8"))
        data["prefilter"]["tau"] = -1000.0
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_advisor(str(path))

    def test_extend_accumulates_counter_deltas_once(self) -> None:
        document, prefilter, _, _ = _distilled(CORPUS)
        egeria = Egeria(prefilter=prefilter)
        tool = egeria.build_advisor(document)
        baseline = dict(tool.prefilter_stats)
        more = Document.from_sentences(
            ["The runtime keeps a context per device zz1.",
             "You should reduce redundant host transfers zz2."])
        tool.extend(more, recognizer=egeria.recognizer)
        # deltas only: a reused recognizer's cumulative counters must
        # not be re-added wholesale
        assert tool.prefilter_stats["skipped"] \
            <= baseline["skipped"] + len(more.sentences)

    def test_config_knobs_round_trip(self) -> None:
        from repro.core.config import EgeriaConfig
        config = EgeriaConfig.from_dict({
            "prefilter": False,
            "prefilter_model": "models/prefilter.json",
            "prefilter_margin_slack": 0.25,
        })
        assert config.prefilter is False
        assert config.prefilter_model == "models/prefilter.json"
        assert config.prefilter_margin_slack == 0.25
        assert EgeriaConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError):
            EgeriaConfig.from_dict({"prefilter_margin_slack": -0.1})
