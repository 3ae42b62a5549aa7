"""Lemmatizer and normalization-pipeline tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.textproc.lemmatizer import Lemmatizer, lemmatize
from repro.textproc.normalize import NormalizationPipeline, normalize_tokens
from repro.textproc.wordlists import BASE_NOUNS, BASE_VERBS


class TestVerbLemmas:
    # every (inflected, base) pair the Egeria selectors rely on
    CASES = [
        ("using", "use"), ("used", "use"), ("uses", "use"),
        ("leveraged", "leverage"), ("leverages", "leverage"),
        ("recommended", "recommend"), ("recommends", "recommend"),
        ("encouraged", "encourage"), ("controlled", "control"),
        ("avoids", "avoid"), ("avoided", "avoid"), ("avoiding", "avoid"),
        ("maximizing", "maximize"), ("maximized", "maximize"),
        ("minimizing", "minimize"), ("minimizes", "minimize"),
        ("achieves", "achieve"), ("achieved", "achieve"),
        ("accomplished", "accomplish"),
        ("creates", "create"), ("creating", "create"),
        ("made", "make"), ("making", "make"),
        ("mapping", "map"), ("mapped", "map"),
        ("aligned", "align"), ("aligning", "align"),
        ("added", "add"), ("adding", "add"),
        ("changes", "change"), ("changed", "change"),
        ("ensures", "ensure"), ("ensuring", "ensure"),
        ("called", "call"), ("calling", "call"),
        ("unrolled", "unroll"), ("unrolling", "unroll"),
        ("moved", "move"), ("moving", "move"),
        ("selected", "select"), ("selecting", "select"),
        ("scheduled", "schedule"), ("scheduling", "schedule"),
        ("switched", "switch"), ("switching", "switch"),
        ("transformed", "transform"), ("packing", "pack"),
        ("runs", "run"), ("running", "run"), ("ran", "run"),
        ("is", "be"), ("was", "be"), ("are", "be"), ("been", "be"),
        ("queues", "queue"), ("queued", "queue"),
        ("preferred", "prefer"), ("prefers", "prefer"),
    ]

    @pytest.mark.parametrize("word,base", CASES)
    def test_verb(self, word: str, base: str) -> None:
        assert lemmatize(word, "v") == base


class TestNounLemmas:
    CASES = [
        ("programmers", "programmer"), ("developers", "developer"),
        ("applications", "application"), ("solutions", "solution"),
        ("algorithms", "algorithm"), ("optimizations", "optimization"),
        ("guidelines", "guideline"), ("techniques", "technique"),
        ("accesses", "access"), ("branches", "branch"),
        ("latencies", "latency"), ("dependencies", "dependency"),
        ("matrices", "matrix"), ("indices", "index"),
        ("warps", "warp"), ("kernels", "kernel"),
        ("memories", "memory"), ("caches", "cache"),
        ("buses", "bus"), ("children", "child"),
    ]

    @pytest.mark.parametrize("word,base", CASES)
    def test_noun(self, word: str, base: str) -> None:
        assert lemmatize(word, "n") == base

    def test_uninflected_passthrough(self) -> None:
        assert lemmatize("memory", "n") == "memory"
        assert lemmatize("throughput", "n") == "throughput"

    def test_us_is_ss_not_stripped(self) -> None:
        assert lemmatize("analysis", "n") == "analysis"
        assert lemmatize("class", "n") == "class"


class TestAdjectiveLemmas:
    CASES = [
        ("faster", "fast"), ("fastest", "fast"),
        ("better", "good"), ("best", "good"),
        ("higher", "high"), ("lower", "low"),
        ("larger", "large"), ("smaller", "small"),
        ("simpler", "simple"), ("efficient", "efficient"),
    ]

    @pytest.mark.parametrize("word,base", CASES)
    def test_adjective(self, word: str, base: str) -> None:
        assert lemmatize(word, "a") == base


class TestLemmatizerGeneral:
    def test_unknown_pos_passthrough(self) -> None:
        assert lemmatize("quickly", "r") == "quickly"

    def test_case_folding(self) -> None:
        assert lemmatize("Running", "v") == "run"

    def test_cached(self) -> None:
        lem = Lemmatizer()
        assert lem.lemmatize("uses", "v") == lem.lemmatize("uses", "v")

    @given(st.sampled_from(sorted(BASE_VERBS)))
    def test_base_verbs_fixed_points(self, verb: str) -> None:
        assert lemmatize(verb, "v") == verb

    @given(st.sampled_from(sorted(BASE_NOUNS)))
    def test_base_nouns_fixed_points(self, noun: str) -> None:
        assert lemmatize(noun, "n") == noun

    @given(st.sampled_from(sorted(BASE_VERBS)))
    def test_third_person_s_roundtrip(self, verb: str) -> None:
        if verb.endswith(("s", "x", "z", "ch", "sh", "y", "o")):
            return
        assert lemmatize(verb + "s", "v") == verb


class TestNormalizationPipeline:
    def test_default_pipeline(self) -> None:
        tokens = normalize_tokens(
            "To maximize instruction throughput, the application should "
            "minimize divergent warps.")
        assert "maxim" in tokens
        assert "minim" in tokens
        assert "warp" in tokens
        # stopwords and punctuation gone
        assert "the" not in tokens
        assert "," not in tokens

    def test_no_stem(self) -> None:
        pipe = NormalizationPipeline(stem=False)
        tokens = pipe.normalize("Maximize instruction throughput")
        assert "maximize" in tokens

    def test_keep_stopwords(self) -> None:
        pipe = NormalizationPipeline(drop_stopwords=False, stem=False)
        tokens = pipe.normalize("the memory is shared")
        assert "the" in tokens

    def test_min_length(self) -> None:
        pipe = NormalizationPipeline(min_length=4, stem=False,
                                     drop_stopwords=False)
        tokens = pipe.normalize("a big warp executes code")
        assert "big" not in tokens
        assert "warp" in tokens

    def test_callable_interface(self) -> None:
        pipe = NormalizationPipeline()
        assert pipe("shared memory") == pipe.normalize("shared memory")

    def test_empty_text(self) -> None:
        assert normalize_tokens("") == []

    def test_punctuation_only(self) -> None:
        assert normalize_tokens("... !!! ???") == []

    @given(st.text(min_size=0, max_size=120))
    def test_never_raises(self, text: str) -> None:
        tokens = normalize_tokens(text)
        assert isinstance(tokens, list)
