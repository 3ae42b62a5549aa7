"""Sentence and word tokenizer tests, including HPC-genre inputs."""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textproc import sentence_tokenizer
from repro.textproc.sentence_tokenizer import SentenceTokenizer, sent_tokenize
from repro.textproc.word_tokenizer import WordTokenizer, word_tokenize


class TestSentenceTokenizer:
    def test_simple_split(self) -> None:
        text = "Use shared memory. It is faster than global memory."
        assert sent_tokenize(text) == [
            "Use shared memory.",
            "It is faster than global memory.",
        ]

    def test_abbreviation_eg_not_boundary(self) -> None:
        text = "Vendors publish guides, e.g. NVIDIA and AMD. Read them."
        sents = sent_tokenize(text)
        assert len(sents) == 2
        assert sents[0].endswith("AMD.")

    def test_ie_not_boundary(self) -> None:
        text = "Threads diverge, i.e. They follow different paths."
        assert len(sent_tokenize(text)) == 1

    def test_decimal_number_not_boundary(self) -> None:
        text = "Devices of compute capability 2.0 issue one instruction."
        assert len(sent_tokenize(text)) == 1

    def test_compute_capability_2x(self) -> None:
        text = ("It is 22 clock cycles for devices of compute capability "
                "2.x and about 11 for 3.x devices.")
        assert len(sent_tokenize(text)) == 1

    def test_section_heading_number(self) -> None:
        text = "See Section 5.4.2. Control flow matters."
        sents = sent_tokenize(text)
        # "5.4.2." must not end the sentence
        assert sents[0].startswith("See Section 5.4.2.")

    def test_question_and_exclamation(self) -> None:
        text = "How to improve memory throughput? Profile first!"
        assert len(sent_tokenize(text)) == 2

    def test_quotes_after_period(self) -> None:
        text = 'He said "use textures." Then he left.'
        sents = sent_tokenize(text)
        assert len(sents) == 2

    def test_empty_and_whitespace(self) -> None:
        assert sent_tokenize("") == []
        assert sent_tokenize("   \n\t ") == []

    def test_newlines_collapsed(self) -> None:
        text = "First line\ncontinues here. Second\nsentence."
        sents = sent_tokenize(text)
        assert sents == ["First line continues here.", "Second sentence."]

    def test_extra_abbreviations(self) -> None:
        tok = SentenceTokenizer(extra_abbreviations={"approx."})
        text = "It takes approx. Three cycles."
        assert len(tok.tokenize(text)) == 1

    def test_no_terminal_punctuation(self) -> None:
        assert sent_tokenize("a trailing fragment") == ["a trailing fragment"]

    @given(st.lists(
        st.sampled_from([
            "Use pinned memory.",
            "Avoid divergent branches!",
            "How can occupancy improve?",
            "The warp size is 32.",
        ]),
        min_size=1, max_size=6,
    ))
    def test_roundtrip_count(self, sents: list[str]) -> None:
        """Joining simple sentences and re-splitting preserves count."""
        text = " ".join(sents)
        assert len(sent_tokenize(text)) == len(sents)


class _PrefixSplittingTokenizer(SentenceTokenizer):
    """The reference splitter: it finds the token before a terminator
    by splitting the whole text before it, which is quadratic in the
    length of a paragraph."""

    def _is_boundary(self, text: str, match: re.Match[str]) -> bool:
        if match.group("end") in "!?":
            return True
        left = text[: match.start("end")]
        last_token = left.rsplit(None, 1)[-1] if left.split() else ""
        bare = last_token.lower().lstrip("(\"'").rstrip(".")
        if bare in self._abbrev:
            return False
        if sentence_tokenizer._SECTION_HEAD.match(last_token):
            return False
        next_char = match.group("next")
        if sentence_tokenizer._NUMERIC_TAIL.search(last_token) \
                and next_char.isdigit():
            return False
        if re.fullmatch(r"[A-Z]", bare):
            return False
        return True


#: the pieces guide prose splits on: abbreviations, dotted numbers and
#: section numbers, single capitals, quotes and brackets, every
#: terminator, and words that open or continue a sentence
_FRAGMENTS = [
    "Use", "shared", "memory", "the", "warp", "The", "It", "A", "J.",
    "A.", "B", "x.", "e.g.", "E.g.", "i.e.", "Fig.", "fig.", "(Fig.",
    "etc.", "vs.", "(e.g.", '"Fig.', "approx.", "2.x", "3.x.", "5.4.2.",
    "5.4.2", "2.0", "32.", "32", "1.", "10", "v1.2.", ".", "..", "...",
    "!", "?", "end.", "done!", "why?", 'said."', "it.)", "it.]", "it.'",
    '"Quoted', "'single", "(Note", "[1]", "`code`", "#define",
    "__syncthreads", "(", ")", '"', "'",
]
_GAPS = [" ", "  ", "\t", "\n", "\xa0", " \n ", "\r\n"]
_PROSE = st.lists(
    st.tuples(st.sampled_from(_FRAGMENTS), st.sampled_from(_GAPS)),
    max_size=40,
).map(lambda pieces: "".join(word + gap for word, gap in pieces))


class TestSentenceSplitterExactAndLinear:
    @settings(max_examples=400, deadline=None)
    @given(text=_PROSE, lead=st.sampled_from(["", " ", "\n\t"]))
    def test_equals_prefix_splitting_reference(self, text: str,
                                               lead: str) -> None:
        text = lead + text
        assert SentenceTokenizer().tokenize(text) == \
            _PrefixSplittingTokenizer().tokenize(text)

    def test_long_paragraph_splits_in_linear_time(self) -> None:
        """4,000 sentences in one paragraph (about 240 KB) split in
        well under a second; splitting the whole prefix at every
        terminator is quadratic and takes seconds."""
        paragraph = " ".join(
            f"Sentence {i} uses e.g. shared memory on 2.x devices."
            for i in range(4000))
        started = time.perf_counter()
        sentences = sent_tokenize(paragraph)
        elapsed = time.perf_counter() - started
        assert len(sentences) == 4000
        assert elapsed < 1.0


class TestWordTokenizer:
    def test_basic(self) -> None:
        assert word_tokenize("Use shared memory.") == [
            "Use", "shared", "memory", "."]

    def test_contractions(self) -> None:
        assert word_tokenize("Don't do that.") == ["Do", "n't", "do", "that", "."]
        assert word_tokenize("It's fast.") == ["It", "'s", "fast", "."]

    def test_api_call_preserved(self) -> None:
        tokens = word_tokenize("Avoid explicit clWaitForEvents() calls.")
        assert "clWaitForEvents()" in tokens

    def test_dunder_identifier(self) -> None:
        tokens = word_tokenize("Use __restrict__ pointers.")
        assert "__restrict__" in tokens

    def test_pragma(self) -> None:
        tokens = word_tokenize("Use the #pragma unroll directive.")
        assert "#pragma" in tokens

    def test_compiler_flag(self) -> None:
        tokens = word_tokenize("Set the -maxrregcount compiler option.")
        assert "-maxrregcount" in tokens

    def test_snake_case(self) -> None:
        tokens = word_tokenize("Call launch_bounds for this kernel.")
        assert "launch_bounds" in tokens

    def test_compute_capability(self) -> None:
        tokens = word_tokenize("For devices of compute capability 2.x only.")
        assert "2.x" in tokens

    def test_float_literal(self) -> None:
        tokens = word_tokenize("Use 3.141592653589793f as the constant.")
        assert "3.141592653589793f" in tokens

    def test_hyphenated_quantity(self) -> None:
        tokens = word_tokenize("Aligned on the 16-byte boundary.")
        assert "16-byte" in tokens

    def test_punctuation_separated(self) -> None:
        tokens = word_tokenize("First, profile; then, optimize.")
        assert tokens.count(",") == 2
        assert ";" in tokens

    def test_span_tokenize_matches_tokens(self) -> None:
        tok = WordTokenizer()
        text = "Don't call cudaMemcpy() twice."
        tokens = tok.tokenize(text)
        spans = tok.span_tokenize(text)
        assert len(tokens) == len(spans)
        assert [text[a:b] for a, b in spans] == tokens

    def test_empty(self) -> None:
        assert word_tokenize("") == []

    @given(st.text(alphabet="abcdefghij ", min_size=0, max_size=60))
    def test_tokens_substrings_of_input(self, text: str) -> None:
        for token in word_tokenize(text):
            assert token in text

    @given(st.lists(st.sampled_from(
        ["use", "memory", "warp", "kernel", "thread"]),
        min_size=1, max_size=8))
    def test_word_sequence_roundtrip(self, words: list[str]) -> None:
        assert word_tokenize(" ".join(words)) == words
