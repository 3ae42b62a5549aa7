"""The Stage II fit does each piece of text work once, bit-identically.

Covers the one-pass fit (each document sentence normalized once, its
term list reused for the advising row with the same index; a
pre-filtered build tokenizes each distinct text once), the
token -> term memo of :class:`NormalizationPipeline`, the tokenizer's
apostrophe-free fast path, the bulk CSR seal of
:class:`VectorSpaceModel`, and the hash-seed independence of the
dictionary ids, the snapshot bytes and the pre-filter checksum.

Every fast path is compared with a reference that does the work the
slow way: a memo-free normalization chain, the group-capturing
tokenizer loop, and a per-row ``TfidfModel.transform`` seal.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advisor import AdvisingTool
from repro.core.recommender import KnowledgeRecommender
from repro.docs.document import Document, Sentence
from repro.pipeline.annotations import DocumentAnnotations, SentenceAnnotations
from repro.textproc import normalize, word_tokenizer
from repro.textproc.instrumentation import measure
from repro.textproc.normalize import NormalizationPipeline, _is_punct
from repro.textproc.porter import PorterStemmer
from repro.textproc.stopwords import is_stopword
from repro.retrieval.dictionary import Dictionary
from repro.retrieval.tfidf import TfidfModel
from repro.retrieval.vsm import VectorSpaceModel

ROOT = Path(__file__).resolve().parent.parent

SENTENCES = [
    "Use shared memory to reduce global memory traffic.",
    "The warp size is 32 threads.",
    "Don't use clWaitForEvents() in a tight loop.",
    "Avoid divergent branches within a warp.",
    "Coalesce global memory accesses for bandwidth.",
    "The memory bus is 384 bits wide.",
]


# -- references: the work done the slow way ----------------------------------


def _reference_tokenize(sentence: str) -> list[str]:
    """The group-capturing tokenizer loop, without the fast path."""
    tokens: list[str] = []
    for match in word_tokenizer._TOKEN_RE.finditer(sentence):
        text = match.group(0)
        if match.lastgroup == "word":
            split = word_tokenizer._CONTRACTIONS.match(text)
            if split and split.group(1):
                tokens.extend((split.group(1), split.group(2)))
                continue
        tokens.append(text)
    return tokens


def _reference_chain(tokens, stemmer: PorterStemmer) -> list[str]:
    """The default normalization chain, token by token, no memo."""
    out = []
    for token in tokens:
        if _is_punct(token) or is_stopword(token):
            continue
        term = stemmer.stem(token.lower())
        if term:
            out.append(term)
    return out


def _reference_normalize(text: str, stemmer: PorterStemmer) -> list[str]:
    return _reference_chain(_reference_tokenize(text), stemmer)


def _reference_dictionary(corpus) -> tuple[dict[str, int], dict[int, int]]:
    """``(token2id, dfs)`` assigned one document at a time, first-seen."""
    token2id: dict[str, int] = {}
    dfs: dict[int, int] = {}
    for doc in corpus:
        for token in dict.fromkeys(doc):
            token_id = token2id.setdefault(token, len(token2id))
            dfs[token_id] = dfs.get(token_id, 0) + 1
    return token2id, dfs


def _reference_matrix(rows, tfidf: TfidfModel) -> sp.csr_matrix:
    """The per-row seal: ``TfidfModel.transform`` row by row, then the
    same COO -> CSR build and row normalization."""
    coo_rows, cols, data = [], [], []
    for row, tokens in enumerate(rows):
        for token_id, weight in tfidf.transform(tokens):
            coo_rows.append(row)
            cols.append(token_id)
            data.append(weight)
    matrix = sp.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         (np.asarray(coo_rows, dtype=np.intp),
          np.asarray(cols, dtype=np.intp))),
        shape=(len(rows), len(tfidf.dictionary)), dtype=np.float64)
    norms = np.asarray(spla.norm(matrix, axis=1)).ravel()
    norms[norms == 0.0] = 1.0
    return (sp.diags(1.0 / norms) @ matrix).tocsr()


def _assert_same_csr(actual: sp.csr_matrix, expected: sp.csr_matrix):
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def _assert_reference_fit(sentences, advising) -> None:
    """The fit over *sentences* (advising rows *advising*) equals the
    reference: each text normalized on its own, a first-seen
    dictionary, the paper's IDF and the per-row seal."""
    document = Document.from_sentences(sentences, title="identity")
    in_order = document.sentences
    rows = [in_order[i] for i in advising]
    _assert_fits_reference(
        KnowledgeRecommender(rows, document=document), sentences, advising)


def _assert_fits_reference(recommender, sentences, advising) -> None:
    """*recommender*'s dictionary, IDF and CSR arrays equal the
    reference fit over *sentences* with advising rows *advising*."""
    stemmer = PorterStemmer()
    corpus = [_reference_normalize(text, stemmer) for text in sentences]
    token2id, dfs = _reference_dictionary(corpus)
    tfidf = recommender.index.tfidf
    assert tfidf.dictionary.token2id == token2id
    assert list(tfidf.dictionary.token2id) == list(token2id)
    assert tfidf.dictionary.dfs == dfs
    idf = np.array([math.log(len(corpus) / dfs[i])
                    for i in range(len(token2id))], dtype=np.float64)
    assert tfidf.idf.tobytes() == idf.tobytes()
    (segment,) = recommender.index.segments
    row_terms = [_reference_normalize(sentences[i], stemmer)
                 for i in advising]
    _assert_same_csr(segment.matrix, _reference_matrix(row_terms, tfidf))


# -- one normalization per sentence per fit ------------------------------------


class TestOnePassFit:
    def test_unannotated_fit_tokenizes_each_sentence_once(self) -> None:
        document = Document.from_sentences(SENTENCES, title="Guide")
        with measure() as calls:
            KnowledgeRecommender(document.sentences, document=document)
        assert calls.tokenize_calls == len(document)

    def test_extend_tokenizes_each_ingested_sentence_once(self) -> None:
        document = Document.from_sentences(SENTENCES[:3], title="Guide")
        recommender = KnowledgeRecommender(document.sentences,
                                           document=document)
        batch = [Sentence(text, 3 + i)
                 for i, text in enumerate(SENTENCES[3:])]
        with measure() as calls:
            grown = recommender.extended(batch[::2], batch)
        assert calls.tokenize_calls == len(batch)
        stemmer = PorterStemmer()
        token2id, _ = _reference_dictionary(
            [_reference_normalize(text, stemmer) for text in SENTENCES])
        grown_tfidf = grown.index.tfidf
        assert grown_tfidf.dictionary.token2id == token2id
        new_terms = [_reference_normalize(s.text, stemmer)
                     for s in batch[::2]]
        _assert_same_csr(grown.index.segments[-1].matrix,
                         _reference_matrix(new_terms, grown_tfidf))

    def test_mismatched_rows_are_normalized_again(self) -> None:
        """An advising sentence whose index is out of range, or whose
        text differs from the corpus sentence at its index, gets its
        own normalization — never the corpus sentence's terms."""
        document = Document.from_sentences(SENTENCES, title="Guide")
        rows = [
            document.sentences[0],
            Sentence(SENTENCES[3], 1),      # text differs at index 1
            Sentence(SENTENCES[4], 9),      # index past the corpus
        ]
        with measure() as calls:
            recommender = KnowledgeRecommender(rows, document=document)
        assert calls.tokenize_calls == len(document) + 2
        (divergent,) = recommender.recommend("divergent branches")
        assert divergent.sentence is rows[1]
        (coalesce,) = recommender.recommend("coalesce accesses")
        assert coalesce.sentence is rows[2]

    def test_terms_come_from_terms_then_tokens_then_text(self) -> None:
        """A sentence's terms are its record's terms; else its record's
        tokens, normalized without a tokenizer call and not written
        back; else its text normalized — also past the artifact's end."""
        document = Document.from_sentences(SENTENCES, title="Guide")
        recommender = KnowledgeRecommender(document.sentences,
                                           document=document)
        records = [
            SentenceAnnotations(SENTENCES[0], terms=["given"]),
            SentenceAnnotations(SENTENCES[1],
                                tokens=_reference_tokenize(SENTENCES[1])),
            SentenceAnnotations(SENTENCES[2]),
        ]
        recommender.annotations = DocumentAnnotations(records)
        stemmer = PorterStemmer()
        with measure() as calls:
            assert recommender._terms_of(0, SENTENCES[0]) == ["given"]
            assert recommender._terms_of(1, SENTENCES[1]) == \
                _reference_normalize(SENTENCES[1], stemmer)
        assert calls.tokenize_calls == 0
        assert records[1].terms is None
        with measure() as calls:
            assert recommender._terms_of(2, SENTENCES[2]) == \
                _reference_normalize(SENTENCES[2], stemmer)
            assert recommender._terms_of(9, SENTENCES[4]) == \
                _reference_normalize(SENTENCES[4], stemmer)
        assert calls.tokenize_calls == 2

    def test_fit_equals_reference_on_a_small_guide(self) -> None:
        _assert_reference_fit(SENTENCES, [0, 2, 3, 5])


class TestReferenceCorpora:
    """The acceptance identity: the new fit's dictionary, IDF and CSR
    arrays equal the per-row reference on the benchmark's 30k serve
    corpus and on the four bundled guides."""

    def test_serve_corpus(self) -> None:
        inputs = pytest.importorskip("perfbench.inputs")
        sentences = inputs.corpus_sentences(inputs.DEFAULT_SEED)
        _assert_reference_fit(sentences, range(len(sentences)))

    @pytest.mark.parametrize("name", ["cuda", "opencl", "xeon", "mpi"])
    def test_bundled_guide(self, name: str) -> None:
        from repro.corpus import GUIDE_BUILDERS

        guide = GUIDE_BUILDERS[name]()
        sentences = [s.text for s in guide.document.iter_sentences()]
        advising = [i for i, label in enumerate(guide.labels()) if label]
        assert advising
        _assert_reference_fit(sentences, advising)

    def test_prefiltered_build(self) -> None:
        """A serial pre-filtered build of the CUDA guide tokenizes each
        distinct sentence text once: Stage I analyzes a text once and
        every repeat shares its record, and the fit normalizes the
        tokens a skipped sentence already has.  It fits exactly as the
        reference does."""
        from repro.core.egeria import Egeria
        from repro.corpus import GUIDE_BUILDERS
        from repro.stage1.model import train_prefilter_for_document

        document = GUIDE_BUILDERS["cuda"]().document
        prefilter = train_prefilter_for_document(document)[0]
        with measure() as calls:
            tool = Egeria(prefilter=prefilter).build_advisor(document)
        sentences = [s.text for s in document.iter_sentences()]
        assert len(sentences) == 2140
        assert calls.tokenize_calls == len(set(sentences)) == 1338
        assert tool.prefilter_stats["skipped"] > 0
        _assert_fits_reference(
            tool.recommender, sentences,
            [s.index for s in tool.advising_sentences])


# -- the token -> term memo ----------------------------------------------------

_TOKENS = st.lists(st.sampled_from([
    "Memory", "memory", "the", "The", ".", ",", "...", "threads", "warp",
    "Warps", "n't", "'s", "__syncthreads", "cudaMemcpy()", "-O3", "2.x",
    "16-byte", "is", "a", "A", "I", "bandwidth", "coalescing", "(", "x",
]), max_size=30)


class TestNormalizationMemo:
    @settings(max_examples=200, deadline=None)
    @given(batches=st.lists(_TOKENS, max_size=6),
           memo_size=st.integers(min_value=0, max_value=8))
    def test_memo_equals_chain(self, batches, memo_size) -> None:
        """Equal to the memo-free chain on every call, also once the
        memo is full and new tokens bypass it."""
        pipeline = NormalizationPipeline()
        stemmer = PorterStemmer()
        with mock.patch.object(normalize, "MEMO_SIZE", memo_size):
            for tokens in batches:
                assert pipeline.normalize_tokens(tokens) == \
                    _reference_chain(tokens, stemmer)
        assert len(pipeline._memo) <= memo_size

    def test_memo_stops_inserting_when_full(self, monkeypatch) -> None:
        monkeypatch.setattr(normalize, "MEMO_SIZE", 2)
        pipeline = NormalizationPipeline()
        pipeline.normalize_tokens(["warp", "memory", "threads", "warp"])
        assert list(pipeline._memo) == ["warp", "memory"]

    def test_toggled_steps_are_memoized_per_instance(self) -> None:
        plain = NormalizationPipeline(stem=False, drop_stopwords=False)
        default = NormalizationPipeline()
        tokens = ["The", "Threads", "The"]
        assert plain.normalize_tokens(tokens) == ["the", "threads", "the"]
        assert default.normalize_tokens(tokens) == ["thread"]


# -- the tokenizer fast path ---------------------------------------------------

_TEXT = st.text(alphabet="abcXYZ019_'-.(),#  ", max_size=40)


class TestTokenizerFastPath:
    @settings(max_examples=300, deadline=None)
    @given(text=_TEXT)
    def test_equals_reference(self, text: str) -> None:
        assert word_tokenizer.word_tokenize(text) == \
            _reference_tokenize(text)

    def test_code_tokens_without_apostrophes(self) -> None:
        text = "Call cudaMemcpy() with -O3 on 2.x for 16-byte __shared__ data."
        assert "'" not in text
        assert word_tokenizer.word_tokenize(text) == \
            _reference_tokenize(text)


# -- the bulk seal -------------------------------------------------------------

_VOCAB = ["a", "b", "c", "d", "e", "f"]
_DOCS = st.lists(st.lists(st.sampled_from(_VOCAB), max_size=6),
                 min_size=1, max_size=8)


class TestBulkSeal:
    @settings(max_examples=200, deadline=None)
    @given(corpus=_DOCS,
           rows=st.lists(st.lists(st.sampled_from(_VOCAB + ["zz", "qq"]),
                                  max_size=8), max_size=8),
           shared=st.booleans())
    def test_equals_per_row_reference(self, corpus, rows, shared) -> None:
        """Unknown tokens (``zz``, ``qq`` never fitted), zero-IDF terms
        (``shared`` puts ``a`` in every fitted document), empty rows
        and repeated terms seal exactly as the per-row transform."""
        if shared:
            corpus = [doc + ["a"] for doc in corpus]
        tfidf = TfidfModel(corpus)
        vsm = VectorSpaceModel(rows, tfidf=tfidf)
        _assert_same_csr(vsm.matrix, _reference_matrix(rows, tfidf))

    def test_empty_vocabulary(self) -> None:
        tfidf = TfidfModel([[]])
        vsm = VectorSpaceModel([["x"], []], tfidf=tfidf)
        assert vsm.matrix.shape == (2, 0)
        assert vsm.matrix.nnz == 0


# -- hash-seed independence ----------------------------------------------------


class TestDictionaryOrder:
    def test_ids_follow_first_seen_order(self) -> None:
        dictionary = Dictionary([["warp", "memory", "warp"],
                                 ["thread", "memory"]])
        assert dictionary.token2id == {"warp": 0, "memory": 1,
                                       "thread": 2}
        assert dictionary.dfs == {0: 1, 1: 2, 2: 1}
        assert dictionary.num_docs == 2

    def test_bulk_equals_one_document_at_a_time(self) -> None:
        corpus = [["b", "a", "b"], [], ["c", "a"], ["d"]]
        bulk = Dictionary(corpus)
        stepwise = Dictionary()
        for doc in corpus:
            stepwise.add_document(doc)
        assert bulk.token2id == stepwise.token2id
        assert bulk.dfs == stepwise.dfs
        assert bulk.num_docs == stepwise.num_docs == 4


_SEEDED_BUILD = r"""
import hashlib, os, sys
from repro.core.egeria import Egeria
from repro.core.persistence import save_advisor
from repro.corpus import GUIDE_BUILDERS
from repro.stage1.model import train_prefilter_for_document

document = GUIDE_BUILDERS["xeon"]().document
prefilter, _, _ = train_prefilter_for_document(document)
tool = Egeria(prefilter=prefilter).build_advisor(document)
path = os.path.join(sys.argv[1], "advisor.json")
save_advisor(tool, path)
print(prefilter.checksum)
for name in ("advisor.json", "advisor.bin"):
    with open(os.path.join(sys.argv[1], name), "rb") as handle:
        print(name, hashlib.sha256(handle.read()).hexdigest())
"""


#: the xeon guide's pre-filter checksum, as the multiclass-perceptron
#: trainer wrote it: a trainer drift fails even when both seeds agree
XEON_PREFILTER_CHECKSUM = (
    "7a643a1a76c03de186748e6abfd137f55c6ce35266ddc6bcca4dd5831ca62033")


def test_build_is_independent_of_the_hash_seed(tmp_path) -> None:
    """The same small build under two hash seeds writes byte-identical
    snapshot files and trains the same, pinned pre-filter."""
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _SEEDED_BUILD, str(out)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0].splitlines()[0] == XEON_PREFILTER_CHECKSUM


# -- section path of sentence-list documents -----------------------------------


class TestSentenceListSection:
    def test_sentences_carry_the_title(self) -> None:
        document = Document.from_sentences(SENTENCES, title="Guide")
        assert {s.section_path for s in document.sentences} == {"Guide"}
        text = Document.from_text(" ".join(SENTENCES), title="Text")
        assert {s.section_path for s in text.sentences} == {"Text"}

    def test_built_tool_answers_like_its_snapshot(self, tmp_path) -> None:
        from repro.core.snapshots import SnapshotStore

        document = Document.from_sentences(SENTENCES, title="Guide")
        tool = AdvisingTool(document, document.sentences)
        SnapshotStore(str(tmp_path)).save(tool)
        reloaded = SnapshotStore(str(tmp_path)).load()

        def sections(advisor):
            return [r.sentence.section_path
                    for r in advisor.recommender.recommend("memory")]

        assert sections(tool) == sections(reloaded)
        assert set(sections(tool)) == {"Guide"}


# -- import path ---------------------------------------------------------------


def test_cli_import_skips_sparse_linalg() -> None:
    code = ("import json, sys, repro.cli; "
            "print(json.dumps('scipy.sparse.linalg' in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is False
