"""Stage II — knowledge recommendation.

"From the advising sentences found by the first stage, it tries to
identify those that are closely related with a given query" (§3.2)
using VSM representations with TF-IDF weighting and cosine similarity.
Sentences scoring at least the threshold (default 0.15) are
recommended, best first; there is no fixed result-count cap ("We do
not limit the number of sentences the tool can suggest", §4.1) unless
the caller asks for one (``limit=``, the web layer's top-k knob).

Per the artifact description (§A.6), the vocabulary is built on the
advising summary while IDF statistics come from the whole document.

One-pass pipeline: when a
:class:`~repro.pipeline.annotations.DocumentAnnotations` artifact is
supplied (Stage I produces one as a side effect of recognition, and a
saved advisor's header carries one for later refits), the index is
built from its pre-normalized term lists — zero tokenizer or stemmer
calls; the scores are identical to the re-tokenizing path because the
terms stage runs the very same normalization pipeline.  Sentences
whose terms layer is missing (every pre-filter-skipped sentence, and
any whose layer degraded during the build) fall back to normalizing
their tokens, or their raw text when they have none, once per fit:
an advising row reuses the term list of the document sentence with
the same index and text (DESIGN §16).  A saved advisor skips the fit
entirely: :meth:`restore` wraps the index and term sets mapped from
its ``.bin`` sidecar (:mod:`repro.core.binindex`).

Segmented write path (DESIGN §12): the index is a
:class:`~repro.retrieval.segments.SegmentedIndex` of immutable
segments.  :meth:`extended` returns a *new* recommender that grows the
TF-IDF model append-only (frozen IDF for existing terms) and seals the
new advising sentences as one more segment — the published recommender
keeps serving untouched, and a warm query cache survives because no
existing row or weight changed.

Cache repair instead of wholesale flush: the shared
:class:`~repro.retrieval.topk.LRUQueryCache` outlives individual
recommenders.  Each entry records the weight epoch, the number of rows
it covered, and the vocabulary width at store time.  On a hit the
recommender *repairs* an entry that predates newer segments by scoring
only the uncovered tail rows and merging — exact, because
``select_top_k`` over (cached top-k ∪ tail) equals top-k over the full
row set (any dropped cached row was dominated by ``limit``
earlier-ranked rows that are still present).  Only two events force a
recompute: a refit (weight-epoch bump → wholesale flush) or a query
term that entered the vocabulary after the entry was cached (the
query vector itself changed → targeted per-entry drop, counted as
``invalidations_segment``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.docs.document import Document, Sentence
from repro.pipeline.annotations import DocumentAnnotations
from repro.resilience.faults import fault_point
from repro.retrieval.segments import SegmentedIndex, grow_tfidf
from repro.retrieval.tfidf import TfidfModel
from repro.retrieval.topk import LRUQueryCache, select_top_k
from repro.retrieval.vsm import DEFAULT_THRESHOLD
from repro.textproc.normalize import NormalizationPipeline

#: default capacity of the per-recommender query-result LRU
DEFAULT_QUERY_CACHE_SIZE = 1024


@dataclass(frozen=True)
class Recommendation:
    """One recommended sentence with its similarity score and the
    normalized terms it shares with the query (the evidence a UI can
    highlight)."""

    sentence: Sentence
    score: float
    matched_terms: tuple[str, ...] = ()


class KnowledgeRecommender:
    """Thresholded VSM/TF-IDF retrieval over advising sentences."""

    def __init__(
        self,
        advising_sentences: Sequence[Sentence],
        document: Document | None = None,
        threshold: float = DEFAULT_THRESHOLD,
        annotations: DocumentAnnotations | None = None,
        cache_size: int = DEFAULT_QUERY_CACHE_SIZE,
        prune: bool = True,
        cache: LRUQueryCache | None = None,
        epoch: int = 0,
    ) -> None:
        """Build a fresh (single-segment) recommender.

        ``cache`` shares an existing query cache across a refit (its
        entries are epoch-checked, never trusted blindly); ``epoch`` is
        the weight epoch this build represents.
        """
        self.sentences = list(advising_sentences)
        self.threshold = threshold
        self.annotations = annotations
        self.prune = prune
        self.epoch = epoch
        self._normalizer = NormalizationPipeline()
        if cache is not None:
            self._cache: LRUQueryCache | None = cache
        else:
            self._cache = (LRUQueryCache(cache_size)
                           if cache_size > 0 else None)
        if document is not None:
            corpus: list[list[str]] = []
            fitted: dict[int, tuple[str, list[str]]] = {}
            for i, sentence in enumerate(document.iter_sentences()):
                terms = self._terms_of(i, sentence.text)
                corpus.append(terms)
                fitted[i] = (sentence.text, terms)
            sentence_terms = self._reused_terms(self.sentences, fitted)
        else:
            sentence_terms = [
                self._terms_of(s.index, s.text) for s in self.sentences]
            corpus = sentence_terms
        tfidf = TfidfModel(corpus)
        base = SegmentedIndex(tfidf, (), threshold=threshold)
        self._index = base.with_sealed(sentence_terms, tfidf)
        self._sentence_terms = [
            frozenset(terms) for terms in sentence_terms]
        self.fit_docs = len(corpus)
        self.stale_docs = 0

    @classmethod
    def restore(
        cls,
        advising_sentences: Sequence[Sentence],
        index: SegmentedIndex,
        sentence_terms: Sequence[frozenset[str]],
        *,
        annotations: DocumentAnnotations | None = None,
        prune: bool = True,
        cache_size: int = DEFAULT_QUERY_CACHE_SIZE,
        epoch: int = 0,
        fit_docs: int = 0,
        stale_docs: int = 0,
    ) -> "KnowledgeRecommender":
        """Rehydrate a recommender around a prebuilt *index*.

        The sidecar load path (``core/binindex.py``) arrives here with
        the segmented index and the per-sentence term sets already
        reconstructed — memmap-backed and lazy — so no tokenization,
        fitting, or sealing happens.
        """
        self = cls.__new__(cls)
        self.sentences = list(advising_sentences)
        self.threshold = index.threshold
        self.annotations = annotations
        self.prune = prune
        self.epoch = epoch
        self._normalizer = NormalizationPipeline()
        self._cache = (LRUQueryCache(cache_size)
                       if cache_size > 0 else None)
        self._index = index
        self._sentence_terms = sentence_terms
        self.fit_docs = fit_docs
        self.stale_docs = stale_docs
        return self

    def _terms_of(self, index: int, text: str) -> list[str]:
        """Terms of the sentence at global *index*: its annotated
        terms; else its annotated tokens, normalized (a
        pre-filter-skipped sentence carries tokens only, yet counts as
        an IDF document); else *text* normalized from scratch.

        Normalizing the tokens equals normalizing the text because the
        record's tokens come from the default tokenizer (the contract
        :class:`~repro.pipeline.stages.TermsStage` states).  The terms
        are not written back: the record keeps only what Stage I
        materialized.
        """
        annotations = self.annotations
        if annotations is not None and 0 <= index < len(annotations):
            record = annotations[index]
            if record.terms is not None:
                return record.terms
            if record.tokens is not None:
                return self._normalizer.normalize_tokens(record.tokens)
        return self._normalizer(text)

    def _reused_terms(
        self, sentences: Sequence[Sentence],
        fitted: dict[int, tuple[str, list[str]]],
    ) -> list[list[str]]:
        """Terms of each advising sentence, reusing the fit corpus's
        list for the corpus sentence at the same index when its text is
        the same (``_terms_of`` depends on nothing else), so a sentence
        that is both an IDF document and an advising row is normalized
        once."""
        out: list[list[str]] = []
        for sentence in sentences:
            known = fitted.get(sentence.index)
            if known is not None and known[0] == sentence.text:
                out.append(known[1])
            else:
                out.append(self._terms_of(sentence.index, sentence.text))
        return out

    # -- segmented growth ---------------------------------------------

    @property
    def index(self) -> SegmentedIndex:
        """The segmented index serving this recommender."""
        return self._index

    @property
    def cache(self) -> LRUQueryCache | None:
        """The shared query cache (``None`` when caching is off)."""
        return self._cache

    def extended(
        self,
        new_sentences: Sequence[Sentence],
        corpus_sentences: Sequence[Sentence],
        annotations: DocumentAnnotations | None = None,
    ) -> "KnowledgeRecommender":
        """A new recommender with *new_sentences* sealed as one more
        segment.

        *corpus_sentences* are **all** sentences of the newly ingested
        document (§A.6: IDF statistics come from whole documents) —
        they grow the TF-IDF model append-only before the segment is
        sealed, so every new sentence's vocabulary is indexed and
        immediately queryable.  The receiver is left untouched: its
        published index keeps serving mid-swap.  The query cache and
        normalizer are shared; warm entries stay valid and are
        repaired lazily (see the module docstring).
        """
        clone = KnowledgeRecommender.__new__(KnowledgeRecommender)
        clone.threshold = self.threshold
        clone.prune = self.prune
        clone.epoch = self.epoch
        clone.annotations = (annotations if annotations is not None
                             else self.annotations)
        clone._normalizer = self._normalizer
        clone._cache = self._cache
        clone.sentences = self.sentences + list(new_sentences)
        corpus_terms = [
            clone._terms_of(s.index, s.text) for s in corpus_sentences]
        new_terms = clone._reused_terms(new_sentences, {
            s.index: (s.text, terms)
            for s, terms in zip(corpus_sentences, corpus_terms)})
        grown = grow_tfidf(self._index.tfidf, corpus_terms)
        clone._index = self._index.with_sealed(new_terms, grown)
        clone._sentence_terms = self._sentence_terms + [
            frozenset(terms) for terms in new_terms]
        clone.fit_docs = self.fit_docs
        clone.stale_docs = self.stale_docs + len(corpus_terms)
        return clone

    def with_merged(self, start: int, stop: int) -> "KnowledgeRecommender":
        """A new recommender whose physical segments ``[start:stop)``
        are merged into one — structural, bit-identical scores, warm
        cache untouched (row ids and weights are unchanged)."""
        clone = KnowledgeRecommender.__new__(KnowledgeRecommender)
        clone.threshold = self.threshold
        clone.prune = self.prune
        clone.epoch = self.epoch
        clone.annotations = self.annotations
        clone._normalizer = self._normalizer
        clone._cache = self._cache
        clone.sentences = self.sentences
        clone._sentence_terms = self._sentence_terms
        clone._index = self._index.merged(start, stop)
        clone.fit_docs = self.fit_docs
        clone.stale_docs = self.stale_docs
        return clone

    # -- serving -------------------------------------------------------

    def recommend(
        self, query: str, threshold: float | None = None,
        limit: int | None = None,
    ) -> list[Recommendation]:
        """Advising sentences relevant to *query*, best first.

        An empty list means "No relevant sentences found" (§4.1).
        ``limit`` caps the answer to the top-k recommendations.
        """
        fault_point("recommend")
        cutoff = self.threshold if threshold is None else threshold
        query_terms = tuple(self._normalizer(query))
        key = (query_terms, cutoff, limit)
        total = len(self._index)
        n_terms = len(self._index.tfidf.dictionary)
        rows: tuple | None = None
        store = self._cache is not None
        entry = self._cache.get(key) if self._cache is not None else None
        if entry is not None:
            epoch, covered, vocab_width, cached_rows = entry
            if epoch != self.epoch or covered > total:
                # another weight epoch, or an entry written by a newer
                # recommender sharing this cache — unusable here; drop
                # it and recompute (the current lineage will re-put)
                self._cache.reject(key)
            elif self._query_outgrew(query_terms, vocab_width):
                # a query term entered the vocabulary after this entry
                # was cached: the query vector itself changed, so the
                # cached scores are for a different query — targeted
                # per-entry invalidation, not a flush
                self._cache.reject(key, segment=True)
            elif covered == total:
                rows = cached_rows
                store = False
            else:
                rows = self._repair(cached_rows, covered, query_terms,
                                    cutoff, limit)
                self._cache.count_repair()
        if rows is None:
            rows = self._compute(query_terms, cutoff, limit)
        if store and self._cache is not None:
            self._cache.put(key, (self.epoch, total, n_terms, rows))
        return [
            Recommendation(self.sentences[index], score, matched)
            for index, score, matched in rows
        ]

    def _query_outgrew(
        self, query_terms: tuple[str, ...], vocab_width: int
    ) -> bool:
        """Whether any query term was assigned a dictionary id at or
        beyond *vocab_width* (i.e. after the cache entry was stored)."""
        token2id = self._index.tfidf.dictionary.token2id
        for term in query_terms:
            token_id = token2id.get(term)
            if token_id is not None and token_id >= vocab_width:
                return True
        return False

    def _compute(
        self, query_terms: tuple[str, ...], cutoff: float,
        limit: int | None,
    ) -> tuple:
        query_set = frozenset(query_terms)
        return tuple(
            (index, score,
             tuple(sorted(query_set & self._sentence_terms[index])))
            for index, score in self._index.query_tokens(
                list(query_terms), cutoff, limit=limit,
                prune=self.prune)
        )

    def _repair(
        self,
        cached_rows: tuple,
        covered: int,
        query_terms: tuple[str, ...],
        cutoff: float,
        limit: int | None,
    ) -> tuple:
        """Merge a warm entry with scores over the rows sealed after it
        was cached.

        Exact: the cached rows are the reference result over rows
        ``[0, covered)`` and the tail rows are scored by the very same
        kernels, so ``select_top_k`` over their union reproduces the
        full recompute bit for bit (tie order is preserved because
        cached rows — all with ids below ``covered`` — precede tail
        rows in the stable sort's input).
        """
        tokens = list(query_terms)
        if self.prune and cutoff > 0.0:
            tail_rows, tail_scores = self._index.candidate_similarities(
                tokens, start_row=covered)
        else:
            dense = self._index.similarities(tokens)
            tail_rows = np.arange(covered, dense.size, dtype=np.intp)
            tail_scores = dense[covered:]
        cached_indices = np.fromiter(
            (row[0] for row in cached_rows), dtype=np.intp,
            count=len(cached_rows))
        cached_scores = np.fromiter(
            (row[1] for row in cached_rows), dtype=np.float64,
            count=len(cached_rows))
        merged = select_top_k(
            np.concatenate((cached_indices, tail_rows)),
            np.concatenate((cached_scores, tail_scores)),
            cutoff, limit)
        matched_by_row = {row[0]: row[2] for row in cached_rows}
        query_set = frozenset(query_terms)
        result = []
        for index, score in merged:
            matched = matched_by_row.get(index)
            if matched is None:
                matched = tuple(
                    sorted(query_set & self._sentence_terms[index]))
            result.append((index, score, matched))
        return tuple(result)

    # -- cache management ---------------------------------------------

    def clear_cache(self) -> None:
        """Drop every memoized query result (counters survive)."""
        if self._cache is not None:
            self._cache.clear()

    def cache_stats(self) -> dict | None:
        """Query-cache counters, or ``None`` when caching is off."""
        return None if self._cache is None else self._cache.stats()
