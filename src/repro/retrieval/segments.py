"""Immutable index segments — the Lucene-style Stage II write path.

The monolithic :class:`~repro.retrieval.vsm.VectorSpaceModel` rebuilds
its whole TF-IDF matrix whenever the corpus grows, which stalls the
serving path for seconds at production corpus sizes.  This module
splits the index into **immutable segments**: each segment owns its own
L2-normalized CSR matrix, postings (a :class:`PostingsScorer`), and
``doc_base`` — the global row id of its first sentence.  Ingestion
seals a small new segment instead of rebuilding the world; background
compaction merges adjacent segments back into bigger ones.

Three invariants make the segmented index *bit-identical* to a
monolithic build under the same TF-IDF model:

1. **Row independence.**  SciPy's CSR matvec computes each output row
   from that row's stored ``(column, value)`` pairs alone, so scoring a
   segment's matrix against ``unit[:segment.n_terms]`` executes, per
   row, the exact instruction sequence the monolithic matrix would —
   a row never has stored columns beyond its seal-time width.
2. **Append-only vocabulary with frozen IDF.**  :func:`grow_tfidf`
   extends a fitted model with new documents: new tokens get fresh ids
   (first-seen order, exactly like refitting on the concatenation) and
   a fresh IDF computed at growth time, while every existing token id
   keeps the IDF it was created with.  A sealed row's weights therefore
   never change as the model grows — old segments stay valid under the
   newest model, and the query vector restricted to an old segment's
   columns carries the same bits it did at seal time.
3. **Structural merges.**  :meth:`SegmentedIndex.merged` concatenates
   member matrices (widths equalized by shape metadata only — no value
   is touched), so compaction changes the segment layout but not one
   score bit.

Weights diverge from a true from-scratch refit only in the IDF of
*old* terms whose document frequency kept growing; a periodic **refit
compaction** (rebuilding the recommender from scratch, off the request
path) restores exact equality with a cold build and bumps the weight
epoch.  See DESIGN.md §12 for the lifecycle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.retrieval.dictionary import Dictionary
from repro.retrieval.tfidf import TfidfModel
from repro.retrieval.topk import (DENSE_CUTOVER_ROWS, PostingsScorer,
                                  select_top_k)

#: rows per freshly sealed segment the compaction policy aims for;
#: segments at or under this size sit in tier 0 of the merge policy
DEFAULT_SEGMENT_TARGET_SIZE = 256

#: tiered merge fan-in: a run of this many adjacent same-tier segments
#: is merged into one (Lucene's mergeFactor)
DEFAULT_COMPACTION_RATIO = 4

_EMPTY_ROWS = np.empty(0, dtype=np.intp)
_EMPTY_SCORES = np.empty(0, dtype=np.float64)


def grow_tfidf(model: TfidfModel,
               documents: Sequence[list[str]]) -> TfidfModel:
    """A new :class:`TfidfModel` extending *model* with *documents*.

    The returned model's dictionary assigns ids exactly as refitting on
    the concatenated corpus would (append-only, first-seen order), but
    the IDF of every pre-existing token id is **frozen** at the value
    *model* carries; only tokens first seen in *documents* get an IDF,
    computed from the grown document count.  *model* itself is never
    mutated — published indexes built on it keep serving mid-growth.
    """
    dictionary = Dictionary()
    dictionary.token2id = dict(model.dictionary.token2id)
    dictionary.id2token = dict(model.dictionary.id2token)
    dictionary.dfs = dict(model.dictionary.dfs)
    dictionary.num_docs = model.dictionary.num_docs
    old_n_terms = len(dictionary)
    dictionary.add_documents(documents)
    grown = TfidfModel.__new__(TfidfModel)
    grown.dictionary = dictionary
    grown.smooth = model.smooth
    grown.num_docs = dictionary.num_docs
    idf = np.zeros(len(dictionary), dtype=np.float64)
    idf[:old_n_terms] = model.idf
    for token_id in range(old_n_terms, len(dictionary)):
        df = dictionary.dfs.get(token_id, 0)
        if df == 0:
            continue
        if grown.smooth:
            idf[token_id] = math.log(
                (1 + grown.num_docs) / (1 + df)) + 1.0
        else:
            idf[token_id] = math.log(grown.num_docs / df)
    grown._idf = idf
    return grown


class IndexSegment:  # egeria: frozen
    """One immutable slab of the index.

    Owns an L2-row-normalized CSR matrix over the segment's sentences,
    the postings-driven scorer built from it, and ``doc_base`` — the
    global row id its local row 0 maps to.  Never mutated after
    construction; growth and compaction always build *new* segments.
    The promise is enforced twice: statically by the
    frozen-state-mutation lint rule, and at runtime by the
    :meth:`__setattr__` seal below.
    """

    __slots__ = ("doc_base", "matrix", "scorer", "_sealed")

    def __init__(self, doc_base: int, matrix: sp.csr_matrix,
                 scorer: PostingsScorer | None = None) -> None:
        self.doc_base = doc_base
        self.matrix = matrix
        self.scorer = scorer if scorer is not None else \
            PostingsScorer(matrix)
        self._sealed = True

    def __setattr__(self, name: str, value) -> None:
        if getattr(self, "_sealed", False):
            raise AttributeError(
                f"IndexSegment is sealed; cannot assign {name!r} — "
                f"build a new segment instead")
        object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        """Number of sentences (rows) in this segment."""
        return self.matrix.shape[0]

    @property
    def n_terms(self) -> int:
        """Vocabulary width the segment was sealed under."""
        return self.matrix.shape[1]

    @classmethod
    def seal(cls, term_lists: Sequence[list[str]], tfidf: TfidfModel,
             doc_base: int) -> "IndexSegment":
        """Build a segment over *term_lists* weighted by *tfidf*."""
        from repro.retrieval.vsm import VectorSpaceModel

        vsm = VectorSpaceModel(list(term_lists), tfidf=tfidf)
        return cls(doc_base, vsm.matrix, vsm.scorer)

    def widened(self, n_terms: int) -> sp.csr_matrix:
        """This segment's matrix re-shaped to *n_terms* columns.

        Shape metadata only — the data/indices/indptr arrays are the
        very same objects, so the widened view is value-identical.
        """
        if n_terms == self.n_terms:
            return self.matrix
        if n_terms < self.n_terms:
            raise ValueError(
                f"cannot narrow a segment from {self.n_terms} to "
                f"{n_terms} terms")
        return sp.csr_matrix(
            (self.matrix.data, self.matrix.indices, self.matrix.indptr),
            shape=(self.size, n_terms))


class SegmentedIndex:  # egeria: frozen
    """Merged top-k retrieval across immutable segments.

    Serves the same contract as the monolithic
    :class:`~repro.retrieval.vsm.SentenceRetriever` query path —
    pruned candidate scoring with exact top-k selection, or the dense
    reference matvec — with every score bit-identical to a monolithic
    matrix built from the same rows under the same ``tfidf`` model
    (see the module docstring for the proof obligations).

    The object is immutable: :meth:`with_sealed` and :meth:`merged`
    return new indexes sharing the untouched segments, so a published
    index keeps serving while its successor is assembled.
    """

    __slots__ = ("tfidf", "segments", "threshold")

    def __init__(self, tfidf: TfidfModel,
                 segments: Sequence[IndexSegment] = (),
                 threshold: float = 0.15) -> None:
        self.tfidf = tfidf
        self.segments = tuple(segments)
        self.threshold = threshold
        base = 0
        for segment in self.segments:
            if segment.doc_base != base:
                raise ValueError(
                    f"segment doc_base {segment.doc_base} does not "
                    f"continue the row space at {base}")
            base += segment.size

    def __len__(self) -> int:
        return sum(segment.size for segment in self.segments)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def segment_sizes(self) -> tuple[int, ...]:
        return tuple(segment.size for segment in self.segments)

    # -- growth / compaction ----------------------------------------------

    def with_sealed(self, term_lists: Sequence[list[str]],
                    tfidf: TfidfModel) -> "SegmentedIndex":
        """A new index with *term_lists* sealed as one more segment.

        *tfidf* is the (grown) model the new rows are weighted under;
        it becomes the whole index's query model — valid for the old
        segments too, because growth froze their terms' IDF.  An empty
        *term_lists* still publishes the grown model (the batch added
        vocabulary but no advising rows).
        """
        if not term_lists:
            return SegmentedIndex(tfidf, self.segments, self.threshold)
        segment = IndexSegment.seal(term_lists, tfidf,
                                    doc_base=len(self))
        return SegmentedIndex(tfidf, self.segments + (segment,),
                              self.threshold)

    def merged(self, start: int, stop: int) -> "SegmentedIndex":
        """A new index with segments ``[start:stop)`` merged into one.

        Structural: member matrices are stacked with widths equalized
        by shape metadata only, so every stored value (and therefore
        every query score) is preserved bit for bit.  Only the merged
        segment's postings are rebuilt.
        """
        members = self.segments[start:stop]
        if len(members) <= 1:
            return self
        width = max(segment.n_terms for segment in members)
        matrix = sp.vstack(
            [segment.widened(width) for segment in members],
            format="csr")
        merged_segment = IndexSegment(members[0].doc_base, matrix)
        segments = (self.segments[:start] + (merged_segment,)
                    + self.segments[stop:])
        return SegmentedIndex(self.tfidf, segments, self.threshold)

    # -- scoring ------------------------------------------------------------

    def _unit_query(
        self, query_tokens: list[str]
    ) -> tuple[list[int], np.ndarray] | None:
        """Weighted token ids and the L2-normalized dense query vector
        under the index's (newest) model — built exactly as the
        monolithic reference path builds it."""
        pairs = self.tfidf.transform(query_tokens)
        if not pairs:
            return None
        vector = np.zeros(len(self.tfidf.dictionary), dtype=np.float64)
        for token_id, weight in pairs:
            vector[token_id] = weight
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            return None
        return [token_id for token_id, _ in pairs], vector / norm

    def similarities(self, query_tokens: list[str]) -> np.ndarray:
        """Dense cosine similarity over every indexed row (reference
        path): per-segment matvecs concatenated in row order."""
        vector = self.tfidf.transform_dense(query_tokens)
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            return np.zeros(len(self))
        unit = vector / norm
        if not self.segments:
            return np.zeros(0)
        return np.concatenate([
            segment.matrix @ unit[:segment.n_terms]
            for segment in self.segments
        ])

    def candidate_similarities(
        self, query_tokens: list[str], start_row: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, scores)`` over global rows ``>= start_row`` sharing
        at least one weighted query term.

        ``start_row`` lets the query-cache repair path score only the
        rows a cached entry has not covered yet; segments entirely
        below it are skipped without touching their postings.
        """
        unit = self._unit_query(query_tokens)
        if unit is None:
            return _EMPTY_ROWS, _EMPTY_SCORES
        token_ids, vector = unit
        row_chunks: list[np.ndarray] = []
        score_chunks: list[np.ndarray] = []
        for segment in self.segments:
            if segment.doc_base + segment.size <= start_row:
                continue
            rows, scores = segment.scorer.candidate_scores(
                token_ids, vector[:segment.n_terms])
            if rows.size == 0:
                continue
            rows = rows + segment.doc_base
            if segment.doc_base < start_row:
                keep = rows >= start_row
                rows, scores = rows[keep], scores[keep]
                if rows.size == 0:
                    continue
            row_chunks.append(rows)
            score_chunks.append(scores)
        if not row_chunks:
            return _EMPTY_ROWS, _EMPTY_SCORES
        return (np.concatenate(row_chunks),
                np.concatenate(score_chunks))

    def query_tokens(
        self,
        tokens: list[str],
        threshold: float | None = None,
        limit: int | None = None,
        prune: bool = True,
        min_prune_rows: int | None = None,
    ) -> list[tuple[int, float]]:
        """Thresholded ``(row, score)`` pairs, best first — the exact
        semantics of
        :meth:`~repro.retrieval.vsm.SentenceRetriever.query_tokens`
        over the merged row space.  Below the adaptive cutover the
        dense reference path answers even prune-enabled queries (same
        results either way; see ``DENSE_CUTOVER_ROWS``);
        ``min_prune_rows=0`` forces the pruned kernel."""
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        cutoff = self.threshold if threshold is None else threshold
        floor = (DENSE_CUTOVER_ROWS if min_prune_rows is None
                 else min_prune_rows)
        if prune and cutoff > 0.0 and len(self) >= floor:
            rows, scores = self.candidate_similarities(tokens)
            return select_top_k(rows, scores, cutoff, limit)
        scores = self.similarities(tokens)
        hits = np.flatnonzero(scores >= cutoff)
        order = hits[np.argsort(-scores[hits], kind="stable")]
        if limit is not None:
            order = order[:limit]
        return [(int(i), float(scores[i])) for i in order]


def segment_tier(size: int, target_size: int, ratio: int) -> int:
    """Merge-policy tier of a segment of *size* rows: tier 0 holds
    fresh segments up to *target_size*; each higher tier covers another
    *ratio*-fold size range."""
    if size <= target_size:
        return 0
    tier = 1
    scaled = size / target_size
    while scaled > ratio:
        scaled /= ratio
        tier += 1
    return tier


def plan_compaction(
    sizes: Sequence[int],
    target_size: int = DEFAULT_SEGMENT_TARGET_SIZE,
    ratio: int = DEFAULT_COMPACTION_RATIO,
) -> tuple[int, int] | None:
    """The next merge under the tiered policy, or ``None`` when the
    layout is already compact.

    Returns ``(start, stop)`` — the earliest run of *ratio* adjacent
    segments sharing a tier.  Merging that run produces one segment of
    a higher tier, so repeated application cascades Lucene-style:
    many small flushes roll up into a few large segments.
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    if ratio < 2:
        raise ValueError("ratio must be >= 2")
    run_start = 0
    run_tier = -1
    run_length = 0
    for position, size in enumerate(sizes):
        tier = segment_tier(size, target_size, ratio)
        if tier != run_tier:
            run_start, run_tier, run_length = position, tier, 1
        else:
            run_length += 1
        if run_length >= ratio:
            return run_start, run_start + ratio
    return None
