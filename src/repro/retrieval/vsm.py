"""Vector space model with cosine similarity (paper Eq. 2).

:class:`VectorSpaceModel` holds an L2-normalized sparse TF-IDF matrix
over a sentence collection; a query is vectorized the same way and
similarities reduce to one sparse matrix-vector product — the
vectorized formulation the hpc-parallel guides prescribe for the hot
path (scoring every sentence against every query).

Two query paths share the matrix:

* the **dense reference path** (:meth:`VectorSpaceModel.similarities`)
  scores every sentence with one CSR matvec;
* the **pruned fast path** (:meth:`VectorSpaceModel.candidate_similarities`)
  scores only sentences sharing >= 1 weighted query term via the
  postings-driven :class:`~repro.retrieval.topk.PostingsScorer` —
  bit-identical results for any positive threshold (the pruning proof
  lives in :mod:`repro.retrieval.topk`).

:class:`SentenceRetriever` is the user-facing wrapper that owns the
normalization pipeline and implements the paper's thresholded
retrieval (sentences with similarity >= 0.15 are recommended, §3.2),
with optional top-k truncation (``limit=``) using partial selection
instead of a full sort.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.retrieval.tfidf import TfidfModel
from repro.retrieval.topk import (DENSE_CUTOVER_ROWS, PostingsScorer,
                                  select_top_k)
from repro.textproc.normalize import NormalizationPipeline

#: The paper's default similarity threshold (§3.2 / §A.6).
DEFAULT_THRESHOLD = 0.15

_EMPTY_ROWS = np.empty(0, dtype=np.intp)
_EMPTY_SCORES = np.empty(0, dtype=np.float64)


class VectorSpaceModel:
    """Sparse TF-IDF sentence matrix with cosine scoring."""

    def __init__(
        self,
        sentences_tokens: Sequence[list[str]],
        tfidf: TfidfModel | None = None,
        fit_corpus: Iterable[list[str]] | None = None,
    ) -> None:
        """Index *sentences_tokens*.

        ``fit_corpus`` optionally supplies a larger corpus for IDF
        fitting (paper §A.6: vocabulary from the summary, weights from
        the whole document); defaults to the indexed sentences.
        """
        corpus = list(fit_corpus) if fit_corpus is not None else list(
            sentences_tokens)
        self.tfidf = tfidf if tfidf is not None else TfidfModel(corpus)
        self._matrix = self._build_matrix(sentences_tokens)
        # inverted term -> row postings, built once at index time
        self._scorer = PostingsScorer(self._matrix)

    def _build_matrix(
        self, sentences_tokens: Sequence[list[str]]
    ) -> sp.csr_matrix:
        import scipy.sparse.linalg as spla

        n_rows = len(sentences_tokens)
        n_terms = len(self.tfidf.dictionary)
        idf = self.tfidf.idf
        # one flat pass maps every token to its id (-1: unknown)
        lengths = np.fromiter(map(len, sentences_tokens), dtype=np.intp,
                              count=n_rows)
        ids = np.fromiter(
            map(self.tfidf.dictionary.token2id.get,
                itertools.chain.from_iterable(sentences_tokens),
                itertools.repeat(-1)),
            dtype=np.intp, count=int(lengths.sum()))
        rows = np.repeat(np.arange(n_rows, dtype=np.intp), lengths)
        known = ids >= 0
        # (row, id) pairs counted as integers; the unique keys come out
        # sorted by row, then id — each row in doc2bow order
        keys, counts = np.unique(rows[known] * n_terms + ids[known],
                                 return_counts=True)
        rows, cols = np.divmod(keys, max(n_terms, 1))
        # count * idf, exactly TfidfModel.transform's weight; zero-IDF
        # terms carry no entry
        weights = idf[cols]
        weighted = weights != 0.0
        rows = rows[weighted]
        cols = cols[weighted]
        data = counts[weighted] * weights[weighted]
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        matrix = sp.csr_matrix(
            (data, cols, indptr),
            shape=(n_rows, n_terms),
            dtype=np.float64,
        )
        # L2-normalize rows once so cosine is a plain dot product;
        # sparse-native norm avoids the matrix.multiply(matrix) temporary
        norms = np.asarray(spla.norm(matrix, axis=1)).ravel()
        norms[norms == 0.0] = 1.0
        inv = sp.diags(1.0 / norms)
        return (inv @ matrix).tocsr()

    def __len__(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> sp.csr_matrix:
        """The L2-row-normalized TF-IDF matrix (treat as immutable)."""
        return self._matrix

    @property
    def scorer(self) -> PostingsScorer:
        """The postings-driven candidate scorer built over the matrix."""
        return self._scorer

    def _unit_query(
        self, query_tokens: list[str]
    ) -> tuple[list[int], np.ndarray] | None:
        """``(token_ids, unit_vector)`` for the query, or ``None`` for
        a query with no indexed weight.

        The unit vector is built exactly as the reference path builds
        it (dense TF-IDF vector divided by its ``np.linalg.norm``), so
        every entry carries the dense path's bits.
        """
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
        """Cosine similarity of the query against every sentence."""
        vector = self.tfidf.transform_dense(query_tokens)
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            return np.zeros(self._matrix.shape[0])
        return self._matrix @ (vector / norm)

    def candidate_similarities(
        self, query_tokens: list[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, scores)`` for sentences sharing >= 1 query term.

        Every row absent from ``rows`` has dense similarity exactly
        0.0; every score is bit-identical to the dense path's value
        for that row.
        """
        unit = self._unit_query(query_tokens)
        if unit is None:
            return _EMPTY_ROWS, _EMPTY_SCORES
        token_ids, unit_vector = unit
        return self._scorer.candidate_scores(token_ids, unit_vector)


class SentenceRetriever:
    """Thresholded sentence retrieval over raw sentence strings."""

    def __init__(
        self,
        sentences: Sequence[str],
        normalizer: Callable[[str], list[str]] | None = None,
        fit_corpus: Sequence[str] | None = None,
        threshold: float = DEFAULT_THRESHOLD,
        sentence_terms: Sequence[list[str]] | None = None,
        fit_corpus_terms: Sequence[list[str]] | None = None,
    ) -> None:
        """Index *sentences*.

        ``sentence_terms`` / ``fit_corpus_terms`` optionally supply
        pre-normalized term lists (e.g. from a shared
        :class:`~repro.pipeline.annotations.DocumentAnnotations`
        artifact); when given, the corresponding texts are never
        re-tokenized — only queries still pass through the normalizer.
        """
        self.sentences = list(sentences)
        self.normalizer = normalizer or NormalizationPipeline()
        self.threshold = threshold
        if sentence_terms is not None:
            if len(sentence_terms) != len(self.sentences):
                raise ValueError(
                    f"sentence_terms length {len(sentence_terms)} does "
                    f"not match sentence count {len(self.sentences)}")
            tokens = [list(terms) for terms in sentence_terms]
        else:
            tokens = [self.normalizer(s) for s in self.sentences]
        if fit_corpus_terms is not None:
            corpus_tokens = [list(terms) for terms in fit_corpus_terms]
        elif fit_corpus is not None:
            corpus_tokens = [self.normalizer(s) for s in fit_corpus]
        else:
            corpus_tokens = None
        self.vsm = VectorSpaceModel(tokens, fit_corpus=corpus_tokens)

    def query(
        self,
        text: str,
        threshold: float | None = None,
        limit: int | None = None,
        prune: bool = True,
        min_prune_rows: int | None = None,
    ) -> list[tuple[int, float]]:
        """Indices and scores of sentences relevant to *text*.

        Returns ``(sentence_index, similarity)`` pairs with similarity
        >= threshold, best first.  An empty result means "no relevant
        sentences found" (paper §4.1).  ``limit`` caps the result to
        the top-k pairs (partial selection, never a full sort);
        ``prune=False`` forces the dense reference path.  Even with
        ``prune=True`` the dense path is taken below an adaptive
        corpus-size cutover (both paths return identical results —
        the small matrix just amortizes the per-query candidate setup
        away); ``min_prune_rows`` overrides the cutover, with ``0``
        forcing the pruned kernel regardless of size.
        """
        return self.query_tokens(self.normalizer(text), threshold,
                                 limit=limit, prune=prune,
                                 min_prune_rows=min_prune_rows)

    def query_tokens(
        self,
        tokens: list[str],
        threshold: float | None = None,
        limit: int | None = None,
        prune: bool = True,
        min_prune_rows: int | None = None,
    ) -> list[tuple[int, float]]:
        """Like :meth:`query` for an already-normalized token list.

        The recommender feeds its annotation-derived query terms here
        so the text is normalized exactly once per request.
        """
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        cutoff = self.threshold if threshold is None else threshold
        floor = (DENSE_CUTOVER_ROWS if min_prune_rows is None
                 else min_prune_rows)
        if prune and cutoff > 0.0 and len(self.vsm) >= floor:
            # sentences sharing no query term score exactly 0 < cutoff,
            # so scoring only the candidates is loss-free
            rows, scores = self.vsm.candidate_similarities(tokens)
            return select_top_k(rows, scores, cutoff, limit)
        scores = self.vsm.similarities(tokens)
        hits = np.flatnonzero(scores >= cutoff)
        order = hits[np.argsort(-scores[hits], kind="stable")]
        if limit is not None:
            order = order[:limit]
        return [(int(i), float(scores[i])) for i in order]

    def query_sentences(
        self, text: str, threshold: float | None = None,
        limit: int | None = None,
    ) -> list[str]:
        """Like :meth:`query` but returning the sentence strings."""
        return [self.sentences[i]
                for i, _ in self.query(text, threshold, limit=limit)]
