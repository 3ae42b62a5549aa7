"""TF-IDF weighting exactly as paper Eq. 1 defines it.

For a sentence *s* the weight of term *t* is::

    w(t, s) = tf(t, s) * log(|S| / |{s' in S : t in s'}|)

where ``|S|`` is the number of sentences the model was fitted on.
Terms never seen at fit time get zero weight.  The logarithm base only
rescales whole vectors and cancels in cosine similarity; natural log
is used.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.retrieval.dictionary import Dictionary


class TfidfModel:
    """Fit IDF statistics on a corpus; transform token lists to vectors.

    Parameters
    ----------
    documents:
        The corpus (token lists) to fit on.  Per paper §A.6, this can
        be a *larger* corpus (the whole document) than the sentence
        set later queried (the advising summary) for more accurate
        weights.
    dictionary:
        Optionally reuse an existing :class:`Dictionary`; by default
        one is built from *documents*.
    smooth:
        If true, use ``log((1 + |S|) / (1 + df)) + 1`` (scikit-style
        smoothing) instead of the paper's raw formula.  Off by
        default — the paper formula gives weight 0 to terms appearing
        in every sentence, which is the intended stopword-like effect.
    """

    def __init__(
        self,
        documents: Iterable[list[str]],
        dictionary: Dictionary | None = None,
        smooth: bool = False,
    ) -> None:
        docs = list(documents)
        self.dictionary = dictionary if dictionary is not None else Dictionary(docs)
        self.smooth = smooth
        if dictionary is not None:
            # register DFs of documents against the provided dictionary
            self.dictionary.add_documents(docs)
        self.num_docs = self.dictionary.num_docs
        self._idf = self._compute_idf()

    @classmethod
    def from_annotations(cls, annotations, dictionary=None,
                         smooth: bool = False) -> "TfidfModel":
        """Fit on a :class:`~repro.pipeline.annotations.DocumentAnnotations`
        artifact's pre-normalized term lists — no re-tokenization.

        Sentences whose terms layer is missing contribute an empty
        document (they carry no weight, matching how a degraded
        sentence scores in the annotation-fed retriever).
        """
        documents = [ann.terms if ann.terms is not None else []
                     for ann in annotations]
        return cls(documents, dictionary=dictionary, smooth=smooth)

    def _compute_idf(self) -> np.ndarray:
        n_terms = len(self.dictionary)
        idf = np.zeros(n_terms, dtype=np.float64)
        for token_id in range(n_terms):
            df = self.dictionary.dfs.get(token_id, 0)
            if df == 0:
                continue
            if self.smooth:
                idf[token_id] = math.log((1 + self.num_docs) / (1 + df)) + 1.0
            else:
                idf[token_id] = math.log(self.num_docs / df)
        return idf

    @property
    def idf(self) -> np.ndarray:
        """IDF weight per token id (read-only view)."""
        return self._idf

    def idf_of(self, token: str) -> float:
        """IDF of a single *token* (0.0 if unseen)."""
        token_id = self.dictionary.token2id.get(token)
        return 0.0 if token_id is None else float(self._idf[token_id])

    def transform(self, tokens: list[str]) -> list[tuple[int, float]]:
        """Sparse TF-IDF vector ``(token_id, weight)`` for *tokens*."""
        bow = self.dictionary.doc2bow(tokens)
        vector = [
            (token_id, count * float(self._idf[token_id]))
            for token_id, count in bow
            if self._idf[token_id] != 0.0
        ]
        return vector

    def transform_dense(self, tokens: list[str]) -> np.ndarray:
        """Dense TF-IDF vector for *tokens*."""
        dense = np.zeros(len(self.dictionary), dtype=np.float64)
        for token_id, weight in self.transform(tokens):
            dense[token_id] = weight
        return dense
