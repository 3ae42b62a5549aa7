"""Latent semantic indexing (truncated-SVD retrieval).

Gensim — the library the paper built Stage II on — ships LSI alongside
TF-IDF; this module provides it as a retrieval ablation: the TF-IDF
sentence matrix is factored with a truncated SVD and queries are
folded into the latent space, where cosine similarity captures
term co-occurrence ("latency" ~ "stall") that plain TF-IDF misses.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.retrieval.tfidf import TfidfModel
from repro.textproc.normalize import NormalizationPipeline


class LsiModel:
    """Truncated-SVD latent space over a sentence collection."""

    def __init__(
        self,
        sentences: Sequence[str],
        num_topics: int = 64,
        normalizer: Callable[[str], list[str]] | None = None,
    ) -> None:
        self.sentences = list(sentences)
        self.normalizer = normalizer or NormalizationPipeline()
        docs = [self.normalizer(s) for s in self.sentences]
        self.tfidf = TfidfModel(docs)

        n_terms = len(self.tfidf.dictionary)
        rows, cols, data = [], [], []
        for i, tokens in enumerate(docs):
            for token_id, weight in self.tfidf.transform(tokens):
                rows.append(i)
                cols.append(token_id)
                data.append(weight)
        matrix = sp.csr_matrix(
            (data, (rows, cols)), shape=(len(docs), n_terms))

        from scipy.sparse.linalg import svds

        k = min(num_topics, min(matrix.shape) - 1)
        k = max(k, 1)
        # docs x terms = U S V^T;  doc vectors = U*S, term map = V
        u, s, vt = svds(matrix.asfptype(), k=k)
        order = np.argsort(-s)
        self.singular_values = s[order]
        self._term_map = vt[order].T          # terms x k
        doc_vectors = u[:, order] * self.singular_values
        norms = np.linalg.norm(doc_vectors, axis=1)
        norms[norms == 0.0] = 1.0
        self._doc_vectors = doc_vectors / norms[:, None]

    @property
    def num_topics(self) -> int:
        return self._term_map.shape[1]

    def fold_in(self, text: str) -> np.ndarray:
        """Project *text* into the latent space (L2-normalized)."""
        dense = self.tfidf.transform_dense(self.normalizer(text))
        vector = dense @ self._term_map
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0 else vector

    def similarities(self, text: str) -> np.ndarray:
        """Latent-space cosine similarity against every sentence."""
        return self._doc_vectors @ self.fold_in(text)

    def query(
        self, text: str, threshold: float = 0.15
    ) -> list[tuple[int, float]]:
        """Thresholded retrieval, best first (VSM-compatible API)."""
        scores = self.similarities(text)
        hits = np.flatnonzero(scores >= threshold)
        order = hits[np.argsort(-scores[hits], kind="stable")]
        return [(int(i), float(scores[i])) for i in order]
