"""Token dictionary: string tokens <-> integer ids (gensim-style).

The artifact description notes that "the vocabulary is constructed
based on the summary while the TF-IDF model is built on the whole
document" (paper §A.6); :class:`Dictionary` therefore supports being
built on one corpus and applied to another (unknown tokens are
dropped, as in gensim's ``doc2bow``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable


class Dictionary:
    """Bidirectional token <-> id mapping with document frequencies."""

    def __init__(self, documents: Iterable[list[str]] = ()) -> None:
        self.token2id: dict[str, int] = {}
        self.id2token: dict[int, str] = {}
        self.dfs: dict[int, int] = {}
        self.num_docs = 0
        self.add_documents(documents)

    def __len__(self) -> int:
        return len(self.token2id)

    def __contains__(self, token: str) -> bool:
        return token in self.token2id

    def add_document(self, tokens: list[str]) -> None:
        """Register *tokens* as one document (updates ids and DFs)."""
        self.add_documents((tokens,))

    def add_documents(self, documents: Iterable[list[str]]) -> None:
        """Register each of *documents* as one document, in order.

        New tokens get ids in first-seen order, so the ids (and every
        array indexed by them) never depend on the interpreter's string
        hash seed.
        """
        docs = list(documents)
        self.num_docs += len(docs)
        # per-document distinct tokens, counted in one C-level pass;
        # the counter keeps first-seen order across the whole corpus
        doc_freqs = Counter(itertools.chain.from_iterable(
            map(dict.fromkeys, docs)))
        for token, doc_freq in doc_freqs.items():
            token_id = self.token2id.get(token)
            if token_id is None:
                token_id = len(self.token2id)
                self.token2id[token] = token_id
                self.id2token[token_id] = token
            self.dfs[token_id] = self.dfs.get(token_id, 0) + doc_freq

    def doc2bow(self, tokens: list[str]) -> list[tuple[int, int]]:
        """Bag-of-words: sorted ``(token_id, count)``; unknowns dropped."""
        counts = Counter(
            self.token2id[t] for t in tokens if t in self.token2id)
        return sorted(counts.items())

    def doc_freq(self, token: str) -> int:
        """Number of documents containing *token* (0 if unknown)."""
        token_id = self.token2id.get(token)
        return 0 if token_id is None else self.dfs.get(token_id, 0)

    def filter_extremes(
        self, no_below: int = 1, no_above: float = 1.0
    ) -> None:
        """Drop tokens in fewer than *no_below* docs or more than
        ``no_above * num_docs`` docs, compacting ids."""
        threshold = no_above * self.num_docs
        keep = [
            (token, token_id)
            for token, token_id in self.token2id.items()
            if no_below <= self.dfs.get(token_id, 0) <= threshold
        ]
        old_dfs = self.dfs
        self.token2id = {}
        self.id2token = {}
        self.dfs = {}
        for token, old_id in sorted(keep, key=lambda kv: kv[1]):
            new_id = len(self.token2id)
            self.token2id[token] = new_id
            self.id2token[new_id] = token
            self.dfs[new_id] = old_dfs[old_id]
