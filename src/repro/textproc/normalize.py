"""Token normalization pipeline for retrieval.

Stage II (knowledge recommendation) vectorizes sentences after a
normalization pass: lowercase, tokenize, drop punctuation/stopwords,
stem.  The pipeline is composable so experiments can ablate individual
steps (e.g. the paper's observation that dropping stemming from the
keywords baseline lowers recall, §4.2).

The per-token chain (punct/stopword drop, lowercase, stem, length
floor) is a pure function of the raw token, so each pipeline memoizes
it: a guide's hundreds of thousands of tokens are a few thousand
distinct strings, and every repeat is one dict lookup.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.textproc.porter import PorterStemmer
from repro.textproc.stopwords import is_stopword
from repro.textproc.word_tokenizer import WordTokenizer

_PUNCT = set(".,;:!?()[]{}\"'`%/+*=<>&|~^$@-") | {"..."}

#: distinct raw tokens a pipeline remembers; past this the memo stops
#: inserting (like :class:`PorterStemmer`'s cache) and new tokens run
#: the chain every time
MEMO_SIZE = 100_000

#: memo marker for "not seen yet" (``None`` marks a dropped token)
_UNSEEN = object()


def _is_punct(token: str) -> bool:
    return all(ch in _PUNCT or ch in ".,;:!?()[]{}\"'`%/+*=<>&|~^$@-"
               for ch in token) if token else True


class NormalizationPipeline:
    """Configurable text -> token-stream normalizer.

    Parameters
    ----------
    lowercase, drop_punct, drop_stopwords, stem:
        Toggles for each normalization step, all on by default.
    min_length:
        Tokens shorter than this (after normalization) are dropped.
    """

    def __init__(
        self,
        lowercase: bool = True,
        drop_punct: bool = True,
        drop_stopwords: bool = True,
        stem: bool = True,
        min_length: int = 1,
    ) -> None:
        self.lowercase = lowercase
        self.drop_punct = drop_punct
        self.drop_stopwords = drop_stopwords
        self.stem = stem
        self.min_length = min_length
        self._tokenizer = WordTokenizer()
        self._stemmer = PorterStemmer()
        self._memo: dict[str, str | None] = {}

    def __call__(self, text: str) -> list[str]:
        return self.normalize(text)

    def normalize(self, text: str) -> list[str]:
        """Normalize raw *text* to a token list."""
        return self.normalize_tokens(self._tokenizer.tokenize(text))

    def normalize_tokens(self, tokens: Iterable[str]) -> list[str]:
        """Normalize an already-tokenized sequence."""
        memo = self._memo
        out: list[str] = []
        for token in tokens:
            term = memo.get(token, _UNSEEN)
            if term is _UNSEEN:
                term = self._term(token)
                if len(memo) < MEMO_SIZE:
                    memo[token] = term
            if term is not None:
                out.append(term)
        return out

    def terms_from_stems(self, tokens: Iterable[str],
                         stems: Iterable[str]) -> list[str]:
        """:meth:`normalize_tokens` of *tokens*, reusing their *stems*.

        Equal to ``normalize_tokens(tokens)`` when each stem is this
        pipeline's Porter stem of its token (the pipeline's stems
        layer): a memo miss takes the given stem instead of stemming
        again, and both methods read and fill the same token -> term
        memo.
        """
        memo = self._memo
        out: list[str] = []
        for token, stemmed in zip(tokens, stems):
            term = memo.get(token, _UNSEEN)
            if term is _UNSEEN:
                term = self._term(token, stemmed)
                if len(memo) < MEMO_SIZE:
                    memo[token] = term
            if term is not None:
                out.append(term)
        return out

    def _term(self, token: str, stemmed: str | None = None) -> str | None:
        """The un-memoized chain for one raw *token*: its term, or
        ``None`` when a step drops it.  A given *stemmed* stands in for
        the stemming step."""
        if self.drop_punct and _is_punct(token):
            return None
        if self.drop_stopwords and is_stopword(token):
            return None
        if self.lowercase:
            token = token.lower()
        if self.stem:
            token = self._stemmer.stem(token) if stemmed is None else stemmed
        if len(token) < self.min_length:
            return None
        return token


_DEFAULT = NormalizationPipeline()


def normalize_tokens(text: str) -> list[str]:
    """Normalize *text* with the default pipeline (all steps on)."""
    return _DEFAULT.normalize(text)
