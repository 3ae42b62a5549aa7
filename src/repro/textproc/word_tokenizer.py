"""Treebank-style word tokenizer tuned for HPC programming guides.

Splits a sentence into word, punctuation and code tokens.  Ordinary
English is tokenized the way NLTK's ``TreebankWordTokenizer`` does
(contractions split, punctuation separated), while identifiers common
in vendor guides survive as single tokens:

* API calls — ``clWaitForEvents()``, ``cudaMemcpy()``
* dunder/underscore identifiers — ``__restrict__``, ``__syncthreads``
* compiler flags and directives — ``-maxrregcount``, ``#pragma``
* version/compute-capability literals — ``2.x``, ``3.0``, ``16-byte``
"""

from __future__ import annotations

import re

from repro.textproc.instrumentation import count_tokenize

# Token classes, ordered by priority.  The big alternation keeps code
# tokens intact before generic word/punctuation splitting applies.
_TOKEN_PATTERN = r"""
    (?P<code>
        [A-Za-z_][A-Za-z0-9_]*\(\)          # foo() style API mentions
      | __[A-Za-z0-9_]+(?:__)?              # __restrict__, __shared__
      | \#[A-Za-z]+                         # #pragma
      | -{1,2}[A-Za-z][A-Za-z0-9_-]*        # -O3, --use_fast_math
      | [A-Za-z]+(?:_[A-Za-z0-9]+)+         # snake_case identifiers
      | \d+(?:\.\d+)*\.x                    # 2.x, 3.x compute capability
      | \d+(?:\.\d+)+f?                     # 3.0, 3.141592653589793f
      | \d+-[A-Za-z]+                       # 16-byte, 32-bit
    )
  | (?P<word>
        [A-Za-z]+(?:[''][a-z]+)?            # words incl. apostrophes
      | \d+                                 # bare integers
    )
  | (?P<punct>
        \.\.\.|[.,;:!?()\[\]{}"''`%/+*=<>&|~^$@-]
    )
    """
_TOKEN_RE = re.compile(_TOKEN_PATTERN, re.VERBOSE)

# The same alternation without capturing groups: ``findall`` then
# returns the token strings themselves (grouping never changes what
# matches).
_PLAIN_TOKEN_RE = re.compile(
    re.sub(r"\(\?P<\w+>", "(?:", _TOKEN_PATTERN), re.VERBOSE)

# Contraction suffixes split off word tokens (Treebank behaviour).
_CONTRACTIONS = re.compile(
    r"(?i)^(.+?)(n't|'ll|'re|'ve|'s|'m|'d)$"
)


class WordTokenizer:
    """Tokenize a single sentence into tokens.

    >>> WordTokenizer().tokenize("Don't use clWaitForEvents() here.")
    ['Do', "n't", 'use', 'clWaitForEvents()', 'here', '.']
    """

    def tokenize(self, sentence: str) -> list[str]:
        count_tokenize()
        if "'" not in sentence:
            # every contraction suffix contains an apostrophe
            return _PLAIN_TOKEN_RE.findall(sentence)
        tokens: list[str] = []
        for match in _TOKEN_RE.finditer(sentence):
            text = match.group(0)
            if match.lastgroup == "word":
                split = _CONTRACTIONS.match(text)
                if split and split.group(1):
                    tokens.append(split.group(1))
                    tokens.append(split.group(2))
                    continue
            tokens.append(text)
        return tokens

    def span_tokenize(self, sentence: str) -> list[tuple[int, int]]:
        """Return (start, end) character offsets for each token."""
        spans: list[tuple[int, int]] = []
        for match in _TOKEN_RE.finditer(sentence):
            text = match.group(0)
            start = match.start()
            if match.lastgroup == "word":
                split = _CONTRACTIONS.match(text)
                if split and split.group(1):
                    cut = start + len(split.group(1))
                    spans.append((start, cut))
                    spans.append((cut, match.end()))
                    continue
            spans.append((start, match.end()))
        return spans


_DEFAULT = WordTokenizer()


def word_tokenize(sentence: str) -> list[str]:
    """Tokenize *sentence* with a shared :class:`WordTokenizer`."""
    return _DEFAULT.tokenize(sentence)
