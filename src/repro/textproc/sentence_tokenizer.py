"""Abbreviation-aware sentence segmentation (Punkt-style heuristics).

Vendor programming guides are full of period-bearing tokens that do
not end sentences: ``e.g.``, ``i.e.``, ``Fig.``, decimal numbers,
compute capabilities (``2.x``), version strings, API names, and
numbered section headings (``5.4.2.``).  The tokenizer treats a period
as a boundary only when the right context looks like a sentence start
and the left context is not a known abbreviation or numeric literal.
"""

from __future__ import annotations

import re

#: Tokens whose trailing period never ends a sentence.
ABBREVIATIONS: frozenset[str] = frozenset(
    {
        "e.g", "i.e", "etc", "cf", "vs", "al", "fig", "eq", "sec", "no",
        "dr", "mr", "mrs", "ms", "prof", "dept", "inc", "ltd", "co",
        "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept",
        "oct", "nov", "dec", "approx", "resp", "ver", "rev", "ch",
    }
)

_BOUNDARY_RE = re.compile(
    r"""
    (?P<end>[.!?])            # candidate terminator
    (?P<close>["')\]]*)       # optional closing quotes/brackets
    (?P<gap>\s+)              # whitespace gap
    (?=(?P<next>[A-Z0-9"'(\[`#]|__))   # plausible sentence start
    """,
    re.VERBOSE,
)

_NUMERIC_TAIL = re.compile(r"\d+(?:\.\d+)*$")
# Dotted section numbers ("5.4.2"); a bare integer is NOT a heading —
# "The warp size is 32." must still end a sentence.
_SECTION_HEAD = re.compile(r"^\d+(?:\.\d+)+\.?$")


class SentenceTokenizer:
    """Split running text into sentences.

    Extra abbreviations can be registered per instance, mirroring how
    a Punkt model can be extended with domain abbreviations:

    >>> tok = SentenceTokenizer(extra_abbreviations={"cuda"})
    """

    def __init__(self, extra_abbreviations: set[str] | None = None) -> None:
        self._abbrev = set(ABBREVIATIONS)
        if extra_abbreviations:
            self._abbrev |= {a.lower().rstrip(".") for a in extra_abbreviations}

    # -- public API ----------------------------------------------------

    def tokenize(self, text: str) -> list[str]:
        """Return the list of sentences in *text*."""
        text = " ".join(text.split())  # collapse all whitespace
        if not text:
            return []
        sentences: list[str] = []
        start = 0
        for match in _BOUNDARY_RE.finditer(text):
            if not self._is_boundary(text, match):
                continue
            end = match.end("close")
            sentence = text[start:end].strip()
            if sentence:
                sentences.append(sentence)
            start = match.end("gap")
        tail = text[start:].strip()
        if tail:
            sentences.append(tail)
        return sentences

    # -- heuristics -----------------------------------------------------

    def _is_boundary(self, text: str, match: re.Match[str]) -> bool:
        if match.group("end") in "!?":
            return True
        # the token left of the terminator: *text* is whitespace-
        # collapsed, so a backwards scan to the previous single space
        # finds it in time linear in the token (copying and splitting
        # the whole prefix made a long paragraph quadratic)
        stop = match.start("end")
        if stop and text[stop - 1] == " ":
            stop -= 1
        last_token = text[text.rfind(" ", 0, stop) + 1:stop]
        bare = last_token.lower().lstrip("(\"'").rstrip(".")
        if bare in self._abbrev:
            return False
        # "5.4.2. Control Flow" style headings: the period after a bare
        # section number is not a boundary.
        if _SECTION_HEAD.match(last_token):
            return False
        # decimal immediately left AND digit right => inside a number
        next_char = match.group("next")
        if _NUMERIC_TAIL.search(last_token) and next_char.isdigit():
            return False
        # single capital letter (middle initial, "A." enumerations)
        if re.fullmatch(r"[A-Z]", bare):
            return False
        return True


_DEFAULT = SentenceTokenizer()


def sent_tokenize(text: str) -> list[str]:
    """Split *text* into sentences with a shared tokenizer."""
    return _DEFAULT.tokenize(text)
