"""The shared NLP annotation IR.

Egeria's layers (keyword → dependency parse → SRL, paper §3 / Table 1)
used to be recomputed by every consumer: Stage I built throwaway
per-sentence analyses, Stage II re-tokenized the same sentences for
TF-IDF, and persistence stored only raw text.  This module defines the
one artifact every consumer shares instead:

* :class:`SentenceAnnotations` — the per-sentence record holding each
  NLP layer (tokens, stems, normalized retrieval terms, dependency
  graph, SRL frames).  Layers are filled in lazily by an
  :class:`~repro.pipeline.stages.AnnotationPipeline` and never
  recomputed once present.
* :class:`DocumentAnnotations` — the per-document artifact: sentence
  annotations in document order, index-aligned with
  ``document.sentences``.  Stage I produces it, Stage II consumes it,
  and persistence v2 embeds its lexical layers.

Only the *lexical* layers (tokens/stems/terms) serialize — they are
what Stage II needs to skip tokenization entirely; parse trees and SRL
frames stay in-memory (cheap to keep, expensive to ship).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # type-only: keeps the IR importable without the
    # parser/SRL stacks loaded
    from repro.parsing.graph import DependencyGraph
    from repro.srl.labeler import Frame

#: every annotation layer, shallow to deep
LAYERS = ("tokens", "stems", "terms", "graph", "frames")

#: the layers that serialize (JSON-safe lists of strings)
LEXICAL_LAYERS = ("tokens", "stems", "terms")


@dataclass
class SentenceAnnotations:
    """All computed NLP layers of one sentence.

    ``None`` means "not computed yet" — an empty list is a computed
    layer that happened to be empty.  Instances are append-only: a
    layer is filled at most once, so they are safe to share between a
    store, multiple analyses, and multiple documents.
    """

    text: str
    tokens: list[str] | None = None
    stems: list[str] | None = None
    terms: list[str] | None = None
    graph: "DependencyGraph | None" = None
    frames: "list[Frame] | None" = None

    def get(self, layer: str):
        """The value of *layer* (``None`` if not computed)."""
        if layer not in LAYERS:
            raise KeyError(f"unknown annotation layer {layer!r}")
        return getattr(self, layer)

    def set(self, layer: str, value) -> None:
        if layer not in LAYERS:
            raise KeyError(f"unknown annotation layer {layer!r}")
        setattr(self, layer, value)

    def has(self, layer: str) -> bool:
        return self.get(layer) is not None

    @property
    def computed_layers(self) -> tuple[str, ...]:
        """Names of the layers already present, shallow to deep."""
        return tuple(layer for layer in LAYERS if self.has(layer))

    # -- (de)serialization (lexical layers only) ------------------------

    def lexical_payload(self) -> dict:
        """JSON/pickle-safe dict of the computed lexical layers.

        This is what multiprocessing workers ship back to the parent
        and what persistence v2 embeds — deliberately free of parse
        trees and frames.
        """
        return {
            layer: list(value)
            for layer in LEXICAL_LAYERS
            if (value := self.get(layer)) is not None
        }

    @classmethod
    def from_lexical(cls, text: str, payload: dict | None
                     ) -> "SentenceAnnotations":
        """Rebuild from :meth:`lexical_payload` output."""
        payload = payload or {}
        return cls(
            text=text,
            tokens=_str_list(payload.get("tokens")),
            stems=_str_list(payload.get("stems")),
            terms=_str_list(payload.get("terms")),
        )


def _str_list(value) -> list[str] | None:
    if value is None:
        return None
    return [str(item) for item in value]


@dataclass
class DocumentAnnotations:
    """Per-sentence annotations in document order.

    Index-aligned with ``document.sentences`` after ``reindex()`` —
    ``annotations[i]`` annotates the sentence whose global index is
    ``i``.  ``extend`` keeps the alignment across
    :meth:`repro.core.advisor.AdvisingTool.extend` merges, which append
    the new document's sentences after the existing ones.
    """

    sentences: list[SentenceAnnotations] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[SentenceAnnotations]:
        return iter(self.sentences)

    def __getitem__(self, index: int) -> SentenceAnnotations:
        return self.sentences[index]

    def extend(self, other: "DocumentAnnotations") -> None:
        """Append *other*'s sentences (a document merged after ours)."""
        self.sentences.extend(other.sentences)

    def copy(self) -> "DocumentAnnotations":
        """A shallow copy whose sentence *list* is independent.

        ``AdvisingTool.extend`` appends onto the copy so the pre-swap
        index keeps an artifact frozen at its own length; the
        per-sentence entries are shared (they are immutable as far as
        the query path is concerned).
        """
        return DocumentAnnotations(sentences=list(self.sentences))

    @property
    def complete_terms(self) -> bool:
        """True when every sentence has its terms layer — the condition
        for Stage II to run with zero tokenizer/stemmer calls."""
        return all(ann.terms is not None for ann in self.sentences)

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> dict:
        """JSON view of the lexical layers (persistence v2 payload)."""
        return {
            "sentences": [ann.lexical_payload() for ann in self.sentences],
        }

    @classmethod
    def from_dict(cls, data: dict, texts: Sequence[str]
                  ) -> "DocumentAnnotations":
        """Rebuild against *texts* (the document's sentences in order).

        Raises :class:`ValueError` on a length mismatch — a file whose
        annotations do not align with its document is corrupt.
        """
        payloads = data.get("sentences", [])
        if len(payloads) != len(texts):
            raise ValueError(
                f"annotation count {len(payloads)} does not match "
                f"document sentence count {len(texts)}")
        return cls(sentences=[
            SentenceAnnotations.from_lexical(text, payload)
            for text, payload in zip(texts, payloads)
        ])
