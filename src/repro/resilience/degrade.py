"""Graceful degradation of the selector cascade.

The five selectors consume three NLP layers (paper §3.1): the keyword
selector needs only tokens/stems (*lexical*), the three syntactic
selectors need the dependency parse (*syntax*), and the purpose
selector needs semantic role labeling (*srl*).  When a layer fails on
a sentence — a crash in the parser, an injected fault, a pathological
input — the ladder falls back to the selectors whose layers still
work:

    full (keyword+syntax+srl)  →  keyword+syntax  →  keyword  →  quarantine

so a failing NLP layer yields a best-effort classification tagged with
:class:`DegradationEvent` records instead of an exception.  A sentence
is *quarantined* only when every selector fails — i.e. not even the
lexical layer could run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # type-only: keeps repro.resilience importable from
    # inside repro.core without a circular import
    from repro.core.analysis import SentenceAnalysis
    from repro.core.selectors import Selector

#: NLP layer order, shallow to deep.
LAYERS = ("lexical", "syntax", "srl")

#: human-readable rung names, most to least capable.
LADDER_RUNGS = ("keyword+syntax+srl", "keyword+syntax", "keyword", "none")

_LAYER_LABEL = {"lexical": "keyword", "syntax": "syntax", "srl": "srl"}


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded fallback: which layer failed, where, and why.

    Instances are small, frozen and picklable so they travel from
    multiprocessing workers back to the parent and out through the web
    API's JSON views.
    """

    layer: str                    # "lexical" | "syntax" | "srl" | other
    point: str                    # e.g. "selector.purpose", "recognizer.dispatch"
    error: str                    # repr of the underlying exception
    sentence_index: int | None = None

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "point": self.point,
            "error": self.error,
            "sentence_index": self.sentence_index,
        }


@dataclass(frozen=True)
class DegradedClassification:
    """Outcome of classifying one sentence through the ladder."""

    is_advising: bool
    selector: str | None
    events: tuple[DegradationEvent, ...] = ()
    quarantined: bool = False
    error: str | None = None
    #: the sentence was short-circuited as confidently negative by the
    #: Stage I pre-filter (:mod:`repro.stage1`) — the cascade never
    #: ran.  Downstream finalization uses it to skip the terms top-up:
    #: a skipped sentence materializes nothing beyond tokens.
    prefilter_skipped: bool = False

    @property
    def degraded(self) -> bool:
        return bool(self.events)

    @property
    def rung(self) -> str:
        """The ladder rung that produced this classification."""
        if self.quarantined:
            return "none"
        failed = {event.layer for event in self.events}
        surviving = [_LAYER_LABEL[layer] for layer in LAYERS
                     if layer not in failed]
        return "+".join(surviving) if surviving else "none"


def selector_layer(selector: "Selector") -> str:
    """The NLP layer a selector depends on (declared on the class)."""
    return getattr(selector, "layer", "syntax")


class DegradationLadder:
    """Runs a selector cascade with per-layer fallback.

    Every selector is attempted in the given order; a selector that
    raises is recorded as a :class:`DegradationEvent` for its layer and
    the cascade continues with the remaining selectors, so the deepest
    surviving rung still decides the sentence.

    Layer-level outcomes: when the analysis carries a memoized stage
    failure (see :class:`repro.core.analysis.SentenceAnalysis`), a
    selector whose NLP layer is already known to be broken is *skipped*
    — recorded exactly as if it had raised the memoized exception, but
    without re-running the dead stage.  Without this, a failed parser
    was re-executed once per syntactic selector on every sentence.
    """

    def __init__(self, selectors: Sequence["Selector"]) -> None:
        self.selectors = list(selectors)

    def classify(self, analysis: "SentenceAnalysis",
                 sentence_index: int | None = None,
                 ) -> DegradedClassification:
        """Classify one sentence, stopping at the first selector that
        fires."""
        events: list[DegradationEvent] = []
        failed_layers: set[str] = set()
        completed = 0
        first_error: str | None = None
        fired: str | None = None
        blocker_of = getattr(analysis, "selector_blocker", None)

        def record_failure(selector, error: BaseException) -> None:
            nonlocal first_error
            layer = selector_layer(selector)
            if first_error is None:
                first_error = repr(error)
            if layer not in failed_layers:
                failed_layers.add(layer)
                events.append(DegradationEvent(
                    layer=layer,
                    point=f"selector.{selector.name}",
                    error=repr(error),
                    sentence_index=sentence_index,
                ))

        for selector in self.selectors:
            if blocker_of is not None:
                blocked = blocker_of(selector_layer(selector))
                if blocked is not None:
                    record_failure(selector, blocked)
                    continue
            try:
                matched = selector.matches(analysis)
            except Exception as error:
                record_failure(selector, error)
                continue
            completed += 1
            if matched:
                fired = selector.name
                break
        if completed == 0:
            return DegradedClassification(
                is_advising=False, selector=None, events=tuple(events),
                quarantined=True, error=first_error)
        return DegradedClassification(
            is_advising=fired is not None, selector=fired,
            events=tuple(events), quarantined=False, error=None)


def summarize_events(
    events: Sequence[DegradationEvent],
) -> dict[str, int]:
    """Per-layer event counts (the /healthz degradation counters)."""
    counts: dict[str, int] = {}
    for event in events:
        counts[event.layer] = counts.get(event.layer, 0) + 1
    return counts
