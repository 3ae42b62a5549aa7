"""Evaluation report for a calibrated pre-filter.

Where :mod:`repro.stage1.calibration` *fits* the skip rungs against a
corpus, this module *measures* a fitted filter against a corpus — the
same one (confirming the zero-FN guarantee end to end, which CI gates
on) or a different one (quantifying how the filter transfers across
guides; cross-corpus recall below 1.0 means the filter must be
recalibrated before serving that corpus, never trusted as-is).

Two recall numbers are reported because there are two notions of
ground truth: the *labels* a corpus generator attached (what the
sentence is), and the *cascade decision* (what the five selectors say
it is).  Identity with the pure-cascade build — the property the
benchmark asserts — is recall-vs-cascade = 1.0; the paper-level
quality statement is recall-vs-labels.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

from repro.stage1.model import (
    DEFER,
    KEYWORD,
    SKIP,
    AdvicePrefilter,
    Example,
    decide_each,
)


@dataclass(frozen=True)
class EvalReport:
    """Pre-filter quality on one corpus (JSON-friendly)."""

    sentences: int
    positives: int                  # by the examples' labels
    cascade_positives: int          # by the selector cascade
    skipped: int
    deferred: int
    keyword_hits: int
    false_skips_vs_labels: int      # skipped but label-positive
    false_skips_vs_cascade: int     # skipped but cascade-positive
    recall_vs_labels: float         # 1.0 ⇔ label-recall-safe here
    recall_vs_cascade: float        # 1.0 ⇔ build output is identical
    retained_precision: float       # cascade positives / non-skipped
    skip_rate: float
    defer_rate: float

    def to_dict(self) -> dict:
        return {
            "sentences": self.sentences,
            "positives": self.positives,
            "cascade_positives": self.cascade_positives,
            "skipped": self.skipped,
            "deferred": self.deferred,
            "keyword_hits": self.keyword_hits,
            "false_skips_vs_labels": self.false_skips_vs_labels,
            "false_skips_vs_cascade": self.false_skips_vs_cascade,
            "recall_vs_labels": self.recall_vs_labels,
            "recall_vs_cascade": self.recall_vs_cascade,
            "retained_precision": self.retained_precision,
            "skip_rate": self.skip_rate,
            "defer_rate": self.defer_rate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"


def evaluate_prefilter(
    prefilter: AdvicePrefilter,
    examples: Sequence[Example],
    cascade: Sequence[bool] | None = None,
) -> EvalReport:
    """Measure *prefilter* against *examples*.

    *cascade* is the index-aligned pure-cascade decision per sentence;
    when omitted, the examples' labels stand in for it (the two recall
    numbers then coincide).  Each distinct token sequence is decided
    once; its verdict counts for every example that carries it.
    """
    if cascade is not None and len(cascade) != len(examples):
        raise ValueError(
            f"cascade decisions cover {len(cascade)} sentences, "
            f"examples cover {len(examples)}")
    skipped = deferred = keyword_hits = 0
    positives = cascade_positives = 0
    false_labels = false_cascade = 0
    retained_cascade_positives = 0
    decisions = decide_each(prefilter, examples)
    for index, example in enumerate(examples):
        by_cascade = bool(cascade[index]) if cascade is not None \
            else example.positive
        if example.positive:
            positives += 1
        if by_cascade:
            cascade_positives += 1
        decision = decisions[index]
        if decision == SKIP:
            skipped += 1
            if example.positive:
                false_labels += 1
            if by_cascade:
                false_cascade += 1
        else:
            if decision == KEYWORD:
                keyword_hits += 1
            elif decision == DEFER:
                deferred += 1
            if by_cascade:
                retained_cascade_positives += 1
    total = len(examples)
    retained = total - skipped
    return EvalReport(
        sentences=total, positives=positives,
        cascade_positives=cascade_positives,
        skipped=skipped, deferred=deferred, keyword_hits=keyword_hits,
        false_skips_vs_labels=false_labels,
        false_skips_vs_cascade=false_cascade,
        recall_vs_labels=(
            (positives - false_labels) / positives if positives else 1.0),
        recall_vs_cascade=(
            (cascade_positives - false_cascade) / cascade_positives
            if cascade_positives else 1.0),
        retained_precision=(
            retained_cascade_positives / retained if retained else 1.0),
        skip_rate=skipped / total if total else 0.0,
        defer_rate=deferred / total if total else 0.0,
    )


__all__ = ["EvalReport", "evaluate_prefilter"]
