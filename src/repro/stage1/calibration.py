"""Recall-safe calibration of the Stage I pre-filter.

Calibration fits the two skip rungs of
:class:`repro.stage1.model.AdvicePrefilter` against a labeled corpus so
that **no calibration positive can be skipped, by construction**:

* the margin threshold ``tau`` sweeps to the minimum normalized margin
  over every positive that reaches the margin rung — the most
  aggressive threshold with zero false negatives, since the skip test
  is a strict ``margin < tau``;
* the defer-token set is a greedy set cover over the same positives —
  every one of them contains at least one evidence token, so "no
  evidence token present" can only ever be true of a sentence that is
  not a calibration positive.

The union of two individually zero-false-negative rules is still
zero-false-negative, which is what lets the filter take the *more*
aggressive of the two skips per sentence.  After fitting, the harness
re-runs the full :meth:`~repro.stage1.model.AdvicePrefilter.decide`
path over the corpus and verifies the guarantee end-to-end; a violation
raises instead of returning a report.  Both passes do their per-sentence
work once per distinct token sequence and count it for every example.

Positives the exact-keyword rung already catches are excluded from both
fits: they can never reach the skip rungs.  Positives containing
out-of-vocabulary tokens are likewise structurally safe (the decision
path defers on any OOV token) but are still counted in the report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.stage1.model import (
    DEFER,
    KEYWORD,
    SKIP,
    AdvicePrefilter,
    Example,
    PrefilterError,
    decide_each,
)


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of one calibration pass (JSON-friendly)."""

    sentences: int
    positives: int
    negatives: int
    keyword_positives: int          # caught by the exact-keyword rung
    tau: float | None               # fitted margin threshold
    defer_tokens: int               # size of the fitted evidence set
    skipped: int                    # verification pass: skip decisions
    deferred: int                   # verification pass: defer decisions
    keyword_hits: int               # verification pass: keyword decisions
    false_negatives: int            # always 0 — verified, not assumed
    skip_rate: float                # skipped / sentences
    recall: float                   # always 1.0 on the calibration set
    evidence_sample: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "sentences": self.sentences,
            "positives": self.positives,
            "negatives": self.negatives,
            "keyword_positives": self.keyword_positives,
            "tau": self.tau,
            "defer_tokens": self.defer_tokens,
            "skipped": self.skipped,
            "deferred": self.deferred,
            "keyword_hits": self.keyword_hits,
            "false_negatives": self.false_negatives,
            "skip_rate": self.skip_rate,
            "recall": self.recall,
            "evidence_sample": list(self.evidence_sample),
        }


def calibrate(prefilter: AdvicePrefilter,
              examples: Sequence[Example]) -> CalibrationReport:
    """Fit ``tau`` and the defer-token set in place; verify zero FN.

    Mutates *prefilter* (sets ``tau`` and ``defer_tokens``) and returns
    the report.  Raises :class:`PrefilterError` if the end-to-end
    verification pass finds a skipped positive — that would mean the
    fit itself is broken, and no such model should ever be served.
    """
    featurizer = prefilter.featurizer
    keyword = prefilter._keyword
    vocabulary = prefilter.vocabulary

    positives = negatives = keyword_positives = 0
    # sentences that actually reach the skip rungs, as token sets;
    # duplicates stay, so the cover's counts see every example
    reachable_positives: list[tuple[set[str], float]] = []
    negative_token_sets: list[set[str]] = []
    # per distinct token sequence: its token set, or None when the
    # keyword rung decides it; and its margin once a positive needs it
    token_sets: dict[tuple[str, ...], set[str] | None] = {}
    margins: dict[tuple[str, ...], float] = {}
    for example in examples:
        if not example.tokens:
            if example.positive:
                positives += 1
            else:
                negatives += 1
            continue   # empty sentences always defer
        key = tuple(example.tokens)
        if key in token_sets:
            tokens = token_sets[key]
        else:
            lowers = featurizer.lowers(key)
            tokens = token_sets[key] = (
                None if keyword.matches_stems(featurizer.stems(lowers))
                else set(lowers))
        if example.positive:
            positives += 1
            if tokens is None:
                keyword_positives += 1
                continue
            if not tokens <= vocabulary:
                continue   # OOV positives defer structurally
            margin = margins.get(key)
            if margin is None:
                margin = margins[key] = prefilter.margin(
                    featurizer.features_of_tokens(key))
            reachable_positives.append((tokens, margin))
        else:
            negatives += 1
            if tokens is not None:
                negative_token_sets.append(tokens)

    # -- rung 2: the most aggressive zero-FN margin threshold ---------------
    if reachable_positives:
        tau = min(margin for _, margin in reachable_positives)
    else:
        # no positive ever reaches the rung: any threshold is zero-FN
        # on this corpus; the TAU_CAP in decide() still bounds it
        tau = 0.0
    prefilter.tau = tau

    # -- rung 3: greedy set cover of the reachable positives ----------------
    prefilter.defer_tokens = frozenset(_greedy_cover(
        [tokens for tokens, _ in reachable_positives],
        negative_token_sets, vocabulary))

    # -- end-to-end verification: the guarantee is checked, not assumed ----
    skipped = deferred = keyword_hits = false_negatives = 0
    for example, decision in zip(examples, decide_each(prefilter, examples)):
        if decision == SKIP:
            skipped += 1
            if example.positive:
                false_negatives += 1
        elif decision == KEYWORD:
            keyword_hits += 1
        else:
            deferred += 1
    if false_negatives:
        raise PrefilterError(
            f"calibration produced {false_negatives} false negative(s) "
            f"on its own corpus — refusing to emit an unsafe model")

    total = len(examples)
    return CalibrationReport(
        sentences=total, positives=positives, negatives=negatives,
        keyword_positives=keyword_positives, tau=tau,
        defer_tokens=len(prefilter.defer_tokens),
        skipped=skipped, deferred=deferred, keyword_hits=keyword_hits,
        false_negatives=0,
        skip_rate=skipped / total if total else 0.0,
        recall=1.0,
        evidence_sample=tuple(sorted(prefilter.defer_tokens)[:12]))


def _greedy_cover(positive_sets: Sequence[set[str]],
                  negative_sets: Sequence[set[str]],
                  vocabulary: frozenset[str]) -> set[str]:
    """Greedy set cover: evidence tokens covering every positive.

    Each round picks the token covering the most still-uncovered
    positives per negative sentence it would retain (``coverage /
    (negative_hits + 1)``), so the fitted set both covers all positives
    *and* stays out of as many negatives as possible — negatives
    containing an evidence token cannot be skipped by rung 3.  Ties
    break on fewer negative hits, then lexicographically, keeping the
    fit deterministic.
    """
    negative_hits: dict[str, int] = {}
    for tokens in negative_sets:
        for token in tokens:
            negative_hits[token] = negative_hits.get(token, 0) + 1

    uncovered = [tokens & vocabulary for tokens in positive_sets]
    uncovered = [tokens for tokens in uncovered if tokens]
    cover: set[str] = set()
    while uncovered:
        counts: dict[str, int] = {}
        for tokens in uncovered:
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
        best = max(sorted(counts), key=lambda token: (
            counts[token] / (negative_hits.get(token, 0) + 1.0),
            -negative_hits.get(token, 0),
        ))
        cover.add(best)
        uncovered = [tokens for tokens in uncovered
                     if best not in tokens]
    return cover


__all__ = ["CalibrationReport", "calibrate", "DEFER", "KEYWORD", "SKIP"]
