"""The advice pre-filter model: train, decide, persist.

:class:`AdvicePrefilter` distills the five-selector cascade into three
cheap rungs evaluated per sentence, in order:

1. **exact keyword** — rule #1 of the cascade
   (:meth:`repro.core.selectors.KeywordSelector.matches_stems`) over
   the featurizer's memoized stems.  A hit *is* a cascade positive by
   definition, so a recognizer whose cascade opens with the keyword
   selector under the same keyword sets records the sentence as
   advising with selector ``"keyword"`` without touching the ladder;
2. **margin skip** — a length-normalized linear margin over token/stem
   features, trained with a two-class averaged perceptron over integer
   feature ids (:func:`train_prefilter`).  A margin below the calibrated
   threshold ``tau`` (minus the configured safety slack) skips the
   sentence as confidently negative;
3. **evidence skip** — a sentence containing *no* defer-evidence token
   is skipped.  The defer-token set is built by the calibration
   harness as a greedy set cover over every calibration positive, so
   "no evidence token present" is impossible for a calibration
   positive by construction.

Rungs 2 and 3 are each individually zero-false-negative on the
calibration corpus, so their *union* is too; everything else defers to
the full cascade.  Out-of-vocabulary tokens always defer — the filter
never extrapolates beyond the text distribution it was calibrated on.

The trained model persists as a single checksummed JSON artifact
(format :data:`PREFILTER_FORMAT_VERSION`); the same payload embeds
into advisor files and snapshots via :mod:`repro.core.persistence`, so
the filter loads alongside the index it was distilled for.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.keywords import KeywordConfig
from repro.core.selectors import KeywordSelector
from repro.stage1.features import PrefilterFeaturizer

#: format version of the persisted model artifact
PREFILTER_FORMAT_VERSION = 1

#: decision labels returned by :meth:`AdvicePrefilter.decide`
SKIP = "skip"
DEFER = "defer"
KEYWORD = "keyword"

#: ceiling on the calibrated margin threshold: even when calibration
#: finds no positive beyond the keyword rung (so any threshold is
#: zero-FN on the corpus), the margin rung never skips a sentence the
#: model scores as net-positive
TAU_CAP = 0.0


class PrefilterError(ValueError):
    """A pre-filter artifact could not be loaded or validated."""


@dataclass(frozen=True)
class Example:
    """One training/calibration sentence: its tokens and its label.

    ``positive`` is True when the sentence must never be skipped —
    advising per the generation labels, the cascade's decision, or
    both (callers union the two; see
    :func:`train_prefilter_for_document`).
    """

    tokens: tuple[str, ...]
    positive: bool


class AdvicePrefilter:
    """A calibrated, recall-safe advice pre-filter."""

    def __init__(
        self,
        weights: dict[str, float],
        vocabulary: frozenset[str],
        defer_tokens: frozenset[str],
        tau: float | None = None,
        margin_slack: float = 0.0,
        keywords: KeywordConfig | None = None,
        trained_on: dict | None = None,
    ) -> None:
        self.weights = dict(weights)
        #: every lowercased token seen during training — any sentence
        #: containing a token outside it defers (no extrapolation)
        self.vocabulary = frozenset(vocabulary)
        #: calibration's greedy set cover over the positives: a
        #: sentence with no token in this set cannot be a calibration
        #: positive, so rung 3 may skip it
        self.defer_tokens = frozenset(defer_tokens)
        #: most aggressive zero-FN margin threshold (None = the margin
        #: rung is disabled until :func:`repro.stage1.calibration
        #: .calibrate` has run)
        self.tau = tau
        #: conservatism knob subtracted from ``tau`` at decision time
        #: (normalized-margin units); raising it trades skip rate for
        #: headroom on corpora drifting away from the calibration set
        self.margin_slack = float(margin_slack)
        self.keywords = keywords or KeywordConfig()
        #: provenance of the training run (corpus name, sizes, seed)
        self.trained_on = dict(trained_on or {})
        self.featurizer = PrefilterFeaturizer()
        self._keyword = KeywordSelector(self.keywords)

    # -- inference --------------------------------------------------------

    def margin(self, features: set[str]) -> float:
        """Length-normalized score: mean feature weight, signed.

        ``math.fsum`` rounds the sum once, so the margin does not
        depend on the set's (hash-seeded) iteration order.
        """
        if not features:
            return 0.0
        weights = self.weights
        return math.fsum(weights.get(name, 0.0)
                         for name in features) / len(features)

    def decide(self, tokens: Sequence[str]) -> str:
        """Classify one tokenized sentence into a rung outcome.

        Returns :data:`KEYWORD` (cascade rule #1 fires — definitely
        advising), :data:`SKIP` (confidently negative: the cascade
        never runs), or :data:`DEFER` (uncertain: the full cascade
        decides).  The empty sentence defers.
        """
        if not tokens:
            return DEFER
        featurizer = self.featurizer
        lowers = featurizer.lowers(tokens)
        stems = featurizer.stems(lowers)
        if self._keyword.matches_stems(stems):
            return KEYWORD
        vocabulary = self.vocabulary
        in_vocab = True
        has_evidence = False
        defer_tokens = self.defer_tokens
        for token in lowers:
            if token not in vocabulary:
                in_vocab = False
                break
            if token in defer_tokens:
                has_evidence = True
        if not in_vocab:
            return DEFER
        if self.tau is not None:
            threshold = min(self.tau, TAU_CAP) - self.margin_slack
            if self.margin(featurizer.features(lowers, stems)) < threshold:
                return SKIP
        if not has_evidence:
            return SKIP
        return DEFER

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible payload with checksum.

        Key order and float formatting are canonical, so the same
        trained model always produces byte-identical artifacts (the
        determinism regression test relies on it).
        """
        body = {
            "format_version": PREFILTER_FORMAT_VERSION,
            "weights": {name: self.weights[name]
                        for name in sorted(self.weights)},
            "vocabulary": sorted(self.vocabulary),
            "defer_tokens": sorted(self.defer_tokens),
            "tau": self.tau,
            "margin_slack": self.margin_slack,
            "keywords": self.keywords.to_dict(),
            "trained_on": {key: self.trained_on[key]
                           for key in sorted(self.trained_on)},
        }
        body["checksum"] = _payload_checksum(body)
        return body

    @property
    def checksum(self) -> str:
        """The artifact checksum of the current model state."""
        return self.to_dict()["checksum"]

    @classmethod
    def from_dict(cls, data: dict) -> "AdvicePrefilter":
        """Rebuild a model from :meth:`to_dict`, verifying checksum."""
        if not isinstance(data, dict):
            raise PrefilterError(
                f"prefilter payload must be a JSON object, got "
                f"{type(data).__name__}")
        version = data.get("format_version")
        if version != PREFILTER_FORMAT_VERSION:
            raise PrefilterError(
                f"unsupported prefilter format version {version!r} "
                f"(supported: {PREFILTER_FORMAT_VERSION})")
        recorded = data.get("checksum")
        body = {key: value for key, value in data.items()
                if key != "checksum"}
        actual = _payload_checksum(body)
        if recorded != actual:
            raise PrefilterError(
                f"prefilter artifact failed checksum validation "
                f"(recorded {recorded!r}, computed {actual!r}) — "
                f"refusing to skip sentences with a corrupt model")
        try:
            weights = {str(name): float(weight)
                       for name, weight in data["weights"].items()}
            vocabulary = frozenset(str(t) for t in data["vocabulary"])
            defer_tokens = frozenset(str(t) for t in data["defer_tokens"])
            tau = data["tau"]
            slack = float(data["margin_slack"])
            keywords = KeywordConfig.from_dict(data["keywords"])
            trained_on = dict(data["trained_on"])
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise PrefilterError(
                f"malformed prefilter payload: "
                f"{type(error).__name__}: {error}") from error
        return cls(
            weights=weights, vocabulary=vocabulary,
            defer_tokens=defer_tokens,
            tau=None if tau is None else float(tau),
            margin_slack=slack, keywords=keywords, trained_on=trained_on)

    def save(self, path: str) -> None:
        """Write the artifact crash-safely (atomic replace)."""
        from repro.core.persistence import atomic_write_text

        atomic_write_text(path, json.dumps(
            self.to_dict(), ensure_ascii=False, indent=1) + "\n")

    @classmethod
    def load(cls, path: str) -> "AdvicePrefilter":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            raise PrefilterError(
                f"cannot read prefilter artifact {path!r}: "
                f"{error}") from error
        return cls.from_dict(data)


def _payload_checksum(body: dict) -> str:
    """sha256 over the canonical JSON encoding of the payload body."""
    canonical = json.dumps(body, ensure_ascii=False, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- training ---------------------------------------------------------------


def train_prefilter(
    examples: Sequence[Example],
    keywords: KeywordConfig | None = None,
    iterations: int = 10,
    seed: int = 1,
    trained_on: dict | None = None,
) -> AdvicePrefilter:
    """Train the margin model on labeled examples.

    Sentences the exact keyword rung already decides are excluded from
    the perceptron's training set: the margin only ever scores
    sentences that *reach* rung 2, so it learns the conditional
    distribution it is evaluated on.  Each distinct token sequence is
    lowercased, stemmed, keyword-tested and featurized once; duplicates
    still train as separate examples.  The returned model keeps this
    featurizer, so its stem memo is warm for calibration and serving.
    The model is untuned (``tau=None``, empty defer set) — run
    :func:`repro.stage1.calibration.calibrate` before serving it.
    """
    config = keywords or KeywordConfig()
    featurizer = PrefilterFeaturizer()
    keyword = KeywordSelector(config)
    vocabulary: set[str] = set()
    ids: dict[str, int] = {}
    # per distinct token sequence: its feature ids, or None when the
    # keyword rung decides it
    featurized: dict[tuple[str, ...], list[int] | None] = {}
    training: list[tuple[list[int], bool]] = []
    for example in examples:
        key = tuple(example.tokens)
        if key in featurized:
            features = featurized[key]
        else:
            lowers = featurizer.lowers(key)
            vocabulary.update(lowers)
            stems = featurizer.stems(lowers)
            features = None
            if not keyword.matches_stems(stems):
                # ids follow set (hash) order; integer sums do not
                features = [ids.setdefault(name, len(ids)) for name
                            in featurizer.features(lowers, stems)]
            featurized[key] = features
        if features is not None:
            training.append((features, example.positive))
    averaged = _averaged_margins(training, len(ids), iterations, seed)
    weights: dict[str, float] = {}
    for name in sorted(ids):
        weight = averaged[ids[name]]
        if weight:
            weights[name] = weight + weight
    prefilter = AdvicePrefilter(
        weights=weights, vocabulary=frozenset(vocabulary),
        defer_tokens=frozenset(), tau=None, keywords=config,
        trained_on=dict(trained_on or {},
                        examples=len(examples),
                        trained=len(training),
                        iterations=int(iterations), seed=int(seed)))
    prefilter.featurizer = featurizer
    return prefilter


def _averaged_margins(training: Sequence[tuple[list[int], bool]],
                      size: int, iterations: int, seed: int) -> list[float]:
    """Two-class averaged perceptron over integer feature ids.

    Returns each feature's averaged "advising" weight, rounded to three
    places.  It equals the multiclass
    :class:`repro.tagging.perceptron.AveragedPerceptron` run over the
    labels "advising"/"other", bit for bit: every update adds +1 to one
    label and -1 to the other on the same features, so the "other"
    weights and totals are the negation of these; every value is an
    integer, which the multiclass class holds exactly in floats; its
    tie-break on the label name predicts "advising" iff the score is
    above 0; and ``round(-x, 3) == -round(x, 3)``, so its "advising"
    minus "other" difference is ``a + a`` for the ``a`` returned here.
    """
    weights = [0] * size
    totals = [0] * size
    stamps = [0] * size
    rng = np.random.default_rng(seed)
    order = np.arange(len(training))
    step = 0
    for _ in range(max(1, iterations)):
        rng.shuffle(order)
        for index in order.tolist():
            features, positive = training[index]
            step += 1
            if (sum(map(weights.__getitem__, features)) > 0) == positive:
                continue
            delta = 1 if positive else -1
            for feature in features:
                totals[feature] += (step - stamps[feature]) * weights[feature]
                stamps[feature] = step
                weights[feature] += delta
    steps = max(step, 1)
    return [round((totals[f] + (step - stamps[f]) * weights[f]) / steps, 3)
            for f in range(size)]


def decide_each(prefilter: AdvicePrefilter,
                examples: Sequence[Example]) -> list[str]:
    """``prefilter.decide`` of every example, index-aligned.

    The decision is a pure function of the token sequence, so it runs
    once per distinct sequence and repeats reuse the verdict.
    """
    verdicts: dict[tuple[str, ...], str] = {}
    decisions: list[str] = []
    for example in examples:
        key = tuple(example.tokens)
        decision = verdicts.get(key)
        if decision is None:
            decision = verdicts[key] = prefilter.decide(key)
        decisions.append(decision)
    return decisions


def train_prefilter_for_document(
    document,
    keywords: KeywordConfig | None = None,
    labels: Sequence[bool] | None = None,
    recognizer=None,
    iterations: int = 10,
    seed: int = 1,
    margin_slack: float = 0.0,
    trained_on: dict | None = None,
):
    """Distill + calibrate a pre-filter for one document.

    Runs the pure selector cascade once over *document* (the full
    Stage I pass every first build pays anyway) and uses its decisions
    as distillation targets; when generation-time *labels* are given
    (index-aligned booleans, e.g. from
    :meth:`repro.corpus.builder.LabeledGuide.labels`), a sentence
    positive by *either* source is a calibration positive — strictly
    more conservative than either alone.  Returns
    ``(prefilter, calibration_report, eval_report)``; every later
    rebuild/extend over the same distribution skips through it with a
    recognized-advice set identical to the pure cascade.
    """
    from repro.core.recognizer import AdvisingSentenceRecognizer
    from repro.stage1.calibration import calibrate
    from repro.stage1.eval import evaluate_prefilter

    config = keywords or KeywordConfig()
    recognizer = recognizer or AdvisingSentenceRecognizer(keywords=config)
    results = recognizer.recognize(document)
    if labels is not None and len(labels) != len(results):
        raise ValueError(
            f"labels cover {len(labels)} sentences, document has "
            f"{len(results)}")
    annotations = recognizer.last_annotations
    examples: list[Example] = []
    cascade: list[bool] = []
    for index, result in enumerate(results):
        tokens = None
        if annotations is not None and index < len(annotations):
            tokens = annotations[index].tokens
        if tokens is None:
            tokens = result.sentence.text.split()
        positive = bool(result.is_advising)
        if labels is not None:
            positive = positive or bool(labels[index])
        examples.append(Example(tokens=tuple(tokens), positive=positive))
        cascade.append(bool(result.is_advising))
    prefilter = train_prefilter(
        examples, keywords=config, iterations=iterations, seed=seed,
        trained_on=dict(trained_on or {},
                        document=getattr(document, "title", None),
                        labeled=labels is not None))
    prefilter.margin_slack = float(margin_slack)
    report = calibrate(prefilter, examples)
    eval_report = evaluate_prefilter(prefilter, examples, cascade)
    return prefilter, report, eval_report
