"""Stage I — advising sentence recognition.

Runs the selector cascade over every sentence of a document.  The
output doubles as the "reminding summary of all the essential
guidelines contained in the input document" (§2) and as the sentence
collection Stage II retrieves from.

One-pass pipeline: classification runs over shared
:class:`~repro.pipeline.annotations.SentenceAnnotations` records, and a
``recognize`` pass leaves behind a
:class:`~repro.pipeline.annotations.DocumentAnnotations` artifact
(``last_annotations``) holding every sentence's lexical layers — Stage
II builds its TF-IDF index straight from it with zero re-tokenization.
Every repeat of a text shares the record of its first occurrence (the
classification memo keeps it), so each distinct text is analyzed once
per recognizer.  With an :class:`~repro.pipeline.store.AnalysisStore`
attached, repeated builds, ``extend()`` calls and multi-document
merges only analyze sentences the store has never seen.

Large guides are embarrassingly parallel across sentences; the
recognizer supports multiprocessing workers (the artifact's "number of
worker processes" knob).  Each worker builds one recognizer from the
parent's keywords, selectors, schedule, degrade flag and pre-filter and
runs the same per-sentence code as the serial path, so the NLP
components are built once per process and both paths decide every
sentence alike.  Workers ship their annotation batches back alongside
the classifications, so the parent never recomputes what a worker
already analyzed.

Resilience: classification runs through the degradation ladder of
:mod:`repro.resilience.degrade` — a sentence whose NLP layer fails is
classified by the surviving layers and tagged with
:class:`~repro.resilience.degrade.DegradationEvent` records; only a
sentence on which *no* selector can run is quarantined (recorded with
its exception) rather than aborting the document.  Parallel batch
dispatch is guarded by a retry policy and a circuit breaker, so a
dead or hung pool worker triggers inline re-execution of the lost
batch instead of killing the whole ``advising_sentences`` pass.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.analysis import SentenceAnalyzer
from repro.core.keywords import KeywordConfig
from repro.core.selectors import (
    Selector,
    default_selectors,
    schedule_selectors,
)
from repro.docs.document import Document, Sentence
from repro.pipeline.annotations import (
    DocumentAnnotations,
    SentenceAnnotations,
)
from repro.pipeline.store import AnalysisStore
from repro.resilience.degrade import (
    DegradationEvent,
    DegradationLadder,
    DegradedClassification,
)
from repro.resilience.faults import fault_point
from repro.resilience.policy import CircuitBreaker, Retry

logger = logging.getLogger("repro.core.recognizer")

#: what the deciding pre-filter rungs answer for the cascade (shared:
#: a clean classification carries nothing sentence-specific)
_RUNG_OUTCOMES = {
    "skipped": DegradedClassification(
        is_advising=False, selector=None, prefilter_skipped=True),
    "keyword_fast_path": DegradedClassification(
        is_advising=True, selector="keyword"),
}


@dataclass(frozen=True)
class RecognitionResult:
    """Per-sentence outcome of Stage I.

    ``events`` lists any degradation fallbacks taken while classifying
    the sentence; ``quarantined`` marks a sentence no selector could
    run on (``error`` carries the exception text).
    """

    sentence: Sentence
    is_advising: bool
    selector: str | None   # name of the first selector that fired
    events: tuple[DegradationEvent, ...] = ()
    quarantined: bool = False
    error: str | None = None
    #: the Stage I pre-filter short-circuited this sentence as
    #: confidently negative — the cascade never ran on it
    prefilter_skipped: bool = False

    @property
    def degraded(self) -> bool:
        return bool(self.events)


# -- worker-process machinery (top level so it pickles) -------------------

_WORKER_STATE: dict[str, object] = {}


def _init_worker(keywords: KeywordConfig,
                 selectors: Sequence[Selector],
                 schedule: bool,
                 degrade: bool,
                 prefilter_payload: dict | None) -> None:
    prefilter = None
    if prefilter_payload is not None:
        # rebuilt from the checksummed payload rather than pickling the
        # live object: the artifact dict is the one canonical wire form
        from repro.stage1.model import AdvicePrefilter

        prefilter = AdvicePrefilter.from_dict(prefilter_payload)
    # the parent's cascade, less the memo: every sentence a worker
    # ships carries the layers its own classification materialized,
    # which are the layers the parent's memo shares for a repeat
    _WORKER_STATE["recognizer"] = AdvisingSentenceRecognizer(
        keywords=keywords, selectors=selectors, schedule=schedule,
        degrade=degrade, prefilter=prefilter, cache_size=0)


def _classify_batch(
    batch: tuple[int, list[str]],
) -> tuple[list[tuple[DegradedClassification, dict]], dict[str, int]]:
    """Classify one (offset, texts) batch inside a worker process.

    Runs the serial per-sentence path of the worker's recognizer and
    returns ``(pairs, prefilter_counts)`` where pairs are
    ``(classification, lexical_payload)`` — the payload carries the
    worker's tokens/stems/terms back to the parent so the annotations
    are computed exactly once, in exactly one process.  A
    pre-filter-skipped sentence ships tokens only.
    """
    offset, texts = batch
    recognizer: AdvisingSentenceRecognizer = \
        _WORKER_STATE["recognizer"]  # type: ignore[assignment]
    before = dict(recognizer.prefilter_stats)
    pairs = [recognizer._classify_inline(text, offset + i)
             for i, text in enumerate(texts)]
    outcomes = [outcome for outcome, _ in pairs]
    recognizer._finalize_annotations(
        texts, [annotations for _, annotations in pairs], outcomes)
    counts = {key: count - before[key]
              for key, count in recognizer.prefilter_stats.items()}
    return ([(outcome, annotations.lexical_payload())
             for outcome, annotations in pairs], counts)


class AdvisingSentenceRecognizer:
    """The five-selector cascade over documents."""

    def __init__(
        self,
        keywords: KeywordConfig | None = None,
        selectors: Sequence[Selector] | None = None,
        workers: int = 1,
        cache_size: int = 50_000,
        degrade: bool = True,
        max_retries: int = 2,
        batch_timeout_s: float | None = 120.0,
        store: AnalysisStore | None = None,
        schedule: bool = True,
        worker_min_sentences: int = 64,
        worker_chunk_size: int | None = None,
        prefilter=None,
    ) -> None:
        if worker_min_sentences < 1:
            raise ValueError("worker_min_sentences must be >= 1")
        if worker_chunk_size is not None and worker_chunk_size < 1:
            raise ValueError("worker_chunk_size must be >= 1 or None")
        self.keywords = keywords or KeywordConfig()
        self.selectors = (list(selectors) if selectors is not None
                          else default_selectors(self.keywords))
        self.workers = max(1, workers)
        self.degrade = degrade
        self.max_retries = max(0, max_retries)
        self.batch_timeout_s = batch_timeout_s
        #: order the cascade cheapest-layer-first (a stable no-op for
        #: the paper's default selector order)
        self.schedule = schedule
        #: below this sentence count the worker pool is never spun up
        self.worker_min_sentences = worker_min_sentences
        #: fixed per-batch size for the worker path (``None`` = the
        #: adaptive ``max(16, n // (workers * 4))`` heuristic)
        self.worker_chunk_size = worker_chunk_size
        #: shared annotation store — sentences seen before (this build
        #: or any earlier one sharing the store) skip their NLP layers
        self.store = store
        #: calibrated Stage I pre-filter
        #: (:class:`repro.stage1.model.AdvicePrefilter`) or ``None``;
        #: when set, confidently-negative sentences skip the cascade
        #: and materialize nothing beyond tokens
        self.prefilter = prefilter
        #: cumulative pre-filter rung outcomes across every
        #: classification this recognizer has run (surfaced through
        #: ``AdvisingTool.health()`` / ``/healthz``)
        self.prefilter_stats: dict[str, int] = {
            "skipped": 0, "deferred": 0, "keyword_fast_path": 0}
        self._analyzer = SentenceAnalyzer()
        self._scheduled = (schedule_selectors(self.selectors) if schedule
                           else list(self.selectors))
        self._ladder = DegradationLadder(self._scheduled)
        # the exact-keyword rung may answer for the cascade only when
        # the filter was distilled under this recognizer's keyword sets
        # and the cascade opens with the keyword selector — otherwise
        # its "keyword" would not be the selector that fires first
        self._keyword_fast_path = (
            prefilter is not None and prefilter.keywords == self.keywords
            and bool(self._scheduled)
            and self._scheduled[0].name == "keyword")
        # guide corpora repeat boilerplate sentences (~35% duplicates
        # in the bundled guides); classification is pure, so memoize
        # per text its clean outcome, the pre-filter rung that decided
        # it (``None`` without a filter) and its annotation record
        self._cache: dict[str, tuple[DegradedClassification, str | None,
                                     SentenceAnnotations]] = {}
        self._cache_size = cache_size
        #: document-level events from the last ``recognize`` run
        #: (worker crashes, pool fallbacks) — per-sentence events live
        #: on the results themselves.
        self.last_worker_events: tuple[DegradationEvent, ...] = ()
        #: the annotation artifact of the last ``recognize`` run, in
        #: document order (Stage II and persistence consume it)
        self.last_annotations: DocumentAnnotations | None = None

    # -- single sentence ----------------------------------------------------

    def _annotation_for(self, text: str) -> SentenceAnnotations:
        """The annotation record for *text*: a store-cached one, else
        the one its memoized classification analyzed, else a fresh one.

        The memo covers what the store cannot: the store is fed only
        when a pass finishes, and a recognizer may have none.  Without
        it a repeat would get a fresh record that its memo hit never
        analyzes, and that record would reach Stage II and persistence
        empty.
        """
        if self.store is not None:
            cached = self.store.get(text)
            if cached is not None:
                return cached
        memo = self._cache.get(text)
        if memo is not None:
            return memo[2]
        return SentenceAnnotations(text=text)

    def classify_ex(self, text: str,
                    sentence_index: int | None = None,
                    annotations: SentenceAnnotations | None = None,
                    ) -> DegradedClassification:
        """Classify one sentence: the pre-filter rungs, then the
        cascade up to the first firing selector (through the
        degradation ladder unless ``degrade`` is off).

        Serial and worker-pool recognition both decide every sentence
        here.  A memo hit counts the rung that decided the text, so the
        pre-filter counters count sentences whether or not the memo
        (off in pool workers) answered.
        """
        cached = self._cache.get(text)
        if cached is not None:
            outcome, rung, _ = cached
            if rung is not None:
                self.prefilter_stats[rung] += 1
            return outcome
        if annotations is None:
            annotations = self._annotation_for(text)
        analysis = self._analyzer.analyze(text, annotations=annotations)
        rung = outcome = None
        if self.prefilter is not None:
            rung = self._prefilter_rung(analysis)
            self.prefilter_stats[rung] += 1
            outcome = _RUNG_OUTCOMES.get(rung)
        if outcome is None:
            if self.degrade:
                outcome = self._ladder.classify(
                    analysis, sentence_index=sentence_index)
            else:
                fired = next((s.name for s in self._scheduled
                              if s.matches(analysis)), None)
                outcome = DegradedClassification(
                    is_advising=fired is not None, selector=fired)
        # only clean classifications are cacheable: a degraded outcome
        # must not mask recovery on the next encounter of the text
        if not outcome.degraded and not outcome.quarantined \
                and len(self._cache) < self._cache_size:
            self._cache[text] = (outcome, rung, annotations)
        return outcome

    def _prefilter_rung(self, analysis) -> str:
        """The pre-filter rung that decides one sentence — the
        ``prefilter_stats`` key: ``"skipped"``, ``"keyword_fast_path"``
        or ``"deferred"`` (it falls through to the cascade).  Any
        exception (a failing tokens layer, a pathological input)
        defers: the degradation ladder owns error handling, the filter
        never does.
        """
        try:
            decision = self.prefilter.decide(analysis.tokens)
        except Exception as error:
            logger.debug("prefilter deferred on error (%r); the ladder "
                         "will classify the sentence", error)
            return "deferred"
        if decision == "skip":
            return "skipped"
        if decision == "keyword" and self._keyword_fast_path:
            # rule #1 fired on the filter's memoized stems — identical
            # to the cascade's first rung, so provenance agrees
            return "keyword_fast_path"
        return "deferred"

    def classify(self, text: str) -> tuple[bool, str | None]:
        """Classify one sentence; returns (is_advising, selector name)."""
        outcome = self.classify_ex(text)
        return (outcome.is_advising, outcome.selector)

    def is_advising(self, text: str) -> bool:
        return self.classify(text)[0]

    def explain(self, text: str) -> dict[str, bool]:
        """Which selectors fire on *text* (all of them, not just the
        first) — the diagnostic view behind a classification.

        Routed through the annotation store: a sentence seen by a
        ``recognize`` pass (or an earlier ``explain``) reuses its
        cached layers instead of re-analyzing from scratch, and any
        layer materialized here upgrades the stored record in place.
        """
        annotations = self._annotation_for(text)
        analysis = self._analyzer.analyze(text, annotations=annotations)
        explained = {selector.name: selector.matches(analysis)
                     for selector in self.selectors}
        if self.store is not None:
            self.store.put(text, annotations)
        return explained

    # -- documents -------------------------------------------------------------

    def recognize(self, document: Document) -> list[RecognitionResult]:
        """Classify every sentence of *document* (optionally parallel).

        Besides the returned results, the pass leaves the full
        annotation artifact on ``last_annotations`` — index-aligned
        with ``document.sentences`` — so downstream consumers (the
        Stage II index build, persistence) reuse the NLP work instead
        of redoing it.
        """
        self.last_worker_events = ()
        self.last_annotations = DocumentAnnotations([])
        sentences = document.sentences
        if not sentences:   # nothing to do — never spin up a pool
            return []
        texts = [s.text for s in sentences]
        if self.workers == 1 or len(texts) < self.worker_min_sentences:
            pairs = [self._classify_inline(text, i)
                     for i, text in enumerate(texts)]
        else:
            pairs = self._recognize_parallel(texts)
        outcomes = [outcome for outcome, _ in pairs]
        annotations_list = [annotations for _, annotations in pairs]
        self._finalize_annotations(texts, annotations_list, outcomes)
        return [
            RecognitionResult(
                sentence,
                outcome.is_advising,
                outcome.selector,
                events=outcome.events,
                quarantined=outcome.quarantined,
                error=outcome.error,
                prefilter_skipped=outcome.prefilter_skipped,
            )
            for sentence, outcome in zip(sentences, outcomes)
        ]

    def _finalize_annotations(
        self,
        texts: list[str],
        annotations_list: list[SentenceAnnotations],
        outcomes: list[DegradedClassification] | None = None,
    ) -> None:
        """Top up the lexical layers Stage II needs and feed the store.

        Pre-filter-skipped sentences are exempt from the terms top-up:
        they are not advising, so Stage II never indexes them as rows,
        and materializing anything beyond tokens would erase the
        skip's saving.  They still count as IDF documents: the fit
        normalizes their tokens itself and keeps the terms off the
        record, so the saved header does not grow by them.  They still
        feed the store (a tokens-only record upgrades in place if a
        later pass needs more).
        """
        for index, (text, annotations) in enumerate(
                zip(texts, annotations_list)):
            skipped = (outcomes is not None
                       and outcomes[index].prefilter_skipped)
            if not skipped:
                try:
                    self._analyzer.pipeline.ensure(annotations, "terms")
                except Exception as error:
                    # lexical layer degraded for this sentence; Stage II
                    # falls back to normalizing its raw text — recorded
                    # so a systematically failing layer shows in logs
                    logger.debug("terms layer failed for sentence %d "
                                 "(%r); Stage II will normalize its raw "
                                 "text", index, error)
            if self.store is not None:
                self.store.put(text, annotations)
        self.last_annotations = DocumentAnnotations(annotations_list)

    def _classify_isolated(
        self, text: str, index: int,
        annotations: SentenceAnnotations | None = None,
    ) -> DegradedClassification:
        """classify_ex with a last-resort quarantine wrapper, so one
        pathological sentence can never kill a document pass."""
        try:
            return self.classify_ex(text, sentence_index=index,
                                    annotations=annotations)
        except Exception as error:
            if not self.degrade:
                raise
            logger.warning("quarantined sentence %d: %r", index, error)
            return DegradedClassification(
                is_advising=False, selector=None,
                events=(DegradationEvent(
                    layer="lexical", point="recognizer.classify",
                    error=repr(error), sentence_index=index),),
                quarantined=True, error=repr(error))

    def _recognize_parallel(
        self, texts: list[str]
    ) -> list[tuple[DegradedClassification, SentenceAnnotations]]:
        chunk = (self.worker_chunk_size
                 if self.worker_chunk_size is not None
                 else max(16, len(texts) // (self.workers * 4)))
        batches = [(i, texts[i:i + chunk])
                   for i in range(0, len(texts), chunk)]
        worker_events: list[DegradationEvent] = []
        try:
            ctx = mp.get_context("fork")
        except ValueError:          # platform without fork
            ctx = mp.get_context()
        try:
            pool = ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.keywords, self.selectors, self.schedule,
                          self.degrade,
                          self.prefilter.to_dict()
                          if self.prefilter is not None else None),
            )
        except Exception as error:
            logger.warning("worker pool unavailable (%r); running "
                           "Stage I serially", error)
            worker_events.append(DegradationEvent(
                layer="worker", point="recognizer.pool", error=repr(error)))
            self.last_worker_events = tuple(worker_events)
            return [self._classify_inline(t, i)
                    for i, t in enumerate(texts)]

        # Retry re-dispatches a failed batch to the pool with backoff;
        # the breaker stops hammering a pool that keeps dying and
        # routes the remaining batches inline instead.
        retry = Retry(max_attempts=self.max_retries + 1,
                      base_delay=0.01, max_delay=0.25,
                      retry_on=(Exception,))
        breaker = CircuitBreaker(failure_threshold=2, recovery_time=60.0)
        out: list[tuple[DegradedClassification, SentenceAnnotations]] = []
        try:
            for batch in batches:
                out.extend(self._run_batch(
                    pool, batch, retry, breaker, worker_events))
        finally:
            pool.terminate()
            pool.join()
        self.last_worker_events = tuple(worker_events)
        return out

    def _classify_inline(
        self, text: str, index: int
    ) -> tuple[DegradedClassification, SentenceAnnotations]:
        annotations = self._annotation_for(text)
        return (self._classify_isolated(text, index, annotations),
                annotations)

    def _run_batch(
        self,
        pool,
        batch: tuple[int, list[str]],
        retry: Retry,
        breaker: CircuitBreaker,
        worker_events: list[DegradationEvent],
    ) -> list[tuple[DegradedClassification, SentenceAnnotations]]:
        offset, texts = batch

        def dispatch() -> tuple[
                list[tuple[DegradedClassification, dict]], dict[str, int]]:
            try:
                fault_point("recognizer.dispatch")
                async_result = pool.apply_async(_classify_batch, (batch,))
                return async_result.get(timeout=self.batch_timeout_s)
            except Exception as error:
                # every crash/hang is recorded, even ones a retry heals
                worker_events.append(DegradationEvent(
                    layer="worker", point="recognizer.dispatch",
                    error=repr(error), sentence_index=offset))
                raise

        if breaker.allow():
            try:
                shipped, prefilter_counts = breaker.call(
                    retry.call, dispatch)
                for key, count in prefilter_counts.items():
                    self.prefilter_stats[key] = (
                        self.prefilter_stats.get(key, 0) + count)
                return [
                    (outcome,
                     SentenceAnnotations.from_lexical(text, payload))
                    for (outcome, payload), text in zip(shipped, texts)
                ]
            except Exception as error:
                if not self.degrade:
                    raise
                logger.warning(
                    "batch at offset %d lost its worker (%r); "
                    "re-executing inline", offset, error)
        # inline re-execution of the lost batch (or of every batch once
        # the breaker is open)
        return [self._classify_inline(text, offset + i)
                for i, text in enumerate(texts)]

    def advising_sentences(self, document: Document) -> list[Sentence]:
        """Just the sentences recognized as advising."""
        return [r.sentence for r in self.recognize(document) if r.is_advising]

    def summary(
        self, results: Iterable[RecognitionResult]
    ) -> dict[str, int]:
        """Counts per firing selector plus totals (Table 7/8 inputs)."""
        counts: dict[str, int] = {"total": 0, "advising": 0}
        degraded = quarantined = 0
        for result in results:
            counts["total"] += 1
            if result.degraded:
                degraded += 1
            if result.quarantined:
                quarantined += 1
            if result.is_advising:
                counts["advising"] += 1
                if result.selector is None:
                    # an advising result always carries the selector
                    # that fired; a missing one would silently corrupt
                    # the Table 7/8 counts (and `python -O` used to
                    # strip the old assert that guarded this)
                    raise ValueError(
                        "advising RecognitionResult without selector "
                        f"provenance (sentence index "
                        f"{result.sentence.index})")
                counts[result.selector] = counts.get(result.selector, 0) + 1
        if degraded:
            counts["degraded"] = degraded
        if quarantined:
            counts["quarantined"] = quarantined
        return counts
