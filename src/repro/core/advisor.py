"""The advising tool Egeria synthesizes (QA agent).

An :class:`AdvisingTool` owns the document, its recognized advising
sentences, and a :class:`~repro.core.recommender.KnowledgeRecommender`.
It answers

* free-text queries (``query``), and
* NVVP profiler reports (``query_report``) — each ``Optimization:``
  subsection becomes one sub-query (paper §4.1, Table 3);

and can produce the full advising summary grouped by section
(paper Figure 4 / Figure 6).
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.keywords import KeywordConfig
from repro.core.recommender import KnowledgeRecommender, Recommendation
from repro.docs.document import Document, Section, Sentence
from repro.pipeline.annotations import DocumentAnnotations
from repro.pipeline.store import AnalysisStore
from repro.profiler.parser import NVVPReportParser
from repro.resilience.degrade import DegradationEvent, summarize_events
from repro.retrieval.segments import (
    DEFAULT_COMPACTION_RATIO,
    DEFAULT_SEGMENT_TARGET_SIZE,
    plan_compaction,
)

logger = logging.getLogger(__name__)


@dataclass
class Answer:
    """The tool's response to one query.

    ``degraded_events`` records resilience fallbacks taken while
    answering (e.g. the retrieval layer failed and an empty/partial
    answer was returned); ``error`` carries the underlying exception
    text so callers can see what was skipped.
    """

    query: str
    recommendations: list[Recommendation] = field(default_factory=list)
    degraded_events: tuple[DegradationEvent, ...] = ()
    error: str | None = None

    @property
    def found(self) -> bool:
        return bool(self.recommendations)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_events)

    @property
    def sentences(self) -> list[Sentence]:
        return [r.sentence for r in self.recommendations]

    @property
    def message(self) -> str:
        if self.degraded and not self.found:
            return "No answer available (retrieval degraded)"
        if not self.found:
            return "No relevant sentences found"
        return f"{len(self.recommendations)} relevant sentences found"

    def to_dict(self) -> dict:
        """JSON-compatible view (used by the web API)."""
        payload = {
            "query": self.query,
            "found": self.found,
            "answers": [
                {
                    "sentence": rec.sentence.text,
                    "score": round(rec.score, 4),
                    "section": rec.sentence.section_path,
                    "matched_terms": list(
                        getattr(rec, "matched_terms", ())),
                }
                for rec in self.recommendations
            ],
        }
        if self.degraded:
            payload["degraded"] = [e.to_dict() for e in self.degraded_events]
        return payload


@dataclass(frozen=True)
class _IndexState:
    """The advisor's immutable query-path state.

    Everything a query touches — the advising sentences, the Stage II
    recommender (matrix, postings, query cache), the annotation
    artifact, and the provenance map — lives behind one reference.
    ``extend()`` and reload paths build a *new* state off to the side
    and publish it with a single attribute assignment (atomic under
    the GIL), so in-flight queries finish on the index they started
    with and never observe a half-rebuilt recommender or a sentence
    list that grows mid-iteration.  ``generation`` increments on every
    swap; the web layer keys its rendered-summary cache on it.
    """

    advising: tuple[Sentence, ...]
    recommender: KnowledgeRecommender
    annotations: DocumentAnnotations | None
    provenance: dict[int, str | None]
    generation: int = 0


class AdvisingTool:
    """A synthesized advising tool for one HPC document."""

    def __init__(
        self,
        document: Document,
        advising_sentences: Sequence[Sentence],
        threshold: float = 0.15,
        name: str | None = None,
        degradation_events: tuple[DegradationEvent, ...] = (),
        quarantined: Sequence = (),
        annotations: DocumentAnnotations | None = None,
        provenance: dict[int, str | None] | None = None,
        keywords: KeywordConfig | None = None,
        store: AnalysisStore | None = None,
        segment_target_size: int = DEFAULT_SEGMENT_TARGET_SIZE,
        compaction_ratio: int = DEFAULT_COMPACTION_RATIO,
        auto_compaction: bool = True,
        recommender: KnowledgeRecommender | None = None,
        prefilter=None,
        prefilter_stats: dict[str, int] | None = None,
    ) -> None:
        self.document = document
        self.name = name or f"{document.title} Adviser"
        #: the calibrated Stage I pre-filter the tool was built with
        #: (``None`` = pure cascade); persists alongside the index and
        #: is reused by :meth:`extend`
        self.prefilter = prefilter
        #: cumulative pre-filter rung counters from the build (plus any
        #: extends) — surfaced through :meth:`health` / ``/healthz``
        self.prefilter_stats: dict[str, int] = dict(
            prefilter_stats
            or {"skipped": 0, "deferred": 0, "keyword_fast_path": 0})
        #: Stage I degradations recorded while this tool was built
        self.degradation_events = tuple(degradation_events)
        #: quarantined RecognitionResults from the build (if any)
        self.quarantined = tuple(quarantined)
        #: answer-time degradations accumulated across queries; guarded
        #: by ``_answer_lock`` — the threading WSGI server answers many
        #: queries concurrently over one shared advisor
        # egeria: guarded-by[self._answer_lock]
        self.answer_events: list[DegradationEvent] = []
        self._answer_lock = threading.Lock()
        #: serializes index writers (``extend``, snapshot saves via
        #: :meth:`freeze`); readers never take it — they snapshot
        #: ``_index`` once per operation
        self._reload_lock = threading.RLock()
        #: the Stage I keyword sets the tool was built with (persisted
        #: in the saved header); :meth:`extend` classifies with them
        self.keywords = keywords or KeywordConfig()
        #: annotation store shared with the builder (hit/miss counters
        #: surface through ``health()``); ``extend`` reuses it
        self.store = store
        #: segment write-path knobs (DESIGN §12): target rows per fresh
        #: segment and the tiered-merge fan-in; ``auto_compaction``
        #: gates the background worker extend() kicks off
        self.segment_target_size = segment_target_size
        self.compaction_ratio = compaction_ratio
        self.auto_compaction = auto_compaction
        self._compaction_lock = threading.Lock()
        # egeria: guarded-by[self._compaction_lock]
        self._compaction_stats = {"merges": 0, "refits": 0, "aborted": 0}
        # egeria: guarded-by[self._compaction_lock]
        self._compaction_thread: threading.Thread | None = None
        if recommender is None:
            # a restored recommender (the sidecar load path) is used
            # as is; otherwise Stage II is fitted here
            recommender = KnowledgeRecommender(
                list(advising_sentences), document=document,
                threshold=threshold, annotations=annotations)
        # egeria: guarded-by[self._reload_lock] — writers swap the
        # frozen handle under the lock; readers snapshot it lock-free
        self._index = _IndexState(
            advising=tuple(advising_sentences),
            recommender=recommender,
            annotations=annotations,
            provenance=dict(provenance or {}),
        )
        self._report_parser = NVVPReportParser()

    # -- the immutable index handle ----------------------------------------

    @property
    def advising_sentences(self) -> tuple[Sentence, ...]:
        """The recognized advising sentences of the current index."""
        return self._index.advising

    @property
    def recommender(self) -> KnowledgeRecommender:
        """The Stage II retriever of the current index."""
        return self._index.recommender

    @property
    def annotations(self) -> DocumentAnnotations | None:
        """The shared annotation artifact (index-aligned with the
        document); lets Stage II build with zero re-tokenization."""
        return self._index.annotations

    @property
    def provenance(self) -> dict[int, str | None]:
        """Selector provenance: global sentence index -> the selector
        that recognized it (persisted in the saved header)."""
        return self._index.provenance

    @property
    def generation(self) -> int:
        """Monotonic index-swap counter (0 for a fresh build); bumps on
        every ``extend()`` so caches keyed on it invalidate exactly when
        the answers could change."""
        return self._index.generation

    @contextmanager
    def freeze(self) -> Iterator[_IndexState]:
        """Hold the index stable for a multi-read operation.

        Snapshot saves serialize under this lock so a concurrent
        ``extend()`` lands entirely before or entirely after the
        persisted state — the document, sentence list, annotations,
        and provenance it reads all belong to one generation.
        """
        with self._reload_lock:
            yield self._index

    # -- querying ---------------------------------------------------------

    def query(self, text: str, threshold: float | None = None,
              expand_synonyms: bool = False,
              limit: int | None = None) -> Answer:
        """Answer a free-text optimization question.

        With ``expand_synonyms`` the query is first widened with the
        domain synonym clusters of :mod:`repro.retrieval.synonyms`
        ("thread divergence" also searches "divergent branches") —
        useful for loosely phrased questions.  ``limit`` caps the
        answer to the top-k recommendations (partial selection in the
        retrieval layer, never a full sort).

        A retrieval-layer failure yields a degraded :class:`Answer`
        (empty, with the event attached) rather than an exception.
        """
        if expand_synonyms:
            from repro.retrieval.synonyms import SynonymExpander

            text_for_search = SynonymExpander().expand(text)
        else:
            text_for_search = text
        # one read of the handle: the whole query runs on this index
        # even if extend()/reload publishes a new one mid-flight
        index = self._index
        try:
            recommendations = index.recommender.recommend(
                text_for_search, threshold, limit=limit)
        except Exception as error:
            event = DegradationEvent(
                layer="retrieval", point="recommend", error=repr(error))
            with self._answer_lock:
                self.answer_events.append(event)
            return Answer(text, [], degraded_events=(event,),
                          error=repr(error))
        return Answer(text, recommendations)

    def query_report(
        self, report_text: str, threshold: float | None = None,
        limit: int | None = None,
    ) -> list[Answer]:
        """Answer an NVVP report: one answer per extracted issue."""
        answers: list[Answer] = []
        for issue_query in self._report_parser.extract_queries(report_text):
            answers.append(self.query(issue_query, threshold, limit=limit))
        return answers

    def query_report_pdf(
        self, pdf_data: bytes, threshold: float | None = None,
        limit: int | None = None,
    ) -> list[Answer]:
        """Answer an uploaded NVVP report PDF (the paper's §3.2 upload
        path: "a PDF file output from NVIDIA NVPP")."""
        from repro.pdf.reader import extract_text

        return self.query_report(extract_text(pdf_data), threshold,
                                 limit=limit)

    # -- summary -----------------------------------------------------------

    def summary_by_section(self) -> list[tuple[str, list[Sentence]]]:
        """Advising sentences grouped under their section headings, in
        document order — the Figure 4/6 'reminding summary' view."""
        groups: dict[str, list[Sentence]] = {}
        order: list[str] = []
        for sentence in self.advising_sentences:
            heading = sentence.section_path or "(document)"
            if heading not in groups:
                groups[heading] = []
                order.append(heading)
            groups[heading].append(sentence)
        return [(heading, groups[heading]) for heading in order]

    def context_of(self, sentence: Sentence) -> list[Sentence]:
        """All advising sentences in the same subsection as *sentence* —
        the optional 'other advising sentences in the same subsections'
        view of §4.1."""
        return [
            s for s in self.advising_sentences
            if s.section_number == sentence.section_number
            and s.section_title == sentence.section_title
        ]

    # -- incremental updates -----------------------------------------------

    def extend(self, document: Document,
               recognizer=None, refit: bool = False) -> int:
        """Fold another document into this advisor, without downtime.

        HPC guides evolve quickly (§1: "rapid changes ... of modern
        systems"); ``extend`` runs Stage I on the new document only and
        **seals its advising sentences as one small immutable segment**
        (DESIGN §12): the TF-IDF model grows append-only (existing
        terms keep their frozen IDF, new vocabulary is indexed and
        immediately queryable), no existing matrix row is rebuilt, and
        the warm query cache survives intact.  Returns the number of
        newly recognized advising sentences.

        ``refit=True`` forces the legacy rebuild-the-world path — a
        from-scratch Stage II build whose IDF reflects the merged
        corpus exactly, at the price of a wholesale cache flush.  The
        background compaction worker applies the same refit
        automatically once enough growth has accumulated (stale
        documents >= fitted documents), so frozen-IDF drift is bounded
        without ever paying the rebuild on the ingest path.

        New advising sentences are mapped by their *position* within
        the new document, never by text — a duplicated string must not
        drag its non-advising twin into the summary.  With an annotation
        store attached, sentences the store has seen before skip their
        NLP layers entirely.

        Concurrency contract: the new sentence tuple, provenance map,
        annotations, and recommender are all built off to the side and
        published as one :class:`_IndexState` swap at the very end.
        Queries in flight on the threaded server keep scoring against
        the pre-extend index (and its still-valid query cache) until
        the swap lands; writers are serialized by the reload lock.
        """
        from repro.core.recognizer import AdvisingSentenceRecognizer

        recognizer = recognizer or AdvisingSentenceRecognizer(
            keywords=self.keywords, store=self.store,
            prefilter=self.prefilter)
        with self._reload_lock:
            index = self._index
            # the recognizer's counters are cumulative across its own
            # lifetime; only this extend's delta belongs to the tool
            stats_before = dict(
                getattr(recognizer, "prefilter_stats", None) or {})
            wrapper = Section(title=document.title, level=1)
            wrapper.subsections = list(document.sections)
            # appending at the tail and reindexing preserves every
            # existing sentence's global index, so the old index state
            # (and any in-flight query holding it) stays coherent
            self.document.sections.append(wrapper)
            self.document.reindex()
            # the wrapper shares the new document's Section (and
            # Sentence) objects, so after reindex() the recognition
            # results point straight at the merged document's
            # sentences, in order — classification is per-position,
            # immune to duplicate texts
            results = recognizer.recognize(document)
            added = [r.sentence for r in results if r.is_advising]
            provenance = dict(index.provenance)
            for result in results:
                if result.is_advising:
                    provenance[result.sentence.index] = result.selector
            advising = index.advising + tuple(added)
            # keep the annotation artifact aligned with the merged
            # document; extended on a copy so the old index's artifact
            # stays frozen at its own generation
            annotations = index.annotations
            if annotations is not None \
                    and recognizer.last_annotations is not None \
                    and len(recognizer.last_annotations) == len(results):
                annotations = annotations.copy()
                annotations.extend(recognizer.last_annotations)
            else:
                annotations = None      # alignment lost — fall back
            if refit:
                recommender = self._refit_recommender(
                    index.recommender, list(advising), annotations)
            else:
                recommender = index.recommender.extended(
                    added, [result.sentence for result in results],
                    annotations=annotations)
            self._index = _IndexState(
                advising=advising, recommender=recommender,
                annotations=annotations, provenance=provenance,
                generation=index.generation + 1)
            for key, count in (getattr(
                    recognizer, "prefilter_stats", None) or {}).items():
                delta = count - stats_before.get(key, 0)
                if delta:
                    self.prefilter_stats[key] = (
                        self.prefilter_stats.get(key, 0) + delta)
        if not refit and self.auto_compaction:
            self._maybe_compact_async()
        return len(added)

    # -- segment compaction ------------------------------------------------

    def _refit_recommender(
        self,
        old: KnowledgeRecommender,
        advising: list[Sentence],
        annotations: DocumentAnnotations | None,
    ) -> KnowledgeRecommender:
        """A from-scratch Stage II build over the merged corpus — the
        one event that changes existing weights, so the shared query
        cache is flushed wholesale and the weight epoch bumps (stale
        entries put by in-flight queries are rejected on read)."""
        if old.cache is not None:
            old.cache.invalidate_wholesale()
        return KnowledgeRecommender(
            advising, document=self.document, threshold=old.threshold,
            annotations=annotations, cache_size=0, cache=old.cache,
            prune=old.prune, epoch=old.epoch + 1)

    def _should_refit(self, recommender: KnowledgeRecommender) -> bool:
        """Doubling rule: refit once the documents ingested since the
        last fit match the documents the IDF was fitted on."""
        return recommender.stale_docs >= max(recommender.fit_docs, 1)

    def compact(self, full: bool = False) -> str:
        """One synchronous compaction step; returns what happened.

        ``"merged"`` — a tiered merge collapsed adjacent segments
        (structural: scores and warm cache untouched); ``"refitted"``
        — the index was rebuilt from scratch (``full=True`` or the
        staleness rule fired), flushing the cache and bumping the
        weight epoch; ``"noop"`` — the layout is already compact;
        ``"aborted"`` — a concurrent writer published a new generation
        while the replacement was being built, so it was discarded.

        The expensive build runs *off* the reload lock; publication
        re-checks the generation under the lock, so compaction never
        blocks ingestion or serving and never overwrites newer state.
        """
        index = self._index
        recommender = index.recommender
        if full or self._should_refit(recommender):
            replacement = self._refit_recommender(
                recommender, list(index.advising), index.annotations)
            outcome = "refitted"
        else:
            plan = plan_compaction(
                recommender.index.segment_sizes,
                self.segment_target_size, self.compaction_ratio)
            if plan is None:
                return "noop"
            replacement = recommender.with_merged(*plan)
            outcome = "merged"
        with self._reload_lock:
            if self._index.generation != index.generation:
                with self._compaction_lock:
                    self._compaction_stats["aborted"] += 1
                return "aborted"
            self._index = _IndexState(
                advising=index.advising, recommender=replacement,
                annotations=index.annotations,
                provenance=index.provenance,
                generation=index.generation + 1)
        with self._compaction_lock:
            self._compaction_stats[
                "refits" if outcome == "refitted" else "merges"] += 1
        return outcome

    def _maybe_compact_async(self) -> None:
        """Kick the background compaction worker if the layout needs
        it and no worker is already running (at most one at a time)."""
        recommender = self._index.recommender
        needed = self._should_refit(recommender) or plan_compaction(
            recommender.index.segment_sizes,
            self.segment_target_size, self.compaction_ratio) is not None
        if not needed:
            return
        with self._compaction_lock:
            if self._compaction_thread is not None \
                    and self._compaction_thread.is_alive():
                return
            thread = threading.Thread(
                target=self._compaction_worker,
                name="egeria-compaction", daemon=True)
            self._compaction_thread = thread
        thread.start()

    def _compaction_worker(self) -> None:
        try:
            # cascade: a merge can create a new same-tier run (or tip
            # the staleness rule), so keep stepping until quiescent; an
            # abort means a newer writer owns the layout now — its own
            # post-extend kick will resume compaction
            while self.compact() in ("merged", "refitted"):
                pass
        except Exception:
            logger.exception("background compaction failed")

    def compaction_stats(self) -> dict:
        """Cumulative compaction counters (the ``/healthz`` block)."""
        with self._compaction_lock:
            return dict(self._compaction_stats)

    # -- stats -----------------------------------------------------------------

    def selection_stats(self) -> dict:
        """Document vs selection sizes (paper Table 7)."""
        total = len(self.document)
        selected = len(self.advising_sentences)
        return {
            "document_sentences": total,
            "advising_sentences": selected,
            "ratio": (total / selected) if selected else float("inf"),
        }

    def health(self) -> dict:
        """Resilience view of this tool: build-time and answer-time
        degradation counters (the ``/healthz`` payload core)."""
        build_events = self.degradation_events
        with self._answer_lock:
            answer_events = tuple(self.answer_events)
        index = self._index     # one consistent generation throughout
        payload = {
            "status": "degraded" if (build_events or self.quarantined)
                      else "ok",
            "advising_sentences": len(index.advising),
            "document_sentences": len(self.document),
            "index_generation": index.generation,
            "degradation": {
                "build_events": len(build_events),
                "build_by_layer": summarize_events(build_events),
                "quarantined_sentences": len(self.quarantined),
                "answer_events": len(answer_events),
                "answer_by_layer": summarize_events(answer_events),
            },
        }
        segmented = index.recommender.index
        payload["index"] = {
            "segments": segmented.n_segments,
            "segment_sizes": list(segmented.segment_sizes),
            "weight_epoch": index.recommender.epoch,
            "fit_docs": index.recommender.fit_docs,
            "stale_docs": index.recommender.stale_docs,
            "compactions": self.compaction_stats(),
        }
        cache_stats = index.recommender.cache_stats()
        if cache_stats is not None:
            payload["query_cache"] = cache_stats
        if index.annotations is not None:
            payload["annotations"] = {
                "sentences": len(index.annotations),
                "complete_terms": index.annotations.complete_terms,
            }
        if self.store is not None:
            payload["annotation_store"] = self.store.stats()
        if self.prefilter is not None:
            payload["prefilter"] = {
                "enabled": True,
                "prefilter_skipped": self.prefilter_stats.get(
                    "skipped", 0),
                "prefilter_deferred": self.prefilter_stats.get(
                    "deferred", 0),
                "keyword_fast_path": self.prefilter_stats.get(
                    "keyword_fast_path", 0),
                "tau": self.prefilter.tau,
                "defer_tokens": len(self.prefilter.defer_tokens),
                "checksum": self.prefilter.checksum,
            }
        return payload
