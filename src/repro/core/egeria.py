"""The Egeria framework: advisor synthesis entry point.

"Through Egeria, one can easily construct an advising tool for a
certain HPC domain by providing Egeria with a programming guide or
other documents of that type" (§1).  The class wires Stage I and
Stage II together:

>>> from repro import Egeria, Document
>>> doc = Document.from_sentences([
...     "Use shared memory to reduce global memory traffic.",
...     "The warp size is 32 threads.",
... ])
>>> advisor = Egeria().build_advisor(doc)
>>> len(advisor.advising_sentences)
1
"""

from __future__ import annotations

import logging
import time
from collections.abc import Sequence

from repro.core.advisor import AdvisingTool  # noqa: F401 (re-export)
from repro.core.keywords import KeywordConfig
from repro.core.recognizer import AdvisingSentenceRecognizer
from repro.core.selectors import Selector
from repro.docs.document import Document
from repro.docs.html_loader import HTMLDocumentLoader
from repro.docs.markdown_loader import MarkdownDocumentLoader
from repro.pipeline.store import AnalysisStore
from repro.retrieval.segments import (
    DEFAULT_COMPACTION_RATIO,
    DEFAULT_SEGMENT_TARGET_SIZE,
)


logger = logging.getLogger("repro.core.egeria")


class Egeria:
    """Framework object: configuration + advisor factory."""

    def __init__(
        self,
        keywords: KeywordConfig | None = None,
        selectors: Sequence[Selector] | None = None,
        threshold: float = 0.15,
        workers: int = 1,
        degrade: bool = True,
        max_retries: int = 2,
        store: AnalysisStore | None = None,
        annotations_cache: str | None = None,
        use_annotations_store: bool = True,
        worker_min_sentences: int = 64,
        worker_chunk_size: int | None = None,
        segment_target_size: int = DEFAULT_SEGMENT_TARGET_SIZE,
        compaction_ratio: int = DEFAULT_COMPACTION_RATIO,
        auto_compaction: bool = True,
        prefilter=None,
        prefilter_path: str | None = None,
    ) -> None:
        """Configure the framework.

        ``store`` supplies an existing
        :class:`~repro.pipeline.store.AnalysisStore`;
        ``annotations_cache`` adds a persistent on-disk tier to a
        freshly created one (the ``--annotations-cache`` CLI knob);
        ``use_annotations_store=False`` disables annotation reuse
        entirely (``--no-annotations-cache``).

        ``worker_min_sentences`` and ``worker_chunk_size`` tune the
        multiprocessing dispatch path.

        ``segment_target_size``/``compaction_ratio`` parameterize the
        tiered merge policy of the segmented index write path, and
        ``auto_compaction=False`` (``--no-compaction``) keeps
        ``extend()`` from scheduling background merges.

        ``prefilter`` attaches a calibrated Stage I pre-filter
        (:class:`repro.stage1.model.AdvicePrefilter`);
        ``prefilter_path`` loads one from a trained artifact (the
        ``--prefilter-model`` CLI knob).  Confidently-negative
        sentences then skip the selector cascade entirely — see
        DESIGN.md §15 for the recall-safety contract.
        """
        self.keywords = keywords or KeywordConfig()
        if prefilter is None and prefilter_path is not None:
            from repro.stage1.model import AdvicePrefilter

            prefilter = AdvicePrefilter.load(prefilter_path)
        self.prefilter = prefilter
        self.threshold = threshold
        self.segment_target_size = segment_target_size
        self.compaction_ratio = compaction_ratio
        self.auto_compaction = auto_compaction
        if store is not None:
            self.store: AnalysisStore | None = store
        elif use_annotations_store:
            self.store = AnalysisStore(cache_dir=annotations_cache)
        else:
            self.store = None
        self.recognizer = AdvisingSentenceRecognizer(
            keywords=self.keywords, selectors=selectors, workers=workers,
            degrade=degrade, max_retries=max_retries, store=self.store,
            worker_min_sentences=worker_min_sentences,
            worker_chunk_size=worker_chunk_size,
            prefilter=self.prefilter)

    # -- advisor synthesis ---------------------------------------------------

    def build_advisor(
        self, document: Document, name: str | None = None
    ) -> AdvisingTool:
        """Synthesize an advising tool from a loaded document.

        Stage I degradations (failed NLP layers, worker crashes,
        quarantined sentences) are carried on the returned tool rather
        than raised, so a partially degraded build still serves.
        """
        started = time.perf_counter()
        results = self.recognizer.recognize(document)
        advising = [r.sentence for r in results if r.is_advising]
        provenance = {i: r.selector
                      for i, r in enumerate(results) if r.is_advising}
        annotations = self.recognizer.last_annotations
        events: list = []
        for result in results:
            events.extend(result.events)
        events.extend(self.recognizer.last_worker_events)
        quarantined = tuple(r for r in results if r.quarantined)
        elapsed = time.perf_counter() - started
        total = len(document)
        logger.info(
            "built advisor for %r: %d/%d sentences advising "
            "(%.1fx compression) in %.2fs",
            document.title, len(advising), total,
            (total / len(advising)) if advising else float("inf"),
            elapsed)
        if events or quarantined:
            logger.warning(
                "advisor for %r built degraded: %d degradation events, "
                "%d quarantined sentences",
                document.title, len(events), len(quarantined))
        return AdvisingTool(
            document, advising, threshold=self.threshold, name=name,
            degradation_events=tuple(events), quarantined=quarantined,
            annotations=annotations, provenance=provenance,
            keywords=self.keywords, store=self.store,
            segment_target_size=self.segment_target_size,
            compaction_ratio=self.compaction_ratio,
            auto_compaction=self.auto_compaction,
            prefilter=self.prefilter,
            prefilter_stats=dict(self.recognizer.prefilter_stats))

    def build_advisor_from_html(
        self, html: str, title: str | None = None
    ) -> AdvisingTool:
        """Load HTML guide text and synthesize an advising tool."""
        document = HTMLDocumentLoader().load(html, title=title)
        return self.build_advisor(document)

    def build_advisor_from_markdown(
        self, text: str, title: str | None = None
    ) -> AdvisingTool:
        """Load a Markdown guide and synthesize an advising tool."""
        document = MarkdownDocumentLoader().load(text, title=title)
        return self.build_advisor(document)

    def build_advisor_multi(
        self,
        documents: Sequence[Document],
        name: str | None = None,
    ) -> AdvisingTool:
        """Synthesize one advising tool from several documents.

        The paper's framing is plural — "a programming guide or other
        documents of that type" (§1).  Each input document becomes a
        top-level section (titled by the document), so answers still
        point back to their source; Stage I and Stage II operate on
        the merged collection.
        """
        from repro.docs.document import Section

        merged = Document(name or "combined")
        for document in documents:
            wrapper = Section(title=document.title, level=1)
            wrapper.subsections = list(document.sections)
            merged.sections.append(wrapper)
        merged.reindex()
        return self.build_advisor(merged, name=name)
