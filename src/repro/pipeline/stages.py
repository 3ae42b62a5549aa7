"""Composable annotation stages — the one-pass NLP pipeline.

Each :class:`Stage` declares what it ``requires`` and what layer it
``provides``; :class:`AnnotationPipeline` resolves the dependencies and
runs only the stages a consumer actually needs, memoizing every result
on the :class:`~repro.pipeline.annotations.SentenceAnnotations` record.
This preserves the property the selector cascade depends on (paper
§3.1): a sentence accepted by the keyword selector never pays for
parsing, because ``ensure(ann, "stems")`` runs tokenize+stem and
nothing deeper.

Every stage keeps its historical fault point (``analysis.tokenize`` /
``analysis.stem`` / ``analysis.parse`` / ``analysis.srl``), so chaos
plans written against the pre-pipeline layout keep working; the terms
stage adds ``analysis.terms``.  A stage failure propagates to the
caller exactly as the old lazy properties did — the degradation ladder
in :mod:`repro.resilience.degrade` turns it into a per-sentence,
per-layer fallback.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol, runtime_checkable

from repro.pipeline.annotations import SentenceAnnotations
from repro.pipeline.store import AnalysisStore
from repro.resilience.faults import fault_point


@runtime_checkable
class Stage(Protocol):
    """One annotation pass: consumes ``requires``, fills ``provides``."""

    #: short identifier (diagnostics, ``describe()``)
    name: str
    #: layers that must be present before :meth:`run`
    requires: tuple[str, ...]
    #: the single layer this stage computes
    provides: str

    def run(self, annotations: SentenceAnnotations):
        """Compute this stage's layer from the prerequisite layers."""
        ...


class TokenizeStage:
    """Word tokenization (lexical layer)."""

    name = "tokenize"
    requires: tuple[str, ...] = ()
    provides = "tokens"

    def __init__(self, tokenizer=None) -> None:
        if tokenizer is None:
            from repro.textproc.word_tokenizer import WordTokenizer

            tokenizer = WordTokenizer()
        self.tokenizer = tokenizer

    def run(self, annotations: SentenceAnnotations) -> list[str]:
        fault_point("analysis.tokenize")
        return self.tokenizer.tokenize(annotations.text)


class StemStage:
    """Porter stems of the raw tokens (lexical layer, Stage I view)."""

    name = "stem"
    requires = ("tokens",)
    provides = "stems"

    def __init__(self, stemmer=None) -> None:
        if stemmer is None:
            from repro.textproc.porter import PorterStemmer

            stemmer = PorterStemmer()
        self.stemmer = stemmer

    def run(self, annotations: SentenceAnnotations) -> list[str]:
        fault_point("analysis.stem")
        stem = self.stemmer.stem
        return [stem(token) for token in annotations.tokens]


class TermsStage:
    """Normalized retrieval terms (lexical layer, Stage II view).

    Runs the full normalization pipeline (lowercase, drop punctuation
    and stopwords, stem) over the already-computed tokens — by
    construction identical to ``NormalizationPipeline()(text)``, which
    is what makes annotation-fed retrieval score-identical to the old
    re-tokenizing path.

    Demand-driven fast path: with the default stemmer and normalizer,
    the terms of a sentence whose ``stems`` layer is already present
    are *derived* rather than recomputed — the normalizer's steps are
    punct-drop, stopword-drop (both on the raw token), lowercase, stem,
    and ``PorterStemmer.stem`` lowercases its input itself, so the
    surviving tokens' terms are exactly their already-computed stems.
    This removes the second stemming pass Stage I used to pay on every
    sentence (the stems layer for keyword matching, then a full re-stem
    for retrieval terms).  Both paths go through the normalizer's
    token -> term memo, so a token is tested for punctuation and
    stopwords once per stage.  ``derive_from_stems`` is only enabled by
    :func:`default_stages` when both components are the defaults; any
    custom stemmer or normalizer keeps the reference path.
    """

    name = "terms"
    requires = ("tokens",)
    provides = "terms"

    def __init__(self, normalizer=None,
                 derive_from_stems: bool = False) -> None:
        if normalizer is None:
            from repro.textproc.normalize import NormalizationPipeline

            normalizer = NormalizationPipeline()
        self.normalizer = normalizer
        self.derive_from_stems = derive_from_stems

    def run(self, annotations: SentenceAnnotations) -> list[str]:
        fault_point("analysis.terms")
        stems = annotations.stems
        if self.derive_from_stems and stems is not None:
            return self.normalizer.terms_from_stems(annotations.tokens, stems)
        return self.normalizer.normalize_tokens(annotations.tokens)


class ParseStage:
    """Dependency parsing (syntax layer)."""

    name = "parse"
    requires = ("tokens",)
    provides = "graph"

    def __init__(self, parser=None) -> None:
        if parser is None:
            from repro.parsing.parser import DependencyParser

            parser = DependencyParser()
        self.parser = parser

    def run(self, annotations: SentenceAnnotations):
        fault_point("analysis.parse")
        return self.parser.parse(annotations.tokens)


class SrlStage:
    """Semantic role labeling (SRL layer)."""

    name = "srl"
    requires = ("graph",)
    provides = "frames"

    def __init__(self, labeler=None) -> None:
        if labeler is None:
            from repro.srl.labeler import SemanticRoleLabeler

            labeler = SemanticRoleLabeler()
        self.labeler = labeler

    def run(self, annotations: SentenceAnnotations):
        fault_point("analysis.srl")
        return self.labeler.label(annotations.graph)


def default_stages(tokenizer=None, stemmer=None, normalizer=None,
                   parser=None, labeler=None) -> list[Stage]:
    """The five standard stages: tokenize → stem/terms → parse → SRL.

    With the default stemmer *and* normalizer the terms stage derives
    its output from an already-present stems layer (see
    :class:`TermsStage`); any custom component disables the shortcut
    because the two passes are no longer guaranteed to agree.
    """
    return [
        TokenizeStage(tokenizer),
        StemStage(stemmer),
        TermsStage(normalizer,
                   derive_from_stems=stemmer is None and normalizer is None),
        ParseStage(parser),
        SrlStage(labeler),
    ]


class LayerStats:
    """Thread-safe per-layer materialization counters.

    One instance is shared by every :class:`ObservedStage` of an
    observed pipeline; ``snapshot()`` reports, per annotation layer,
    how many times its stage actually ran, failed, and how long it
    took — the evidence behind "the lazy cascade parsed only 18% of
    the sentences".
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.runs: dict[str, int] = {}      # egeria: guarded-by[self._lock]
        self.failures: dict[str, int] = {}  # egeria: guarded-by[self._lock]
        self.seconds: dict[str, float] = {}  # egeria: guarded-by[self._lock]

    def record(self, layer: str, seconds: float,
               failed: bool = False) -> None:
        with self._lock:
            self.runs[layer] = self.runs.get(layer, 0) + 1
            self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds
            if failed:
                self.failures[layer] = self.failures.get(layer, 0) + 1

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {
                layer: {
                    "runs": self.runs.get(layer, 0),
                    "failures": self.failures.get(layer, 0),
                    "seconds": self.seconds.get(layer, 0.0),
                }
                for layer in sorted(self.runs)
            }


class ObservedStage:
    """Per-layer lazy stage wrapper: delegates to the wrapped stage
    and records the layer-level outcome on a shared
    :class:`LayerStats`.

    The wrapped stage's own fault point fires at materialization time
    (inside the delegated ``run``), so the wrapper never needs — and
    must not add — a second hook for the same layer.
    """

    # mirrored from the wrapped stage per instance; the class-level
    # defaults exist so the wrapper satisfies the Stage protocol
    name = "observed"
    requires: tuple[str, ...] = ()
    provides = ""

    def __init__(self, inner: Stage, stats: LayerStats) -> None:
        self.inner = inner
        self.name = inner.name
        self.requires = inner.requires
        self.provides = inner.provides
        self._stats = stats

    def __getattr__(self, attribute: str):
        # component views (tokenizer/stemmer/...) pass through; the
        # "inner" guard keeps unpickling from recursing before state
        # is restored
        if attribute == "inner":
            raise AttributeError(attribute)
        return getattr(self.inner, attribute)

    def run(self, annotations: SentenceAnnotations):
        started = time.perf_counter()
        try:
            value = self.inner.run(annotations)
        except Exception:
            self._stats.record(self.provides,
                               time.perf_counter() - started, failed=True)
            raise
        self._stats.record(self.provides, time.perf_counter() - started)
        return value


class AnnotationPipeline:
    """Dependency-resolved execution of annotation stages.

    The pipeline is demand-driven: :meth:`ensure` computes a single
    layer (and its prerequisites) on one sentence; :meth:`annotate`
    produces a whole :class:`SentenceAnnotations` record, consulting
    the optional :class:`~repro.pipeline.store.AnalysisStore` first so
    a sentence ever seen before is never re-analyzed.
    """

    def __init__(self, stages: list[Stage] | None = None,
                 store: AnalysisStore | None = None) -> None:
        self.stages: list[Stage] = (list(stages) if stages is not None
                                    else default_stages())
        self.store = store
        self._providers: dict[str, Stage] = {}
        for stage in self.stages:
            if stage.provides in self._providers:
                raise ValueError(
                    f"duplicate stage for layer {stage.provides!r}")
            self._providers[stage.provides] = stage
        for stage in self.stages:
            missing = [req for req in stage.requires
                       if req not in self._providers]
            if missing:
                raise ValueError(
                    f"stage {stage.name!r} requires unprovided "
                    f"layers {missing}")

    # -- component access (compat with the pre-pipeline analyzer) -------

    def stage_for(self, layer: str) -> Stage | None:
        return self._providers.get(layer)

    @property
    def tokenizer(self):
        return getattr(self.stage_for("tokens"), "tokenizer", None)

    @property
    def stemmer(self):
        return getattr(self.stage_for("stems"), "stemmer", None)

    @property
    def normalizer(self):
        return getattr(self.stage_for("terms"), "normalizer", None)

    @property
    def parser(self):
        return getattr(self.stage_for("graph"), "parser", None)

    @property
    def labeler(self):
        return getattr(self.stage_for("frames"), "labeler", None)

    # -- execution ------------------------------------------------------

    def ensure(self, annotations: SentenceAnnotations, layer: str):
        """Compute *layer* (and prerequisites) on *annotations*.

        Memoized: already-present layers are returned as-is, so a
        store-warmed record costs nothing.  A stage failure (including
        injected faults) propagates to the caller; previously computed
        layers stay valid.
        """
        existing = annotations.get(layer)
        if existing is not None:
            return existing
        stage = self._providers.get(layer)
        if stage is None:
            raise KeyError(f"no stage provides layer {layer!r}")
        for requirement in stage.requires:
            self.ensure(annotations, requirement)
        value = stage.run(annotations)
        annotations.set(layer, value)
        return value

    def fresh(self, text: str) -> SentenceAnnotations:
        """A new empty record (store consulted, never written)."""
        if self.store is not None:
            cached = self.store.get(text)
            if cached is not None:
                return cached
        return SentenceAnnotations(text=text)

    def annotate(self, text: str,
                 layers: tuple[str, ...] = ("tokens", "stems", "terms"),
                 ) -> SentenceAnnotations:
        """Annotate *text* with *layers*, reusing and feeding the store."""
        annotations = self.fresh(text)
        for layer in layers:
            self.ensure(annotations, layer)
        if self.store is not None:
            self.store.put(text, annotations)
        return annotations

    def observed(self, stats: LayerStats | None = None
                 ) -> tuple["AnnotationPipeline", LayerStats]:
        """A pipeline whose stages report into a shared
        :class:`LayerStats` — same components, same fault points, plus
        per-layer materialization accounting."""
        stats = stats if stats is not None else LayerStats()
        wrapped = [stage if isinstance(stage, ObservedStage)
                   else ObservedStage(stage, stats)
                   for stage in self.stages]
        return AnnotationPipeline(wrapped, store=self.store), stats

    def describe(self) -> list[dict]:
        """Stage graph as data (diagnostics / DESIGN.md §7 example)."""
        return [
            {"name": stage.name, "requires": list(stage.requires),
             "provides": stage.provides}
            for stage in self.stages
        ]
