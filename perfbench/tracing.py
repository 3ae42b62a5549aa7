"""Spans around the program's public callables, installed at run time.

Nothing in ``src/`` is edited: :func:`install` replaces a method or
module function with a timing wrapper and returns a function that puts
the originals back.  Each wrapped call is a *frame* on a per-thread
stack.  Its duration is added to the enclosing frame's child time, so
every name gets a self time (duration minus the time its wrapped
callees took).  A target is either

* a **span** — recorded one by one as ``(id, parent, name, start_ns,
  end_ns, request_id)``; used for calls made once per operation;
* **counted** — summed per ``(phase, name)`` as calls, total and self
  nanoseconds and failures; used for per-sentence annotation stages
  and the per-query inner calls, whose individual spans would cost
  more than they show.  A phase groups requests (all window queries
  of one connection, all extends); spans keep the request id.

Timestamps come from ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on
Linux), so spans written by the server process and the client's
request spans share one clock.  Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections.abc import Callable

_now = time.perf_counter_ns


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # egeria: guarded-by[self._lock]
        self._totals: dict[tuple, list[int]] = {}

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.request = self._local.phase = None
            return self._local.stack

    def begin(self, request, phase=None) -> None:
        """Tag this thread's spans with *request* and sum its counters
        under *phase* (default: the request itself)."""
        self._stack()
        self._local.request = request
        self._local.phase = request if phase is None else phase

    def _add(self, name: str, calls: int, total: int = 0, own: int = 0,
             failed: int = 0) -> None:
        key = (self._local.phase, name)
        with self._lock:
            entry = self._totals.get(key)
            if entry is None:
                entry = self._totals[key] = [0, 0, 0, 0]
            entry[0] += calls
            entry[1] += total
            entry[2] += own
            entry[3] += failed

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* of the current phase."""
        self._stack()
        self._add(name, amount)

    # -- the wrapper ----------------------------------------------------

    def wrap(self, name: str, func: Callable, span: bool,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """*func* timed under *name*.

        ``before(tracer, args, kwargs)`` may begin a request before the
        call; ``after(tracer, args, kwargs, result)`` records counts
        from a successful call's result.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if before is not None:
                before(tracer, args, kwargs)
            parent = stack[-1][1] if stack else None
            frame = [0, next(tracer._ids) if span else parent]
            stack.append(frame)
            failed = True
            start = _now()
            try:
                result = func(*args, **kwargs)
                failed = False
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer._add(name, 1, duration, duration - frame[0],
                            failed)
                if span:
                    tracer.spans.append((frame[1], parent, name, start,
                                         end, tracer._local.request))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- reading ------------------------------------------------------

    def totals(self) -> dict[tuple, list[int]]:
        """``{(phase, name): [calls, total_ns, self_ns, failures]}``."""
        with self._lock:
            return {key: list(entry)
                    for key, entry in self._totals.items()}

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON."""
        payload = {
            "spans": [list(span) for span in self.spans],
            "totals": [[phase, name, *entry] for (phase, name), entry
                       in self.totals().items()],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    @staticmethod
    def load(path: str) -> tuple[list[tuple], dict[tuple, list[int]]]:
        """Spans and counters written by :meth:`dump`."""
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        spans = [tuple(span) for span in payload["spans"]]
        totals = {(row[0], row[1]): list(row[2:])
                  for row in payload["totals"]}
        return spans, totals


def install(tracer: Tracer, targets) -> Callable[[], None]:
    """Wrap every ``(owner, attribute, name, span, before, after)``
    target; returns the function that restores the originals."""
    undo: list[tuple[object, str, object]] = []
    for owner, attribute, name, span, before, after in targets:
        if isinstance(owner, type):
            # the raw descriptor, possibly inherited from a base class
            own = owner.__dict__.get(attribute)
            raw = next(klass.__dict__[attribute] for klass in owner.__mro__
                       if attribute in klass.__dict__)
        else:
            own = raw = getattr(owner, attribute)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.wrap(name, raw.__func__, span,
                                            before, after))
        else:
            wrapped = tracer.wrap(name, raw, span, before, after)
        undo.append((owner, attribute, own))
        setattr(owner, attribute, wrapped)

    def uninstall() -> None:
        for owner, attribute, own in reversed(undo):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    return uninstall


# -- the layer map -----------------------------------------------------------


def _scored_rows(tracer: Tracer, args, kwargs, result) -> None:
    index = args[0]
    start_row = args[2] if len(args) > 2 else kwargs.get("start_row", 0)
    tracer.count("retrieval.rows_scored", len(result[0]))
    tracer.count("retrieval.rows_indexed", len(index) - start_row)


def _dense_rows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("retrieval.rows_scored", len(result))
    tracer.count("retrieval.rows_indexed", len(result))


def _request_from_environ(tracer: Tracer, args, kwargs) -> None:
    """Spans carry the client's request id; counters are summed per
    phase, the id without its last ``-`` field (``t-0-17`` -> ``t-0``)."""
    request = args[1].get("HTTP_X_REQUEST_ID")
    tracer.begin(request, request.rsplit("-", 1)[0] if request else None)


def layer_targets() -> list[tuple]:
    """Every public callable the per-layer metrics are computed from.

    Names follow the layer (package) that owns the callable; counted
    targets are the per-sentence and per-query inner loops.
    """
    from repro.core import binindex
    from repro.core.advisor import AdvisingTool
    from repro.core.egeria import Egeria
    from repro.core.recognizer import AdvisingSentenceRecognizer
    from repro.core.recommender import KnowledgeRecommender
    from repro.core.snapshots import SnapshotStore
    from repro.docs.document import Document
    from repro.docs.html_loader import HTMLDocumentLoader
    from repro.pipeline import stages
    from repro.retrieval.segments import SegmentedIndex
    from repro.stage1 import model as stage1_model
    from repro.textproc.normalize import NormalizationPipeline
    from repro.web.app import AdvisorApp
    from repro.web.server import ThreadingWSGIServer

    return [
        (HTMLDocumentLoader, "load", "docs.html", True, None, None),
        (Document, "from_text", "docs.text", True, None, None),
        (Document, "from_sentences", "docs.sentences", True, None, None),
        (stages.TokenizeStage, "run", "textproc.tokens", False, None,
         None),
        (stages.StemStage, "run", "textproc.stems", False, None, None),
        (stages.TermsStage, "run", "pipeline.terms", False, None, None),
        (stages.ParseStage, "run", "parsing.graph", False, None, None),
        (stages.SrlStage, "run", "srl.frames", False, None, None),
        (stage1_model, "train_prefilter_for_document", "stage1.train",
         True, None, None),
        (AdvisingSentenceRecognizer, "recognize", "recognizer.recognize",
         True, None, None),
        (Egeria, "build_advisor", "egeria.build", True, None, None),
        (KnowledgeRecommender, "__init__", "recommender.fit", True, None,
         None),
        (KnowledgeRecommender, "recommend", "recommender.recommend",
         False, None, None),
        (NormalizationPipeline, "normalize", "recommender.normalize",
         False, None, None),
        (SegmentedIndex, "query_tokens", "retrieval.query", False, None,
         None),
        (SegmentedIndex, "candidate_similarities", "retrieval.candidates",
         False, None, _scored_rows),
        (SegmentedIndex, "similarities", "retrieval.dense", False, None,
         _dense_rows),
        (SnapshotStore, "save", "snapshots.save", True, None, None),
        (binindex, "pack_index", "binindex.pack", True, None, None),
        (SnapshotStore, "load_with_report", "snapshots.load", True, None,
         None),
        (AdvisingTool, "extend", "ingest.extend", True, None, None),
        (AdvisingTool, "compact", "compaction.compact", True, None, None),
        (AdvisorApp, "__call__", "web.app", True, _request_from_environ,
         None),
        (ThreadingWSGIServer, "process_request_thread", "web.connection",
         True, None, None),
    ]
