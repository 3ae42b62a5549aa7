"""Configuration files for Egeria deployments.

The artifact description (§A) has users "setup the host IP address
(host) and the port number (port) in configuration files" and
"customize the set of keywords used in the selectors by modifying the
configuration file: Config.py".  This module is the equivalent: a JSON
config holding server settings, pipeline knobs, and per-domain keyword
extensions.

Example ``egeria.json``::

    {
      "host": "0.0.0.0",
      "port": 8080,
      "workers": 4,
      "threshold": 0.15,
      "keywords": {
        "flagging_words": ["have to be"],
        "key_subjects": ["user", "one"]
      }
    }
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.core.keywords import KeywordConfig

_KEYWORD_FIELDS = ("flagging_words", "xcomp_governors",
                   "imperative_words", "key_subjects", "key_predicates")


#: default cap on request bodies accepted by the web app (8 MiB)
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: default per-request time budget for the web app (10 s)
DEFAULT_DEADLINE_MS = 10_000

#: default cap on concurrently executing (gated) requests
DEFAULT_MAX_IN_FLIGHT = 64

#: ``Retry-After`` hint (seconds) on 429/503 load-shedding responses
DEFAULT_RETRY_AFTER_S = 1

#: default budget for the SIGTERM graceful drain (10 s)
DEFAULT_DRAIN_TIMEOUT_MS = 10_000


@dataclass(frozen=True)
class EgeriaConfig:
    """Deployment configuration.

    The resilience knobs mirror the CLI flags: ``max_retries`` bounds
    per-batch worker re-dispatch in Stage I, ``deadline_ms`` is the web
    layer's per-request budget, ``degrade`` toggles the NLP degradation
    ladder, ``max_body_bytes`` caps uploads, and ``fault_plan`` names a
    JSON fault-plan file to activate (chaos testing).
    """

    host: str = "127.0.0.1"
    port: int = 8000
    workers: int = 1
    threshold: float = 0.15
    keyword_extensions: dict[str, tuple[str, ...]] = field(
        default_factory=dict)
    max_retries: int = 2
    deadline_ms: int = DEFAULT_DEADLINE_MS
    degrade: bool = True
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    fault_plan: str | None = None
    #: on-disk tier for the annotation store (``--annotations-cache``);
    #: None keeps the store in-memory only
    annotations_cache: str | None = None
    #: Stage I dispatch: batches smaller than this stay on the in-process
    #: path even when ``workers > 1`` (pool startup dominates tiny jobs)
    worker_min_sentences: int = 64
    #: Stage I dispatch: sentences per worker chunk; None picks
    #: ``max(16, n // (workers * 4))`` adaptively
    worker_chunk_size: int | None = None
    #: root directory of the versioned snapshot store (``serve
    #: --snapshots``); None disables crash-safe persistence and reload
    snapshots: str | None = None
    #: committed snapshot versions retained after each save
    snapshot_keep: int = 3
    #: admission-control cap on concurrently executing requests
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    #: how long SIGTERM waits for in-flight requests before hard stop
    drain_timeout_ms: int = DEFAULT_DRAIN_TIMEOUT_MS
    #: target rows per freshly sealed index segment (tier 0 of the
    #: compaction policy); ``--segment-target-size``
    segment_target_size: int = 256
    #: tiered-merge fan-in: adjacent same-tier segments merged per
    #: compaction step; ``--compaction-ratio``
    compaction_ratio: int = 4
    #: background segment compaction after ``extend()``
    #: (``--no-compaction`` disables it)
    compaction: bool = True
    #: learned Stage I pre-filter (``--prefilter``/``--no-prefilter``):
    #: confidently-negative sentences skip the selector cascade; needs
    #: ``prefilter_model`` to take effect
    prefilter: bool = True
    #: path to a trained pre-filter artifact (``train-prefilter``
    #: output; the ``--prefilter-model`` CLI knob)
    prefilter_model: str | None = None
    #: extra conservatism subtracted from the calibrated margin
    #: threshold (``--prefilter-slack``); 0.0 serves the calibration
    #: exactly as fitted
    prefilter_margin_slack: float = 0.0

    def keyword_config(self, base: KeywordConfig | None = None
                       ) -> KeywordConfig:
        """The Table 2 sets extended with this config's additions."""
        config = base or KeywordConfig()
        if self.keyword_extensions:
            config = config.extend(**{
                name: tuple(values)
                for name, values in self.keyword_extensions.items()
            })
        return config

    # -- (de)serialization ------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "EgeriaConfig":
        unknown = set(data) - {"host", "port", "workers", "threshold",
                               "keywords", "max_retries", "deadline_ms",
                               "degrade", "max_body_bytes", "fault_plan",
                               "annotations_cache", "worker_min_sentences",
                               "worker_chunk_size", "snapshots",
                               "snapshot_keep", "max_in_flight",
                               "drain_timeout_ms",
                               "segment_target_size", "compaction_ratio",
                               "compaction", "prefilter",
                               "prefilter_model",
                               "prefilter_margin_slack"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        keyword_extensions: dict[str, tuple[str, ...]] = {}
        for name, values in (data.get("keywords") or {}).items():
            if name not in _KEYWORD_FIELDS:
                raise ValueError(
                    f"unknown keyword set {name!r}; expected one of "
                    f"{_KEYWORD_FIELDS}")
            if not isinstance(values, list) or not all(
                    isinstance(v, str) for v in values):
                raise ValueError(f"keyword set {name!r} must be a list "
                                 "of strings")
            keyword_extensions[name] = tuple(values)
        threshold = float(data.get("threshold", 0.15))
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        workers = int(data.get("workers", 1))
        if workers < 1:
            raise ValueError("workers must be >= 1")
        max_retries = int(data.get("max_retries", 2))
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        deadline_ms = int(data.get("deadline_ms", DEFAULT_DEADLINE_MS))
        if deadline_ms < 1:
            raise ValueError("deadline_ms must be >= 1")
        max_body_bytes = int(data.get("max_body_bytes",
                                      DEFAULT_MAX_BODY_BYTES))
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        fault_plan = data.get("fault_plan")
        annotations_cache = data.get("annotations_cache")
        worker_min_sentences = int(data.get("worker_min_sentences", 64))
        if worker_min_sentences < 1:
            raise ValueError("worker_min_sentences must be >= 1")
        worker_chunk_size = data.get("worker_chunk_size")
        if worker_chunk_size is not None:
            worker_chunk_size = int(worker_chunk_size)
            if worker_chunk_size < 1:
                raise ValueError("worker_chunk_size must be >= 1 or null")
        snapshots = data.get("snapshots")
        snapshot_keep = int(data.get("snapshot_keep", 3))
        if snapshot_keep < 1:
            raise ValueError("snapshot_keep must be >= 1")
        max_in_flight = int(data.get("max_in_flight",
                                     DEFAULT_MAX_IN_FLIGHT))
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        drain_timeout_ms = int(data.get("drain_timeout_ms",
                                        DEFAULT_DRAIN_TIMEOUT_MS))
        if drain_timeout_ms < 0:
            raise ValueError("drain_timeout_ms must be >= 0")
        segment_target_size = int(data.get("segment_target_size", 256))
        if segment_target_size < 1:
            raise ValueError("segment_target_size must be >= 1")
        compaction_ratio = int(data.get("compaction_ratio", 4))
        if compaction_ratio < 2:
            raise ValueError("compaction_ratio must be >= 2")
        prefilter_model = data.get("prefilter_model")
        prefilter_margin_slack = float(
            data.get("prefilter_margin_slack", 0.0))
        if prefilter_margin_slack < 0.0:
            raise ValueError("prefilter_margin_slack must be >= 0")
        return cls(
            host=str(data.get("host", "127.0.0.1")),
            port=int(data.get("port", 8000)),
            workers=workers,
            threshold=threshold,
            keyword_extensions=keyword_extensions,
            max_retries=max_retries,
            deadline_ms=deadline_ms,
            degrade=bool(data.get("degrade", True)),
            max_body_bytes=max_body_bytes,
            fault_plan=None if fault_plan is None else str(fault_plan),
            annotations_cache=(None if annotations_cache is None
                               else str(annotations_cache)),
            worker_min_sentences=worker_min_sentences,
            worker_chunk_size=worker_chunk_size,
            snapshots=None if snapshots is None else str(snapshots),
            snapshot_keep=snapshot_keep,
            max_in_flight=max_in_flight,
            drain_timeout_ms=drain_timeout_ms,
            segment_target_size=segment_target_size,
            compaction_ratio=compaction_ratio,
            compaction=bool(data.get("compaction", True)),
            prefilter=bool(data.get("prefilter", True)),
            prefilter_model=(None if prefilter_model is None
                             else str(prefilter_model)),
            prefilter_margin_slack=prefilter_margin_slack,
        )

    @classmethod
    def load(cls, path: str) -> "EgeriaConfig":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "threshold": self.threshold,
            "keywords": {name: list(values)
                         for name, values in
                         self.keyword_extensions.items()},
            "max_retries": self.max_retries,
            "deadline_ms": self.deadline_ms,
            "degrade": self.degrade,
            "max_body_bytes": self.max_body_bytes,
            "fault_plan": self.fault_plan,
            "annotations_cache": self.annotations_cache,
            "worker_min_sentences": self.worker_min_sentences,
            "worker_chunk_size": self.worker_chunk_size,
            "snapshots": self.snapshots,
            "snapshot_keep": self.snapshot_keep,
            "max_in_flight": self.max_in_flight,
            "drain_timeout_ms": self.drain_timeout_ms,
            "segment_target_size": self.segment_target_size,
            "compaction_ratio": self.compaction_ratio,
            "compaction": self.compaction,
            "prefilter": self.prefilter,
            "prefilter_model": self.prefilter_model,
            "prefilter_margin_slack": self.prefilter_margin_slack,
        }

    def save(self, path: str) -> None:
        # stage-and-rename, not truncate-in-place: a crash mid-dump
        # must not destroy the deployment's only config file
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=2)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        os.replace(tmp, path)
