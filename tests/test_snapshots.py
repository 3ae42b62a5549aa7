"""Crash-safety tests for the versioned snapshot store.

The acceptance bar: a save killed at *any* fault point never leaves
the store unloadable — load always recovers the last committed
snapshot, bit-identical to what was saved.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import Document, Egeria
from repro.core.persistence import PersistenceError, load_advisor
from repro.core.snapshots import (
    CURRENT_NAME,
    MANIFEST_NAME,
    PAYLOAD_NAME,
    SNAPSHOT_PREFIX,
    SnapshotError,
    SnapshotStore,
)
from repro.resilience.faults import (
    FaultError,
    FaultPlan,
    FaultSpec,
    inject,
)

SENTENCES = [
    "Use shared memory tiles to improve effective bandwidth.",
    "Avoid divergent branches inside warps.",
    "Coalesce global memory accesses in tight loops.",
]

QUERIES = ["how to improve memory bandwidth", "divergent branches"]


def _advisor():
    return Egeria().build_advisor(
        Document.from_sentences(SENTENCES, title="Crash Guide"))


def _answers(tool) -> list[dict]:
    """Answer payloads with the section label dropped — persistence
    normalizes section headings (a pre-existing round-trip quirk), but
    sentences, scores, and matched terms must stay bit-identical."""
    result = []
    for query in QUERIES:
        payload = tool.query(query).to_dict()
        for entry in payload.get("answers", []):
            entry.pop("section", None)
        result.append(payload)
    return result


class TestRoundTrip:
    def test_save_load_bit_identical_scores(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path))
        advisor = _advisor()
        info = store.save(advisor)
        assert info.version == 1
        assert info.checksum.startswith("sha256:")
        loaded = store.load()
        assert _answers(loaded) == _answers(advisor)

    def test_versions_are_monotonic_and_current_tracks(self,
                                                       tmp_path) -> None:
        store = SnapshotStore(str(tmp_path), keep=10)
        advisor = _advisor()
        assert store.save(advisor).version == 1
        assert store.save(advisor).version == 2
        assert store.versions() == [1, 2]
        assert store.current_version() == 2

    def test_empty_store_raises(self, tmp_path) -> None:
        with pytest.raises(SnapshotError):
            SnapshotStore(str(tmp_path)).load()

    def test_verify(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path))
        store.save(_advisor())
        assert store.verify(1)
        assert not store.verify(99)


def _count_checks(store: SnapshotStore, advisor, point: str) -> int:
    """How many times *point* is consulted during one clean save."""
    plan = FaultPlan(specs=(FaultSpec(point=point, probability=0.0),))
    with inject(plan) as injector:
        store.save(advisor)
    return injector.checks.get(point, 0)


class TestCrashDuringSave:
    """Kill the save at every offset class of every snapshot fault
    point; the store must stay loadable and serve the last committed
    snapshot afterwards."""

    @pytest.mark.parametrize("point", ["snapshot.write",
                                       "snapshot.commit"])
    def test_kill_at_every_offset_recovers(self, tmp_path,
                                           point: str) -> None:
        store = SnapshotStore(str(tmp_path), keep=100)
        advisor = _advisor()
        store.save(advisor)
        baseline = _answers(advisor)
        checks_per_save = _count_checks(store, advisor, point)
        assert checks_per_save >= 1
        for offset in range(checks_per_save):
            plan = FaultPlan(
                name=f"kill-{point}-at-{offset}",
                specs=(FaultSpec(point=point, probability=1.0,
                                 exception=OSError, after=offset,
                                 max_failures=1),))
            with inject(plan):
                with pytest.raises(OSError):
                    store.save(advisor)
            # the store survived the crash: it still loads, and what
            # it loads matches what was last committed, bit for bit
            recovered = store.load()
            assert _answers(recovered) == baseline
        # and the store is not wedged: a clean save still works
        info = store.save(advisor)
        assert store.current_version() == info.version
        assert _answers(store.load()) == baseline

    def test_crashed_save_leaves_no_staging_garbage(self,
                                                    tmp_path) -> None:
        store = SnapshotStore(str(tmp_path))
        advisor = _advisor()
        plan = FaultPlan(specs=(FaultSpec(point="snapshot.write",
                                          exception=OSError,
                                          max_failures=1),))
        with inject(plan):
            with pytest.raises(OSError):
                store.save(advisor)
        leftovers = [entry for entry in os.listdir(store.root)
                     if entry.startswith(".staging")]
        assert leftovers == []


class TestCrashDuringCompaction:
    """Kill-during-compaction: saves of a multi-segment advisor die at
    every fault offset while compaction keeps publishing new index
    generations in between — the store must keep recovering the last
    committed segmented snapshot bit for bit, and a clean save must
    still work once the faults clear."""

    EXTENSIONS = (
        ["Use pinned memory to accelerate host transfers.",
         "Prefer warp-level primitives over shared-memory reductions."],
        ["Use vector loads for aligned global memory.",
         "Overlap transfers with computation using streams."],
    )

    @pytest.mark.parametrize("point", ["snapshot.write",
                                       "snapshot.commit"])
    def test_kill_at_every_offset_recovers_segments(
            self, tmp_path, point: str) -> None:
        # base bigger than the eventual growth so the staleness rule
        # never refits: the interleaved compact() calls below perform
        # structural merges only, which keep every answer unchanged
        advisor = Egeria().build_advisor(Document.from_sentences(
            SENTENCES + [
                "Use constant memory for broadcast reads.",
                "Pad shared arrays to avoid bank conflicts.",
                "Batch small kernels to amortize launch overhead.",
            ], title="Crash Guide"))
        advisor.auto_compaction = False   # compaction runs explicitly
        advisor.compaction_ratio = 2      # merges fire on tiny layouts
        for position, sentences in enumerate(self.EXTENSIONS):
            advisor.extend(Document.from_sentences(
                sentences, title=f"Extension {position}"))
        segments = advisor.recommender.index.n_segments
        assert segments >= 3
        store = SnapshotStore(str(tmp_path), keep=100)
        store.save(advisor)
        baseline = _answers(advisor)
        checks_per_save = _count_checks(store, advisor, point)
        assert checks_per_save >= 1
        for offset in range(checks_per_save):
            plan = FaultPlan(
                name=f"kill-{point}-at-{offset}",
                specs=(FaultSpec(point=point, probability=1.0,
                                 exception=OSError, after=offset,
                                 max_failures=1),))
            with inject(plan):
                with pytest.raises(OSError):
                    store.save(advisor)
            # a compaction step lands between the crashed saves: the
            # in-memory advisor moves on, the committed snapshot must
            # not — it reloads with its full segment layout intact
            advisor.compact()
            recovered = store.load()
            assert _answers(recovered) == baseline
            assert recovered.recommender.index.n_segments == segments
        # the store is not wedged, and the post-compaction advisor
        # round-trips exactly (compaction may have refit the weights,
        # so compare against its current answers, not the baseline)
        info = store.save(advisor)
        assert store.current_version() == info.version
        assert _answers(store.load()) == _answers(advisor)


class TestCorruptionFallback:
    def _corrupt_payload(self, store: SnapshotStore,
                         version: int) -> None:
        path = os.path.join(store.root,
                            f"{SNAPSHOT_PREFIX}{version}", PAYLOAD_NAME)
        with open(path, "r+b") as handle:
            handle.seek(10)
            byte = handle.read(1)
            handle.seek(10)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_flipped_bit_falls_back_to_previous(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path))
        advisor = _advisor()
        store.save(advisor)
        baseline = _answers(advisor)
        store.save(advisor)
        self._corrupt_payload(store, 2)
        tool, report = store.load_with_report()
        assert report.version == 1
        assert report.recovered
        assert [entry[0] for entry in report.skipped] == [2]
        assert "checksum" in report.skipped[0][1]
        assert _answers(tool) == baseline

    def test_corrupt_manifest_falls_back(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path))
        store.save(_advisor())
        store.save(_advisor())
        manifest = os.path.join(store.root, f"{SNAPSHOT_PREFIX}2",
                                MANIFEST_NAME)
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        tool, report = store.load_with_report()
        assert report.version == 1
        assert report.recovered

    def test_missing_current_uses_newest(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path))
        store.save(_advisor())
        store.save(_advisor())
        os.unlink(os.path.join(store.root, CURRENT_NAME))
        tool, report = store.load_with_report()
        assert report.version == 2
        assert report.current_version is None
        assert not report.recovered

    def test_every_version_corrupt_raises(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path))
        store.save(_advisor())
        store.save(_advisor())
        self._corrupt_payload(store, 1)
        self._corrupt_payload(store, 2)
        with pytest.raises(SnapshotError) as excinfo:
            store.load()
        # the error names every skipped version and why it was skipped
        message = str(excinfo.value)
        assert "snapshot-2: checksum mismatch" in message
        assert "snapshot-1: checksum mismatch" in message

    def test_injected_load_faults_fall_back(self, tmp_path) -> None:
        """A transient read error on the newest version routes to the
        previous one instead of crashing the caller."""
        store = SnapshotStore(str(tmp_path))
        advisor = _advisor()
        store.save(advisor)
        store.save(advisor)
        plan = FaultPlan(specs=(FaultSpec(point="snapshot.load",
                                          exception=OSError,
                                          max_failures=1),))
        with inject(plan):
            tool, report = store.load_with_report()
        assert report.version == 1
        assert report.recovered


class TestRetention:
    def test_gc_keeps_newest(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path), keep=2)
        advisor = _advisor()
        for _ in range(4):
            store.save(advisor)
        assert store.versions() == [3, 4]
        assert store.current_version() == 4

    def test_gc_never_removes_current_target(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path), keep=5)
        advisor = _advisor()
        for _ in range(3):
            store.save(advisor)
        # pin CURRENT to an old version, then GC aggressively
        with open(os.path.join(store.root, CURRENT_NAME), "w",
                  encoding="utf-8") as handle:
            handle.write(f"{SNAPSHOT_PREFIX}1\n")
        removed = store.gc(keep=1)
        assert 1 not in removed
        assert 1 in store.versions()

    def test_keep_validation(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            SnapshotStore(str(tmp_path), keep=0)

    def test_stats_payload(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path), keep=2)
        store.save(_advisor())
        store.load()
        stats = store.stats()
        assert stats["versions"] == [1]
        assert stats["current_version"] == 1
        assert stats["keep"] == 2
        assert stats["last_load"]["version"] == 1
        assert stats["last_load"]["recovered"] is False


class TestPersistenceErrors:
    """The typed error satellite: load failures carry path/version
    context and still satisfy the historical ValueError contract."""

    def test_malformed_json_raises_persistence_error(self,
                                                     tmp_path) -> None:
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PersistenceError) as excinfo:
            load_advisor(str(path))
        assert excinfo.value.path == str(path)
        assert str(path) in str(excinfo.value)

    def test_wrong_shape_raises_persistence_error(self, tmp_path) -> None:
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_advisor(str(path))

    def test_bad_version_carries_format_version(self, tmp_path) -> None:
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format_version": 99}),
                        encoding="utf-8")
        with pytest.raises(PersistenceError) as excinfo:
            load_advisor(str(path))
        assert excinfo.value.format_version == 99

    @pytest.mark.parametrize("case", [
        ("payload", 1), ("payload", 2), ("payload", 3),
        ("manifest", 1), ("manifest", 2), ("store", False)])
    def test_older_formats_are_refused(self, tmp_path, case) -> None:
        """Only format v4 headers and manifest format 3 load; anything
        older is refused with a hint to rebuild with `egeria build`."""
        kind, value = case
        if kind == "store":
            with pytest.raises(ValueError):
                SnapshotStore(str(tmp_path), binary=value)
            return
        store = SnapshotStore(str(tmp_path))
        store.save(_advisor())
        info = store.save(_advisor())
        name = MANIFEST_NAME if kind == "manifest" else PAYLOAD_NAME
        path = os.path.join(info.path, name)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        data["format" if kind == "manifest" else "format_version"] = value
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        if kind == "payload":
            with pytest.raises(PersistenceError) as excinfo:
                load_advisor(path)
            assert excinfo.value.format_version == value
            assert "egeria build" in str(excinfo.value)
            return
        tool, report = store.load_with_report()
        assert report.version == 1 and report.recovered
        assert [version for version, _ in report.skipped] == [2]
        assert "egeria build" in report.skipped[0][1]
        assert _answers(tool) == _answers(_advisor())
        rows = store.verify_report(info.version)
        assert [row["name"] for row in rows] == [MANIFEST_NAME]
        assert not rows[0]["ok"] and "egeria build" in rows[0]["actual"]

    def test_persistence_error_is_value_error(self) -> None:
        assert issubclass(PersistenceError, ValueError)
        assert issubclass(SnapshotError, PersistenceError)
