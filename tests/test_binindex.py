"""Binary index format: pack/restore parity, sidecar integrity,
snapshot fallback, and the lazy structures the mmap path relies on.

The contract (DESIGN.md §14): a v4 save followed by a
``numpy.memmap``-backed load answers every query **bit-identically**
to the in-memory advisor that wrote it; a corrupted sidecar never
serves — the snapshot store falls back newest-first and
``verify_report`` names the damaged array down to
``advisor.bin[segment0/data]``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import binindex
from repro.core.egeria import Egeria
from repro.core.persistence import (
    FORMAT_VERSION,
    load_advisor,
    save_advisor,
)
from repro.core.snapshots import MANIFEST_FORMAT, SnapshotStore
from repro.docs.document import Document
from repro.retrieval.bench_fixtures import TOPICS

WORDS = st.sampled_from(sorted({w for topic in TOPICS for w in topic}))
SENTENCE = st.lists(WORDS, min_size=1, max_size=12).map(" ".join)

SENTENCES = [
    "Use shared memory tiles to improve effective bandwidth.",
    "Avoid divergent branches inside warps.",
    "Coalesce global memory accesses in tight loops.",
    "Unroll small loops to expose instruction level parallelism.",
    "Overlap data transfer with computation using streams.",
    "Prefer pinned memory for large host to device transfers.",
]

QUERIES = ["improve memory bandwidth", "divergent warps",
           "overlap transfer computation"]


def _advisor(sentences=SENTENCES):
    return Egeria().build_advisor(
        Document.from_sentences(list(sentences), title="Bin Guide"))


def _signature(tool, queries=QUERIES) -> list:
    """(index, score-bits, matched-terms) per answer — the PR 4 parity
    harness: float equality is not enough, the bytes must match."""
    return [(r.sentence.index, struct.pack("<d", r.score).hex(),
             tuple(r.matched_terms))
            for query in queries
            for r in tool.recommender.recommend(query, limit=10)]


# -- save → mmap-load parity ------------------------------------------------


class TestV4RoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(sentences=st.lists(SENTENCE, min_size=2, max_size=40),
           query=st.lists(WORDS, min_size=1, max_size=5).map(" ".join))
    def test_mmap_load_bit_identical(self, tmp_path_factory, sentences,
                                     query) -> None:
        tool = _advisor(sentences)
        expected = _signature(tool, [query])
        tmp = tmp_path_factory.mktemp("v4")
        path = str(tmp / "advisor.json")
        save_advisor(tool, path)
        assert _signature(load_advisor(path), [query]) == expected

    def test_header_declares_v4_and_sidecar_exists(self, tmp_path) -> None:
        path = str(tmp_path / "advisor.json")
        save_advisor(_advisor(), path)
        data = json.load(open(path))
        assert data["format_version"] == FORMAT_VERSION
        block = data["index_binary"]
        sidecar = os.path.join(str(tmp_path), block["sidecar"])
        assert os.path.exists(sidecar)
        names = {row["name"] for row in block["arrays"]}
        # every global array plus the per-segment six, 64-byte aligned
        for name in binindex.GLOBAL_ARRAYS:
            assert name in names
        for name in binindex.SEGMENT_ARRAYS:
            assert f"segment0/{name}" in names
        for row in block["arrays"]:
            assert row["offset"] % binindex.ALIGNMENT == 0

    def test_restored_advisor_can_extend(self, tmp_path) -> None:
        # LazyTermSets must interoperate with the sealed-segment
        # extend path (list(self) + list(other))
        path = str(tmp_path / "advisor.json")
        save_advisor(_advisor(), path)
        tool = load_advisor(path)
        added = tool.extend(Document.from_sentences(
            ["Pin host buffers to accelerate transfers."],
            title="Update"))
        assert added >= 0
        assert tool.recommender.recommend("pin host buffers", limit=5) \
            is not None


# -- sidecar integrity ------------------------------------------------------


class TestSidecarIntegrity:
    def test_verify_sidecar_clean(self, tmp_path) -> None:
        path = str(tmp_path / "advisor.json")
        save_advisor(_advisor(), path)
        data = json.load(open(path))
        block = data["index_binary"]
        blob = open(str(tmp_path / block["sidecar"]), "rb").read()
        assert all(row["ok"]
                   for row in binindex.verify_sidecar(blob, block))

    def test_verify_sidecar_names_damaged_array(self, tmp_path) -> None:
        path = str(tmp_path / "advisor.json")
        save_advisor(_advisor(), path)
        data = json.load(open(path))
        block = data["index_binary"]
        row = next(r for r in block["arrays"]
                   if r["name"] == "segment0/data")
        blob = bytearray(
            open(str(tmp_path / block["sidecar"]), "rb").read())
        blob[row["offset"]] ^= 0xFF
        bad = [r["name"] for r in
               binindex.verify_sidecar(bytes(blob), block)
               if not r["ok"]]
        assert bad == ["segment0/data"]

    def test_truncated_sidecar_rejected_on_load(self, tmp_path) -> None:
        path = str(tmp_path / "advisor.json")
        save_advisor(_advisor(), path)
        data = json.load(open(path))
        sidecar = str(tmp_path / data["index_binary"]["sidecar"])
        blob = open(sidecar, "rb").read()
        with open(sidecar, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        with pytest.raises(Exception):
            load_advisor(path)


# -- binary snapshots: manifest format, fallback, verify --------------------


class TestBinarySnapshots:
    def _manifest(self, store_dir, info) -> dict:
        return json.load(open(os.path.join(
            store_dir, info.name, "MANIFEST.json")))

    def test_binary_store_writes_manifest_format_3(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path))
        info = store.save(_advisor())
        manifest = self._manifest(str(tmp_path), info)
        assert manifest["format"] == MANIFEST_FORMAT == 3
        sidecar = next(e for e in manifest["files"]
                       if e["name"] == "advisor.bin")
        assert sidecar["arrays"]
        for row in sidecar["arrays"]:
            assert set(row) >= {"name", "offset", "nbytes", "checksum"}

    def test_snapshot_roundtrip_bit_identical(self, tmp_path) -> None:
        tool = _advisor()
        store = SnapshotStore(str(tmp_path))
        store.save(tool)
        assert _signature(store.load()) == _signature(tool)

    def _corrupt_sidecar(self, store_dir: str, version_name: str) -> None:
        manifest = json.load(open(os.path.join(
            store_dir, version_name, "MANIFEST.json")))
        entry = next(e for e in manifest["files"]
                     if e["name"] == "advisor.bin")
        row = next(r for r in entry["arrays"]
                   if r["name"] == "segment0/data")
        sidecar = os.path.join(store_dir, version_name, "advisor.bin")
        blob = bytearray(open(sidecar, "rb").read())
        blob[row["offset"]] ^= 0xFF
        with open(sidecar, "wb") as handle:
            handle.write(blob)

    def test_corrupt_sidecar_falls_back_newest_first(self, tmp_path) -> None:
        tool = _advisor()
        store = SnapshotStore(str(tmp_path))
        store.save(tool)
        second = store.save(tool)
        self._corrupt_sidecar(str(tmp_path), second.name)
        loaded, report = store.load_with_report()
        assert report.version == 1
        assert report.recovered
        assert [version for version, _ in report.skipped] == [2]
        assert _signature(loaded) == _signature(tool)

    def test_verify_report_names_corrupt_array(self, tmp_path) -> None:
        store = SnapshotStore(str(tmp_path))
        info = store.save(_advisor())
        self._corrupt_sidecar(str(tmp_path), info.name)
        bad = [row["name"] for row in store.verify_report(info.version)
               if not row["ok"]]
        assert "advisor.bin" in bad
        assert "advisor.bin[segment0/data]" in bad


    def test_older_sidecar_snapshot_still_loads(self, tmp_path) -> None:
        """Sidecar snapshots written by the previous release also carry
        an ``index`` block in the header and one ``segment-<k>.json``
        per growth batch, all listed in the manifest.  They load with
        identical answers (the ``index`` block is ignored), and the
        segment files stay checksum-verified."""
        tool = _advisor()
        tool.auto_compaction = False
        base = len(tool.advising_sentences)
        added = tool.extend(Document.from_sentences(
            ["Pin host buffers to accelerate transfers."], title="Update"))
        store = SnapshotStore(str(tmp_path))
        info = store.save(tool)
        _as_older_snapshot(info.path, [(base, len(SENTENCES)), (added, 1)])

        queries = QUERIES + ["pin host buffers"]
        assert _signature(store.load(), queries) == _signature(tool, queries)
        report = store.verify_report(info.version)
        assert [row["name"] for row in report] == [
            "advisor.json", "advisor.bin", "segment-0.json",
            "segment-1.json"]
        assert all(row["ok"] for row in report)
        segment = os.path.join(info.path, "segment-1.json")
        blob = open(segment, "rb").read()
        with open(segment, "wb") as handle:
            handle.write(blob.replace(b"advising", b"advizing"))
        assert not store.verify(info.version)


def _as_older_snapshot(directory: str,
                       batches: list[tuple[int, int]]) -> None:
    """Rewrite a committed snapshot into the previous release's sidecar
    layout: an ``index`` block in the header, one ``segment-<k>.json``
    per ``(advising, doc_sentences)`` growth batch, and a manifest
    entry (bytes + checksum) for each rewritten or added file."""
    header_path = os.path.join(directory, "advisor.json")
    with open(header_path, encoding="utf-8") as handle:
        header = json.load(handle)
    header["index"] = {"weight_epoch": 0, "segment_count": len(batches)}
    blobs = {"advisor.json": json.dumps(
        header, ensure_ascii=False, indent=1).encode("utf-8")}
    for position, (advising, docs) in enumerate(batches):
        blobs[f"segment-{position}.json"] = json.dumps(
            {"segment": position, "advising": advising,
             "doc_sentences": docs}, indent=1).encode("utf-8")
    manifest_path = os.path.join(directory, "MANIFEST.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    entries = {entry["name"]: entry for entry in manifest["files"]}
    for name, blob in blobs.items():
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(blob)
        entries[name] = {
            **entries.get(name, {"name": name}), "bytes": len(blob),
            "checksum": "sha256:" + hashlib.sha256(blob).hexdigest()}
    manifest["files"] = list(entries.values())
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)


# -- LazyTermSets -----------------------------------------------------------


class TestLazyTermSets:
    def _terms(self) -> binindex.LazyTermSets:
        # rows: {a, b}, {}, {b, c}
        return binindex.LazyTermSets(
            np.array([0, 2, 2, 4]), np.array([0, 1, 1, 2]),
            ["a", "b", "c"])

    def test_len_and_getitem(self) -> None:
        terms = self._terms()
        assert len(terms) == 3
        assert terms[0] == frozenset({"a", "b"})
        assert terms[1] == frozenset()
        assert terms[-1] == frozenset({"b", "c"})
        with pytest.raises(IndexError):
            terms[3]

    def test_slice_and_iter(self) -> None:
        terms = self._terms()
        assert terms[1:] == [frozenset(), frozenset({"b", "c"})]
        assert list(terms) == [terms[0], terms[1], terms[2]]

    def test_add_returns_growable_list(self) -> None:
        grown = self._terms() + [frozenset({"d"})]
        assert isinstance(grown, list)
        assert len(grown) == 4
        assert grown[3] == frozenset({"d"})
