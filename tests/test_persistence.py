"""Advisor persistence and explanation tests."""

from __future__ import annotations

import json

import pytest

from repro import Document, Egeria
from repro.core.keywords import KeywordConfig
from repro.core.persistence import (
    FORMAT_VERSION,
    advisor_from_dict,
    advisor_to_binary,
    load_advisor,
    save_advisor,
)
from repro.core.recognizer import AdvisingSentenceRecognizer
from repro.core.snapshots import SnapshotStore
from repro.docs.document import Section, Sentence


def build_tool():
    memory = Section(number="1.1", title="Memory", level=2, sentences=[
        Sentence("Use shared memory to cut global traffic.", -1),
        Sentence("The cache line is 128 bytes.", -1),
    ])
    top = Section(number="1", title="Guide", level=1, subsections=[memory])
    document = Document(title="Persisted Guide", sections=[top], pages=3)
    document.reindex()
    return Egeria().build_advisor(document)


class TestRoundTrip:
    def test_dict_round_trip(self, tmp_path) -> None:
        tool = build_tool()
        path = tmp_path / "advisor.json"
        save_advisor(tool, str(path))
        restored = advisor_from_dict(
            json.loads(path.read_text(encoding="utf-8")), path=str(path))
        assert restored.name == tool.name
        assert len(restored.document) == len(tool.document)
        assert [s.text for s in restored.advising_sentences] == \
            [s.text for s in tool.advising_sentences]

    def test_file_round_trip(self, tmp_path) -> None:
        tool = build_tool()
        path = tmp_path / "advisor.json"
        save_advisor(tool, str(path))
        restored = load_advisor(str(path))
        answer = restored.query("reduce memory traffic")
        assert answer.found
        assert "shared memory" in answer.sentences[0].text

    def test_sections_preserved(self, tmp_path) -> None:
        tool = build_tool()
        path = tmp_path / "advisor.json"
        save_advisor(tool, str(path))
        restored = load_advisor(str(path))
        assert restored.document.find_section("1.1") is not None
        sentence = restored.advising_sentences[0]
        assert sentence.section_number == "1.1"

    def test_threshold_preserved(self, tmp_path) -> None:
        document = Document.from_sentences(
            ["Use pinned memory for transfers."])
        tool = Egeria(threshold=0.42).build_advisor(document)
        path = tmp_path / "a.json"
        save_advisor(tool, str(path))
        assert load_advisor(str(path)).recommender.threshold == 0.42

    def test_json_is_stable_format(self, tmp_path) -> None:
        tool = build_tool()
        path = tmp_path / "a.json"
        save_advisor(tool, str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format_version"] == FORMAT_VERSION
        assert "advising_sentence_indices" in payload
        assert payload["index_binary"]["segments"]
        assert (tmp_path / payload["index_binary"]["sidecar"]).exists()
        assert "index" not in payload

    def test_version_check(self) -> None:
        data, _ = advisor_to_binary(build_tool())
        data["format_version"] = 99
        with pytest.raises(ValueError):
            advisor_from_dict(data)

    def test_corrupt_indices_rejected(self) -> None:
        data, _ = advisor_to_binary(build_tool())
        data["advising_sentence_indices"] = [9999]
        with pytest.raises(ValueError):
            advisor_from_dict(data)


class TestFormatV2:
    def test_annotations_embedded_and_restored(self, tmp_path) -> None:
        tool = build_tool()
        assert tool.annotations is not None
        path = tmp_path / "a.json"
        save_advisor(tool, str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert len(payload["annotations"]["sentences"]) == \
            len(tool.document)
        restored = load_advisor(str(path))
        assert restored.annotations is not None
        assert len(restored.annotations) == len(restored.document)
        assert restored.annotations.complete_terms

    def test_selector_provenance_round_trips(self, tmp_path) -> None:
        tool = build_tool()
        assert tool.provenance  # build_advisor records it
        path = tmp_path / "a.json"
        save_advisor(tool, str(path))
        restored = load_advisor(str(path))
        assert restored.provenance == tool.provenance

    def test_degraded_health_survives_save_load(self, tmp_path) -> None:
        """A degraded build must not report ``status: ok`` after a
        save/load round-trip (the silent-recovery bug)."""
        from repro.resilience.faults import FaultPlan, inject

        document = Document.from_sentences([
            "Use shared memory to cut global traffic.",
            "The cache line is 128 bytes.",
        ])
        plan = FaultPlan.from_dict(
            {"faults": [{"point": "analysis.srl", "probability": 1.0}]})
        with inject(plan):
            tool = Egeria().build_advisor(document)
        health = tool.health()
        assert health["status"] == "degraded"
        path = tmp_path / "degraded.json"
        save_advisor(tool, str(path))
        restored = load_advisor(str(path))
        restored_health = restored.health()
        assert restored_health["status"] == "degraded"
        assert restored_health["degradation"]["build_events"] == \
            health["degradation"]["build_events"]
        assert restored_health["degradation"]["build_by_layer"] == \
            health["degradation"]["build_by_layer"]

    def test_quarantine_survives_save_load(self, tmp_path) -> None:
        from repro.resilience.faults import FaultPlan, inject

        document = Document.from_sentences([
            "Use shared memory to cut global traffic.",
        ])
        plan = FaultPlan.from_dict(
            {"faults": [{"point": "analysis.tokenize", "probability": 1.0},
                        {"point": "analysis.parse", "probability": 1.0},
                        {"point": "analysis.srl", "probability": 1.0}]})
        with inject(plan):
            tool = Egeria().build_advisor(document)
        assert tool.quarantined
        path = tmp_path / "quarantined.json"
        save_advisor(tool, str(path))
        restored = load_advisor(str(path))
        assert len(restored.quarantined) == len(tool.quarantined)
        assert restored.health()["degradation"][
            "quarantined_sentences"] == len(tool.quarantined)


#: a domain keyword only a custom flagging-word set recognizes
CUSTOM_KEYWORDS = KeywordConfig().extend(flagging_words=("zorblat",))


def _reloaded(tool, how: str, tmp_path):
    if how == "memory":
        return tool
    if how == "file":
        path = str(tmp_path / "advisor.json")
        save_advisor(tool, path)
        return load_advisor(path)
    store = SnapshotStore(str(tmp_path / "snapshots"))
    store.save(tool)
    return store.load()


class TestKeywordSets:
    """extend() classifies new text with the keyword sets the tool was
    built with, in memory and after either kind of reload."""

    @pytest.mark.parametrize("how", ["memory", "file", "snapshot"])
    def test_extend_uses_build_keywords(self, how: str, tmp_path) -> None:
        tool = Egeria(keywords=CUSTOM_KEYWORDS).build_advisor(
            Document.from_sentences(["The zorblat the memory bus.",
                                     "The cache line is 128 bytes."]))
        assert [s.text for s in tool.advising_sentences] \
            == ["The zorblat the memory bus."]
        tool = _reloaded(tool, how, tmp_path)
        assert tool.keywords == CUSTOM_KEYWORDS
        added = tool.extend(Document.from_sentences(
            ["The zorblat the register file."], title="Update"))
        assert added == 1

    def test_header_without_keywords_loads_default_sets(self, tmp_path
                                                        ) -> None:
        path = tmp_path / "advisor.json"
        save_advisor(Egeria(keywords=CUSTOM_KEYWORDS).build_advisor(
            Document.from_sentences(["The zorblat the memory bus."])),
            str(path))
        data = json.loads(path.read_text(encoding="utf-8"))
        assert KeywordConfig.from_dict(data.pop("keywords")) \
            == CUSTOM_KEYWORDS
        path.write_text(json.dumps(data), encoding="utf-8")
        assert load_advisor(str(path)).keywords == KeywordConfig()


class TestExplain:
    def test_explanation_names_all_selectors(self) -> None:
        recognizer = AdvisingSentenceRecognizer()
        explanation = recognizer.explain("Use shared memory tiles.")
        assert set(explanation) == {"keyword", "comparative",
                                    "imperative", "subject", "purpose"}

    def test_imperative_fires(self) -> None:
        recognizer = AdvisingSentenceRecognizer()
        explanation = recognizer.explain(
            "Use shared memory tiles for reuse.")
        assert explanation["imperative"] is True

    def test_multiple_selectors_can_fire(self) -> None:
        recognizer = AdvisingSentenceRecognizer()
        explanation = recognizer.explain(
            "Developers should pad the array to avoid bank conflicts.")
        fired = [name for name, hit in explanation.items() if hit]
        assert len(fired) >= 2  # keyword ('should') + subject + purpose

    def test_non_advising_fires_nothing(self) -> None:
        recognizer = AdvisingSentenceRecognizer()
        explanation = recognizer.explain("The warp size is 32 threads.")
        assert not any(explanation.values())
