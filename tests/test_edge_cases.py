"""Edge-path tests across modules (final coverage sweep)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import Document, Egeria
from repro.corpus.builder import ChapterSpec, GuideSpec, build_guide
from repro.corpus.topics import MEMORY_COALESCING
from repro.docs.document import Section, Sentence
from repro.pdf.writer import PDFWriter, _LINES_PER_PAGE
from repro.retrieval import InvertedIndex
from repro.pdf.reader import extract_text


class TestDocumentEdges:
    def test_section_of_missing_sentence(self) -> None:
        doc = Document.from_sentences(["One sentence."])
        stray = Sentence("not in document", 99)
        assert doc.section_of(stray) is None

    def test_sentence_label_field_roundtrip(self) -> None:
        sentence = Sentence("text", 0, label=True)
        assert sentence.label is True
        assert Sentence("text", 0).label is None

    def test_empty_document_len(self) -> None:
        assert len(Document(title="empty")) == 0

    def test_section_path_variants(self) -> None:
        assert Sentence("x", 0, section_number="2",
                        section_title="").section_path == "2"
        assert Sentence("x", 0, section_title="T").section_path == "T"
        assert Sentence("x", 0).section_path == ""


class TestInvertedIndexEdges:
    def test_vocabulary_property(self) -> None:
        index = InvertedIndex(["warps diverge", "warps coalesce"])
        assert "warp" in index.vocabulary
        assert len(index) == 2

    def test_postings_unknown_term(self) -> None:
        index = InvertedIndex(["warps diverge"])
        assert index.postings("xylophone") == set()
        assert index.postings("") == set()


class TestGuideBuilderEdges:
    def test_more_seeds_than_sentences_truncated(self) -> None:
        from repro.corpus.builder import SeedSentence

        spec = GuideSpec(
            name="Tiny", pages=1, topics=(MEMORY_COALESCING,), seed=1,
            chapters=(ChapterSpec(
                "1", "Only", 2, {"expository": 1.0},
                seeds=tuple(SeedSentence(f"Seed {i}.", False,
                                         "memory_coalescing")
                            for i in range(5))),))
        guide = build_guide(spec)
        assert len(guide.document) == 2  # budget wins over seed count

    def test_zero_sentence_chapter(self) -> None:
        spec = GuideSpec(
            name="Z", pages=1, topics=(MEMORY_COALESCING,), seed=1,
            chapters=(ChapterSpec("1", "Empty", 0,
                                  {"expository": 1.0}),))
        guide = build_guide(spec)
        assert len(guide.document) == 0


class TestPdfEdges:
    def test_exact_page_boundary(self) -> None:
        lines = [f"line {i}" for i in range(_LINES_PER_PAGE)]
        writer = PDFWriter()
        writer.add_text("\n".join(lines))
        pdf = writer.tobytes()
        assert pdf.count(b"/Type /Page ") == 1
        assert extract_text(pdf) == "\n".join(lines)

    def test_one_past_page_boundary(self) -> None:
        lines = [f"line {i}" for i in range(_LINES_PER_PAGE + 1)]
        pdf = PDFWriter()
        pdf.add_text("\n".join(lines))
        data = pdf.tobytes()
        assert data.count(b"/Type /Page ") == 2
        assert extract_text(data) == "\n".join(lines)


class TestAdvisorEdges:
    def test_empty_document_advisor(self) -> None:
        advisor = Egeria().build_advisor(Document(title="empty"))
        assert advisor.advising_sentences == ()
        assert not advisor.query("anything").found
        assert advisor.selection_stats()["ratio"] == float("inf")

    def test_all_advising_document(self) -> None:
        advisor = Egeria().build_advisor(Document.from_sentences([
            "Use shared memory tiles.",
            "Avoid divergent branches.",
        ]))
        assert len(advisor.advising_sentences) == 2
        assert advisor.selection_stats()["ratio"] == 1.0

    def test_query_report_empty_report(self) -> None:
        advisor = Egeria().build_advisor(
            Document.from_sentences(["Use shared memory tiles."]))
        assert advisor.query_report("no markers here") == []


class TestToolsScripts:
    @staticmethod
    def _api_docs_tool():
        import sys

        sys.path.insert(0, "tools")
        try:
            import gen_api_docs
        finally:
            sys.path.pop(0)
        return gen_api_docs

    def test_api_doc_generator(self) -> None:
        tool = self._api_docs_tool()
        text = tool.generate()
        assert "# API Reference" in text
        assert "repro.textproc" in text
        assert "PorterStemmer" in text
        # callable defaults render by name, not by a per-run address
        assert " at 0x" not in text
        assert "= numpy.mean" in text
        # the committed file is what the generator writes today
        path = Path(tool.__file__).resolve().parent.parent / tool.OUTPUT
        assert path.read_text(encoding="utf-8") == text, (
            "docs/api.md is stale: run python tools/gen_api_docs.py")

    def test_api_doc_check_and_help_write_nothing(self, capsys,
                                                  monkeypatch) -> None:
        tool = self._api_docs_tool()
        path = Path(tool.__file__).resolve().parent.parent / tool.OUTPUT
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        with pytest.raises(SystemExit) as exit_info:
            tool.main(["--help"])
        assert exit_info.value.code == 0
        assert "--check" in capsys.readouterr().out
        assert tool.main(["--check"]) == 0
        monkeypatch.setattr(tool, "generate", lambda: "# changed\n")
        assert tool.main(["--check"]) == 1
        assert "docs/api.md" in capsys.readouterr().err
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before

    def test_corpus_exporter(self, tmp_path) -> None:
        import sys

        sys.path.insert(0, "tools")
        try:
            from export_corpora import export
        finally:
            sys.path.pop(0)
        written = export(tmp_path)
        names = {p.name for p in written}
        assert "cuda_guide.html" in names
        assert "xeon_labels.tsv" in names
        labels = (tmp_path / "xeon_labels.tsv").read_text("utf-8")
        assert labels.startswith("index\tadvising\ttopic\tfamily")
