"""Command-line interface tests."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

GUIDE_MD = """# 1. Test Guide

Use pinned memory for frequent transfers. The bus width is 256 bits.
Avoid divergent branches in hot loops.
"""

GUIDE_HTML = """<html><head><title>T</title></head><body>
<h1>1. Guide</h1><p>Use shared memory to reduce traffic.
The chip has 16 SMs.</p></body></html>"""


@pytest.fixture()
def md_guide(tmp_path):
    path = tmp_path / "guide.md"
    path.write_text(GUIDE_MD, encoding="utf-8")
    return str(path)


@pytest.fixture()
def html_guide(tmp_path):
    path = tmp_path / "guide.html"
    path.write_text(GUIDE_HTML, encoding="utf-8")
    return str(path)


class TestParser:
    def test_requires_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_args(self) -> None:
        args = build_parser().parse_args(["build", "g.md", "-o", "out.html"])
        assert args.guide == "g.md" and args.output == "out.html"

    def test_demo_choices(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "fortran"])


class TestBuild:
    def test_build_prints_summary(self, md_guide, capsys) -> None:
        assert main(["build", md_guide]) == 0
        out = capsys.readouterr().out
        assert "2 advising" in out
        assert "pinned memory" in out

    def test_build_writes_html(self, md_guide, tmp_path, capsys) -> None:
        out_path = tmp_path / "summary.html"
        assert main(["build", md_guide, "-o", str(out_path)]) == 0
        html = out_path.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "pinned memory" in html

    def test_build_html_guide(self, html_guide, capsys) -> None:
        assert main(["build", html_guide]) == 0
        assert "1 advising" in capsys.readouterr().out

    def test_build_plain_text(self, tmp_path, capsys) -> None:
        path = tmp_path / "guide.txt"
        path.write_text("Use textures for scattered reads. X is Y.",
                        encoding="utf-8")
        assert main(["build", str(path)]) == 0

    def test_extra_keywords(self, tmp_path, capsys) -> None:
        path = tmp_path / "guide.md"
        path.write_text("# G\n\nZorbs flibber the warp nicely.\n",
                        encoding="utf-8")
        assert main(["build", str(path)]) == 0
        assert "0 advising" in capsys.readouterr().out
        assert main(["build", str(path),
                     "--extra-keywords", "flibber"]) == 0
        assert "1 advising" in capsys.readouterr().out


class TestQuery:
    def test_query_found(self, md_guide, capsys) -> None:
        assert main(["query", md_guide, "speed up transfers"]) == 0
        out = capsys.readouterr().out
        assert "pinned memory" in out

    def test_query_not_found_exit_code(self, md_guide, capsys) -> None:
        assert main(["query", md_guide, "quantum pastry catering"]) == 1
        assert "No relevant sentences found" in capsys.readouterr().out

    def test_query_writes_answer_page(self, md_guide, tmp_path) -> None:
        out_path = tmp_path / "answer.html"
        main(["query", md_guide, "transfers", "-o", str(out_path)])
        assert "highlight" in out_path.read_text(encoding="utf-8")

    def test_threshold_flag(self, md_guide, capsys) -> None:
        assert main(["query", md_guide, "transfers",
                     "--threshold", "0.99"]) == 1


class TestReport:
    def test_report_answers(self, md_guide, tmp_path, capsys) -> None:
        report = tmp_path / "report.txt"
        report.write_text(
            "Section: Compute Resources\n"
            "Optimization: Transfer Overhead\n"
            "  Reduce transfer time using pinned memory.\n",
            encoding="utf-8")
        assert main(["report", md_guide, str(report)]) == 0
        out = capsys.readouterr().out
        assert "pinned memory" in out

    def test_report_without_issues(self, md_guide, tmp_path, capsys) -> None:
        report = tmp_path / "report.txt"
        report.write_text("nothing here\n", encoding="utf-8")
        assert main(["report", md_guide, str(report)]) == 1


class TestSegmentFlags:
    def test_flags_parse(self) -> None:
        args = build_parser().parse_args(
            ["--segment-target-size", "64", "--compaction-ratio", "3",
             "--no-compaction", "build", "g.md"])
        assert args.segment_target_size == 64
        assert args.compaction_ratio == 3
        assert args.no_compaction is True

    def test_flags_reach_the_advisor(self, md_guide, capsys) -> None:
        from repro.cli import _build_egeria

        args = build_parser().parse_args(
            ["--segment-target-size", "64", "--compaction-ratio", "3",
             "--no-compaction", "build", md_guide])
        egeria = _build_egeria(args)
        assert egeria.segment_target_size == 64
        assert egeria.compaction_ratio == 3
        assert egeria.auto_compaction is False


class TestSnapshotsVerify:
    def _seed_store(self, tmp_path):
        from repro import Document, Egeria
        from repro.core.snapshots import SnapshotStore

        advisor = Egeria().build_advisor(Document.from_sentences(
            ["Use shared memory tiles for reuse.",
             "Avoid divergent branches in warps."],
            title="CLI Guide"))
        advisor.auto_compaction = False
        advisor.extend(Document.from_sentences(
            ["Use pinned memory for frequent transfers."],
            title="Extension"))
        store = SnapshotStore(str(tmp_path / "snaps"))
        store.save(advisor)
        return store

    def test_verify_ok_prints_no_detail(self, tmp_path, capsys) -> None:
        store = self._seed_store(tmp_path)
        assert main(["snapshots", "verify", store.root]) == 0
        out = capsys.readouterr().out
        assert "snapshot-1: ok" in out
        assert "expected" not in out

    def test_verify_names_corrupt_file_and_checksums(
            self, tmp_path, capsys) -> None:
        import hashlib
        import os

        store = self._seed_store(tmp_path)
        path = os.path.join(store.root, "snapshot-1", "advisor.json")
        with open(path, "rb") as handle:
            original = handle.read()
        tampered = original.replace(b"advising", b"advizing", 1)
        assert len(tampered) == len(original)   # checksum path, not size
        with open(path, "wb") as handle:
            handle.write(tampered)
        assert main(["snapshots", "verify", store.root]) == 1
        out = capsys.readouterr().out
        assert "snapshot-1: CORRUPT" in out
        assert (f"advisor.json: "
                f"expected sha256:{hashlib.sha256(original).hexdigest()}, "
                f"actual sha256:{hashlib.sha256(tampered).hexdigest()}") \
            in out


class TestFileErrors:
    """A path the CLI cannot open is a one-line error, not a traceback."""

    @pytest.mark.parametrize("command, rest", [
        ("build", []), ("query", ["pinned memory"])])
    def test_missing_guide(self, tmp_path, capsys, command, rest) -> None:
        missing = str(tmp_path / "missing.md")
        assert main([command, missing, *rest]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"egeria: {missing}: No such file or directory"]

    def test_save_creates_missing_directories(self, md_guide, tmp_path,
                                              capsys) -> None:
        saved = tmp_path / "D" / "sub" / "advisor.json"
        assert main(["build", md_guide, "--save", str(saved)]) == 0
        assert saved.with_suffix(".bin").exists()
        capsys.readouterr()
        assert main(["query", str(saved), "pinned memory transfers"]) == 0


class TestSavedAdvisors:
    """``build --save``/``--save-snapshot`` round trip through the CLI,
    and a clean refusal of files and stores in older formats."""

    QUESTION = "pinned memory transfers"

    def test_build_save_query_round_trip(self, md_guide, tmp_path,
                                         capsys) -> None:
        import json
        import os

        saved = str(tmp_path / "advisor.json")
        snaps = str(tmp_path / "snaps")
        assert main(["build", md_guide, "--save", saved,
                     "--save-snapshot", snaps]) == 0
        assert (tmp_path / "advisor.bin").exists()
        assert sorted(os.listdir(snaps)) == ["CURRENT", "snapshot-1"]
        manifest = json.loads(
            (tmp_path / "snaps" / "snapshot-1" / "MANIFEST.json")
            .read_text(encoding="utf-8"))
        assert manifest["format"] == 3
        capsys.readouterr()
        assert main(["query", md_guide, self.QUESTION]) == 0
        built = capsys.readouterr().out
        assert main(["query", saved, self.QUESTION]) == 0
        assert capsys.readouterr().out == built
        assert main(["snapshots", "verify", snaps]) == 0

    @staticmethod
    def _refusal(err: str) -> str:
        assert "Traceback" not in err
        lines = [line for line in err.splitlines()
                 if line.startswith("egeria: ")]
        assert len(lines) == 1
        assert "egeria build" in lines[0]
        return lines[0]

    def test_older_payload_is_refused(self, tmp_path, capsys) -> None:
        import json

        path = tmp_path / "advisor.json"
        path.write_text(json.dumps({"format_version": 3}),
                        encoding="utf-8")
        assert main(["query", str(path), self.QUESTION]) == 2
        assert "format_version=3" in self._refusal(capsys.readouterr().err)

    def test_older_store_is_refused(self, md_guide, tmp_path,
                                    capsys) -> None:
        import json

        snaps = str(tmp_path / "snaps")
        assert main(["build", md_guide, "--save-snapshot", snaps]) == 0
        manifest = tmp_path / "snaps" / "snapshot-1" / "MANIFEST.json"
        data = json.loads(manifest.read_text(encoding="utf-8"))
        data["format"] = 2
        manifest.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["serve", "--snapshots", snaps, "--port", "0"]) == 2
        line = self._refusal(capsys.readouterr().err)
        assert line.startswith("egeria: no loadable snapshot (snapshot-1: ")
        assert main(["snapshots", "verify", snaps]) == 1
        out = capsys.readouterr().out
        assert "snapshot-1: CORRUPT" in out
        assert "MANIFEST.json: expected" in out and "egeria build" in out

    @pytest.mark.parametrize("action", ["list", "verify"])
    def test_missing_store_is_empty_and_not_created(
            self, tmp_path, capsys, action: str) -> None:
        root = tmp_path / "typo"
        assert main(["snapshots", action, str(root)]) == 1
        assert "empty store" in capsys.readouterr().out
        assert not root.exists()
