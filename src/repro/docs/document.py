"""In-memory document model: Document -> Section tree -> Sentence.

The structure powers two paper features: answers are shown "with the
hyper references associated with the sentences that link to the
paragraph in the original document" (§3.2), and the advising summary
groups sentences under their section headings (Figure 4).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field


@dataclass
class Sentence:
    """One sentence with its position and owning section."""

    text: str
    index: int                      # global sentence index in the document
    section_number: str = ""        # e.g. "5.4.2"
    section_title: str = ""         # e.g. "Control Flow Instructions"
    #: optional ground-truth advising label carried by labeled corpora
    #: (None = unlabeled); never read by the recognizer itself.
    label: bool | None = None

    @property
    def section_path(self) -> str:
        if self.section_number and self.section_title:
            return f"{self.section_number}. {self.section_title}"
        return self.section_title or self.section_number


@dataclass
class Section:
    """A document section with nested subsections."""

    number: str = ""                # dotted index, e.g. "5.4"
    title: str = ""
    level: int = 1
    sentences: list[Sentence] = field(default_factory=list)
    subsections: list["Section"] = field(default_factory=list)

    def iter_sections(self) -> Iterator["Section"]:
        """This section and all descendants, pre-order."""
        yield self
        for sub in self.subsections:
            yield from sub.iter_sections()

    def iter_sentences(self) -> Iterator[Sentence]:
        """All sentences in this section and its descendants."""
        for section in self.iter_sections():
            yield from section.sentences

    @property
    def heading(self) -> str:
        if self.number:
            return f"{self.number}. {self.title}"
        return self.title


@dataclass
class Document:
    """A loaded document: a title, a section tree, and page count."""

    title: str = ""
    sections: list[Section] = field(default_factory=list)
    pages: int = 0

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_sentences(
        cls, sentences: list[str], title: str = "untitled"
    ) -> "Document":
        """Wrap a flat list of sentence strings into a document.

        Each sentence carries the title as its section title, as
        :meth:`reindex` would set it.
        """
        section = Section(title=title)
        section.sentences = [
            Sentence(text=s, index=i, section_title=title)
            for i, s in enumerate(sentences)
        ]
        return cls(title=title, sections=[section])

    @classmethod
    def from_text(cls, text: str, title: str = "untitled") -> "Document":
        """Sentence-split running *text* into a single-section document."""
        from repro.textproc.sentence_tokenizer import sent_tokenize

        return cls.from_sentences(sent_tokenize(text), title=title)

    # -- queries -------------------------------------------------------------

    def iter_sections(self) -> Iterator[Section]:
        for section in self.sections:
            yield from section.iter_sections()

    def iter_sentences(self) -> Iterator[Sentence]:
        for section in self.iter_sections():
            yield from section.sentences

    @property
    def sentences(self) -> list[Sentence]:
        return list(self.iter_sentences())

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_sentences())

    def section_of(self, sentence: Sentence) -> Section | None:
        """The section object owning *sentence*."""
        for section in self.iter_sections():
            if sentence in section.sentences:
                return section
        return None

    def find_section(self, number: str) -> Section | None:
        """Look up a section by its dotted number (e.g. "5.4.2")."""
        for section in self.iter_sections():
            if section.number == number:
                return section
        return None

    def reindex(self) -> None:
        """Renumber all sentences' global indices in document order and
        refresh their section back-references."""
        index = 0
        for section in self.iter_sections():
            for sentence in section.sentences:
                sentence.index = index
                sentence.section_number = section.number
                sentence.section_title = section.title
                index += 1
