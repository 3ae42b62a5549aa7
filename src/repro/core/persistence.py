"""Advisor persistence: save a synthesized advising tool, load it back.

The paper's artifact ships three pre-built advising tools (cuda,
opencl, xeon) so users don't re-run the NLP pipeline; this module
provides the equivalent in one on-disk format, format v4 (DESIGN
§14): a JSON header plus a checksummed ``.bin`` sidecar that shares
its stem (``advisor.json`` + ``advisor.bin``).

The header carries Stage I's output (the advising sentences with their
section structure), the threshold, selector provenance (which Table 1
rule recognized each sentence), build health (degradation events and
quarantines survive a save/load round-trip), the Stage I keyword sets
that ``extend()`` classifies new text with, the lexical layers of the
shared annotation artifact, the trained pre-filter, and an
``index_binary`` block describing the sidecar.  The sidecar holds
every array of the sealed Stage II index (:mod:`repro.core.binindex`),
so :func:`load_advisor` maps it with ``numpy.memmap`` and serves the
exact weights the saved advisor did, with **zero** tokenizer or
stemmer calls and no refit.  Files in any other format version (the
JSON-only v1–v3 files of earlier releases) are refused with a
:class:`PersistenceError` that says to rebuild with ``egeria build``.

Durability: :func:`save_advisor` never writes in place.  All writes go
through :func:`atomic_write_bytes` — write to a same-directory temp
file in bounded chunks (each preceded by the ``snapshot.write`` fault
point, so chaos plans can kill a save at any byte-offset class), fsync,
then publish with a single atomic ``os.replace`` guarded by the
``snapshot.commit`` fault point.  A crash at any point leaves either
the old file or the new file, never a torn hybrid.  Load failures are
wrapped in a typed :class:`PersistenceError` carrying the path and
format-version context instead of leaking raw ``JSONDecodeError``/
``KeyError`` to callers.  (Versioned multi-snapshot stores with
corruption fallback live one layer up, in :mod:`repro.core.snapshots`.)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.core import binindex
from repro.core.advisor import AdvisingTool
from repro.core.keywords import KeywordConfig
from repro.docs.document import Document, Section, Sentence
from repro.pipeline.annotations import DocumentAnnotations
from repro.resilience.degrade import DegradationEvent
from repro.resilience.faults import fault_point

#: the one format written and read: JSON header + ``.bin`` sidecar
FORMAT_VERSION = 4

#: what a refused file or snapshot tells its owner to do
REBUILD_HINT = "rebuild it with `egeria build`"

#: the sidecar shares the header's stem: ``advisor.json`` +
#: ``advisor.bin``
BINARY_SIDECAR_SUFFIX = ".bin"

#: bytes written between ``snapshot.write`` fault-point checks; small
#: enough that chaos plans can kill a save at the start, middle, or
#: tail of any realistically sized advisor file
ATOMIC_WRITE_CHUNK = 16 * 1024


class PersistenceError(ValueError):
    """A saved advisor could not be loaded (or written).

    Carries the file ``path`` and the payload ``format_version`` when
    known, so operators see *which* artifact failed and *why* instead
    of a raw ``JSONDecodeError``/``KeyError`` pointing at nothing.
    Subclasses :class:`ValueError` so pre-existing callers that caught
    ``ValueError`` from ``advisor_from_dict`` keep working.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 format_version: object = None) -> None:
        context = []
        if path is not None:
            context.append(f"path={path!r}")
        if format_version is not None:
            context.append(f"format_version={format_version!r}")
        suffix = f" [{', '.join(context)}]" if context else ""
        super().__init__(message + suffix)
        self.path = path
        self.format_version = format_version


def atomic_write_bytes(path: str, data: bytes,
                       chunk_size: int = ATOMIC_WRITE_CHUNK) -> None:
    """Crash-safely replace *path* with *data*.

    Write-to-temp → fsync → atomic-rename → fsync-directory.  The
    temp file lives in the target's directory (``os.replace`` must not
    cross filesystems) and is unlinked on any failure, so a killed
    save never leaves a torn file where a loader could find it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            for offset in range(0, len(data), chunk_size):
                fault_point("snapshot.write")
                handle.write(data[offset:offset + chunk_size])
            fault_point("snapshot.write")
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("snapshot.commit")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def atomic_write_text(path: str, text: str) -> None:
    """UTF-8 convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def _fsync_directory(directory: str) -> None:
    """Flush a rename to disk; best-effort on platforms/filesystems
    that refuse O_RDONLY directory handles."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class QuarantinedSentence:
    """Loaded summary of a quarantined build sentence (header health block).

    A lightweight stand-in for the original
    :class:`~repro.core.recognizer.RecognitionResult` — enough for
    ``health()`` reporting without re-running the build.
    """

    sentence_index: int | None
    error: str | None

    @property
    def quarantined(self) -> bool:
        return True


def _section_to_dict(section: Section) -> dict:
    return {
        "number": section.number,
        "title": section.title,
        "level": section.level,
        "sentences": [s.text for s in section.sentences],
        "subsections": [_section_to_dict(sub)
                        for sub in section.subsections],
    }


def _section_from_dict(data: dict) -> Section:
    section = Section(
        number=data["number"],
        title=data["title"],
        level=data["level"],
        sentences=[Sentence(text, -1) for text in data["sentences"]],
    )
    section.subsections = [_section_from_dict(sub)
                           for sub in data["subsections"]]
    return section


def _quarantined_to_dict(record) -> dict:
    """Serialize one quarantined entry (RecognitionResult or loaded
    :class:`QuarantinedSentence`)."""
    sentence = getattr(record, "sentence", None)
    index = (sentence.index if sentence is not None
             else getattr(record, "sentence_index", None))
    return {"sentence_index": index,
            "error": getattr(record, "error", None)}


def _header(tool: AdvisingTool) -> dict:
    """The JSON half of the saved advisor, minus its ``index_binary``
    block; runs under the advisor's freeze lock."""
    data = {
        "format_version": FORMAT_VERSION,
        "name": tool.name,
        "threshold": tool.recommender.threshold,
        # the Stage I keyword sets extend() classifies new text with
        "keywords": tool.keywords.to_dict(),
        "document": {
            "title": tool.document.title,
            "pages": tool.document.pages,
            "sections": [_section_to_dict(s) for s in tool.document.sections],
        },
        "advising_sentence_indices": [
            s.index for s in tool.advising_sentences],
    }
    if tool.provenance:
        data["selector_provenance"] = [
            [index, selector]
            for index, selector in sorted(tool.provenance.items())
        ]
    if tool.degradation_events or tool.quarantined:
        data["build_health"] = {
            "degradation_events": [
                e.to_dict() for e in tool.degradation_events],
            "quarantined": [
                _quarantined_to_dict(q) for q in tool.quarantined],
        }
    if tool.annotations is not None:
        data["annotations"] = tool.annotations.to_dict()
    prefilter = getattr(tool, "prefilter", None)
    if prefilter is not None:
        # the trained Stage I pre-filter travels with the index it was
        # distilled for (self-checksummed payload; see repro.stage1)
        data["prefilter"] = prefilter.to_dict()
    return data


def advisor_to_binary(
    tool: AdvisingTool,
    sidecar_name: str = "advisor" + BINARY_SIDECAR_SUFFIX,
) -> tuple[dict, bytes]:
    """Serialize *tool* as a ``(header, sidecar)`` pair.

    The header is the JSON payload (document, provenance, health,
    annotations, pre-filter) with an ``index_binary`` block naming
    *sidecar_name*; the sidecar holds every index array in the
    mmap-able layout of :mod:`repro.core.binindex`.  Both halves are
    produced under the advisor's freeze lock, so a concurrent
    ``extend()`` lands entirely before or after them and they describe
    the same index generation.
    """
    with tool.freeze():
        data = _header(tool)
        block, sidecar = binindex.pack_index(tool.recommender)
    block["sidecar"] = sidecar_name
    data["index_binary"] = block
    return data, sidecar


def encode_header(data: dict) -> str:
    """The header's JSON text, compact.

    No indent: any indent sends ``json.dumps`` from its C encoder to
    the pure-Python one, and a guide's header is megabytes of nested
    lists (the per-sentence annotations).  Headers written indented
    still load.
    """
    return json.dumps(data, ensure_ascii=False, separators=(",", ":"))


def _load_annotations(data: dict,
                      document: Document) -> DocumentAnnotations | None:
    payload = data.get("annotations")
    if payload is None:
        return None
    texts = [s.text for s in document.iter_sentences()]
    return DocumentAnnotations.from_dict(payload, texts)


def _load_build_health(
    data: dict,
) -> tuple[tuple[DegradationEvent, ...], tuple[QuarantinedSentence, ...]]:
    health = data.get("build_health") or {}
    events = tuple(
        DegradationEvent(
            layer=str(entry.get("layer", "unknown")),
            point=str(entry.get("point", "unknown")),
            error=str(entry.get("error", "")),
            sentence_index=entry.get("sentence_index"),
        )
        for entry in health.get("degradation_events", [])
    )
    quarantined = tuple(
        QuarantinedSentence(
            sentence_index=entry.get("sentence_index"),
            error=entry.get("error"),
        )
        for entry in health.get("quarantined", [])
    )
    return events, quarantined


def _load_provenance(data: dict) -> dict[int, str | None]:
    provenance: dict[int, str | None] = {}
    for entry in data.get("selector_provenance", []):
        index, selector = entry
        provenance[int(index)] = (None if selector is None
                                  else str(selector))
    return provenance


def advisor_from_dict(data: dict, path: str | None = None) -> AdvisingTool:
    """Rebuild an :class:`AdvisingTool` from a saved header.

    *path* is the header file; its ``index_binary`` block names the
    ``.bin`` sidecar next to it, which is mapped read-only.  Every
    malformed payload (another format version, missing keys,
    out-of-range indices, wrong value shapes, a missing or mismatched
    sidecar) surfaces as a :class:`PersistenceError` carrying *path*
    and the payload's declared version.
    """
    if not isinstance(data, dict):
        raise PersistenceError(
            f"advisor payload must be a JSON object, got "
            f"{type(data).__name__}", path=path)
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported advisor format version (this release reads "
            f"only format {FORMAT_VERSION}); {REBUILD_HINT}",
            path=path, format_version=version)
    try:
        return _advisor_from_dict_unchecked(data, path)
    except PersistenceError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise PersistenceError(
            f"malformed advisor payload: {type(error).__name__}: {error}",
            path=path, format_version=version) from error


def _restore_index(data: dict, path: str | None, advising: list,
                   annotations):
    """Restore the recommender off the header's ``.bin`` sidecar."""
    block = data.get("index_binary")
    if not isinstance(block, dict):
        raise ValueError("payload has no index_binary block")
    if path is None:
        raise ValueError(
            "a header needs its file path to locate the sidecar")
    directory = os.path.dirname(os.path.abspath(path))
    sidecar = block.get("sidecar")
    if isinstance(sidecar, str) and os.path.basename(sidecar) == sidecar:
        sidecar_path = os.path.join(directory, sidecar)
        if (not os.path.exists(sidecar_path)
                or os.path.getsize(sidecar_path)
                != block.get("sidecar_bytes")):
            raise ValueError(
                f"sidecar {sidecar!r} is missing or does not match "
                f"the header (expected "
                f"{block.get('sidecar_bytes')!r} bytes)")
    return binindex.restore_recommender(
        block, directory, advising=advising, annotations=annotations,
        threshold=data.get("threshold", 0.15))


def _advisor_from_dict_unchecked(data: dict,
                                 path: str | None) -> AdvisingTool:
    document = Document(
        title=data["document"]["title"],
        pages=data["document"].get("pages", 0),
        sections=[_section_from_dict(s)
                  for s in data["document"]["sections"]],
    )
    document.reindex()
    sentences = document.sentences
    indices = data["advising_sentence_indices"]
    n = len(sentences)
    bad = [i for i in indices if not 0 <= i < n]
    if bad:
        raise ValueError(f"advising indices out of range: {bad[:5]}")
    advising = [sentences[i] for i in indices]
    annotations = _load_annotations(data, document)
    events, quarantined = _load_build_health(data)
    return AdvisingTool(
        document, advising,
        name=data.get("name"),
        degradation_events=events,
        quarantined=quarantined,
        annotations=annotations,
        provenance=_load_provenance(data),
        keywords=_load_keywords(data),
        recommender=_restore_index(data, path, advising, annotations),
        prefilter=_load_prefilter(data, path),
    )


def _load_keywords(data: dict) -> KeywordConfig | None:
    """The header's Stage I keyword sets; a header saved before they
    were recorded loads with the default Table 2 sets."""
    payload = data.get("keywords")
    return None if payload is None else KeywordConfig.from_dict(payload)


def _load_prefilter(data: dict, path: str | None):
    """Rebuild the embedded pre-filter (checksum-verified), if any."""
    payload = data.get("prefilter")
    if payload is None:
        return None
    from repro.stage1.model import AdvicePrefilter, PrefilterError

    try:
        return AdvicePrefilter.from_dict(payload)
    except PrefilterError as error:
        raise PersistenceError(
            f"embedded prefilter failed validation: {error}",
            path=path, format_version=data.get("format_version"),
        ) from error


def save_advisor(tool: AdvisingTool, path: str) -> None:
    """Write *tool* to *path* plus its ``.bin`` sidecar, crash-safely.

    The sidecar is *path* with its extension swapped for ``.bin``; a
    missing parent directory is created.
    Both halves are serialized in memory first, then published with
    :func:`atomic_write_bytes`: the sidecar lands first, the header
    second, so a crash between the two leaves an old header that never
    references the new sidecar; a *stale* header next to a *new*
    sidecar fails loudly at load time via the header's
    ``sidecar_bytes`` record.  Versioned rollback on top of that is
    the snapshot store's job.
    """
    sidecar_path = os.path.splitext(path)[0] + BINARY_SIDECAR_SUFFIX
    data, sidecar = advisor_to_binary(
        tool, sidecar_name=os.path.basename(sidecar_path))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    atomic_write_bytes(sidecar_path, sidecar)
    atomic_write_text(path, encode_header(data))


def load_advisor(path: str) -> AdvisingTool:
    """Load an advisor previously written by :func:`save_advisor`.

    The header's ``.bin`` sidecar is mapped read-only: no tokenization
    and no array deserialization.  Unreadable or corrupt files raise
    :class:`PersistenceError` with the offending path rather than a
    raw ``JSONDecodeError``.
    """
    fault_point("snapshot.load")
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as error:
        raise PersistenceError(
            f"advisor file is not valid JSON: {error}",
            path=path) from error
    except UnicodeDecodeError as error:
        raise PersistenceError(
            f"advisor file is not valid UTF-8: {error}",
            path=path) from error
    return advisor_from_dict(data, path=path)
