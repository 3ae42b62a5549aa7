"""Binary, mmap-able index sidecar — the array half of format v4.

A saved advisor (:mod:`repro.core.persistence`, DESIGN §14) is a small
JSON header (document text, metadata, and the array table below) plus
a checksummed ``.bin`` sidecar holding every numeric array of the
sealed index verbatim:

* per segment ``k`` (names are ``segment<k>/<array>``):
  ``data``/``indices``/``indptr`` — the L2-normalized CSR matrix;
  ``csc_indptr``/``csc_rows`` — the CSC postings used for candidate
  pruning; ``norms`` — the row L2 norms of the stored matrix (a
  cross-array consistency probe for deep verification);
* globals: ``idf`` (per-token inverse document frequency), ``dfs``
  (per-token document frequency), ``terms_ids``/``terms_indptr`` — a
  ragged array of each advising sentence's sorted normalized token
  ids (rebuilt into ``frozenset`` term sets lazily at answer time).

Every array is little-endian (``<f8`` / ``<i8``), C-contiguous, and
starts at an :data:`ALIGNMENT`-byte-aligned offset, so the loader
hands each one to :class:`numpy.memmap` directly: no parse, no copy,
no refit, and N prefork worker processes mapping the same file share
one set of read-only pages through the OS page cache.  Warm start is
O(page faults) — the scoring kernels fault pages in on first touch.

Integrity is layered (DESIGN §14): the header records the sidecar's
total size and whole-file checksum plus a per-array checksum table.
:func:`load_arrays` does only the cheap structural checks (magic,
format, size, offset bounds, alignment, array-name table) so the warm
start stays fast; the snapshot store verifies full checksums before
trusting a version, and :func:`verify_sidecar` uses the per-array
table to *name* the corrupt array in ``snapshots verify`` output.
"""

from __future__ import annotations

import hashlib
import os
import struct
from collections.abc import Sequence

import numpy as np
import scipy.sparse as sp

from repro.retrieval.dictionary import Dictionary
from repro.retrieval.segments import IndexSegment, SegmentedIndex
from repro.retrieval.tfidf import TfidfModel
from repro.retrieval.topk import PostingsScorer

#: leading bytes of every sidecar ("EGeria IndeX")
BIN_MAGIC = b"EGIX"

#: version of the sidecar byte layout itself (independent of the JSON
#: header's ``format_version``)
BIN_FORMAT = 1

#: every array starts at a multiple of this many bytes — one cache
#: line, and a divisor of the page size, so no array straddles an
#: unaligned word and SIMD loads in the scoring kernels stay happy
ALIGNMENT = 64

#: bytes reserved at offset 0 for the magic + format preamble; the
#: first array starts here
PREAMBLE_BYTES = 64

#: arrays serialized once per sealed segment, in on-disk order.  The
#: persistence-schema-sync lint rule cross-checks that every name is
#: both written by :func:`pack_index` and read back in this module.
SEGMENT_ARRAYS = ("data", "indices", "indptr",
                  "csc_indptr", "csc_rows", "norms")

#: index-wide arrays serialized once per sidecar (same lint contract)
GLOBAL_ARRAYS = ("idf", "dfs", "terms_ids", "terms_indptr")

#: on-disk dtype per array name — everything is 8-byte little-endian
#: so offsets stay aligned and 64-bit hosts cast for free
ARRAY_DTYPES = {
    "data": "<f8",
    "indices": "<i8",
    "indptr": "<i8",
    "csc_indptr": "<i8",
    "csc_rows": "<i8",
    "norms": "<f8",
    "idf": "<f8",
    "dfs": "<i8",
    "terms_ids": "<i8",
    "terms_indptr": "<i8",
}


class BinaryIndexError(ValueError):
    """A sidecar (or its header block) failed validation."""


def _checksum(data) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _base_name(name: str) -> str:
    """``segment3/indptr`` -> ``indptr``; globals pass through."""
    return name.rsplit("/", 1)[-1]


def _row_norms(data, indptr, n_rows: int) -> np.ndarray:
    """Per-row L2 norms straight off the CSR arrays.

    Deliberately *not* ``scipy.sparse.linalg.norm``: its elementwise
    square canonicalizes the matrix — an **in-place** index sort that
    would corrupt the live scorer (which holds pre-sort index copies
    aliasing the matrix's data array) and reorder the stored floats,
    breaking bit-identity of the serialized kernel sums.  This read
    never mutates anything and accepts read-only views.
    """
    squares = np.asarray(data).astype(np.float64, copy=True) ** 2
    counts = np.diff(np.asarray(indptr))
    rows = np.repeat(np.arange(n_rows, dtype=np.intp), counts)
    return np.sqrt(np.bincount(rows, weights=squares,
                               minlength=n_rows))


def _csr_from_parts(data: np.ndarray, indices: np.ndarray,
                    indptr: np.ndarray,
                    shape: tuple[int, int]) -> sp.csr_matrix:
    """A CSR matrix adopting *data*/*indices*/*indptr* without a copy.

    The ``csr_matrix((data, indices, indptr))`` constructor calls
    ``get_index_dtype(check_contents=True)`` and will downcast int64
    index arrays to a fresh int32 copy — which would silently defeat
    the shared mapping.  Assigning the attributes on an empty matrix
    skips that normalization; the matvec kernels dispatch on the
    arrays' actual dtypes and ``.nnz`` reads ``indptr[-1]``, so the
    matrix is fully functional and still zero-copy.
    """
    matrix = sp.csr_matrix(shape, dtype=np.float64)
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    return matrix


class LazyTermSets(Sequence):
    """Per-sentence term ``frozenset``s decoded on demand.

    The eager build keeps ``list[frozenset[str]]`` for the
    ``matched_terms`` facet of every answer.  Materializing 100k
    frozensets up front would dominate the mmap warm start, so this
    sequence decodes row *i* from the ``terms_indptr``/``terms_ids``
    ragged array only when an answer touches it, memoizing the result
    (reads race benignly under the GIL: the worst case is one
    duplicate decode).  Supports ``list(self) + list(other)`` growth
    so :meth:`KnowledgeRecommender.extended` works on a restored
    recommender.
    """

    def __init__(self, indptr: np.ndarray, ids: np.ndarray,
                 vocabulary: Sequence[str]) -> None:
        self._indptr = indptr
        self._ids = ids
        self._vocabulary = vocabulary
        self._memo: dict[int, frozenset[str]] = {}

    def __len__(self) -> int:
        return len(self._indptr) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        terms = self._memo.get(index)
        if terms is None:
            start = int(self._indptr[index])
            end = int(self._indptr[index + 1])
            terms = frozenset(self._vocabulary[token_id]
                              for token_id in self._ids[start:end].tolist())
            self._memo[index] = terms
        return terms

    def __add__(self, other) -> list:
        return list(self) + list(other)


# -- writing ----------------------------------------------------------------


def pack_index(recommender) -> tuple[dict, bytes]:
    """Serialize *recommender*'s sealed index into ``(block, sidecar)``.

    ``block`` is the JSON-safe ``index_binary`` header (array table,
    vocabulary, model scalars, checksums); ``sidecar`` is the aligned
    byte layout described in the module docstring.  The caller fills
    in ``block["sidecar"]`` with the file name it writes next to the
    header.  Must run under the advisor's freeze so the segments and
    the term sets are one consistent generation.
    """
    index = recommender.index
    named: list[tuple[str, np.ndarray]] = []
    segments_meta: list[dict] = []
    for position, segment in enumerate(index.segments):
        csr = segment.matrix.tocsr()
        scorer = segment.scorer
        arrays = {
            "data": csr.data,
            "indices": csr.indices,
            "indptr": csr.indptr,
            "csc_indptr": scorer._indptr,
            "csc_rows": scorer._rows,
            "norms": _row_norms(csr.data, csr.indptr, csr.shape[0]),
        }
        for name in SEGMENT_ARRAYS:
            named.append((
                f"segment{position}/{name}",
                np.ascontiguousarray(arrays[name],
                                     dtype=ARRAY_DTYPES[name]),
            ))
        segments_meta.append({
            "doc_base": int(segment.doc_base),
            "rows": int(segment.size),
            "terms": int(segment.n_terms),
            "nnz": int(csr.indptr[-1]),
        })

    dictionary = index.tfidf.dictionary
    n_terms = len(dictionary)
    vocabulary = [dictionary.id2token[i] for i in range(n_terms)]
    dfs = np.zeros(n_terms, dtype="<i8")
    for token_id, doc_freq in dictionary.dfs.items():
        dfs[token_id] = doc_freq
    token2id = dictionary.token2id
    term_sets = recommender._sentence_terms
    terms_indptr = np.zeros(len(term_sets) + 1, dtype="<i8")
    flat_ids: list[int] = []
    for row, terms in enumerate(term_sets):
        try:
            ids = sorted(token2id[term] for term in terms)
        except KeyError as error:
            raise BinaryIndexError(
                f"sentence {row} has term {error.args[0]!r} outside "
                f"the fitted dictionary; cannot pack term sets"
            ) from error
        flat_ids.extend(ids)
        terms_indptr[row + 1] = len(flat_ids)
    arrays = {
        "idf": index.tfidf.idf,
        "dfs": dfs,
        "terms_ids": np.asarray(flat_ids, dtype="<i8"),
        "terms_indptr": terms_indptr,
    }
    for name in GLOBAL_ARRAYS:
        named.append((name, np.ascontiguousarray(
            arrays[name], dtype=ARRAY_DTYPES[name])))

    buffer = bytearray()
    buffer += BIN_MAGIC
    buffer += struct.pack("<I", BIN_FORMAT)
    buffer += b"\0" * (PREAMBLE_BYTES - len(buffer))
    table: list[dict] = []
    for name, array in named:
        buffer += b"\0" * ((-len(buffer)) % ALIGNMENT)
        offset = len(buffer)
        raw = array.tobytes()
        buffer += raw
        table.append({
            "name": name,
            "dtype": ARRAY_DTYPES[_base_name(name)],
            "shape": [int(dim) for dim in array.shape],
            "offset": offset,
            "nbytes": len(raw),
            "checksum": _checksum(raw),
        })
    sidecar = bytes(buffer)
    block = {
        "bin_format": BIN_FORMAT,
        "byte_order": "little",
        "alignment": ALIGNMENT,
        "sidecar_bytes": len(sidecar),
        "checksum": _checksum(sidecar),
        "vocabulary": vocabulary,
        "num_docs": int(index.tfidf.num_docs),
        "smooth": bool(index.tfidf.smooth),
        "weight_epoch": int(recommender.epoch),
        "fit_docs": int(recommender.fit_docs),
        "stale_docs": int(recommender.stale_docs),
        "segments": segments_meta,
        "arrays": table,
    }
    return block, sidecar


# -- reading ----------------------------------------------------------------


def _expected_names(block: dict) -> set[str]:
    names = set(GLOBAL_ARRAYS)
    for position in range(len(block.get("segments") or ())):
        for name in SEGMENT_ARRAYS:
            names.add(f"segment{position}/{name}")
    return names


def _validated_entries(block: dict, total_bytes: int) -> list[dict]:
    """The header's array table, structurally validated against the
    declared schema and the sidecar's actual size."""
    if block.get("bin_format") != BIN_FORMAT:
        raise BinaryIndexError(
            f"unsupported sidecar format {block.get('bin_format')!r} "
            f"(reader supports {BIN_FORMAT})")
    if block.get("byte_order") != "little":
        raise BinaryIndexError(
            f"unsupported byte order {block.get('byte_order')!r}")
    alignment = block.get("alignment")
    if not isinstance(alignment, int) or alignment < 1:
        raise BinaryIndexError(f"bad alignment {alignment!r}")
    if block.get("sidecar_bytes") != total_bytes:
        raise BinaryIndexError(
            f"sidecar is {total_bytes} bytes but the header promises "
            f"{block.get('sidecar_bytes')!r}")
    entries = block.get("arrays")
    if not isinstance(entries, list):
        raise BinaryIndexError("header has no arrays table")
    seen: set[str] = set()
    validated: list[dict] = []
    for entry in entries:
        name = str(entry.get("name"))
        base = _base_name(name)
        if base not in ARRAY_DTYPES:
            raise BinaryIndexError(f"unknown array {name!r} in header")
        dtype = str(entry.get("dtype"))
        if dtype != ARRAY_DTYPES[base]:
            raise BinaryIndexError(
                f"array {name!r} declares dtype {dtype!r}, "
                f"expected {ARRAY_DTYPES[base]!r}")
        shape = tuple(int(dim) for dim in entry.get("shape", ()))
        offset = int(entry.get("offset", -1))
        nbytes = int(entry.get("nbytes", -1))
        expected = int(np.prod(shape, dtype=np.int64)) * \
            np.dtype(dtype).itemsize if shape else 0
        if (nbytes != expected or offset < PREAMBLE_BYTES
                or offset % alignment != 0
                or offset + nbytes > total_bytes):
            raise BinaryIndexError(
                f"array {name!r} has an inconsistent layout "
                f"(offset {offset}, {nbytes} bytes)")
        seen.add(name)
        validated.append({"name": name, "dtype": dtype, "shape": shape,
                          "offset": offset, "nbytes": nbytes,
                          "checksum": entry.get("checksum")})
    expected_names = _expected_names(block)
    if seen != expected_names:
        missing = sorted(expected_names - seen)
        extra = sorted(seen - expected_names)
        raise BinaryIndexError(
            f"array table does not match the declared schema "
            f"(missing {missing}, unexpected {extra})")
    return validated


def load_arrays(block: dict, sidecar_path: str) -> dict[str, np.ndarray]:
    """Map every array described by *block* from the sidecar.

    Each array is a read-only :class:`numpy.memmap` view.  Cheap
    structural validation only — magic, format, size, bounds,
    alignment, and the array-name table; checksums are the snapshot
    store's and :func:`verify_sidecar`'s job.
    """
    total_bytes = os.path.getsize(sidecar_path)
    if total_bytes < PREAMBLE_BYTES:
        raise BinaryIndexError(
            f"sidecar {sidecar_path!r} is too short "
            f"({total_bytes} bytes)")
    with open(sidecar_path, "rb") as handle:
        preamble = handle.read(8)
        if preamble[:4] != BIN_MAGIC:
            raise BinaryIndexError(
                f"sidecar {sidecar_path!r} has bad magic "
                f"{preamble[:4]!r}")
        (bin_format,) = struct.unpack("<I", preamble[4:8])
        if bin_format != BIN_FORMAT:
            raise BinaryIndexError(
                f"sidecar {sidecar_path!r} is format {bin_format}, "
                f"reader supports {BIN_FORMAT}")
    entries = _validated_entries(block, total_bytes)
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        dtype = np.dtype(entry["dtype"])
        shape = entry["shape"]
        if entry["nbytes"] == 0:
            arrays[entry["name"]] = np.empty(shape, dtype=dtype)
        else:
            arrays[entry["name"]] = np.memmap(
                sidecar_path, mode="r", dtype=dtype,
                offset=entry["offset"], shape=shape)
    return arrays


def verify_sidecar(sidecar_bytes: bytes, block: dict) -> list[dict]:
    """Per-array verdict rows for ``snapshots verify``.

    Checks each array's checksum over its slice of *sidecar_bytes* so
    a corrupt sidecar is reported as the specific array that rotted
    (``{"name": "segment0/data", "ok": False, ...}``) rather than an
    opaque whole-file mismatch.  A deep consistency probe recomputes
    each segment's row norms from its CSR arrays and compares them to
    the stored ``norms`` — catching writer bugs where the arrays are
    individually intact but mutually inconsistent.
    """
    rows: list[dict] = []
    try:
        entries = _validated_entries(block, len(sidecar_bytes))
    except BinaryIndexError as error:
        return [{"name": "index_binary", "ok": False,
                 "expected": "a structurally valid array table",
                 "actual": str(error)}]
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        raw = sidecar_bytes[entry["offset"]:
                            entry["offset"] + entry["nbytes"]]
        actual = _checksum(raw)
        ok = actual == entry["checksum"]
        rows.append({"name": entry["name"], "ok": ok,
                     "expected": entry["checksum"], "actual": actual})
        if ok:
            arrays[entry["name"]] = np.frombuffer(
                raw, dtype=np.dtype(entry["dtype"])
            ).reshape(entry["shape"])
    for position, meta in enumerate(block.get("segments") or ()):
        names = {name: f"segment{position}/{name}"
                 for name in SEGMENT_ARRAYS}
        if not all(full in arrays for full in names.values()):
            continue  # checksum rows above already flag the damage
        recomputed = _row_norms(arrays[names["data"]],
                                arrays[names["indptr"]],
                                int(meta["rows"]))
        if not np.array_equal(recomputed, arrays[names["norms"]]):
            rows.append({
                "name": names["norms"], "ok": False,
                "expected": "row norms matching the CSR arrays",
                "actual": "stored norms disagree with recomputation",
            })
    return rows


def restore_recommender(block: dict, directory: str, *, advising,
                        annotations=None, threshold: float,
                        prune: bool = True,
                        cache_size: int | None = None):
    """Rehydrate a serving-ready recommender from a header's
    ``index_binary`` block.

    *directory* holds the sidecar named by ``block["sidecar"]``;
    *advising* is the reconstructed advising-sentence list (same order
    the index was packed in).  Everything numeric — matrices,
    postings, IDF, term-set ids — comes straight off the mapping; only
    small Python-side wrappers (dictionary, segment shells) are built,
    so the warm start does no tokenization and no matrix assembly.
    """
    from repro.core.recommender import (DEFAULT_QUERY_CACHE_SIZE,
                                        KnowledgeRecommender)

    sidecar = block.get("sidecar")
    if not isinstance(sidecar, str) or os.path.basename(sidecar) != sidecar:
        raise BinaryIndexError(f"bad sidecar name {sidecar!r}")
    arrays = load_arrays(block, os.path.join(directory, sidecar))

    vocabulary = block.get("vocabulary")
    if not isinstance(vocabulary, list):
        raise BinaryIndexError("header has no vocabulary")
    dfs = arrays["dfs"]
    idf = arrays["idf"]
    if len(dfs) != len(vocabulary) or len(idf) != len(vocabulary):
        raise BinaryIndexError(
            f"vocabulary of {len(vocabulary)} tokens does not match "
            f"dfs[{len(dfs)}] / idf[{len(idf)}]")
    dictionary = Dictionary()
    dictionary.token2id = {token: token_id
                           for token_id, token in enumerate(vocabulary)}
    dictionary.id2token = dict(enumerate(vocabulary))
    dictionary.dfs = {token_id: int(doc_freq) for token_id, doc_freq
                      in enumerate(dfs.tolist()) if doc_freq}
    dictionary.num_docs = int(block.get("num_docs", 0))
    tfidf = TfidfModel.__new__(TfidfModel)
    tfidf.dictionary = dictionary
    tfidf.smooth = bool(block.get("smooth", False))
    tfidf.num_docs = dictionary.num_docs
    tfidf._idf = idf

    segments: list[IndexSegment] = []
    for position, meta in enumerate(block.get("segments") or ()):
        rows = int(meta["rows"])
        terms = int(meta["terms"])
        nnz = int(meta["nnz"])
        seg = {name: arrays[f"segment{position}/{name}"]
               for name in SEGMENT_ARRAYS}
        if (seg["indptr"].shape != (rows + 1,)
                or int(seg["indptr"][-1]) != nnz
                or seg["data"].shape != (nnz,)
                or seg["indices"].shape != (nnz,)
                or seg["csc_indptr"].shape != (terms + 1,)
                or seg["csc_rows"].shape != (nnz,)
                or seg["norms"].shape != (rows,)):
            raise BinaryIndexError(
                f"segment {position} arrays disagree with its "
                f"declared geometry ({rows}x{terms}, nnz {nnz})")
        matrix = _csr_from_parts(seg["data"], seg["indices"],
                                 seg["indptr"], (rows, terms))
        scorer = PostingsScorer.from_arrays(
            seg["indptr"], seg["indices"], seg["data"],
            seg["csc_indptr"], seg["csc_rows"], (rows, terms))
        segments.append(IndexSegment(int(meta["doc_base"]),
                                     matrix, scorer))
    index = SegmentedIndex(tfidf, segments, threshold)

    term_sets = LazyTermSets(arrays["terms_indptr"],
                             arrays["terms_ids"], vocabulary)
    if len(term_sets) != len(advising) or len(index) != len(advising):
        raise BinaryIndexError(
            f"{len(advising)} advising sentences but the sidecar "
            f"packs {len(term_sets)} term sets over {len(index)} "
            f"indexed rows")
    if cache_size is None:
        cache_size = DEFAULT_QUERY_CACHE_SIZE
    return KnowledgeRecommender.restore(
        advising, index, term_sets,
        annotations=annotations, prune=prune, cache_size=cache_size,
        epoch=int(block.get("weight_epoch", 0)),
        fit_docs=int(block.get("fit_docs", 0)),
        stale_docs=int(block.get("stale_docs", 0)))
