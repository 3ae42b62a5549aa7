"""Versioned, crash-safe advisor snapshot store.

The ROADMAP's serving items (multi-tenant registries, segment indexes,
mmap prefork) all assume the index is a *production artifact*: it must
survive crashes mid-save and be replaceable under live traffic.  This
module provides that durability substrate.

Layout of a store rooted at ``DIR``::

    DIR/
      CURRENT            the committed version ("snapshot-7"), flipped
                         atomically — the single commit point readers
                         trust
      snapshot-7/
        MANIFEST.json    {"format": 3, "version": 7, "payload":
                          "advisor.json", "files": [{"name": ...,
                          "bytes": N, "checksum": "sha256:..."}, ...]}
        advisor.json     the format-v4 advisor header
        advisor.bin      its mmap-able index sidecar; the manifest entry
                         also repeats the per-array checksum table, so
                         ``verify`` can name the corrupt array

Manifest format 3 is the only format read.  A snapshot in any other
format (the JSON-only stores of earlier releases) fails verification
with a hint to rebuild it with ``egeria build``, so load falls back
past it exactly as past corruption.  Every file the manifest lists is
checksum-verified on load, including the ``segment-<k>.json`` files
older releases wrote next to the sidecar (their header's ``index``
block is ignored).

Write protocol (:meth:`SnapshotStore.save`):

1. serialize the advisor under its reload lock (a concurrent
   ``extend()`` can never tear the payload);
2. stage everything in a dot-prefixed temp directory — header and
   sidecar first, then the MANIFEST carrying their SHA-256 — using the
   chunked atomic writer of :mod:`repro.core.persistence`, whose
   ``snapshot.write``/``snapshot.commit`` fault points let chaos plans
   kill the save at any byte-offset class;
3. rename the staged directory to ``snapshot-<n>`` (invisible until
   complete: directory scans ignore dot-entries);
4. flip ``CURRENT`` atomically, then garbage-collect old versions
   beyond the retention knob.

A crash anywhere in 1–3 leaves at worst an ignored temp directory; a
crash before 4 leaves ``CURRENT`` on the previous good version.  Load
(:meth:`SnapshotStore.load`) verifies the manifest checksums against
the file bytes and falls back, newest first, to the last snapshot
that verifies — flipped bits on disk are detected, logged, and routed
around instead of crashing the service.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import threading
from dataclasses import dataclass

from repro.core import binindex
from repro.core.advisor import AdvisingTool
from repro.core.persistence import (
    REBUILD_HINT,
    PersistenceError,
    advisor_from_dict,
    advisor_to_binary,
    atomic_write_bytes,
    atomic_write_text,
    encode_header,
)
from repro.resilience.faults import fault_point

logger = logging.getLogger("repro.core.snapshots")

#: the one manifest schema version written and read (independent of
#: the advisor format version)
MANIFEST_FORMAT = 3

SNAPSHOT_PREFIX = "snapshot-"
CURRENT_NAME = "CURRENT"
MANIFEST_NAME = "MANIFEST.json"
PAYLOAD_NAME = "advisor.json"
SIDECAR_NAME = "advisor.bin"

#: committed versions retained after a save (the newest always stays)
DEFAULT_KEEP = 3


class SnapshotError(PersistenceError):
    """No usable snapshot: the store is empty, or every candidate
    version failed verification."""


@dataclass(frozen=True)
class SnapshotInfo:
    """One committed snapshot version.

    ``checksum``/``payload_bytes`` describe the advisor header;
    ``files`` counts every checksummed file in the snapshot directory
    (header plus sidecar).
    """

    version: int
    path: str
    checksum: str
    payload_bytes: int
    files: int = 1

    @property
    def name(self) -> str:
        return f"{SNAPSHOT_PREFIX}{self.version}"


@dataclass(frozen=True)
class LoadReport:
    """How a :meth:`SnapshotStore.load` found its advisor.

    ``recovered`` is True when the version ``CURRENT`` pointed at (or
    the newest version, if ``CURRENT`` was missing/corrupt) failed
    verification and an older snapshot was served instead; ``skipped``
    lists every rejected ``(version, error)`` pair, newest first.
    """

    version: int
    current_version: int | None
    recovered: bool
    skipped: tuple[tuple[int, str], ...] = ()


def _checksum(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


class SnapshotStore:
    """A directory of monotonically versioned advisor snapshots.

    One store serves one advisor lineage.  Saves from multiple threads
    of one process are serialized by an internal lock; multi-process
    writers need external coordination (each save is still atomic, but
    two processes may race for the same version number).
    """

    def __init__(self, root: str, keep: int = DEFAULT_KEEP,
                 binary: bool = True) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        # every snapshot is a header + sidecar pair; ``binary`` stays
        # only so callers that still pass ``binary=True`` keep working
        if binary is not True:
            raise ValueError(
                "snapshots are always saved as a header + advisor.bin "
                "sidecar; binary must be True")
        self.root = root
        self.keep = keep
        self._lock = threading.Lock()
        self.last_report: LoadReport | None = None

    # -- naming / scanning ------------------------------------------------

    def _dir(self, version: int) -> str:
        return os.path.join(self.root, f"{SNAPSHOT_PREFIX}{version}")

    def versions(self) -> list[int]:
        """Committed versions (directories with a manifest), ascending."""
        found: list[int] = []
        try:
            entries = os.listdir(self.root)
        except OSError:
            return []
        for entry in entries:
            if not entry.startswith(SNAPSHOT_PREFIX):
                continue
            suffix = entry[len(SNAPSHOT_PREFIX):]
            if not suffix.isdigit():
                continue
            if os.path.exists(os.path.join(self.root, entry, MANIFEST_NAME)):
                found.append(int(suffix))
        return sorted(found)

    def current_version(self) -> int | None:
        """The version ``CURRENT`` points at, or ``None`` when absent
        or unparseable (load then falls back to the newest version)."""
        try:
            with open(os.path.join(self.root, CURRENT_NAME),
                      encoding="utf-8") as handle:
                name = handle.read().strip()
        except OSError:
            return None
        if not name.startswith(SNAPSHOT_PREFIX):
            return None
        suffix = name[len(SNAPSHOT_PREFIX):]
        return int(suffix) if suffix.isdigit() else None

    # -- saving -----------------------------------------------------------

    def save(self, tool: AdvisingTool,
             keep: int | None = None) -> SnapshotInfo:
        """Commit *tool* as the next snapshot version and flip
        ``CURRENT`` to it; returns the committed :class:`SnapshotInfo`.

        The advisor is serialized under its reload lock, so a
        concurrent ``extend()`` either lands entirely before or
        entirely after the snapshot — never halfway.  The sidecar's
        manifest entry carries the per-array checksum table so
        verification names corrupt arrays.  The store directory is
        created on the first save.
        """
        data, sidecar = advisor_to_binary(tool, sidecar_name=SIDECAR_NAME)
        payload = encode_header(data).encode("utf-8")
        # the manifest entry mirrors the header's per-array checksum
        # table so `snapshots verify` can name the corrupt array
        # without re-parsing the payload
        arrays = [{"name": array["name"],
                   "offset": array["offset"],
                   "nbytes": array["nbytes"],
                   "checksum": array["checksum"]}
                  for array in data["index_binary"]["arrays"]]
        blobs = [(PAYLOAD_NAME, payload, None),
                 (SIDECAR_NAME, sidecar, {"arrays": arrays})]
        checksum = _checksum(payload)
        with self._lock:
            version = self._next_version()
            staging = os.path.join(
                self.root, f".staging-{version}.{os.getpid()}")
            final = self._dir(version)
            try:
                os.makedirs(staging)
                manifest_files = []
                for name, blob, extra in blobs:
                    atomic_write_bytes(
                        os.path.join(staging, name), blob)
                    entry = {
                        "name": name,
                        "bytes": len(blob),
                        "checksum": _checksum(blob),
                    }
                    if extra:
                        entry.update(extra)
                    manifest_files.append(entry)
                atomic_write_text(
                    os.path.join(staging, MANIFEST_NAME),
                    json.dumps({
                        "format": MANIFEST_FORMAT,
                        "version": version,
                        "payload": PAYLOAD_NAME,
                        "files": manifest_files,
                    }, indent=1))
                os.rename(staging, final)
            except BaseException:
                shutil.rmtree(staging, ignore_errors=True)
                raise
            # the commit point: readers only trust CURRENT
            atomic_write_text(
                os.path.join(self.root, CURRENT_NAME),
                f"{SNAPSHOT_PREFIX}{version}\n")
            self._gc_locked(self.keep if keep is None else keep)
        logger.info("snapshot %d committed (%d files, %d bytes, %s)",
                    version, len(blobs), len(payload), checksum[:19])
        return SnapshotInfo(version=version, path=final,
                            checksum=checksum, payload_bytes=len(payload),
                            files=len(blobs))

    def _next_version(self) -> int:
        """One past the highest version present — committed or not, so
        a crashed save's leftovers are never reused."""
        highest = 0
        try:
            entries = os.listdir(self.root)
        except OSError:
            entries = []
        for entry in entries:
            if entry.startswith(SNAPSHOT_PREFIX):
                suffix = entry[len(SNAPSHOT_PREFIX):]
                if suffix.isdigit():
                    highest = max(highest, int(suffix))
        return highest + 1

    # -- loading ----------------------------------------------------------

    def load(self) -> AdvisingTool:
        """The advisor of the last-good snapshot (see
        :meth:`load_with_report`)."""
        tool, _ = self.load_with_report()
        return tool

    def load_with_report(self) -> tuple[AdvisingTool, LoadReport]:
        """Load the committed snapshot, falling back on corruption.

        Tries the ``CURRENT`` version first, then every other
        committed version newest-first; the first one whose checksum
        and payload verify wins.  Raises :class:`SnapshotError` when
        the store has no loadable snapshot at all.
        """
        current = self.current_version()
        candidates = sorted(self.versions(), reverse=True)
        if current is not None and current in candidates:
            candidates.remove(current)
            candidates.insert(0, current)
        skipped: list[tuple[int, str]] = []
        for version in candidates:
            try:
                tool = self._load_version(version)
            except (PersistenceError, OSError) as error:
                logger.warning(
                    "snapshot %d failed verification (%s); falling back",
                    version, error)
                skipped.append((version, str(error)))
                continue
            report = LoadReport(
                version=version, current_version=current,
                recovered=bool(skipped), skipped=tuple(skipped))
            self.last_report = report
            return tool, report
        if not candidates:
            raise SnapshotError("snapshot store is empty", path=self.root)
        reasons = "; ".join(f"snapshot-{version}: {reason}"
                            for version, reason in skipped)
        raise SnapshotError(f"no loadable snapshot ({reasons})",
                            path=self.root)

    def _load_version(self, version: int) -> AdvisingTool:
        """Verify and load one version; raises on any inconsistency."""
        manifest = self._manifest(version)
        payload_name = manifest.get("payload", PAYLOAD_NAME)
        payload_path = os.path.join(self._dir(version), payload_name)
        declared_version = manifest.get("version")
        if declared_version != version:
            raise SnapshotError(
                f"manifest declares version {declared_version!r}",
                path=payload_path, format_version=version)
        payload = None
        for entry in self._manifest_files(manifest, version):
            name = str(entry.get("name"))
            blob = self._read_verified(
                os.path.join(self._dir(version), name),
                entry.get("checksum"), entry.get("bytes"), version)
            if name == payload_name:
                payload = blob
        if payload is None:
            raise SnapshotError(
                f"manifest lists no payload file {payload_name!r}",
                path=payload_path, format_version=version)
        data = self._parse_payload(payload, payload_path, version)
        return advisor_from_dict(data, path=payload_path)

    def _read_verified(self, path: str, declared_checksum: object,
                       declared_bytes: object, version: int) -> bytes:
        """Read one snapshot file and verify its manifest entry."""
        fault_point("snapshot.load")
        with open(path, "rb") as handle:
            blob = handle.read()
        if declared_bytes is not None and len(blob) != declared_bytes:
            raise SnapshotError(
                f"size mismatch: manifest declares {declared_bytes} "
                f"bytes, file has {len(blob)}",
                path=path, format_version=version)
        if _checksum(blob) != declared_checksum:
            raise SnapshotError(
                f"checksum mismatch: manifest declares "
                f"{declared_checksum!r}",
                path=path, format_version=version)
        return blob

    @staticmethod
    def _parse_payload(payload: bytes, path: str, version: int) -> dict:
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotError(
                f"payload verified but does not parse: {error}",
                path=path, format_version=version) from error

    @staticmethod
    def _manifest_files(manifest: dict, version: int) -> list[dict]:
        entries = manifest.get("files")
        if not isinstance(entries, list) or not entries \
                or not all(isinstance(entry, dict) for entry in entries):
            raise SnapshotError(
                "manifest files list has wrong shape",
                format_version=version)
        return entries

    def _manifest(self, version: int) -> dict:
        path = os.path.join(self._dir(version), MANIFEST_NAME)
        try:
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as error:
            raise SnapshotError(
                f"unreadable manifest: {error}", path=path,
                format_version=version) from error
        if not isinstance(manifest, dict):
            raise SnapshotError(
                "manifest has wrong shape", path=path,
                format_version=version)
        if manifest.get("format") != MANIFEST_FORMAT:
            raise SnapshotError(
                f"unsupported manifest format (this release reads only "
                f"format {MANIFEST_FORMAT}); {REBUILD_HINT}", path=path,
                format_version=manifest.get("format"))
        return manifest

    def verify(self, version: int) -> bool:
        """True when *version* loads cleanly end to end."""
        try:
            self._load_version(version)
        except (PersistenceError, OSError):
            return False
        return True

    def verify_report(self, version: int) -> list[dict]:
        """Per-file integrity report for one version.

        One entry per manifest-listed file: ``{"name", "ok",
        "expected", "actual"}`` where expected/actual are sha256
        checksums (or byte counts / error text when that is what
        differs).  An unreadable manifest yields a single failing
        entry for ``MANIFEST.json`` — the CLI's ``snapshots verify``
        prints exactly the failing rows.
        """
        try:
            entries = self._manifest_files(self._manifest(version),
                                           version)
        except SnapshotError as error:
            return [{"name": MANIFEST_NAME, "ok": False,
                     "expected": f"a readable format-{MANIFEST_FORMAT} "
                                 f"manifest",
                     "actual": str(error)}]
        report: list[dict] = []
        for entry in entries:
            name = str(entry.get("name", PAYLOAD_NAME))
            expected = entry.get("checksum")
            path = os.path.join(self._dir(version), name)
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            except OSError as error:
                report.append({"name": name, "ok": False,
                               "expected": expected,
                               "actual": f"unreadable: {error}"})
                continue
            declared_bytes = entry.get("bytes")
            actual = _checksum(blob)
            if actual != expected:
                report.append({"name": name, "ok": False,
                               "expected": expected, "actual": actual})
                report.extend(
                    self._sidecar_detail(version, name, entry, blob))
            elif declared_bytes is not None \
                    and len(blob) != declared_bytes:
                report.append({"name": name, "ok": False,
                               "expected": f"{declared_bytes} bytes",
                               "actual": f"{len(blob)} bytes"})
            else:
                report.append({"name": name, "ok": True,
                               "expected": expected, "actual": actual})
        return report

    def _sidecar_detail(self, version: int, name: str, entry: dict,
                        blob: bytes) -> list[dict]:
        """Per-array rows for a corrupt binary sidecar.

        When a manifest entry carrying an ``arrays`` table fails its
        whole-file checksum, descend into the sidecar and name the
        damaged array (``advisor.bin[segment0/data]``).  The deep
        probe in :func:`binindex.verify_sidecar` runs when the payload
        still parses; otherwise the manifest's own per-array checksum
        table is enough to localize the damage.
        """
        arrays = entry.get("arrays")
        if not isinstance(arrays, list) or not arrays:
            return []
        block = None
        try:
            payload_path = os.path.join(
                self._dir(version), PAYLOAD_NAME)
            with open(payload_path, "rb") as handle:
                payload = handle.read()
            candidate = json.loads(
                payload.decode("utf-8")).get("index_binary")
            if isinstance(candidate, dict):
                block = candidate
        except (OSError, ValueError):
            block = None
        rows: list[dict] = []
        if block is not None:
            try:
                for row in binindex.verify_sidecar(blob, block):
                    if not row.get("ok"):
                        rows.append({
                            "name": f"{name}[{row['name']}]",
                            "ok": False,
                            "expected": row.get("expected"),
                            "actual": row.get("actual"),
                        })
                return rows
            except (ValueError, KeyError, TypeError):
                rows = []
        for row in arrays:
            try:
                array_name = str(row["name"])
                offset = int(row["offset"])
                nbytes = int(row["nbytes"])
                expected = row["checksum"]
            except (KeyError, TypeError, ValueError):
                continue
            chunk = blob[offset:offset + nbytes]
            if len(chunk) != nbytes:
                rows.append({"name": f"{name}[{array_name}]",
                             "ok": False,
                             "expected": f"{nbytes} bytes",
                             "actual": f"{len(chunk)} bytes"})
                continue
            actual = binindex._checksum(chunk)
            if actual != expected:
                rows.append({"name": f"{name}[{array_name}]",
                             "ok": False,
                             "expected": expected, "actual": actual})
        return rows

    # -- retention --------------------------------------------------------

    def gc(self, keep: int | None = None) -> list[int]:
        """Remove committed versions beyond the newest *keep*; the
        ``CURRENT`` target is always retained.  Returns the removed
        versions."""
        with self._lock:
            return self._gc_locked(self.keep if keep is None else keep)

    def _gc_locked(self, keep: int) -> list[int]:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        versions = self.versions()
        protected = set(versions[-keep:])
        current = self.current_version()
        if current is not None:
            protected.add(current)
        removed: list[int] = []
        for version in versions:
            if version in protected:
                continue
            target = self._dir(version)
            # drop the manifest first: scans and loads treat the
            # directory as uncommitted the moment it is gone, so a
            # crash mid-rmtree cannot produce a half-deleted candidate
            try:
                os.unlink(os.path.join(target, MANIFEST_NAME))
            except OSError:
                continue
            shutil.rmtree(target, ignore_errors=True)
            removed.append(version)
        return removed

    # -- diagnostics ------------------------------------------------------

    def stats(self) -> dict:
        """The ``/healthz`` ``snapshots`` block."""
        versions = self.versions()
        payload: dict = {
            "root": self.root,
            "versions": versions,
            "current_version": self.current_version(),
            "keep": self.keep,
        }
        if self.last_report is not None:
            payload["last_load"] = {
                "version": self.last_report.version,
                "recovered": self.last_report.recovered,
                "skipped": [list(entry)
                            for entry in self.last_report.skipped],
            }
        return payload
