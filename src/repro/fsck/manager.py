"""Crash-consistent recovery of a checkpoint directory.

After a crash a :class:`~repro.core.storage.FileStore` directory can
hold, besides intact epochs: a torn final epoch (the crash interrupted
the write), silently corrupt epochs (media bit rot the CRC catches),
orphaned ``*.tmp`` files (crash between temp write and atomic rename),
and — after partial cleanup — *holes* in the index sequence that strand
later epochs outside any recovery line.

:class:`RecoveryManager` turns that mess back into a store the runtime
can trust:

1. **scan** — classify every file (``intact`` / ``torn`` / ``corrupt`` /
   ``orphan-tmp`` / ``unreachable`` / ``foreign``) and walk the epoch
   *lineage graph* from the manifest: an epoch is durable iff its file
   is intact and every ancestor down to its nearest full checkpoint is
   intact too. Stores written before the manifest carried a lineage map
   get the implied linear lineage (parent = index − 1), which reproduces
   the historical contiguous-prefix semantics exactly;
2. **repair** — quarantine everything damaged or chain-broken into
   ``quarantine/`` and re-verify, leaving a directory whose every
   remaining epoch materializes through an intact base+delta chain.
   Orphan *branches* (a fork whose base chain was destroyed) are
   quarantined with their bytes intact, never deleted.

A manifest with a missing or unknown ``format_version`` is a classified
finding: the scan reports it and marks the directory inconsistent (the
CLI exits nonzero) instead of guessing at lineage written by a newer
tool. The directory format itself — frames, manifest, file names, the
quarantine move — is read through :mod:`repro.core.storage`, the same
functions :class:`~repro.core.storage.FileStore` uses.

The recovery invariant, checked by the fault-injection suite: after
``repair()``, every epoch still present materializes byte-identically
to the fault-free execution at the same epoch index.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import ManifestVersionError, StorageError
from repro.core.lineage import MAIN_BRANCH, Lineage
from repro.core.storage import (
    CORRUPT,
    FULL,
    INTACT,
    MANIFEST_NAME,
    SUPPORTED_MANIFESTS,
    TORN,
    Epoch,
    epoch_file_index,
    epoch_lineage,
    manifest_lineage,
    quarantine_file,
    read_frame,
    read_manifest,
)
from repro.obs.tracer import NULL_TRACER

ORPHAN_TMP = "orphan-tmp"
UNREACHABLE = "unreachable"
FOREIGN = "foreign"
MANIFEST = "manifest"


@dataclass
class FileReport:
    """Classification of one file in the checkpoint directory."""

    name: str
    status: str
    #: epoch index for epoch files, None otherwise
    index: Optional[int] = None
    #: epoch kind when the frame was readable
    kind: Optional[str] = None
    #: why the file got its status
    detail: str = ""
    #: what repair did with it ("kept", "quarantined")
    action: str = "kept"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "index": self.index,
            "kind": self.kind,
            "detail": self.detail,
            "action": self.action,
        }


@dataclass
class FsckReport:
    """The outcome of one scan or repair pass."""

    directory: str
    files: List[FileReport] = field(default_factory=list)
    #: intact epoch indices whose whole base chain is intact (sorted)
    durable_epochs: List[int] = field(default_factory=list)
    #: whether every non-quarantined file participates in an intact chain
    consistent: bool = False
    #: whether any durable epoch materializes (a full checkpoint survives)
    recoverable: bool = False
    #: whether the manifest is present and well-formed
    manifest_ok: bool = False
    #: False when the manifest declares a format_version this tool
    #: does not understand (a classified finding, not a traceback)
    manifest_supported: bool = True
    #: the manifest's declared format_version, when one was readable
    format_version: Optional[object] = None
    #: True when this report describes a repair pass
    repaired: bool = False
    #: human-readable notes of what scan/repair did
    actions: List[str] = field(default_factory=list)
    #: branch name → newest durable epoch index on that branch
    branches: Dict[str, int] = field(default_factory=dict)
    #: checkpoint name → durable epoch index it pins
    named: Dict[str, int] = field(default_factory=dict)
    #: branches whose every epoch was stranded by a broken base chain
    orphan_branches: List[str] = field(default_factory=list)

    def by_status(self, status: str) -> List[FileReport]:
        return [entry for entry in self.files if entry.status == status]

    def to_dict(self) -> dict:
        return {
            "directory": self.directory,
            "consistent": self.consistent,
            "recoverable": self.recoverable,
            "manifest_ok": self.manifest_ok,
            "manifest_supported": self.manifest_supported,
            "format_version": self.format_version,
            "repaired": self.repaired,
            "durable_epochs": list(self.durable_epochs),
            "branches": dict(self.branches),
            "named": dict(self.named),
            "orphan_branches": list(self.orphan_branches),
            "files": [entry.to_dict() for entry in self.files],
            "actions": list(self.actions),
            "counts": {
                status: len(self.by_status(status))
                for status in (
                    INTACT,
                    TORN,
                    CORRUPT,
                    ORPHAN_TMP,
                    UNREACHABLE,
                    FOREIGN,
                )
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        counts = self.to_dict()["counts"]
        parts = [f"{n} {status}" for status, n in counts.items() if n]
        state = "consistent" if self.consistent else "INCONSISTENT"
        base = "recoverable" if self.recoverable else "no recovery base"
        return (
            f"{self.directory}: {state}, {base}, "
            f"{len(self.durable_epochs)} durable epoch(s)"
            + (f" ({', '.join(parts)})" if parts else "")
        )


class RecoveryManager:
    """Scan and repair one checkpoint directory (see module docstring)."""

    def __init__(
        self,
        directory: str,
        quarantine_dir: Optional[str] = None,
        tracer=None,
    ) -> None:
        self.directory = directory
        self.quarantine_dir = quarantine_dir or os.path.join(
            directory, "quarantine"
        )
        #: observability hook; the no-op singleton unless one is supplied
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- scanning ----------------------------------------------------------

    def scan(self) -> FsckReport:
        """Classify every file; compute the durable prefix. Read-only."""
        report = FsckReport(directory=self.directory)
        if not os.path.isdir(self.directory):
            raise StorageError(
                f"{self.directory!r} is not a checkpoint directory"
            )
        entries: List[FileReport] = []
        for name in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, name)
            if os.path.isdir(path):
                continue  # quarantine/ and other directories
            entries.append(self._classify(name, path))
        report.files = entries
        lineage_meta = self._check_manifest(report)
        self._resolve_sequence(report, lineage_meta)
        report.consistent = report.manifest_supported and not [
            entry
            for entry in entries
            if entry.status in (TORN, CORRUPT, ORPHAN_TMP, UNREACHABLE)
        ]
        if self.tracer.enabled:
            self.tracer.event(
                "fsck.scan",
                directory=self.directory,
                files=len(entries),
                durable_epochs=len(report.durable_epochs),
                consistent=report.consistent,
                recoverable=report.recoverable,
            )
        return report

    def _classify(self, name: str, path: str) -> FileReport:
        if name.endswith(".tmp"):
            return FileReport(
                name,
                ORPHAN_TMP,
                detail="temporary left by an interrupted write",
            )
        if name == MANIFEST_NAME:
            return FileReport(name, MANIFEST)
        try:
            index = epoch_file_index(name)
        except ValueError:
            return FileReport(
                name, FOREIGN, detail="epoch-like name that no store writes"
            )
        if index is None:
            return FileReport(name, FOREIGN, detail="not a store file")
        status, kind, _, detail = read_frame(path)
        return FileReport(name, status, index=index, kind=kind, detail=detail)

    def _resolve_sequence(
        self, report: FsckReport, lineage_meta: Dict[int, dict]
    ) -> None:
        """Durable epochs: intact epochs whose whole base chain is intact.

        Lineage-graph semantics (:meth:`Lineage.intact_chain` over the
        intact epochs): walk each epoch's parent pointers down to its
        nearest full checkpoint; a damaged or missing ancestor
        reclassifies the (file-intact) epoch ``unreachable``, because no
        recovery line can materialize it. Epochs without a manifest
        lineage entry get the implied linear lineage (parent = index−1,
        branch ``main``), which reproduces the historical
        contiguous-prefix behaviour on pre-lineage stores. A non-main
        branch with stranded epochs and no durable one is an *orphan
        branch* — reported as such; :meth:`repair` quarantines (never
        deletes) every stranded epoch, orphaned or not.
        """
        intact = []
        epoch_files = [e for e in report.files if e.index is not None]
        for entry in sorted(epoch_files, key=lambda e: e.index):
            if entry.status != INTACT:
                continue
            meta = epoch_lineage(lineage_meta, entry.index)
            record = Epoch(
                entry.index,
                entry.kind,
                b"",
                meta["parent"],
                meta["branch"],
                meta["name"],
            )
            intact.append((entry, record))
        graph = Lineage(record for _, record in intact)
        durable = []
        stranded = []
        for entry, record in intact:
            if graph.intact_chain(record.index):
                durable.append(record)
            else:
                stranded.append((entry, record.branch))
        survivors = Lineage(durable)
        report.durable_epochs = [record.index for record in durable]
        report.branches = survivors.branches()
        report.named = survivors.named()
        # A branch is orphaned only when none of its epochs is durable.
        orphans = {
            branch
            for _, branch in stranded
            if branch != MAIN_BRANCH and branch not in report.branches
        }
        for entry, branch in stranded:
            entry.status = UNREACHABLE
            entry.detail = "intact but its base chain is broken"
            if branch in orphans:
                entry.detail += f" (orphan branch {branch!r})"
        report.orphan_branches = sorted(orphans)
        report.recoverable = any(record.kind == FULL for record in durable)

    def _check_manifest(self, report: FsckReport) -> Dict[int, dict]:
        """Validate the manifest; return its epoch lineage map (if any)."""
        try:
            manifest = read_manifest(self.directory)
        except (OSError, ValueError):
            manifest = None
        except ManifestVersionError as exc:
            # A newer (or garbage) manifest format: classify, do not guess.
            version = exc.version
            report.format_version = version
            report.manifest_ok = False
            report.manifest_supported = False
            report.actions.append(
                f"unsupported manifest format_version {version!r} (this "
                f"tool understands {sorted(SUPPORTED_MANIFESTS)}); "
                "refusing to interpret the epoch lineage"
            )
            for entry in report.files:
                if entry.name == MANIFEST_NAME:
                    entry.detail = f"unsupported format_version {version!r}"
            return {}
        if manifest is None or not isinstance(manifest.get("classes"), dict):
            report.manifest_ok = False
            report.actions.append("manifest missing or malformed")
            return {}
        report.format_version = manifest["format_version"]
        report.manifest_ok = True
        return manifest_lineage(manifest)

    # -- repairing ---------------------------------------------------------

    def repair(self) -> FsckReport:
        """Quarantine everything outside the durable prefix; re-verify.

        Truncates the epoch *sequence*, never a file's bytes: damaged and
        stranded epochs are moved (with their evidence intact) into the
        quarantine directory, so forensics stay possible while the store
        itself becomes consistent. Returns the post-repair report.
        """
        report = self.scan()
        if not report.manifest_supported:
            # Lineage semantics come from the manifest; with a manifest
            # this tool cannot read, any quarantine decision would be a
            # guess. Leave every byte where it is.
            report.actions.append(
                "repair refused: manifest format unsupported, no file moved"
            )
            report.repaired = True
            return report
        moved = 0
        for entry in report.files:
            if entry.status in (TORN, CORRUPT, ORPHAN_TMP, UNREACHABLE):
                if self._quarantine(entry.name):
                    entry.action = "quarantined"
                    moved += 1
        if moved:
            report.actions.append(f"quarantined {moved} file(s)")
        verify = self.scan()
        report.durable_epochs = verify.durable_epochs
        report.recoverable = verify.recoverable
        report.consistent = verify.consistent
        report.manifest_ok = verify.manifest_ok
        report.manifest_supported = verify.manifest_supported
        report.format_version = verify.format_version
        report.branches = verify.branches
        report.named = verify.named
        report.orphan_branches = verify.orphan_branches
        report.repaired = True
        if self.tracer.enabled:
            self.tracer.event(
                "fsck.repair",
                directory=self.directory,
                quarantined=moved,
                durable_epochs=len(report.durable_epochs),
                consistent=report.consistent,
                recoverable=report.recoverable,
            )
        return report

    def _quarantine(self, name: str) -> bool:
        source = os.path.join(self.directory, name)
        try:
            quarantine_file(source, self.quarantine_dir)
        except OSError:
            return False
        return True
