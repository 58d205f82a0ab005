"""Durable checkpoint stores.

The paper writes checkpoints to an output stream drained to stable storage;
this module supplies that substrate. A store holds a sequence of *epochs*,
each either a full checkpoint (a recovery base) or an incremental delta.
Recovery replays the most recent full checkpoint plus every delta after it.

:class:`FileStore` is crash-tolerant: each epoch file carries a magic
number, a length and a CRC-32, and recovery silently discards a torn tail
(a partially written final epoch), which is exactly the state a crash
mid-checkpoint leaves behind.

This module owns the :class:`FileStore` directory format, and ``fsck``
reads it through the same functions: :func:`read_frame` decodes an epoch
file, :func:`read_manifest` parses ``manifest.json`` and judges its
``format_version`` (:func:`manifest_lineage` reads its lineage map),
:func:`epoch_file_index` parses an epoch file name,
:func:`quarantine_file` moves a file aside, and :func:`epoch_lineage`
supplies the implied linear lineage of a manifest-v1 store.

Every store layer implements the :class:`CheckpointStore` protocol.
:class:`StoreDecorator` layers add behaviour over another store and pass
the rest of the protocol through: :class:`RetryingStore` retries
transient append failures, and :class:`BackgroundWriter` implements the
paper's "written from the output stream to stable storage
asynchronously" (the application thread enqueues epoch bytes and
continues; a writer thread drains them to the underlying store in
order; write failures surface on the next ``append``, ``flush`` or
``close``). Each layer writes what only it knows onto an append's
:class:`AppendReceipt`.
"""

from __future__ import annotations

import json
import os
import queue
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.core.errors import ManifestVersionError, StorageError
from repro.core.lineage import (
    AUTO,
    MAIN_BRANCH,
    EpochRef,
    Lineage,
    resolve_parent,
)
from repro.core.registry import DEFAULT_REGISTRY, ClassRegistry
from repro.core.restore import ObjectTable, compact_epochs, replay_epochs
from repro.core.retry import RetryPolicy, RetryStats
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

FULL = "full"
INCREMENTAL = "incremental"

#: what :func:`read_frame` finds in an epoch file: a usable frame, a frame
#: cut short (a crash mid-write), or one that fails its checks (bit rot)
INTACT = "intact"
TORN = "torn"
CORRUPT = "corrupt"

_MAGIC = b"RCKP"
#: epoch frame format: 1 = CRC over the payload only, 2 = CRC also over
#: the kind byte and the length field (see :func:`frame_crc`)
_VERSION = 2
_SUPPORTED_FRAMES = (1, _VERSION)
#: manifest format: 1 = classes only (implied-linear lineage),
#: 2 = classes + explicit epoch lineage map
MANIFEST_VERSION = 2
SUPPORTED_MANIFESTS = (1, MANIFEST_VERSION)
MANIFEST_NAME = "manifest.json"
_KIND_CODES = {FULL: 0, INCREMENTAL: 1}
_KIND_NAMES = {0: FULL, 1: INCREMENTAL}
# zlib-compressed payloads, which older writers could produce; still read
_COMPRESSED_NAMES = {2: FULL, 3: INCREMENTAL}
_HEADER = struct.Struct("<4sBBII")  # magic, version, kind, length, crc32
_KIND_LENGTH = struct.Struct("<BI")
#: exactly the names ``f"epoch-{index:06d}.ckpt"`` gives: six digits, or
#: more without a leading zero (one match costs less than parsing and
#: re-formatting the index, and ``epochs()`` runs it on every file)
_EPOCH_NAME = re.compile(r"epoch-([0-9]{6}|[1-9][0-9]{6,})\.ckpt")


def frame_crc(version: int, kind_code: int, payload: bytes) -> int:
    """The CRC-32 an epoch frame of format ``version`` carries.

    Version 2 seeds the payload CRC with the kind byte and the length
    field, so a flipped kind byte cannot pass for a healthy epoch of the
    other kind. Version-1 frames covered the payload only.
    """
    if version == 1:
        return zlib.crc32(payload)
    seed = zlib.crc32(_KIND_LENGTH.pack(kind_code, len(payload)))
    return zlib.crc32(payload, seed)


def _frame_header(kind_code: int, payload: bytes) -> bytes:
    """The header of a current-version frame around ``payload``."""
    crc = frame_crc(_VERSION, kind_code, payload)
    return _HEADER.pack(_MAGIC, _VERSION, kind_code, len(payload), crc)


def read_frame(path: str) -> tuple:
    """Decode one epoch file: ``(status, kind, payload, detail)``.

    ``status`` is :data:`INTACT`, :data:`TORN` (unreadable, or cut short
    in the header or payload) or :data:`CORRUPT` (bad magic, version or
    kind code, a CRC mismatch, or an invalid deflate stream). ``kind`` is
    known once the header is; ``payload`` is the plain (decompressed)
    bytes of an intact frame, else ``None``. ``detail`` says why, for
    ``fsck``; bytes past the frame leave it intact and are counted there.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return TORN, None, None, f"unreadable: {exc}"
    if len(raw) < _HEADER.size:
        detail = f"only {len(raw)} of {_HEADER.size} header bytes"
        return TORN, None, None, detail
    magic, version, kind_code, length, crc = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        return CORRUPT, None, None, f"bad magic {magic!r}"
    if version not in _SUPPORTED_FRAMES:
        return CORRUPT, None, None, f"unknown format version {version}"
    kind = _KIND_NAMES.get(kind_code) or _COMPRESSED_NAMES.get(kind_code)
    if kind is None:
        return CORRUPT, None, None, f"unknown kind code {kind_code}"
    end = _HEADER.size + length
    payload = raw[_HEADER.size : end]
    if len(payload) < length:
        return TORN, kind, None, f"payload {len(payload)} of {length} bytes"
    if frame_crc(version, kind_code, payload) != crc:
        return CORRUPT, kind, None, "CRC mismatch"
    if kind_code in _COMPRESSED_NAMES:
        try:
            payload = zlib.decompress(payload)
        except zlib.error:
            return CORRUPT, kind, None, "CRC intact but deflate stream invalid"
    trailing = len(raw) - end
    detail = f"{trailing} trailing bytes" if trailing else ""
    return INTACT, kind, payload, detail


def read_manifest(directory: str) -> dict:
    """Parse ``directory``'s manifest and judge its ``format_version``.

    Returns the manifest object. Raises ``OSError`` when the manifest is
    missing or unreadable, ``ValueError`` when it is not a JSON object,
    and :class:`~repro.core.errors.ManifestVersionError` when it declares
    no ``format_version`` or one this build does not read. What a
    missing or unparsable manifest means is each caller's decision.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path!r} holds no JSON object")
    version = manifest.get("format_version")
    if version not in SUPPORTED_MANIFESTS:
        raise ManifestVersionError(
            f"unsupported manifest format_version {version!r} in "
            f"{directory!r} (this build supports "
            f"{list(SUPPORTED_MANIFESTS)}); refusing to guess at "
            "the epoch lineage",
            version,
        )
    return manifest


def manifest_lineage(manifest: dict) -> Dict[int, dict]:
    """A manifest's lineage map, keyed by epoch index.

    Entries are normalized to ``{parent, branch, kind, name}``; those
    under a non-integer key, or that are not objects, are dropped.
    """
    raw = manifest.get("lineage")
    lineage = {}
    for key, entry in raw.items() if isinstance(raw, dict) else ():
        try:
            index = int(key)
        except ValueError:
            continue
        if isinstance(entry, dict):
            lineage[index] = {
                "parent": entry.get("parent"),
                "branch": entry.get("branch") or MAIN_BRANCH,
                "kind": entry.get("kind"),
                "name": entry.get("name"),
            }
    return lineage


def epoch_file_index(name: str) -> Optional[int]:
    """The index an ``epoch-NNNNNN.ckpt`` file name carries.

    ``None`` for a name of any other shape; ``ValueError`` for an
    epoch-like name that is not the one a store writes for its index
    (``epoch-1.ckpt`` beside ``epoch-000001.ckpt`` is not a second
    epoch 1).
    """
    match = _EPOCH_NAME.fullmatch(name)
    if match is not None:
        return int(match[1])
    if name.startswith("epoch-") and name.endswith(".ckpt"):
        raise ValueError(f"{name!r} is not an epoch file name a store writes")
    return None


def quarantine_file(path: str, quarantine_dir: str) -> str:
    """Move ``path`` into ``quarantine_dir`` (never delete); returns where.

    A name already taken there gets the first free ``.N`` suffix, so
    earlier evidence is never overwritten. Raises ``OSError``.
    """
    os.makedirs(quarantine_dir, exist_ok=True)
    target = os.path.join(quarantine_dir, os.path.basename(path))
    if os.path.exists(target):
        suffix = 0
        while os.path.exists(f"{target}.{suffix}"):
            suffix += 1
        target = f"{target}.{suffix}"
    os.replace(path, target)
    return target


def _lineage_entry(parent, branch, kind, name) -> dict:
    """One epoch's entry in the manifest's lineage map."""
    return {"parent": parent, "branch": branch, "kind": kind, "name": name}


def epoch_lineage(lineage: Dict[int, dict], index: int) -> dict:
    """Epoch ``index``'s entry in ``lineage``, or its implied one.

    An epoch the lineage map does not name — every epoch of a store a
    manifest-v1 writer left — is strictly linear: parent ``index - 1``,
    branch ``main``.
    """
    entry = lineage.get(index)
    if entry is not None:
        return entry
    parent = index - 1 if index > 0 else None
    return _lineage_entry(parent, MAIN_BRANCH, None, None)


class Epoch(NamedTuple):
    """One stored checkpoint, with its place in the lineage graph.

    ``parent`` is the epoch this one's delta applies on top of (``None``
    for a root epoch); ``branch`` labels its line of descent; ``name``
    is an optional human-readable pin. Lineage lives *on the epoch
    record* — there is no separate branch table to keep crash-consistent.
    """

    index: int
    kind: str
    data: bytes
    parent: Optional[int] = None
    branch: str = MAIN_BRANCH
    name: Optional[str] = None


@dataclass
class AppendReceipt(RetryStats):
    """What the store layers did with one appended epoch.

    The caller passes one to ``append(..., receipt=...)`` and every layer
    the epoch passes through writes the fields it alone can answer: a
    :class:`RetryingStore` its retries (the inherited ``retries`` and
    ``events``), a :class:`BackgroundWriter` ``"queued"``, a
    :class:`~repro.core.replica.ReplicatedStore` its acks and quorum.
    """

    #: ``"durable"`` (persisted by every store that took it),
    #: ``"quorum"`` (by a write quorum of replicas only), ``"queued"``
    #: (handed to an asynchronous writer), ``"discarded"``, or
    #: ``"unknown"`` while no layer has answered
    durability: str = "unknown"
    #: replicas that acked the epoch (replicated stores only, else None)
    replicas_acked: Optional[List[str]] = None
    #: write quorum the append had to meet (replicated stores only)
    replica_quorum: Optional[int] = None
    #: replicas that missed the epoch — fenced or failing
    degraded_replicas: Optional[List[str]] = None


class CheckpointStore:
    """The protocol every store layer implements.

    Reads not overridden here derive from :meth:`epochs`,
    :meth:`recover` and :meth:`_serial_translation`; the lifecycle hooks
    (:meth:`flush`, :meth:`close`, :meth:`instrument`, :meth:`prune`)
    default to doing nothing, so a caller never has to ask whether a
    store supports them.
    """

    def append(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
        receipt: Optional[AppendReceipt] = None,
    ) -> Optional[int]:
        """Store one checkpoint; returns its epoch index.

        ``parent=AUTO`` (the default) chains the epoch onto the head of
        ``branch`` (or of the newest epoch's branch), which reproduces
        the old linear behaviour exactly. An explicit parent index pins
        the epoch into the graph — the first commit after a session
        restore or fork does this. ``name`` pins the epoch under a
        store-unique checkpoint name. ``receipt``, when given, is
        filled in by every layer the epoch passes through. A layer that
        only queues the epoch returns ``None``: its index is assigned
        later, by the store that writes it.
        """
        raise NotImplementedError

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every appended epoch is durable (no-op by default)."""

    def close(self, timeout: Optional[float] = None) -> None:
        """Flush and release resources (no-op by default)."""

    def instrument(self, tracer, metrics) -> None:
        """Attach a tracer/metrics pair (no-op for stores that emit none)."""

    def undurable_counts(self) -> Dict[str, int]:
        """Per replica, how many committed epochs it is missing."""
        return {}

    def prune(self) -> None:
        """Drop the epochs the lineage graph no longer protects.

        Compaction calls this after appending its new base. An epoch is
        protected iff it is on the base chain of some branch head or
        named checkpoint. Stores that never delete keep everything.
        """

    def epochs(self) -> List[Epoch]:
        """All intact epochs, oldest first."""
        raise NotImplementedError

    def epoch_map(self) -> Dict[int, Epoch]:
        """Every *individually* intact epoch, keyed by index.

        Unlike :meth:`epochs` this view does not stop at the first
        damaged or missing epoch — replica repair needs to see the
        intact epochs on the far side of a hole, because a peer may
        supply the missing link. The default derives the map from
        :meth:`epochs`; file-backed stores override it with a
        per-file tolerant read.
        """
        return {epoch.index: epoch for epoch in self.epochs()}

    def put_epoch(self, epoch: Epoch, overwrite: bool = False) -> None:
        """Write ``epoch`` at *its own* index (the read-repair primitive).

        Unlike :meth:`append`, which assigns the next index, this places
        a known epoch — copied byte-for-byte from a healthy replica —
        into its slot, lineage metadata included. ``overwrite`` allows
        replacing an existing (quarantined-first) divergent record.
        """
        raise StorageError(
            f"{type(self).__name__} does not support epoch repair"
        )

    def quarantine_epoch(self, index: int, reason: str = "") -> Optional[str]:
        """Move epoch ``index`` aside (never delete) before a repair.

        Returns a human-readable token for what was quarantined, or
        ``None`` when there was nothing at that index.
        """
        raise StorageError(
            f"{type(self).__name__} does not support epoch quarantine"
        )

    def lineage(self) -> Lineage:
        """The epoch graph of everything currently in the store."""
        return Lineage(self.epochs())

    def recovery_line(self, at: Optional[EpochRef] = None) -> List[Epoch]:
        """The base chain of ``at`` (default: the newest epoch).

        For a linear store this is exactly the old "most recent full
        checkpoint plus every delta after it"; with branches it is the
        full-base-to-target chain resolved through the lineage graph.
        """
        lineage = Lineage(self.epochs())
        if at is None:
            at = lineage.newest()
        return lineage.chain(at)

    def recover(
        self,
        registry: Optional[ClassRegistry] = None,
        at: Optional[EpochRef] = None,
    ) -> ObjectTable:
        """Rebuild the object table live at ``at`` (default: newest epoch)."""
        registry = registry or DEFAULT_REGISTRY
        translation = self._serial_translation(registry)
        return replay_epochs(self.recovery_line(at), registry, translation)

    def materialize(
        self, target: EpochRef, registry: Optional[ClassRegistry] = None
    ) -> ObjectTable:
        """The object table exactly as it was live at ``target``.

        ``target`` is an epoch index or a checkpoint name; the epoch's
        base chain is resolved through the lineage graph and replayed.
        """
        return self.recover(registry, at=target)

    def _serial_translation(
        self, registry: ClassRegistry
    ) -> Optional[Dict[int, int]]:
        return None

    def __len__(self) -> int:
        return len(self.epochs())


class MemoryStore(CheckpointStore):
    """Volatile store for tests and examples within one process.

    ``append`` and ``epochs`` are safe to call concurrently — a
    :class:`BackgroundWriter` drains into this store from its own thread
    while the committing thread reads it, so index assignment and the
    epoch list are guarded by a lock.
    """

    def __init__(self) -> None:
        self._epochs: List[Epoch] = []
        # branch -> newest index, name -> index, branch of the newest
        # epoch; all guarded by _lock alongside the epoch list itself
        self._branch_tips: Dict[str, int] = {}
        self._names: Dict[str, int] = {}
        self._last_branch: Optional[str] = None
        #: divergent epochs set aside by :meth:`quarantine_epoch`
        self.quarantined: List[tuple] = []
        self._lock = threading.Lock()

    def append(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
        receipt: Optional[AppendReceipt] = None,
    ) -> int:
        if kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        with self._lock:
            index = len(self._epochs)
            parent, branch = resolve_parent(
                parent,
                branch,
                self._branch_tips,
                self._branch_of,
                self._last_branch,
            )
            if parent is not None and not 0 <= parent < index:
                raise StorageError(
                    f"parent epoch {parent} does not exist in the store"
                )
            if name is not None and name in self._names:
                raise StorageError(
                    f"checkpoint name {name!r} already pins epoch "
                    f"{self._names[name]}"
                )
            self._epochs.append(
                Epoch(index, kind, bytes(data), parent, branch, name)
            )
            self._branch_tips[branch] = index
            self._last_branch = branch
            if name is not None:
                self._names[name] = index
        if receipt is not None:
            receipt.durability = "durable"
        return index

    def _branch_of(self, index: int) -> str:
        # caller holds _lock; a MemoryStore never deletes, so index is
        # also the list position
        if not 0 <= index < len(self._epochs):
            raise StorageError(
                f"parent epoch {index} does not exist in the store"
            )
        return self._epochs[index].branch

    def epochs(self) -> List[Epoch]:
        with self._lock:
            return list(self._epochs)

    def epoch_map(self) -> Dict[int, Epoch]:
        with self._lock:
            return {epoch.index: epoch for epoch in self._epochs}

    def put_epoch(self, epoch: Epoch, overwrite: bool = False) -> None:
        if epoch.kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {epoch.kind!r}")
        with self._lock:
            if epoch.index > len(self._epochs):
                raise StorageError(
                    f"cannot repair epoch {epoch.index}: store holds "
                    f"{len(self._epochs)} epoch(s) and a memory store "
                    "cannot represent a hole"
                )
            if epoch.index == len(self._epochs):
                self._epochs.append(epoch)
            else:
                if not overwrite:
                    raise StorageError(
                        f"epoch {epoch.index} already exists "
                        "(overwrite=True replaces it)"
                    )
                self._epochs[epoch.index] = epoch
            self._rebuild_maps()

    def quarantine_epoch(self, index: int, reason: str = "") -> Optional[str]:
        """Keep a copy of the divergent record aside; the slot stays.

        A list-backed store cannot hole, so quarantine preserves the
        record in :attr:`quarantined` and leaves the slot for the
        ``put_epoch(..., overwrite=True)`` repair that follows.
        """
        with self._lock:
            if not 0 <= index < len(self._epochs):
                return None
            self.quarantined.append((index, reason, self._epochs[index]))
            return f"epoch-{index:06d} (copy kept in memory)"

    def _rebuild_maps(self) -> None:
        # caller holds _lock
        self._branch_tips = {}
        self._names = {}
        self._last_branch = None
        for epoch in self._epochs:
            self._branch_tips[epoch.branch] = epoch.index
            if epoch.name is not None:
                self._names[epoch.name] = epoch.index
            self._last_branch = epoch.branch


class FileStore(CheckpointStore):
    """Directory-backed store: one framed file per epoch plus a manifest.

    The manifest records the ``{class qualname: serial}`` map of the writing
    process, so a *different* process (after a crash) can translate the
    serials in the stored streams to its own registry.

    Epochs are verified (frame + CRC) at most once per file: verified
    payloads are cached against the file's stat signature, so repeated
    :meth:`epochs` / :meth:`recovery_line` calls on a long-lived store only
    read files that are new or have changed on disk.
    """

    def __init__(
        self,
        directory: str,
        registry: Optional[ClassRegistry] = None,
    ) -> None:
        self.directory = directory
        self._registry = registry or DEFAULT_REGISTRY
        #: index -> (stat signature, verified Epoch)
        self._verified: Dict[int, tuple] = {}
        #: next epoch index to assign; None until the first append scans
        self._next: Optional[int] = None
        # Guards ``_verified``, ``_next`` and the lineage maps: a
        # BackgroundWriter appends from its drain thread while the
        # committing thread reads ``epochs()``; unguarded, the verified-
        # cache dict mutates under iteration and two appends can claim
        # the same index.
        self._lock = threading.RLock()
        #: orphaned ``*.tmp`` files moved aside by this instance
        self.quarantined: List[str] = []
        #: index -> {"parent", "branch", "kind", "name"} (manifest v2)
        self._lineage: Dict[int, dict] = {}
        self._branch_tips: Dict[str, int] = {}
        self._names: Dict[str, int] = {}
        self._last_branch: Optional[str] = None
        os.makedirs(directory, exist_ok=True)
        self._quarantine_orphans()
        self._load_lineage()

    def _load_lineage(self) -> None:
        """Load (and prune) the manifest's lineage map.

        A crash between the manifest write and the epoch write leaves a
        lineage entry with no epoch file; such entries are dropped here
        (they describe nothing durable). Epoch files with no entry — a
        manifest-v1 store written before lineage existed — get implied
        linear lineage when read.
        """
        present = [index for index, _ in self._epoch_files()]
        try:
            manifest = read_manifest(self.directory)
        except (OSError, ValueError):
            # fresh store, or damage _serial_translation reports: the
            # epochs on disk read as implied-linear, so the branch tips
            # must too, or the next AUTO append gets no parent
            self._rebuild_maps(present)
            return
        lineage = manifest_lineage(manifest)
        self._lineage = {i: lineage[i] for i in present if i in lineage}
        self._rebuild_maps(present)

    # -- paths --------------------------------------------------------------

    def _epoch_path(self, index: int) -> str:
        return os.path.join(self.directory, f"epoch-{index:06d}.ckpt")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, "quarantine")

    def _quarantine_orphans(self) -> None:
        """Move aside ``*.tmp`` leftovers of a crashed append.

        A crash between writing ``epoch-N.ckpt.tmp`` and the atomic
        ``os.replace`` leaves the temporary behind forever: it is never
        read (only ``*.ckpt`` files are), but it accumulates and shadows
        the real durability story. Opening the store quarantines such
        orphans instead of silently coexisting with them.
        """
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in sorted(names):
            if not name.endswith(".tmp"):
                continue
            source = os.path.join(self.directory, name)
            try:
                target = quarantine_file(source, self.quarantine_dir)
            except OSError:
                continue  # a locked/vanished orphan is not worth failing for
            self.quarantined.append(target)

    # -- writing --------------------------------------------------------------

    def append(
        self,
        kind: str,
        data: bytes,
        *,
        parent=AUTO,
        branch: Optional[str] = None,
        name: Optional[str] = None,
        receipt: Optional[AppendReceipt] = None,
    ) -> int:
        if kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        with self._lock:
            index = self._next_index()
            # An explicit parent must exist on disk; AUTO-resolved
            # parents come from the branch-tip map and always do.
            if parent is not AUTO and parent is not None:
                if parent not in {i for i, _ in self._epoch_files()}:
                    raise StorageError(
                        f"parent epoch {parent} does not exist in the store"
                    )
            parent, branch = resolve_parent(
                parent,
                branch,
                self._branch_tips,
                self._branch_of,
                self._last_branch,
            )
            if name is not None and name in self._names:
                raise StorageError(
                    f"checkpoint name {name!r} already pins epoch "
                    f"{self._names[name]}"
                )
            # Lineage first, epoch second: every durable epoch then has
            # a durable lineage entry. The reverse order could leave an
            # epoch whose place in the graph nobody knows; this order
            # merely leaves a stale entry a reopen prunes.
            self._lineage[index] = _lineage_entry(parent, branch, kind, name)
            self._write_manifest()
            try:
                self._write_epoch(
                    Epoch(index, kind, data, parent, branch, name)
                )
            except BaseException:
                # The epoch never became durable; its lineage entry must
                # not pollute AUTO resolution for the retrying caller.
                self._lineage.pop(index, None)
                raise
            self._next = index + 1
            self._branch_tips[branch] = index
            self._last_branch = branch
            if name is not None:
                self._names[name] = index
        if receipt is not None:
            receipt.durability = "durable"
        return index

    def _branch_of(self, index: int) -> str:
        # caller holds _lock
        return epoch_lineage(self._lineage, index)["branch"]

    def _next_index(self) -> int:
        """The index the next append will use.

        The directory is scanned once; afterwards the counter advances in
        memory. Compaction only ever *removes* epochs below the newest
        index, so the cached counter stays correct across it — rescanning
        the directory on every append made long runs O(n²) in ``listdir``.
        """
        with self._lock:
            if self._next is None:
                used = [epoch_index for epoch_index, _ in self._epoch_files()]
                self._next = (max(used) + 1) if used else 0
            return self._next

    def _write_manifest(self) -> None:
        manifest = {
            "format_version": MANIFEST_VERSION,
            "classes": self._registry.name_to_serial(),
            "lineage": {
                str(index): entry
                for index, entry in sorted(self._lineage.items())
            },
        }
        tmp_path = self.manifest_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        os.replace(tmp_path, self.manifest_path)

    def _write_epoch(self, epoch: Epoch) -> None:
        """Frame ``epoch`` into its file durably; seed the verified cache.

        Caller holds ``_lock`` and has already recorded the epoch's
        lineage entry, which it rolls back if this raises.
        """
        payload = bytes(epoch.data)
        code = _KIND_CODES[epoch.kind]
        path = self._epoch_path(epoch.index)
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(_frame_header(code, payload))
            handle.write(payload)
            handle.flush()
            # The index counter, the durable file, and the verified-cache
            # entry must appear atomically or a concurrent append could
            # reuse the index of a not-yet-durable epoch.
            # race-ok: fsync under _lock is deliberate (see above)
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        # We just wrote and framed this payload: it is verified by
        # construction, so seed the cache with it.
        signature = self._stat_signature(path)
        if signature is not None:
            verified = epoch._replace(data=payload)
            self._verified[epoch.index] = (signature, verified)
        else:
            self._verified.pop(epoch.index, None)

    def remove(self, indices) -> None:
        """Delete the given epochs (compaction's deletion primitive).

        Removes the files, drops their verified-cache and lineage
        entries, rewrites the manifest, and rebuilds the branch-tip and
        name maps. The next-index counter is *not* rewound: indices are
        never reused, so lineage references stay unambiguous forever.
        """
        doomed = set(indices)
        if not doomed:
            return
        with self._lock:
            for index in sorted(doomed):
                try:
                    os.remove(self._epoch_path(index))
                except OSError:
                    pass  # a leftover file only wastes space, never safety
                self._verified.pop(index, None)
                self._lineage.pop(index, None)
            self._rebuild_maps()
            self._write_manifest()

    def prune(self) -> None:
        after = self.lineage()
        protected = after.protected()
        self.remove(i for i in after.indices() if i not in protected)

    def _rebuild_maps(self, present: Optional[List[int]] = None) -> None:
        """Recompute branch tips / names from the files on disk.

        Caller holds ``_lock``. Used after opening the store and after
        any operation that changes the epoch set out of append order
        (compaction, epoch repair). ``present``, the ascending epoch
        indices on disk, spares a caller that just listed them a rescan.
        """
        if present is None:
            present = [index for index, _ in self._epoch_files()]
        self._branch_tips = {}
        self._names = {}
        last = None
        for index in present:
            meta = epoch_lineage(self._lineage, index)
            self._branch_tips[meta["branch"]] = index
            if meta["name"] is not None:
                self._names[meta["name"]] = index
            last = meta["branch"]
        self._last_branch = last

    # -- reading --------------------------------------------------------------

    def _epoch_files(self) -> List[tuple]:
        found = []
        for name in os.listdir(self.directory):
            try:
                index = epoch_file_index(name)
            except ValueError:
                continue
            if index is not None:
                found.append((index, os.path.join(self.directory, name)))
        found.sort()
        return found

    def epochs(self) -> List[Epoch]:
        """Read intact epochs; a torn or corrupt epoch ends the sequence.

        Everything from the first unreadable epoch onward is ignored: a
        delta chain cannot be applied across a hole. An epoch already
        verified by this store (appended or read earlier) is served from
        the cache unless its file changed on disk since.
        """
        with self._lock:
            result: List[Epoch] = []
            files = self._epoch_files()
            live = {index for index, _ in files}
            # Compaction (or external cleanup) removed the files; the cache
            # must not outlive them.
            for index in [i for i in self._verified if i not in live]:
                del self._verified[index]
            for index, path in files:
                epoch = self._verified_epoch(index, path)
                if epoch is None:
                    break
                result.append(epoch)
            return result

    def epoch_map(self) -> Dict[int, Epoch]:
        """Every individually intact epoch, keyed by index.

        Unlike :meth:`epochs` this does not stop at the first damaged or
        missing file — a replica with a hole still exposes the intact
        epochs past it, so a peer-driven repair of the hole makes the
        whole suffix readable again without rewriting it.
        """
        with self._lock:
            result: Dict[int, Epoch] = {}
            for index, path in self._epoch_files():
                epoch = self._verified_epoch(index, path)
                if epoch is not None:  # damaged: skip it, keep scanning
                    result[index] = epoch
            return result

    def _verified_epoch(self, index: int, path: str) -> Optional[Epoch]:
        """Epoch ``index`` verified from ``path``; ``None`` if damaged.

        Caller holds ``_lock``. Served from the verified cache while the
        file's stat signature is unchanged; a changed file is re-read.
        """
        signature = self._stat_signature(path)
        cached = self._verified.get(index)
        if (
            cached is not None
            and signature is not None
            and cached[0] == signature
        ):
            return cached[1]
        self._verified.pop(index, None)
        data = self._read_epoch(path)
        if data is None:
            return None
        meta = epoch_lineage(self._lineage, index)
        kind, payload = data
        epoch = Epoch(
            index, kind, payload, meta["parent"], meta["branch"], meta["name"]
        )
        if signature is not None:
            self._verified[index] = (signature, epoch)
        return epoch

    def put_epoch(self, epoch: Epoch, overwrite: bool = False) -> None:
        """Place ``epoch`` at its own index — the read-repair primitive.

        Writes the same frame :meth:`append` would have written (so a
        repaired replica is byte-identical to a healthy one) plus the
        epoch's lineage entry, and refreshes the branch-tip/name maps
        and the next-index counter. ``overwrite=False`` refuses to touch
        an existing file.
        """
        if epoch.kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {epoch.kind!r}")
        with self._lock:
            path = self._epoch_path(epoch.index)
            if os.path.exists(path) and not overwrite:
                raise StorageError(
                    f"epoch {epoch.index} already exists in "
                    f"{self.directory!r} (overwrite=True replaces it)"
                )
            prior = self._lineage.get(epoch.index)
            self._lineage[epoch.index] = _lineage_entry(
                epoch.parent, epoch.branch, epoch.kind, epoch.name
            )
            self._write_manifest()
            try:
                self._write_epoch(epoch)
            except BaseException:
                if prior is None:
                    self._lineage.pop(epoch.index, None)
                else:
                    self._lineage[epoch.index] = prior
                raise
            if self._next is not None and epoch.index >= self._next:
                self._next = epoch.index + 1
            self._rebuild_maps()

    def quarantine_epoch(self, index: int, reason: str = "") -> Optional[str]:
        """Move epoch ``index``'s file into ``quarantine/`` (never delete).

        The lineage entry is kept — the repair that follows rewrites it,
        and an unrepaired stale entry is pruned on the next reopen, the
        same way a crashed append's entry is.
        """
        with self._lock:
            path = self._epoch_path(index)
            if not os.path.exists(path):
                return None
            target = quarantine_file(path, self.quarantine_dir)
            self._verified.pop(index, None)
            self.quarantined.append(target)
            return target

    @staticmethod
    def _stat_signature(path: str) -> Optional[tuple]:
        """Identity of a file's current content, cheap enough to re-check.

        ``None`` (stat failed) disables caching for that file rather than
        risking a stale entry.
        """
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_size, stat.st_mtime_ns, stat.st_ino)

    @staticmethod
    def _read_epoch(path: str):
        """``(kind, plain payload)`` of an intact epoch file, else ``None``."""
        status, kind, payload, _ = read_frame(path)
        return (kind, payload) if status == INTACT else None

    def _serial_translation(
        self, registry: ClassRegistry
    ) -> Optional[Dict[int, int]]:
        try:
            manifest = read_manifest(self.directory)
        except OSError:
            raise StorageError(f"missing manifest in {self.directory!r}")
        except ValueError as exc:
            raise StorageError(f"corrupt manifest in {self.directory!r}: {exc}")
        classes = manifest.get("classes")
        if not isinstance(classes, dict):
            raise StorageError(f"malformed manifest in {self.directory!r}")
        return registry.serial_translation(classes)


class StoreDecorator(CheckpointStore):
    """A store layer over another store, ``backing``.

    Every protocol method except :meth:`append` passes straight through
    to ``backing``, so a layer overrides only what it changes. The reads
    the base class derives (``lineage``, ``recovery_line``,
    ``materialize``) go through this layer's own :meth:`epochs` and
    :meth:`recover`.
    """

    def __init__(self, backing: CheckpointStore) -> None:
        self.backing = backing

    def epochs(self) -> List[Epoch]:
        return self.backing.epochs()

    def epoch_map(self) -> Dict[int, Epoch]:
        return self.backing.epoch_map()

    def put_epoch(self, epoch: Epoch, overwrite: bool = False) -> None:
        self.backing.put_epoch(epoch, overwrite=overwrite)

    def quarantine_epoch(self, index: int, reason: str = "") -> Optional[str]:
        return self.backing.quarantine_epoch(index, reason)

    def recover(self, registry=None, at=None) -> ObjectTable:
        return self.backing.recover(registry, at=at)

    def _serial_translation(self, registry):
        return self.backing._serial_translation(registry)

    def flush(self, timeout: Optional[float] = None) -> None:
        self.backing.flush(timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        self.backing.close(timeout)

    def instrument(self, tracer, metrics) -> None:
        self.backing.instrument(tracer, metrics)

    def undurable_counts(self) -> Dict[str, int]:
        return self.backing.undurable_counts()

    def prune(self) -> None:
        self.backing.prune()


class RetryingStore(StoreDecorator):
    """Retry the backing store's transient append failures under a policy.

    The one layer that runs a :class:`~repro.core.retry.RetryPolicy`;
    its position in the stack says which thread retries: under a sink,
    the committing thread; under a :class:`BackgroundWriter`, the writer
    thread; under each replica of a
    :class:`~repro.core.replica.ReplicatedStore`, that replica's slot of
    the fan-out. Every retry is counted on the append's receipt, with a
    note naming the error. The layer holds no mutable state.
    """

    def __init__(self, backing: CheckpointStore, policy: RetryPolicy) -> None:
        super().__init__(backing)
        self.policy = policy

    def append(self, kind, data, *, receipt=None, **lineage) -> Optional[int]:
        def note(attempt: int, exc: BaseException, _delay: float) -> None:
            if receipt is not None:
                receipt.note("append", attempt, exc)

        return self.policy.run(
            lambda: self.backing.append(
                kind, data, receipt=receipt, **lineage
            ),
            on_retry=note,
        )


class BackgroundWriter(StoreDecorator):
    """Asynchronous front for another store (one ordered writer thread).

    ``append`` returns as soon as the epoch is queued — the paper's
    non-blocking hand-off of checkpoint bytes to stable storage. Epochs
    are written in submission order. ``flush`` blocks until everything
    queued so far is durable; ``close`` flushes and stops the thread.

    Put a :class:`RetryingStore` under the writer to retry transient
    backing failures in the writer thread; an epoch is then only
    declared failed once its policy is exhausted, so injected transient
    faults lose nothing. Remaining failures are **fail-stop**: once a
    backing write fails for good, no later epoch is written (an epoch
    written past a hole could never participate in a recovery line
    anyway). Epochs already queued at failure time are discarded and
    *counted*; the error — including that count — is raised, wrapped in
    :class:`StorageError`, by the next ``flush``, ``close`` or ``epochs``
    call, and every subsequent ``append`` raises permanently.

    If the writer *thread itself* dies (a bug, an interpreter shutdown
    race — anything outside the guarded backing write), the writer
    **degrades to synchronous writes** instead of silently dropping the
    queue: the next ``append``/``flush`` adopts every still-queued epoch,
    writes it in order on the calling thread, and all subsequent appends
    go straight to the backing store. Degradations are recorded in
    :attr:`degradation_events`.
    """

    _STOP = object()

    def __init__(self, backing: CheckpointStore, max_queued: int = 64) -> None:
        super().__init__(backing)
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queued)
        #: guards the failure/degradation state shared between the drain
        #: thread and caller threads (_error/_failed/_cause/dropped,
        #: degraded/degradation_events/sync_writes, _closed, obs hooks)
        self._state_lock = threading.Lock()
        self._error: Optional[BaseException] = None
        self._failed = False
        self._cause: Optional[str] = None
        #: epochs queued before the failure that were never written
        self.dropped = 0
        #: whether the writer fell back to synchronous writes
        self.degraded = False
        #: human-readable record of each degradation
        self.degradation_events: List[str] = []
        #: epochs written synchronously after degradation
        self.sync_writes = 0
        self._closed = False
        self._idle = threading.Event()
        self._idle.set()
        #: observability hooks; no-op singletons until :meth:`instrument`
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self._thread = threading.Thread(
            target=self._drain, name="checkpoint-writer", daemon=True
        )
        self._thread.start()

    def instrument(self, tracer, metrics) -> None:
        """Attach a tracer/metrics pair (only replaces no-op defaults).

        The hooks in force are then passed on to the backing store. The
        drain thread reads these attributes without a lock, which is
        safe: both emit paths tolerate either the old or the new hook, and
        exporter errors never propagate out of the tracer.
        """
        with self._state_lock:
            if self.tracer is NULL_TRACER:
                self.tracer = tracer
            if self.metrics is NULL_METRICS:
                self.metrics = metrics
            tracer, metrics = self.tracer, self.metrics
        self.backing.instrument(tracer, metrics)

    # -- writer thread ---------------------------------------------------

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is self._STOP:
                    return
                self._write_queued(
                    item, self.tracer.enabled or self.metrics.enabled
                )
            finally:
                self._queue.task_done()
                if self._queue.unfinished_tasks == 0:
                    self._idle.set()

    def _write_queued(self, item, instrumented: bool = False) -> None:
        """Write one queued epoch under the fail-stop rule.

        Once a write has failed nothing more is written: the epoch is
        counted in :attr:`dropped` instead. This write's own failure is
        kept for the next ``flush``/``close``/``epochs`` call to raise.
        """
        with self._state_lock:
            failed = self._failed
            if failed:
                self.dropped += 1  # fail-stop: no writes past a hole
        if failed:
            return
        kind, data, lineage = item
        start = time.perf_counter() if instrumented else 0.0
        try:
            self._write(kind, data, deferred=True, **lineage)
        except BaseException:  # kept by _write, surfaced on the next call
            return
        if instrumented:
            self._note_drain(kind, len(data), time.perf_counter() - start)

    def _write(self, kind, data, deferred=False, **append_kwargs):
        """Append one epoch to the backing store; record a failure.

        Every write comes through here — from the writer thread, from a
        queue adopted after the thread died, and from a degraded
        synchronous append — so a failed write always sets the
        fail-stop state and emits ``writer.failed`` and
        ``writer_failures_total``, then re-raises. A ``deferred`` failure
        is also kept for the next ``flush``/``close``/``epochs`` call.
        """
        try:
            return self.backing.append(kind, data, **append_kwargs)
        except BaseException as exc:
            with self._state_lock:
                if deferred:
                    self._error = exc
                self._cause = str(exc)
                self._failed = True
            self.tracer.event("writer.failed", kind=kind, error=str(exc))
            self.metrics.counter("writer_failures_total").inc()
            raise

    def _note_drain(self, kind: str, size: int, elapsed: float) -> None:
        """One drained epoch's trace event and metrics."""
        depth = self._queue.qsize()
        self.tracer.event(
            "writer.drain",
            kind=kind,
            bytes=size,
            wall_seconds=elapsed,
            queue_depth=depth,
        )
        self.metrics.counter("writer_drained_total").inc()
        self.metrics.gauge("writer_queue_depth").set(depth)
        self.metrics.histogram("writer_drain_seconds").observe(elapsed)

    # -- degradation -------------------------------------------------------

    def _writer_died(self) -> bool:
        return not self._thread.is_alive() and not self._closed

    def _degrade(self) -> None:
        """Adopt the dead writer thread's queue on the calling thread.

        Every epoch still queued is written synchronously, in submission
        order, under the same retry/fail-stop rules the thread applied —
        acknowledged epochs are never dropped just because the thread is
        gone.
        """
        with self._state_lock:
            first = not self.degraded
            if first:
                self.degraded = True
                self.degradation_events.append(
                    "writer thread died; degraded to synchronous writes"
                )
        if first:
            self.tracer.event(
                "writer.degraded",
                reason="writer thread died; degraded to synchronous writes",
                queued=self._pending(),
            )
            self.metrics.counter("writer_degradations_total").inc()
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            try:
                if item is not self._STOP:
                    self._write_queued(item)
            finally:
                self._queue.task_done()
        if self._queue.unfinished_tasks == 0:
            self._idle.set()

    def _check(self) -> None:
        with self._state_lock:
            if self._error is None:
                return
            error, self._error = self._error, None
            suffix = self._dropped_suffix()
        raise StorageError(
            f"background checkpoint write failed: {error}" + suffix
        )

    def _dropped_suffix(self) -> str:
        if not self.dropped:
            return ""
        return f" ({self.dropped} queued epoch(s) discarded, not written)"

    def _replica_suffix(self) -> str:
        """Per-replica undurable counts, when the backing reports them.

        A :class:`~repro.core.replica.ReplicatedStore` knows which
        replicas are missing how many quorum-committed epochs; a flush
        timeout should name them, not just the aggregate queue depth.
        """
        try:
            per_replica = self.backing.undurable_counts()
        except (StorageError, OSError):
            return ""
        if not any(per_replica.values()):
            return ""
        detail = ", ".join(
            f"{name}={count}"
            for name, count in sorted(per_replica.items())
            if count
        )
        return f" (per-replica undurable epochs: {detail})"

    def _flush_backing(self, deadline: Optional[float]) -> None:
        """Flush the backing store with whatever is left of ``deadline``.

        A wrapped :class:`~repro.core.replica.ReplicatedStore` uses this
        to drive catch-up repair of behind replicas and to flush its own
        children, so ``flush`` really means "durable on a quorum", not
        merely "left my queue".
        """
        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
        self.backing.flush(remaining)

    # -- CheckpointStore interface ------------------------------------------

    def append(self, kind, data, *, receipt=None, **lineage) -> Optional[int]:
        """Queue one epoch for writing; returns ``None``.

        The durable epoch index is assigned by the backing store when the
        writer thread gets to it; use :meth:`flush` + ``backing.epochs()``
        when exact indices matter. The receipt reads ``"queued"`` and is
        not passed on: the layers below write the epoch later, on the
        writer thread. Lineage keywords travel with the queued epoch (an
        ``AUTO`` parent resolves at drain time, which the FIFO queue
        makes equivalent to a synchronous append). After a write failure
        every append raises: the writer is fail-stop. After the writer
        *thread* dies, appends degrade to synchronous writes: they pass
        the receipt down and return the real index.
        """
        with self._state_lock:
            if self._failed:
                # appends report it; no need to re-raise later
                self._error = None
                raise StorageError(
                    f"background checkpoint write failed: {self._cause}"
                    + self._dropped_suffix()
                )
            if self._closed:
                raise StorageError("background writer is closed")
        if kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        if self._writer_died():
            self._degrade()
            self._check()
            with self._state_lock:
                self.sync_writes += 1
            try:
                return self._write(
                    kind, bytes(data), receipt=receipt, **lineage
                )
            except BaseException as exc:
                raise StorageError(
                    f"background checkpoint write failed: {exc}"
                    + self._dropped_suffix()
                ) from exc
        self._idle.clear()
        self._queue.put((kind, bytes(data), lineage))
        if receipt is not None:
            receipt.durability = "queued"
        return None

    def _pending(self) -> int:
        """Epochs accepted by :meth:`append` but not yet durable."""
        return self._queue.unfinished_tasks

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every queued epoch has been written (or surfaced).

        A timeout raises :class:`StorageError` naming how many epochs are
        still queued — data that is **not durable** — rather than
        returning as if the flush had succeeded.
        """
        if self._writer_died():
            self._degrade()
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._idle.wait(timeout):
            raise StorageError(
                "timed out waiting for checkpoint writer: "
                f"{self._pending()} epoch(s) still queued, not durable"
                + self._replica_suffix()
            )
        self._check()
        self._flush_backing(deadline)

    def close(self, timeout: Optional[float] = None) -> None:
        """Flush, stop the writer thread, and surface any pending error.

        The thread is stopped even when an error is raised; only the
        *first* close/flush after a failure raises, so shutdown paths that
        already handled the error can close cleanly. Like :meth:`flush`,
        a timeout raises with the count of still-queued (undurable)
        epochs.
        """
        if self._closed:
            return
        if self._writer_died():
            self._degrade()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state_lock:
            self._closed = True
        try:
            if not self._idle.wait(timeout):
                raise StorageError(
                    "timed out waiting for checkpoint writer: "
                    f"{self._pending()} epoch(s) still queued, not durable"
                    + self._replica_suffix()
                )
        finally:
            self._queue.put(self._STOP)
            self._thread.join(timeout)
        self._check()
        self._flush_backing(deadline)
        self.backing.close()

    def epochs(self) -> List[Epoch]:
        """Durable epochs (pending queued writes are not yet included)."""
        if self._writer_died():
            self._degrade()
        self._check()
        return self.backing.epochs()

    def recover(self, registry=None, at=None):
        self.flush()
        return self.backing.recover(registry, at=at)

    def __enter__(self) -> "BackgroundWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def compact(
    store: CheckpointStore,
    registry: Optional[ClassRegistry] = None,
    keep_history: bool = False,
    branch: Optional[str] = None,
) -> int:
    """Fold one branch's recovery line into a fresh full checkpoint.

    Long delta chains make recovery slow and retain dead epochs;
    compaction takes the chain of ``branch``'s tip (default: the newest
    epoch's branch) from the lineage it reads once, copies each object's
    newest record into a new full epoch (:func:`compact_epochs`, which
    validates every record as replay does but builds no objects), and
    appends it onto that branch. With ``keep_history=False``
    (the default) the store then prunes every epoch the lineage graph no
    longer protects (:meth:`CheckpointStore.prune`; only stores that
    delete, like :class:`FileStore`, do anything): an epoch survives iff
    it is on the base chain of some branch head or named checkpoint.
    Compaction therefore never cuts across a branch point or a named
    pin — other branches and every pin keep their full recovery lines.

    For a linear, unnamed store the protected set is exactly the new
    base, reproducing the old delete-everything-below behaviour.

    Returns the epoch index of the new base. The new base is the bytes
    that recording every object of the replayed chain writes, so
    ``recover()`` before and after yields the same object table (tests
    enforce both). The live heap is never touched.
    """
    registry = registry or DEFAULT_REGISTRY
    lineage = store.lineage()
    if branch is None:
        head = lineage.newest()  # raises the no-full error when empty
    else:
        tips = lineage.branches()
        if branch not in tips:
            raise StorageError(f"unknown branch {branch!r}; cannot compact")
        head = tips[branch]
    head_epoch = lineage.epoch(head)
    translation = store._serial_translation(registry)
    data = compact_epochs(lineage.chain(head), registry, translation)
    new_index = store.append(
        FULL, data, parent=head, branch=head_epoch.branch
    )

    if not keep_history:
        store.prune()
    return new_index
