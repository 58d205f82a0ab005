"""Recovery: rebuilding object state from checkpoint streams.

A recovery line is a *base* checkpoint (normally a full checkpoint)
followed by zero or more *incremental* deltas. The drivers record a
modified object's complete local state, so at the end of the line each
object's state is exactly its newest record: every older record of it is
superseded. Restoration therefore runs over the whole line in two passes.

1. **Validate, oldest epoch first.** Every record is parsed and checked
   (truncation, class serials, class agreement across epochs, bool bytes,
   string lengths and UTF-8, and child ids against the ids known at the
   end of that record's epoch, so forward references inside an epoch
   resolve). One blank object is made per identifier and flagged "not yet
   restored" with its own modification flag; no per-object location map
   is kept. The id allocator is advanced after each epoch.
2. **Restore, newest epoch first.** Each still-flagged object recorded in
   the epoch is restored from its record. Flags clear only after the
   epoch's scan, so that when an epoch records an object twice (a full
   checkpoint of a DAG records a shared subobject once per path) its
   later record wins. The pass stops once nothing is flagged.

Errors name absolute offsets within the whole line, so that an fsck line
points at the failing record. The resulting :class:`ObjectTable` maps
identifiers to live objects; all restored objects have their
modification flag clear.

Compaction needs the line's state as bytes, not as objects, and a
record already holds its object's complete local state, so
:func:`compact_epochs` runs pass 1's checks without making objects and
copies each identifier's newest record, in first-appearance order, under
a header naming the live class serial. Those are the bytes that
re-recording a replayed table writes, without the table.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.checkpointable import Checkpointable
from repro.core.errors import RestoreError
from repro.core.fields import FieldSpec
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.registry import DEFAULT_REGISTRY, ClassRegistry
from repro.core.streams import DataInputStream

#: object id and class serial, the head of every record
_HEADER = struct.Struct("<ii")


class ObjectTable:
    """Identifier → object map produced by restoration."""

    def __init__(self) -> None:
        self._objects: Dict[int, Checkpointable] = {}

    def __getitem__(self, object_id: int) -> Checkpointable:
        try:
            return self._objects[object_id]
        except KeyError:
            raise RestoreError(f"checkpoint references unknown object id {object_id}")

    def get(self, object_id: int) -> Optional[Checkpointable]:
        return self._objects.get(object_id)

    def add(self, obj: Checkpointable) -> None:
        self._objects[obj._ckpt_info.object_id] = obj

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def ids(self) -> Iterable[int]:
        return self._objects.keys()

    def objects(self) -> Iterable[Checkpointable]:
        return self._objects.values()


def _skip_payload(
    inp: DataInputStream,
    schema: List[FieldSpec],
    refs: Optional[List[int]] = None,
) -> None:
    """Advance ``inp`` past one payload, validating its scalars.

    When ``refs`` is given, the child ids that must name an object are
    appended to it: every ``child_list`` element, and every ``child`` id
    other than −1 (which is ``None``).
    """
    for field in schema:
        if field.role == "scalar":
            _skip_scalar(inp, field.kind)
        elif field.role == "scalar_list":
            count = inp.read_int32()
            for _ in range(count):
                _skip_scalar(inp, field.kind)
        elif field.role == "child":
            child_id = inp.read_int32()
            if refs is not None and child_id != -1:
                refs.append(child_id)
        else:  # child_list
            count = inp.read_int32()
            for _ in range(count):
                child_id = inp.read_int32()
                if refs is not None:
                    refs.append(child_id)


def _skip_scalar(inp: DataInputStream, kind: str) -> None:
    if kind == "int":
        inp.read_int32()
    elif kind == "float":
        inp.read_float64()
    elif kind == "bool":
        inp.read_bool()
    else:
        inp.read_str()


class _Layout(NamedTuple):
    """How the two passes scan the records of one class."""

    cls: type
    schema: List[FieldSpec]
    #: for a fixed-size payload (only int/float scalars and children): a
    #: struct of the payload's size that unpacks just its child ids; None
    #: when the payload has variable-length fields
    children: Optional[struct.Struct]


#: struct codes of the fixed-size fields; scalars become pad bytes, since
#: validation only needs the child ids
_FIXED_CODES = {
    ("scalar", "int"): "4x",
    ("scalar", "float"): "8x",
    ("child", None): "i",
}


class _Layouts(dict):
    """Class serial as recorded → :class:`_Layout`, filled on first use."""

    def __init__(
        self,
        registry: ClassRegistry,
        serial_translation: Optional[Dict[int, int]],
    ) -> None:
        super().__init__()
        self.registry = registry
        self.serial_translation = serial_translation

    def __missing__(self, recorded: int) -> _Layout:
        serial = recorded
        if self.serial_translation is not None:
            try:
                serial = self.serial_translation[recorded]
            except KeyError:
                raise RestoreError(f"class serial {recorded} missing from manifest")
        cls = self.registry.class_for(serial)
        schema = self.registry.schema_of(cls)
        codes = [_FIXED_CODES.get((field.role, field.kind)) for field in schema]
        children = None if None in codes else struct.Struct("<" + "".join(codes))
        layout = self[recorded] = _Layout(cls, schema, children)
        return layout


def _validate_epoch(
    data: bytes,
    base_offset: int,
    table: ObjectTable,
    layouts: _Layouts,
    applied: Optional[List[int]],
) -> Tuple[int, int]:
    """Pass 1 over one epoch: validate each record and flag its object.

    Returns how many objects this epoch newly flagged and the largest id
    it records (−1 for an empty epoch).
    """
    objects = table._objects
    header = _HEADER.unpack_from
    inp = DataInputStream(data, base_offset)
    # child id -> position of the first record that referenced it before
    # any record defined it (a forward reference); dropped when defined,
    # so what is left at the end dangles, in the order it was referenced
    unresolved: Dict[int, int] = {}
    flagged = 0
    high = -1
    pos = 0
    end = len(data)
    while pos < end:
        record = pos
        if end - pos >= 8:
            object_id, serial = header(data, pos)
        else:  # the stream reader raises the truncation error
            inp.seek(pos)
            object_id = inp.read_int32()
            serial = inp.read_int32()
        cls, schema, children = layouts[serial]
        obj = objects.get(object_id)
        if obj is None:
            obj = objects[object_id] = cls._blank(object_id)
            unresolved.pop(object_id, None)
        elif type(obj) is not cls:
            raise RestoreError(
                f"object id {object_id} recorded as {cls.__name__} but the "
                f"table holds a {type(obj).__name__}"
            )
        info = obj._ckpt_info
        if not info._modified:
            # The raw slot: the "not yet restored" marker must not bump a
            # dirtiness block's generation.
            info._modified = True
            flagged += 1
        if object_id > high:
            high = object_id
        if applied is not None:
            applied.append(object_id)
        pos += 8
        if children is not None and pos + children.size <= end:
            for child_id in children.unpack_from(data, pos):
                if child_id != -1 and child_id not in objects:
                    unresolved.setdefault(child_id, record)
            pos += children.size
        else:
            refs: List[int] = []
            inp.seek(pos)
            _skip_payload(inp, schema, refs)
            for child_id in refs:
                if child_id not in objects:
                    unresolved.setdefault(child_id, record)
            pos = inp.position
    if unresolved:
        child_id, record = next(iter(unresolved.items()))
        raise RestoreError(
            f"checkpoint references unknown object id {child_id} "
            f"from the record at offset {base_offset + record}"
        )
    return flagged, high


def _restore_epoch(
    data: bytes,
    base_offset: int,
    table: ObjectTable,
    layouts: _Layouts,
) -> int:
    """Pass 2 over one epoch: restore its still-flagged objects.

    Returns how many flags it cleared.
    """
    objects = table._objects
    header = _HEADER.unpack_from
    inp = DataInputStream(data, base_offset)
    restored = []
    pos = 0
    end = len(data)
    while pos < end:
        object_id, serial = header(data, pos)
        pos += 8
        obj = objects[object_id]
        if obj._ckpt_info._modified:
            inp.seek(pos)
            obj.restore_local(inp, table)
            pos = inp.position
            restored.append(obj._ckpt_info)
        else:
            _, schema, children = layouts[serial]
            if children is not None:
                pos += children.size
            else:
                inp.seek(pos)
                _skip_payload(inp, schema)
                pos = inp.position
    cleared = 0
    for info in restored:
        if info._modified:
            info._modified = False
            cleared += 1
    return cleared


def _replay_streams(
    table: ObjectTable,
    streams: Sequence[bytes],
    registry: Optional[ClassRegistry],
    serial_translation: Optional[Dict[int, int]],
    base_offset: int = 0,
    applied: Optional[List[int]] = None,
) -> None:
    """Fold a recovery line (oldest stream first) into ``table``.

    The one replay routine; see the module docstring for its two passes.
    ``applied``, when given, receives every record's object id in stream
    order.
    """
    layouts = _Layouts(registry or DEFAULT_REGISTRY, serial_translation)
    pending = 0
    high = -1
    offset = base_offset
    offsets = []
    for data in streams:
        offsets.append(offset)
        flagged, epoch_high = _validate_epoch(data, offset, table, layouts, applied)
        pending += flagged
        high = max(high, epoch_high)
        DEFAULT_ALLOCATOR.advance_past(high)
        offset += len(data)
    # The newest stream is always scanned: a caller's table (see
    # apply_incremental) may hold objects already flagged modified, which
    # pass 1 cannot count but its one stream restores.
    for index in range(len(streams) - 1, -1, -1):
        pending -= _restore_epoch(streams[index], offsets[index], table, layouts)
        if pending <= 0:
            break


def restore_full(
    data: bytes,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
) -> ObjectTable:
    """Rebuild an object table from a base (full) checkpoint."""
    table = ObjectTable()
    _replay_streams(table, [data], registry, serial_translation)
    return table


def apply_incremental(
    table: ObjectTable,
    data: bytes,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
    base_offset: int = 0,
) -> List[int]:
    """Fold one incremental delta into an existing table.

    Returns the identifiers of the entries applied, in stream order, and
    advances the id allocator past the largest of them. ``base_offset``
    is the delta's position within its recovery line, which decode
    errors report offsets against.
    """
    applied: List[int] = []
    _replay_streams(
        table, [data], registry, serial_translation, base_offset, applied
    )
    return applied


def replay(
    base: bytes,
    deltas: Iterable[bytes],
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
) -> ObjectTable:
    """Restore a full recovery line: base checkpoint plus deltas, in order.

    Every record is validated and each object is restored once, from its
    newest record. Epoch data is treated as one concatenated byte
    sequence for error reporting: a decode failure in the k-th delta
    names its offset within the whole line, so the failing record can be
    located directly.
    """
    table = ObjectTable()
    _replay_streams(table, [base, *deltas], registry, serial_translation)
    return table


def _chain_streams(epochs: Iterable) -> List[bytes]:
    """The streams of a resolved base+delta chain, after its shape checks."""
    chain = list(epochs)
    if not chain:
        raise RestoreError("cannot replay an empty epoch chain")
    # Kind literals, not storage constants: importing storage here would
    # be circular (storage replays through this module).
    if chain[0].kind != "full":
        raise RestoreError(
            f"epoch chain must start at a full checkpoint, got "
            f"{chain[0].kind!r}"
        )
    for epoch in chain[1:]:
        if epoch.kind != "incremental":
            raise RestoreError(
                f"epoch chain continues with {epoch.kind!r} where an "
                "incremental delta was expected"
            )
    return [epoch.data for epoch in chain]


def replay_epochs(
    epochs: Iterable,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
) -> ObjectTable:
    """Materialize the state at the end of a resolved base+delta chain.

    The generalization of :func:`replay` the epoch-lineage graph needs:
    ``epochs`` is any already-resolved chain of epoch records (anything
    with ``kind`` and ``data`` attributes, e.g. what
    ``Lineage.chain`` returns for an *arbitrary* epoch) whose first
    element is a full checkpoint and whose remainder are the
    incremental deltas down to the target epoch, oldest first.
    """
    streams = _chain_streams(epochs)
    return replay(streams[0], streams[1:], registry, serial_translation)


def _scan_epoch(
    data: bytes,
    base_offset: int,
    newest: Dict[int, tuple],
    layouts: _Layouts,
) -> int:
    """Pass 1 over one epoch without objects: validate, note each record.

    :func:`_validate_epoch`'s checks and messages, against ``newest``
    (id → ``(class, stream, payload start, payload length)`` of its
    newest record so far) instead of a table. Returns the largest id the
    epoch records (−1 for an empty epoch).
    """
    header = _HEADER.unpack_from
    inp = DataInputStream(data, base_offset)
    unresolved: Dict[int, int] = {}
    high = -1
    pos = 0
    end = len(data)
    while pos < end:
        record = pos
        if end - pos >= 8:
            object_id, serial = header(data, pos)
        else:  # the stream reader raises the truncation error
            inp.seek(pos)
            object_id = inp.read_int32()
            serial = inp.read_int32()
        cls, schema, children = layouts[serial]
        known = newest.get(object_id)
        if known is None:
            unresolved.pop(object_id, None)
        elif known[0] is not cls:
            raise RestoreError(
                f"object id {object_id} recorded as {cls.__name__} but the "
                f"table holds a {known[0].__name__}"
            )
        if object_id > high:
            high = object_id
        pos += 8
        # a payload length, unlike an end offset, is a cached small int
        if children is not None and pos + children.size <= end:
            length = children.size
            newest[object_id] = (cls, data, pos, length)
            for child_id in children.unpack_from(data, pos):
                if child_id != -1 and child_id not in newest:
                    unresolved.setdefault(child_id, record)
        else:
            refs: List[int] = []
            inp.seek(pos)
            _skip_payload(inp, schema, refs)
            length = inp.position - pos
            newest[object_id] = (cls, data, pos, length)
            for child_id in refs:
                if child_id not in newest:
                    unresolved.setdefault(child_id, record)
        pos += length
    if unresolved:
        child_id, record = next(iter(unresolved.items()))
        raise RestoreError(
            f"checkpoint references unknown object id {child_id} "
            f"from the record at offset {base_offset + record}"
        )
    return high


def compact_epochs(
    epochs: Iterable,
    registry: Optional[ClassRegistry] = None,
    serial_translation: Optional[Dict[int, int]] = None,
) -> bytes:
    """The full checkpoint holding the state at the end of a resolved chain.

    Takes what :func:`replay_epochs` takes and raises what it raises,
    with the same offsets, and advances the id allocator the same way,
    but makes no objects: each identifier's newest record (the later one
    when an epoch records it twice) is copied under an ``(id, live class
    serial)`` header, identifiers in the order the line first records
    them. That is byte for byte what re-recording every object of the
    replayed table writes.
    """
    streams = _chain_streams(epochs)
    layouts = _Layouts(registry or DEFAULT_REGISTRY, serial_translation)
    # insertion order is first appearance; the value is the newest record
    newest: Dict[int, tuple] = {}
    high = -1
    offset = 0
    for data in streams:
        high = max(high, _scan_epoch(data, offset, newest, layouts))
        DEFAULT_ALLOCATOR.advance_past(high)
        offset += len(data)
    pack = _HEADER.pack
    # a bytearray, not a join: joining a list of every record's pieces
    # holds a buffer descriptor per piece, more than the records' bytes
    out = bytearray()
    for object_id, (cls, data, start, length) in newest.items():
        out += pack(object_id, cls._ckpt_serial)
        out += data[start : start + length]
    return bytes(out)


# ---------------------------------------------------------------------------
# State comparison helpers (used heavily by tests)
# ---------------------------------------------------------------------------


def state_digest(root: Checkpointable, include_ids: bool = False) -> str:
    """A stable digest of the reachable state (classes, values, topology)."""
    hasher = hashlib.sha256()
    for token in _state_tokens(root, include_ids):
        hasher.update(token.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _state_tokens(root: Checkpointable, include_ids: bool) -> Iterable[str]:
    # Iterative preorder walk; shared subobjects are emitted once and then
    # referenced by a local ordinal so that topology is part of the digest.
    ordinals: Dict[int, int] = {}
    stack: List[Checkpointable] = [root]
    while stack:
        obj = stack.pop()
        oid = obj._ckpt_info.object_id
        if oid in ordinals:
            yield f"ref:{ordinals[oid]}"
            continue
        ordinals[oid] = len(ordinals)
        yield f"obj:{type(obj).__qualname__}"
        if include_ids:
            yield f"id:{oid}"
        children: List[Checkpointable] = []
        for spec in obj._ckpt_schema:
            value = getattr(obj, spec.slot)
            if spec.role == "scalar":
                yield f"{spec.name}={value!r}"
            elif spec.role == "scalar_list":
                yield f"{spec.name}={value.as_list()!r}"
            elif spec.role == "child":
                if value is None:
                    yield f"{spec.name}=None"
                else:
                    yield f"{spec.name}:child"
                    children.append(value)
            else:  # child_list
                yield f"{spec.name}:children[{len(value)}]"
                children.extend(value._items)
        stack.extend(reversed(children))


def structurally_equal(
    a: Checkpointable, b: Checkpointable, compare_ids: bool = False
) -> bool:
    """True when two structures have identical classes, values and topology.

    With ``compare_ids=True`` object identifiers must match as well, which
    is the property restoration preserves.
    """
    return state_digest(a, compare_ids) == state_digest(b, compare_ids)
