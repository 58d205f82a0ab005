"""Checkpoint drivers (paper Figure 1, ``Checkpoint.checkpoint``).

Three generic drivers are provided, forming the baseline tiers of the
paper's evaluation:

- :class:`Checkpoint` — *incremental* checkpointing: an object's local
  state is recorded only when its modification flag is set; the traversal
  still visits every reachable object to find the modified ones.
- :class:`FullCheckpoint` — records every visited object regardless of its
  flag (the paper's "full checkpointing" baseline).
- :class:`ReflectiveCheckpoint` — incremental, but using run-time
  schema interpretation instead of the per-class generated methods (the
  serialization/reflection tier discussed in the paper's related work).

All drivers share the wire format described in
:mod:`repro.core.checkpointable`, so their outputs are interchangeable for
:mod:`repro.core.restore`.

A fourth, *specialized*, tier is produced by :mod:`repro.spec`: monolithic
per-structure functions that replace the driver entirely.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.checkpointable import (
    Checkpointable,
    reflective_fold,
    reflective_record,
)
from repro.core.errors import CycleError
from repro.core.streams import DataOutputStream


class Checkpoint:
    """Generic incremental checkpoint driver.

    This is a direct transliteration of the paper's Figure 1: if the
    object is modified, write its identifier (plus, in this implementation,
    its class serial, so recovery can materialize objects allocated after
    the base checkpoint) and its local state, then reset the flag; in all
    cases fold over the children.
    """

    def __init__(self, out: Optional[DataOutputStream] = None) -> None:
        self.out = out if out is not None else DataOutputStream()

    def checkpoint(self, obj: Checkpointable) -> None:
        """Traverse ``obj``, recording every modified object reachable from it."""
        info = obj._ckpt_info
        if info.modified:
            out = self.out
            out.write_int32(info.object_id)
            out.write_int32(obj._ckpt_serial)
            obj.record(out)
            info.modified = False
        obj.fold(self)

    def getvalue(self) -> bytes:
        """The bytes of the checkpoint built so far."""
        return self.out.getvalue()

    @property
    def size(self) -> int:
        """Bytes written so far."""
        return self.out.size


class FullCheckpoint(Checkpoint):
    """Records every visited object, ignoring modification flags.

    Flags are still reset so that a full checkpoint can serve as the base
    of a subsequent incremental chain.
    """

    def checkpoint(self, obj: Checkpointable) -> None:
        out = self.out
        info = obj._ckpt_info
        out.write_int32(info.object_id)
        out.write_int32(obj._ckpt_serial)
        obj.record(out)
        info.modified = False
        obj.fold(self)


class ReflectiveCheckpoint(Checkpoint):
    """Incremental driver using run-time schema interpretation.

    Behaviourally identical to :class:`Checkpoint`; exists as the
    reflection-tier baseline (slowest) for the evaluation.
    """

    def checkpoint(self, obj: Checkpointable) -> None:
        info = obj._ckpt_info
        if info.modified:
            out = self.out
            out.write_int32(info.object_id)
            out.write_int32(obj._ckpt_serial)
            reflective_record(obj, out)
            info.modified = False
        reflective_fold(obj, self)


class CheckingCheckpoint(Checkpoint):
    """Incremental driver with cycle detection (debugging aid).

    The paper assumes checkpointed structures are acyclic; this driver
    verifies it, raising :class:`~repro.core.errors.CycleError` when an
    object appears on its own traversal path. It is slower than
    :class:`Checkpoint` and intended for development and tests.
    """

    def __init__(self, out: Optional[DataOutputStream] = None) -> None:
        super().__init__(out)
        self._on_path: Set[int] = set()

    def checkpoint(self, obj: Checkpointable) -> None:
        oid = obj._ckpt_info.object_id
        if oid in self._on_path:
            raise CycleError(
                f"cycle detected: object id {oid} ({type(obj).__name__}) "
                "reached from itself"
            )
        self._on_path.add(oid)
        try:
            info = obj._ckpt_info
            if info.modified:
                out = self.out
                out.write_int32(info.object_id)
                out.write_int32(obj._ckpt_serial)
                obj.record(out)
                info.modified = False
            obj.fold(self)
        finally:
            self._on_path.discard(oid)


class IterativeCheckpoint(Checkpoint):
    """Incremental driver with an explicit traversal stack.

    Byte-identical to :class:`Checkpoint` (preorder, children in schema
    order) but immune to Python's recursion limit, for structures whose
    depth — e.g. very long linked lists — exceeds it. Slightly slower on
    shallow structures, so it is not the default.
    """

    def checkpoint(self, obj: Checkpointable) -> None:
        out = self.out
        stack = [obj]
        while stack:
            current = stack.pop()
            info = current._ckpt_info
            if info.modified:
                out.write_int32(info.object_id)
                out.write_int32(current._ckpt_serial)
                current.record(out)
                info.modified = False
            stack.extend(reversed(current.children()))


def reset_flags(root: Checkpointable) -> None:
    """Clear the modification flag of every object reachable from ``root``."""
    stack = [root]
    seen: Set[int] = set()
    while stack:
        obj = stack.pop()
        oid = obj._ckpt_info.object_id
        if oid in seen:
            continue
        seen.add(oid)
        obj._ckpt_info.modified = False
        stack.extend(obj.children())


def snapshot_flags(roots) -> list:
    """Capture the modification flag of every object reachable from ``roots``.

    Returns an opaque state for :func:`restore_flags`. Measurement paths
    use the pair to run a live strategy — whose ``record`` pass clears
    flags as a side effect — without disturbing the delta a later real
    commit must observe.
    """
    state = []
    stack = list(roots)
    seen: Set[int] = set()
    while stack:
        obj = stack.pop()
        info = obj._ckpt_info
        if info.object_id in seen:
            continue
        seen.add(info.object_id)
        state.append((info, info.modified))
        stack.extend(obj.children())
    return state


def restore_flags(state) -> None:
    """Reinstate the flags captured by :func:`snapshot_flags`."""
    for info, modified in state:
        info.modified = modified


def set_all_flags(root: Checkpointable) -> None:
    """Mark every object reachable from ``root`` as modified."""
    stack = [root]
    seen: Set[int] = set()
    while stack:
        obj = stack.pop()
        oid = obj._ckpt_info.object_id
        if oid in seen:
            continue
        seen.add(oid)
        obj._ckpt_info.modified = True
        stack.extend(obj.children())


def collect_objects(root: Checkpointable) -> list:
    """Every object reachable from ``root`` (preorder, children in schema order)."""
    result = []
    stack = [root]
    seen: Set[int] = set()
    while stack:
        obj = stack.pop()
        oid = obj._ckpt_info.object_id
        if oid in seen:
            continue
        seen.add(oid)
        result.append(obj)
        stack.extend(reversed(obj.children()))
    return result
