"""Unit tests for restore/replay and state comparison."""

import pytest

from repro.core.checkpoint import Checkpoint, FullCheckpoint, collect_objects, reset_flags
from repro.core.errors import RestoreError
from repro.core.restore import (
    ObjectTable,
    apply_incremental,
    replay,
    restore_full,
    state_digest,
    structurally_equal,
)
from repro.core.storage import FULL, INCREMENTAL, MemoryStore, compact
from repro.core.streams import DataOutputStream
from tests.conftest import Leaf, Mid, Root, build_root, make_class
from repro.core.fields import child, scalar


def _full_bytes(root):
    driver = FullCheckpoint()
    driver.checkpoint(root)
    return driver.getvalue()


def _delta_bytes(root):
    driver = Checkpoint()
    driver.checkpoint(root)
    return driver.getvalue()


class TestRestoreFull:
    def test_roundtrip_identity(self, root):
        base = _full_bytes(root)
        table = restore_full(base)
        recovered = table[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)
        assert type(recovered) is Root

    def test_all_objects_restored(self, root):
        table = restore_full(_full_bytes(root))
        assert len(table) == len(collect_objects(root))

    def test_restored_flags_are_clear(self, root):
        table = restore_full(_full_bytes(root))
        assert all(not o._ckpt_info.modified for o in table.objects())

    def test_forward_child_references_resolve(self, root):
        # Parent entries precede their children in the stream; restoration
        # must resolve the forward ids (two-pass).
        table = restore_full(_full_bytes(root))
        recovered = table[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == root.mid.leaf.value
        assert recovered.kids[1].label == root.kids[1].label

    def test_absent_child_stays_none(self):
        root = build_root(with_extra=False)
        table = restore_full(_full_bytes(root))
        assert table[root._ckpt_info.object_id].extra is None

    def test_empty_stream_restores_empty_table(self):
        table = restore_full(b"")
        assert len(table) == 0


class TestIncrementalReplay:
    def test_scalar_update_replayed(self, root):
        base = _full_bytes(root)
        root.mid.leaf.value = 123
        delta = _delta_bytes(root)
        table = replay(base, [delta])
        assert table[root._ckpt_info.object_id].mid.leaf.value == 123

    def test_pointer_update_replayed(self, root):
        base = _full_bytes(root)
        root.extra = root.kids[0]  # repoint child
        delta = _delta_bytes(root)
        recovered = replay(base, [delta])[root._ckpt_info.object_id]
        assert recovered.extra is recovered.kids[0]

    def test_new_object_in_delta_materialized(self, root):
        base = _full_bytes(root)
        newcomer = Leaf(value=55, label="new")
        root.kids.append(newcomer)
        delta = _delta_bytes(root)
        recovered = replay(base, [delta])[root._ckpt_info.object_id]
        assert recovered.kids[2].value == 55
        assert recovered.kids[2].label == "new"

    def test_multi_delta_chain(self, root):
        base = _full_bytes(root)
        deltas = []
        for value in (10, 20, 30):
            root.mid.leaf.value = value
            root.mid.notes.append(value)
            deltas.append(_delta_bytes(root))
        recovered = replay(base, deltas)[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == 30
        assert recovered.mid.notes.as_list() == [1, 2, 3, 10, 20, 30]
        assert structurally_equal(root, recovered, compare_ids=True)

    def test_later_entry_wins(self, root):
        base = _full_bytes(root)
        root.mid.leaf.value = 1
        first = _delta_bytes(root)
        root.mid.leaf.value = 2
        second = _delta_bytes(root)
        recovered = replay(base, [first, second])[root._ckpt_info.object_id]
        assert recovered.mid.leaf.value == 2

    def test_apply_incremental_restores_an_object_already_flagged(self, root):
        base = _full_bytes(root)
        table = restore_full(base)
        leaf_id = root.mid.leaf._ckpt_info.object_id
        table[leaf_id].value = 999  # flags the restored leaf modified
        root.mid.leaf.value = 42
        assert apply_incremental(table, _delta_bytes(root)) == [leaf_id]
        assert table[leaf_id].value == 42
        assert not table[leaf_id]._ckpt_info.modified

    def test_replay_equals_live_after_random_history(self, root):
        import random

        rng = random.Random(3)
        base = _full_bytes(root)
        deltas = []
        objects = collect_objects(root)
        leaves = [o for o in objects if isinstance(o, Leaf)]
        for _ in range(10):
            for __ in range(rng.randint(1, 4)):
                rng.choice(leaves).value = rng.randint(-100, 100)
            if rng.random() < 0.4:
                root.mid.notes.append(rng.randint(0, 9))
            deltas.append(_delta_bytes(root))
        recovered = replay(base, deltas)[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)


class TestErrors:
    def test_unknown_object_id(self):
        table = ObjectTable()
        with pytest.raises(RestoreError, match="unknown object id"):
            table[999999]

    def test_truncated_stream(self, root):
        base = _full_bytes(root)
        with pytest.raises(RestoreError):
            restore_full(base[: len(base) - 3])

    def test_unknown_serial(self):
        out = DataOutputStream()
        out.write_int32(1)
        out.write_int32(2**28)  # never allocated
        with pytest.raises(RestoreError, match="unknown class serial"):
            restore_full(out.getvalue())

    def test_class_mismatch_between_delta_and_table(self, root):
        base = _full_bytes(root)
        table = restore_full(base)
        out = DataOutputStream()
        out.write_int32(root._ckpt_info.object_id)
        out.write_int32(Leaf._ckpt_serial)  # but the table holds a Root
        Leaf().record(out)
        with pytest.raises(RestoreError, match="recorded as"):
            apply_incremental(table, out.getvalue())

    def test_missing_serial_translation(self, root):
        base = _full_bytes(root)
        with pytest.raises(RestoreError, match="missing from manifest"):
            restore_full(base, serial_translation={})


#: a class with a fixed-size payload (only int/float scalars and children),
#: which the first replay pass scans with one struct
FixedNode = make_class(
    "FixedNode", value=scalar("int"), weight=scalar("float"), next=child()
)


def _header(obj, cls=None):
    """A stream holding a record header for ``obj`` (as class ``cls``)."""
    out = DataOutputStream()
    out.write_int32(obj._ckpt_info.object_id)
    out.write_int32((cls or type(obj))._ckpt_serial)
    return out


def _entry(obj):
    """One record of ``obj``'s current state, as the drivers write it."""
    out = _header(obj)
    obj.record(out)
    return out.getvalue()


def _replay_error(base, deltas):
    """Replay's error for the chain; compacting a store holding the same
    chain must raise the same text and leave the store's epochs as they
    were."""
    with pytest.raises(RestoreError) as caught:
        replay(base, deltas)
    store = MemoryStore()
    store.append(FULL, base)
    for delta in deltas:
        store.append(INCREMENTAL, delta)
    before = store.epochs()
    with pytest.raises(RestoreError) as compacting:
        compact(store)
    assert str(compacting.value) == str(caught.value)
    assert store.epochs() == before
    return str(caught.value)


class TestMalformedChains:
    """A bad record in an epoch that a later epoch supersedes still fails.

    Replay restores each object only from its newest record, but it must
    validate every record: each chain here is base, a delta holding one
    good record and then the bad one, and a last delta that re-records
    the same object correctly.
    """

    def _chain(self, root, bad, again):
        base = _full_bytes(root)
        good = _entry(root.extra)
        return base, [good + bad, _entry(again)], len(base) + len(good)

    def test_dangling_child_field(self, root):
        out = _header(root.mid)
        out.write_int32(999_999)  # leaf
        out.write_int32(0)  # notes
        base, deltas, at = self._chain(root, out.getvalue(), root.mid)
        assert _replay_error(base, deltas) == (
            "checkpoint references unknown object id 999999 "
            f"from the record at offset {at}"
        )

    def test_dangling_child_field_of_fixed_size_class(self):
        head = FixedNode(value=1, weight=0.5, next=FixedNode(value=2))
        base = _full_bytes(head)
        out = _header(head)
        out.write_int32(3)
        out.write_float64(1.5)
        out.write_int32(999_997)
        deltas = [out.getvalue(), _entry(head)]
        assert _replay_error(base, deltas) == (
            "checkpoint references unknown object id 999997 "
            f"from the record at offset {len(base)}"
        )

    def _root_with_kids(self, root, kid_ids):
        out = _header(root)
        out.write_str(root.name)
        out.write_int32(root.mid._ckpt_info.object_id)
        out.write_int32(root.extra._ckpt_info.object_id)
        out.write_int32(len(kid_ids))
        for kid_id in kid_ids:
            out.write_int32(kid_id)
        return out.getvalue()

    def test_dangling_child_list_element(self, root):
        bad = self._root_with_kids(root, [root.kids[0]._ckpt_info.object_id, 999_998])
        base, deltas, at = self._chain(root, bad, root)
        assert _replay_error(base, deltas) == (
            "checkpoint references unknown object id 999998 "
            f"from the record at offset {at}"
        )

    def test_minus_one_in_child_list(self, root):
        bad = self._root_with_kids(root, [-1])
        base, deltas, at = self._chain(root, bad, root)
        assert _replay_error(base, deltas) == (
            "checkpoint references unknown object id -1 "
            f"from the record at offset {at}"
        )

    def test_reference_to_an_id_first_recorded_later(self, root):
        # Child ids resolve against the ids known at the end of their own
        # epoch: an object that only a later delta records is dangling.
        late = Leaf(value=5)
        out = _header(root.mid)
        out.write_int32(late._ckpt_info.object_id)
        out.write_int32(0)
        base, deltas, at = self._chain(root, out.getvalue(), root.mid)
        deltas.append(_entry(late))
        assert _replay_error(base, deltas) == (
            f"checkpoint references unknown object id {late._ckpt_info.object_id} "
            f"from the record at offset {at}"
        )

    def _leaf_prefix(self, leaf):
        out = _header(leaf)
        out.write_int32(leaf.value)
        out.write_float64(leaf.weight)
        return out

    def test_invalid_bool_byte(self, root):
        out = self._leaf_prefix(root.extra)
        out.write_str(root.extra.label)
        bool_at = out.size
        out.write_bytes(b"\x02")
        base, deltas, at = self._chain(root, out.getvalue(), root.extra)
        assert _replay_error(base, deltas) == (
            f"invalid boolean byte 2 at offset {at + bool_at}"
        )

    def test_negative_string_length(self, root):
        out = self._leaf_prefix(root.extra)
        length_at = out.size
        out.write_int32(-5)
        base, deltas, at = self._chain(root, out.getvalue(), root.extra)
        assert _replay_error(base, deltas) == (
            f"negative string length -5 at offset {at + length_at}"
        )

    def test_invalid_utf8_string(self, root):
        out = self._leaf_prefix(root.extra)
        text_at = out.size + 4
        out.write_int32(2)
        out.write_bytes(b"\xff\xfe")
        out.write_bool(False)
        base, deltas, at = self._chain(root, out.getvalue(), root.extra)
        assert _replay_error(base, deltas) == (
            f"invalid UTF-8 in string at offset {at + text_at}"
        )

    def test_unknown_serial(self, root):
        out = DataOutputStream()
        out.write_int32(root.extra._ckpt_info.object_id)
        out.write_int32(2**28)
        base, deltas, _ = self._chain(root, out.getvalue(), root.extra)
        assert _replay_error(base, deltas) == (
            "unknown class serial 268435456 in checkpoint"
        )

    def test_class_mismatch_across_epochs(self, root):
        out = _header(root, Leaf)
        Leaf().record(out)
        base, deltas, _ = self._chain(root, out.getvalue(), root)
        assert _replay_error(base, deltas) == (
            f"object id {root._ckpt_info.object_id} recorded as Leaf but the "
            "table holds a Root"
        )

    def test_truncated_header(self, root):
        bad = _header(root.mid).getvalue()[:6]
        base, deltas, at = self._chain(root, bad, root.mid)
        assert _replay_error(base, deltas) == (
            f"truncated stream: wanted 4 bytes at offset {at + 4}, have 2"
        )

    def test_truncated_fixed_size_payload(self):
        head = FixedNode(value=1, weight=0.5, next=FixedNode(value=2))
        base = _full_bytes(head)
        bad = _entry(head)[:-3]  # one byte of the 4-byte child id is left
        deltas = [bad, _entry(head)]
        assert _replay_error(base, deltas) == (
            f"truncated stream: wanted 4 bytes at offset {len(base) + 20}, have 1"
        )


class TestStateDigest:
    def test_digest_stable(self, root):
        assert state_digest(root) == state_digest(root)

    def test_digest_differs_on_value_change(self, root):
        before = state_digest(root)
        root.mid.leaf.value += 1
        assert state_digest(root) != before

    def test_digest_differs_on_topology_change(self, root):
        before = state_digest(root)
        root.extra = None
        assert state_digest(root) != before

    def test_digest_ignores_ids_by_default(self):
        a = build_root()
        b = build_root()
        assert state_digest(a) == state_digest(b)
        assert state_digest(a, include_ids=True) != state_digest(b, include_ids=True)

    def test_digest_captures_sharing(self):
        holder_cls = make_class("DigestHolder", a=child(Leaf), b=child(Leaf))
        shared = holder_cls(a=Leaf(value=1))
        shared.b = shared.a
        separate = holder_cls(a=Leaf(value=1), b=Leaf(value=1))
        assert state_digest(shared) != state_digest(separate)

    def test_structurally_equal_flags_independent(self, root):
        twin = build_root()
        reset_flags(twin)
        assert structurally_equal(root, twin)  # flags don't affect state
