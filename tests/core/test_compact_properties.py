"""Compaction copies each object's newest record; property tests.

The oracle below is the straightforward compaction: replay the chain
into live objects and re-record every one. The new base must be those
bytes exactly, over random trees and histories, DAG checkpoints,
duplicate records, late objects, branches and pins, kept history, a
manifest that maps serials differently, and every store front.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import collect_objects
from repro.core.checkpointable import Checkpointable
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.registry import DEFAULT_REGISTRY
from repro.core.replica import ReplicatedStore, unframe_record
from repro.core.restore import _skip_payload, state_digest
from repro.core.retry import RetryPolicy
from repro.core.storage import (
    FULL,
    INCREMENTAL,
    BackgroundWriter,
    FileStore,
    MemoryStore,
    RetryingStore,
    compact,
)
from repro.core.streams import DataInputStream, DataOutputStream
from repro.runtime.sink import StoreSink
from repro.synthetic.structures import build_structures, element_at
from tests.core.test_restore_properties import (
    PropBag,
    PropBranch,
    PropLeaf,
    _delta,
    _full,
    _mutate,
    tree,
)

HISTORY = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)), max_size=10
)


def rerecorded(store, head, registry=None):
    """The oracle: materialize ``head`` and re-record every object."""
    table = store.materialize(head, registry)
    out = DataOutputStream()
    for obj in table.objects():
        out.write_int32(obj._ckpt_info.object_id)
        out.write_int32(obj._ckpt_serial)
        obj.record(out)
    return out.getvalue()


def digests(store, at=None):
    """``state_digest(include_ids=True)`` of every recovered object."""
    return {
        object_id: state_digest(obj, include_ids=True)
        for object_id, obj in store.recover(at=at)._objects.items()
    }


def history_streams(root, history):
    """A base of ``root`` and one delta per mutation of ``history``."""
    streams = [_full(root)]
    objects = collect_objects(root)
    for choice, payload in history:
        _mutate(objects, choice, payload)
        objects = collect_objects(root)  # mutations may add objects
        streams.append(_delta(root))
    return streams


def linear_store(streams, store=None):
    store = MemoryStore() if store is None else store
    store.append(FULL, streams[0])
    for data in streams[1:]:
        store.append(INCREMENTAL, data)
    return store


def assert_compacts_like_oracle(store, branch=None, keep_history=False):
    """Compact ``store`` and check the base against the oracle's bytes.

    Every branch tip and pin must recover to the same objects after
    compaction as before. Returns the new base's bytes.
    """
    lineage = store.lineage()
    head = lineage.newest() if branch is None else lineage.branches()[branch]
    expected = rerecorded(store, head)
    targets = list(lineage.branches().values()) + list(lineage.named())
    before = {target: digests(store, at=target) for target in targets}
    new_index = compact(store, branch=branch, keep_history=keep_history)
    base = store.epoch_map()[new_index].data
    assert base == expected
    for target, want in before.items():
        if target == head:
            target = new_index  # the tip moved onto the new base
        assert digests(store, at=target) == want
    return base


class TestByteIdentityWithTheOracle:
    @settings(max_examples=60, deadline=None)
    @given(tree(), HISTORY)
    def test_random_tree_and_history(self, root, history):
        assert_compacts_like_oracle(linear_store(history_streams(root, history)))

    @settings(max_examples=30, deadline=None)
    @given(tree(), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_dag_full_checkpoints_record_a_shared_object_twice(
        self, shared, choice, payload
    ):
        dag = PropBranch(left=shared, right=shared)
        base = _full(dag)
        _mutate(collect_objects(dag), choice, payload)
        assert_compacts_like_oracle(linear_store([base, _full(dag)]))

    @settings(max_examples=30, deadline=None)
    @given(tree(), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_two_states_of_one_object_in_one_epoch(self, root, choice, payload):
        first = _full(root)
        _mutate(collect_objects(root), choice, payload)
        assert_compacts_like_oracle(linear_store([first + _full(root)]))

    @settings(max_examples=30, deadline=None)
    @given(tree(), st.lists(tree(), min_size=1, max_size=3))
    def test_objects_first_recorded_in_later_deltas(self, root, newcomers):
        bag = PropBag(items=[root])
        streams = [_full(bag)]
        for newcomer in newcomers:
            bag.items.append(newcomer)
            streams.append(_delta(bag))
            bag.size += 1
            streams.append(_delta(bag))
        assert_compacts_like_oracle(linear_store(streams))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)
            ),
            max_size=12,
        )
    )
    def test_fixed_size_records_of_the_synthetic_heaps(self, writes):
        # the synthetic structures' classes hold only ints and children,
        # so replay and compaction scan them with one struct each
        roots = build_structures(3, 2, 3, 1)
        streams = [b"".join(_full(root) for root in roots)]
        for step, (structure, column, row) in enumerate(writes):
            element_at(roots[structure], column, row).v0 = step
            streams.append(b"".join(_delta(root) for root in roots))
        assert_compacts_like_oracle(linear_store(streams))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.text(max_size=8), max_size=4),
        st.lists(st.booleans(), min_size=1, max_size=4),
        st.lists(st.floats(allow_nan=False), max_size=4),
    )
    def test_strings_bools_and_scalar_lists(self, labels, flags, weights):
        bag = PropBag(labels=labels)
        for flag in flags:
            bag.items.append(PropLeaf(tag="é" * len(labels), active=flag))
        streams = [_full(bag)]
        for weight in weights:
            bag.items[0].weight = weight
            bag.labels.append(str(weight))
            streams.append(_delta(bag))
        assert_compacts_like_oracle(linear_store(streams))

    @settings(max_examples=30, deadline=None)
    @given(
        tree(),
        HISTORY,
        HISTORY,
        st.sampled_from(["main", "side"]),
        st.booleans(),
    )
    def test_branches_and_pins(
        self, tmp_path_factory, root, main, side, branch, keep_history
    ):
        streams = history_streams(root, main)
        store = FileStore(str(tmp_path_factory.mktemp("branches")))
        linear_store(streams[:1], store)
        store.append(INCREMENTAL, b"", name="pin")
        for data in streams[1:]:
            store.append(INCREMENTAL, data)
        # the side branch forks at the pin from a copy of its state
        pinned = store.materialize("pin")[root._ckpt_info.object_id]
        store.append(INCREMENTAL, b"", parent=1, branch="side")
        for data in history_streams(pinned, side)[1:]:
            store.append(INCREMENTAL, data, branch="side")
        assert_compacts_like_oracle(
            store, branch=branch, keep_history=keep_history
        )

    @settings(max_examples=30, deadline=None)
    @given(tree(), HISTORY)
    def test_keep_history(self, tmp_path_factory, root, history):
        store = FileStore(str(tmp_path_factory.mktemp("keep")))
        linear_store(history_streams(root, history), store)
        before = len(store.epochs())
        assert_compacts_like_oracle(store, keep_history=True)
        assert len(store.epochs()) == before + 1


def remap_serials(data, mapping):
    """``data`` with every record's class serial replaced by ``mapping``'s."""
    out = bytearray(data)
    inp = DataInputStream(data)
    while not inp.at_eof:
        start = inp.position
        inp.read_int32()
        serial = inp.read_int32()
        out[start + 4 : start + 8] = mapping[serial].to_bytes(4, "little")
        cls = DEFAULT_REGISTRY.class_for(serial)
        _skip_payload(inp, DEFAULT_REGISTRY.schema_of(cls))
    return bytes(out)


class TestSerialTranslation:
    @settings(max_examples=20, deadline=None)
    @given(tree(), HISTORY)
    def test_manifest_that_maps_serials_differently(
        self, tmp_path_factory, root, history
    ):
        # Another process registered the three classes in another order:
        # its streams and its manifest carry rotated serials.
        classes = (PropLeaf, PropBranch, PropBag)
        live = [cls._ckpt_serial for cls in classes]
        rotated = dict(zip(live, live[1:] + live[:1]))
        store = FileStore(str(tmp_path_factory.mktemp("moved")))
        streams = history_streams(root, history)
        linear_store([remap_serials(data, rotated) for data in streams], store)
        with open(store.manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["classes"] = {
            DEFAULT_REGISTRY._qualname(cls): rotated[cls._ckpt_serial]
            for cls in classes
        }
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        base = assert_compacts_like_oracle(store)
        # the new base carries this process's serials: it is what the
        # same chain written by this process compacts to
        plain = linear_store(streams)
        assert base == rerecorded(plain, plain.lineage().newest())


class TestCompactionLeavesTheHeapAlone:
    def test_no_objects_made_and_live_flags_kept(self, monkeypatch):
        root = PropBag(items=[PropLeaf(number=1), PropBranch()])
        store = linear_store([_full(root), _full(root)])
        root.items[0].number = 2  # a dirty live object
        flags = [o._ckpt_info.modified for o in collect_objects(root)]
        live = state_digest(root, include_ids=True)

        def no_blanks(cls, object_id):
            raise AssertionError("compaction made an object")

        monkeypatch.setattr(Checkpointable, "_blank", classmethod(no_blanks))
        compact(store)
        assert [o._ckpt_info.modified for o in collect_objects(root)] == flags
        assert state_digest(root, include_ids=True) == live

    def test_allocator_advanced_past_the_line(self):
        root = PropBag(items=[PropLeaf(), PropLeaf()])
        store = linear_store([_full(root)])
        high = max(o._ckpt_info.object_id for o in collect_objects(root))
        saved = DEFAULT_ALLOCATOR.last_allocated
        DEFAULT_ALLOCATOR.reset()
        try:
            compact(store)
            assert DEFAULT_ALLOCATOR.last_allocated == high
        finally:
            DEFAULT_ALLOCATOR.advance_past(saved)


def _sample_streams():
    root = PropBag(items=[PropLeaf(tag="a"), PropBranch(notes=[1])])
    return history_streams(root, [(1, 5), (2, 7), (0, 2), (3, 4)])


class TestStoreFronts:
    """Every front writes the base a bare store writes."""

    def test_retrying_store(self, tmp_path):
        streams = _sample_streams()
        bare = linear_store(streams, FileStore(str(tmp_path / "bare")))
        expected = rerecorded(bare, bare.lineage().newest())
        front = RetryingStore(
            FileStore(str(tmp_path / "retry")), RetryPolicy(max_attempts=2)
        )
        linear_store(streams, front)
        index = compact(front)
        assert [e.data for e in front.epochs()] == [expected]
        assert front.epochs()[0].index == index

    def test_background_writer_through_the_sink(self, tmp_path):
        streams = _sample_streams()
        expected = rerecorded(linear_store(streams), len(streams) - 1)
        backing = FileStore(str(tmp_path / "writer"))
        sink = StoreSink(BackgroundWriter(backing))
        for index, data in enumerate(streams):
            sink.put(FULL if index == 0 else INCREMENTAL, data)
        new_base = sink.compact()
        sink.close()
        assert [(e.index, e.data) for e in backing.epochs()] == [
            (new_base, expected)
        ]

    def test_every_replica_holds_the_base(self, tmp_path):
        streams = _sample_streams()
        expected = rerecorded(linear_store(streams), len(streams) - 1)
        replicas = [FileStore(str(tmp_path / f"r{i}")) for i in range(3)]
        store = ReplicatedStore(replicas, quorum=2)
        linear_store(streams, store)
        new_base = compact(store)
        assert store.epoch_map()[new_base].data == expected
        for replica in replicas:
            held = replica.epoch_map()[new_base]
            assert held.kind == FULL
            assert unframe_record(held.data) == expected
