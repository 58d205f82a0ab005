"""Property-based tests of checkpoint/restore over random structures.

Random trees over a small family of checkpointable classes, random value
assignments, and random mutation histories: replaying the recorded
base + deltas must always reproduce the live state exactly, and must
leave the same table and allocator as applying every record epoch by
epoch (the oracle below).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import Checkpoint, FullCheckpoint, collect_objects
from repro.core.checkpointable import Checkpointable
from repro.core.errors import RestoreError
from repro.core.fields import child, child_list, scalar, scalar_list
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.inspect import decode_stream
from repro.core.registry import DEFAULT_REGISTRY
from repro.core.restore import (
    ObjectTable,
    _skip_payload,
    replay,
    state_digest,
    structurally_equal,
)
from repro.core.streams import DataInputStream


class PropLeaf(Checkpointable):
    number = scalar("int")
    weight = scalar("float")
    tag = scalar("str")
    active = scalar("bool")


class PropBranch(Checkpointable):
    left = child()
    right = child()
    notes = scalar_list("int")


class PropBag(Checkpointable):
    items = child_list()
    labels = scalar_list("str")
    size = scalar("int")


@st.composite
def tree(draw, depth=0):
    """A random structure over the three property classes."""
    kind = draw(st.sampled_from(["leaf", "branch", "bag"] if depth < 3 else ["leaf"]))
    if kind == "leaf":
        return PropLeaf(
            number=draw(st.integers(-10_000, 10_000)),
            weight=draw(st.floats(-1e6, 1e6, allow_nan=False)),
            tag=draw(st.text(max_size=12)),
            active=draw(st.booleans()),
        )
    if kind == "branch":
        branch = PropBranch(notes=draw(st.lists(st.integers(-99, 99), max_size=5)))
        if draw(st.booleans()):
            branch.left = draw(tree(depth=depth + 1))
        if draw(st.booleans()):
            branch.right = draw(tree(depth=depth + 1))
        return branch
    bag = PropBag(
        labels=draw(st.lists(st.text(max_size=6), max_size=4)),
        size=draw(st.integers(0, 50)),
    )
    for _ in range(draw(st.integers(0, 3))):
        bag.items.append(draw(tree(depth=depth + 1)))
    return bag


def _mutate(objects, choice: int, payload: int) -> None:
    target = objects[choice % len(objects)]
    if isinstance(target, PropLeaf):
        field = ("number", "weight", "tag", "active")[payload % 4]
        value = {
            "number": payload,
            "weight": payload / 3.0,
            "tag": f"t{payload}",
            "active": payload % 2 == 0,
        }[field]
        setattr(target, field, value)
    elif isinstance(target, PropBranch):
        if payload % 3 == 0:
            target.notes.append(payload)
        elif payload % 3 == 1:
            target.left = PropLeaf(number=payload)
        else:
            target.right = None
    else:
        if payload % 2 == 0:
            target.labels.append(f"l{payload}")
        else:
            target.items.append(PropLeaf(number=payload))


class TestRandomStructureRoundtrips:
    @settings(max_examples=60, deadline=None)
    @given(tree())
    def test_full_checkpoint_roundtrip(self, root):
        driver = FullCheckpoint()
        driver.checkpoint(root)
        table = replay(driver.getvalue(), [])
        recovered = table[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    @settings(max_examples=60, deadline=None)
    @given(
        tree(),
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
            max_size=12,
        ),
    )
    def test_mutation_history_replays(self, root, history):
        base_driver = FullCheckpoint()
        base_driver.checkpoint(root)
        base = base_driver.getvalue()
        deltas = []
        objects = collect_objects(root)
        for choice, payload in history:
            _mutate(objects, choice, payload)
            objects = collect_objects(root)  # mutations may add objects
            delta = Checkpoint()
            delta.checkpoint(root)
            deltas.append(delta.getvalue())
        recovered = replay(base, deltas)[root._ckpt_info.object_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    @settings(max_examples=40, deadline=None)
    @given(tree(), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_delta_records_only_dirty_objects(self, root, choice, payload):
        FullCheckpoint().checkpoint(root)  # clears all flags
        digest_before = state_digest(root)
        objects = collect_objects(root)
        before_ids = {o._ckpt_info.object_id for o in objects}
        _mutate(objects, choice, payload)
        delta = Checkpoint()
        delta.checkpoint(root)
        # Mutating anything changes either the digest or at least the
        # delta is bounded by the number of touched + created objects
        # (created = genuinely new ids; a replaced subtree may shrink the
        # reachable set while still adding fresh objects).
        created = sum(
            1
            for o in collect_objects(root)
            if o._ckpt_info.object_id not in before_ids
        )
        if delta.size == 0:
            assert state_digest(root) == digest_before
        else:
            entries = decode_stream(delta.getvalue())
            assert len(entries) <= 1 + created


def _epoch_by_epoch(base, deltas):
    """The oracle: apply every record of every epoch, oldest first.

    Each epoch takes two passes, one to make blanks for unseen ids and
    one to apply each payload in stream order, and the allocator is
    advanced past the table's largest id after each epoch.
    """
    table = ObjectTable()
    offset = 0
    for data in [base, *deltas]:
        inp = DataInputStream(data, offset)
        entries = []
        while not inp.at_eof:
            object_id = inp.read_int32()
            cls = DEFAULT_REGISTRY.class_for(inp.read_int32())
            entries.append(object_id)
            existing = table.get(object_id)
            if existing is None:
                table.add(cls._blank(object_id))
            elif type(existing) is not cls:
                raise RestoreError(f"object id {object_id} changed class")
            _skip_payload(inp, DEFAULT_REGISTRY.schema_of(cls))
        inp = DataInputStream(data, offset)
        for object_id in entries:
            inp.read_int32()
            inp.read_int32()
            obj = table[object_id]
            obj.restore_local(inp, table)
            obj._ckpt_info.modified = False
        DEFAULT_ALLOCATOR.advance_past(max(table.ids(), default=-1))
        offset += len(data)
    return table


def _replayed_with_high_water(replayer, base, deltas):
    """``replayer``'s table and where it left the allocator, from 0."""
    saved = DEFAULT_ALLOCATOR.last_allocated
    DEFAULT_ALLOCATOR.reset()
    try:
        table = replayer(base, deltas)
        return table, DEFAULT_ALLOCATOR.last_allocated
    finally:
        DEFAULT_ALLOCATOR.advance_past(saved)


def assert_replay_matches_oracle(base, deltas):
    table, mark = _replayed_with_high_water(replay, base, deltas)
    expected, expected_mark = _replayed_with_high_water(_epoch_by_epoch, base, deltas)
    assert set(table.ids()) == set(expected.ids())
    for object_id in expected.ids():
        got, want = table[object_id], expected[object_id]
        assert type(got) is type(want)
        assert state_digest(got, include_ids=True) == state_digest(
            want, include_ids=True
        )
    assert not any(obj._ckpt_info.modified for obj in table.objects())
    assert mark == expected_mark


def _full(root):
    driver = FullCheckpoint()
    driver.checkpoint(root)
    return driver.getvalue()


def _delta(root):
    driver = Checkpoint()
    driver.checkpoint(root)
    return driver.getvalue()


class TestReplayMatchesEpochByEpochOracle:
    @settings(max_examples=40, deadline=None)
    @given(tree())
    def test_full_checkpoint(self, root):
        assert_replay_matches_oracle(_full(root), [])

    @settings(max_examples=60, deadline=None)
    @given(
        tree(),
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
            max_size=12,
        ),
    )
    def test_mutation_history(self, root, history):
        base = _full(root)
        deltas = []
        objects = collect_objects(root)
        for choice, payload in history:
            _mutate(objects, choice, payload)
            objects = collect_objects(root)
            deltas.append(_delta(root))
        assert_replay_matches_oracle(base, deltas)

    @settings(max_examples=40, deadline=None)
    @given(tree(), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_dag_records_a_shared_object_once_per_path(self, shared, choice, payload):
        # A full checkpoint of a DAG records the shared subtree once per
        # path; base, mutate, then a second full checkpoint of the DAG.
        dag = PropBranch(left=shared, right=shared)
        base = _full(dag)
        recorded = [entry.object_id for entry in decode_stream(base)]
        assert recorded.count(shared._ckpt_info.object_id) == 2
        _mutate(collect_objects(dag), choice, payload)
        assert_replay_matches_oracle(base, [_full(dag)])

    @settings(max_examples=40, deadline=None)
    @given(tree(), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_duplicate_records_in_one_epoch_later_wins(self, root, choice, payload):
        # One epoch holding two different states of the same objects:
        # within an epoch, the later record must win.
        first = _full(root)
        _mutate(collect_objects(root), choice, payload)
        assert_replay_matches_oracle(first + _full(root), [])

    @settings(max_examples=40, deadline=None)
    @given(tree(), st.lists(tree(), min_size=1, max_size=3))
    def test_objects_first_recorded_in_a_later_delta(self, root, newcomers):
        bag = PropBag(items=[root])
        base = _full(bag)
        deltas = []
        for newcomer in newcomers:
            bag.items.append(newcomer)
            deltas.append(_delta(bag))
            bag.size += 1
            deltas.append(_delta(bag))
        assert_replay_matches_oracle(base, deltas)
        recovered = replay(base, deltas)[bag._ckpt_info.object_id]
        assert structurally_equal(bag, recovered, compare_ids=True)
