"""Block dirtiness tier: partitioning, soundness, wrap defense, trial purity.

The load-bearing property: a differential commit must NEVER skip a block
containing a flagged object — every mutation shape that raises a flag (or
changes topology) must leave the tier in a state whose next commit is
byte-identical to the baseline flag walk.
"""

import threading

import pytest

from repro.core.blocks import DEFAULT_BLOCK_SIZE, BlockTier
from repro.core.checkpoint import Checkpoint, collect_objects, reset_flags
from repro.core.errors import CheckpointError
from repro.core.info import GENERATION_MASK, TOPOLOGY_CLOCK
from repro.core.inspect import decode_stream
from repro.core.streams import DataOutputStream
from repro.runtime.strategy import DifferentialStrategy
from tests.conftest import Leaf, Mid, build_root


def _generic_bytes(roots):
    out = DataOutputStream()
    driver = Checkpoint(out)
    for root in roots:
        driver.checkpoint(root)
    return out.getvalue()


def _snapshot_flags(roots):
    state = []
    for root in roots:
        for obj in collect_objects(root):
            state.append((obj._ckpt_info, obj._ckpt_info.modified))
    return state


def _restore_flags(snapshot):
    for info, modified in snapshot:
        if modified:
            info.set_modified()
        else:
            info.reset_modified()


def _strategy_bytes(strategy, roots):
    out = DataOutputStream()
    strategy.write(roots, out)
    return out.getvalue()


def _population(count=6):
    roots = [build_root() for _ in range(count)]
    for root in roots:
        reset_flags(root)
    return roots


class TestPartitioning:
    def test_requires_valid_arguments(self):
        with pytest.raises(CheckpointError, match="block_size"):
            BlockTier(block_size=0)

    def test_blocks_cover_roots_in_order(self):
        roots = _population(5)
        tier = BlockTier(block_size=2)
        tier.partition(roots)
        assert [len(b.roots) for b in tier.blocks] == [2, 2, 1]
        assert all(block.dirty for block in tier.blocks)

    def test_membership_is_first_preorder_reach(self):
        roots = _population(4)
        shared = roots[0].mid.leaf  # reachable from roots[0] first
        roots[3].extra = shared  # ...and aliased under roots[3]
        tier = BlockTier(block_size=2)
        tier.partition(roots)
        assert shared._ckpt_info.block is tier.blocks[0]

    def test_default_block_size(self):
        assert BlockTier().block_size == DEFAULT_BLOCK_SIZE

    def test_flag_write_bumps_owning_block(self):
        roots = _population(4)
        tier = BlockTier(block_size=2)
        tier.partition(roots)
        for block in tier.blocks:
            tier.mark_committed(block)
        assert all(tier.is_clean(b) for b in tier.blocks)
        roots[2].mid.leaf.value = 99
        assert not tier.is_clean(tier.blocks[1])
        assert tier.is_clean(tier.blocks[0])

    def test_in_sync_requires_identical_roots(self):
        roots = _population(2)
        tier = BlockTier()
        tier.partition(roots)
        assert tier.in_sync(roots)
        assert not tier.in_sync(list(reversed(roots)))
        assert not tier.in_sync(roots[:1])

    def test_structural_mutation_desyncs(self):
        roots = _population(2)
        tier = BlockTier()
        tier.partition(roots)
        roots[0].extra = Leaf(value=5)
        assert not tier.in_sync(roots)


# Every honest mutation shape from tools/make_alias_fixture.py (the ones
# that raise a flag or tick the topology clock), applied against a live
# differential tier: the next commit must record exactly what the
# baseline flag walk records.


def _shape_scalar_write(roots):
    roots[4].mid.leaf.value = 41


def _shape_str_write(roots):
    roots[1].name = "renamed"


def _shape_tracked_scalar_list(roots):
    roots[3].mid.notes[1] = 77


def _shape_child_reassign(roots):
    roots[2].extra = Leaf(value=123, label="fresh")


def _shape_child_detach(roots):
    roots[5].extra = None


def _shape_child_list_append(roots):
    roots[0].kids.append(Leaf(value=9, label="appended"))


def _shape_child_list_assign(roots):
    roots[4].kids = [Leaf(value=1), Leaf(value=2)]


def _shape_shared_subtree_write(roots):
    # The aliased leaf lives in roots[0]'s block; the write must dirty
    # that block even though the alias was taken through roots[5].
    roots[5].extra._ckpt_info  # (alias established by the fixture setup)
    roots[0].mid.leaf.value = 1234


def _shape_thread_write(roots):
    def worker():
        roots[3].mid.leaf.value = 555

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()


def _shape_cross_block_reattach(roots):
    # Move a subtree from an early block to a late one: pure topology.
    moved = roots[0].mid
    roots[0].mid = None
    roots[5].mid = moved


MUTATION_SHAPES = {
    "scalar_write": _shape_scalar_write,
    "str_write": _shape_str_write,
    "tracked_scalar_list": _shape_tracked_scalar_list,
    "child_reassign": _shape_child_reassign,
    "child_detach": _shape_child_detach,
    "child_list_append": _shape_child_list_append,
    "child_list_assign": _shape_child_list_assign,
    "shared_subtree_write": _shape_shared_subtree_write,
    "thread_write": _shape_thread_write,
    "cross_block_reattach": _shape_cross_block_reattach,
}


class TestMutationShapesDirtyTheirBlock:
    @pytest.mark.parametrize("shape", sorted(MUTATION_SHAPES))
    def test_next_commit_matches_baseline(self, shape):
        roots = _population(6)
        # Alias one subtree across blocks before partitioning, so the
        # shared_subtree shape exercises a genuine cross-block alias.
        roots[5].extra = roots[0].mid.leaf
        reset_flags(roots[5])
        strategy = DifferentialStrategy(block_size=2)
        _strategy_bytes(strategy, roots)  # baseline commit: partition

        MUTATION_SHAPES[shape](roots)

        flags = _snapshot_flags(roots)
        expected = _generic_bytes(roots)
        _restore_flags(flags)
        assert _strategy_bytes(strategy, roots) == expected

    @pytest.mark.parametrize("shape", sorted(MUTATION_SHAPES))
    def test_mutation_is_visible_to_the_tier(self, shape):
        roots = _population(6)
        roots[5].extra = roots[0].mid.leaf
        reset_flags(roots[5])
        tier = BlockTier(block_size=2)
        tier.partition(roots)
        for block in tier.blocks:
            tier.mark_committed(block)
        mark = TOPOLOGY_CLOCK.value

        MUTATION_SHAPES[shape](roots)

        some_block_dirty = any(not tier.is_clean(b) for b in tier.blocks)
        desynced = TOPOLOGY_CLOCK.value != mark
        assert some_block_dirty or desynced, (
            f"mutation shape {shape!r} left every block clean and the "
            "topology clock untouched: a differential commit would skip it"
        )


class TestGenerationWrap:
    def test_dirty_bit_survives_a_full_counter_wrap(self):
        roots = _population(2)
        tier = BlockTier(block_size=2)
        tier.partition(roots)
        block = tier.blocks[0]
        tier.mark_committed(block)
        # Simulate 2**32 - 1 flag writes since the commit: one more bump
        # wraps the counter exactly back to its committed value.
        block.generation = (block.committed_generation - 1) & GENERATION_MASK
        block.dirty = False  # adversarial: only the counter would lie
        roots[0].mid.leaf.value = 1
        assert block.generation == block.committed_generation
        assert block.dirty  # the write re-raised the wrap-proof bit
        assert not tier.is_clean(block)

    def test_generation_masked_to_32_bits(self):
        roots = _population(1)
        tier = BlockTier()
        tier.partition(roots)
        block = tier.blocks[0]
        block.generation = GENERATION_MASK
        roots[0].mid.leaf.value = 2
        assert block.generation == 0


class TestStateSnapshot:
    def test_snapshot_restore_roundtrip(self):
        roots = _population(4)
        tier = BlockTier(block_size=2)
        tier.partition(roots)
        for block in tier.blocks:
            tier.mark_committed(block)
        saved = tier.snapshot_state()
        roots[0].mid.leaf.value = 5
        roots[3].name = "x"
        assert any(not tier.is_clean(b) for b in tier.blocks)
        tier.restore_state(saved)
        assert all(tier.is_clean(b) for b in tier.blocks)

    def test_reset_forgets_partition(self):
        roots = _population(2)
        tier = BlockTier()
        tier.partition(roots)
        tier.reset()
        assert not tier.partitioned
        assert not tier.in_sync(roots)

    def test_measure_that_repartitions_keeps_flagged_objects(self):
        # A measure() whose trial commit re-partitions must not hand the
        # old partition's per-block counters to the new blocks: the next
        # commit would then skip a block holding flagged objects.
        from repro.runtime.session import CheckpointSession
        from repro.runtime.sink import BufferSink

        population = _population(2 * DEFAULT_BLOCK_SIZE)
        session = CheckpointSession(
            roots=lambda: population, strategy="differential", sink=BufferSink()
        )
        session.commit()  # baseline: two blocks, all clean afterwards
        population[DEFAULT_BLOCK_SIZE].mid.leaf.value = 99  # dirty block 1
        population.insert(0, build_root())  # a fresh structure, all flagged
        flagged = {
            obj._ckpt_info.object_id
            for root in population
            for obj in collect_objects(root)
            if obj._ckpt_info.modified
        }
        assert len(flagged) == len(collect_objects(population[0])) + 1

        session.measure()
        data = session.commit().data

        recorded = {entry.object_id for entry in decode_stream(data)}
        assert recorded == flagged


class TestOracleCrosscheck:
    """The block tier must not weaken the shadow-heap oracle's verdicts."""

    def _session(self, strategy_name):
        from repro.runtime.session import CheckpointSession
        from repro.runtime.sink import BufferSink
        from repro.sanitize.oracle import ShadowHeapOracle

        root = build_root()
        oracle = ShadowHeapOracle()
        session = CheckpointSession(
            roots=root, strategy=strategy_name, sink=BufferSink()
        )
        session.attach_oracle(oracle)
        session.base()
        return root, session, oracle

    @pytest.mark.parametrize("strategy_name", ["differential"])
    def test_bypass_mutation_still_reported(self, strategy_name):
        root, session, oracle = self._session(strategy_name)
        root.mid.leaf._f_value = 41  # flag bypass under the block tier
        session.commit()
        session.close()
        under = oracle.under()
        assert under, "block tier suppressed the unflagged-mutation verdict"
        assert any(v.object_id == root.mid.leaf._ckpt_info.object_id
                   for v in under)

    @pytest.mark.parametrize("strategy_name", ["differential"])
    def test_honest_mutations_stay_consistent(self, strategy_name):
        root, session, oracle = self._session(strategy_name)
        root.mid.leaf.value = 8
        root.kids.append(Leaf(value=3))
        session.commit()
        root.name = "after"
        root.mid = Mid(leaf=Leaf(value=0))
        session.commit()
        session.close()
        assert oracle.under() == []
