"""Unit tests for the metered abstract machine.

The machine's credibility rests on byte-identity with the production
implementations: whatever it counts, it must have *actually executed* the
same algorithm. These tests pin that down for every variant.
"""

import pytest

from repro.core.checkpoint import (
    Checkpoint,
    FullCheckpoint,
    collect_objects,
    reset_flags,
    set_all_flags,
)
from repro.core.streams import DataOutputStream
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Shape
from repro.spec.specclass import SpecClass, SpecializedCheckpointer
from repro.synthetic.structures import build_structure, element_at
from repro.vm.machine import MeteredMachine
from repro.vm.ops import OpCounts
from tests.conftest import build_root


def _snapshot(root):
    return [(o._ckpt_info, o._ckpt_info.modified) for o in collect_objects(root)]


def _restore(snapshot):
    for info, modified in snapshot:
        info.modified = modified


@pytest.fixture
def dirty_root():
    root = build_root()
    reset_flags(root)
    root.mid.leaf.value = 3
    root.kids[0].value = 4
    return root


class TestByteIdentity:
    def test_incremental_matches_driver(self, dirty_root):
        snapshot = _snapshot(dirty_root)
        machine = MeteredMachine(DataOutputStream())
        machine.run_incremental(dirty_root)
        _restore(snapshot)
        driver = Checkpoint()
        driver.checkpoint(dirty_root)
        assert machine.out.getvalue() == driver.getvalue()

    def test_full_matches_driver(self, dirty_root):
        snapshot = _snapshot(dirty_root)
        machine = MeteredMachine(DataOutputStream())
        machine.run_full(dirty_root)
        _restore(snapshot)
        driver = FullCheckpoint()
        driver.checkpoint(dirty_root)
        assert machine.out.getvalue() == driver.getvalue()

    def test_residual_matches_compiled_function(self, dirty_root):
        shape = Shape.of(dirty_root)
        fn = SpecializedCheckpointer(SpecClass(shape, name="machine_eq"))
        snapshot = _snapshot(dirty_root)
        machine = MeteredMachine(DataOutputStream())
        machine.run_residual(fn.residual_ir, dirty_root)
        _restore(snapshot)
        out = DataOutputStream()
        fn(dirty_root, out)
        assert machine.out.getvalue() == out.getvalue()

    def test_machine_resets_flags_like_driver(self, dirty_root):
        machine = MeteredMachine()
        machine.run_incremental(dirty_root)
        assert all(not o._ckpt_info.modified for o in collect_objects(dirty_root))


class TestAccounting:
    def test_residual_has_no_vcalls(self, dirty_root):
        shape = Shape.of(dirty_root)
        fn = SpecializedCheckpointer(SpecClass(shape, name="machine_counts"))
        machine = MeteredMachine()
        machine.run_residual(fn.residual_ir, dirty_root)
        assert machine.counts["vcall"] == 0
        assert machine.counts["acc"] == 0
        assert machine.counts["call"] >= 1

    def test_generic_has_no_direct_calls(self, dirty_root):
        machine = MeteredMachine()
        machine.run_incremental(dirty_root)
        assert machine.counts["call"] == 0
        assert machine.counts["vcall"] > 0
        assert machine.counts["acc"] > 0

    def test_full_counts_dominate_incremental(self):
        root = build_root()
        reset_flags(root)
        incremental = MeteredMachine()
        incremental.run_incremental(root)
        reset_flags(root)
        full = MeteredMachine()
        full.run_full(root)
        assert full.counts["write_int"] > incremental.counts["write_int"]

    def test_write_counts_match_stream_size(self, dirty_root):
        machine = MeteredMachine(DataOutputStream())
        machine.run_incremental(dirty_root)
        counts = machine.counts
        expected = (
            4 * counts["write_int"]
            + 8 * counts["write_float"]
            + 1 * counts["write_bool"]
        )
        # strings add 4 + utf8 length each; recompute exactly:
        size_without_strings = machine.out.size
        assert counts["write_str"] == 2  # name + label of the two dirty leaves? no:
        # mid.leaf and kids[0] are Leaf objects, each with one str field.
        assert size_without_strings >= expected

    def test_quiescent_pattern_reduces_ops(self):
        compound = build_structure(num_lists=3, list_length=4, ints_per_element=1)
        shape = Shape.of(compound)
        reset_flags(compound)
        element_at(compound, 0, 3).v0 = 1

        all_dynamic = SpecializedCheckpointer(SpecClass(shape, name="machine_ad"))
        restricted = SpecializedCheckpointer(
            SpecClass(
                shape,
                ModificationPattern.restricted_to_lists(shape, ["list0"]),
                name="machine_restricted",
            )
        )
        snapshot = _snapshot(compound)
        machine_a = MeteredMachine()
        machine_a.run_residual(all_dynamic.residual_ir, compound)
        _restore(snapshot)
        machine_b = MeteredMachine()
        machine_b.run_residual(restricted.residual_ir, compound)
        assert machine_b.counts.total() < machine_a.counts.total()
        assert machine_b.counts["test"] < machine_a.counts["test"]

    def test_incremental_on_clean_structure_writes_nothing(self):
        root = build_root()
        reset_flags(root)
        machine = MeteredMachine(DataOutputStream())
        machine.run_incremental(root)
        assert machine.out.size == 0
        assert machine.counts["test"] > 0  # but it still traversed and tested


class TestOpCounts:
    def test_add_and_scale(self):
        a = OpCounts({"vcall": 2, "test": 3})
        b = OpCounts({"vcall": 1})
        merged = a + b
        assert merged["vcall"] == 3
        assert merged["test"] == 3
        scaled = merged.scaled(2.0)
        assert scaled["vcall"] == 6
        a += b
        assert a["vcall"] == 3

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            OpCounts({"warp_drive": 1})

    def test_total_and_nonzero(self):
        counts = OpCounts({"test": 2, "iter": 5})
        assert counts.total() == 7
        assert counts.nonzero() == {"test": 2, "iter": 5}

    def test_sum(self):
        total = OpCounts.sum([OpCounts({"test": 1}), OpCounts({"test": 2})])
        assert total["test"] == 3

    def test_equality(self):
        assert OpCounts({"test": 1}) == OpCounts({"test": 1})
        assert OpCounts({"test": 1}) != OpCounts({"test": 2})


class TestPackedAndDifferential:
    """The block-tier driver obeys the same credo: count only what ran."""

    def _committed_tier(self, roots, **tier_kwargs):
        from repro.core.blocks import BlockTier

        tier = BlockTier(**tier_kwargs)
        tier.partition(roots)
        for block in tier.blocks:
            tier.mark_committed(block)  # as if the baseline commit ran
        return tier

    def test_differential_matches_generic_driver(self):
        roots = [build_root() for _ in range(6)]
        for root in roots:
            reset_flags(root)
        tier = self._committed_tier(roots, block_size=2)
        roots[0].mid.leaf.value = 3
        roots[5].kids[0].value = 4
        snapshots = [_snapshot(root) for root in roots]
        machine = MeteredMachine(DataOutputStream())
        machine.run_differential(tier)
        for snapshot in snapshots:
            _restore(snapshot)
        out = DataOutputStream()
        driver = Checkpoint(out)
        for root in roots:
            driver.checkpoint(root)
        assert machine.out.getvalue() == out.getvalue()

    def test_differential_clean_blocks_cost_one_test_each(self):
        roots = [build_root() for _ in range(6)]
        for root in roots:
            reset_flags(root)
        tier = self._committed_tier(roots, block_size=2)
        machine = MeteredMachine()
        machine.run_differential(tier)
        # every block is clean: one skip decision per block, no traversal
        assert machine.out.size == 0
        assert machine.counts == OpCounts({"test": len(tier.blocks)})

    def test_differential_dirty_block_pays_packed_walk_only_there(self):
        roots = [build_root() for _ in range(6)]
        for root in roots:
            reset_flags(root)
        tier = self._committed_tier(roots, block_size=2)
        roots[0].mid.leaf.value = 3
        snapshots = [_snapshot(root) for root in roots]
        machine = MeteredMachine()
        machine.run_differential(tier)
        for snapshot in snapshots:
            _restore(snapshot)
        reference = MeteredMachine()
        for root in roots[:2]:  # the dirty block's two roots
            reference.run_incremental(root)
        # the differential run = per-block tests + the dirty block's walk
        expected = reference.counts + OpCounts({"test": len(tier.blocks)})
        assert machine.counts == expected

    def test_differential_requires_partitioned_tier(self):
        from repro.core.blocks import BlockTier
        from repro.core.errors import CheckpointError

        with pytest.raises(CheckpointError):
            MeteredMachine().run_differential(BlockTier())
