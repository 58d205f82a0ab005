"""The block dirtiness tier: differential change detection over object blocks.

The paper's modification flags make checkpoint *content* incremental, but
the flag scan itself still traverses every reachable object. Following the
application-level differential checkpointing of Keller & Bautista-Gomez,
this module adds a second, coarser dirtiness tier above the flags:

- the recorded object graph is *partitioned* into blocks — contiguous runs
  of session roots plus everything first reachable from them in the
  drivers' preorder traversal order;
- every ``modified = True`` flag store bumps the owning block's
  *generation counter* and *dirty bit* (see
  :class:`~repro.core.info.CheckpointInfo` — the existing flag-write hooks
  are reused wholesale, no new instrumentation sites);
- at commit, a block whose generation still equals its committed
  generation (and whose dirty bit is clear) provably contains no flagged
  object, so the whole run is skipped without traversal; the flag walk
  runs only inside dirty blocks.

Because a block is a contiguous run of the baseline traversal, skipping a
clean block elides exactly a stretch of traversal that would have written
zero bytes: the differential commit is *byte-identical* to the flag-walk
commit (pinned by the runtime byte-equivalence suite).

Soundness depends on block membership matching the baseline traversal's
first-reach order. Structural edge writes can move objects between
blocks, so every parent/child edge mutation ticks the process-wide
:data:`~repro.core.info.TOPOLOGY_CLOCK`; a tier whose partition predates
the latest tick re-partitions before trusting any generation counter.
Scalar writes never tick the clock, keeping the mutation-heavy hot path
fully skippable.

Generation counters wrap at 2**32 (:data:`~repro.core.info.GENERATION_MASK`)
to stay metadata-representable; the dirty *bit*, which cannot wrap, makes
the clean test immune to a counter that wraps exactly back to its
committed value.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.errors import CheckpointError
from repro.core.info import TOPOLOGY_CLOCK

DEFAULT_BLOCK_SIZE = 64


class Block:
    """One contiguous run of roots plus its dirtiness metadata."""

    __slots__ = ("index", "roots", "generation", "committed_generation", "dirty")

    def __init__(self, index: int, roots: Sequence) -> None:
        self.index = index
        self.roots = list(roots)
        #: bumped (mod 2**32) by every member's ``modified = True`` store
        self.generation = 0
        #: :attr:`generation` as of the last commit that covered the block
        self.committed_generation = 0
        #: wrap-proof companion of the generation comparison
        self.dirty = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dirty" if self.dirty else "clean"
        return (
            f"Block({self.index}, roots={len(self.roots)}, "
            f"gen={self.generation}/{self.committed_generation}, {state})"
        )


class BlockTier:
    """Partition of a root population into generation-counted blocks."""

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < 1:
            raise CheckpointError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size
        self.blocks: List[Block] = []
        self._roots: Optional[List] = None
        self._topology_mark: Optional[int] = None
        #: cumulative count, exposed through strategy/bench reporting
        self.repartitions = 0

    # -- partitioning ------------------------------------------------------

    @property
    def partitioned(self) -> bool:
        return self._roots is not None

    def in_sync(self, roots: Sequence) -> bool:
        """True when the current partition is still trustworthy.

        Requires the same root objects (by identity — a restored graph
        reuses identifiers but not objects) in the same order, and no
        structural edge mutation anywhere since the partition was taken.
        """
        mine = self._roots
        if mine is None or self._topology_mark != TOPOLOGY_CLOCK.value:
            return False
        if len(mine) != len(roots):
            return False
        return all(a is b for a, b in zip(mine, roots))

    def partition(self, roots: Sequence) -> None:
        """(Re)build blocks over ``roots`` and assign membership.

        Membership is the block of an object's *first* reach in the
        drivers' preorder traversal — the position where the baseline
        flag walk would record it — so a generation bump always lands on
        a block whose walk covers the object. All blocks start dirty:
        the commit that follows a partition walks everything once to
        establish the committed baseline.
        """
        roots = list(roots)
        self.blocks = []
        seen = set()
        for index in range(0, max(len(roots), 1), self.block_size):
            run = roots[index : index + self.block_size]
            if not run and index > 0:
                break
            block = Block(len(self.blocks), run)
            self.blocks.append(block)
            for root in run:
                self._claim(root, block, seen)
        self._roots = roots
        self._topology_mark = TOPOLOGY_CLOCK.value
        self.repartitions += 1

    @staticmethod
    def _claim(root, block: Block, seen: set) -> None:
        stack = [root]
        while stack:
            obj = stack.pop()
            info = obj._ckpt_info
            if info.object_id in seen:
                continue
            seen.add(info.object_id)
            info.block = block
            stack.extend(reversed(obj.children()))

    # -- the skip decision -------------------------------------------------

    def is_clean(self, block: Block) -> bool:
        """True when no member's flag was raised since the last commit."""
        return (
            not block.dirty
            and block.generation == block.committed_generation
        )

    def mark_committed(self, block: Block) -> None:
        """Adopt the block's current generation as the committed baseline."""
        block.committed_generation = block.generation
        block.dirty = False

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Forget the partition; the next commit re-partitions, all dirty."""
        self.blocks = []
        self._roots = None
        self._topology_mark = None

    def snapshot_state(self):
        """Capture all tier state a trial commit could disturb.

        :meth:`~repro.runtime.session.CheckpointSession.measure` runs a
        live strategy and must leave no trace; pair with
        :meth:`restore_state`. The block list itself is part of the
        state: a trial commit that re-partitioned replaced it.
        """
        return self.blocks, [
            (block.generation, block.committed_generation, block.dirty)
            for block in self.blocks
        ]

    def restore_state(self, state) -> None:
        blocks, counters = state
        if self.blocks is not blocks:
            # The trial re-partitioned: the saved counters describe blocks
            # that no longer exist, and copying them onto the new ones by
            # index could mark blocks holding flagged objects clean.
            # Forget the partition instead; the next commit re-partitions
            # with every block dirty.
            self.reset()
            return
        for block, saved in zip(blocks, counters):
            block.generation, block.committed_generation, block.dirty = saved
