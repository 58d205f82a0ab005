"""The epoch lineage graph: parents, branches, named pins.

PR 4 treated a store as a linear epoch *sequence*: recovery replayed the
latest full checkpoint plus the positional suffix of deltas. Time travel
(restore-to-any-epoch, speculative forks) needs the history to be an
addressable *graph* instead: every epoch names its parent, belongs to a
branch, and may carry a human-readable pin name. This module holds the
pure graph logic shared by the stores, the session, compaction, and
``fsck`` — it deliberately knows nothing about files or serialization.

Concepts
--------
parent
    The epoch this one's delta applies on top of (``None`` for a root
    epoch). A full checkpoint's parent is provenance only: recovery never
    reads past a full base.
branch
    A label shared by one line of descent. Branches exist purely as
    epoch attributes — there is no separate branch metadata file to keep
    crash-consistent.
base chain
    ``chain(e)``: the epoch's nearest full ancestor plus every delta
    from it down to ``e``, oldest first. This is what recovery replays
    to materialize ``e``.
head
    An epoch with no surviving children; the tip of a branch.
protected set
    What compaction must keep: the base chain of every head and of
    every named epoch. Everything else can never participate in a
    recovery line again.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.core.errors import StorageError

#: the default branch every un-forked epoch lives on
MAIN_BRANCH = "main"


class _AutoParent:
    """Sentinel: "chain this epoch onto the head of its branch".

    Stores resolve it at append time — essential for the asynchronous
    :class:`~repro.core.storage.BackgroundWriter`, where durable indices
    are only assigned when the drain thread gets to the epoch.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "AUTO"


AUTO = _AutoParent()

#: what an epoch restore/fork call may address: an index or a pin name
EpochRef = Union[int, str]


class Lineage:
    """A read-only view of the epoch graph of one store.

    Built from any sequence of epoch records (anything with ``index``,
    ``kind``, ``parent``, ``branch`` and ``name`` attributes — the
    stores' :class:`~repro.core.storage.Epoch` tuples, or the light
    records ``fsck`` synthesizes from classified files).
    """

    def __init__(self, epochs: Iterable) -> None:
        self._by_index = {}
        for epoch in epochs:
            self._by_index[epoch.index] = epoch
        #: memoized :meth:`intact_chain` verdicts (the view is read-only)
        self._intact: Dict[int, bool] = {}

    # -- basic lookups -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_index)

    def __contains__(self, index: int) -> bool:
        return index in self._by_index

    def indices(self) -> List[int]:
        """Every epoch index, ascending."""
        return sorted(self._by_index)

    def epoch(self, index: int):
        try:
            return self._by_index[index]
        except KeyError:
            raise StorageError(f"no epoch {index} in the store")

    def named(self) -> Dict[str, int]:
        """``{pin name: epoch index}`` over every named epoch."""
        return {
            epoch.name: epoch.index
            for epoch in self._by_index.values()
            if epoch.name is not None
        }

    def resolve(self, target: EpochRef) -> int:
        """An epoch index from an index or a pin name."""
        if isinstance(target, bool) or not isinstance(target, (int, str)):
            raise StorageError(
                f"cannot address an epoch with {target!r} (expected an "
                "epoch index or a checkpoint name)"
            )
        if isinstance(target, int):
            if target not in self._by_index:
                raise StorageError(f"no epoch {target} in the store")
            return target
        named = self.named()
        if target not in named:
            raise StorageError(f"no checkpoint named {target!r} in the store")
        return named[target]

    # -- graph structure -----------------------------------------------------

    def children(self) -> Dict[int, List[int]]:
        """``{index: child indices}`` (children sorted ascending)."""
        result: Dict[int, List[int]] = {i: [] for i in self._by_index}
        for epoch in self._by_index.values():
            parent = epoch.parent
            if parent is not None and parent in self._by_index:
                result[parent].append(epoch.index)
        for kids in result.values():
            kids.sort()
        return result

    def heads(self) -> List[int]:
        """Indices of epochs with no surviving children, ascending."""
        kids = self.children()
        return sorted(i for i, c in kids.items() if not c)

    def branches(self) -> Dict[str, int]:
        """``{branch: newest index on that branch}``.

        Within a branch appends are ordered, so the newest index *is*
        the branch tip an ``AUTO`` append chains onto.
        """
        result: Dict[str, int] = {}
        for epoch in self._by_index.values():
            current = result.get(epoch.branch)
            if current is None or epoch.index > current:
                result[epoch.branch] = epoch.index
        return result

    def newest(self) -> int:
        """The highest epoch index (the store's most recent commit)."""
        if not self._by_index:
            raise StorageError("no full checkpoint in store; cannot recover")
        return max(self._by_index)

    # -- base chains ---------------------------------------------------------

    def chain(self, target: EpochRef) -> List:
        """The base chain of ``target``: full base plus deltas, oldest first.

        Walks parents from the epoch back to its nearest full ancestor.
        Raises :class:`~repro.core.errors.StorageError` if a referenced
        ancestor is missing (a broken chain — ``fsck`` territory) or the
        walk ends on a parentless delta (no recovery base).
        """
        index = self.resolve(target)
        chain = [self._by_index[index]]
        seen: Set[int] = {index}
        while chain[0].kind != "full":
            parent = chain[0].parent
            if parent is None:
                raise StorageError(
                    "no full checkpoint in store; cannot recover"
                )
            if parent not in self._by_index:
                raise StorageError(
                    f"epoch {chain[0].index} references missing parent "
                    f"epoch {parent}; the chain is broken"
                )
            if parent in seen:
                raise StorageError(
                    f"epoch lineage cycle through epoch {parent}"
                )
            seen.add(parent)
            chain.insert(0, self._by_index[parent])
        return chain

    def chain_indices(self, target: EpochRef) -> List[int]:
        """The indices of :meth:`chain`, oldest first."""
        return [epoch.index for epoch in self.chain(target)]

    def _reachable_ancestors(self, index: int) -> Set[int]:
        """Tolerant chain walk: every ancestor up to (and including) the
        nearest full base, stopping silently at missing links."""
        result: Set[int] = set()
        current: Optional[int] = index
        while (
            current is not None
            and current in self._by_index
            and current not in result
        ):
            result.add(current)
            epoch = self._by_index[current]
            current = None if epoch.kind == "full" else epoch.parent
        return result

    # -- compaction support --------------------------------------------------

    def protected(self) -> Set[int]:
        """Indices compaction must keep.

        The base chain of every head and of every named epoch: deleting
        any of these would break a recovery line some branch tip or pin
        still needs. A full epoch ends its chain, so the parent of a
        full is *not* protected through it — that link is exactly where
        compaction may cut.
        """
        keep: Set[int] = set()
        for root in set(self.heads()) | set(self.named().values()):
            keep |= self._reachable_ancestors(root)
        return keep

    def intact_chain(self, index: int) -> bool:
        """Whether ``chain(index)`` resolves without a missing ancestor.

        A parentless delta counts as intact here (the epoch itself is
        sound — it merely has no recovery base), matching what ``fsck``
        keeps on disk; a lineage cycle materializes nothing. Every epoch
        on a walked path gets the same verdict, memoized, so asking for
        every epoch of an n-epoch graph walks each parent link once.
        """
        trail: List[int] = []
        seen: Set[int] = set()
        current = index
        while True:
            if current in self._intact:
                verdict = self._intact[current]
                break
            if current in seen or current not in self._by_index:
                verdict = False
                break
            seen.add(current)
            trail.append(current)
            epoch = self._by_index[current]
            if epoch.kind == "full" or epoch.parent is None:
                verdict = True
                break
            current = epoch.parent
        for i in trail:
            self._intact[i] = verdict
        return verdict


def resolve_parent(
    parent,
    branch: Optional[str],
    branches: Dict[str, int],
    branch_of,
    last_branch: Optional[str],
):
    """Resolve an ``append(parent=..., branch=...)`` request to concrete
    ``(parent index or None, branch name)``.

    ``AUTO`` chains onto the head of the target branch (the branch
    argument, or the branch of the newest epoch). An explicit parent
    defaults its branch to the parent's own branch; ``branch_of`` maps
    a known index to its branch and is only consulted in that case.
    """
    if parent is AUTO:
        resolved_branch = branch or last_branch or MAIN_BRANCH
        return branches.get(resolved_branch), resolved_branch
    if parent is not None:
        if branch is not None:
            return parent, branch
        return parent, branch_of(parent)
    return None, branch or MAIN_BRANCH
