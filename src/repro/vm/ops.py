"""Operation vocabulary of the abstract machine.

Every checkpointing variant decomposes into these operations; the
:class:`~repro.vm.backends.CostProfile` of a backend prices them.

=============  ==============================================================
op             meaning
=============  ==============================================================
``vcall``      dynamically dispatched method call (``checkpoint``,
               ``record``, ``fold`` in the generic system)
``call``       direct (statically bound) call — e.g. invoking one
               specialized checkpoint routine per structure
``acc``        accessor call (``getCheckpointInfo``, ``modified``,
               ``getId``, ``resetModified``) in generic code; a JIT may or
               may not inline these, which is priced per backend
``getfield``   plain field read (child pointers, scalar fields, and every
               read in specialized code, where the receiver class is known)
``test``       conditional branch
``write_int``  append a 32-bit integer to the checkpoint stream
``write_float``/``write_bool``/``write_str``
               other typed appends
``flag_reset`` clearing a modification flag
``iter``       one iteration of a residual (not unrolled) loop
=============  ==============================================================
"""

from __future__ import annotations

from typing import Dict, Iterable

OP_NAMES = (
    "vcall",
    "call",
    "acc",
    "getfield",
    "test",
    "write_int",
    "write_float",
    "write_bool",
    "write_str",
    "flag_reset",
    "iter",
)


class OpCounts:
    """A multiset of abstract operations."""

    __slots__ = ("counts",)

    def __init__(self, counts: Dict[str, int] = None) -> None:
        self.counts = {name: 0 for name in OP_NAMES}
        if counts:
            for name, value in counts.items():
                if name not in self.counts:
                    raise KeyError(f"unknown op {name!r}")
                self.counts[name] = value

    def bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def __add__(self, other: "OpCounts") -> "OpCounts":
        merged = OpCounts()
        for name in OP_NAMES:
            merged.counts[name] = self.counts[name] + other.counts[name]
        return merged

    def __iadd__(self, other: "OpCounts") -> "OpCounts":
        for name in OP_NAMES:
            self.counts[name] += other.counts[name]
        return self

    def scaled(self, factor: float) -> "OpCounts":
        scaled = OpCounts()
        for name in OP_NAMES:
            scaled.counts[name] = int(round(self.counts[name] * factor))
        return scaled

    def total(self) -> int:
        """Total number of abstract operations."""
        return sum(self.counts.values())

    def __getitem__(self, name: str) -> int:
        return self.counts[name]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OpCounts) and self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self.counts.items() if v}
        return f"OpCounts({nonzero!r})"

    def nonzero(self) -> Dict[str, int]:
        return {k: v for k, v in self.counts.items() if v}

    @staticmethod
    def sum(items: Iterable["OpCounts"]) -> "OpCounts":
        total = OpCounts()
        for item in items:
            total += item
        return total
