"""Experiment runner for the synthetic benchmark.

Builds a population of compound structures, applies a seeded modification
pattern, and runs any of the checkpointing variants against the *same*
modification state, reporting wall-clock time, checkpoint size, and
abstract-machine op counts (from which per-backend simulated times are
derived). Each variant runs as one
:class:`~repro.runtime.session.CheckpointSession` whose strategy is the
variant's checkpointing tier (:func:`variant_strategy`).

Variants
--------
``full``
    Generic full checkpointing (records everything).
``incremental``
    Generic incremental checkpointing (paper Figure 1) — the baseline all
    speedups are reported against.
``reflective``
    Incremental checkpointing through run-time schema interpretation (the
    serialization-style tier; wall-clock only).
``spec_struct``
    Specialized for the structure only (paper Figure 5 / Figure 8).
``spec_struct_mod``
    Specialized for structure *and* the experiment's declared modification
    pattern (paper Figure 6 / Figures 9-10).
``differential``
    The block dirtiness tier over the incremental flag walk: clean blocks
    are skipped without traversal. Wall clock and op counts are measured at
    *steady state* — after the partition's baseline commit — which is the
    regime the tier exists for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.blocks import BlockTier
from repro.core.checkpoint import reset_flags
from repro.core.checkpointable import Checkpointable
from repro.core.storage import FULL, INCREMENTAL
from repro.runtime import (
    DEFAULT_STRATEGIES,
    CheckpointSession,
    SpecializedStrategy,
    Strategy,
)
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Shape
from repro.spec.specclass import SpecClass, SpecializedCheckpointer
from repro.synthetic.structures import build_structures, list_field_name
from repro.synthetic.workload import (
    FlagSnapshot,
    apply_modifications,
    draw_modified_positions,
    eligible_positions,
)
from repro.vm.machine import MeteredMachine
from repro.vm.ops import OpCounts

VARIANTS = (
    "full",
    "incremental",
    "reflective",
    "spec_struct",
    "spec_struct_mod",
    "differential",
)


@dataclass
class SyntheticConfig:
    """One cell of the paper's synthetic experiment grid."""

    num_structures: int = 1000
    num_lists: int = 5
    list_length: int = 5
    ints_per_element: int = 1
    percent_modified: float = 1.0
    #: how many lists may contain modified elements (paper Figure 9)
    modified_lists: Optional[int] = None
    #: modified elements may only be the last of each list (Figure 10)
    last_only: bool = False
    seed: int = 20000501  # DSN 2000

    def __post_init__(self) -> None:
        if self.modified_lists is None:
            self.modified_lists = self.num_lists

    def describe(self) -> str:
        parts = [
            f"{self.num_structures} structures",
            f"{self.num_lists} lists x {self.list_length}",
            f"{self.ints_per_element} ints/elt",
            f"{int(self.percent_modified * 100)}% modified",
        ]
        if self.modified_lists != self.num_lists:
            parts.append(f"{self.modified_lists} modifiable lists")
        if self.last_only:
            parts.append("last element only")
        return ", ".join(parts)


@dataclass
class VariantResult:
    """Measurements of one checkpointing variant on one workload."""

    variant: str
    wall_seconds: float
    checkpoint_bytes: int
    counts: Optional[OpCounts]
    modified_objects: int
    spec_source: Optional[str] = None


class SyntheticWorkload:
    """A built population plus its frozen modification state."""

    def __init__(self, config: SyntheticConfig) -> None:
        self.config = config
        self.structures: List[Checkpointable] = build_structures(
            config.num_structures,
            config.num_lists,
            config.list_length,
            config.ints_per_element,
        )
        # The population is considered already checkpointed once: clear the
        # construction-time flags, then apply this round's modifications.
        for compound in self.structures:
            reset_flags(compound)
        self.eligible = eligible_positions(
            config.num_lists,
            config.list_length,
            config.modified_lists,
            config.last_only,
        )
        positions = draw_modified_positions(
            config.num_structures, self.eligible, config.percent_modified, config.seed
        )
        self.modified_count = apply_modifications(self.structures, positions)
        self.snapshot = FlagSnapshot(self.structures)

        self.shape: Shape = Shape.of(self.structures[0])
        self.pattern: ModificationPattern = ModificationPattern.only(
            self.shape, [self._position_path(p) for p in self.eligible]
        )

    def _position_path(self, position) -> tuple:
        list_index, element_index = position
        return (list_field_name(list_index),) + ("next",) * element_index

    def object_count(self) -> int:
        return self.snapshot.object_count()


def _specialized(workload: SyntheticWorkload, with_pattern: bool) -> SpecializedCheckpointer:
    pattern = workload.pattern if with_pattern else None
    name = "spec_struct_mod" if with_pattern else "spec_struct"
    return SpecializedCheckpointer(SpecClass(workload.shape, pattern, name=name))


def variant_strategy(
    workload: SyntheticWorkload, variant: str
) -> Strategy:
    """The session strategy implementing one benchmark variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant in ("spec_struct", "spec_struct_mod"):
        return SpecializedStrategy(
            _specialized(workload, variant == "spec_struct_mod"), name=variant
        )
    return DEFAULT_STRATEGIES.create(variant)


def run_variant(
    workload: SyntheticWorkload,
    variant: str,
    meter: bool = True,
    meter_sample: Optional[int] = 500,
) -> VariantResult:
    """Measure one variant against the workload's modification state.

    The flag snapshot is restored before each run, so calling this for
    several variants measures them on identical states. ``meter_sample``
    bounds how many structures the (slow, interpreting) abstract machine
    executes; counts are scaled back up, which is accurate because op
    counts are additive across structures and modifications are drawn
    i.i.d. per structure.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    structures = workload.structures
    strategy = variant_strategy(workload, variant)
    spec_fn: Optional[SpecializedCheckpointer] = None
    if isinstance(strategy, SpecializedStrategy):
        spec_fn = strategy.checkpointer

    # -- wall clock over the real implementation ---------------------------
    # One session per variant; commits are timed over the strategy alone,
    # so wall-clock comparisons across variants measure the checkpointers,
    # not the sink.
    workload.snapshot.restore()
    session = CheckpointSession(roots=structures, strategy=strategy)
    if variant == "differential":
        # Baseline commit: partition + full walk. The timed commit below
        # then measures the steady-state regime (clean blocks skipped).
        session.commit(kind=INCREMENTAL)
        workload.snapshot.restore()
    committed = session.commit(kind=FULL if variant == "full" else INCREMENTAL)
    wall = committed.wall_seconds
    size = committed.size

    # -- abstract machine op counts ----------------------------------------
    counts: Optional[OpCounts] = None
    if meter and variant != "reflective":
        workload.snapshot.restore()
        sample = len(structures)
        if meter_sample is not None:
            sample = min(meter_sample, sample)
        machine = MeteredMachine()
        if variant == "full":
            for root in structures[:sample]:
                machine.run_full(root)
        elif variant == "incremental":
            for root in structures[:sample]:
                machine.run_incremental(root)
        elif variant == "differential":
            sample_roots = structures[:sample]
            tier = BlockTier()
            tier.partition(sample_roots)
            for block in tier.blocks:
                tier.mark_committed(block)  # as if the baseline commit ran
            workload.snapshot.restore()  # flag writes re-bump their blocks
            machine.run_differential(tier)
        else:
            residual = spec_fn.residual_ir
            for root in structures[:sample]:
                machine.run_residual(residual, root)
        counts = machine.counts
        if sample != len(structures):
            counts = counts.scaled(len(structures) / sample)

    return VariantResult(
        variant=variant,
        wall_seconds=wall,
        checkpoint_bytes=size,
        counts=counts,
        modified_objects=workload.modified_count,
        spec_source=spec_fn.source if spec_fn is not None else None,
    )


def run_variants(
    config: SyntheticConfig,
    variants=VARIANTS,
    meter: bool = True,
    meter_sample: Optional[int] = 500,
) -> Dict[str, VariantResult]:
    """Build one workload and measure the requested variants on it."""
    workload = SyntheticWorkload(config)
    return {
        variant: run_variant(workload, variant, meter, meter_sample)
        for variant in variants
    }


def speedup(baseline: VariantResult, candidate: VariantResult, profile=None) -> float:
    """Baseline-over-candidate time ratio (wall clock or simulated)."""
    if profile is None:
        return baseline.wall_seconds / candidate.wall_seconds
    if baseline.counts is None or candidate.counts is None:
        raise ValueError("both variants need op counts for simulated speedups")
    return profile.seconds(baseline.counts) / profile.seconds(candidate.counts)
