"""One experiment per table and figure of the paper's evaluation.

Defaults are sized so that ``python -m repro.bench all`` completes in a
couple of minutes; set ``paper_scale=True`` (CLI ``--paper-scale``) to run
the synthetic experiments at the paper's 20,000 structures. Speedups are
unaffected by the population size (op counts are additive across
structures), which the scaling tests verify.

Every experiment reports, per configuration:

- the *simulated* speedup on the paper's execution environment for that
  figure (Harissa for Figures 7-10, the Sun VMs for Figure 11/Table 2),
  computed from exact op counts of the metered abstract machine, and
- the *CPython wall-clock* speedup of the real implementations, as an
  independent measurement on a present-day runtime.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.engine import AnalysisEngine
from repro.analysis.programs import (
    image_division,
    image_pipeline_source,
    paper_scale_source,
)
from repro.bench.reporting import ExperimentResult, megabytes
from repro.synthetic.runner import (
    SyntheticConfig,
    SyntheticWorkload,
    VariantResult,
    run_variant,
    speedup,
)
from repro.vm.backends import EPOCH_SCALE, HARISSA, HOTSPOT, JDK12_JIT, CostProfile
from repro.vm.ops import OpCounts

DEFAULT_STRUCTURES = 2000
PAPER_STRUCTURES = 20000
METER_SAMPLE = 300

PERCENTS = (1.0, 0.5, 0.25)


def _population(paper_scale: bool, structures: Optional[int]) -> int:
    if structures is not None:
        return structures
    return PAPER_STRUCTURES if paper_scale else DEFAULT_STRUCTURES


def _measure(
    config: SyntheticConfig, variants: Iterable[str]
) -> Dict[str, VariantResult]:
    workload = SyntheticWorkload(config)
    return {
        variant: run_variant(workload, variant, meter=True, meter_sample=METER_SAMPLE)
        for variant in variants
    }


def _percent_label(percent: float) -> str:
    return f"{int(percent * 100)}%"


# ---------------------------------------------------------------------------
# Table 1 — the program analysis engine
# ---------------------------------------------------------------------------


def table1(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Checkpoint size and time for the BTA and ETA phases (paper Table 1).

    Full vs incremental vs specialized incremental checkpointing of the
    program analysis engine over the generated ~750-line image program;
    sizes of the smallest/largest per-iteration checkpoint and total
    checkpoint/traversal times per phase. ``kernels`` overrides the
    analyzed program's size (default: the paper-scale 11-kernel pipeline;
    CI smoke runs use a reduced pipeline).
    """
    source = paper_scale_source() if kernels is None else image_pipeline_source(
        kernels=kernels
    )
    result = ExperimentResult(
        "Table 1",
        "Checkpoint size (Mb) and execution time (s), program analysis engine",
        (
            "phase",
            "strategy",
            "min ckp (Mb)",
            "max ckp (Mb)",
            "ckp time (s)",
            "traversal (s)",
            "sim JDK1.2 (s)",
            "speedup",
            "sim speedup",
        ),
    )
    from repro.obs.metrics import MetricsRegistry

    reports = {}
    metered = {}
    for strategy in ("full", "incremental", "specialized"):
        registry = MetricsRegistry()
        engine = AnalysisEngine(
            source,
            division=image_division(),
            strategy=strategy,
            measure_traversal=True,
            metrics=registry,
        )
        reports[strategy] = engine.run()
        result.metrics[strategy] = registry.snapshot()
        meter_engine = AnalysisEngine(
            source, division=image_division(), strategy=strategy, meter=True
        )
        metered[strategy] = meter_engine.run()

    def simulated_seconds(strategy, phase):
        counts = OpCounts.sum(
            r.counts for r in metered[strategy].phase_records(phase)
        )
        return JDK12_JIT.seconds(counts) * EPOCH_SCALE

    baseline_times = {}
    baseline_sim = {}
    for phase in ("BTA", "ETA"):
        for strategy in ("full", "incremental", "specialized"):
            report = reports[strategy]
            low, high = report.min_max_bytes(phase)
            total = report.total_checkpoint_seconds(phase)
            traversal = sum(
                r.traversal_seconds for r in report.phase_records(phase)
            )
            simulated = simulated_seconds(strategy, phase)
            if strategy == "incremental":
                baseline_times[phase] = total
                baseline_sim[phase] = simulated
            is_specialized = strategy == "specialized"
            gain = baseline_times[phase] / total if is_specialized and total else None
            sim_gain = (
                baseline_sim[phase] / simulated if is_specialized and simulated else None
            )
            result.add_row(
                phase,
                strategy,
                megabytes(low),
                megabytes(high),
                total,
                traversal,
                simulated,
                f"{gain:.2f}" if gain else "-",
                f"{sim_gain:.2f}" if sim_gain else "-",
            )
    report = reports["incremental"]
    result.add_note(
        f"analyzed program: {source.count(chr(10)) + 1} lines; "
        f"iterations: {report.phase_iterations}"
    )
    result.add_note(
        "speedup = incremental ckp time / specialized ckp time per phase "
        "(paper: 1.8x BTA, 1.5x ETA; traversal 1.8x / 2x+)"
    )
    result.add_note(
        "ckp/traversal times are CPython wall clock; sim JDK1.2 is the "
        "calibrated abstract-machine time on the paper's platform"
    )
    return result


# ---------------------------------------------------------------------------
# Figures 7-10 — synthetic benchmark on Harissa
# ---------------------------------------------------------------------------


def _speedup_rows(
    result: ExperimentResult,
    configs: Iterable[Tuple[str, SyntheticConfig]],
    base: str,
    cand: str,
    profile: CostProfile,
) -> None:
    for label, config in configs:
        measured = _measure(config, (base, cand))
        result.add_row(
            label,
            speedup(measured[base], measured[cand], profile),
            speedup(measured[base], measured[cand]),
            megabytes(measured[base].checkpoint_bytes),
            megabytes(measured[cand].checkpoint_bytes),
        )


_SPEEDUP_HEADERS = (
    "configuration",
    "sim speedup",
    "wall speedup",
    "base ckp (Mb)",
    "cand ckp (Mb)",
)


def fig7(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Incremental vs full checkpointing (paper Figure 7, Harissa)."""
    count = _population(paper_scale, structures)
    result = ExperimentResult(
        "Figure 7",
        f"Speedup of incremental over full checkpointing ({count} structures, Harissa)",
        _SPEEDUP_HEADERS,
    )
    configs = []
    for ints in (1, 10):
        for length in (1, 5):
            for percent in PERCENTS:
                label = (
                    f"{ints} int/elt, len {length}, {_percent_label(percent)} modified"
                )
                configs.append(
                    (label, SyntheticConfig(count, 5, length, ints, percent))
                )
    _speedup_rows(result, configs, "full", "incremental", HARISSA)
    result.add_note(
        "paper: ~1 at 100% modified, rising to >3 at 25% with 10 ints/object"
    )
    return result


def fig8(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Specialization w.r.t. the object structure (paper Figure 8, Harissa)."""
    count = _population(paper_scale, structures)
    result = ExperimentResult(
        "Figure 8",
        f"Speedup of structure-specialized over incremental ({count} structures, Harissa)",
        _SPEEDUP_HEADERS,
    )
    configs = []
    for ints in (1, 10):
        for length in (1, 5):
            for percent in PERCENTS:
                label = (
                    f"{ints} int/elt, len {length}, {_percent_label(percent)} modified"
                )
                configs.append(
                    (label, SyntheticConfig(count, 5, length, ints, percent))
                )
    _speedup_rows(result, configs, "incremental", "spec_struct", HARISSA)
    result.add_note("paper: 1.5 (100%, 10 ints) up to ~3.5 (len 5, few modified, 1 int)")
    return result


def fig9(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Specialization w.r.t. structure + the set of lists that may contain
    modified elements (paper Figure 9, Harissa, lists of length 5)."""
    count = _population(paper_scale, structures)
    result = ExperimentResult(
        "Figure 9",
        f"Struct+mod-pattern speedup, restricted lists ({count} structures, Harissa)",
        _SPEEDUP_HEADERS,
    )
    configs = []
    for ints in (1, 10):
        for lists in (1, 3, 5):
            for percent in PERCENTS:
                label = (
                    f"{ints} int/elt, {lists} modifiable lists, "
                    f"{_percent_label(percent)} modified"
                )
                configs.append(
                    (
                        label,
                        SyntheticConfig(
                            count, 5, 5, ints, percent, modified_lists=lists
                        ),
                    )
                )
    _speedup_rows(result, configs, "incremental", "spec_struct_mod", HARISSA)
    result.add_note("paper: 2 to 9 with 1 int recorded; reduced by up to half with 10")
    return result


def fig10(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Specialization w.r.t. structure + last-element-only positions
    (paper Figure 10, Harissa)."""
    count = _population(paper_scale, structures)
    result = ExperimentResult(
        "Figure 10",
        f"Struct+position speedup, last element only ({count} structures, Harissa)",
        _SPEEDUP_HEADERS,
    )
    configs = []
    for ints in (1, 10):
        for length in (1, 5):
            for lists in (1, 3, 5):
                for percent in PERCENTS:
                    label = (
                        f"{ints} int/elt, len {length}, {lists} lists, "
                        f"{_percent_label(percent)} modified"
                    )
                    configs.append(
                        (
                            label,
                            SyntheticConfig(
                                count,
                                5,
                                length,
                                ints,
                                percent,
                                modified_lists=lists,
                                last_only=True,
                            ),
                        )
                    )
    _speedup_rows(result, configs, "incremental", "spec_struct_mod", HARISSA)
    result.add_note("paper: 5 to 15 with 1 int recorded, 2 to 11 with 10 (length 5)")
    return result


def fig11(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """The Figure 10 experiment on the Sun VMs (paper Figure 11a/11b)."""
    count = _population(paper_scale, structures)
    result = ExperimentResult(
        "Figure 11",
        f"Struct+position speedup on JDK 1.2 and HotSpot ({count} structures, len 5)",
        (
            "configuration",
            "JDK 1.2 JIT",
            "JDK 1.2 + HotSpot",
            "Harissa (ref)",
            "wall speedup",
        ),
    )
    for ints in (1, 10):
        for lists in (1, 3, 5):
            for percent in PERCENTS:
                config = SyntheticConfig(
                    count, 5, 5, ints, percent, modified_lists=lists, last_only=True
                )
                measured = _measure(config, ("incremental", "spec_struct_mod"))
                base, cand = measured["incremental"], measured["spec_struct_mod"]
                result.add_row(
                    f"{ints} int/elt, {lists} lists, {_percent_label(percent)}",
                    speedup(base, cand, JDK12_JIT),
                    speedup(base, cand, HOTSPOT),
                    speedup(base, cand, HARISSA),
                    speedup(base, cand),
                )
    result.add_note("paper: up to ~6 on JDK 1.2 (a), up to ~12 with HotSpot (b)")
    return result


def table2(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Absolute checkpoint times, unspecialized vs specialized, per VM
    (paper Table 2: 10 integers per element, last-element positions)."""
    count = _population(paper_scale, structures)
    scale = (PAPER_STRUCTURES / count) * EPOCH_SCALE
    result = ExperimentResult(
        "Table 2",
        "Checkpoint execution time (s), scaled to the paper's epoch "
        f"(20000 structures equivalent; measured on {count})",
        ("VM", "code", "lists", "100%", "50%", "25%"),
    )
    for profile in (JDK12_JIT, HOTSPOT, HARISSA):
        for code, variant in (("unspecialized", "incremental"), ("specialized", "spec_struct_mod")):
            for lists in (1, 5):
                times = []
                for percent in PERCENTS:
                    config = SyntheticConfig(
                        count, 5, 5, 10, percent, modified_lists=lists, last_only=True
                    )
                    measured = _measure(config, (variant,))[variant]
                    times.append(profile.seconds(measured.counts) * scale)
                result.add_row(profile.name, code, lists, *times)
    result.add_note(
        "simulated seconds = op counts x calibrated per-op cost x epoch scale "
        f"({EPOCH_SCALE:g}, mapping to the paper's 300 MHz UltraSPARC)"
    )
    result.add_note(
        "paper magnitudes: JDK 1.2 ~8-11 s, HotSpot ~1-3 s, Harissa ~2-4 s "
        "unspecialized at 100%"
    )
    return result


# ---------------------------------------------------------------------------
# Phase inference — declared vs statically-inferred specialization
# ---------------------------------------------------------------------------


def _hot_mutate(root) -> None:
    """The benchmark driver's first phase: rewrite the whole list0 chain."""
    node = root.list0
    while node is not None:
        node.v0 = node.v0 + 1
        node = node.next


def _tail_mutate(root) -> None:
    """The second phase: touch only the head element of list1."""
    root.list1.v0 = root.list1.v0 + 1


def _phase_inference_driver(root, session) -> None:
    """The driver the whole-program analysis reads its phases from."""
    session.base(roots=[root])
    node = root.list0
    while node is not None:
        node.v0 = node.v0 + 1
        node = node.next
    session.commit(phase="hot", roots=[root])
    root.list1.v0 = root.list1.v0 + 1
    session.commit(phase="tail", roots=[root])


def phase_inference(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Declared vs inferred specialization: bytes, setup time, skipped work.

    The driver above commits two labeled phases; whole-program inference
    derives their patterns from the program text alone, and each phase is
    checkpointed three ways on identical modification states — the
    generic incremental driver, a hand-declared specialization, and the
    inferred unguarded specialization. The inferred tier must be
    byte-identical to the generic driver while skipping the traversal of
    every quiescent subtree.
    """
    import time

    from repro.core.checkpoint import reset_flags
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime import CheckpointSession, InferredStrategy, SpecializedStrategy
    from repro.spec.effects.wholeprogram import infer_phases
    from repro.spec.modpattern import ModificationPattern
    from repro.spec.shape import Shape
    from repro.spec.specclass import SpecClass, SpecCompiler
    from repro.synthetic.structures import build_structures
    from repro.synthetic.workload import FlagSnapshot

    count = _population(paper_scale, structures)
    population = build_structures(count, 3, 4, 1)
    for compound in population:
        reset_flags(compound)
    shape = Shape.of(population[0])

    start = time.perf_counter()
    program = infer_phases(shape, _phase_inference_driver, roots=["root"])
    infer_seconds = time.perf_counter() - start
    bindable = program.bindable()

    declared_patterns = {
        "hot": ModificationPattern.subtrees(shape, [("list0",)]),
        "tail": ModificationPattern.only(shape, [("list1",)]),
    }
    mutators = {"hot": _hot_mutate, "tail": _tail_mutate}

    result = ExperimentResult(
        "Phase inference",
        f"Declared vs inferred specialization ({count} structures, "
        "3 lists x 4)",
        (
            "phase",
            "variant",
            "ckp bytes",
            "setup (s)",
            "skipped subtrees",
            "matches incremental",
        ),
    )

    for label in ("hot", "tail"):
        mutate = mutators[label]
        for compound in population:
            mutate(compound)
        snapshot = FlagSnapshot(population)

        start = time.perf_counter()
        declared_strategy = SpecializedStrategy.from_spec(
            SpecClass(
                shape, declared_patterns[label], name=f"declared_{label}"
            ),
            compiler=SpecCompiler(),
        )
        declared_seconds = time.perf_counter() - start

        start = time.perf_counter()
        inferred_strategy = InferredStrategy.from_inferred(
            bindable[label], compiler=SpecCompiler()
        )
        inferred_seconds = infer_seconds + (time.perf_counter() - start)

        variants = (
            ("incremental", "incremental", 0.0, None),
            ("declared", declared_strategy, declared_seconds,
             declared_patterns[label]),
            ("inferred", inferred_strategy, inferred_seconds,
             bindable[label].pattern),
        )
        baseline = None
        for name, strategy, setup, pattern in variants:
            snapshot.restore()
            registry = MetricsRegistry()
            session = CheckpointSession(
                roots=population, strategy=strategy, metrics=registry
            )
            committed = session.commit(phase=label)
            result.metrics[f"{label}/{name}"] = registry.snapshot()
            if baseline is None:
                baseline = committed.data
            skipped = len(pattern.skipped_subtrees()) if pattern else 0
            result.add_row(
                label,
                name,
                committed.size,
                round(setup, 4),
                skipped,
                committed.data == baseline,
            )
        snapshot.restore()
        session = CheckpointSession(roots=population)
        session.commit(phase=label)  # clear flags for the next phase

    result.add_note(
        f"pattern inference over the driver took {infer_seconds:.4f}s "
        f"({len(program.commit_sites)} commit sites, "
        f"{len(bindable)} bindable phases); setup = inference + compile"
    )
    result.add_note(
        "the inferred tier is compiled unguarded: the analysis proves the "
        "pattern sound, so no run-time pattern checks are emitted"
    )
    return result


# ---------------------------------------------------------------------------
# Fault recovery — robustness cost of the durable-storage path
# ---------------------------------------------------------------------------


def fault_recovery(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Crash-recovery soundness and the cost of repairing a damaged store.

    Two measurements the paper's evaluation leaves implicit:

    - the seeded crash-simulation matrix (every injected crash point must
      recover byte-identically to a fault-free run), grouped per write
      path, and
    - wall-clock cost of ``recover()``, ``fsck`` scan, and ``fsck``
      repair on a file store whose epoch count scales with the synthetic
      population.
    """
    import os
    import shutil
    import tempfile
    import time

    from repro.faults.crashsim import PATHS, CrashSim, build_matrix
    from repro.fsck.manager import RecoveryManager
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import MemoryExporter, Tracer

    count = _population(paper_scale, structures)
    workdir = tempfile.mkdtemp(prefix="bench-fault-recovery-")
    try:
        exporter = MemoryExporter()
        tracer = Tracer([exporter])
        start = time.perf_counter()
        results = CrashSim(workdir, tracer=tracer).run_matrix(build_matrix())
        matrix_seconds = time.perf_counter() - start

        result = ExperimentResult(
            "Fault recovery",
            "Crash-simulation matrix and store repair cost "
            f"({len(results)} scenarios; store of {max(50, count // 10)} "
            "epochs)",
            ("measurement", "runs", "ok", "crashed", "wall (s)"),
        )
        for path in PATHS:
            grouped = [r for r in results if r.path == path]
            result.add_row(
                f"crashsim [{path} path]",
                len(grouped),
                sum(1 for r in grouped if r.ok),
                sum(1 for r in grouped if r.crashed),
                "-",
            )
        result.add_row(
            "crashsim [all]",
            len(results),
            sum(1 for r in results if r.ok),
            sum(1 for r in results if r.crashed),
            round(matrix_seconds, 3),
        )

        # Repair cost on a store big enough for the numbers to mean
        # something; the population size scales the epoch count.
        from repro.core.storage import FileStore
        from repro.runtime.session import CheckpointSession
        from repro.synthetic.structures import build_structures, element_at

        epoch_count = max(50, count // 10)
        store_dir = os.path.join(workdir, "repair-cost")
        roots = build_structures(3, 2, 3, 1)
        registry = MetricsRegistry()
        session = CheckpointSession(
            roots=roots, sink=store_dir, metrics=registry
        )
        session.base()
        for step in range(1, epoch_count):
            element_at(roots[step % 3], step % 2, step % 3).v0 = step
            session.commit()
        result.metrics["repair-cost-session"] = registry.snapshot()
        result.metrics["crashsim-events"] = {
            etype: len(exporter.of_type(etype))
            for etype in ("crashsim.scenario.end", "fsck.repair", "fsck.scan")
        }

        store = FileStore(store_dir)
        start = time.perf_counter()
        store.recover()
        result.add_row(
            "recover() over the full chain", 1, 1, 0,
            round(time.perf_counter() - start, 4),
        )

        start = time.perf_counter()
        scan = RecoveryManager(store_dir).scan()
        result.add_row(
            "fsck scan (clean store)", len(scan.files), int(scan.consistent),
            0, round(time.perf_counter() - start, 4),
        )

        damaged_dir = os.path.join(workdir, "repair-cost-damaged")
        shutil.copytree(store_dir, damaged_dir)
        torn = os.path.join(damaged_dir, f"epoch-{epoch_count - 1:06d}.ckpt")
        with open(torn, "rb+") as handle:
            handle.truncate(9)
        start = time.perf_counter()
        repaired = RecoveryManager(damaged_dir).repair()
        result.add_row(
            "fsck repair (torn tail)", len(repaired.files),
            int(repaired.consistent), 0,
            round(time.perf_counter() - start, 4),
        )

        failures = [r.name for r in results if not r.ok]
        if failures:
            result.add_note(f"FAILED scenarios: {', '.join(failures)}")
        else:
            result.add_note(
                "every scenario recovered byte-identically to the "
                "fault-free reference and fsck reported the repaired "
                "store consistent"
            )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Time travel — restore latency vs delta-chain depth
# ---------------------------------------------------------------------------


def time_travel(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Cost of materializing history: restore latency against chain depth.

    The lineage graph makes every epoch addressable, but restoring one
    replays its whole base chain; this experiment measures that replay
    cost as the chain deepens, then shows the two levers that bound it:
    compaction (folds the chain into a fresh base) and a full-epoch
    cadence (caps every chain at the policy's interval).
    """
    import os
    import shutil
    import tempfile
    import time

    from repro.core.restore import state_digest
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.session import CheckpointSession
    from repro.synthetic.structures import build_structures, element_at

    count = _population(paper_scale, structures)
    compounds = max(4, count // 250)
    depths = (1, 4, 16, 64)
    max_depth = max(depths)
    workdir = tempfile.mkdtemp(prefix="bench-time-travel-")

    def best_restore(session, target, repeats=3):
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            session.restore(target)
            walls.append(time.perf_counter() - start)
        return min(walls)

    try:
        registry = MetricsRegistry()
        roots = build_structures(compounds, 2, 3, 1)
        session = CheckpointSession(
            roots=roots,
            sink=os.path.join(workdir, "deep"),
            metrics=registry,
        )
        result = ExperimentResult(
            "Time travel",
            "Restore latency vs delta-chain depth "
            f"({compounds} compound structures per epoch)",
            ("operation", "chain depth", "epochs replayed", "wall (s)"),
        )
        session.base()
        digests = {0: state_digest(roots[0])}
        for step in range(1, max_depth + 1):
            element_at(roots[step % compounds], step % 2, step % 3).v0 = step
            session.commit()
            digests[step] = state_digest(roots[0])

        for depth in depths:
            wall = best_restore(session, depth)
            identical = state_digest(session.roots()[0]) == digests[depth]
            result.add_row(
                "restore(epoch)" if identical else "restore(epoch) MISMATCH",
                depth,
                depth + 1,
                round(wall, 4),
            )

        # Lever 1: compaction folds the chain into a fresh full base.
        session.restore(max_depth)
        session.commit()  # anchor the restored chain so compact() may run
        new_base = session.compact()
        wall = best_restore(session, new_base)
        result.add_row("restore(compacted base)", 0, 1, round(wall, 4))

        # Lever 2: a periodic-full cadence caps every chain's depth.
        from repro.runtime.policy import EpochPolicy

        capped_roots = build_structures(compounds, 2, 3, 1)
        capped = CheckpointSession(
            roots=capped_roots,
            sink=os.path.join(workdir, "capped"),
            policy=EpochPolicy.periodic_full(8),
        )
        capped.base()
        for step in range(1, max_depth + 1):
            element_at(
                capped_roots[step % compounds], step % 2, step % 3
            ).v0 = step
            capped.commit()
        # max_depth itself lands on a full; the epoch before it sits at
        # the deepest point of its 8-epoch chain
        capped_target = max_depth - 1
        wall = best_restore(capped, capped_target)
        line = capped.sink.store.recovery_line(capped_target)
        result.add_row(
            "restore(deep, periodic_full(8))",
            capped_target,
            len(line),
            round(wall, 4),
        )

        # Branch bookkeeping cost: named pin and fork are O(1) appends.
        start = time.perf_counter()
        session.checkpoint("pin")
        pin_wall = time.perf_counter() - start
        result.add_row("checkpoint(name)", "-", 0, round(pin_wall, 4))
        start = time.perf_counter()
        session.fork(at="pin", branch="bench-fork")
        fork_wall = time.perf_counter() - start
        result.add_row("fork(at=pin)", 1, 2, round(fork_wall, 4))

        result.metrics["session"] = registry.snapshot()
        result.add_note(
            "every timed restore was verified byte-identical "
            "(state_digest) against the live state recorded at commit "
            "time; compaction and a full-epoch cadence both flatten the "
            "replay cost back to O(1) epochs"
        )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Replication — quorum writes, scrubbing, and failover overhead
# ---------------------------------------------------------------------------


def replication(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Cost of replicated durability on the commit and repair paths.

    Measures, against a single-store baseline on the same workload:

    - commit wall-clock through a 3-replica quorum-2 store, a
      strict all-ack (quorum=3) store, and a 5-replica quorum-3 store
      (fan-out plus the end-to-end sha256 framing);
    - degraded commits: one replica dead, the breaker fencing it, the
      quorum absorbing the loss;
    - scrub cost, clean and with seeded divergence to detect and
      repair;
    - quorum recovery (checksum-verified majority read) vs single-store
      recovery.
    """
    import os
    import shutil
    import tempfile
    import time

    from repro.core.replica import ReplicatedStore, Scrubber
    from repro.core.storage import FileStore
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import MemoryExporter, Tracer
    from repro.runtime.session import CheckpointSession
    from repro.runtime.sink import StoreSink
    from repro.synthetic.structures import build_structures, element_at

    count = _population(paper_scale, structures)
    epoch_count = max(40, count // 25)
    workdir = tempfile.mkdtemp(prefix="bench-replication-")
    try:
        result = ExperimentResult(
            "Replication",
            "Quorum-replicated checkpoint storage: commit overhead, "
            f"scrub and failover cost ({epoch_count} epochs/run)",
            ("configuration", "epochs", "acked", "degraded", "wall (s)"),
        )

        def run_commits(sink_store, label):
            roots = build_structures(3, 2, 3, 1)
            session = CheckpointSession(roots=roots, sink=StoreSink(sink_store))
            start = time.perf_counter()
            session.base()
            for step in range(1, epoch_count):
                element_at(roots[step % 3], step % 2, step % 3).v0 = step
                session.commit()
            session.flush()
            wall = time.perf_counter() - start
            receipt = session.history[-1].receipt
            result.add_row(
                label,
                epoch_count,
                len(receipt.replicas_acked or []) or "-",
                len(receipt.degraded_replicas or []),
                round(wall, 4),
            )
            return wall

        def replica_dirs(tag, n):
            return [
                os.path.join(workdir, f"{tag}-r{i}") for i in range(n)
            ]

        baseline = run_commits(
            FileStore(os.path.join(workdir, "single")), "single FileStore"
        )

        exporter = MemoryExporter()
        tracer = Tracer([exporter])
        metrics = MetricsRegistry()
        quorum_dirs = replica_dirs("q2", 3)
        quorum_store = ReplicatedStore([FileStore(d) for d in quorum_dirs])
        quorum_store.instrument(tracer, metrics)
        replicated = run_commits(quorum_store, "3 replicas, quorum 2")

        allack = ReplicatedStore(
            [FileStore(d) for d in replica_dirs("q3", 3)], quorum=3
        )
        run_commits(allack, "3 replicas, quorum 3 (all-ack)")

        wide = ReplicatedStore(
            [FileStore(d) for d in replica_dirs("w5", 5)]
        )
        run_commits(wide, "5 replicas, quorum 3")

        # Failover: one volume dies mid-run; the breaker fences it and
        # the quorum keeps every commit alive.
        from repro.faults.inject import ReplicaFaultStore
        from repro.faults.plan import KILL_REPLICA, FaultPlan, FaultSpec

        kill_plan = FaultPlan.single(
            FaultSpec(epoch_count // 2, KILL_REPLICA, replica=2)
        )
        failover = ReplicatedStore(
            [
                ReplicaFaultStore(FileStore(d), kill_plan, i)
                for i, d in enumerate(replica_dirs("kill", 3))
            ],
            fence_after=2,
        )
        run_commits(failover, "3 replicas, one dies mid-run")

        # Scrub: clean sweep, then a sweep over seeded divergence.
        scrubber = Scrubber(quorum_store)
        start = time.perf_counter()
        clean = scrubber.run_once()
        clean_wall = time.perf_counter() - start
        result.add_row(
            "scrub (clean)", clean.epochs_checked, "-",
            len(clean.repaired), round(clean_wall, 4),
        )

        victim = FileStore(quorum_dirs[1])
        for index in range(0, epoch_count, max(1, epoch_count // 8)):
            epoch = victim.epoch_map()[index]
            payload = bytearray(epoch.data)
            payload[len(payload) // 2] ^= 0xFF
            victim.put_epoch(epoch._replace(data=bytes(payload)), overwrite=True)
        start = time.perf_counter()
        dirty = quorum_store.scrub()
        dirty_wall = time.perf_counter() - start
        result.add_row(
            "scrub (seeded divergence)", dirty.epochs_checked, "-",
            len(dirty.repaired), round(dirty_wall, 4),
        )

        # Recovery: quorum read (checksum-verified majority) vs single.
        single_store = FileStore(os.path.join(workdir, "single"))
        start = time.perf_counter()
        single_store.recover()
        single_recover = time.perf_counter() - start
        result.add_row(
            "recover() single store", epoch_count, "-", 0,
            round(single_recover, 4),
        )
        start = time.perf_counter()
        quorum_store.recover()
        quorum_recover = time.perf_counter() - start
        result.add_row(
            "recover() quorum read", epoch_count, "-", 0,
            round(quorum_recover, 4),
        )

        result.metrics["replication"] = metrics.snapshot()
        result.metrics["events"] = {
            etype: len(exporter.of_type(etype))
            for etype in ("replica.append", "replica.state", "scrub.repair")
        }
        overhead = replicated / baseline if baseline > 0 else float("nan")
        result.add_note(
            f"3-way quorum-2 commit overhead vs single store: "
            f"{overhead:.2f}x wall-clock; scrub repaired "
            f"{len(dirty.repaired)} seeded divergence(s), quarantining "
            "every replaced record"
        )
        if not dirty.healed or len(dirty.repaired) == 0:
            result.add_note("FAILED: seeded divergence was not healed")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Differential — block-skip commit path on a million-object population
# ---------------------------------------------------------------------------


def differential(
    paper_scale: bool = False,
    structures: Optional[int] = None,
    kernels: Optional[int] = None,
) -> ExperimentResult:
    """Commit-path cost of the block dirtiness tier at low modification density.

    A ~million-object population (default 10,000 compound structures of
    101 objects each) is mutated at ~1% object density and committed
    through two tiers on identical modification states:

    - ``incremental``: the paper's full flag walk (the baseline),
    - ``differential``: the block tier skipping clean blocks without
      traversal, running the same flag walk inside dirty blocks.

    Every epoch the differential tier produces is asserted byte-identical
    to the baseline's. A *scattered* honesty row (same density, one
    touched object per structure) dirties every block and bounds the
    claim. Each (tier, workload) session records into its own
    :class:`~repro.obs.metrics.MetricsRegistry`, embedded in the report.
    """
    from repro.core.blocks import BlockTier
    from repro.core.checkpoint import reset_flags
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime import CheckpointSession
    from repro.runtime.strategy import DEFAULT_STRATEGIES
    from repro.synthetic.structures import build_structures, list_field_name
    from repro.vm.machine import MeteredMachine

    count = structures if structures is not None else (
        PAPER_STRUCTURES if paper_scale else 10000
    )
    num_lists, list_length, ints = 5, 20, 1
    objects_per = 1 + num_lists * list_length
    total_objects = count * objects_per
    cluster = max(1, count // 100)  # structures fully rewritten per trial
    trials = 3

    roots = build_structures(count, num_lists, list_length, ints)
    for compound in roots:
        reset_flags(compound)

    def touch(compound, value: int) -> None:
        for list_index in range(num_lists):
            node = getattr(compound, list_field_name(list_index))
            while node is not None:
                node.v0 = value
                node = node.next

    def clustered(trial: int) -> None:
        # ~1% of the population's objects, contiguous in root order: the
        # dirtied structures share a few blocks. Values depend only on the
        # trial index, so every tier sees (and writes) identical state.
        start = (trial * cluster) % count
        for compound in roots[start : start + cluster]:
            touch(compound, trial * 7 + 3)

    def scattered(trial: int) -> None:
        # The same number of touched objects, one per structure: every
        # block contains a flagged object.
        field = list_field_name(trial % num_lists)
        for compound in roots:
            getattr(compound, field).v0 = trial * 7 + 3

    def run_tier(name: str, workload: str, mutate):
        strategy = DEFAULT_STRATEGIES.create(name)
        registry = MetricsRegistry()
        session = CheckpointSession(
            roots=roots, strategy=strategy, metrics=registry
        )
        session.commit()  # baseline: partitions the tier, clears flags
        walls, datas = [], []
        for trial in range(trials):
            mutate(trial)
            committed = session.commit()
            walls.append(committed.wall_seconds)
            datas.append(committed.data)
        result.metrics[f"{name}/{workload}"] = registry.snapshot()
        return min(walls), datas, strategy

    result = ExperimentResult(
        "differential",
        "Block-skip differential commit path "
        f"({count} structures, {total_objects} objects, ~1% density)",
        (
            "variant",
            "workload",
            "commit (s)",
            "speedup",
            "epoch (Mb)",
            "blocks walked/skipped",
            "byte-identical",
        ),
    )

    speedups = {}
    # clustered: the regime the tier exists for; scattered: the honesty
    # row, same density with every block dirty
    workloads = (("clustered 1%", clustered), ("scattered 1%", scattered))
    for workload, mutate in workloads:
        base_wall, base_datas, _ = run_tier("incremental", workload, mutate)
        result.add_row(
            "incremental",
            workload,
            round(base_wall, 4),
            1.0,
            megabytes(len(base_datas[-1])),
            "-",
            "(reference)",
        )
        wall, datas, strategy = run_tier("differential", workload, mutate)
        stats = strategy.last_stats
        speedups[workload] = base_wall / wall
        result.add_row(
            "differential",
            workload,
            round(wall, 4),
            round(speedups[workload], 2),
            megabytes(len(datas[-1])),
            f"{stats['walked']}/{stats['skipped']}",
            "yes" if datas == base_datas else "NO",
        )

    # -- simulated op-count speedup (abstract machine, Harissa) ------------
    sample = min(400, count)
    sample_cluster = max(1, sample // 100)
    sample_roots = roots[:sample]

    def sim_counts(kind: str) -> OpCounts:
        for compound in sample_roots:
            reset_flags(compound)
        tier = None
        if kind == "differential":
            tier = BlockTier()
            tier.partition(sample_roots)
            for block in tier.blocks:
                tier.mark_committed(block)
        for compound in sample_roots[:sample_cluster]:
            touch(compound, 1)
        machine = MeteredMachine()
        if kind == "incremental":
            for root in sample_roots:
                machine.run_incremental(root)
        else:
            machine.run_differential(tier)
        return machine.counts

    sim_base = HARISSA.seconds(sim_counts("incremental"))
    sim_diff = HARISSA.seconds(sim_counts("differential"))
    result.add_note(
        f"simulated (Harissa, {sample}-structure sample): differential "
        f"{sim_base / sim_diff:.2f}x over the incremental flag walk"
    )
    result.add_note(
        f"clustered workload: {cluster} structures fully rewritten per "
        f"commit ({cluster * num_lists * list_length} of "
        f"{total_objects} objects, "
        f"{cluster * num_lists * list_length / total_objects:.2%})"
    )
    result.add_note(
        "every differential epoch was asserted byte-identical to the "
        "incremental baseline on the same modification state"
    )
    if speedups["clustered 1%"] < 5.0:
        result.add_note(
            "FAILED: differential clustered speedup "
            f"{speedups['clustered 1%']:.2f}x below the 5x target"
        )
    return result


ALL_EXPERIMENTS = {
    "table1": table1,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "table2": table2,
    "phase_inference": phase_inference,
    "differential": differential,
    "fault_recovery": fault_recovery,
    "time_travel": time_travel,
    "replication": replication,
}
