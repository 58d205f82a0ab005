"""repro — Efficient incremental checkpointing of object graphs via program specialization.

Reproduction of "Efficient Incremental Checkpointing of Java Programs"
(Julia L. Lawall and Gilles Muller, DSN 2000), ported from Java to Python.

The package provides:

- :mod:`repro.core` — the language-level checkpointing framework: per-class
  generated ``record``/``fold``/``restore`` methods, per-object identity and
  modification flags, incremental and full checkpoint drivers, a binary wire
  format, restore/replay, and durable checkpoint stores.
- :mod:`repro.spec` — an offline program specializer (the JSpec/Tempo analog):
  the generic checkpoint algorithm is expressed in a small imperative IR,
  binding-time analysed, and partially evaluated against declared structural
  facts (:class:`~repro.spec.shape.Shape`) and modification-pattern facts
  (:class:`~repro.spec.modpattern.ModificationPattern`), emitting monolithic
  specialized checkpoint functions as compiled Python.
- :mod:`repro.runtime` — the unified checkpoint runtime: a
  :class:`~repro.runtime.session.CheckpointSession` owning root objects, a
  pluggable :class:`~repro.runtime.strategy.StrategyRegistry` of
  checkpointing tiers with per-phase overrides, an
  :class:`~repro.runtime.policy.EpochPolicy` for full-vs-delta cadence and
  automatic compaction, and :class:`~repro.runtime.sink.Sink` targets
  unifying byte buffers, durable stores, and asynchronous writers behind
  one ``commit()`` path.
- :mod:`repro.vm` — a metered abstract machine: exact operation-count models
  of every checkpointing variant plus cost profiles standing in for the
  paper's three execution environments (JDK 1.2 JIT, HotSpot, Harissa).
- :mod:`repro.analysis` — the paper's realistic application: a program
  analysis engine (side-effect, binding-time and evaluation-time analyses)
  for a simplified C, whose per-node ``Attributes`` results are checkpointed
  after every analysis iteration.
- :mod:`repro.synthetic` — the paper's synthetic benchmark: compound
  structures of linked lists with controllable modification patterns.
- :mod:`repro.bench` — the experiment harness regenerating every table and
  figure of the paper's evaluation section.
"""

from repro.core.checkpoint import (
    Checkpoint,
    FullCheckpoint,
    ReflectiveCheckpoint,
)
from repro.core.checkpointable import Checkpointable
from repro.core.errors import (
    CheckpointError,
    CycleError,
    EffectAnalysisError,
    ManifestVersionError,
    PatternViolationError,
    ResidualVerificationError,
    RestoreError,
    SchemaError,
    SpecializationError,
    StorageError,
    UnsoundPatternError,
)
from repro.core.fields import child, child_list, scalar, scalar_list
from repro.core.info import CheckpointInfo
from repro.core.replica import ReplicatedStore, Scrubber
from repro.core.restore import apply_incremental, replay, restore_full
from repro.core.storage import FileStore, MemoryStore, RetryingStore
from repro.core.streams import DataInputStream, DataOutputStream
from repro.core.retry import RetryPolicy, RetryStats
from repro.runtime import (
    DEFAULT_STRATEGIES,
    AutoSpecStrategy,
    BufferSink,
    CheckpointSession,
    CommitReceipt,
    CommitResult,
    DriverStrategy,
    EpochPolicy,
    NullSink,
    Sink,
    SpecializedStrategy,
    StoreSink,
    Strategy,
    StrategyRegistry,
)
from repro.spec.autospec import AutoSpecializer, PatternObserver
from repro.spec.effects import (
    EffectReport,
    PatternVerdict,
    WriteSite,
    analyze_effects,
    check_pattern,
    verify_residual,
)
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Shape
from repro.spec.specclass import SpecClass, SpecCompiler

__version__ = "1.0.0"

__all__ = [
    "Checkpoint",
    "FullCheckpoint",
    "ReflectiveCheckpoint",
    "Checkpointable",
    "CheckpointInfo",
    "CheckpointError",
    "CycleError",
    "EffectAnalysisError",
    "ManifestVersionError",
    "PatternViolationError",
    "ResidualVerificationError",
    "RestoreError",
    "SchemaError",
    "SpecializationError",
    "StorageError",
    "UnsoundPatternError",
    "scalar",
    "scalar_list",
    "child",
    "child_list",
    "DataOutputStream",
    "DataInputStream",
    "restore_full",
    "apply_incremental",
    "replay",
    "MemoryStore",
    "FileStore",
    "RetryingStore",
    "ReplicatedStore",
    "Scrubber",
    "CheckpointSession",
    "CommitReceipt",
    "CommitResult",
    "EpochPolicy",
    "RetryPolicy",
    "RetryStats",
    "Sink",
    "NullSink",
    "BufferSink",
    "StoreSink",
    "Strategy",
    "DriverStrategy",
    "SpecializedStrategy",
    "AutoSpecStrategy",
    "StrategyRegistry",
    "DEFAULT_STRATEGIES",
    "Shape",
    "ModificationPattern",
    "SpecClass",
    "SpecCompiler",
    "PatternObserver",
    "AutoSpecializer",
    "EffectReport",
    "WriteSite",
    "analyze_effects",
    "PatternVerdict",
    "check_pattern",
    "verify_residual",
    "__version__",
]
