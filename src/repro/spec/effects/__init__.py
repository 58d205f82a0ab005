"""Static modification-effect analysis for checkpointing phases (paper §7).

The paper's future work proposes deriving specialization classes "based on
an analysis of the data modification pattern of the program".
:mod:`repro.spec.autospec` implements the *dynamic* variant (observe dirty
flags at run time); this package implements the *static* one:

- :mod:`repro.spec.effects.analysis` — a Python-AST **may-modify effect
  analysis**: given the phase functions of a program and a
  :class:`~repro.spec.shape.Shape`, it computes a sound over-approximation
  of the shape positions whose modification flags the phase can set
  (intraprocedural dataflow over attribute writes plus a module-local call
  graph; opaque calls fall back to "everything reachable is dynamic").
- :mod:`repro.spec.effects.soundness` — diffs a programmer-declared
  :class:`~repro.spec.modpattern.ModificationPattern` against the inferred
  effects: declarations proven unsound are errors, over-wide declarations
  are optimization hints, and a proven-sound pattern may be compiled
  **unguarded** (:meth:`repro.spec.specclass.SpecClass.from_static_analysis`).
- :mod:`repro.spec.effects.residual` — a verifier over the residual IR the
  specializer emits, asserting well-formedness and the key "no dropped
  subtree" property. It runs on every compiled specialization.
- :mod:`repro.spec.effects.interp` — the one abstract interpreter the
  effect analysis and the alias analysis run on: statement and
  expression walkers, argument binding, a recursion and call-depth
  guard, and call summaries replayed from the one summary cache.
- :mod:`repro.spec.effects.callgraph` — the whole-program machinery: a
  code-hash-keyed source cache, the cross-module call graph, and
  the summary cache (per-function summaries memoized by argument
  signature).
- :mod:`repro.spec.effects.wholeprogram` — phase inference: discover
  ``session.commit()`` sites in a driver, segment it into inter-commit
  regions, and emit one proven :class:`~repro.spec.modpattern.ModificationPattern`
  per region with a provenance trail.
- :mod:`repro.spec.effects.crosscheck` — the dynamic counterexample
  harness: runs real workloads under inferred patterns in checking mode
  and fails with a minimized write-site repro if a statically-quiescent
  position is ever dirtied. (Imported lazily — it drives the runtime and
  the analysis engine, which themselves import this package.)
- :mod:`repro.spec.effects.cli` — the one command-line driver of the
  race (``concurrency``) and alias (``aliasing``) passes: static mode
  and the static ⊇ dynamic crosscheck over each pass's declaration.

The CLI front-end lives in :mod:`repro.lint`.
"""

from repro.spec.effects.analysis import EffectReport, WriteSite, analyze_effects
from repro.spec.effects.callgraph import (
    SOURCE_CACHE,
    CallGraph,
    SummaryCache,
    code_key,
    load_function_ast,
)
from repro.spec.effects.residual import verify_residual
from repro.spec.effects.soundness import PatternVerdict, check_pattern
from repro.spec.effects.wholeprogram import (
    CommitSite,
    InferredPhase,
    WholeProgramReport,
    infer_phases,
)

__all__ = [
    "EffectReport",
    "WriteSite",
    "analyze_effects",
    "PatternVerdict",
    "check_pattern",
    "verify_residual",
    "CallGraph",
    "SummaryCache",
    "SOURCE_CACHE",
    "code_key",
    "load_function_ast",
    "CommitSite",
    "InferredPhase",
    "WholeProgramReport",
    "infer_phases",
]
