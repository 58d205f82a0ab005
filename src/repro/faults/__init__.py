"""Deterministic fault injection for the checkpoint runtime.

The paper's premise is that checkpointing exists to survive faults; this
package is how the reproduction *tests* that, instead of assuming it:

- :mod:`repro.faults.plan` — seed-driven :class:`FaultPlan`/:class:`FaultSpec`:
  transient errors, torn writes, bit flips, stalls, crash points;
- :mod:`repro.faults.inject` — :class:`FaultyStore` /
  :class:`ReplicaFaultStore` wrappers executing a plan against real
  stores;
- :mod:`repro.faults.crashsim` — the :class:`CrashSim` harness: run a
  session workload on one of four store stacks, crash it at every
  injected point, recover, and assert byte-identical state against a
  fault-free reference run (``python -m repro.faults`` runs the full
  matrix).
"""

from repro.faults.crashsim import (
    CrashSim,
    Scenario,
    ScenarioResult,
    Workload,
    build_branch_matrix,
    build_matrix,
    build_replica_matrix,
    default_workload,
    table_fingerprint,
)
from repro.faults.inject import FaultyStore, InjectedCrash, TransientFault
from repro.faults.plan import (
    ALL_KINDS,
    BITFLIP,
    CRASH_AFTER,
    CRASH_BEFORE,
    CRASH_FORK,
    CRASH_KINDS,
    CRASH_RESTORE,
    CRASH_TMP,
    KNOWN_KINDS,
    SESSION_KINDS,
    STALL,
    TORN,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FaultyStore",
    "TransientFault",
    "InjectedCrash",
    "CrashSim",
    "Scenario",
    "ScenarioResult",
    "Workload",
    "default_workload",
    "build_matrix",
    "build_branch_matrix",
    "build_replica_matrix",
    "table_fingerprint",
    "ALL_KINDS",
    "SESSION_KINDS",
    "KNOWN_KINDS",
    "CRASH_KINDS",
    "TRANSIENT",
    "TORN",
    "BITFLIP",
    "STALL",
    "CRASH_BEFORE",
    "CRASH_AFTER",
    "CRASH_TMP",
    "CRASH_RESTORE",
    "CRASH_FORK",
]
