"""Cost profiles for the paper's three execution environments.

A :class:`CostProfile` prices each abstract operation (see
:mod:`repro.vm.ops`) in nanoseconds; simulated execution time is the dot
product of a profile with measured op counts. The three profiles stand in
for the environments of the paper's evaluation (a 300 MHz UltraSPARC-II,
~3.3 ns/cycle), and were calibrated so the *relative* behaviour matches
what the paper reports (see EXPERIMENTS.md):

``JDK12_JIT``
    The JDK 1.2 just-in-time compiler: little inlining, expensive dynamic
    dispatch, accessor methods cost nearly as much as virtual calls, and
    per-bytecode overheads inflate even field reads and writes.
``HOTSPOT``
    JDK 1.2 with the HotSpot dynamic compiler: aggressive inlining of
    accessors and monomorphic call sites makes generic code much faster —
    the paper observes that unspecialized code under HotSpot can beat
    specialized code without it — but dispatch that remains megamorphic
    (the driver's ``record``/``fold``/``checkpoint`` sites see many
    receiver classes) still pays a real call price.
``HARISSA``
    The Harissa Java-to-C compiler plus GCC: cheap direct-style code,
    with virtual calls compiled to indirect calls through method tables.

The absolute scale is approximate by construction (we are not cycle-exact
simulating a 1999 SPARC); the harness reports *speedups*, which depend
only on cost ratios.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.vm.ops import OP_NAMES, OpCounts


class CostProfile:
    """Nanosecond price of each abstract operation on one backend."""

    def __init__(self, name: str, costs: Dict[str, float]) -> None:
        unknown = set(costs) - set(OP_NAMES)
        if unknown:
            raise KeyError(f"unknown ops in profile {name!r}: {sorted(unknown)}")
        self.name = name
        self.costs = {op: float(costs.get(op, 0.0)) for op in OP_NAMES}

    def seconds(self, counts: OpCounts) -> float:
        """Simulated wall-clock seconds for the given op counts."""
        costs = self.costs
        return sum(counts.counts[op] * costs[op] for op in OP_NAMES) * 1e-9

    def nanoseconds(self, counts: OpCounts) -> float:
        return self.seconds(counts) * 1e9

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostProfile({self.name!r})"


# Calibration
# -----------
# The profiles below were fitted numerically (tools/fit_profiles.py): op
# counts were measured for the eleven synthetic configurations whose
# speedups the paper reports (Figures 7-10 for Harissa, Figure 11 and
# Table 2 for the Sun VMs), and per-op prices were searched to minimize
# the log-error against the paper's ratios, under physical-ordering
# constraints (a field read must not cost more than half a virtual call,
# an accessor call at most ~a virtual call). The resulting stories:
#
# - Harissa (Java-to-C + gcc): field reads and tests are a couple of
#   cycles; gcc inlines the tiny accessor bodies; virtual calls remain
#   indirect calls through method tables; entering one large monolithic
#   specialized routine has a real per-structure price (`call`),
#   dominated by instruction-cache effects — this is what caps the
#   paper's Figure 10 speedups near 15.
# - JDK 1.2 JIT: everything is slow, accessors are not inlined, stream
#   writes are very expensive (synchronized OutputStream plumbing).
# - HotSpot: accessors and straight-line code are aggressively inlined
#   (generic code gets ~2x faster than Harissa's, the paper's Table 2
#   observation), but the driver's polymorphic record/fold/checkpoint
#   sites keep a real dispatch price, so specialization still wins
#   (Figure 11b).
#
# `EPOCH_SCALE` converts the (roughly modern-hardware) nanosecond prices
# to the paper's 300 MHz UltraSPARC epoch when absolute seconds are
# reported (Table 2): with it, Harissa's unspecialized time for the
# Table 2 workload lands at ~4 s, JDK 1.2's at ~10-16 s, HotSpot's at
# ~2 s — the paper's order of magnitude.

EPOCH_SCALE = 30.0

JDK12_JIT = CostProfile(
    "JDK 1.2 JIT",
    {
        "vcall": 80.0,
        "call": 450.0,
        "acc": 50.0,
        "getfield": 45.0,
        "test": 5.0,
        "write_int": 105.0,
        "write_float": 190.0,
        "write_bool": 65.0,
        "write_str": 500.0,
        "flag_reset": 25.0,
        "iter": 25.0,
    },
)

HOTSPOT = CostProfile(
    "JDK 1.2 + HotSpot",
    {
        "vcall": 32.5,
        "call": 122.0,
        "acc": 2.0,
        "getfield": 2.0,
        "test": 1.0,
        "write_int": 24.0,
        "write_float": 43.0,
        "write_bool": 14.0,
        "write_str": 120.0,
        "flag_reset": 1.0,
        "iter": 3.0,
    },
)

HARISSA = CostProfile(
    "Harissa",
    {
        "vcall": 53.0,
        "call": 160.0,
        "acc": 8.5,
        "getfield": 3.0,
        "test": 2.0,
        "write_int": 41.0,
        "write_float": 75.0,
        "write_bool": 25.0,
        "write_str": 200.0,
        "flag_reset": 2.0,
        "iter": 8.0,
    },
)

PROFILES: Tuple[CostProfile, ...] = (JDK12_JIT, HOTSPOT, HARISSA)


def profile_by_name(name: str) -> CostProfile:
    """Look a profile up by its display name (case-insensitive prefix)."""
    wanted = name.lower()
    for profile in PROFILES:
        if profile.name.lower().startswith(wanted) or wanted in profile.name.lower():
            return profile
    raise KeyError(f"no cost profile matching {name!r}")
