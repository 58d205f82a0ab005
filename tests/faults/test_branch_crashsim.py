"""Crash simulation over the branching (time-travel) script.

The linear matrix proves commits survive crashes; this suite proves the
*lineage* does: named pins, auto-fork restores, and explicit forks all
recover byte-identically per branch after every injected crash —
including crashes inside ``restore()`` and ``fork()`` themselves.
"""

import pytest

from repro.core.errors import StorageError
from repro.faults import (
    CrashSim,
    FaultPlan,
    FaultSpec,
    Scenario,
    build_branch_matrix,
)
from repro.faults.crashsim import BRANCH_SCRIPT_EPOCHS
from repro.faults.plan import CRASH_FORK, CRASH_RESTORE, SESSION_KINDS


@pytest.fixture(scope="module")
def branch_results(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("branchsim")
    return CrashSim(str(workdir)).run_matrix(build_branch_matrix())


class TestReferenceRun:
    def test_reference_covers_every_epoch(self, tmp_path):
        reference = CrashSim(str(tmp_path)).reference(branching=True)
        assert sorted(reference) == list(range(BRANCH_SCRIPT_EPOCHS))

    def test_reference_branches_diverge(self, tmp_path):
        """Epochs 4 (main@2 fork) and 3 (main head) hold different state."""
        reference = CrashSim(str(tmp_path)).reference(branching=True)
        assert reference[3] != reference[4]
        assert reference[5] != reference[6]


class TestBranchMatrix:
    def test_every_scenario_recovers_per_branch(self, branch_results):
        failed = [r.name for r in branch_results if not r.ok]
        assert failed == []

    def test_matrix_is_deterministic(self):
        first = [s.name for s in build_branch_matrix()]
        second = [s.name for s in build_branch_matrix()]
        assert first == second

    def test_matrix_covers_session_crash_points(self):
        kinds = {
            spec.kind
            for scenario in build_branch_matrix()
            for spec in scenario.plan
        }
        assert set(SESSION_KINDS) <= kinds

    def test_all_scenarios_ride_the_branch_path(self):
        assert {s.path for s in build_branch_matrix()} == {"branch"}

    def test_session_crashes_lose_nothing_durable(self, branch_results):
        """restore()/fork() write nothing durable, so crashing inside
        them must leave every previously committed epoch recoverable."""
        by_name = {r.name: r for r in branch_results}
        for kind in (CRASH_RESTORE, CRASH_FORK):
            for label in ("enter", "exit"):
                result = by_name[f"branch-{kind}-{label}"]
                assert result.crashed
                assert result.ok
                assert result.durable_epochs >= 4

    def test_shared_ancestor_corruption_strands_both_branches(
        self, branch_results
    ):
        by_name = {r.name: r for r in branch_results}
        result = by_name["branch-bitflip-op1-b3"]
        # epoch 1 is an ancestor of the pin, both branch heads, and the
        # alt branch root's siblings: only epoch 0 can survive its loss
        assert result.ok
        assert result.durable_epochs <= 2


class TestBranchSimGuards:
    def test_session_crash_points_need_the_branch_path(self):
        plan = FaultPlan.single(FaultSpec(0, CRASH_RESTORE))
        for path in ("store", "background"):
            with pytest.raises(StorageError, match="branch path"):
                Scenario(name="bad", plan=plan, path=path)

    def test_script_is_replayable(self, tmp_path):
        """Two fault-free runs of the script produce identical stores."""
        sim_a = CrashSim(str(tmp_path / "a"))
        sim_b = CrashSim(str(tmp_path / "b"))
        assert sim_a.reference(branching=True) == sim_b.reference(
            branching=True
        )
