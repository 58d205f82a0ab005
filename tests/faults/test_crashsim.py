"""The crash-simulation acceptance matrix.

This is the headline robustness test: every seeded scenario runs a real
checkpoint session under injected faults, "crashes" it, repairs the
store, and demands the recovered heap be byte-identical to a fault-free
run at the same durable epoch count. The full matrix runs in well under
a second, so the suite runs it wholesale rather than sampling.
"""

import os
import tempfile
from collections import Counter

import pytest

from repro.core.storage import FileStore
from repro.faults import CrashSim, FaultPlan, FaultSpec, Scenario, build_matrix
from repro.faults.__main__ import main
from repro.faults.crashsim import (
    PATHS,
    default_workload,
    run,
    table_fingerprint,
)
from repro.faults.plan import CRASH_KINDS, TRANSIENT


@pytest.fixture(scope="module")
def matrix_summary(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("crashsim")
    return run(str(workdir))


class TestMatrix:
    def test_meets_scenario_floor(self, matrix_summary):
        assert matrix_summary["total"] >= 50

    def test_every_scenario_recovers_byte_identically(self, matrix_summary):
        failed = [
            entry["name"]
            for entry in matrix_summary["scenarios"]
            if not entry["ok"]
        ]
        assert failed == []
        assert matrix_summary["failures"] == 0

    def test_matrix_actually_crashes_runs(self, matrix_summary):
        crashed = [
            entry for entry in matrix_summary["scenarios"] if entry["crashed"]
        ]
        assert len(crashed) >= 20

    def test_matrix_covers_every_write_path(self, matrix_summary):
        assert {
            entry["path"] for entry in matrix_summary["scenarios"]
        } == set(PATHS)

    def test_durable_prefixes_span_the_run(self, matrix_summary):
        durable = {
            entry["durable_epochs"] for entry in matrix_summary["scenarios"]
        }
        # Crashes at different ops must strand the store at different
        # points, including "nothing durable" and "everything durable".
        assert 0 in durable
        assert matrix_summary["epochs"] in durable
        assert len(durable) >= 4

    def test_faults_were_injected_not_just_planned(self, matrix_summary):
        injected = [
            entry
            for entry in matrix_summary["scenarios"]
            if entry["injected"]
        ]
        assert len(injected) >= 40


class TestDeterminism:
    def test_build_matrix_is_seed_stable(self):
        first = build_matrix(seed=7)
        second = build_matrix(seed=7)
        assert [s.name for s in first] == [s.name for s in second]
        assert [s.plan.specs() for s in first] == [
            s.plan.specs() for s in second
        ]

    def test_single_scenario_repeats_identically(self, tmp_path):
        scenario = Scenario(
            name="repeat-torn",
            plan=FaultPlan.single(FaultSpec(2, "torn", param=9)),
            path="store",
        )
        sim = CrashSim(str(tmp_path))
        first = sim.run_scenario(scenario)
        second = sim.run_scenario(scenario)
        assert first.ok and second.ok
        assert first.durable_epochs == second.durable_epochs
        assert first.injected == second.injected


class TestWorkload:
    def test_default_workload_mutates_between_epochs(self):
        from repro.synthetic.structures import element_at

        workload = default_workload()
        roots = workload.build()
        target = element_at(roots[1 % len(roots)], 1, 1)
        before = target.v0
        workload.mutate(roots, 1)
        assert target.v0 == 1007
        assert target.v0 != before

    def test_fault_free_reference_is_cached(self, tmp_path):
        sim = CrashSim(str(tmp_path))
        first = sim.reference()
        second = sim.reference()
        assert first is second
        # One fingerprint per epoch index of the linear script.
        assert set(first) == set(range(sim.workload.epochs))
        assert len(set(first.values())) == len(first)

    def test_reference_matches_recovered_prefixes(self, tmp_path):
        """On the linear script, materializing epoch i rebuilds what
        recovering the first i + 1 epochs does."""
        sim = CrashSim(str(tmp_path / "sim"))
        reference = sim.reference()
        epochs = FileStore(str(tmp_path / "sim" / "reference")).epochs()
        for durable in range(1, len(epochs) + 1):
            prefix = FileStore(str(tmp_path / f"prefix-{durable}"))
            for epoch in epochs[:durable]:
                prefix.append(epoch.kind, epoch.data)
            recovered = table_fingerprint(prefix.recover())
            assert recovered == reference[durable - 1]


class TestScenarioShapes:
    def test_matrix_exercises_crash_and_transient_kinds(self):
        kinds = set()
        for scenario in build_matrix():
            for spec in scenario.plan:
                kinds.add(spec.kind)
        assert TRANSIENT in kinds
        assert kinds.issuperset(CRASH_KINDS)

    def test_unknown_path_rejected(self):
        with pytest.raises(Exception, match="unknown scenario path"):
            Scenario(name="bad", plan=FaultPlan(), path="carrier-pigeon")

    def test_matrix_names_are_unique_and_paths_sized(self):
        """Every (stack, plan) pair runs once, under its own name."""
        scenarios = build_matrix()
        names = [s.name for s in scenarios]
        assert len(set(names)) == len(names)
        assert Counter(s.path for s in scenarios) == {
            "store": 41,
            "background": 16,
            "branch": 34,
            "replica": 37,
        }


class TestCli:
    def test_default_workdir_is_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["--json", str(tmp_path / "report.json")]) == 0
        assert sorted(os.listdir(tmp_path)) == ["report.json"]
