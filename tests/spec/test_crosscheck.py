"""Tests for the dynamic counterexample harness (``effects/crosscheck``).

The harness exists to catch exactly one thing: a statically-quiescent
position that a live run dirties. The static analysis is conservative
over everything it can see, so to exercise the failure path the cheat
phase below launders an alias through a module-global dict — a write the
flow-insensitive analysis genuinely cannot attribute. The harness must
catch it dynamically and minimize the repro to the offending function.
"""

import tempfile

import pytest

from repro.spec import Shape
from repro.spec.effects.crosscheck import (
    SYNTHETIC_PRESETS,
    Counterexample,
    CrosscheckResult,
    crosscheck_driver,
    crosscheck_phases,
    crosscheck_synthetic,
)
from tests.conftest import Root, build_root


@pytest.fixture(scope="module")
def shape():
    return Shape.of(build_root())


# -- phases / drivers (module level: the analyzer needs their source) -------


def bump_leaf(root: Root):
    root.mid.leaf.value += 1


def touch_extra(root: Root):
    root.extra.value = 5


_STASH = {}


def sneaky_stash(root: Root):
    _STASH["node"] = root.extra


def sneaky_write(root: Root):
    sneaky_stash(root)
    _STASH["node"].value += 1  # invisible to the static analysis


def honest_driver(root: Root, session):
    session.base(roots=[root])
    root.mid.leaf.value += 1
    session.commit(phase="bump", roots=[root])


class TestSoundPhases:
    def test_sound_phases_produce_no_counterexamples(self, shape):
        result = crosscheck_phases(
            shape,
            {"bump": [bump_leaf], "extra": [touch_extra]},
            build_root,
            rounds=2,
        )
        assert result.ok
        assert result.counterexamples == []
        # per round and phase: one quiescence check + one byte check
        assert result.checks == 2 * 2 * 2
        assert any("bump" in note for note in result.notes)

    def test_describe_reports_green(self, shape):
        result = crosscheck_phases(shape, {"bump": [bump_leaf]}, build_root)
        text = "\n".join(result.describe())
        assert "ok" in text and "FAILED" not in text


class TestCounterexamples:
    def test_laundered_write_is_caught_dynamically(self, shape):
        result = crosscheck_phases(
            shape, {"sneak": [sneaky_write]}, build_root, rounds=1
        )
        assert not result.ok
        assert result.counterexamples
        ce = result.counterexamples[0]
        assert isinstance(ce, Counterexample)
        assert ce.phase == "sneak"
        assert ce.path == ("extra",)

    def test_counterexample_repro_is_minimized_to_the_writer(self, shape):
        result = crosscheck_phases(
            shape, {"sneak": [sneaky_write]}, build_root, rounds=1
        )
        ce = result.counterexamples[0]
        assert "sneaky_write" in ce.repro

    def test_describe_mentions_the_counterexample(self, shape):
        result = crosscheck_phases(
            shape, {"sneak": [sneaky_write]}, build_root, rounds=1
        )
        text = "\n".join(result.describe())
        assert "FAILED" in text
        assert "minimized" in text


class TestDriverCrosscheck:
    def test_honest_driver_is_green(self, shape):
        result = crosscheck_driver(
            shape, honest_driver, build_root, roots=["root"]
        )
        assert result.ok
        assert result.checks > 0


class TestSyntheticCrosscheck:
    def test_presets_are_well_formed(self):
        assert set(SYNTHETIC_PRESETS) >= {
            "uniform", "restricted-lists", "last-element",
        }

    def test_tiny_preset_is_green(self):
        results = crosscheck_synthetic(
            presets={
                "tiny": dict(num_structures=4, num_lists=2, list_length=2)
            },
            sample=2,
        )
        assert len(results) == 1
        result = results[0]
        assert isinstance(result, CrosscheckResult)
        assert result.scenario == "synthetic:tiny"
        assert result.ok
        assert result.checks > 0

    def test_no_phase_file_outlives_its_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        crosscheck_synthetic(
            presets={
                "tiny": dict(num_structures=4, num_lists=2, list_length=2)
            },
            sample=2,
        )
        assert list(tmp_path.iterdir()) == []
