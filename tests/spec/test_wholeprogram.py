"""Unit tests for whole-program phase inference (``effects/wholeprogram``)."""

import copy

import pytest

from repro.core.errors import EffectAnalysisError
from repro.spec import ModificationPattern, Shape, SpecCompiler
from repro.spec.effects.wholeprogram import CommitSite, infer_phases
from tests.conftest import Root, build_root


@pytest.fixture(scope="module")
def shape():
    return Shape.of(build_root())


# -- drivers under analysis (module level: the analyzer needs their source) --


def driver_basic(root: Root, session):
    session.base(roots=[root])
    root.mid.leaf.value += 1
    session.commit(phase="hot", roots=[root])
    root.name = "done"
    session.commit(phase="wrap", roots=[root])


def driver_unlabeled(root: Root, session):
    session.base(roots=[root])
    root.mid.leaf.value = 1
    session.commit(roots=[root])
    root.name = "x"
    session.commit(phase="named", roots=[root])


def driver_merged(root: Root, session):
    session.base(roots=[root])
    root.mid.leaf.value = 1
    session.commit(phase="work", roots=[root])
    root.extra.value = 2
    session.commit(phase="work", roots=[root])


def driver_epilogue(root: Root, session):
    session.base(roots=[root])
    root.mid.leaf.value = 1
    session.commit(phase="only", roots=[root])
    root.name = "trailing"


def driver_session_alias(root: Root, session):
    s = session
    s.base(roots=[root])
    root.mid.leaf.value = 1
    s.commit(phase="aliased", roots=[root])


def driver_escape(root: Root, session):
    session.base(roots=[root])
    copy.deepcopy(root.mid)
    session.commit(phase="fuzzy", roots=[root])


def driver_unannotated_with_option(session, r, *, steps=3):
    session.base(roots=[r])
    r.mid.leaf.value = steps
    session.commit(phase="step", roots=[r])


class TestCommitSiteDiscovery:
    def test_sites_in_program_order(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        methods = [s.method for s in report.commit_sites]
        assert methods == ["base", "commit", "commit"]
        linenos = [s.lineno for s in report.commit_sites]
        assert linenos == sorted(linenos)
        assert all(s.filename.endswith("test_wholeprogram.py")
                   for s in report.commit_sites)

    def test_labels_and_labeled_flag(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        commits = [s for s in report.commit_sites if s.method == "commit"]
        assert [s.phase for s in commits] == ["hot", "wrap"]
        assert all(s.labeled for s in commits)

    def test_unlabeled_commit_is_found_but_not_bindable(self, shape):
        report = infer_phases(shape, driver_unlabeled, roots=["root"])
        unlabeled = report.unlabeled_commits()
        assert len(unlabeled) == 1
        assert isinstance(unlabeled[0], CommitSite)
        assert not unlabeled[0].labeled
        assert set(report.bindable()) == {"named"}

    def test_session_alias_is_followed(self, shape):
        report = infer_phases(shape, driver_session_alias, roots=["root"])
        assert len(report.commit_sites) == 2
        assert set(report.bindable()) == {"aliased"}

    def test_driver_without_source_is_an_error(self, shape):
        namespace = {}
        exec("def ghost(root, session):\n    session.commit()\n", namespace)
        with pytest.raises(EffectAnalysisError):
            infer_phases(shape, namespace["ghost"], roots=["root"])


class TestRegionSegmentation:
    def test_region_per_commit_site(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        kinds = [p.kind for p in report.phases]
        assert kinds.count("interval") == 2
        names = [p.name for p in report.phases if p.kind == "interval"]
        assert names == ["hot", "wrap"]

    def test_region_writes_are_what_its_commit_captures(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        assert report.phase("hot").report.may_write == {("mid", "leaf")}
        # root.name is a scalar on the root node: position ()
        assert report.phase("wrap").report.may_write == {()}

    def test_region_line_spans_nest_inside_the_driver(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        hot = report.phase("hot").region
        wrap = report.phase("wrap").region
        assert hot.start_line <= hot.end_line < wrap.end_line

    def test_epilogue_writes_are_reported(self, shape):
        report = infer_phases(shape, driver_epilogue, roots=["root"])
        tails = [p for p in report.phases if p.kind == "epilogue"]
        assert len(tails) == 1
        assert tails[0].report.may_write == {()}
        # the epilogue is not a bindable phase: no commit carries it
        assert set(report.bindable()) == {"only"}


class TestBindableMerging:
    def test_same_label_from_two_regions_is_joined(self, shape):
        report = infer_phases(shape, driver_merged, roots=["root"])
        merged = report.bindable()["work"]
        assert merged.report.may_write == {("mid", "leaf"), ("extra",)}

    def test_merged_pattern_admits_both_regions(self, shape):
        report = infer_phases(shape, driver_merged, roots=["root"])
        pattern = report.bindable()["work"].pattern
        expected = ModificationPattern.only(
            shape, [("mid", "leaf"), ("extra",)]
        )
        assert pattern.may_modify_paths() == expected.may_modify_paths()


class TestProvenanceAndPrecision:
    def test_provenance_points_at_the_write(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        trail = report.phase("hot").provenance()
        assert any("test_wholeprogram.py" in line for line in trail)

    def test_exact_phase(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        assert report.phase("hot").exact

    def test_opaque_escape_widens_and_marks_inexact(self, shape):
        report = infer_phases(shape, driver_escape, roots=["root"])
        fuzzy = report.phase("fuzzy")
        assert not fuzzy.exact
        assert fuzzy.report.fallbacks
        assert {("mid",), ("mid", "leaf")} <= fuzzy.report.may_write

    def test_lone_positional_root_beside_a_keyword_only_option(self, shape):
        # session skipped, steps keyword-only: r is the lone root candidate
        report = infer_phases(shape, driver_unannotated_with_option)
        step = report.phase("step")
        assert step.report.may_write == {("mid", "leaf")}
        assert step.exact

    def test_unknown_phase_name_raises(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        with pytest.raises(EffectAnalysisError):
            report.phase("nonexistent")

    def test_describe_mentions_every_region(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        text = "\n".join(report.describe())
        assert "hot" in text and "wrap" in text


class TestInferredSpecs:
    def test_inferred_phase_compiles_unguarded(self, shape):
        report = infer_phases(shape, driver_basic, roots=["root"])
        fast = SpecCompiler().compile(report.phase("hot").spec())
        assert ("mid", "leaf") in fast.recorded_paths

    def test_spec_records_exactly_the_inferred_positions(self, shape):
        report = infer_phases(shape, driver_merged, roots=["root"])
        fast = SpecCompiler().compile(report.bindable()["work"].spec())
        assert {("mid", "leaf"), ("extra",)} <= set(fast.recorded_paths)
