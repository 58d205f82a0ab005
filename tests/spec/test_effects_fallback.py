"""The conservative fallback: aliases escaping to unresolvable callables.

A shape alias handed to a callable the analysis cannot see (builtin, C
extension, ``exec``-built function, unknown-receiver method) must widen
the *whole* escaping subtree — every position reachable from the alias —
and record a precision-loss note in ``EffectReport.fallbacks``. Siblings
that never escape must stay quiescent: the fallback is conservative, not
a give-up-on-everything.
"""

import pytest

from repro.spec import Shape, analyze_effects
from repro.spec.effects.callgraph import SummaryCache
from repro.spec.effects.cli import load_module
from repro.spec.effects.interp import Interpreter
from tests.conftest import Root, build_root


@pytest.fixture(scope="module")
def shape():
    return Shape.of(build_root())


def _subtree_paths(shape, prefix):
    return {
        path for path in shape.paths() if path[: len(prefix)] == prefix
    }


# -- phases under analysis (module level: the analyzer needs their source) --

exec("def UNRESOLVABLE(obj):\n    obj.mystery()\n")


def phase_escape_direct(root: Root):
    UNRESOLVABLE(root.mid)  # noqa: F821


def phase_escape_via_alias(root: Root):
    m = root.mid
    UNRESOLVABLE(m)  # noqa: F821


def phase_escape_to_unknown_method(root: Root, log):
    log.append(root.mid)


def phase_escape_keyword(root: Root):
    UNRESOLVABLE(obj=root.mid)  # noqa: F821


class TestSubtreeWidening:
    def test_escaping_subtree_is_fully_widened(self, shape):
        report = analyze_effects(shape, [phase_escape_direct])
        expected = _subtree_paths(shape, ("mid",))
        assert expected  # the fixture really has a subtree under mid
        assert expected <= report.may_write

    def test_alias_indirection_does_not_hide_the_escape(self, shape):
        direct = analyze_effects(shape, [phase_escape_direct])
        via_alias = analyze_effects(shape, [phase_escape_via_alias])
        assert via_alias.may_write == direct.may_write

    def test_keyword_arguments_escape_too(self, shape):
        report = analyze_effects(shape, [phase_escape_keyword])
        assert _subtree_paths(shape, ("mid",)) <= report.may_write

    def test_unknown_receiver_method_escapes_its_argument(self, shape):
        report = analyze_effects(
            shape, [phase_escape_to_unknown_method], roots=["root"]
        )
        assert _subtree_paths(shape, ("mid",)) <= report.may_write
        assert not report.is_exact()

    def test_non_escaping_siblings_stay_quiescent(self, shape):
        report = analyze_effects(shape, [phase_escape_direct])
        assert ("extra",) not in report.may_write
        assert () not in report.may_write  # the root itself did not escape


class TestPrecisionLossNotes:
    def test_fallback_note_is_recorded(self, shape):
        report = analyze_effects(shape, [phase_escape_direct])
        assert not report.is_exact()
        assert report.fallbacks
        reasons = [site.reason for site in report.fallbacks]
        assert any("UNRESOLVABLE" in reason for reason in reasons)
        assert all(site.filename and site.lineno for site in report.fallbacks)

    def test_evidence_links_widened_position_to_the_escape(self, shape):
        report = analyze_effects(shape, [phase_escape_direct])
        sites = report.evidence(("mid", "leaf"))
        assert sites
        assert any(
            site.filename.endswith("test_effects_fallback.py")
            for site in sites
        )

    def test_exact_phase_has_no_fallbacks(self, shape):
        def untouched(root: Root):
            root.extra.value = 9

        # defined inside the test: source is still available via the file
        report = analyze_effects(shape, [untouched])
        assert report.is_exact()
        assert not report.fallbacks


def _helper_chain(tmp_path, length):
    """A phase handing ``root.mid`` down ``length`` helpers to a write.

    The module also holds ``direct``, a phase that calls the last helper
    but one straight away.
    """
    lines = ["from tests.conftest import Root", ""]
    for index in range(length - 1):
        lines += [f"def h{index}(mid):", f"    h{index + 1}(mid)", ""]
    lines += [f"def h{length - 1}(mid):", "    mid.leaf.value = 1", ""]
    lines += ["def phase(root: Root):", "    h0(root.mid)", ""]
    lines += ["def direct(root: Root):", f"    h{length - 2}(root.mid)", ""]
    path = tmp_path / f"chain_{length}.py"
    path.write_text("\n".join(lines), encoding="utf-8")
    return load_module(path, f"effect_chain_{length}_{tmp_path.name}")


class TestCallDepthBound:
    """The effect pass shares the interpreter's one call-depth bound."""

    def test_chain_at_the_bound_is_exact(self, shape, tmp_path):
        phase = _helper_chain(tmp_path, Interpreter.MAX_DEPTH).phase
        report = analyze_effects(shape, [phase])
        assert report.may_write == {("mid", "leaf")}
        assert report.is_exact()

    def test_chain_past_the_bound_widens(self, shape, tmp_path):
        phase = _helper_chain(tmp_path, Interpreter.MAX_DEPTH + 1).phase
        report = analyze_effects(shape, [phase])
        assert _subtree_paths(shape, ("mid",)) <= report.may_write
        assert [site.reason for site in report.fallbacks] == [
            f"call depth limit reached at h{Interpreter.MAX_DEPTH}"
        ]

    def test_a_cut_short_walk_is_not_replayed_at_a_shallower_call(
        self, shape, tmp_path
    ):
        # phase reaches the last helper but one at the bound; direct calls
        # it from the top, over the same summary cache, and walks it
        module = _helper_chain(tmp_path, Interpreter.MAX_DEPTH + 1)
        cache = SummaryCache(shape)
        analyze_effects(shape, [module.phase], summaries=cache)
        report = analyze_effects(shape, [module.direct], summaries=cache)
        assert report.may_write == {("mid", "leaf")}
        assert report.is_exact()
