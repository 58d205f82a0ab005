"""Unit tests for the call graph and the source/summary caches."""

import ast

import pytest

from repro.core.checkpointable import Checkpointable
from repro.core.errors import EffectAnalysisError
from repro.core.fields import child, scalar
from repro.spec import Shape, analyze_effects
from repro.spec.effects.callgraph import (
    CallGraph,
    SourceCache,
    SummaryCache,
    code_digest,
    code_key,
)
from tests.conftest import Mid, Root, build_root


@pytest.fixture(scope="module")
def shape():
    return Shape.of(build_root())


# -- functions under analysis (module level: source must be available) ------


def _touch_leaf(mid: Mid):
    mid.leaf.value = 1


def phase_calls_helper_twice(root: Root):
    _touch_leaf(root.mid)
    _touch_leaf(root.mid)


def phase_calls_helper_once(root: Root):
    _touch_leaf(root.mid)


def plain_function(x):
    return x + 1


# a function whose source is genuinely unavailable (exec-built)
exec("def GHOST(obj):\n    obj.anything = 1\n")


def phase_calls_ghost(root: Root):
    GHOST(root.mid)  # noqa: F821


def _ghost_helper(mid):
    GHOST(mid)  # noqa: F821


def phase_calls_helper_to_ghost(root: Root):
    _ghost_helper(root.mid)


def _touch_keyword_only(*, mid):
    mid.leaf.value = 1


def _touch_positional_only(mid, /):
    mid.leaf.value = 1


def phase_passes_keyword_only(root: Root):
    _touch_keyword_only(mid=root.mid)


def phase_passes_positional_only(root: Root):
    _touch_positional_only(root.mid)


def phase_unannotated_with_option(r, *, verbose=False):
    r.mid.leaf.value = 1


def _forward(fn):
    # a wrapper without functools.wraps: every argument lands in *args
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def _poke(self):
    self.value = 1


class StarArgsLeaf(Checkpointable):
    """Methods that take their receiver in ``*args``."""

    value = scalar("int")

    def poke(*args):
        args[0].value = 1

    poke_wrapped = _forward(_poke)


class StarArgsHolder(Checkpointable):
    kid = child(StarArgsLeaf)
    other = child(StarArgsLeaf)


def phase_pokes_star_args(holder: StarArgsHolder):
    holder.kid.poke()


def phase_pokes_wrapped(holder: StarArgsHolder):
    holder.kid.poke_wrapped()


class TestCodeIdentity:
    def test_digest_is_stable(self):
        assert (
            code_digest(plain_function.__code__)
            == code_digest(plain_function.__code__)
        )

    def test_digest_distinguishes_bodies(self):
        def variant_a(x):
            return x + 1

        def variant_b(x):
            return x + 2

        assert code_digest(variant_a.__code__) != code_digest(
            variant_b.__code__
        )

    def test_code_key_carries_module_and_qualname(self):
        module, qualname, digest = code_key(plain_function)
        assert module == __name__
        assert qualname == "plain_function"
        assert digest == code_digest(plain_function.__code__)


class TestSourceCache:
    def test_load_parses_once_then_hits(self):
        cache = SourceCache()
        first = cache.load(plain_function)
        second = cache.load(plain_function)
        assert first is second  # the memoized parse, not a re-parse
        assert cache.misses == 1 and cache.hits == 1
        fdef, filename = first
        assert isinstance(fdef, ast.FunctionDef)
        assert filename.endswith("test_callgraph.py")

    def test_redefinition_invalidates_the_stale_parse(self):
        cache = SourceCache()
        # two distinct bodies sharing one (module, qualname) slot, the way
        # a reloaded module or an interactively-redefined function would
        if True:
            def reloaded(x):  # noqa: E301
                return x + 1
        first = cache.load(reloaded)
        if True:
            def reloaded(x):  # noqa: F811
                return x - 1
        second = cache.load(reloaded)
        assert cache.invalidations == 1
        assert cache.misses == 2
        assert first is not second
        assert len(cache) == 1  # the slot was replaced, not duplicated

    def test_unavailable_source_is_cached_as_none(self):
        cache = SourceCache()
        namespace = {}
        exec("def ghost(x):\n    return x\n", namespace)
        assert cache.load(namespace["ghost"]) is None
        assert cache.load(namespace["ghost"]) is None
        assert cache.hits == 1  # the None verdict is memoized too

    def test_non_function_is_rejected_without_caching(self):
        cache = SourceCache()
        assert cache.load(len) is None
        assert len(cache) == 0

    def test_clear(self):
        cache = SourceCache()
        cache.load(plain_function)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestSummaryCache:
    def test_repeated_call_hits_the_summary(self, shape):
        cache = SummaryCache(shape)
        report = analyze_effects(
            shape, [phase_calls_helper_twice], summaries=cache
        )
        assert report.may_write == {("mid", "leaf")}
        assert cache.misses >= 1
        assert cache.hits >= 1  # the second identical call replays

    def test_cache_is_reused_across_analyses(self, shape):
        cache = SummaryCache(shape)
        analyze_effects(shape, [phase_calls_helper_once], summaries=cache)
        misses_before = cache.misses
        report = analyze_effects(
            shape, [phase_calls_helper_once], summaries=cache
        )
        assert report.may_write == {("mid", "leaf")}
        assert cache.misses == misses_before  # nothing re-analysed
        assert cache.hits >= 1

    def test_replayed_summary_keeps_the_callee_edges(self, shape):
        # the second run replays _ghost_helper's summary: its edge into
        # the opaque GHOST must reach the second graph too
        cache = SummaryCache(shape)
        graphs = [CallGraph(), CallGraph()]
        for graph in graphs:
            report = analyze_effects(
                shape, [phase_calls_helper_to_ghost], summaries=cache,
                callgraph=graph,
            )
        assert cache.hits >= 1
        first, second = (
            [(e.caller, e.callee, e.lineno, e.resolved) for e in g.edges]
            for g in graphs
        )
        assert second == first
        assert any("GHOST" in edge.callee for edge in graphs[1].unresolved())
        assert not report.is_exact()

    def test_foreign_shape_cache_is_rejected(self, shape):
        other = Shape.of(build_root())
        with pytest.raises(EffectAnalysisError):
            analyze_effects(
                shape, [phase_calls_helper_once], summaries=SummaryCache(other)
            )


class TestArgumentBinding:
    @pytest.mark.parametrize(
        "phase", [phase_passes_keyword_only, phase_passes_positional_only]
    )
    def test_named_parameters_bind_precisely(self, shape, phase):
        # a keyword-only or positional-only parameter takes its argument
        # like any other: no "unmapped argument" widening of root.mid
        report = analyze_effects(shape, [phase])
        assert report.may_write == {("mid", "leaf")}
        assert report.is_exact()

    def test_lone_positional_root_beside_a_keyword_only_option(self, shape):
        # the option is keyword-only: the one positional parameter is the
        # root, with no annotation or roots= needed
        report = analyze_effects(shape, [phase_unannotated_with_option])
        assert report.may_write == {("mid", "leaf")}
        assert report.is_exact()

    @pytest.mark.parametrize(
        "phase, method",
        [(phase_pokes_star_args, "poke"), (phase_pokes_wrapped, "wrapper")],
    )
    def test_receiver_in_star_args_is_widened(self, phase, method):
        # no named parameter takes the receiver: it is an unmapped
        # argument, so everything under it may be written
        shape = Shape.of(StarArgsHolder(
            kid=StarArgsLeaf(value=0), other=StarArgsLeaf(value=0)
        ))
        report = analyze_effects(shape, [phase])
        assert ("kid",) in report.may_write
        assert not any(path[:1] == ("other",) for path in report.may_write)
        assert not report.is_exact()
        assert [site.reason for site in report.fallbacks] == [
            f"unmapped argument to {method}"
        ]


class TestCallGraph:
    def test_edges_are_collected_during_analysis(self, shape):
        graph = CallGraph()
        analyze_effects(shape, [phase_calls_helper_once], callgraph=graph)
        assert len(graph) >= 1
        callers = graph.functions()
        assert any("phase_calls_helper_once" in name for name in callers)
        callees = [
            callee
            for caller in callers
            for callee in graph.callees(caller)
        ]
        assert any("_touch_leaf" in callee for callee in callees)

    def test_unresolved_edges_are_recorded(self, shape):
        graph = CallGraph()
        report = analyze_effects(
            shape, [phase_calls_ghost], callgraph=graph
        )
        unresolved = graph.unresolved()
        assert unresolved
        assert any("GHOST" in edge.callee for edge in unresolved)
        assert all(edge.location() for edge in unresolved)
        assert not report.is_exact()  # the escape widened conservatively
