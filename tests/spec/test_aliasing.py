"""Rule-engine tests for the static escape/alias analysis.

The load-bearing guarantees pinned here:

- every rule in the alias family fires on its seeded bug shape, at the
  right severity;
- ``# alias-ok: reason`` suppresses a finding and records the site;
- reference flow is tracked interprocedurally (a helper that bypasses
  the flag is caught from its call sites, whatever kind of parameter
  takes the reference, and its summary is cached);
- a call past the interpreter's depth bound is reported as an
  unresolved callee, never dropped silently;
- a cached summary is never replayed for edited source, and each report
  counts only its own cache hits and misses;
- :func:`repro.spec.effects.aliasing.analyze_function` produces the
  same verdicts for a live function object (the bind-time seam);
- the shipped runtime (``src/repro``) is clean — no error/warning
  false positives on real code;
- every fixture ``tools/make_alias_fixture.py`` seeds is statically
  detected under its manifest rule (the crosscheck's static half).
"""

import importlib.util
import textwrap
from pathlib import Path

import pytest

from repro.spec.effects.aliasing import (
    analyze_function,
    analyze_paths,
    analyze_source,
)
from repro.spec.effects.aliasing.escape import SUMMARY_CACHE

REPO = Path(__file__).resolve().parents[2]

_PRELUDE = """
from repro.core.checkpointable import Checkpointable
from repro.core.fields import child, child_list, scalar

class Leaf(Checkpointable):
    value = scalar("int")

class Node(Checkpointable):
    kid = child(Leaf)
    kids = child_list(Leaf)
"""


def analyze(source, filename="<test>"):
    return analyze_source(filename, _PRELUDE + textwrap.dedent(source))


def verdicts(report):
    """(severity, code) pairs, ignoring info-level observations."""
    return {
        (f.severity, f.code)
        for f in report.findings
        if f.severity in ("error", "warning")
    }


class TestRuleFamily:
    def test_slot_write_through_alias(self):
        report = analyze(
            """
            def poke(node: Node):
                alias = node.kid
                alias._f_value = 41
            """
        )
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)

    def test_setattr_with_slot_name(self):
        report = analyze(
            """
            def poke(node: Node):
                setattr(node.kid, "_f_value", 5)
            """
        )
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)

    def test_raw_backing_list_mutation(self):
        report = analyze(
            """
            def poke(node: Node):
                backing = node.kids._items
                backing.append(Leaf())
            """
        )
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)

    def test_dict_store(self):
        report = analyze(
            """
            def poke(node: Node):
                vars(node.kid)["_f_value"] = 7
            """
        )
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)

    def test_shared_subtree_double_attach(self):
        report = analyze(
            """
            def build():
                shared = Leaf()
                a = Node()
                a.kid = shared
                b = Node()
                b.kid = shared
            """
        )
        assert ("error", "shared-subtree-alias") in verdicts(report)

    def test_load_then_reattach_warns(self):
        report = analyze(
            """
            def rewire(a: Node, b: Node):
                b.kid = a.kid
            """
        )
        assert ("warning", "shared-subtree-alias") in verdicts(report)

    @pytest.mark.parametrize(
        "choice",
        ["[] if flag else list(a.kids)", "list(a.kids) if flag else []",
         "flag and list(a.kids)"],
    )
    def test_reattach_from_a_chosen_copy_warns(self, choice):
        # a copy of a child list still holds the recorded children: a
        # join with an empty list must not drop it
        report = analyze(
            f"""
            def rewire(a: Node, b: Node, flag):
                xs = {choice}
                for k in xs:
                    b.kids.append(k)
            """
        )
        assert ("warning", "shared-subtree-alias") in verdicts(report)

    def test_global_store_escape(self):
        report = analyze(
            """
            CACHE = []

            def stash(node: Node):
                CACHE.append(node.kid)
            """
        )
        assert (
            "warning",
            "reference-escapes-recorded-graph",
        ) in verdicts(report)

    def test_thread_capture(self):
        report = analyze(
            """
            import threading

            def go(node: Node):
                t = threading.Thread(target=print, args=(node.kid,))
                t.start()
            """
        )
        assert ("warning", "alias-captured-by-thread") in verdicts(report)

    def test_thread_worker_bypass_is_interprocedural(self):
        report = analyze(
            """
            import threading

            def worker(leaf):
                leaf._f_value = 99

            def go(node: Node):
                t = threading.Thread(target=worker, args=(node.kid,))
                t.start()
            """
        )
        found = verdicts(report)
        assert ("warning", "alias-captured-by-thread") in found
        assert ("error", "alias-write-bypasses-flag") in found

    def test_clean_function_has_no_findings(self):
        report = analyze(
            """
            def honest(node: Node):
                node.kid = Leaf()
                node.kid.value = 3
                node.kids.append(Leaf())
            """
        )
        assert verdicts(report) == set()


class TestSuppression:
    def test_alias_ok_suppresses_and_records(self):
        report = analyze(
            """
            def rewire(a: Node, b: Node):
                # alias-ok: single-owner handoff, a is discarded
                b.kid = a.kid
            """
        )
        assert verdicts(report) == set()
        assert len(report.suppressed) == 1
        assert report.suppressed[0].reason == "single-owner handoff, a is discarded"

    def test_unsuppressed_line_still_fires(self):
        report = analyze(
            """
            def rewire(a: Node, b: Node):
                b.kid = a.kid  # alias-ok is elsewhere, not here
                b.kids.append(a.kid)
            """
        )
        # only a bare `# alias-ok` / `# alias-ok: reason` comment counts
        assert ("warning", "shared-subtree-alias") in verdicts(report)


class TestInterprocedural:
    def test_bypass_in_helper_caught_from_call_site(self):
        report = analyze(
            """
            def bump(leaf):
                leaf._f_value = 2

            def outer(node: Node):
                bump(node.kid)
            """
        )
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)

    def test_summaries_are_cached_and_replayed(self):
        SUMMARY_CACHE.clear()
        report = analyze(
            """
            def bump(leaf):
                leaf._f_value = 2

            def first(node: Node):
                bump(node.kid)

            def second(node: Node):
                bump(node.kid)
            """
        )
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)
        assert report.cache_hits >= 1
        # replay dedupes: the helper's bug is one site, reported once
        bypass = [
            f for f in report.findings
            if f.code == "alias-write-bypasses-flag"
        ]
        assert len(bypass) == 1


    @pytest.mark.parametrize(
        "signature, call",
        [("*, leaf", "bump(leaf=node.kid)"), ("leaf, /", "bump(node.kid)")],
        ids=["keyword-only", "positional-only"],
    )
    def test_every_parameter_kind_is_bound(self, signature, call):
        report = analyze(
            f"""
            def bump({signature}):
                leaf._f_value = 2

            def outer(node: Node):
                {call}
            """
        )
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)


#: the call-depth bound both analyses share
#: (:attr:`repro.spec.effects.interp.Interpreter.MAX_DEPTH`)
DEPTH_BOUND = 12


def _helper_chain(length):
    """``outer`` hands ``node.kid`` down ``length`` helpers to a raw write."""
    helpers = [
        f"def h{index}(leaf):\n    h{index + 1}(leaf)\n"
        for index in range(length - 1)
    ]
    helpers.append(f"def h{length - 1}(leaf):\n    leaf._f_value = 2\n")
    return "\n".join(helpers) + "\ndef outer(node: Node):\n    h0(node.kid)\n"


class TestCallDepthBound:
    def test_bound_is_the_interpreters(self):
        from repro.spec.effects.interp import Interpreter

        assert Interpreter.MAX_DEPTH == DEPTH_BOUND

    def test_chain_at_the_bound_is_walked(self):
        report = analyze(_helper_chain(DEPTH_BOUND))
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)

    def test_chain_past_the_bound_reports_the_unwalked_callee(self):
        last = f"h{DEPTH_BOUND}"
        report = analyze(_helper_chain(DEPTH_BOUND + 1))
        infos = [
            f for f in report.findings
            if f.severity == "info"
            and f.code == "reference-escapes-recorded-graph"
            and repr(last) in f.message
        ]
        assert infos, [f.format_human() for f in report.findings]
        assert any(
            site.kind == "unresolved-call" and site.what == last
            for site in report.escapes
        )

    @pytest.mark.parametrize("direct_first", [False, True])
    def test_a_cut_short_walk_is_not_replayed_at_a_shallower_call(
        self, direct_first
    ):
        # outer reaches h11 at the bound and cannot walk on to h12; direct
        # calls h11 from the top and must walk it, whatever the order
        chain = _helper_chain(DEPTH_BOUND + 1)
        direct = "\ndef direct(node: Node):\n    h11(node.kid)\n"
        report = analyze(direct + chain if direct_first else chain + direct)
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)


_EDITABLE = """
from repro.core.checkpointable import Checkpointable
from repro.core.fields import child, scalar

class EdLeaf(Checkpointable):
    value = scalar("int")

class EdNode(Checkpointable):
    kid = child(EdLeaf)

def bump(leaf):
    leaf._f_value = 2{mark}

def outer(node: EdNode):
    bump(node.kid)
"""
_UNSUPPRESSED = _EDITABLE.format(mark="")
_SUPPRESSED = _EDITABLE.format(mark="  # alias-ok: the caller sets the flag")


class TestSummaryCacheKey:
    @pytest.mark.parametrize(
        "filename, first, second, expected",
        [
            ("edit_ab.py", _UNSUPPRESSED, _SUPPRESSED, set()),
            (
                "edit_ba.py", _SUPPRESSED, _UNSUPPRESSED,
                {("error", "alias-write-bypasses-flag")},
            ),
        ],
        ids=["suppression-added", "suppression-removed"],
    )
    def test_an_edited_module_is_never_answered_from_the_cache(
        self, filename, first, second, expected
    ):
        # the same file analyzed twice in one process, edited in between
        analyze_source(filename, first)
        assert verdicts(analyze_source(filename, second)) == expected

    def test_each_report_counts_its_own_lookups(self):
        source = _UNSUPPRESSED + (
            "\ndef again(node: EdNode):\n    bump(node.kid)\n"
        )
        counts = [
            (report.cache_hits, report.cache_misses)
            for report in (
                analyze_source("per_report_counts.py", source)
                for _ in range(3)
            )
        ]
        assert counts[0][1] >= 1  # the first analysis walks bump
        assert counts[1] == counts[2]  # later ones replay it, alike
        assert counts[1][1] == 0 and counts[1][0] >= 1


class TestBindTimeSeam:
    def test_analyze_function_flags_live_object(self, tmp_path):
        unique = f"AF{id(tmp_path) % 100000}"
        module_path = tmp_path / "af_mod.py"
        module_path.write_text(
            textwrap.dedent(
                f"""
                from repro.core.checkpointable import Checkpointable
                from repro.core.fields import child, scalar

                class Leaf{unique}(Checkpointable):
                    value = scalar("int")

                class Node{unique}(Checkpointable):
                    kid = child(Leaf{unique})

                def poke(node: Node{unique}):
                    node.kid._f_value = 5

                def honest(node: Node{unique}):
                    node.kid.value = 5
                """
            ),
            encoding="utf-8",
        )
        spec = importlib.util.spec_from_file_location(
            f"af_mod_{unique}", module_path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        report = analyze_function(module.poke)
        assert ("error", "alias-write-bypasses-flag") in verdicts(report)
        assert verdicts(analyze_function(module.honest)) == set()


class TestRealCode:
    def test_shipped_runtime_is_clean(self):
        report = analyze_paths([str(REPO / "src" / "repro")])
        noisy = [
            f.format_human()
            for f in report.findings
            if f.severity in ("error", "warning")
        ]
        assert noisy == []


class TestSeededFixtures:
    def test_every_seeded_bug_is_detected(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "make_alias_fixture", REPO / "tools" / "make_alias_fixture.py"
        )
        make_alias_fixture = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_alias_fixture)

        manifest = make_alias_fixture.generate(tmp_path, seed=7)
        assert len(manifest) >= 4
        for entry in manifest:
            report = analyze_paths([str(tmp_path / entry["file"])])
            codes = {
                f.code
                for f in report.findings
                if f.severity in ("error", "warning")
            }
            assert entry["rule"] in codes, (
                f"{entry['file']}: seeded {entry['rule']}, "
                f"statically found {sorted(codes)}"
            )
