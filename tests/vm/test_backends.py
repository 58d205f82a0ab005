"""Unit tests for the cost profiles and their paper-calibrated behaviour."""

import pytest

from repro.vm.backends import (
    EPOCH_SCALE,
    HARISSA,
    HOTSPOT,
    JDK12_JIT,
    PROFILES,
    CostProfile,
    profile_by_name,
)
from repro.vm.ops import OpCounts


class TestCostProfile:
    def test_seconds_is_dot_product(self):
        profile = CostProfile("toy", {"test": 10.0, "vcall": 100.0})
        counts = OpCounts({"test": 3, "vcall": 2})
        assert profile.seconds(counts) == pytest.approx((30 + 200) * 1e-9)
        assert profile.nanoseconds(counts) == pytest.approx(230.0)

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            CostProfile("bad", {"hyperjump": 1.0})

    def test_missing_ops_priced_zero(self):
        profile = CostProfile("sparse", {"test": 1.0})
        assert profile.costs["vcall"] == 0.0

    def test_lookup_by_name(self):
        assert profile_by_name("harissa") is HARISSA
        assert profile_by_name("hotspot") is HOTSPOT
        assert profile_by_name("jdk") is JDK12_JIT
        with pytest.raises(KeyError):
            profile_by_name("v8")

    def test_all_profiles_exported(self):
        assert set(PROFILES) == {JDK12_JIT, HOTSPOT, HARISSA}
        assert EPOCH_SCALE > 1


class TestCalibratedOrderings:
    """The qualitative relations the paper reports must hold by construction."""

    def test_virtual_call_dearer_than_field_read_everywhere(self):
        for profile in PROFILES:
            assert profile.costs["vcall"] > profile.costs["getfield"]

    def test_hotspot_inlines_accessors(self):
        # HotSpot: accessor ~ field read. JDK 1.2: accessors stay calls.
        assert HOTSPOT.costs["acc"] <= 2 * HOTSPOT.costs["getfield"]
        assert JDK12_JIT.costs["acc"] >= JDK12_JIT.costs["getfield"]

    def test_jdk_slowest_on_generic_code(self):
        generic_mix = OpCounts(
            {"vcall": 5, "acc": 5, "getfield": 4, "test": 2, "write_int": 4}
        )
        times = {p.name: p.seconds(generic_mix) for p in PROFILES}
        assert times["JDK 1.2 JIT"] > times["Harissa"]
        assert times["JDK 1.2 + HotSpot"] < times["Harissa"]

    def test_hotspot_unspec_can_beat_harissa_spec_relation(self):
        # The paper's Table 2 observation requires HotSpot generic code to
        # run at roughly half Harissa's generic speed or better.
        generic_mix = OpCounts(
            {"vcall": 5, "acc": 7, "getfield": 4, "test": 2, "write_int": 13}
        )
        assert HOTSPOT.seconds(generic_mix) < 0.7 * HARISSA.seconds(generic_mix)
