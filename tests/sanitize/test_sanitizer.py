"""Dynamic lockset sanitizer: Eraser state machine, weaving, obs wiring."""

import threading

import pytest

from repro.sanitize import (
    SanitizedLock,
    Sanitizer,
    current_held,
    unweave_all,
    weave,
)


@pytest.fixture(autouse=True)
def _clean_weaves():
    yield
    unweave_all()


def make_racy():
    class Racy:
        def __init__(self):
            self.lock = threading.Lock()
            self.count = 0
            self.safe = 0

        def bump_bare(self):
            self.count += 1

        def bump_locked(self):
            with self.lock:
                self.safe += 1

    return Racy


def hammer(fn, threads=4, iters=100):
    barrier = threading.Barrier(threads)

    def go():
        barrier.wait()
        for _ in range(iters):
            fn()

    workers = [threading.Thread(target=go) for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()


class TestSanitizedLock:
    def test_held_set_tracks_acquire_and_release(self):
        sanitizer = Sanitizer()
        lock = SanitizedLock(threading.Lock(), "T.lock", sanitizer)
        assert current_held() == ()
        with lock:
            assert current_held() == ("T.lock",)
        assert current_held() == ()

    def test_rlock_reentry_is_tracked_per_acquisition(self):
        sanitizer = Sanitizer()
        lock = SanitizedLock(threading.RLock(), "T.mutex", sanitizer)
        with lock:
            with lock:
                assert current_held() == ("T.mutex", "T.mutex")
            assert current_held() == ("T.mutex",)
        assert current_held() == ()


class TestEraserStates:
    def test_single_thread_writes_stay_exclusive(self):
        Racy = make_racy()
        sanitizer = Sanitizer()
        weave(Racy, sanitizer)
        obj = Racy()
        for _ in range(100):
            obj.bump_bare()
        assert sanitizer.violations == []

    def test_unguarded_shared_write_is_reported_once(self):
        Racy = make_racy()
        sanitizer = Sanitizer()
        weave(Racy, sanitizer)
        obj = Racy()
        hammer(obj.bump_bare)
        rules = [v.rule for v in sanitizer.violations]
        assert rules == ["unguarded-shared-write"]
        violation = sanitizer.violations[0]
        assert (violation.cls, violation.field) == ("Racy", "count")
        assert violation.threads >= 2

    def test_consistently_locked_writes_are_clean(self):
        Racy = make_racy()
        sanitizer = Sanitizer()
        weave(Racy, sanitizer)
        obj = Racy()
        hammer(obj.bump_locked)
        assert sanitizer.violations == []
        assert obj.safe == 400  # the lock actually excluded

    def test_lock_order_inversion_is_reported(self):
        class Two:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()

        sanitizer = Sanitizer()
        weave(Two, sanitizer)
        obj = Two()
        with obj.a:
            with obj.b:
                pass
        with obj.b:
            with obj.a:
                pass
        assert [v.rule for v in sanitizer.violations] == [
            "lock-order-inversion"
        ]
        # keyed as the static pass keys a lock-order-inversion finding
        assert sanitizer.violation_keys() == {("Two", "<lock-order>")}

    def test_id_reuse_does_not_leak_state_across_instances(self):
        Racy = make_racy()
        sanitizer = Sanitizer()
        weave(Racy, sanitizer)

        def construct_and_write():
            for _ in range(25):
                local = Racy()
                local.bump_bare()

        hammer(construct_and_write, threads=4, iters=1)
        assert sanitizer.violations == []


class TestWeaving:
    def test_weave_is_idempotent_and_unweave_restores(self):
        Racy = make_racy()
        original_init = Racy.__init__
        original_setattr = Racy.__setattr__
        sanitizer = Sanitizer()
        assert weave(Racy, sanitizer) is Racy
        weave(Racy, sanitizer)  # second weave is a no-op
        assert Racy.__init__ is not original_init
        unweave_all()
        assert Racy.__init__ is original_init
        assert Racy.__setattr__ is original_setattr

    def test_unwoven_class_is_untouched(self):
        # the zero-disabled-cost contract: no weave, no wrapper, no
        # proxy — plain attribute semantics
        Racy = make_racy()
        obj = Racy()
        assert type(obj.lock).__module__ == "_thread"

    def test_woven_instances_get_proxied_locks(self):
        Racy = make_racy()
        weave(Racy, Sanitizer())
        obj = Racy()
        assert isinstance(obj.lock, SanitizedLock)
        assert obj.lock.name == "Racy.lock"

    def test_weave_runtime_covers_the_shared_state_classes(self):
        from repro.sanitize import weave_runtime

        woven = weave_runtime(Sanitizer())
        names = {cls.__name__ for cls in woven}
        assert {
            "BackgroundWriter",
            "CheckpointSession",
            "IdAllocator",
            "MemoryStore",
            "FileStore",
            "ReplicatedStore",
            "Scrubber",
            "Tracer",
        } <= names


class TestObsIntegration:
    def test_violation_emits_tracer_event_and_metric(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import MemoryExporter, Tracer

        exporter = MemoryExporter()
        registry = MetricsRegistry()
        sanitizer = Sanitizer()
        sanitizer.instrument(Tracer([exporter]), registry)
        Racy = make_racy()
        weave(Racy, sanitizer)
        obj = Racy()
        hammer(obj.bump_bare)
        events = exporter.of_type("sanitizer.violation")
        assert len(events) == 1
        assert events[0]["rule"] == "unguarded-shared-write"
        assert events[0]["class"] == "Racy"
        assert events[0]["field"] == "count"
        snapshot = registry.snapshot()
        assert any(
            name.startswith("sanitizer.violations")
            for name in snapshot["counters"]
        )

    def test_reset_forgets_everything(self):
        Racy = make_racy()
        sanitizer = Sanitizer()
        weave(Racy, sanitizer)
        obj = Racy()
        hammer(obj.bump_bare)
        assert sanitizer.violations
        sanitizer.reset()
        assert sanitizer.violations == []
        assert sanitizer.violation_keys() == set()


class TestCrosscheckContract:
    def test_dynamic_violations_are_statically_predicted(self):
        """static ⊇ dynamic on the canonical racy class."""
        import inspect
        import textwrap

        from repro.spec.effects.concurrency import analyze_source

        Racy = make_racy()
        # the fixture factory's body is the program text the static
        # pass sees; the woven run is the dynamic observation
        source = textwrap.dedent(inspect.getsource(make_racy))
        report = analyze_source("<racy>", source)
        static = report.unguarded_fields()
        sanitizer = Sanitizer()
        weave(Racy, sanitizer)
        obj = Racy()
        hammer(obj.bump_bare)
        hammer(obj.bump_locked)
        dynamic = sanitizer.violation_keys()
        assert dynamic  # the race actually fired
        assert dynamic <= static
