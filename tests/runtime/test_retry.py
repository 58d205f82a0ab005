"""RetryPolicy semantics and its wiring into StoreSink."""

import errno
import os

import pytest

from repro.core.errors import CheckpointError, StorageError
from repro.core.retry import RetryPolicy, RetryStats, transient_oserror
from repro.core.storage import (
    FULL,
    AppendReceipt,
    MemoryStore,
    RetryingStore,
)
from repro.runtime.sink import StoreSink


class TestClassifier:
    def test_oserror_is_transient(self):
        assert transient_oserror(OSError("disk glitch"))

    def test_wrapped_oserror_is_transient(self):
        try:
            try:
                raise OSError("inner")
            except OSError as inner:
                raise StorageError("outer") from inner
        except StorageError as exc:
            assert transient_oserror(exc)

    def test_other_errors_are_permanent(self):
        assert not transient_oserror(ValueError("bug"))
        assert not transient_oserror(StorageError("corrupt frame"))

    def test_volume_state_errnos_are_permanent(self):
        # a full or read-only disk does not heal in a backoff window
        for code in (errno.ENOSPC, errno.EROFS, getattr(errno, "EDQUOT", None)):
            if code is None:
                continue
            exc = OSError(code, os.strerror(code))
            assert not transient_oserror(exc), os.strerror(code)

    def test_blip_errnos_are_transient(self):
        for code in (errno.EAGAIN, errno.EINTR, errno.EIO):
            exc = OSError(code, os.strerror(code))
            assert transient_oserror(exc), os.strerror(code)

    def test_wrapped_enospc_is_permanent(self):
        # errno classification must see through store-level wrapping
        try:
            try:
                raise OSError(errno.ENOSPC, "no space left on device")
            except OSError as inner:
                raise StorageError("append failed") from inner
        except StorageError as exc:
            assert not transient_oserror(exc)

    def test_enospc_not_retried_by_run(self):
        calls = []

        def fn():
            calls.append(1)
            raise OSError(errno.ENOSPC, "no space left on device")

        with pytest.raises(OSError):
            RetryPolicy(max_attempts=5, base_delay=0.0).run(
                fn, sleep=lambda _: None
            )
        assert len(calls) == 1

    def test_eagain_is_retried_by_run(self):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.EAGAIN, "try again")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base_delay=0.0)
        assert policy.run(fn, sleep=lambda _: None) == "ok"
        assert len(calls) == 3


class TestPolicyValidation:
    def test_zero_attempts_rejected(self):
        with pytest.raises(CheckpointError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_bad_jitter_rejected(self):
        with pytest.raises(CheckpointError, match="jitter"):
            RetryPolicy(jitter=1.5)


class TestDelays:
    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=5, seed=9)
        assert policy.delays() == policy.delays()
        assert policy.delays() == RetryPolicy(max_attempts=5, seed=9).delays()

    def test_different_seeds_differ(self):
        a = RetryPolicy(max_attempts=5, seed=1).delays()
        b = RetryPolicy(max_attempts=5, seed=2).delays()
        assert a != b

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=6,
            base_delay=0.01,
            multiplier=2.0,
            max_delay=0.04,
            jitter=0.0,
        )
        assert policy.delays() == [0.01, 0.02, 0.04, 0.04, 0.04]

    def test_single_attempt_has_no_delays(self):
        assert RetryPolicy.none().delays() == []


class TestRun:
    def make_flaky(self, failures, exc=OSError):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) <= failures:
                raise exc(f"boom {len(calls)}")
            return "done"

        return fn, calls

    def test_retries_transient_until_success(self):
        fn, calls = self.make_flaky(2)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        naps = []
        assert policy.run(fn, sleep=naps.append) == "done"
        assert len(calls) == 3
        assert len(naps) == 2

    def test_exhausted_attempts_reraise_last_error(self):
        fn, calls = self.make_flaky(10)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        with pytest.raises(OSError, match="boom 3"):
            policy.run(fn, sleep=lambda _: None)
        assert len(calls) == 3

    def test_permanent_errors_not_retried(self):
        fn, calls = self.make_flaky(1, exc=ValueError)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).run(fn, sleep=lambda _: None)
        assert len(calls) == 1

    def test_deadline_stops_retrying(self):
        fn, calls = self.make_flaky(10)
        policy = RetryPolicy(
            max_attempts=10,
            base_delay=1.0,
            max_delay=8.0,
            jitter=0.0,
            deadline=2.5,
        )
        fake_now = [0.0]

        def clock():
            return fake_now[0]

        def sleep(delay):
            fake_now[0] += delay

        with pytest.raises(OSError):
            policy.run(fn, sleep=sleep, clock=clock)
        # The 1s sleep fits the 2.5s budget; the next 2s sleep would not.
        assert len(calls) == 2

    def test_deadline_expires_mid_backoff_with_slow_attempts(self):
        # Time spent *inside* failing attempts counts against the
        # deadline too: the first backoff already blows the budget even
        # though it would have fit at t=0.
        fn_calls = []
        fake_now = [0.0]

        def fn():
            fn_calls.append(1)
            fake_now[0] += 2.0  # each attempt itself burns wall clock
            raise OSError("slow failure")

        policy = RetryPolicy(
            max_attempts=10,
            base_delay=1.0,
            max_delay=8.0,
            jitter=0.0,
            deadline=2.5,
        )
        with pytest.raises(OSError):
            policy.run(
                fn,
                sleep=lambda d: fake_now.__setitem__(0, fake_now[0] + d),
                clock=lambda: fake_now[0],
            )
        # attempt 1 ends at t=2.0; the 1s backoff would end past the
        # 2.5s deadline, so there is no second attempt
        assert len(fn_calls) == 1

    def test_on_retry_hook_sees_each_attempt(self):
        fn, _ = self.make_flaky(2)
        seen = []
        RetryPolicy(max_attempts=3, base_delay=0.0).run(
            fn,
            on_retry=lambda attempt, exc, delay: seen.append(attempt),
            sleep=lambda _: None,
        )
        assert seen == [1, 2]

    def test_retry_stats_note(self):
        stats = RetryStats()
        stats.note("put", 1, OSError("glitch"))
        stats.note("put", 2, OSError("glitch"))
        assert stats.retries == 2
        assert "put retry 1" in stats.events[0]


class _FlakyStore(MemoryStore):
    """Fails the first ``failures`` appends with OSError, then works."""

    def __init__(self, failures):
        super().__init__()
        self.failures = failures
        self.attempts = 0

    def append(self, kind, data, **lineage):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise OSError(f"flaky append {self.attempts}")
        return super().append(kind, data, **lineage)


class TestStoreSinkRetry:
    def test_put_retries_and_records_stats(self):
        store = _FlakyStore(failures=2)
        policy = RetryPolicy(max_attempts=4, base_delay=0.0)
        sink = StoreSink(RetryingStore(store, policy))
        receipt = AppendReceipt()
        sink.put(FULL, b"epoch-bytes", receipt=receipt)
        assert [epoch.data for epoch in store.epochs()] == [b"epoch-bytes"]
        assert receipt.retries == 2
        assert receipt.durability == "durable"

    def test_put_without_retry_fails_fast(self):
        store = _FlakyStore(failures=1)
        sink = StoreSink(store)
        with pytest.raises(OSError):
            sink.put(FULL, b"epoch-bytes")
        assert store.attempts == 1

    def test_exhausted_retry_surfaces_error(self):
        store = _FlakyStore(failures=99)
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        sink = StoreSink(RetryingStore(store, policy))
        receipt = AppendReceipt()
        with pytest.raises(OSError):
            sink.put(FULL, b"epoch-bytes", receipt=receipt)
        assert receipt.retries == 1
