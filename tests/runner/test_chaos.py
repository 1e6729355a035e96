"""Chaos suite: fault injection against the supervised run harness.

Each test wires one failure mode from :mod:`tests.runner.chaos` through
``run_many`` and asserts the batch degrades instead of dying: crashes and
hangs become quarantined records, corrupt cache entries are re-simulated,
and a worker that dies mid-batch (``os._exit``) only takes its own spec
down.
"""

import os
import time
from functools import partial
from pathlib import Path

import pytest

from repro.runner import ResultCache, RunStatus, run_many
from repro.runner.supervision import supervise

from .chaos import (
    chaos_spec,
    corrupt_cache_entry,
    truncate_cache_entry,
)

pytestmark = pytest.mark.usefixtures("chaos_workload")


def statuses(records):
    return [record.status for record in records]


class TestCrashOnNthSpec:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_one_poisoned_spec_in_five(self, max_workers):
        specs = [chaos_spec("ok", marker=index) for index in range(5)]
        specs[2] = chaos_spec("crash")
        records = run_many(
            specs, max_workers=max_workers, on_error="keep_going"
        )
        assert statuses(records) == [
            RunStatus.OK,
            RunStatus.OK,
            RunStatus.FAILED,
            RunStatus.OK,
            RunStatus.OK,
        ]
        healthy = [record.result for record in records if record.ok]
        assert all(result is not None for result in healthy)
        # The four healthy markers are distinct specs, yet simulate the
        # same workload bytes — deterministic regardless of the failure.
        wakeups = {result.wakeups.cpu.delivered for result in healthy}
        assert len(wakeups) == 1


class TestHang:
    def test_serial_hang_is_quarantined_as_timeout(self):
        specs = [chaos_spec("ok"), chaos_spec("hang", sleep_s=4.0)]
        records = run_many(
            specs, timeout_s=1.0, on_error="keep_going"
        )
        assert statuses(records) == [RunStatus.OK, RunStatus.TIMEOUT]
        assert records[1].error_type == "TimeoutError"
        assert records[1].attempts == 1

    def test_pool_hang_is_quarantined_and_pool_recovers(self):
        specs = [
            chaos_spec("ok"),
            chaos_spec("hang", sleep_s=8.0),
            chaos_spec("ok", marker=1),
        ]
        records = run_many(
            specs, max_workers=2, timeout_s=2.0, on_error="keep_going"
        )
        assert statuses(records) == [
            RunStatus.OK,
            RunStatus.TIMEOUT,
            RunStatus.OK,
        ]

    def test_hang_retry_can_time_out_again(self):
        (record,) = run_many(
            [chaos_spec("hang", sleep_s=3.0)],
            timeout_s=0.2,
            retries=1,
            on_error="keep_going",
        )
        assert record.status is RunStatus.TIMEOUT
        assert record.attempts == 2


class TestCorruptCacheEntry:
    def test_garbage_entry_is_quarantined_and_resimulated(self, tmp_path):
        spec = chaos_spec("ok")
        cache = ResultCache(disk_dir=tmp_path)
        run_many([spec], cache=cache)
        digest = spec.digest()
        path = corrupt_cache_entry(tmp_path, digest)

        cache2 = ResultCache(disk_dir=tmp_path)
        records = run_many([spec], cache=cache2)
        assert records[0].status is RunStatus.OK
        assert records[0].result is not None
        assert cache2.stats.corrupt == 1
        assert cache2.stats.misses == 1 and cache2.stats.hits == 0
        # The bad bytes moved aside; the re-simulation re-populated the slot.
        assert path.with_name(path.name + ".corrupt").exists()
        assert path.exists()
        assert "corrupt" in str(cache2.stats)

    def test_truncated_entry_is_quarantined(self, tmp_path):
        spec = chaos_spec("ok")
        cache = ResultCache(disk_dir=tmp_path)
        run_many([spec], cache=cache)
        truncate_cache_entry(tmp_path, spec.digest(), keep_bytes=12)

        cache2 = ResultCache(disk_dir=tmp_path)
        assert cache2.get(spec.digest()) is None
        assert cache2.stats.corrupt == 1
        # A healthy rerun repairs the entry for the next reader.
        run_many([spec], cache=cache2)
        cache3 = ResultCache(disk_dir=tmp_path)
        assert cache3.get(spec.digest()) is not None


class TestKilledWorker:
    def test_worker_death_fails_only_its_spec(self):
        # The innocent spec is submitted first so its future resolves
        # before the kill poisons the pool; the killed spec burns its
        # retry on a fresh pool and lands as FAILED.
        specs = [chaos_spec("ok"), chaos_spec("kill")]
        records = run_many(
            specs,
            max_workers=2,
            retries=1,
            on_error="keep_going",
        )
        assert records[0].status in (RunStatus.OK, RunStatus.RETRIED_OK)
        assert records[0].result is not None
        assert records[1].status is RunStatus.FAILED
        assert records[1].attempts == 2
        assert records[1].result is None

    def test_pool_survives_kill_and_finishes_batch(self):
        specs = [
            chaos_spec("ok"),
            chaos_spec("kill"),
            chaos_spec("ok", marker=1),
            chaos_spec("ok", marker=2),
        ]
        records = run_many(
            specs,
            max_workers=2,
            retries=2,
            on_error="keep_going",
        )
        assert records[1].status is RunStatus.FAILED
        for index in (0, 2, 3):
            assert records[index].ok, f"spec {index} should have recovered"
            assert records[index].result is not None


class TestHardDeadline:
    def test_deadline_bounds_each_attempt_not_each_wait(self):
        # Every spec gets its own process at once; the two hangs are
        # killed one second after their fork, not one second after the
        # spec queued before them finished.
        specs = [
            chaos_spec("hang", sleep_s=0.9),
            chaos_spec("hang", sleep_s=10.0, marker=1),
            chaos_spec("hang", sleep_s=10.0, marker=2),
        ]
        started = time.perf_counter()
        records = run_many(
            specs, max_workers=3, timeout_s=1.0, on_error="keep_going"
        )
        elapsed = time.perf_counter() - started
        assert statuses(records)[1:] == [RunStatus.TIMEOUT, RunStatus.TIMEOUT]
        assert elapsed < 2.0, f"batch took {elapsed:.2f} s"


class TestNoSerializationAfterKill:
    def test_kill_does_not_slow_the_rest_of_the_batch(self):
        # A dead worker is its own culprit, so the eight 1 s specs still
        # run four at a time (about 2 s) instead of one by one.
        specs = [chaos_spec("kill")] + [
            chaos_spec("hang", sleep_s=1.0, marker=index) for index in range(8)
        ]
        started = time.perf_counter()
        records = run_many(
            specs, max_workers=4, retries=0, on_error="keep_going"
        )
        elapsed = time.perf_counter() - started
        assert records[0].status is RunStatus.FAILED
        assert records[0].attempts == 1
        assert all(record.ok for record in records[1:])
        assert elapsed < 5.0, f"batch took {elapsed:.2f} s"


def _hang_reporting_pid(pid_path, attempt):
    Path(pid_path).write_text(str(os.getpid()))
    time.sleep(30.0)


def _big_payload(size, attempt):
    return bytes(range(256)) * (size // 256)


def _run_once(target, deadline_s):
    """Supervise one target for one attempt; return its end."""
    ends = []

    def on_end(end):
        ends.append(end)
        return False

    supervise(
        {"task": target},
        workers=1,
        deadline_s=lambda: deadline_s,
        on_end=on_end,
    )
    (end,) = ends
    return end


class TestSupervisePrimitive:
    def test_child_past_its_deadline_is_gone(self, tmp_path):
        pid_path = tmp_path / "pid"
        end = _run_once(partial(_hang_reporting_pid, str(pid_path)), 0.5)
        assert end.how == "deadline" and end.attempt == 1
        pid = int(pid_path.read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_payload_over_pipe_buffer_returns_without_deadlock(self):
        size = 1 << 20  # far beyond a 64 KB pipe buffer
        end = _run_once(partial(_big_payload, size), 30.0)
        assert end.how == "ok"
        assert end.payload == _big_payload(size, 1)

    def test_attempt_number_reaches_the_target_and_retries_requeue(self):
        ends = []

        def on_end(end):
            ends.append(end)
            return end.attempt < 3

        supervise(
            {"echo": lambda attempt: attempt},
            workers=2,
            deadline_s=lambda: None,
            on_end=on_end,
        )
        assert [(end.how, end.payload) for end in ends] == [
            ("ok", 1),
            ("ok", 2),
            ("ok", 3),
        ]
