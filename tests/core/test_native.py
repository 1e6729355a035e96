"""NATIVE policy: Android 4.4 window-overlap batching (Sec. 2.1)."""

from repro.core.native import NativePolicy
from repro.obs.audit import DecisionAudit
from repro.obs.telemetry import Telemetry

from ..conftest import make_alarm


def insert_all(policy, queue, *alarms, now=0):
    entries = [policy.insert(queue, alarm, now) for alarm in alarms]
    return entries


class TestBasicInsert:
    def test_first_alarm_creates_entry(self):
        policy = NativePolicy()
        queue = policy.make_queue()
        entry = policy.insert(queue, make_alarm(nominal=1_000, window=100), 0)
        assert len(queue) == 1
        assert len(entry) == 1

    def test_overlapping_windows_batch(self):
        policy = NativePolicy()
        queue = policy.make_queue()
        first = make_alarm(nominal=1_000, window=500)
        second = make_alarm(nominal=1_200, window=500)
        entries = insert_all(policy, queue, first, second)
        assert entries[0] is entries[1]
        assert len(queue) == 1

    def test_disjoint_windows_do_not_batch(self):
        policy = NativePolicy()
        queue = policy.make_queue()
        insert_all(
            policy,
            queue,
            make_alarm(nominal=1_000, window=100),
            make_alarm(nominal=5_000, window=100),
        )
        assert len(queue) == 2

    def test_point_window_joins_containing_window(self):
        # The Fig. 2 situation: an alpha=0 alarm lands inside a wide window.
        policy = NativePolicy()
        queue = policy.make_queue()
        wide = make_alarm(nominal=1_000, window=1_000)
        point = make_alarm(nominal=1_500, window=0)
        entries = insert_all(policy, queue, wide, point)
        assert entries[0] is entries[1]
        # The entry is now pinned to the point alarm's nominal time.
        assert entries[1].delivery_time(grace_mode=False) == 1_500

    def test_first_overlapping_entry_wins(self):
        policy = NativePolicy()
        queue = policy.make_queue()
        early = make_alarm(nominal=1_000, window=2_000)
        late = make_alarm(nominal=2_500, window=2_000)
        new = make_alarm(nominal=2_600, window=2_000)
        entries = insert_all(policy, queue, early, late, new)
        # new overlaps both; it must join the earliest-in-queue entry.
        assert entries[2] is entries[0]

    def test_grace_interval_ignored(self):
        # NATIVE predates grace intervals: wide graces must not batch.
        policy = NativePolicy()
        queue = policy.make_queue()
        insert_all(
            policy,
            queue,
            make_alarm(nominal=1_000, window=10, grace=50_000),
            make_alarm(nominal=5_000, window=10, grace=50_000),
        )
        assert len(queue) == 2

    def test_reinserting_same_alarm_removes_stale_instance(self):
        policy = NativePolicy()
        queue = policy.make_queue()
        alarm = make_alarm(nominal=1_000, window=100)
        policy.insert(queue, alarm, 0)
        alarm.nominal_time = 61_000
        policy.insert(queue, alarm, 0)
        assert queue.alarm_count() == 1
        assert queue.peek().delivery_time(False) == 61_000


class TestRealignment:
    def test_reinsert_with_stale_instance_rebatches(self):
        # Sec. 2.1: reinserting an alarm that is still queued reinserts all
        # other alarms in nominal order, which can re-pack the batches.
        policy = NativePolicy()
        queue = policy.make_queue()
        a = make_alarm(nominal=1_000, window=2_000, label="a")
        b = make_alarm(nominal=2_500, window=2_000, label="b")
        c = make_alarm(nominal=2_600, window=2_000, label="c")
        for alarm in (a, b, c):
            policy.insert(queue, alarm, 0)
        # a and b batch ([2500, 3000]); c joins them.
        assert len(queue) == 1
        # The app re-registers b much later while it is still queued.
        b.nominal_time = 50_000
        entry = policy.reinsert(queue, b, 0)
        assert entry.contains_alarm_id(b.alarm_id)
        # a and c remain batched; b sits alone.
        assert len(queue) == 2
        assert queue.alarm_count() == 3

    def test_rebatch_is_observed_as_one_decision(self):
        policy = NativePolicy()
        telemetry = Telemetry()
        audit = DecisionAudit(seed=0, sample_rate=1.0)
        policy.bind_telemetry(telemetry)
        policy.bind_audit(audit)
        queue = policy.make_queue()
        a = make_alarm(nominal=1_000, window=2_000, label="a")
        b = make_alarm(nominal=2_500, window=2_000, label="b")
        c = make_alarm(nominal=2_600, window=2_000, label="c")
        for alarm in (a, b, c):
            policy.insert(queue, alarm, 0)
        b.nominal_time = 50_000
        entry = policy.reinsert(queue, b, 0)
        summary = telemetry.summary()
        assert summary.counter("native.searches") == 3
        assert summary.counter("native.rebatches") == 1
        assert summary.histograms["native.rebatch_alarms"].total == 3
        records = audit.records()
        assert [record.kind for record in records] == ["insert"] * 3 + [
            "rebatch"
        ]
        rebatch = records[-1]
        assert rebatch.seq == 3
        assert (rebatch.scanned, rebatch.applicable) == (3, 2)
        assert rebatch.rejections == ()
        assert rebatch.chosen_entry == entry.entry_id
        assert rebatch.new_entry is True
        assert rebatch.deferral_ms == entry.delivery_time(False) - 50_000

    def test_reinsert_without_stale_instance_is_plain_insert(self):
        policy = NativePolicy()
        queue = policy.make_queue()
        a = make_alarm(nominal=1_000, window=100)
        policy.insert(queue, a, 0)
        b = make_alarm(nominal=1_050, window=100)
        entry = policy.reinsert(queue, b, 0)
        assert entry.contains_alarm_id(a.alarm_id)

    def test_rebatch_preserves_alarm_population(self):
        policy = NativePolicy()
        queue = policy.make_queue()
        alarms = [
            make_alarm(nominal=1_000 * (i + 1), window=700, label=f"x{i}")
            for i in range(6)
        ]
        for alarm in alarms:
            policy.insert(queue, alarm, 0)
        alarms[0].nominal_time = 30_000
        policy.reinsert(queue, alarms[0], 0)
        assert queue.alarm_count() == 6


class TestGuarantees:
    def test_every_entry_window_nonempty(self):
        policy = NativePolicy()
        queue = policy.make_queue()
        for i in range(30):
            policy.insert(
                queue,
                make_alarm(nominal=500 * i, window=(i % 5) * 300),
                0,
            )
        for entry in queue.entries():
            assert entry.window is not None
            for alarm in entry:
                assert alarm.window_interval().overlaps(entry.window)

    def test_delivery_time_within_every_member_window(self):
        policy = NativePolicy()
        queue = policy.make_queue()
        for i in range(30):
            policy.insert(
                queue,
                make_alarm(nominal=400 * i, window=900),
                0,
            )
        for entry in queue.entries():
            delivery = entry.delivery_time(grace_mode=False)
            for alarm in entry:
                assert alarm.window_interval().contains(delivery)
