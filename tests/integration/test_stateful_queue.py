"""Stateful property test: queue/policy invariants under random operations.

A hypothesis ``RuleBasedStateMachine`` drives a policy's queue through
random insert / reinsert / remove / deliver sequences and checks, after
every step, the structural invariants both policies must maintain:

* entries stay sorted by delivery time;
* no alarm appears in two entries;
* every entry's cached attributes equal the algebra over its members,
  recomputed from the members' raw fields (window/grace intersections,
  hardware union, perceptibility) — delivering the head teaches members
  their hardware, so perceptibility flips between inserts;
* perceptible entries always retain a non-empty window intersection;
* under SIMTY, every member of an entry can legally be delivered at the
  entry's delivery time (window for perceptible, grace for imperceptible).
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.alarm import Alarm, RepeatKind
from repro.core.hardware import (
    ACCELEROMETER_ONLY,
    EMPTY_HARDWARE,
    SPEAKER_VIBRATOR_ONLY,
    WIFI_ONLY,
    WPS_ONLY,
)
from repro.core.intervals import Interval
from repro.core.native import NativePolicy
from repro.core.simty import SimtyPolicy

HARDWARE_CHOICES = [
    WIFI_ONLY,
    WPS_ONLY,
    ACCELEROMETER_ONLY,
    SPEAKER_VIBRATOR_ONLY,
    EMPTY_HARDWARE,
]

alarm_params = st.tuples(
    st.integers(min_value=0, max_value=600_000),      # nominal
    st.integers(min_value=0, max_value=60_000),       # window
    st.integers(min_value=0, max_value=90_000),       # extra grace
    st.sampled_from(range(len(HARDWARE_CHOICES))),    # hardware index
    st.booleans(),                                    # hardware known
)


def build_alarm(params):
    nominal, window, extra_grace, hw_index, known = params
    return Alarm(
        app="sm",
        nominal_time=nominal,
        repeat_interval=1_000_000,
        window_length=window,
        grace_length=window + extra_grace,
        repeat_kind=RepeatKind.STATIC,
        hardware=HARDWARE_CHOICES[hw_index],
        hardware_known=known,
    )


class QueueMachine(RuleBasedStateMachine):
    policy_factory = SimtyPolicy

    @initialize()
    def setup(self):
        self.policy = self.policy_factory()
        self.queue = self.policy.make_queue()
        self.alarms = []

    @rule(params=alarm_params)
    def insert(self, params):
        alarm = build_alarm(params)
        self.alarms.append(alarm)
        self.policy.insert(self.queue, alarm, 0)

    @rule(index=st.integers(min_value=0, max_value=10_000))
    def remove(self, index):
        if not self.alarms:
            return
        alarm = self.alarms.pop(index % len(self.alarms))
        self.queue.remove_alarm(alarm)

    @rule(
        index=st.integers(min_value=0, max_value=10_000),
        shift=st.integers(min_value=1, max_value=500_000),
    )
    def reinsert_shifted(self, index, shift):
        if not self.alarms:
            return
        alarm = self.alarms[index % len(self.alarms)]
        alarm.nominal_time += shift
        self.policy.reinsert(self.queue, alarm, 0)

    @rule()
    def deliver_head(self):
        # What the engine does: pop the due head, deliver every member
        # (learning its hardware), then reschedule and reinsert.  Every
        # machine alarm is static, so every member repeats.
        now = self.queue.next_delivery_time()
        if now is None:
            return
        entry = self.queue.pop_due(now)
        assert entry is not None
        for alarm in entry:
            alarm.record_delivery(now)
            assert alarm.reschedule(now)
        for alarm in entry:
            self.policy.reinsert(self.queue, alarm, now)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def entries_sorted(self):
        times = [
            entry.delivery_time(self.queue.grace_mode)
            for entry in self.queue.entries()
        ]
        assert times == sorted(times)

    @invariant()
    def no_duplicate_membership(self):
        seen = set()
        for entry in self.queue.entries():
            for alarm in entry:
                assert alarm.alarm_id not in seen
                seen.add(alarm.alarm_id)
        assert len(seen) == len(self.alarms)

    @invariant()
    def entry_attributes_match_members(self):
        for entry in self.queue.entries():
            assert not entry.is_empty()
            expected_window = expected_grace = None
            for index, alarm in enumerate(entry):
                nominal = alarm.nominal_time
                window = Interval(nominal, nominal + alarm.window_length)
                grace = Interval(nominal, nominal + alarm.grace_length)
                if index == 0:
                    expected_window, expected_grace = window, grace
                    continue
                if expected_window is not None:
                    expected_window = expected_window.intersect(window)
                if expected_grace is not None:
                    expected_grace = expected_grace.intersect(grace)
            assert entry.window == expected_window
            assert entry.grace == expected_grace
            hardware = entry.alarms[0].hardware
            for alarm in entry.alarms[1:]:
                hardware = hardware.union(alarm.hardware)
            assert entry.hardware == hardware
            perceptible = any(alarm.is_perceptible() for alarm in entry)
            assert entry.perceptible is perceptible
            assert entry.is_perceptible() is perceptible

    @invariant()
    def perceptible_entries_keep_windows(self):
        for entry in self.queue.entries():
            if entry.is_perceptible():
                assert entry.window is not None

    @invariant()
    def delivery_time_legal_for_all_members(self):
        if not self.queue.grace_mode:
            return
        for entry in self.queue.entries():
            delivery = entry.delivery_time(grace_mode=True)
            for alarm in entry:
                assert alarm.grace_interval().contains(delivery)
                if alarm.is_perceptible():
                    assert alarm.window_interval().contains(delivery)


class SimtyQueueMachine(QueueMachine):
    policy_factory = SimtyPolicy


class NativeQueueMachine(QueueMachine):
    policy_factory = NativePolicy


TestSimtyQueueMachine = pytest.mark.filterwarnings("ignore")(
    SimtyQueueMachine.TestCase
)
TestNativeQueueMachine = NativeQueueMachine.TestCase

SimtyQueueMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
NativeQueueMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
