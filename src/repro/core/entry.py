"""Queue entries: groups of alarms scheduled for joint delivery.

Sec. 3.2.1 defines five attributes for each entry.  The *window* (resp.
*grace*) interval of an entry is the intersection of the window (resp. grace)
intervals of its member alarms; the *hardware set* is the union of the
members' hardware sets; an entry is *perceptible* when any member is; and the
*delivery time* of a perceptible (resp. imperceptible) entry is the earliest
point of its window (resp. grace) interval.

Android's NATIVE policy has no grace intervals and always delivers at the
earliest point of the window intersection; the entry therefore exposes the
delivery time as a function of a ``grace_mode`` flag chosen by the policy.

An invariant maintained by both policies: a *perceptible* entry always has a
non-empty window intersection, because perceptible alarms may only join (or
be joined by) entries with high time similarity.

Every aggregate is cached on the entry: ``window``, ``grace``, ``hardware``
and ``perceptible`` are narrowed (or OR-ed) in :meth:`QueueEntry.add` and
rebuilt from the members in :meth:`QueueEntry.remove`, so the backend's sort
key (:meth:`QueueEntry.delivery_time`) and the policy search read slots
instead of re-scanning members.  The caches stay valid because a member's
nominal time, hardware set and perceptibility only change while the alarm is
outside every queue:

* the engine runs ``record_delivery`` (hardware learning) and ``reschedule``
  on the members of a popped entry, before reinserting them;
* a re-registration assigns ``nominal_time`` after cancelling the alarm;
* NATIVE's stale reinsert removes the old instance first (``remove`` then
  rebuilds the shrunk entry).

The one deliberate exception is BUCKET, which pins ``window``/``grace`` to
its boundary on an entry it has taken out of the queue (the facade's
:meth:`~repro.core.queue.AlarmQueue.update_entry` is the general hook for
such edits); it never touches ``perceptible`` or ``hardware``.  The online
monitor
(:func:`repro.core.invariants.check_queue`) re-derives every aggregate from
the members' raw fields, independently of these caches.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional

from .alarm import Alarm
from .hardware import EMPTY_HARDWARE, HardwareSet
from .intervals import Interval

_ENTRY_IDS = itertools.count(1)


class QueueEntry:
    """A batch of alarms to be delivered together."""

    __slots__ = (
        "entry_id",
        "alarms",
        "window",
        "grace",
        "hardware",
        "perceptible",
    )

    def __init__(self, alarms: Iterable[Alarm] = ()) -> None:
        self.entry_id = next(_ENTRY_IDS)
        self.alarms: List[Alarm] = []
        self.window: Optional[Interval] = None
        self.grace: Optional[Interval] = None
        self.hardware: HardwareSet = EMPTY_HARDWARE
        #: True when any member is perceptible (Sec. 3.1.2).
        self.perceptible = False
        for alarm in alarms:
            self.add(alarm)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, alarm: Alarm) -> None:
        """Add ``alarm`` and narrow the entry's intervals.

        The caller (the alignment policy) is responsible for having checked
        applicability; this method only maintains the attribute algebra.
        """
        alarm_id = alarm.alarm_id
        for member in self.alarms:
            if member.alarm_id == alarm_id:
                raise ValueError(f"alarm {alarm.label} already in entry")
        self.alarms.append(alarm)
        self._absorb(alarm, first=len(self.alarms) == 1)

    def remove(self, alarm: Alarm) -> None:
        """Remove ``alarm`` and rebuild the entry attributes from scratch."""
        self.alarms.remove(alarm)
        self._recompute()

    def _recompute(self) -> None:
        self.window = None
        self.grace = None
        self.hardware = EMPTY_HARDWARE
        self.perceptible = False
        for index, alarm in enumerate(self.alarms):
            self._absorb(alarm, first=index == 0)

    def _absorb(self, alarm: Alarm, first: bool) -> None:
        """Fold one member into the cached aggregates."""
        window = alarm.window_interval()
        grace = alarm.grace_interval()
        if first:
            self.window = window
            self.grace = grace
        else:
            if self.window is not None:
                self.window = self.window.intersect(window)
            if self.grace is not None:
                self.grace = self.grace.intersect(grace)
        self.hardware = self.hardware.union(alarm.hardware)
        if not self.perceptible:
            self.perceptible = alarm.is_perceptible()

    # ------------------------------------------------------------------
    # Attributes (Sec. 3.2.1)
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.alarms

    def is_perceptible(self) -> bool:
        """True when the entry contains any perceptible alarm."""
        return self.perceptible

    def delivery_time(self, grace_mode: bool) -> int:
        """When the entry should be delivered.

        With ``grace_mode`` (SIMTY): the earliest point of the window
        interval for perceptible entries, of the grace interval for
        imperceptible entries.  Without it (NATIVE): always the earliest
        point of the window interval.
        """
        if not self.alarms:
            raise ValueError("empty entry has no delivery time")
        if grace_mode and not self.perceptible:
            assert self.grace is not None, "grace intersection vanished"
            return self.grace.start
        if self.window is None:
            # Defensive fallback: an imperceptible entry queried in
            # non-grace mode after grace-based alignment.
            assert self.grace is not None
            return self.grace.start
        return self.window.start

    def contains_alarm_id(self, alarm_id: int) -> Optional[Alarm]:
        """Return the member with ``alarm_id`` if present."""
        for alarm in self.alarms:
            if alarm.alarm_id == alarm_id:
                return alarm
        return None

    def __len__(self) -> int:
        return len(self.alarms)

    def __iter__(self):
        return iter(self.alarms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        labels = ", ".join(alarm.label for alarm in self.alarms)
        return f"QueueEntry#{self.entry_id}[{labels}]"
