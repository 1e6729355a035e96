"""NATIVE: Android 4.4's alignment policy (Sec. 2.1).

When an alarm is inserted, the manager sequentially examines the queue
entries to find one in which every member's window interval overlaps that of
the new alarm; the alarm joins the first such entry, otherwise a new entry is
created.  Because an entry maintains the running *intersection* of its
members' windows, the faithful (and Android-source-accurate, cf.
``Batch.canHold``) test is that the new alarm's window overlaps the entry's
intersected window — this guarantees pairwise overlap with every member *and*
that the intersection stays non-empty after the alarm joins.

Realignment: "if the same alarm still exists in the queue when an alarm is
to be reinserted, the alarm manager will reinsert all the other alarms,
together with the new alarm, into the queue according to their nominal
delivery times" — i.e. the whole queue is rebatched, mirroring Android's
``rebatchAllAlarms``.

The first-fit search (:meth:`NativePolicy._search`) stops at the first
overlapping candidate; the candidates after it ride on the result, and the
decision audit classifies them with the same :func:`_fits` predicate only
when it is on.
"""

from __future__ import annotations

from typing import List, Optional

from .alarm import Alarm
from .entry import QueueEntry
from .intervals import Interval
from .policy import AlignmentPolicy, SearchResult
from .queue import AlarmQueue


def _fits(entry: QueueEntry, window: Interval) -> bool:
    """NATIVE applicability: the entry's intersected window overlaps."""
    return entry.window is not None and entry.window.overlaps(window)


class NativePolicy(AlignmentPolicy):
    """Android's window-overlap batching with rebatch-on-stale-reinsert."""

    name = "NATIVE"
    grace_mode = False
    metric_prefix = "native"

    def insert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        queue.remove_alarm(alarm)
        return self._decide(queue, alarm, now)

    def reinsert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        stale = queue.remove_alarm(alarm)
        if stale is not None:
            return self._rebatch_with(queue, alarm, now)
        return self._decide(queue, alarm, now)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _search(self, queue: AlarmQueue, alarm: Alarm) -> SearchResult:
        window = alarm.window_interval()
        candidates = queue.window_candidates(window)
        remaining = iter(candidates)
        for index, entry in enumerate(remaining):
            if _fits(entry, window):
                return SearchResult(
                    entry,
                    len(candidates),
                    1,
                    rejections={"window-disjoint": index} if index else {},
                    unexamined=remaining,
                )
        disjoint = len(candidates)
        return SearchResult(
            None,
            disjoint,
            0,
            rejections={"window-disjoint": disjoint} if disjoint else {},
        )

    def _rejection(self, alarm: Alarm, entry: QueueEntry) -> Optional[str]:
        if _fits(entry, alarm.window_interval()):
            return None
        return "window-disjoint"

    def _rebatch_with(
        self, queue: AlarmQueue, alarm: Alarm, now: int
    ) -> QueueEntry:
        """Rebuild the whole queue in nominal-time order, then place alarm.

        Entries are built against a plain accumulator and loaded into the
        queue once at the end, so the backend pays one bulk ordering pass
        instead of a re-sort per re-inserted alarm.  Selecting the
        *minimum-key* overlapping entry from the accumulator is identical
        to the first-found scan over a sorted queue (queue order *is*
        ascending ``(delivery_time, entry_id)``), so the batching is
        bit-identical to re-inserting through the queue one alarm at a
        time.
        """
        alarms = queue.drain()
        alarms.append(alarm)
        alarms.sort(key=lambda item: (item.nominal_time, item.alarm_id))
        grace_mode = queue.grace_mode
        entries: List[QueueEntry] = []
        target: Optional[QueueEntry] = None
        for item in alarms:
            window = item.window_interval()
            best: Optional[QueueEntry] = None
            best_key = None
            for entry in entries:
                if entry.window is None or not entry.window.overlaps(window):
                    continue
                key = (entry.delivery_time(grace_mode), entry.entry_id)
                if best_key is None or key < best_key:
                    best, best_key = entry, key
            if best is not None:
                best.add(item)
            else:
                best = QueueEntry([item])
                entries.append(best)
            if item is alarm:
                target = best
        queue.rebuild(entries)
        assert target is not None
        result = SearchResult(target, len(alarms), len(entries))
        self._observe(result, "rebatch", alarm, now)
        return target
