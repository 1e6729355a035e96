"""BUCKET: fixed-interval forced alignment (the intro's "immediate remedy").

The paper's introduction cites an earlier mitigation [Lin et al., ISLPED'15]
that "allows a smartphone to be awakened only at a fixed time interval by
forcibly aligning background activities within each interval".  This policy
implements that remedy as a third comparator: every wakeup alarm is forced
to the next multiple of ``bucket_interval`` at or after its nominal time,
regardless of its window.

It brackets SIMTY from the other side of the design space: with a large
bucket it produces the fewest wakeups of all policies but violates window
(and even grace) intervals of perceptible alarms — exactly the
user-experience loss similarity-based alignment is designed to avoid.  The
A4 bench sweeps the bucket interval against SIMTY.
"""

from __future__ import annotations

from typing import Optional

from .alarm import Alarm
from .entry import QueueEntry
from .intervals import Interval
from .policy import AlignmentPolicy, SearchResult
from .queue import AlarmQueue


class FixedIntervalPolicy(AlignmentPolicy):
    """Force every alarm to the next fixed-interval boundary."""

    name = "BUCKET"
    grace_mode = False
    metric_prefix = "bucket"

    def __init__(
        self,
        bucket_interval: int = 300_000,
        queue_backend: Optional[str] = None,
    ) -> None:
        super().__init__(queue_backend=queue_backend)
        if bucket_interval <= 0:
            raise ValueError("bucket interval must be positive")
        self.bucket_interval = bucket_interval

    def bucket_time(self, nominal: int) -> int:
        """The first boundary at or after ``nominal``."""
        interval = self.bucket_interval
        return ((nominal + interval - 1) // interval) * interval

    def insert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        queue.remove_alarm(alarm)
        return self._decide(queue, alarm, now)

    def _search(self, queue: AlarmQueue, alarm: Alarm) -> SearchResult:
        boundary = self.bucket_time(alarm.nominal_time)
        # Bucket entries carry the zero-width window [boundary, boundary],
        # so the zero-width probe finds exactly the entries anchored at (or
        # spanning) the boundary; the start == boundary check then picks
        # this bucket's own entry.
        scanned = 0
        chosen: Optional[QueueEntry] = None
        for entry in queue.window_candidates(Interval(boundary, boundary)):
            scanned += 1
            if entry.window is not None and entry.window.start == boundary:
                chosen = entry
                break
        mismatched = scanned - 1 if chosen is not None else scanned
        return SearchResult(
            chosen,
            scanned,
            0 if chosen is None else 1,
            rejections={"bucket-mismatch": mismatched} if mismatched else {},
            deferral_ms=boundary - alarm.nominal_time,
        )

    def _place(
        self, queue: AlarmQueue, alarm: Alarm, result: SearchResult
    ) -> QueueEntry:
        # The bucket boundary, not the members' interval algebra, defines
        # the delivery time: a joined entry is pulled out, grown, re-pinned
        # and re-indexed; a new one is pinned from the start.
        boundary = self.bucket_time(alarm.nominal_time)
        pinned = Interval(boundary, boundary)
        entry = result.entry
        if entry is None:
            entry = QueueEntry([alarm])
        else:
            queue.remove_entry(entry)
            entry.add(alarm)
        entry.window = pinned
        entry.grace = pinned
        queue.add_entry(entry)
        return entry
