"""SIMTY: the paper's similarity-based alignment policy (Sec. 3.2).

The policy works in two phases.  Given an alarm to insert (after removing any
stale instance of the same alarm):

* **Search phase** — scan the queue entries in delivery-time order and keep
  the *applicable* ones.  If either the alarm or the entry is perceptible,
  the entry is applicable only when their time similarity is *high* (window
  intervals overlap), which guarantees every perceptible alarm is delivered
  within its window.  When both sides are imperceptible, *medium* time
  similarity (grace overlap) also qualifies, so imperceptible alarms may be
  postponed — but never beyond their grace interval.

* **Selection phase** — among applicable entries pick the most *preferable*
  per Table 1: hardware similarity dominates, time similarity breaks ties,
  and the first-found entry wins among equals.

Both phases run as one pass over the candidates (:meth:`SimtyPolicy._search`),
which also keeps the counts the telemetry and the decision audit read:
rejections per reason and applicable candidates per Table-1 cell.  The
selection ranks by :meth:`SimtyPolicy.selection_key`, the one hook a
variant overrides (SIMTY+DUR adds a duration tie-break).

The hardware-similarity granularity is pluggable (Sec. 3.1.1 sketches 2- and
4-level alternatives); the default is the paper's three-level classifier.
"""

from __future__ import annotations

from typing import Optional

from .alarm import Alarm
from .entry import QueueEntry
from .policy import AlignmentPolicy, SearchResult
from .queue import AlarmQueue
from .similarity import (
    HardwareSimilarityClassifier,
    ThreeLevelHardware,
    TimeSimilarity,
    classify_time,
    preference,
)

_HIGH = TimeSimilarity.HIGH
_LOW = TimeSimilarity.LOW

#: Rejection reason for a perceptible pair, by its (non-high) time similarity.
_PERCEPTIBLE_REJECTIONS = {
    level: f"perceptible-time-{level.name.lower()}" for level in TimeSimilarity
}


class SimtyPolicy(AlignmentPolicy):
    """Similarity-based alignment with search and selection phases."""

    name = "SIMTY"
    grace_mode = True
    metric_prefix = "simty"

    def __init__(
        self,
        hardware_classifier: Optional[HardwareSimilarityClassifier] = None,
        queue_backend: Optional[str] = None,
    ) -> None:
        super().__init__(queue_backend=queue_backend)
        self.hardware_classifier = hardware_classifier or ThreeLevelHardware()

    @property
    def rank_names(self) -> tuple:
        return self.hardware_classifier.rank_names

    def insert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        # "we first remove the same alarm if it is still in the queue"
        queue.remove_alarm(alarm)
        return self._decide(queue, alarm, now)

    def selection_key(
        self,
        alarm: Alarm,
        entry: QueueEntry,
        hardware_rank: int,
        time_sim: TimeSimilarity,
    ):
        """Rank of an applicable entry; the lowest key wins (Table 1)."""
        return preference(hardware_rank, time_sim)

    def _search(self, queue: AlarmQueue, alarm: Alarm) -> SearchResult:
        """Both phases in one pass over the grace candidates.

        Applicability needs at least MEDIUM time similarity, i.e. grace
        overlap (window overlap implies it, since window ⊆ grace), so the
        grace-candidate query is an exact search-phase pre-filter.  The
        scan keeps the lowest selection key seen so far with a strict
        ``<``; entries arrive in queue order, so ties resolve to the
        first-found entry as the paper specifies.
        """
        window = alarm.window_interval()
        grace = alarm.grace_interval()
        perceptible = alarm.is_perceptible()
        hardware = alarm.hardware
        rank = self.hardware_classifier.rank
        selection_key = self.selection_key
        candidates = queue.grace_candidates(grace)
        rejections: dict = {}
        cells: dict = {}
        applicable = 0
        best: Optional[QueueEntry] = None
        best_key = None
        winner = None
        for entry in candidates:
            time_sim = classify_time(window, grace, entry.window, entry.grace)
            if perceptible or entry.is_perceptible():
                if time_sim is not _HIGH:
                    reason = _PERCEPTIBLE_REJECTIONS[time_sim]
                    rejections[reason] = rejections.get(reason, 0) + 1
                    continue
            elif time_sim is _LOW:
                rejections["time-low"] = rejections.get("time-low", 0) + 1
                continue
            applicable += 1
            cell = (rank(hardware, entry.hardware), time_sim)
            cells[cell] = cells.get(cell, 0) + 1
            key = selection_key(alarm, entry, *cell)
            if best_key is None or key < best_key:
                best, best_key, winner = entry, key, cell
        return SearchResult(
            best,
            len(candidates),
            applicable,
            rejections=rejections,
            cells=cells,
            winner=winner,
        )
