"""Duration-aware SIMTY: the paper's proposed extension (Sec. 5).

"A sensible extension of SIMTY is to align alarms that wakelock the same
hardware with the highest possible 'duration similarity', if the duration of
hardware wakelocking is specified during alarm registration."

This module implements that extension on the assumption (granted by the
paper's hypothetical future Android practice) that ``Alarm.task_duration``
is declared up front.  Applicability is unchanged — user-experience
guarantees are exactly SIMTY's, and so is the search: the policy only
overrides :meth:`~repro.core.simty.SimtyPolicy.selection_key`, so its
decisions report under SIMTY's ``simty.*`` telemetry.  The selection key
breaks Table 1 ties by *duration similarity*: the normalized distance
between the new alarm's task duration and the mean task duration of the
entry's members.  Aligning tasks of similar length maximizes the hardware
on-time that can actually be shared, which matters once component hold
energy (rather than activation energy) dominates.
"""

from __future__ import annotations

from .alarm import Alarm
from .entry import QueueEntry
from .simty import SimtyPolicy
from .similarity import TimeSimilarity, preference


def duration_dissimilarity(alarm: Alarm, entry: QueueEntry) -> float:
    """Normalized duration distance in ``[0, 1]``; 0 means identical.

    Uses the ratio of the shorter to the longer of (alarm duration, mean
    entry duration); two zero-duration sides are maximally similar.
    """
    entry_mean = sum(member.task_duration for member in entry) / len(entry)
    longer = max(alarm.task_duration, entry_mean)
    shorter = min(alarm.task_duration, entry_mean)
    if longer <= 0:
        return 0.0
    return 1.0 - shorter / longer


class DurationAwareSimtyPolicy(SimtyPolicy):
    """SIMTY with duration-similarity tie-breaking in the selection phase."""

    name = "SIMTY+DUR"

    def selection_key(
        self,
        alarm: Alarm,
        entry: QueueEntry,
        hardware_rank: int,
        time_sim: TimeSimilarity,
    ):
        return (
            preference(hardware_rank, time_sim),
            duration_dissimilarity(alarm, entry),
        )
