"""Alignment-policy interface.

A policy decides, for each alarm being inserted (or reinserted after a
repeating delivery), which queue entry the alarm joins.  Policies are pure
queue transformations — they know nothing about energy or devices — so they
can be unit-tested in isolation and benchmarked for insertion cost (P1).

Both Android's NATIVE policy and SIMTY are applied to wakeup and non-wakeup
alarms *separately* (Sec. 2.1, 3.2.1); the alarm manager owns one queue per
class and calls the same policy object on each.

Every policy carries a ``queue_backend`` selection (default: the
paper-faithful ``"list"`` backend) that :meth:`make_queue` threads into the
queues it creates; the simulator can override it per run through
``SimulatorConfig.queue_backend``.  Backend choice never changes a policy
decision — only the cost of reaching it (see :mod:`repro.core.backend`).

Each searching policy writes its decision once, as a ``_search`` that
returns a :class:`SearchResult`.  :meth:`AlignmentPolicy._decide` places
the alarm from that result; only when telemetry or the decision audit is
on does it also time the search and hand the result to one observer,
:meth:`AlignmentPolicy._observe`, which derives the ``<prefix>.*``
counters, histograms and the sampled
:class:`~repro.obs.audit.DecisionRecord` from it.  Nothing is
instrumented by a second copy of the search.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from ..obs.audit import NULL_AUDIT
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .alarm import Alarm
from .backend import BACKEND_NAMES, DEFAULT_BACKEND
from .entry import QueueEntry
from .queue import AlarmQueue
from .similarity import TimeSimilarity, preference

#: Telemetry label of each time-similarity level.
_TIME_LABELS = {level: level.name.lower() for level in TimeSimilarity}


@dataclass
class SearchResult:
    """What one alignment decision found, as plain data.

    ``entry`` is the queue entry the alarm joins (``None``: it opens a new
    one).  ``scanned`` counts the candidates the search examined,
    ``applicable`` those that passed its applicability test and
    ``rejections`` tallies the others by reason.  A classifying search
    (SIMTY) also fills ``cells`` — applicable candidates per
    (hardware rank, time similarity) Table-1 cell — and ``winner``, the
    chosen entry's cell.  ``unexamined`` holds the candidates a first-fit
    search never looked at; the observer classifies them only for an
    audited decision.  ``deferral_ms`` is set by a policy whose delivery
    time does not follow from ``entry`` (BUCKET).
    """

    entry: Optional[QueueEntry]
    scanned: int
    applicable: int
    rejections: Dict[str, int] = field(default_factory=dict)
    cells: Dict[Tuple[int, TimeSimilarity], int] = field(default_factory=dict)
    winner: Optional[Tuple[int, TimeSimilarity]] = None
    unexamined: Iterable[QueueEntry] = ()
    deferral_ms: Optional[int] = None


class AlignmentPolicy(ABC):
    """Strategy deciding where a new alarm lands in the queue."""

    #: Short name used in reports ("NATIVE", "SIMTY", ...).
    name: str = "abstract"

    #: Whether queues under this policy compute entry delivery times with
    #: the grace rule for imperceptible entries (True only for SIMTY).
    grace_mode: bool = False

    #: Prefix of the telemetry this policy's decisions emit
    #: (``<prefix>.searches``, ``<prefix>.search``, ...).
    metric_prefix: str = "policy"

    #: Label per hardware-similarity rank for policies that classify
    #: candidates per Table 1; empty for those that do not.
    rank_names: tuple = ()

    #: Telemetry hub for instrumented policies (class-level null default so
    #: policies constructed outside a Simulator stay zero-cost).
    telemetry: Telemetry = NULL_TELEMETRY

    #: Decision-audit recorder (class-level null default, same zero-cost
    #: contract as ``telemetry``).  When enabled, each insert/rebatch
    #: decision draws exactly one sample from its digest-seeded LCG.
    audit = NULL_AUDIT

    #: Queue-backend selection for queues this policy creates.  A class
    #: attribute so subclasses that define their own ``__init__`` without
    #: chaining to ``super()`` still get the paper-faithful default.
    queue_backend: str = DEFAULT_BACKEND

    def __init__(self, queue_backend: Optional[str] = None) -> None:
        if queue_backend is not None:
            if queue_backend not in BACKEND_NAMES:
                raise ValueError(
                    f"unknown queue backend {queue_backend!r}; choose from "
                    f"{list(BACKEND_NAMES)}"
                )
            self.queue_backend = queue_backend

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        """Attach the run's telemetry hub (the Simulator calls this)."""
        self.telemetry = telemetry

    def bind_audit(self, audit) -> None:
        """Attach the run's decision-audit recorder (Simulator calls this)."""
        self.audit = audit

    def make_queue(self, backend: Optional[str] = None) -> AlarmQueue:
        """Create a queue configured for this policy's delivery-time rule.

        ``backend`` overrides the policy's own ``queue_backend`` selection
        (the alarm manager passes the simulator config's choice through).
        """
        return AlarmQueue(
            grace_mode=self.grace_mode,
            backend=backend if backend is not None else self.queue_backend,
        )

    @abstractmethod
    def insert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        """Place ``alarm`` into ``queue`` and return the entry it joined.

        Implementations must first remove any stale instance of the same
        alarm (matched by id) already in the queue.
        """

    def reinsert(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        """Re-queue a repeating alarm immediately after its delivery.

        The default simply delegates to :meth:`insert`; NATIVE overrides
        this to trigger its realignment behaviour when a stale instance is
        still queued (Sec. 2.1).
        """
        return self.insert(queue, alarm, now)

    # ------------------------------------------------------------------
    # The one decision path
    # ------------------------------------------------------------------
    def _search(self, queue: AlarmQueue, alarm: Alarm) -> SearchResult:
        """Find where ``alarm`` goes; must not mutate the queue."""
        raise NotImplementedError

    def _decide(self, queue: AlarmQueue, alarm: Alarm, now: int) -> QueueEntry:
        """Search, observe when anything is watching, then place."""
        if self.telemetry.enabled or self.audit.enabled:
            # Interned: every retained span event holds its name, and one
            # string per decision would grow a long-lived hub.
            span = sys.intern(f"{self.metric_prefix}.search")
            with self.telemetry.span(span, alarm=alarm.label):
                result = self._search(queue, alarm)
            self._observe(result, "insert", alarm, now, len(queue))
        else:
            result = self._search(queue, alarm)
        return self._place(queue, alarm, result)

    def _place(
        self, queue: AlarmQueue, alarm: Alarm, result: SearchResult
    ) -> QueueEntry:
        if result.entry is None:
            return self._place_in_new_entry(queue, alarm)
        return self._place_in_entry(queue, result.entry, alarm)

    def _place_in_new_entry(
        self, queue: AlarmQueue, alarm: Alarm
    ) -> QueueEntry:
        entry = QueueEntry([alarm])
        queue.add_entry(entry)
        return entry

    def _place_in_entry(
        self, queue: AlarmQueue, entry: QueueEntry, alarm: Alarm
    ) -> QueueEntry:
        queue.add_to_entry(entry, alarm)
        return entry

    def _rejection(self, alarm: Alarm, entry: QueueEntry) -> Optional[str]:
        """Why ``entry`` is not applicable for ``alarm`` (None: it is).

        Only consulted for a result's ``unexamined`` candidates.
        """
        raise NotImplementedError

    def _observe(
        self,
        result: SearchResult,
        kind: str,
        alarm: Alarm,
        now: int,
        queue_size: int = 0,
    ) -> None:
        """Turn one decision into telemetry and a decision-audit record.

        An insert is observed before the alarm is placed, so the winner's
        deferral is the one the decision bought.  ``kind`` is ``"insert"``
        or NATIVE's ``"rebatch"``, observed once the queue is rebuilt with
        ``entry`` holding the alarm (a new entry when it is alone there).
        """
        tel = self.telemetry
        prefix = self.metric_prefix
        rank_names = self.rank_names
        winner = result.winner
        if tel.enabled:
            if kind == "rebatch":
                tel.count(f"{prefix}.rebatches")
                tel.observe(f"{prefix}.rebatch_alarms", result.scanned)
            else:
                tel.count(f"{prefix}.searches")
                tel.observe(f"{prefix}.candidates_scanned", result.scanned)
                tel.observe(
                    f"{prefix}.candidates_pruned", queue_size - result.scanned
                )
            if rank_names:
                for (hw, time_sim), count in result.cells.items():
                    tel.count(
                        f"{prefix}.applicable",
                        count,
                        hw=rank_names[hw],
                        time=_TIME_LABELS[time_sim],
                    )
                if winner is not None:
                    tel.count(
                        f"{prefix}.selected",
                        hw=rank_names[winner[0]],
                        time=_TIME_LABELS[winner[1]],
                    )
                else:
                    tel.count(f"{prefix}.new_entry")
        if not self.audit.enabled:
            return
        applicable = result.applicable
        rejections = dict(result.rejections)
        for entry in result.unexamined:
            reason = self._rejection(alarm, entry)
            if reason is None:
                applicable += 1
            else:
                rejections[reason] = rejections.get(reason, 0) + 1
        entry = result.entry
        deferral_ms = result.deferral_ms
        if deferral_ms is None:
            deferral_ms = (
                entry.delivery_time(self.grace_mode) - alarm.nominal_time
                if entry is not None
                else 0
            )
        self.audit.record(
            policy=self.name,
            kind=kind,
            time=now,
            alarm_id=alarm.alarm_id,
            label=alarm.label,
            app=alarm.app,
            wakeup=alarm.wakeup,
            perceptible=alarm.is_perceptible(),
            nominal_time=alarm.nominal_time,
            scanned=result.scanned,
            applicable=applicable,
            rejections=tuple(sorted(rejections.items())),
            chosen_entry=entry.entry_id if entry is not None else None,
            new_entry=len(entry) == 1 if kind == "rebatch" else entry is None,
            hw=rank_names[winner[0]] if winner is not None else None,
            time_sim=_TIME_LABELS[winner[1]] if winner is not None else None,
            table1_rank=(
                int(preference(*winner)) if winner is not None else None
            ),
            deferral_ms=deferral_ms,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
