"""Checkpointed sweeps: an append-only journal of completed run digests.

A long sweep that dies mid-batch (power loss, OOM kill, ctrl-C) leaves the
on-disk :class:`~repro.runner.cache.ResultCache` in an ambiguous state: a
``<digest>.pkl`` may exist for a run whose completion was never observed by
the sweep.  The journal removes the ambiguity.  ``run_many`` appends one
JSON line per *completed* digest — after the result is committed to the
cache — so on ``--resume`` only journaled digests are trusted to the cache
and everything else is re-executed, however the previous invocation died.

The file mechanics (torn-tail sealing, fsync, tolerant reads) are the
shared :class:`~repro.durable.DurableLog` contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import FrozenSet, Optional, Union

from ..durable import DurableLog
from .record import RunStatus

#: File name used when a journal is derived from a cache directory.
JOURNAL_NAME = "journal.jsonl"


class RunJournal(DurableLog):
    """Append-only record of terminally-resolved run digests.

    ``completed()`` exposes only digests that finished with an ok status;
    failed and timed-out digests are journaled too (for post-mortems) but
    are re-executed on resume.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        # fsync every completion: resume trusts a journaled digest's cache
        # entry, so the line must be durable before the next run starts.
        super().__init__(path, sync_every=1)
        self._completed: set = set()
        self.load()

    @classmethod
    def at(cls, cache_dir: Union[str, Path]) -> "RunJournal":
        """The journal living alongside a cache directory's entries."""
        return cls(Path(cache_dir) / JOURNAL_NAME)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def load(self) -> None:
        """(Re)read the journal from disk."""
        self._completed.clear()
        for entry in self.read().records:
            digest = entry.get("digest")
            try:
                status = RunStatus(entry.get("status", "ok"))
            except ValueError:
                continue  # foreign line; not a completion
            if isinstance(digest, str) and status.is_ok:
                self._completed.add(digest)

    def record(self, digest: str, status: RunStatus = RunStatus.OK) -> None:
        """Append one completion; idempotent for already-journaled digests."""
        if digest in self._completed:
            return
        self.append({"digest": digest, "status": status.value})
        if status.is_ok:
            self._completed.add(digest)

    def reset(self) -> None:
        """Start a fresh journal (used by non-resume invocations)."""
        self._completed.clear()
        super().reset()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def completed(self) -> FrozenSet[str]:
        return frozenset(self._completed)

    def __contains__(self, digest: str) -> bool:
        return digest in self._completed

    def __len__(self) -> int:
        return len(self._completed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunJournal({str(self.path)!r}, completed={len(self._completed)})"


def journal_for(
    cache_dir: Optional[Union[str, Path]]
) -> Optional[RunJournal]:
    """A journal for ``cache_dir``, or None when no directory is configured."""
    if cache_dir is None:
        return None
    return RunJournal.at(cache_dir)
