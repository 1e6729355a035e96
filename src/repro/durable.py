"""One durable log: the append-only JSONL file under every journal.

Four logs persist state as one JSON object per line: the sweep checkpoint
(:class:`~repro.runner.journal.RunJournal`), the service write-ahead log
(:class:`~repro.service.journal.ServiceJournal`), the fleet shard journals
(:class:`~repro.fleet.executor.ShardJournal`) and the telemetry spool
(:class:`~repro.obs.stream.SpoolSink`, tailed by
:meth:`~repro.obs.stream.Collector.scan`).  A consumer keeps only its
record schema and its queries; the file mechanics live here, once:

* **Append.**  One ``json.dumps(sort_keys=True)`` line per record, put on
  disk by a single write.
* **Torn-tail sealing.**  A crash mid-append leaves a partial last line
  without a newline.  The next append starts a fresh line first, so its
  record is never glued onto the garbage and lost with it.
* **fsync every N appends.**  ``sync_every=N`` fsyncs on every N-th
  append, and ``append(..., sync=True)`` fsyncs at once; ``None`` only
  flushes and never fsyncs.
* **Directory fsync.**  Creating, rewriting or removing the file fsyncs
  its parent directory: the file's fsync makes its bytes durable, the
  directory's makes its name durable.
* **Fresh rewrite.**  :meth:`DurableLog.rewrite` truncates the log to one
  first record (a shard re-attempt starts over).
* **Tolerant reads.**  :func:`read_log` returns the records after a byte
  offset plus the offset to resume from.  It skips torn, undecodable and
  non-object lines and leaves an incomplete last line for the next read.
  Loading a whole log is a read from offset 0.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["DurableLog", "LogChunk", "read_log"]


@dataclass(frozen=True)
class LogChunk:
    """What one read of a log returned."""

    records: List[Dict]
    #: Byte offset just past the last line consumed; pass it to the next
    #: read to tail the log.
    offset: int
    #: Complete lines that were not a JSON object (torn or foreign).
    skipped: int


def _decode(line: bytes) -> Optional[Dict]:
    try:
        record = json.loads(line)
    except ValueError:  # includes UnicodeDecodeError
        return None
    return record if isinstance(record, dict) else None


def read_log(path: Union[str, Path], offset: int = 0) -> LogChunk:
    """The records of ``path`` after byte ``offset``, read tolerantly.

    A line counts once it ends in a newline, or once it is the last line
    and decodes on its own (its newline was torn off; the next append
    seals it, so counting it now keeps every later read consistent).
    Anything else at the end is left unconsumed for the next read.  A
    file shorter than ``offset`` was replaced and is read from the start;
    a missing or unreadable file reads as empty.
    """
    try:
        with open(path, "rb") as handle:
            if handle.seek(0, os.SEEK_END) < offset:
                offset = 0
            handle.seek(offset)
            data = handle.read()
    except OSError:
        return LogChunk([], offset, 0)
    lines = data.split(b"\n")
    tail = lines.pop()
    records: List[Dict] = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        record = _decode(line)
        if record is None:
            skipped += 1
        else:
            records.append(record)
    end = offset + len(data) - len(tail)
    if tail.strip():
        record = _decode(tail)
        if record is not None:
            records.append(record)
            end += len(tail)
    return LogChunk(records, end, skipped)


def _fsync_dir(directory: Path) -> None:
    """Make a directory's entries durable.  A platform that cannot fsync
    a directory only loses that upgrade; it never fails the caller."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class DurableLog:
    """An append-only JSONL file with the sealing and fsync rules above.

    ``sync_every`` is how many appends may pass between fsyncs (1: every
    append is durable when it returns; ``None``: flush only, and no
    directory fsync either).  Each consumer fixes it as a constant.
    """

    def __init__(
        self, path: Union[str, Path], sync_every: Optional[int]
    ) -> None:
        self.path = Path(path)
        self.sync_every = sync_every
        self._unsynced = 0

    def append(self, record: Dict, sync: bool = False) -> None:
        """Append one record; fsync it if ``sync`` or the interval is due.

        An ``OSError`` from the write or the fsync reaches the caller, so
        a consumer updates its in-memory state only after this returns.
        """
        due = sync or (
            self.sync_every is not None
            and self._unsynced + 1 >= self.sync_every
        )
        self._write(json.dumps(record, sort_keys=True) + "\n", due)
        self._unsynced = 0 if due else self._unsynced + 1

    def rewrite(self, record: Dict) -> None:
        """Truncate the log to ``record`` alone, durably."""
        line = json.dumps(record, sort_keys=True) + "\n"
        self._write(line, True, fresh=True)
        self._unsynced = 0

    def reset(self) -> None:
        """Remove the log, durably; the next append starts a new file."""
        self._unsynced = 0
        try:
            self.path.unlink()
        except FileNotFoundError:
            return
        if self.sync_every is not None:
            _fsync_dir(self.path.parent)

    def read(self, offset: int = 0) -> LogChunk:
        return read_log(self.path, offset)

    def _write(self, text: str, sync: bool, fresh: bool = False) -> None:
        """Put whole lines at the end of the file (``fresh``: in place of
        it).  The one write seam: fault injection overrides this."""
        created = fresh or not self.path.exists()
        if created:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "wb" if fresh else "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    text = "\n" + text  # seal the torn tail onto its own line
            handle.write(text.encode("utf-8"))
            handle.flush()
            if sync:
                os.fsync(handle.fileno())
        if created and self.sync_every is not None:
            _fsync_dir(self.path.parent)
