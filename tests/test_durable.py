"""The durable log contract, tortured through every consumer.

The sweep journal, the service journal, the fleet shard journal and the
telemetry spool all write through :class:`repro.durable.DurableLog`.  One
parametrized suite holds each of them to the same contract:

* a crash can tear the last record at any byte; a fresh load keeps every
  earlier record, and an append after the resume survives the next load;
* a duplicated line never changes what the consumer reports;
* a failed fsync reaches the caller and leaves no trace in the consumer's
  in-memory state (the spool never fsyncs and drops instead of raising).
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import pytest

import repro.durable as durable
from repro.durable import DurableLog, read_log
from repro.fleet.executor import (
    SHARD_SYNC_EVERY,
    ShardJournal,
    scan_attempted,
)
from repro.obs.stream import Collector, SpoolSink
from repro.runner import RunJournal
from repro.service import ServiceJournal


@dataclass
class Consumer:
    """How one log consumer opens, appends and reports."""

    name: str
    file: str
    #: A fresh process's handle on the log in ``directory``.
    open: Callable[[Path], object]
    append: Callable[[object, int], None]
    #: What a fresh load of ``directory`` reports.
    load: Callable[[Path], object]
    #: The report expected when exactly ``ids`` survived.
    expect: Callable[[List[int]], object]
    #: An append that must be durable when it returns (None: the
    #: consumer never fsyncs).
    synced: Optional[Callable[[object, int], None]]
    #: The consumer's in-memory state.
    state: Callable[[object], object]


def _spool_record(i: int) -> dict:
    return {
        "schema": 1,
        "kind": "delta",
        "source": "src",
        "seq": i + 1,
        "wall": 0.0,
        "summary": {"counters": {f"r{i}": 1}},
    }


def _spool_load(directory: Path):
    collector = Collector(spool_dir=directory)
    collector.scan()
    return sorted(int(name[1:]) for name in collector.rolling().counters)


CONSUMERS = [
    Consumer(
        "sweep",
        "journal.jsonl",
        lambda d: RunJournal.at(d),
        lambda log, i: log.record(f"d{i}"),
        lambda d: RunJournal.at(d).completed(),
        lambda ids: {f"d{i}" for i in ids},
        lambda log, i: log.record(f"d{i}"),
        lambda log: log.completed(),
    ),
    Consumer(
        "service",
        "service.journal.jsonl",
        lambda d: ServiceJournal.at(d),
        lambda log, i: log.append({"kind": "watermark", "t": i}),
        # Replay applies each seq once, so that is what survives.
        lambda d: sorted(
            {(e["seq"], e["t"]) for e in ServiceJournal.at(d).entries}
        ),
        lambda ids: [(seq, i) for seq, i in enumerate(ids)],
        lambda log, i: log.append({"kind": "watermark", "t": i}),
        lambda log: log.entries,
    ),
    Consumer(
        "shard",
        "shard.jsonl",
        lambda d: ShardJournal(d / "shard.jsonl"),
        lambda log, i: log.device(i, "ok"),
        lambda d: scan_attempted(d / "shard.jsonl"),
        len,
        # The header, quarantine and seal records are synced at once.
        lambda log, i: log.seal({"devices": i}),
        lambda log: None,  # a shard journal keeps nothing in memory
    ),
    Consumer(
        "spool",
        "src.jsonl",
        lambda d: SpoolSink(d),
        lambda sink, i: sink.emit("src", _spool_record(i)),
        _spool_load,
        sorted,
        None,
        lambda sink: sink.dropped,
    ),
]


@pytest.fixture(params=CONSUMERS, ids=lambda c: c.name)
def consumer(request):
    return request.param


def _last_line_span(path: Path):
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    return data, start


def test_torn_at_every_byte_of_the_last_record(consumer, tmp_path):
    reference = tmp_path / "reference"
    log = consumer.open(reference)
    for i in range(3):
        consumer.append(log, i)
    data, start = _last_line_span(reference / consumer.file)

    for cut in range(start, len(data)):
        directory = tmp_path / f"cut-{cut}"
        directory.mkdir()
        (directory / consumer.file).write_bytes(data[:cut])
        # Only the newline missing: the record itself is whole.
        kept = [0, 1, 2] if cut == len(data) - 1 else [0, 1]
        assert consumer.load(directory) == consumer.expect(kept), cut

        resumed = consumer.open(directory)
        consumer.append(resumed, len(kept))
        assert consumer.load(directory) == consumer.expect(
            kept + [len(kept)]
        ), cut


def test_duplicate_line_changes_nothing(consumer, tmp_path):
    log = consumer.open(tmp_path)
    for i in range(3):
        consumer.append(log, i)
    path = tmp_path / consumer.file
    data, start = _last_line_span(path)
    path.write_bytes(data + data[start:])
    assert consumer.load(tmp_path) == consumer.expect([0, 1, 2])


def _failing_fsync(fd):
    raise OSError("injected fsync failure")


@pytest.mark.parametrize(
    "consumer",
    [c for c in CONSUMERS if c.synced is not None],
    ids=lambda c: c.name,
)
def test_failed_fsync_reaches_the_caller_and_changes_no_state(
    consumer, tmp_path, monkeypatch
):
    log = consumer.open(tmp_path)
    consumer.synced(log, 0)
    before = consumer.state(log)
    monkeypatch.setattr(durable.os, "fsync", _failing_fsync)
    with pytest.raises(OSError, match="injected"):
        consumer.synced(log, 1)
    assert consumer.state(log) == before


def test_spool_never_fsyncs_and_drops_a_failed_write(tmp_path, monkeypatch):
    monkeypatch.setattr(durable.os, "fsync", _failing_fsync)
    sink = SpoolSink(tmp_path)
    sink.emit("src", _spool_record(0))
    assert _spool_load(tmp_path) == [0]

    def failing_write(self, text, sync, fresh=False):
        raise OSError("injected write failure")

    monkeypatch.setattr(DurableLog, "_write", failing_write)
    sink.emit("src", _spool_record(1))
    assert sink.dropped == 1
    monkeypatch.undo()
    assert _spool_load(tmp_path) == [0]


# ----------------------------------------------------------------------
# The primitive itself
# ----------------------------------------------------------------------
def _count_fsyncs(monkeypatch):
    calls = []
    real = durable.os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(durable.os, "fsync", counting)
    return calls


def test_fsync_cadence_and_forced_syncs(tmp_path, monkeypatch):
    log = DurableLog(tmp_path / "log.jsonl", sync_every=SHARD_SYNC_EVERY)
    log.append({"n": -1})  # creates the file: one directory fsync
    calls = _count_fsyncs(monkeypatch)
    for n in range(2 * SHARD_SYNC_EVERY):
        log.append({"n": n})
    log.append({"n": "forced"}, sync=True)
    assert len(calls) == 3
    assert len(read_log(log.path).records) == 2 * SHARD_SYNC_EVERY + 2


def test_directory_is_fsynced_on_create_rewrite_and_reset(tmp_path, monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    log = DurableLog(tmp_path / "log.jsonl", sync_every=1)
    log.append({"n": 0})  # file + directory
    log.append({"n": 1})  # file only
    log.rewrite({"n": 2})  # file + directory
    log.reset()  # directory
    log.reset()  # nothing left to remove
    assert len(calls) == 6
    assert not log.path.exists()


def test_rewrite_replaces_the_log(tmp_path):
    log = DurableLog(tmp_path / "log.jsonl", sync_every=1)
    log.append({"n": 0})
    log.rewrite({"n": 1})
    assert read_log(log.path).records == [{"n": 1}]


def test_tailing_returns_only_complete_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 0}\n[1]\n\n{"n": 1')
    chunk = read_log(path)
    assert chunk.records == [{"n": 0}]
    assert chunk.skipped == 1  # the non-object line
    assert chunk.offset == len(b'{"n": 0}\n[1]\n\n')

    with path.open("ab") as handle:
        handle.write(b'}\n{"n": 2}\n')
    chunk = read_log(path, chunk.offset)
    assert chunk.records == [{"n": 1}, {"n": 2}]
    assert chunk.offset == path.stat().st_size
    assert read_log(path, chunk.offset).records == []


def test_a_replaced_log_is_read_from_the_start(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 0}\n{"n": 1}\n')
    offset = read_log(path).offset
    path.write_bytes(b'{"n": 9}\n')
    assert read_log(path, offset).records == [{"n": 9}]


def test_missing_and_undecodable_logs_read_as_empty(tmp_path):
    assert read_log(tmp_path / "absent.jsonl").records == []
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_bytes(b"\x00\xffnot json\n\xfe\n")
    chunk = read_log(garbage)
    assert chunk.records == [] and chunk.skipped == 2
