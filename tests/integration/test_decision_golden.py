"""Golden decision streams: what every policy decided, record by record.

Each policy's decision procedure is pinned from the outside: the
workload runs with the decision audit sampling every decision, and the
test pins the record count and the sha256 of the JSONL of
``record.to_dict()``.  For NATIVE and SIMTY it also pins the telemetry
counter values and histogram totals (never timings), so the counts the
observers derive from a decision — ``simty.applicable{hw,time}``,
``native.candidates_scanned``, ``engine.events{type}`` and the rest —
stay exactly what they were.

Alarm and entry ids come from process-global counters, so they are
renumbered by first appearance in the stream before hashing.
"""

import hashlib
import json

import pytest

from repro.obs.audit import DecisionAudit
from repro.obs.telemetry import Telemetry
from repro.runner import RunSpec
from repro.runner.executor import execute_spec

CAPACITY = 1 << 16

#: (policy, workload) -> (record count, sha256 of the canonical JSONL).
GOLDEN_STREAMS = {
    ("native", "light"): (
        1106,
        "df9484f75ba1b93b30cf89ffbe53cfd01f893340a1ac294d50788cff8aa360d8",
    ),
    ("native", "heavy"): (
        1540,
        "02fe514484efaaddd6f6b89ffcbeb5ec48f34d1d7f2968925e548f0bc1997054",
    ),
    ("simty", "light"): (
        1024,
        "0234b18d92e864c8ea0e50e94c035178da2081af3c24fda8e312b68b9ef5cc29",
    ),
    ("simty", "heavy"): (
        1447,
        "e6d47e59eb0a2b7338da921cb25bb020884cfe7169b777f0d20421d514285413",
    ),
    ("simty+dur", "light"): (
        1031,
        "c84426d070adec36216208f019c28f3be2cc8747c3ec8ef44ac85b67ff053c7a",
    ),
    ("simty+dur", "heavy"): (
        1458,
        "b57ccc8085079eff9d3acccf3eff24074feaeced848ad1ae2d069b8ba425b287",
    ),
    ("bucket", "light"): (
        882,
        "e90ac4467c5b5f0a3706cb20bd8306bcff9ea741444309a0cc94f622161e7b54",
    ),
    ("bucket", "heavy"): (
        1303,
        "47759a1e77cb4e84aa34cb8fdccc19189bfc8136168c6fa0e1b21297b062e501",
    ),
}

#: (policy, workload) -> {counter: value}, {histogram: [count, total]}.
GOLDEN_TELEMETRY = {
    ("native", "light"): (
        {
            "engine.events{type=nonwakeup_batch}": 49,
            "engine.events{type=registration}": 127,
            "engine.events{type=wakeup_batch}": 780,
            "engine.watchdog.stalled": 813,
            "engine.watchdog.ticks": 2410,
            "manager.register{wakeup=false}": 60,
            "manager.register{wakeup=true}": 67,
            "manager.reinsert": 979,
            "native.searches": 1106,
        },
        {
            "native.candidates_pruned": [1106, 0.0],
            "native.candidates_scanned": [1106, 13601.0],
        },
    ),
    ("native", "heavy"): (
        {
            "engine.events{type=nonwakeup_batch}": 49,
            "engine.events{type=registration}": 133,
            "engine.events{type=wakeup_batch}": 781,
            "engine.watchdog.stalled": 819,
            "engine.watchdog.ticks": 2393,
            "manager.register{wakeup=false}": 60,
            "manager.register{wakeup=true}": 73,
            "manager.reinsert": 1407,
            "native.searches": 1540,
        },
        {
            "native.candidates_pruned": [1540, 0.0],
            "native.candidates_scanned": [1540, 19683.0],
        },
    ),
    ("simty", "light"): (
        {
            "engine.events{type=nonwakeup_batch}": 47,
            "engine.events{type=registration}": 127,
            "engine.events{type=wakeup_batch}": 225,
            "engine.watchdog.stalled": 269,
            "engine.watchdog.ticks": 826,
            "manager.register{wakeup=false}": 60,
            "manager.register{wakeup=true}": 67,
            "manager.reinsert": 897,
            "simty.applicable{hw=high,time=high}": 21,
            "simty.applicable{hw=high,time=medium}": 240,
            "simty.applicable{hw=low,time=high}": 157,
            "simty.applicable{hw=low,time=medium}": 525,
            "simty.applicable{hw=medium,time=high}": 3,
            "simty.new_entry": 276,
            "simty.searches": 1024,
            "simty.selected{hw=high,time=high}": 21,
            "simty.selected{hw=high,time=medium}": 223,
            "simty.selected{hw=low,time=high}": 121,
            "simty.selected{hw=low,time=medium}": 383,
        },
        {
            "simty.candidates_pruned": [1024, 0.0],
            "simty.candidates_scanned": [1024, 4705.0],
        },
    ),
    ("simty", "heavy"): (
        {
            "engine.events{type=nonwakeup_batch}": 47,
            "engine.events{type=registration}": 133,
            "engine.events{type=wakeup_batch}": 248,
            "engine.watchdog.stalled": 294,
            "engine.watchdog.ticks": 892,
            "manager.register{wakeup=false}": 60,
            "manager.register{wakeup=true}": 73,
            "manager.reinsert": 1314,
            "simty.applicable{hw=high,time=high}": 30,
            "simty.applicable{hw=high,time=medium}": 107,
            "simty.applicable{hw=low,time=high}": 324,
            "simty.applicable{hw=low,time=medium}": 770,
            "simty.applicable{hw=medium,time=high}": 27,
            "simty.applicable{hw=medium,time=medium}": 260,
            "simty.new_entry": 300,
            "simty.searches": 1447,
            "simty.selected{hw=high,time=high}": 30,
            "simty.selected{hw=high,time=medium}": 106,
            "simty.selected{hw=low,time=high}": 242,
            "simty.selected{hw=low,time=medium}": 497,
            "simty.selected{hw=medium,time=high}": 19,
            "simty.selected{hw=medium,time=medium}": 253,
        },
        {
            "simty.candidates_pruned": [1447, 0.0],
            "simty.candidates_scanned": [1447, 7384.0],
        },
    ),
}


def _renumber(records):
    """Canonical JSONL: alarm/entry ids by first appearance."""
    alarm_ids = {}
    entry_ids = {}
    lines = []
    for record in records:
        payload = record.to_dict()
        payload["alarm_id"] = alarm_ids.setdefault(
            payload["alarm_id"], len(alarm_ids)
        )
        if payload["chosen_entry"] is not None:
            payload["chosen_entry"] = entry_ids.setdefault(
                payload["chosen_entry"], len(entry_ids)
            )
        lines.append(json.dumps(payload, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def decision_stream(policy, workload):
    spec = RunSpec(workload=workload, policy=policy)
    audit = DecisionAudit.for_digest(
        spec.digest(), sample_rate=1.0, capacity=CAPACITY
    )
    telemetry = Telemetry()
    result = execute_spec(spec, telemetry=telemetry, audit=audit)
    records = result.trace.decisions
    assert len(records) < CAPACITY, "ring overflowed; raise CAPACITY"
    jsonl = _renumber(records)
    summary = telemetry.summary()
    counters = dict(sorted(summary.counters.items()))
    histograms = {
        name: [cell.count, cell.total]
        for name, cell in sorted(summary.histograms.items())
    }
    return (
        (len(records), hashlib.sha256(jsonl.encode()).hexdigest()),
        counters,
        histograms,
    )


@pytest.mark.parametrize("policy, workload", sorted(GOLDEN_STREAMS))
def test_decision_stream_matches_golden(policy, workload):
    stream, counters, histograms = decision_stream(policy, workload)
    assert stream == GOLDEN_STREAMS[(policy, workload)]
    golden = GOLDEN_TELEMETRY.get((policy, workload))
    if golden is not None:
        assert counters == golden[0]
        assert histograms == golden[1]
