"""``fleet``: a ``standard``-archetype population through ``run_fleet``.

Shard workers, one per core, with sealed shard journals in a temp dir.
It is the only workload that runs SIMTY+DUR and BUCKET, the population
derivation, pool supervision and the reduce.

Device cost varies widely within the standard mix (a power user costs
about 25 wearables), so ``devices_per_s`` repeats across seeds only when
a run averages over many distinct devices.  Two choices serve that:
every iteration runs a fresh population derived from ``--seed`` and the
iteration number, and every archetype keeps its policy and sampled
knobs but simulates 1 h instead of 3 h, so a run covers about three
times as many devices.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from pathlib import Path
from typing import Dict, List

from repro.fleet import executor as fleet_executor
from repro.fleet.executor import FleetConfig, run_fleet
from repro.fleet.population import STANDARD_ARCHETYPES, PopulationSpec
from repro.fleet.reduce import ShardSummary

from harness import Run, Tracer

DEVICES = 200
HORIZON_MS = 3_600_000
SNAPSHOT_GLOB = "perfbench-shard-*.json"


def workers() -> int:
    return len(os.sched_getaffinity(0))


def instrument_fleet(tracer: Tracer) -> None:
    """Spans in the parent and in every forked shard worker.  A worker's
    spans come back as a snapshot file next to its shard journal."""
    run_shard = fleet_executor.run_shard

    def traced_run_shard(population, plan, config, fleet_dir, attempt=1):
        in_worker = os.getpid() != tracer.pid
        if in_worker:
            tracer.reset()  # drop what the fork copied from the parent
        with tracer.span("fleet.shard"):
            summary = run_shard(population, plan, config, fleet_dir, attempt)
        if in_worker:
            path = Path(fleet_dir) / f"perfbench-shard-{plan.shard}.json"
            path.write_text(json.dumps(tracer.snapshot()))
        return summary

    tracer.patch(fleet_executor, "run_shard", traced_run_shard)
    tracer.trace_method(fleet_executor, "run_supervised_serial", "fleet.device")
    tracer.trace_method(
        fleet_executor, "merge_shard_summaries", "fleet.reduce"
    )
    tracer.trace_method(ShardSummary, "observe", "fleet.reduce")
    tracer.patch(
        PopulationSpec,
        "devices",
        tracer.wrap_iter(PopulationSpec.devices, "fleet.population"),
    )


class Fleet:
    min_iterations = 2

    def __init__(self, run: Run) -> None:
        self.run = run
        self.iterations = 0
        self.devices = 0
        self.deliveries = 0
        self.fleet_s = 0.0
        self.archetypes = tuple(
            dataclasses.replace(
                archetype,
                workload_kwargs=dict(archetype.workload_kwargs, horizon=HORIZON_MS),
            )
            for archetype in STANDARD_ARCHETYPES
        )
        self.bucket_archetypes = {
            archetype.name
            for archetype in self.archetypes
            if archetype.policy == "bucket"
        }
        run.time_setup(self._setup, Path.rmdir)

    def _population(self, which: int) -> PopulationSpec:
        """Population ``which`` of this seed, every device derived (and
        so validated) once."""
        population = PopulationSpec(
            size=DEVICES,
            archetypes=self.archetypes,
            seed=self.run.seed * 1_000 + which,
            name="standard-1h",
        )
        self.run.check(
            len(list(population.devices())) == DEVICES,
            "fleet: population derivation lost devices",
        )
        return population

    def _setup(self):
        """The set-up of one iteration: population build and fleet dir."""
        self._population(self.iterations)
        return self.run.tempdir("fleet-")

    def iteration(self, traced: bool) -> Dict:
        run = self.run
        # A traced iteration reruns the population of the untraced one
        # before it, so the two compare for trace_overhead_pct.
        population = self._population(
            self.iterations // 2 if run.trace else self.iterations
        )
        self.iterations += 1
        fleet_dir = run.tempdir("fleet-")
        if traced:
            instrument_fleet(run.tracer)

        mark = run.calibration.mark()
        with run.calibration.sampling():
            started = time.perf_counter()
            report = run_fleet(
                population,
                FleetConfig(workers=workers(), shards=2 * workers()),
                fleet_dir=fleet_dir,
            )
            elapsed = time.perf_counter() - started
        run.operations(report.size, report.size - report.completed)
        run.check(
            report.completed == population.size,
            f"fleet: {report.completed} of {population.size} devices completed",
        )
        # BUCKET forces alarms onto fixed boundaries regardless of their
        # windows (see repro.core.bucket), so its devices violate Sec. 3.2.2
        # by design; every other archetype must not.
        unexpected = {
            name: count
            for name, count in report.summary.archetype_violations.items()
            if count and name not in self.bucket_archetypes
        }
        run.check(not unexpected, f"fleet: monitor violations {unexpected}")
        journal_appends = 0
        for path in fleet_dir.rglob("*"):
            if path.match(SNAPSHOT_GLOB):
                run.tracer.merge(json.loads(path.read_text()))
            elif path.suffix == ".jsonl":
                with path.open(encoding="utf-8") as handle:
                    journal_appends += sum(1 for _ in handle)
        shutil.rmtree(fleet_dir)
        telemetry = report.telemetry
        if not traced:
            self.devices += report.completed
            self.deliveries += telemetry.counter("engine.deliveries")
            self.fleet_s += elapsed * run.calibration.scale_since(mark)
        counters = {
            "simulator.deliveries": telemetry.counter("engine.deliveries"),
            "simulator.wakeups": telemetry.counter("engine.wakeups"),
            "simulator.batches": telemetry.counter("engine.batches"),
            "monitor.violations": sum(unexpected.values()),
            "monitor.violations.bucket": report.summary.violations
            - sum(unexpected.values()),
            "fleet.completed": report.completed,
            "fleet.quarantined": report.quarantined,
            "fleet.journal.appends": journal_appends,
        }
        return {"key": f"population-{population.seed}", "counters": counters}

    def checks(self) -> None:
        pass

    def report(self, samples: List[Dict]) -> Dict[str, float]:
        """An op is one completed device."""
        return {
            "ops_per_s": self.devices / self.fleet_s,
            "sim_deliveries_per_s": self.deliveries / self.fleet_s,
        }

    def layer_extras(self, samples: List[Dict]) -> Dict[str, float]:
        return {"devices_per_s": self.devices / self.fleet_s}
