"""``paper``: the Table-3 matrix a reproducer runs, cold then warm.

Light and heavy x NATIVE and SIMTY over three install-phase seeds (the
paper's default plus two derived from ``--seed``), 12 RunSpecs.  One
iteration is three passes over the same specs:

1. an engine pass - each spec simulated on a bare ``Simulator``, timed
   around ``run()`` only (``sim_deliveries_per_s``);
2. a cold pass - serial ``run_many`` into a fresh disk ``ResultCache``:
   build, simulate, account, metrics, cache put (``runs_per_s``);
3. a warm pass - the same specs through a fresh ``ResultCache`` on the
   same directory, every spec a disk hit (``warm_runs_per_s``).

Queues hold at most 133 alarms, so per-event engine cost, workload
build, power/metrics and cache writes versus reads dominate.
"""

from __future__ import annotations

import json
import re
import shutil
import time
from typing import Dict, List, Optional

from repro.obs.telemetry import Telemetry
from repro.power.accounting import savings_fraction
from repro.runner import ResultCache, RunSpec, run_many
from repro.runner.executor import execute_spec
from repro.runner.registry import DEFAULT_REGISTRY
from repro.simulator.engine import Simulator, SimulatorConfig
from repro.simulator.serialize import trace_to_dict

from harness import (
    UNPICKLE_NOMINAL_S,
    Calibration,
    Run,
    UnpickleReference,
    median,
)
from probes import search_counters, trace_counters

WORKLOADS = ("light", "heavy")
POLICIES = ("native", "simty")
#: Total-energy savings EXPERIMENTS.md records for the default phase seed.
RECORDED_SAVINGS_PCT = {"light": 19.2, "heavy": 21.2}


def phase_seeds(seed: int) -> List[Optional[int]]:
    return [None, seed * 1_000 + 1, seed * 1_000 + 2]


def canonical_trace(trace) -> str:
    """A trace as JSON with alarm ids renumbered by first appearance and
    the wall-clock telemetry snapshot dropped."""
    payload = trace_to_dict(trace)
    payload.pop("telemetry", None)
    mapping: Dict[int, int] = {}

    def remap(alarm_id):
        if alarm_id is None:
            return None
        return mapping.setdefault(alarm_id, len(mapping) + 1)

    for record in payload["registrations"]:
        record["alarm_id"] = remap(record["alarm_id"])
    for batch in payload["batches"]:
        for alarm in batch["alarms"]:
            alarm["alarm_id"] = remap(alarm["alarm_id"])
        for task in batch["tasks"]:
            task["alarm_id"] = remap(task["alarm_id"])
    for violation in payload["violations"]:
        violation["alarm_id"] = remap(violation["alarm_id"])
    text = json.dumps(payload, sort_keys=True)
    # Violation details quote a process-global entry counter.
    return re.sub(r"entry #\d+", "entry #?", text)


class Paper:
    min_iterations = 3

    def __init__(self, run: Run) -> None:
        self.run = run
        self.specs: List[RunSpec] = run.time_setup(self._setup)
        self.unpickle = Calibration(UnpickleReference(), UNPICKLE_NOMINAL_S)
        self.savings_pct: Optional[float] = None

    def _setup(self):
        """The specs and every distinct workload compiled once; each
        iteration's cache dir is made like the one made here."""
        specs = [
            RunSpec(workload, policy, seed=seed)
            for workload in WORKLOADS
            for policy in POLICIES
            for seed in phase_seeds(self.run.seed)
        ]
        for workload in WORKLOADS:
            for seed in phase_seeds(self.run.seed):
                DEFAULT_REGISTRY.build_workload(workload, None, seed=seed)
        self.run.tempdir("cache-").rmdir()
        return specs

    # -- one iteration -----------------------------------------------------
    def iteration(self, traced: bool) -> Dict:
        run = self.run
        tracer = run.tracer if traced else None
        hub = Telemetry() if traced else None
        mark = run.calibration.mark()
        engine_s: Dict[str, float] = {}
        deliveries: Dict[str, int] = {}
        traces = []
        for spec in self.specs:
            workload = DEFAULT_REGISTRY.build_workload(
                spec.workload, spec.scenario, seed=spec.seed
            )
            policy = DEFAULT_REGISTRY.create_policy(spec.policy)
            simulator = Simulator(
                policy,
                config=SimulatorConfig(horizon=workload.horizon),
                telemetry=hub,
            )
            workload.apply(simulator)
            run.calibration.sample()
            started = time.perf_counter()
            trace = simulator.run()
            elapsed = time.perf_counter() - started
            key = f"{spec.workload}/{spec.policy}"
            engine_s[key] = engine_s.get(key, 0.0) + elapsed
            deliveries[key] = deliveries.get(key, 0) + trace.delivery_count()
            traces.append(trace)
        run.operations(len(self.specs))

        cache_dir = run.tempdir("cache-")
        cold_cache = ResultCache(disk_dir=cache_dir)
        if tracer is not None:
            tracer.trace_method(cold_cache, "put", "runner.cache.put")
            tracer.trace_method(cold_cache, "get", "runner.cache.get")
        run.calibration.sample()
        started = time.perf_counter()
        cold = run_many(self.specs, cache=cold_cache)
        cold_s = time.perf_counter() - started

        warm_cache = ResultCache(disk_dir=cache_dir)
        if tracer is not None:
            tracer.trace_method(warm_cache, "get", "runner.cache.get")
        unpickle_mark = self.unpickle.mark()
        for _ in range(3):
            self.unpickle.sample()
        started = time.perf_counter()
        warm = run_many(self.specs, cache=warm_cache)
        warm_s = time.perf_counter() - started
        run.operations(2 * len(self.specs))

        run.check(
            all(record.cache_hit for record in warm),
            "paper: a warm-pass spec missed the disk cache",
        )
        run.check(
            [r.result.energy.total_mj for r in cold]
            == [r.result.energy.total_mj for r in warm],
            "paper: warm results differ from the cold results",
        )
        self._check_savings(cold)
        cache_bytes = sum(path.stat().st_size for path in cache_dir.iterdir())

        counters = trace_counters(traces)
        counters.update(
            {
                "simulator.batches": sum(t.batch_count() for t in traces),
                "runner.cache.bytes": cache_bytes,
                "runner.cache.hits": warm_cache.stats.hits,
                "runner.cache.misses": cold_cache.stats.misses,
            }
        )
        if hub is not None:
            counters.update(search_counters(hub.summary()))
        shutil.rmtree(cache_dir)
        scale = run.calibration.scale_since(mark)
        return {
            "key": "matrix",
            "counters": counters,
            "sim_deliveries_per_s": sum(deliveries.values())
            / sum(engine_s.values())
            / scale,
            "runs_per_s": len(self.specs) / cold_s / scale,
            # The warm pass is file reads and unpickling in C, so it has a
            # reference of its own kind.
            "warm_runs_per_s": len(self.specs)
            / warm_s
            / self.unpickle.scale_since(unpickle_mark),
            "cost_ratio": (engine_s["heavy/simty"] / deliveries["heavy/simty"])
            / (engine_s["heavy/native"] / deliveries["heavy/native"]),
        }

    def _check_savings(self, records) -> None:
        totals: Dict[str, float] = {}
        for spec, record in zip(self.specs, records):
            totals[spec.policy] = (
                totals.get(spec.policy, 0.0) + record.result.energy.total_mj
            )
            if spec.seed is None and spec.policy == "simty":
                native = next(
                    r
                    for s, r in zip(self.specs, records)
                    if s.seed is None
                    and s.workload == spec.workload
                    and s.policy == "native"
                )
                saved = 100.0 * savings_fraction(
                    native.result.energy, record.result.energy
                )
                expected = RECORDED_SAVINGS_PCT[spec.workload]
                self.run.check(
                    round(saved, 1) == expected,
                    f"paper: {spec.workload} saving {saved:.2f}% != "
                    f"recorded {expected}%",
                )
        self.savings_pct = 100.0 * (
            (totals["native"] - totals["simty"]) / totals["native"]
        )

    # -- once per run ------------------------------------------------------
    def checks(self) -> None:
        """One spec must give identical traces on both queue backends."""
        traces = []
        for backend in ("list", "indexed"):
            spec = RunSpec(
                "heavy",
                "simty",
                simulator=SimulatorConfig(
                    monitor="record", queue_backend=backend
                ),
            )
            traces.append(canonical_trace(execute_spec(spec).trace))
        self.run.check(
            traces[0] == traces[1],
            "paper: heavy SIMTY traces differ between list and indexed",
        )

    def report(self, samples: List[Dict]) -> Dict[str, float]:
        """An op is one spec through the cold ``run_many`` pass."""
        return {
            "ops_per_s": median(s["runs_per_s"] for s in samples),
            "sim_deliveries_per_s": median(
                s["sim_deliveries_per_s"] for s in samples
            ),
        }

    def layer_extras(self, samples: List[Dict]) -> Dict[str, float]:
        return {
            "core.simty_native_cost_ratio": median(
                s["cost_ratio"] for s in samples
            ),
            "runs_per_s": median(s["runs_per_s"] for s in samples),
            "warm_runs_per_s": median(s["warm_runs_per_s"] for s in samples),
            "energy_saving_pct": self.savings_pct,
        }
