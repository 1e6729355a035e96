"""``dense``: 3 h synthetic workloads with hundreds of apps.

NATIVE and SIMTY on the indexed queue backend, invariant monitor off, no
cache: queues hold hundreds of entries, so policy search and backend
candidate queries dominate.  One iteration simulates one workload under
both policies, timed around ``Simulator.run()``.  It bypasses the cache,
the service, the monitor and the fleet.

Per-delivery cost depends on the generated app mix, so iterations cycle
through ``INPUTS`` workloads derived from ``--seed``: a run's rates,
taken over one pass through all of them, then vary less from seed to
seed, and each workload still runs more than once for the determinism
check.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.obs.telemetry import Telemetry
from repro.power.accounting import account
from repro.power.profiles import NEXUS5
from repro.runner.registry import DEFAULT_REGISTRY
from repro.simulator.engine import Simulator, SimulatorConfig
from repro.workloads.synthetic import SyntheticConfig, generate

from harness import Run, median
from probes import search_counters, trace_counters

APPS = 300
INPUTS = 4
POLICIES = ("native", "simty")
BACKEND = "indexed"


class Dense:
    min_iterations = INPUTS

    def __init__(self, run: Run) -> None:
        self.run = run
        self.configs = [
            SyntheticConfig(app_count=APPS, seed=run.seed * 100 + index)
            for index in range(INPUTS)
        ]
        self.iterations = 0
        #: total energy (mJ) per policy, once per input workload
        self.energy: Dict[int, Dict[str, float]] = {}
        run.time_setup(self._setup)

    def _setup(self):
        """Both policies' simulators built and loaded with a workload."""
        for name in POLICIES:
            workload = generate(self.configs[0])
            workload.apply(self._simulator(name, workload, None))

    @staticmethod
    def _simulator(name: str, workload, hub) -> Simulator:
        return Simulator(
            DEFAULT_REGISTRY.create_policy(name, queue_backend=BACKEND),
            config=SimulatorConfig(horizon=workload.horizon, queue_backend=BACKEND),
            telemetry=hub,
        )

    def _workload(self, config: SyntheticConfig, traced: bool):
        if not traced:
            return generate(config)
        tracer = self.run.tracer
        with tracer.span("workloads.build"):
            workload = generate(config)
        tracer.count("workloads.registrations", len(workload.registrations))
        return workload

    def iteration(self, traced: bool) -> Dict:
        run = self.run
        # A traced iteration reruns the input of the untraced one before
        # it, so the two compare for trace_overhead_pct.
        which = (self.iterations // 2 if run.trace else self.iterations) % INPUTS
        self.iterations += 1
        hub = Telemetry() if traced else None
        mark = run.calibration.mark()
        seconds: Dict[str, float] = {}
        traces = {}
        for name in POLICIES:
            workload = self._workload(self.configs[which], traced)
            simulator = self._simulator(name, workload, hub)
            workload.apply(simulator)
            for _ in range(3):
                run.calibration.sample()
            started = time.perf_counter()
            traces[name] = simulator.run()
            seconds[name] = time.perf_counter() - started
        run.operations(len(POLICIES))
        if which not in self.energy:
            self.energy[which] = {
                name: account(trace, NEXUS5).total_mj
                for name, trace in traces.items()
            }
        counters = trace_counters(traces.values())
        counters["simulator.batches"] = sum(
            trace.batch_count() for trace in traces.values()
        )
        if hub is not None:
            counters.update(search_counters(hub.summary()))
        per_delivery = {
            name: seconds[name] / traces[name].delivery_count()
            for name in POLICIES
        }
        return {
            "key": f"synthetic-{self.configs[which].seed}",
            "counters": counters,
            "input": which,
            "seconds": sum(seconds.values()) * run.calibration.scale_since(mark),
            "cost_ratio": per_delivery["simty"] / per_delivery["native"],
        }

    def checks(self) -> None:
        saved = self.savings_pct()
        self.run.check(
            len(self.energy) == INPUTS and 0.0 < saved < 100.0,
            f"dense: SIMTY saving {saved:.2f}% over {len(self.energy)} "
            f"of {INPUTS} workloads",
        )

    def savings_pct(self) -> float:
        """SIMTY's total-energy saving over every input workload."""
        native = sum(energy["native"] for energy in self.energy.values())
        simty = sum(energy["simty"] for energy in self.energy.values())
        return 100.0 * (native - simty) / native

    def report(self, samples: List[Dict]) -> Dict[str, float]:
        """An op is one policy run over one 3 h workload.  Rates are over
        one pass through every input, each input's time the median of its
        iterations, so a run's rate does not depend on how many
        iterations of which input fit in its time."""
        seconds: Dict[int, List[float]] = {}
        deliveries: Dict[int, int] = {}
        for sample in samples:
            seconds.setdefault(sample["input"], []).append(sample["seconds"])
            deliveries[sample["input"]] = sample["counters"][
                "simulator.deliveries"
            ]
        pass_s = sum(median(values) for values in seconds.values())
        return {
            "ops_per_s": len(POLICIES) * len(seconds) / pass_s,
            "sim_deliveries_per_s": sum(deliveries.values()) / pass_s,
        }

    def layer_extras(self, samples: List[Dict]) -> Dict[str, float]:
        return {
            "core.simty_native_cost_ratio": median(
                s["cost_ratio"] for s in samples
            ),
            "energy_saving_pct": self.savings_pct(),
        }
