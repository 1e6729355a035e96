"""Engine throughput bench: dispatch events/sec with an enforced floor.

Builds the heavy workload once per attempt and drives the engine two
ways — the batch :meth:`~repro.simulator.engine.Simulator.run` loop and
the decomposed ``start()``/``step()``/``finish()`` stepping driver the
service daemon uses — and writes ``BENCH_engine_throughput.json`` at the
repo root.  CI runs ``test_engine_events_per_second_floor`` and fails
the build when either driver drops below :data:`FLOOR_EVENTS_PER_S`,
the guard that instrumentation hooks (telemetry, the decision audit)
stay zero-cost on the uninstrumented hot path.

The floor sits about 4x below the observed rate: a quiet two-core
machine clears ~12k dispatch events/s (~8.5k without the entry, interval
and hardware-rank caches), so a busy CI runner keeps headroom while a
collapse of the policy hot path still trips it.
"""

import json
import time
from pathlib import Path

from repro.runner.registry import DEFAULT_REGISTRY
from repro.simulator.engine import Simulator, SimulatorConfig

REPORT_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_engine_throughput.json"
)

#: CI-enforced minimum engine throughput, dispatch events per second.
FLOOR_EVENTS_PER_S = 3_000.0

WORKLOAD = "heavy"
POLICY = "simty"


def _build() -> Simulator:
    workload = DEFAULT_REGISTRY.build_workload(WORKLOAD, None)
    policy = DEFAULT_REGISTRY.create_policy(POLICY)
    simulator = Simulator(
        policy, config=SimulatorConfig(horizon=workload.horizon)
    )
    workload.apply(simulator)
    return simulator


def _drive_batch(simulator: Simulator) -> None:
    simulator.run()


def _drive_stepping(simulator: Simulator) -> None:
    simulator.start()
    while simulator.step() is not None:
        pass
    simulator.finish()


def _measure(driver) -> dict:
    best = None
    for _ in range(2):  # best-of-2: absorb one unlucky scheduler stall
        simulator = _build()
        started = time.perf_counter()
        driver(simulator)
        wall = time.perf_counter() - started
        events = simulator._events
        deliveries = simulator.trace.delivery_count()
        assert events > 500
        assert deliveries > 500
        rate = events / wall
        if best is None or rate > best["events_per_s"]:
            best = {
                "events": events,
                "deliveries": deliveries,
                "wall_s": round(wall, 4),
                "events_per_s": round(rate, 1),
            }
    return best


def test_engine_events_per_second_floor(emit):
    batch = _measure(_drive_batch)
    stepping = _measure(_drive_stepping)

    # The two drivers execute the same schedule: same dispatch-event and
    # delivery counts, or one of them is skipping (or inventing) work.
    assert batch["events"] == stepping["events"]
    assert batch["deliveries"] == stepping["deliveries"]

    payload = {
        "unit": "dispatch events per second, best of 2 full heavy runs",
        "workload": WORKLOAD,
        "policy": POLICY,
        "floor_events_per_s": FLOOR_EVENTS_PER_S,
        "batch": batch,
        "stepping": stepping,
    }
    REPORT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        f"engine throughput: batch {batch['events_per_s']:.0f} ev/s, "
        f"stepping {stepping['events_per_s']:.0f} ev/s "
        f"({batch['events']} events, {batch['deliveries']} deliveries, "
        f"floor {FLOOR_EVENTS_PER_S:.0f}/s)"
    )
    for name, result in (("batch", batch), ("stepping", stepping)):
        assert result["events_per_s"] >= FLOOR_EVENTS_PER_S, (
            f"{name} driver throughput {result['events_per_s']:.1f} "
            f"events/s fell below the enforced floor of "
            f"{FLOOR_EVENTS_PER_S}; see BENCH_engine_throughput.json"
        )
