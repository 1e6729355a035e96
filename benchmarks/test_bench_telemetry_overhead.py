"""OBS — disabled telemetry must stay (near) free on the hot path.

The telemetry layer promises zero cost when no hub is attached: the engine
hoists one boolean per loop iteration and every other gate is a single
``enabled`` check.  This bench reconstructs the pre-instrumentation
dispatch step (the engine's phase sequence, with no telemetry gate) as a
baseline, runs the heavy workload through both, and asserts the shipping
no-op path stays within 5% of it.  A failure here means someone
left un-gated instrumentation on the hot path.

An enabled run is also timed and emitted for eyeballing — instrumentation
that is *on* is allowed to cost real time (spans allocate), it just has to
be opt-in.

Each run builds a fresh workload (alarms are single-use), and every
configuration takes the minimum of several interleaved reps so a noisy CI
neighbour cannot fail the bound.
"""

import time

from repro.core.simty import SimtyPolicy
from repro.obs.telemetry import Telemetry
from repro.simulator.engine import Simulator
from repro.workloads.scenarios import build_heavy

REPS = 5


class UninstrumentedSimulator(Simulator):
    """The seed dispatch step: no telemetry gate, no instrumentation.

    ``Simulator.run`` drives the run through :meth:`step`, so overriding
    it here replaces the shipping step for the whole run.  Keep the phase
    sequence in sync with ``Simulator.step`` — this class exists only to
    give the overhead bench a true baseline.
    """

    def step(self):
        instant = self._next_event_time()
        if instant is None or instant >= self.config.horizon:
            return None
        self._watchdog_tick(instant)
        self.clock.advance_to(instant)
        self._process_registrations()
        self._process_cancellations()
        self._process_reregistrations()
        self._process_externals()
        self._deliver_due_wakeups()
        if self.device.awake:
            self._deliver_due_nonwakeups()
            self.device.try_sleep(self.clock.now)
        if self.monitor is not None:
            self.monitor.on_step_end(self.clock.now)
        return instant


def _run_once(simulator_cls, telemetry=None):
    workload = build_heavy()
    simulator = simulator_cls(SimtyPolicy(), telemetry=telemetry)
    workload.apply(simulator)
    started = time.perf_counter()
    trace = simulator.run()
    return time.perf_counter() - started, trace


def test_bench_telemetry_noop_overhead(emit):
    baseline_s = []
    noop_s = []
    enabled_s = []
    deliveries = set()
    for _ in range(REPS):
        elapsed, trace = _run_once(UninstrumentedSimulator)
        baseline_s.append(elapsed)
        deliveries.add(trace.delivery_count())
        elapsed, trace = _run_once(Simulator)
        noop_s.append(elapsed)
        deliveries.add(trace.delivery_count())
        elapsed, trace = _run_once(Simulator, telemetry=Telemetry())
        enabled_s.append(elapsed)
        deliveries.add(trace.delivery_count())
        assert trace.telemetry is not None
        assert trace.telemetry.spans["engine.run"].count == 1

    # All three paths simulate the same system.
    assert len(deliveries) == 1

    baseline = min(baseline_s)
    noop = min(noop_s)
    enabled = min(enabled_s)
    noop_overhead = noop / baseline - 1.0
    enabled_ratio = enabled / baseline
    emit(
        "telemetry overhead (heavy workload, min of "
        f"{REPS} reps)\n"
        f"  ungated baseline loop:  {baseline * 1000.0:8.1f} ms\n"
        f"  shipping no-op path:    {noop * 1000.0:8.1f} ms "
        f"({noop_overhead:+.1%})\n"
        f"  enabled instrumentation:{enabled * 1000.0:8.1f} ms "
        f"({enabled_ratio:.2f}x baseline)"
    )
    assert noop_overhead < 0.05, (
        f"disabled telemetry costs {noop_overhead:.1%} over the ungated "
        "loop; the no-op path must stay under 5%"
    )
