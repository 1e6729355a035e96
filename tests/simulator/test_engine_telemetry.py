"""Engine instrumentation: what an instrumented run records, and that
observation never changes the simulation outcome."""

import pytest

from repro.core.duration import DurationAwareSimtyPolicy
from repro.core.native import NativePolicy
from repro.core.simty import SimtyPolicy
from repro.obs.telemetry import Telemetry
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.serialize import trace_from_dict, trace_to_dict

from ..conftest import make_alarm, oneshot


def workload():
    return [
        make_alarm(nominal=10_000, repeat=60_000, grace=50_000, label="sync"),
        make_alarm(nominal=25_000, repeat=60_000, grace=50_000, label="poll"),
        make_alarm(
            nominal=40_000, repeat=90_000, grace=70_000, wakeup=False,
            label="refresh",
        ),
        oneshot(nominal=150_000),
    ]


def config():
    return SimulatorConfig(horizon=400_000, wake_latency_ms=350, tail_ms=700)


def run_instrumented(policy=None):
    tel = Telemetry()
    trace = simulate(policy or SimtyPolicy(), workload(), config(), telemetry=tel)
    return trace, tel.summary()


class TestInstrumentedRun:
    def test_expected_spans_and_counters_present(self):
        trace, summary = run_instrumented()
        assert summary.spans["engine.run"].count == 1
        assert summary.spans["engine.dispatch.registration"].count >= 1
        assert summary.spans["engine.dispatch.wakeup"].count >= 1
        assert summary.spans["manager.register"].count == 4
        cells = summary.counter_cells("engine.events")
        types = {dict(labels)["type"] for labels in cells}
        assert {"registration", "wakeup_batch"} <= types
        # Batches counted at dispatch match the batches the trace recorded.
        batch_events = sum(
            value
            for labels, value in cells.items()
            if dict(labels)["type"] in ("wakeup_batch", "nonwakeup_batch")
        )
        assert batch_events == len(trace.batches)
        assert summary.counter("manager.register") == 4
        register_cells = summary.counter_cells("manager.register")
        assert register_cells[(("wakeup", "true"),)] == 3
        assert register_cells[(("wakeup", "false"),)] == 1

    def test_queue_depth_gauge_observed(self):
        _, summary = run_instrumented()
        depth = summary.gauges["engine.queue_depth"]
        assert depth.updates >= 1
        assert depth.max >= 1

    @pytest.mark.parametrize(
        "policy_cls", [SimtyPolicy, DurationAwareSimtyPolicy]
    )
    def test_simty_policy_spans_and_breakdown(self, policy_cls):
        # SIMTY+DUR shares SIMTY's search, so it reports under simty.*.
        _, summary = run_instrumented(policy_cls())
        assert summary.counter("simty.searches") > 0
        assert summary.spans["simty.search"].count == summary.counter(
            "simty.searches"
        )
        scanned = summary.histograms["simty.candidates_scanned"]
        assert scanned.count == summary.counter("simty.searches")
        # Every search ends in a selection or a fresh queue entry.
        assert (
            summary.counter("simty.selected") + summary.counter("simty.new_entry")
            == summary.counter("simty.searches")
        )
        for labels in summary.counter_cells("simty.selected"):
            keys = dict(labels)
            assert set(keys) == {"hw", "time"}

    def test_summary_rides_on_the_trace(self):
        trace, summary = run_instrumented()
        assert trace.telemetry is not None
        assert trace.telemetry.counters == summary.counters
        assert trace.telemetry.spans.keys() == summary.spans.keys()

    def test_uninstrumented_trace_has_no_summary(self):
        trace = simulate(SimtyPolicy(), workload(), config())
        assert trace.telemetry is None


class TestObservationChangesNothing:
    def _outcome(self, trace):
        return (
            trace.delivery_count(),
            trace.wake_count(),
            [b.delivered_at for b in trace.batches],
            [
                sorted(record.label for record in batch.alarms)
                for batch in trace.batches
            ],
            [(s.start, s.end) for s in trace.sessions],
        )

    def _labelled(self):
        # Fixed labels make batch contents comparable across runs even
        # though alarm ids differ between the two workload instantiations
        # (unlabelled alarms default to ``app#<id>``).
        alarms = workload()
        for index, alarm in enumerate(alarms):
            alarm.label = f"a{index}"
        return alarms

    def test_simty_trace_identical_with_and_without_telemetry(self):
        plain = simulate(SimtyPolicy(), self._labelled(), config())
        observed = simulate(
            SimtyPolicy(), self._labelled(), config(), telemetry=Telemetry()
        )
        assert self._outcome(observed) == self._outcome(plain)

    def test_native_trace_identical_with_and_without_telemetry(self):
        plain = simulate(NativePolicy(), self._labelled(), config())
        observed = simulate(
            NativePolicy(), self._labelled(), config(), telemetry=Telemetry()
        )
        assert self._outcome(observed) == self._outcome(plain)


class TestSerializeRoundTrip:
    def test_telemetry_survives_dict_round_trip(self):
        trace, _ = run_instrumented()
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored.telemetry == trace.telemetry

    def test_old_payload_without_telemetry_field_loads(self):
        trace = simulate(SimtyPolicy(), workload(), config())
        payload = trace_to_dict(trace)
        assert payload["telemetry"] is None
        payload.pop("telemetry")  # pre-telemetry JSON on disk
        restored = trace_from_dict(payload)
        assert restored.telemetry is None
        assert restored.delivery_count() == trace.delivery_count()
