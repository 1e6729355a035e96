"""Where the traced run attaches to the program, and what it reports.

Every probe wraps a public function or method from outside ``src/``:
the policy and workload factories of the default registry, the engine's
``step``, the invariant monitor's ``on_*`` hooks, and the power/metrics
functions the run harness calls.  The service, cache and fleet probes
live beside the workload that drives them.  :func:`per_layer_metrics`
turns the recorded spans and the program's own telemetry counters into
the named per-layer metrics of ``BENCHMARK.json``; a layer a workload
does not exercise, or a figure of another workload, reports 0.
"""

from __future__ import annotations

from typing import Dict

from repro.runner import executor as runner_executor
from repro.runner.registry import DEFAULT_REGISTRY
from repro.simulator.engine import Simulator
from repro.simulator.monitor import InvariantMonitor

from harness import Layers, Run, Tracer

MONITOR_HOOKS = (
    "on_register",
    "on_cancel",
    "on_delivery",
    "on_reinsert",
    "on_step_end",
    "on_run_end",
)


def instrument_engine(tracer: Tracer) -> None:
    """Spans for the core, simulator, monitor, power, metrics and
    workloads layers, on every policy/simulator the process creates."""
    create_policy = DEFAULT_REGISTRY.create_policy
    build_workload = DEFAULT_REGISTRY.build_workload

    def traced_policy(name, **kwargs):
        policy = create_policy(name, **kwargs)
        tracer.trace_method(policy, "insert", "core.insert")
        tracer.trace_method(policy, "reinsert", "core.reinsert")
        return policy

    def traced_build(name, config=None, **kwargs):
        with tracer.span("workloads.build"):
            workload = build_workload(name, config, **kwargs)
        tracer.count("workloads.registrations", len(workload.registrations))
        return workload

    tracer.patch(DEFAULT_REGISTRY, "create_policy", traced_policy)
    tracer.patch(DEFAULT_REGISTRY, "build_workload", traced_build)
    tracer.trace_method(Simulator, "step", "simulator.step")
    for hook in MONITOR_HOOKS:
        tracer.trace_method(InvariantMonitor, hook, f"monitor.{hook}")
    tracer.trace_method(runner_executor, "account", "power.account")
    for name in ("delay_report", "wakeup_breakdown"):
        tracer.trace_method(runner_executor, name, "metrics.report")


def search_counters(summary) -> Dict[str, int]:
    """Candidates scanned and searches run, from the policies' own
    ``native.*``/``simty.*`` telemetry histograms."""
    scanned = 0
    searches = 0
    for name in ("native.candidates_scanned", "simty.candidates_scanned"):
        cell = summary.histograms.get(name)
        if cell is not None:
            scanned += int(cell.total)
            searches += cell.count
    return {"core.candidates_scanned": scanned, "core.searches": searches}


def trace_counters(traces) -> Dict[str, int]:
    deliveries = 0
    wakeups = 0
    violations = 0
    for trace in traces:
        deliveries += trace.delivery_count()
        wakeups += trace.wake_count()
        violations += len(trace.violations)
    return {
        "simulator.deliveries": deliveries,
        "simulator.wakeups": wakeups,
        "monitor.violations": violations,
    }


#: name -> unit, in report order (also the ``per_layer`` list).
PER_LAYER_UNITS = {
    "core.insert.calls": "count",
    "core.reinsert.calls": "count",
    "core.insert.self_s": "s",
    "core.insert.us_per_call": "us",
    "core.candidates_scanned": "count",
    "core.candidates_per_insert": "count",
    "core.simty_native_cost_ratio": "ratio",
    "simulator.step.calls": "count",
    "simulator.deliveries": "count",
    "simulator.wakeups": "count",
    "simulator.step.self_s": "s",
    "simulator.us_per_event": "us",
    "monitor.calls": "count",
    "monitor.self_s": "s",
    "monitor.share_of_advance": "ratio",
    "monitor.violations": "count",
    "power.account.self_s": "s",
    "metrics.report.self_s": "s",
    "workloads.build.self_s": "s",
    "workloads.registrations": "count",
    "runner.cache.put.self_s": "s",
    "runner.cache.get.self_s": "s",
    "runner.cache.bytes": "bytes",
    "runner.cache.hits": "count",
    "runner.cache.misses": "count",
    "service.handle.self_s": "s",
    "service.transport_s": "s",
    "service.journal.appends": "count",
    "service.journal.append.self_s": "s",
    "service.fsyncs": "count",
    "service.engine.advance_s": "s",
    "service.client.retries": "count",
    "fleet.device.self_s": "s",
    "fleet.population.self_s": "s",
    "fleet.reduce.self_s": "s",
    "fleet.journal.appends": "count",
    "fleet.quarantined": "count",
    "unattributed.self_s": "s",
    "trace_overhead_pct": "%",
    # Each workload's own end-to-end figures, from the untraced
    # iterations of the traced run.  They are not gated: a gated metric
    # must be measured on every workload, and these are 0 off their own.
    "runs_per_s": "runs/s",
    "warm_runs_per_s": "runs/s",
    "devices_per_s": "devices/s",
    "requests_per_s": "req/s",
    "mutation_p50_ms": "ms",
    "mutation_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "advance_p50_ms": "ms",
    "advance_p90_ms": "ms",
    "energy_saving_pct": "%",
    "error_rate": "failed/attempted",
}

MONITOR_SPANS = tuple(f"monitor.{hook}" for hook in MONITOR_HOOKS)


def per_layer_metrics(
    run: Run,
    layers: Layers,
    counters: Dict[str, float],
    overhead_pct: float,
    extras: Dict[str, float],
) -> None:
    """Report every per-layer metric; all times are per iteration.
    ``extras`` carries what only the workload can compute."""
    decisions = layers.outer_calls("core.insert", "core.reinsert")
    policy_self = layers.self_s("core.insert", "core.reinsert")
    steps = layers.calls("simulator.step")
    step_self = layers.self_s("simulator.step")
    monitor_self = layers.self_s(*MONITOR_SPANS)
    advance_total = layers.total_s("service.engine.advance")
    searches = counters.get("core.searches", 0)
    scanned = counters.get("core.candidates_scanned", 0)
    values = {
        "core.insert.calls": layers.calls("core.insert"),
        "core.reinsert.calls": layers.calls("core.reinsert"),
        "core.insert.self_s": policy_self,
        "core.insert.us_per_call": (
            policy_self * 1e6 / decisions if decisions else 0.0
        ),
        "core.candidates_scanned": scanned,
        "core.candidates_per_insert": scanned / searches if searches else 0.0,
        "core.simty_native_cost_ratio": 0.0,
        "simulator.step.calls": steps,
        "simulator.deliveries": counters.get("simulator.deliveries", 0),
        "simulator.wakeups": counters.get("simulator.wakeups", 0),
        "simulator.step.self_s": step_self,
        "simulator.us_per_event": step_self * 1e6 / steps if steps else 0.0,
        "monitor.calls": layers.calls(*MONITOR_SPANS),
        "monitor.self_s": monitor_self,
        "monitor.share_of_advance": (
            layers.total_s(*MONITOR_SPANS) / advance_total
            if advance_total
            else 0.0
        ),
        "monitor.violations": counters.get("monitor.violations", 0),
        "power.account.self_s": layers.self_s("power.account"),
        "metrics.report.self_s": layers.self_s("metrics.report"),
        "workloads.build.self_s": layers.self_s("workloads.build"),
        "workloads.registrations": layers.count("workloads.registrations"),
        "runner.cache.put.self_s": layers.self_s("runner.cache.put"),
        "runner.cache.get.self_s": layers.self_s("runner.cache.get"),
        "runner.cache.bytes": counters.get("runner.cache.bytes", 0),
        "runner.cache.hits": counters.get("runner.cache.hits", 0),
        "runner.cache.misses": counters.get("runner.cache.misses", 0),
        "service.handle.self_s": layers.self_s("service.handle"),
        "service.transport_s": max(
            0.0,
            layers.total_s("service.client.request")
            - layers.total_s("service.handle"),
        ),
        "service.journal.appends": layers.calls("service.journal.append"),
        "service.journal.append.self_s": layers.self_s("service.journal.append"),
        "service.fsyncs": layers.count("service.fsyncs"),
        "service.engine.advance_s": advance_total,
        "service.client.retries": 0,
        "fleet.device.self_s": layers.self_s("fleet.device"),
        "fleet.population.self_s": layers.self_s("fleet.population"),
        "fleet.reduce.self_s": layers.self_s("fleet.reduce"),
        "fleet.journal.appends": counters.get("fleet.journal.appends", 0),
        "fleet.quarantined": counters.get("fleet.quarantined", 0),
        "unattributed.self_s": layers.self_s("bench.iteration"),
        "trace_overhead_pct": overhead_pct,
        "error_rate": 0.0,  # filled in by run.py once every check has run
        **extras,
    }
    for name, unit in PER_LAYER_UNITS.items():
        run.metric(name, values.get(name, 0.0), unit)
