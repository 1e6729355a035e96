"""``service``: a 24 h diurnal day replayed live over TCP, closed loop.

The ``diurnal-heavy`` scenario plus two ``churn`` sources (a
cancellation storm and an app-update wave, drawn by ``--seed``) is
compiled by ``workload_requests`` into a request stream, with a
``query`` read after every few mutations.  One ``ServiceClient`` replays
it closed loop - the next request is sent when the previous reply
arrives - over TCP to an in-process ``SocketServer``, with the fsync'd
journal and the daemon's default invariant monitor armed.  Mutations
exercise protocol and journal writes, queries only the locked read
path, advances the engine, the monitor and telemetry.  One iteration is
one replay on a freshly booted service.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List

from repro.runner.registry import DEFAULT_REGISTRY
from repro.service import AlarmService, ServiceConfig
from repro.service.client import ServiceClient, TcpTransport
from repro.service.journal import ServiceJournal
from repro.service.protocol import MUTATION_OPS
from repro.service.transport import SocketServer
from repro.obs.telemetry import Telemetry
from repro.simulator.engine import Simulator, SimulatorConfig
from repro.workloads.requests import workload_requests
from repro.workloads.sources.canon import canonical_scenario
from repro.workloads.sources.spec import SourceUse, compile_scenario

from harness import Run, percentile
from paper import canonical_trace
from probes import search_counters, trace_counters

HOUR_MS = 3_600_000
POLICY = "simty"
#: A query read follows every QUERY_EVERY mutations.
QUERY_EVERY = 4
#: Latency percentiles per request class, reported by the traced run.
PERCENTILES = (
    ("mutation", 0.5),
    ("mutation", 0.99),
    ("query", 0.5),
    ("query", 0.9),
    ("advance", 0.5),
    ("advance", 0.9),
)
#: A calibration sample is taken every CALIBRATE_EVERY requests.
CALIBRATE_EVERY = 50


def scenario(seed: int):
    """The canonical day (its own seeds kept) plus a cancellation storm
    at 06:00 and an app-update wave at 14:00.  ``seed`` draws the storm's
    offsets and the wave's new nominal offset, so every seed replays the
    same day's load with different churn."""
    spec = canonical_scenario("diurnal-heavy")
    churn = (
        SourceUse(
            "churn",
            id="storm",
            kwargs={
                "at_ms": 6 * HOUR_MS,
                "pattern": "cancellation-storm",
                "spread_ms": HOUR_MS,
                "seed": seed,
            },
        ),
        SourceUse(
            "churn",
            id="wave",
            kwargs={
                "at_ms": 14 * HOUR_MS,
                "pattern": "app-update-wave",
                "spacing_ms": 60_000,
                "nominal_offset": 15_000 * (1 + seed % 4),
            },
        ),
    )
    return dataclasses.replace(spec, sources=spec.sources + churn)


def request_stream(workload) -> List[Dict]:
    stream: List[Dict] = []
    mutations = 0
    for payload in workload_requests(workload):
        payload = dict(payload)
        payload.pop("id", None)
        stream.append(payload)
        if payload["op"] in MUTATION_OPS:
            mutations += 1
            if mutations % QUERY_EVERY == 0:
                stream.append({"op": "query"})
    for index, payload in enumerate(stream, start=1):
        payload["id"] = index
    return stream


def op_class(op: str) -> str:
    return "mutation" if op in MUTATION_OPS else op


class Service:
    #: one replay holds ~900 mutations; p99 needs at least 1,000
    min_iterations = 2

    def __init__(self, run: Run) -> None:
        self.run = run
        self.spec = scenario(run.seed)
        self.latencies: Dict[str, List[float]] = {}
        self.requests = 0
        self.deliveries = 0
        self.request_s = 0.0
        self.served_trace = None
        self.retries: List[int] = []
        run.time_setup(self._boot, self._shut_down)

    @staticmethod
    def _shut_down(booted) -> None:
        _, _, journal_dir, service, server, client = booted
        client.transport.close()
        server.close()
        service.journal.path.unlink()
        journal_dir.rmdir()

    # -- set-up: compile the day, boot the daemon, connect ----------------
    def _boot(self, traced: bool = False):
        run = self.run
        tracer = run.tracer if traced else None
        if tracer is None:
            workload = compile_scenario(self.spec)
        else:
            with tracer.span("workloads.build"):
                workload = compile_scenario(self.spec)
            tracer.count("workloads.registrations", len(workload.registrations))
        stream = request_stream(workload)
        journal_dir = run.tempdir("journal-")

        def journal_factory(path):
            journal = ServiceJournal(path)
            if tracer is not None:
                tracer.trace_method(journal, "append", "service.journal.append")
            return journal

        service = AlarmService.fresh(
            ServiceConfig(
                policy=POLICY,
                horizon=workload.horizon,
                checkpoint_dir=str(journal_dir),
            ),
            journal_factory=journal_factory,
        )
        server = SocketServer(service, tcp=("127.0.0.1", 0)).start()
        client = ServiceClient(
            TcpTransport(*server.address), telemetry=Telemetry()
        )
        if tracer is not None:
            tracer.trace_method(service, "handle_line", "service.handle")
            tracer.trace_method(
                service.simulator, "advance_to", "service.engine.advance"
            )
            tracer.trace_method(client, "request", "service.client.request")
            fsync = os.fsync

            def counted_fsync(fd):
                tracer.count("service.fsyncs")
                return fsync(fd)

            tracer.patch(os, "fsync", counted_fsync)
        return workload, stream, journal_dir, service, server, client

    def iteration(self, traced: bool) -> Dict:
        run = self.run
        workload, stream, journal_dir, service, server, client = self._boot(
            traced
        )
        latencies: Dict[str, List[float]] = {}
        failed = 0
        mark = run.calibration.mark()
        try:
            for index, payload in enumerate(stream):
                if not traced and index % CALIBRATE_EVERY == 0:
                    run.calibration.sample()
                started = time.perf_counter()
                reply = client.request(payload)
                elapsed = time.perf_counter() - started
                if not reply.get("ok"):
                    failed += 1
                    run.problems.append(f"service: {payload} -> {reply}")
                latencies.setdefault(op_class(payload["op"]), []).append(elapsed)
        finally:
            client.transport.close()
            server.close()
        run.operations(len(stream), failed)
        trace = service.trace
        run.check(trace is not None, "service: shutdown did not drain a trace")
        monitor = service.simulator.monitor
        violations = len(monitor.violations) if monitor is not None else -1
        run.check(
            violations == 0, f"service: {violations} monitor violations"
        )
        if self.served_trace is None:
            self.served_trace = canonical_trace(trace)
        journal_path = service.journal.path
        with journal_path.open(encoding="utf-8") as handle:
            journal_lines = sum(1 for _ in handle)
        journal_path.unlink()
        journal_dir.rmdir()
        if not traced:
            scale = run.calibration.scale_since(mark)
            for op, values in latencies.items():
                self.latencies.setdefault(op, []).extend(
                    value * scale for value in values
                )
            self.requests += len(stream)
            self.deliveries += trace.delivery_count()
            self.request_s += scale * sum(map(sum, latencies.values()))
        counters = trace_counters([trace])
        counters.update(search_counters(service.telemetry.summary()))
        counters.update(
            {
                "simulator.batches": trace.batch_count(),
                "service.requests": len(stream),
                "service.journal.lines": journal_lines,
            }
        )
        # Retries answer transport faults, so they are not a deterministic
        # counter; a healthy loop has none.
        self.retries.append(
            client.telemetry.summary().counter("service.client.retries")
        )
        return {"key": "day", "counters": counters}

    # -- once per run ------------------------------------------------------
    def checks(self) -> None:
        """The served day must equal the batch run of the same workload,
        modulo service-assigned alarm ids."""
        workload = compile_scenario(self.spec)
        simulator = Simulator(
            DEFAULT_REGISTRY.create_policy(POLICY),
            config=SimulatorConfig(horizon=workload.horizon, monitor="record"),
        )
        workload.apply(simulator)
        batch = canonical_trace(simulator.run())
        self.run.check(
            batch == self.served_trace,
            "service: served trace differs from the batch trace",
        )

    def report(self, samples: List[Dict]) -> Dict[str, float]:
        """An op is one request of the closed-loop stream.  The latency
        percentiles go to the printed summary (and are per-layer metrics
        of the traced run)."""
        for op, quantile in PERCENTILES:
            self._percentile_ms(op, quantile)
        return {
            "ops_per_s": self.requests / self.request_s,
            "sim_deliveries_per_s": self.deliveries / self.request_s,
        }

    def _percentile_ms(self, op: str, quantile: float) -> float:
        values = self.latencies.get(op, [])
        name = f"{op}_p{round(quantile * 100)}_ms"
        self.run.check(
            len(values) * (1 - quantile) >= 10,
            f"service: {len(values)} {op} samples are too few for {name}",
        )
        value = percentile(values, quantile) * 1e3
        self.run.notes.append(f"{name}: {value:.4f} ms over {len(values)} samples")
        return value

    def layer_extras(self, samples: List[Dict]) -> Dict[str, float]:
        extras = {
            f"{op}_p{round(quantile * 100)}_ms": self._percentile_ms(op, quantile)
            for op, quantile in PERCENTILES
        }
        extras["requests_per_s"] = self.requests / self.request_s
        extras["service.client.retries"] = sum(self.retries) / len(self.retries)
        return extras
