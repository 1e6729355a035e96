"""The repository benchmark: one command, four workloads, two views.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced iterations of the same
workload and reports the per-layer metrics (plus the tracing overhead),
writing the spans to ``.perfbench/traces/<workload>-seed<n>.json`` for
``chrome://tracing``.  Either way every correctness check runs, and the
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
CALIBRATION_SAMPLES_PER_ITERATION = 1

#: The gated end-to-end metrics, name -> unit.  Every workload reports
#: every one of them, each in the workload's own terms (see README.md):
#: an "op" is a cold ``run_many`` spec on paper, one policy run on dense,
#: one request on service and one device on fleet.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "sim_deliveries_per_s": "deliveries/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper", "dense", "service", "fleet")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str):
    from dense import Dense
    from fleet import Fleet
    from paper import Paper
    from service import Service

    return {"paper": Paper, "dense": Dense, "service": Service, "fleet": Fleet}[
        name
    ]


def drive(run, workload) -> None:
    """Iterate until the time budget is spent and the workload's minimum
    of untraced iterations is met.  In trace mode, untraced and traced
    iterations alternate, at least one traced."""
    from harness import Layers, median, peak_rss_mb
    from probes import instrument_engine, per_layer_metrics

    samples = []  # per-iteration measurements of untraced iterations
    walls = {False: [], True: []}
    snapshots = []
    tracer = run.tracer
    while True:
        traced = run.trace and len(walls[True]) < len(walls[False])
        if (
            run.remaining() <= 0
            and len(walls[False]) >= workload.min_iterations
            and (walls[True] or not run.trace)
        ):
            break
        for _ in range(CALIBRATION_SAMPLES_PER_ITERATION):
            run.calibration.sample()
        if traced:
            tracer.reset()
            instrument_engine(tracer)
        started = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench.iteration"):
                    outcome = workload.iteration(True)
            else:
                outcome = workload.iteration(False)
        finally:
            if traced:
                tracer.unpatch_all()
        walls[traced].append(time.perf_counter() - started)
        counters = dict(outcome["counters"])
        if traced:
            snapshot = tracer.snapshot()
            snapshots.append(snapshot)
            last_counters = outcome["counters"]
            # Span call counts (inserts, engine steps, journal appends...)
            # and tracer counts (fsyncs, registrations) are deterministic.
            counters.update(
                {f"{name}.calls": cell[0] for name, cell in snapshot["spans"].items()}
            )
            counters.update(snapshot["counts"])
        else:
            samples.append(outcome)
        run.record_counters(
            f"{outcome['key']}/{'traced' if traced else 'plain'}", counters
        )

    workload.checks()
    if not run.trace:
        values = {
            "setup_s": run.setup_s,
            **workload.report(samples),
            "peak_rss_mb": peak_rss_mb(),
        }
        for name, unit in END_TO_END_UNITS.items():
            value = values.get(name, 0.0)
            run.check(
                value > 0 and math.isfinite(value),
                f"{name} = {value} is not a positive measurement",
            )
            run.metric(name, value, unit)
        return
    overhead = 100.0 * (median(walls[True]) / median(walls[False]) - 1.0)
    per_layer_metrics(
        run,
        Layers(snapshots, run.calibration.scale),
        last_counters,
        overhead,
        workload.layer_extras(samples),
    )
    path = ROOT / ".perfbench" / "traces" / f"{run.workload}-seed{run.seed}.json"
    events = tracer.write_chrome_trace(path)
    run.notes.append(f"chrome trace: {path.relative_to(ROOT)} ({events} events)")


def join_threads(timeout_s: float = 10.0) -> None:
    """Wait for every thread the run started (server handlers, readers)."""
    deadline = time.monotonic() + timeout_s
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(max(0.0, deadline - time.monotonic()))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from harness import Run

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    try:
        workload = load_workload(args.workload)(run)
        drive(run, workload)
        run.compare_ledger()
    except Exception:  # noqa: BLE001 - a crash is a failed run, reported
        run.check(False, "benchmark raised:\n" + traceback.format_exc())
    finally:
        run.close()
        join_threads()
    if run.trace:
        run.metric(
            "error_rate", run.failed / max(1, run.attempted), "failed/attempted"
        )
    print(run.render())
    print(json.dumps(run.result()))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
