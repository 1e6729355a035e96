"""Shared machinery of the benchmark: calibration, tracing, run context.

Three pieces, each used by every workload module:

* :class:`Calibration` - a fixed pure-Python reference chunk timed
  between units of work.  On a shared host the same run can take twice
  as long from one minute to the next; the reference slows down with it,
  so host times are scaled by
  ``REFERENCE_NOMINAL_S / median(reference samples)``.  Reported times
  are therefore "calibrated seconds": what the work would have taken on
  the host the nominal value was measured on.
* :class:`Tracer` - the per-layer view.  It wraps public functions and
  methods of the program from outside (instance attributes, class
  attributes or module globals, restored afterwards), records each call
  as a span on a :class:`repro.obs.Telemetry` hub (one hub per thread),
  and keeps exact per-span self time: a span's duration minus the time
  its child spans cover.
* :class:`Run` - one benchmark run: seed, deadline, correctness
  bookkeeping (attempted / failed / problems), metric output, and the
  scratch directory every temp file lives under.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs.exporters import write_chrome_trace
from repro.obs.telemetry import Telemetry

#: Median time of :func:`reference_chunk` on an unloaded core of a
#: 2-vCPU x86-64 Linux VM running CPython 3.11 (the host the baseline in
#: README.md was recorded on).  Only the ratio matters for comparisons.
REFERENCE_NOMINAL_S = 0.0040

#: Median time of :class:`UnpickleReference` on the same host.
UNPICKLE_NOMINAL_S = 0.0048

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 15

#: Span events each hub retains for the Chrome trace; self times are
#: accumulated exactly regardless of this cap.
MAX_TRACE_EVENTS = 50_000

_NS = 1e-9


def reference_chunk(clock: Callable[[], float] = time.perf_counter) -> float:
    """Time a fixed mix of interpreter work: calls, attribute access,
    small allocations, dict and heap traffic (what the simulator does).
    Wall time by default, the clock the measured work is timed with, so
    the reference also sees the host taking the core away."""
    import heapq

    started = clock()
    heap: list = []
    table: Dict[int, tuple] = {}
    for index in range(3_000):
        key = (index * 7_919) % 1_009
        item = (key, index, "alarm")
        table[key] = item
        heapq.heappush(heap, item)
        if len(heap) > 64:
            heapq.heappop(heap)
    sorted(table.values(), key=lambda entry: (entry[1] % 13, entry[0]))
    return clock() - started


class UnpickleReference:
    """Time unpickling a fixed object graph: allocation-heavy work in C,
    the kind reading a cached result does, which the interpreter-bound
    :func:`reference_chunk` does not track."""

    def __init__(self) -> None:
        self.payload = pickle.dumps(
            [
                {"t": index, "app": f"app{index % 97}", "hw": (index % 3, index % 5)}
                for index in range(6_000)
            ]
        )

    def __call__(self, clock: Callable[[], float] = time.perf_counter) -> float:
        started = clock()
        pickle.loads(self.payload)
        return clock() - started


class Calibration:
    """Reference samples interleaved with the measured work.

    The workloads sample next to each measured unit, so the reference
    sees the same host conditions the work did, and scale each iteration
    by the samples taken during it (:meth:`mark` / :meth:`scale_since`):
    the host's speed drifts within a run too.
    """

    def __init__(
        self,
        chunk: Callable[[], float] = reference_chunk,
        nominal_s: float = REFERENCE_NOMINAL_S,
    ) -> None:
        self.chunk = chunk
        self.nominal_s = nominal_s
        self.samples: List[float] = []

    def sample(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.samples.append(self.chunk(clock))

    def mark(self) -> int:
        return len(self.samples)

    @contextlib.contextmanager
    def sampling(self, interval_s: float = 0.25):
        """Sample from a thread while the work runs in other processes.
        These samples take the thread's CPU time: the benchmark's own
        workers hold the cores then, and waiting for them is not the
        host being slow."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(interval_s):
                self.sample(time.thread_time)

        thread = threading.Thread(target=loop, name="perfbench-calibration")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scale_since(self, mark: int) -> float:
        """Multiply a raw host time measured after ``mark`` by this."""
        if len(self.samples) <= mark:
            self.sample()
        return self.nominal_s / statistics.median(self.samples[mark:])

    @property
    def scale(self) -> float:
        """The whole run's factor (per-layer times, the printed summary)."""
        return self.scale_since(0)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class _ThreadState:
    __slots__ = ("hub", "stack", "spans", "counts")

    def __init__(self, hub: Telemetry) -> None:
        self.hub = hub
        #: open spans: [name, start_ns, ns covered by child spans]
        self.stack: List[list] = []
        #: name -> [calls, outer calls, total ns, self ns]
        self.spans: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = {}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans recorded from outside the program, with exact self time.

    ``outer calls`` counts calls whose enclosing span belongs to another
    layer - for the policy, the number of placement decisions, since
    the base ``reinsert`` delegates to ``insert``.
    """

    def __init__(self) -> None:
        self.root = Telemetry(max_events=MAX_TRACE_EVENTS)
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._patches: List[tuple] = []

    # -- per-thread state ----------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                if threading.current_thread() is threading.main_thread():
                    hub = self.root
                else:
                    hub = self.root.fork(threading.current_thread().name)
                state = _ThreadState(hub)
                self._states.append(state)
            self._local.state = state
        return state

    def enter(self, name: str) -> None:
        state = self._state()
        state.stack.append([name, time.perf_counter_ns(), 0])
        state.hub.begin(name)

    def exit(self, name: str) -> None:
        state = self._state()
        state.hub.end(name)
        frame = state.stack.pop()
        duration = time.perf_counter_ns() - frame[1]
        outer = 1
        if state.stack:
            parent = state.stack[-1]
            parent[2] += duration
            outer = int(layer_of(parent[0]) != layer_of(name))
        cell = state.spans.get(name)
        if cell is None:
            cell = state.spans[name] = [0, 0, 0, 0]
        cell[0] += 1
        cell[1] += outer
        cell[2] += duration
        cell[3] += duration - frame[2]

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def count(self, name: str, value: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    # -- wrapping --------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(name)

        return traced

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function: each ``next()`` is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit(name)
                yield item

        return traced

    def patch(self, owner, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` (instance, class or module) until
        :meth:`unpatch_all`."""
        namespace = vars(owner)
        self._patches.append((owner, attr, attr in namespace, namespace.get(attr)))
        setattr(owner, attr, replacement)

    def trace_method(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, had, previous = self._patches.pop()
            if had:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    # -- results ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{"spans": {name: [calls, outer, total_ns, self_ns]},
        "counts": {name: n}}`` merged over every thread."""
        spans: Dict[str, List[int]] = {}
        counts: Dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, cell in state.spans.items():
                merged = spans.setdefault(name, [0, 0, 0, 0])
                for index, value in enumerate(cell):
                    merged[index] += value
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
        return {"spans": spans, "counts": counts}

    def merge(self, snapshot: Dict) -> None:
        """Fold a snapshot taken in another process into this thread."""
        state = self._state()
        for name, cell in snapshot["spans"].items():
            merged = state.spans.setdefault(name, [0, 0, 0, 0])
            for index, value in enumerate(cell):
                merged[index] += value
        for name, value in snapshot["counts"].items():
            state.counts[name] = state.counts.get(name, 0) + value

    def reset(self) -> None:
        """Forget accumulated spans and counts (open spans stay open)."""
        with self._lock:
            for state in self._states:
                state.spans = {}
                state.counts = {}

    def write_chrome_trace(self, path: Path) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_chrome_trace(self.root, path)


class _SpanContext:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.tracer.enter(self.name)

    def __exit__(self, *exc_info: object) -> bool:
        self.tracer.exit(self.name)
        return False


class Layers:
    """Read per-layer numbers out of a list of per-iteration snapshots."""

    def __init__(self, snapshots: List[Dict], scale: float) -> None:
        self.snapshots = snapshots
        self.scale = scale
        self.iterations = max(1, len(snapshots))

    def _cells(self, name: str) -> List[int]:
        total = [0, 0, 0, 0]
        for snapshot in self.snapshots:
            cell = snapshot["spans"].get(name)
            if cell is not None:
                for index, value in enumerate(cell):
                    total[index] += value
        return total

    def calls(self, *names: str) -> float:
        return sum(self._cells(name)[0] for name in names) / self.iterations

    def outer_calls(self, *names: str) -> float:
        return sum(self._cells(name)[1] for name in names) / self.iterations

    def total_s(self, *names: str) -> float:
        raw = sum(self._cells(name)[2] for name in names) * _NS
        return raw * self.scale / self.iterations

    def self_s(self, *names: str) -> float:
        raw = sum(self._cells(name)[3] for name in names) * _NS
        return raw * self.scale / self.iterations

    def count(self, name: str) -> float:
        return (
            sum(snapshot["counts"].get(name, 0) for snapshot in self.snapshots)
            / self.iterations
        )


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Run:
    """Seed, time budget, correctness bookkeeping and outputs of one run."""

    def __init__(
        self, workload: str, seed: int, seconds: float, trace: bool, root: Path
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.calibration = Calibration()
        #: calibrated median of the repeated set-ups
        self.setup_s = 0.0
        #: extra lines for the human-readable report (sample counts)
        self.notes: List[str] = []
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: end-to-end (trace 0) or per-layer (trace 1) metrics
        self.metrics: Dict[str, Dict[str, float]] = {}
        #: first deterministic counters seen per input key
        self.counters: Dict[str, Dict[str, float]] = {}
        scratch = root / ".perfbench" / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
        self.started = time.perf_counter()

    # -- time --------------------------------------------------------------
    def remaining(self) -> float:
        return self.seconds - (time.perf_counter() - self.started)

    def time_setup(self, build: Callable, teardown: Optional[Callable] = None):
        """Run ``build`` SETUP_REPEATS times, timing each; ``teardown``
        (untimed) releases what a build made.  Returns the last build.
        ``setup_s`` is the calibrated median."""
        result = None
        mark = self.calibration.mark()
        durations = []
        for _ in range(SETUP_REPEATS):
            self.calibration.sample()
            started = time.perf_counter()
            result = build()
            durations.append(time.perf_counter() - started)
            if teardown is not None:
                teardown(result)
        self.setup_s = median(durations) * self.calibration.scale_since(mark)
        return result

    def tempdir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    # -- correctness -------------------------------------------------------
    def operations(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def record_counters(self, key: str, counters: Dict[str, float]) -> None:
        """Every deterministic counter must repeat exactly whenever the
        same seeded inputs (``key``) run again in this process."""
        first = self.counters.setdefault(key, dict(counters))
        self._compare(key, first, counters)

    def _compare(self, key: str, first: Dict, counters: Dict) -> None:
        drift = {
            name: (first.get(name), value)
            for name, value in counters.items()
            if first.get(name) != value
        }
        self.check(not drift, f"{key}: deterministic counters drifted: {drift}")

    def compare_ledger(self) -> None:
        """The same check across processes: counters of earlier runs of
        this workload and seed, on identical program and benchmark
        sources, are kept under ``.perfbench/counters``."""
        path = (
            self.root / ".perfbench" / "counters" / code_digest(self.root)
            / f"{self.workload}-seed{self.seed}.json"
        )
        recorded: Dict[str, Dict] = {}
        if path.is_file():
            try:
                recorded = json.loads(path.read_text())
            except ValueError:
                recorded = {}  # a torn write of an earlier run
        for key, counters in self.counters.items():
            if key in recorded:
                self._compare(f"{key} (earlier run)", recorded[key], counters)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**recorded, **self.counters}, sort_keys=True))
        tmp.replace(path)

    # -- output ------------------------------------------------------------
    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def result(self) -> Dict:
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": self.metrics,
        }

    def render(self) -> str:
        lines = [
            f"workload {self.workload} seed {self.seed} "
            f"trace {int(self.trace)}: scale {self.calibration.scale:.4f} "
            f"({len(self.calibration.samples)} reference samples)"
        ]
        for name, cell in self.metrics.items():
            lines.append(f"  {name:<34} {cell['value']:>14.6g} {cell['unit']}")
        lines.append(
            f"  checks and operations: {self.failed} failed of "
            f"{max(1, self.attempted)} attempted (error_rate "
            f"{self.failed / max(1, self.attempted):.6g})"
        )
        lines.extend(f"  {note}" for note in self.notes)
        for problem in self.problems:
            lines.append(f"  FAILED: {problem}")
        return "\n".join(lines)


def code_digest(root: Path) -> str:
    """Digest of every source file the counters depend on."""
    digest = hashlib.sha256()
    for directory in ("src", "perfbench"):
        for path in sorted((root / directory).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
