"""Supervised execution: fault containment, timeouts, and retries.

The plain executor lets any worker exception propagate out of the batch —
one poisoned spec kills an entire sweep.  This module wraps each attempt so
the batch front end (:func:`repro.runner.executor.run_many`) can degrade
gracefully instead:

* every attempt runs through :func:`attempt_spec`, which captures the
  exception object, its type name and a formatted traceback rather than
  letting it unwind the batch;
* :func:`run_supervised_serial` retries with exponential backoff plus
  jitter and enforces ``timeout_s`` by running the attempt in a daemon
  thread (an abandoned attempt keeps burning its CPU slice, but the
  simulator's own watchdog — :class:`~repro.simulator.engine.SimulationStalled`
  — bounds how long a runaway simulation can live);
* :func:`supervise` is the one place that starts worker processes: one
  forked process per attempt, a hard per-attempt deadline, and every
  attempt's end (``ok`` / ``died`` / ``deadline``) reported back to the
  caller, which decides whether to run it again.  ``run_many``'s parallel
  path (:func:`run_supervised_processes`) and the fleet's shard workers
  both run on it.  A worker that dies is charged to its own task alone.

Outcomes come back as :class:`Outcome` values keyed by input index; the
executor converts them into :class:`~repro.runner.record.RunRecord`\\ s and
decides — per its ``on_error`` mode — whether to raise or keep going.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import threading
import time
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass
from functools import partial
from multiprocessing.connection import wait
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .record import ExperimentResult, RunStatus
from .spec import RunSpec

#: Base delay of the serial path's exponential backoff, in seconds.
DEFAULT_BACKOFF_BASE_S = 0.05

#: Upper bound on any single backoff sleep, in seconds.
DEFAULT_BACKOFF_CAP_S = 2.0


class SpecExecutionError(RuntimeError):
    """A spec failed every supervised attempt (parallel, ``on_error="raise"``)."""

    def __init__(self, spec: RunSpec, digest: str, error_type: str, message: str, attempts: int):
        self.spec = spec
        self.digest = digest
        self.error_type = error_type
        self.attempts = attempts
        super().__init__(
            f"spec {digest[:12]} ({spec.workload}/{spec.display_name()}) failed "
            f"after {attempts} attempt(s): {error_type}: {message}"
        )


class SpecTimeoutError(RuntimeError):
    """A spec exceeded ``timeout_s`` on every attempt (``on_error="raise"``)."""

    def __init__(self, spec: RunSpec, digest: str, timeout_s: float, attempts: int):
        self.spec = spec
        self.digest = digest
        self.timeout_s = timeout_s
        self.attempts = attempts
        super().__init__(
            f"spec {digest[:12]} ({spec.workload}/{spec.display_name()}) exceeded "
            f"timeout_s={timeout_s} on {attempts} attempt(s)"
        )


@dataclass
class Outcome:
    """Terminal outcome of supervising one unique spec."""

    status: RunStatus
    result: Optional[ExperimentResult]
    wall_time_s: float
    attempts: int
    error: Optional[BaseException] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status.is_ok


def backoff_delay(
    attempt: int,
    base_s: float = DEFAULT_BACKOFF_BASE_S,
    cap_s: float = DEFAULT_BACKOFF_CAP_S,
    rng: Optional[random.Random] = None,
) -> float:
    """Exponential backoff with jitter: ``base * 2^(attempt-1)``, capped.

    The jitter draws the final delay uniformly from [half, full] of the
    exponential step, so colliding retriers (e.g. two processes sharing a
    cache dir) decorrelate.
    """
    if attempt < 1:
        raise ValueError("attempt numbers start at 1")
    step = min(cap_s, base_s * (2.0 ** (attempt - 1)))
    rng = rng if rng is not None else random
    return step * (0.5 + 0.5 * rng.random())


def _portable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives pickling, else a stringified stand-in.

    Worker outcomes cross a process boundary; an exception holding an
    unpicklable payload must not take the whole result down with it.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def attempt_spec(spec: RunSpec, registry=None, telemetry=None) -> Tuple:
    """Execute one attempt, capturing any exception instead of raising.

    Returns ``("ok", result, wall_s)`` or
    ``("error", exception, type_name, traceback_str, wall_s)``.  Used both
    in-process (serial path) and in worker processes, so the
    return value must be picklable.
    """
    from .executor import execute_spec  # local import to avoid a cycle

    started = time.perf_counter()
    try:
        result = execute_spec(spec, registry, telemetry=telemetry)
    except Exception as exc:  # noqa: BLE001 — supervision must contain everything
        wall = time.perf_counter() - started
        return (
            "error",
            _portable_exception(exc),
            type(exc).__name__,
            traceback_module.format_exc(),
            wall,
        )
    return ("ok", result, time.perf_counter() - started)


def _attempt_in_child(
    spec: RunSpec, enable_telemetry: bool, attempt: int
) -> Tuple:
    """Worker-process attempt (default registry only).

    Live hubs do not cross process boundaries, so an instrumented batch
    ships only a *flag*; the worker builds a fresh hub whose summary rides
    back on ``result.trace.telemetry`` (plain, picklable data).
    """
    from ..obs.telemetry import Telemetry  # local import: worker side only

    del attempt  # a spec simulates the same on every attempt
    telemetry = Telemetry() if enable_telemetry else None
    return attempt_spec(spec, None, telemetry)


def _attempt_with_timeout(
    spec: RunSpec, registry, timeout_s: Optional[float], telemetry=None
) -> Tuple:
    """One serial attempt, bounded by ``timeout_s`` via a daemon thread.

    On timeout the attempt thread is abandoned (daemon, so it never blocks
    interpreter exit); the engine watchdog bounds truly runaway
    simulations.
    """
    if timeout_s is None:
        return attempt_spec(spec, registry, telemetry)
    box: List[Tuple] = []
    thread = threading.Thread(
        target=lambda: box.append(attempt_spec(spec, registry, telemetry)),
        name=f"run-attempt-{spec.digest()[:12]}",
        daemon=True,
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive() or not box:
        return ("timeout",)
    return box[0]


def _timeout_outcome(timeout_s: Optional[float], attempts: int) -> Outcome:
    return Outcome(
        status=RunStatus.TIMEOUT,
        result=None,
        wall_time_s=timeout_s or 0.0,
        attempts=attempts,
        error_type="TimeoutError",
        error_message=f"attempt exceeded timeout_s={timeout_s}",
    )


def _outcome_from_payload(payload: Tuple, attempts: int) -> Outcome:
    if payload[0] == "ok":
        _, result, wall = payload
        status = RunStatus.OK if attempts == 1 else RunStatus.RETRIED_OK
        return Outcome(status=status, result=result, wall_time_s=wall, attempts=attempts)
    _, exc, type_name, tb, wall = payload
    return Outcome(
        status=RunStatus.FAILED,
        result=None,
        wall_time_s=wall,
        attempts=attempts,
        error=exc,
        error_type=type_name,
        error_message=str(exc),
        traceback=tb,
    )


def run_supervised_serial(
    spec: RunSpec,
    registry=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
    telemetry=None,
) -> Outcome:
    """Supervise one spec in-process: timeout, retries, backoff+jitter."""
    attempts = 0
    while True:
        attempts += 1
        payload = _attempt_with_timeout(spec, registry, timeout_s, telemetry)
        if payload[0] == "ok":
            return _outcome_from_payload(payload, attempts)
        if attempts > retries:
            if payload[0] == "timeout":
                return _timeout_outcome(timeout_s, attempts)
            return _outcome_from_payload(payload, attempts)
        time.sleep(backoff_delay(attempts, backoff_base_s, backoff_cap_s))


@dataclass(frozen=True)
class AttemptEnd:
    """How one supervised attempt ended.

    ``how`` is ``"ok"`` (the target returned; ``payload`` is its value),
    ``"died"`` (the process exited without a payload: an uncaught
    exception, ``os._exit``, a signal) or ``"deadline"`` (killed past its
    deadline).  ``wall_s`` runs from fork to the end.
    """

    key: Hashable
    attempt: int
    how: str
    wall_s: float
    payload: Any = None
    exitcode: Optional[int] = None


def _child_main(conn, target: Callable[[int], Any], attempt: int) -> None:
    conn.send(target(attempt))
    conn.close()


@dataclass
class _Running:
    """One attempt in flight: its process and the read end of its pipe."""

    key: Hashable
    attempt: int
    process: Any
    reader: Any
    started: float
    received: bool = False
    payload: Any = None

    def drain(self) -> None:
        """Take the payload off the pipe (or its EOF) and close the pipe."""
        try:
            self.payload = self.reader.recv()
            self.received = True
        except (EOFError, OSError):
            pass
        self.reader.close()
        self.reader = None


def supervise(
    targets: Mapping[Hashable, Callable[[int], Any]],
    workers: int,
    deadline_s: Callable[[], Optional[float]],
    on_end: Callable[[AttemptEnd], bool],
) -> None:
    """Run every target in its own forked process, one per attempt.

    ``targets[key](attempt)`` runs in the child and returns a picklable
    value, sent back over a pipe.  At most ``workers`` children run at
    once, started in ``targets`` order.  ``deadline_s()`` is read on every
    pass and bounds each attempt from its fork (``None``: no bound); a
    child past it is killed, so the deadline is hard.  The parent blocks
    on every child's pipe and exit sentinel with a timeout of the time
    left to the nearest deadline, and drains a pipe as soon as it is
    readable, so a child sending a payload larger than the pipe buffer
    never blocks its own exit.  ``on_end`` sees every attempt's end and
    returns True to queue another attempt of that key.
    """
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    queue = deque((key, 1) for key in targets)
    running: List[_Running] = []
    try:
        while queue or running:
            while queue and len(running) < workers:
                key, attempt = queue.popleft()
                reader, writer = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_child_main,
                    args=(writer, targets[key], attempt),
                    daemon=True,
                )
                process.start()
                writer.close()  # the child's exit is then the pipe's EOF
                running.append(
                    _Running(key, attempt, process, reader, time.monotonic())
                )
            limit = deadline_s()
            timeout = None
            if limit is not None:
                nearest = min(child.started for child in running) + limit
                timeout = max(0.0, nearest - time.monotonic())
            handles = [child.process.sentinel for child in running] + [
                child.reader for child in running if child.reader is not None
            ]
            ready = set(wait(handles, timeout))
            now = time.monotonic()
            for child in list(running):
                if child.reader is not None and child.reader in ready:
                    child.drain()
                expired = limit is not None and now - child.started >= limit
                if child.process.sentinel not in ready and not expired:
                    continue
                killed = expired and child.process.is_alive()
                if killed:
                    child.process.kill()
                child.process.join()
                if child.reader is not None:
                    child.drain()
                running.remove(child)
                end = AttemptEnd(
                    key=child.key,
                    attempt=child.attempt,
                    how="ok" if child.received else (
                        "deadline" if killed else "died"
                    ),
                    wall_s=now - child.started,
                    payload=child.payload,
                    exitcode=child.process.exitcode,
                )
                if on_end(end):
                    queue.append((child.key, child.attempt + 1))
    finally:
        for child in running:
            child.process.kill()
            child.process.join()


def run_supervised_processes(
    pending: Sequence[Tuple[int, RunSpec]],
    max_workers: int,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    enable_telemetry: bool = False,
) -> Dict[int, Outcome]:
    """Supervise a batch, one process per attempt; outcomes keyed by index.

    ``timeout_s`` is every attempt's hard deadline.  A failed, timed-out
    or dead attempt runs again, at the back of the queue, until its
    attempts exceed ``retries``.  A worker that dies (``os._exit``, a
    signal, the OOM killer) costs only its own spec an attempt.
    """
    outcomes: Dict[int, Outcome] = {}

    def settle(end: AttemptEnd) -> bool:
        if end.how == "ok":
            outcome = _outcome_from_payload(end.payload, end.attempt)
        elif end.how == "deadline":
            outcome = _timeout_outcome(timeout_s, end.attempt)
        else:
            outcome = Outcome(
                status=RunStatus.FAILED,
                result=None,
                wall_time_s=end.wall_s,
                attempts=end.attempt,
                error_type="WorkerDied",
                error_message=(
                    f"worker process exited with code {end.exitcode} "
                    "before reporting a result"
                ),
            )
        if outcome.ok or end.attempt > retries:
            outcomes[end.key] = outcome
            return False
        return True

    supervise(
        {
            index: partial(_attempt_in_child, spec, enable_telemetry)
            for index, spec in pending
        },
        workers=max_workers,
        deadline_s=lambda: timeout_s,
        on_end=settle,
    )
    return outcomes
