"""Differential fuzz harness for the alignment policies.

Every fuzz case is a :class:`~repro.workloads.sources.ScenarioSpec` plus
the seed it came from.  Two seeded samplers produce them:

* :func:`generate_case` — a random alarm population (static, dynamic and
  one-shot alarms, no-sleep holds) crossed with mid-run churn and
  external wakes, as one ``inline-alarms`` source;
* :func:`generate_scenario_case` — a random mix of registered sources
  (synthetic populations, push storms, calendar wakeups, churn waves,
  network-gated syncs, inline trace replays, fault injectors).

One runner compiles a case and runs it under NATIVE and SIMTY with the
invariant monitor armed (``on_violation="record"``); one table of
detectors (:data:`DETECTORS`) then judges the runs:

* **crash** — a run raised (compilation included);
* **invariant** — any :class:`~repro.core.invariants.Violation` the
  monitor recorded (Sec. 3.2.2 delivery guarantees, queue structure);
* **backend** — each policy rerun on the ``indexed`` queue backend must
  serialize byte-identically to the reference ``list`` run: backend
  choice may change the cost of a decision, never the decision;
* **stepping** — each policy rerun through the incremental stepping core
  (``start()``/``step()``/``finish()``, the loop ``simty serve`` drives)
  must again serialize byte-identically to the batch ``run()``;
* **oracle** — on clairvoyance-eligible cases (static/one-shot alarms
  only, no churn, no externals, no holds) a policy's wake sessions must
  not undercut :func:`repro.core.oracle.minimum_wakeups`;
* **differential** — on churn- and external-free cases, each static
  repeating wakeup alarm must be delivered the same number of times
  (±1 for the horizon boundary) under both policies.

The oracle and differential rows apply only to cases made purely of
``inline-alarms`` sources.  A failing case is *shrunk* — sources, and
single elements of tuple-valued source kwargs, are greedily dropped
while the failure reproduces — and rendered as a pytest reproducer with
the surviving config inline.  ``generate_case(seed)`` is a pure
function, so every failure replays from ``(seed,)`` alone and the CI
smoke run (``simty fuzz --budget 60 --seed 0``) is fully deterministic.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..core.alarm import RepeatKind
from ..core.backend import DEFAULT_BACKEND
from ..core.invariants import Violation
from ..core.native import NativePolicy
from ..core.oracle import minimum_wakeups
from ..core.simty import SimtyPolicy
from ..simulator.engine import Simulator, SimulatorConfig
from ..simulator.serialize import trace_to_dict
from ..workloads.scenarios import Workload
from ..workloads.sources import (
    InlineAlarmsSource,
    ScenarioSpec,
    SourceUse,
    compile_scenario,
    scenario_to_dict,
)

#: The policies every case is run under.
POLICY_NAMES = ("native", "simty")

#: Share of campaign cases drawn from the composition sampler.
COMPOSITION_SHARE = 0.25


@dataclass(frozen=True)
class FuzzCase:
    """One fuzz case: a scenario config and the seed that produced it."""

    seed: int
    spec: ScenarioSpec


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

_INTERVALS_S = (30, 45, 60, 90, 120, 180, 300)
_ALPHAS = (0.0, 0.25, 0.5, 0.75)


def generate_case(seed: int) -> FuzzCase:
    """Build one deterministic random alarm-population case from a seed.

    Roughly 40% of cases are "pure" (static/one-shot alarms only, no churn,
    no externals, no holds) so the strict oracle bound stays exercised; the
    rest mix dynamic alarms, cancellation/re-registration churn, external
    wakes and no-sleep holds.  Rows follow the ``inline-alarms`` layouts.
    """
    rng = random.Random(seed)
    horizon = rng.choice((10, 20, 30)) * 60_000
    pure = rng.random() < 0.4
    alarms = []
    for index in range(rng.randint(1, 5)):
        label = f"a{index}"
        roll = rng.random()
        if pure:
            kind = "static" if roll < 0.8 else "one_shot"
        elif roll < 0.55:
            kind = "static"
        elif roll < 0.8:
            kind = "dynamic"
        else:
            kind = "one_shot"
        if kind == "one_shot":
            nominal = rng.randrange(0, max(1, horizon * 3 // 4))
            window = rng.choice((0, 15_000, 60_000))
            wakeup = True if pure else rng.random() < 0.85
            alarms.append(
                (label, nominal, 0, kind, window, window, wakeup, "none", None)
            )
            continue
        interval = rng.choice(_INTERVALS_S) * 1_000
        alpha = rng.choice(_ALPHAS)
        beta = min(0.9, alpha + rng.choice((0.0, 0.15, 0.4)))
        window = int(alpha * interval)
        grace = max(window, min(interval - 1, int(beta * interval)))
        hardware = rng.choice(("none", "wifi", "wifi", "speaker"))
        hold_ms = None
        if not pure and rng.random() < 0.1:
            hold_ms = rng.choice((2_000, 5_000))
        nominal = rng.randrange(0, interval)
        wakeup = True if pure else rng.random() < 0.85
        alarms.append(
            (
                label, nominal, interval, kind, window, grace, wakeup,
                hardware, hold_ms,
            )
        )
    churn = []
    externals = []
    if not pure:
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 3)):
                target = rng.choice(alarms)[0]
                op = rng.choice(("cancel", "reregister", "reregister"))
                offset = None
                if op == "reregister" and rng.random() < 0.5:
                    offset = rng.randrange(0, 120_000)
                at = rng.randrange(horizon // 10, horizon)
                churn.append((op, at, target, offset))
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(0, horizon)
                externals.append((at, rng.choice((0, 500, 2_000))))
    kwargs = {
        "alarms": alarms,
        "churn": sorted(churn, key=lambda row: row[1]),
        "externals": sorted(externals, key=lambda row: row[0]),
    }
    source = SourceUse(
        InlineAlarmsSource.name,
        kwargs={key: rows for key, rows in kwargs.items() if rows},
    )
    spec = ScenarioSpec(
        name=f"fuzz-case-{seed}", horizon=horizon, sources=(source,)
    )
    return FuzzCase(seed=seed, spec=spec)


def _random_source_use(rng: random.Random, index: int) -> SourceUse:
    """One random source instance with small, fast-to-simulate kwargs."""
    kind = rng.choice(
        (
            "synthetic",
            "synthetic",
            "push-storm",
            "calendar",
            "network-gated",
            "trace-replay",
            "churn",
            "external-wakes",
        )
    )
    use_id = f"{kind}#{index}"
    if kind == "synthetic":
        kwargs = {
            "app_count": rng.randint(1, 6),
            "period_range_s": (30, rng.choice((120, 300, 600))),
            "dynamic_fraction": rng.choice((0.0, 0.5, 1.0)),
            "churn_fraction": rng.choice((0.0, 0.0, 0.4)),
            "seed": rng.randrange(1 << 16),
        }
    elif kind == "push-storm":
        kwargs = {
            "rate_per_hour": rng.choice((30.0, 120.0, 360.0)),
            "hardware": rng.choice(("none", "wifi", "speaker-vibrator")),
            "seed": rng.randrange(1 << 16),
        }
    elif kind == "calendar":
        kwargs = {
            "times": tuple(
                f"00:{rng.randrange(60):02d}" for _ in range(rng.randint(1, 3))
            ),
            "lead_ms": rng.choice((0, 10_000, 60_000)),
        }
    elif kind == "network-gated":
        kwargs = {
            "sessions_per_hour": rng.choice((2.0, 6.0, 20.0)),
            "syncs_per_session": rng.randint(1, 4),
            "seed": rng.randrange(1 << 16),
        }
    elif kind == "trace-replay":
        kwargs = {
            "events": tuple(
                (
                    f"replayed-{index}",
                    rng.randrange(30_000, 500_000),
                    rng.choice((0, 15_000, 60_000)),
                    rng.choice((100, 1_000)),
                )
                for _ in range(rng.randint(1, 4))
            ),
            "lead_ms": rng.choice((0, 30_000)),
        }
    elif kind == "churn":
        kwargs = {
            "at_ms": rng.randrange(60_000, 400_000),
            "pattern": rng.choice(("cancellation-storm", "app-update-wave")),
            "spread_ms": rng.choice((0, 30_000)),
            "seed": rng.randrange(1 << 16),
        }
    else:  # external-wakes
        kwargs = {
            "rate_per_hour": rng.choice((4.0, 12.0)),
            "hold_ms": rng.choice((0, 500, 2_000)),
            "seed": rng.randrange(1 << 16),
        }
    return SourceUse(kind, id=use_id, kwargs=kwargs)


def generate_scenario_case(seed: int) -> FuzzCase:
    """Build one deterministic random scenario composition from a seed.

    Compositions stay small (1-4 sources, 5-15 simulated minutes) so the
    campaign covers many source *combinations* rather than a few long
    runs.  A ``fault`` source is occasionally appended when a synthetic
    source is present (faults need an app to target).
    """
    rng = random.Random(f"scenario:{seed}")
    horizon = rng.choice((5, 10, 15)) * 60_000
    uses = [
        _random_source_use(rng, index) for index in range(rng.randint(1, 4))
    ]
    synthetic_ids = [
        use for use in uses if use.source == "synthetic"
    ]
    if synthetic_ids and rng.random() < 0.3:
        target_use = rng.choice(synthetic_ids)
        target_count = dict(target_use.kwargs)["app_count"]
        uses.append(
            SourceUse(
                "fault",
                id=f"fault#{len(uses)}",
                kwargs={
                    "app": f"synthetic-{rng.randrange(target_count)}",
                    "kind": rng.choice(("no-sleep", "jitter", "storm")),
                    "hold_ms": 30_000,
                    "interval_divisor": 2,
                    "seed": rng.randrange(1 << 16),
                },
            )
        )
    spec = ScenarioSpec(
        name=f"fuzz-scenario-{seed}",
        horizon=horizon,
        sources=tuple(uses),
        seed=rng.randrange(1 << 16),
    )
    return FuzzCase(seed=seed, spec=spec)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class PolicyOutcome:
    """What one policy did with one case."""

    policy: str
    violations: List[Violation] = field(default_factory=list)
    wake_count: int = 0
    delivered: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: Canonical serialized trace (sorted-key JSON) for rerun comparison.
    trace_json: Optional[str] = None


@dataclass(frozen=True)
class Failure:
    """One detector firing on one case; ``kind`` is the detector's name."""

    kind: str
    detail: str


@dataclass
class CaseOutcome:
    case: FuzzCase
    outcomes: Dict[str, PolicyOutcome]
    failures: List[Failure]

    @property
    def ok(self) -> bool:
        return not self.failures


def _make_policy(name: str):
    return NativePolicy() if name == "native" else SimtyPolicy()


def _drive(simulator: Simulator, driver: str):
    """Run a prepared simulator to completion via the requested driver."""
    if driver == "run":
        return simulator.run()
    if driver == "step":
        simulator.start()
        while simulator.step() is not None:
            pass
        return simulator.finish()
    raise ValueError(f"unknown driver {driver!r}; choose 'run' or 'step'")


def _run_policy(
    case: FuzzCase,
    policy_name: str,
    queue_backend: str = DEFAULT_BACKEND,
    driver: str = "run",
) -> PolicyOutcome:
    """Compile and run one case under one policy/backend/driver.

    The compiled workload's alarms are re-numbered deterministically
    (compilation draws from the process-global id counter, which would
    make repeated compiles byte-incomparable).
    """
    outcome = PolicyOutcome(policy=policy_name)
    try:
        workload = compile_scenario(case.spec)
        for index, registration in enumerate(workload.registrations):
            registration.alarm.alarm_id = index + 1
        config = SimulatorConfig(
            horizon=workload.horizon,
            # Zero latency/tail makes one wake session per distinct
            # delivery instant, so the session count is directly
            # comparable to the oracle's stab count; it also removes all
            # legitimate lateness, making the monitor's deadlines exact.
            wake_latency_ms=0,
            tail_ms=0,
            monitor="record",
            max_events=500_000,
            queue_backend=queue_backend,
        )
        simulator = Simulator(
            _make_policy(policy_name), config, workload.externals
        )
        workload.apply(simulator)
        trace = _drive(simulator, driver)
    except Exception as error:  # noqa: BLE001 - a crash IS a finding
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    outcome.violations = list(trace.violations)
    outcome.wake_count = trace.wake_count()
    outcome.trace_json = json.dumps(trace_to_dict(trace), sort_keys=True)
    for record in trace.deliveries():
        outcome.delivered[record.label] = (
            outcome.delivered.get(record.label, 0) + 1
        )
    return outcome


# ---------------------------------------------------------------------------
# The detector table
# ---------------------------------------------------------------------------

Outcomes = Dict[str, PolicyOutcome]
Check = Callable[[FuzzCase, Outcomes, Optional[Workload]], Iterable[str]]


@dataclass(frozen=True)
class Detector:
    """One row of the detector table.

    ``check(case, outcomes, workload)`` yields one failure detail per
    finding.  A row without an ``eligible`` predicate runs on every case.
    A row with one runs only when ``workload`` is not ``None`` (the case is
    made purely of ``inline-alarms`` sources and every run completed) and
    the predicate accepts it.
    """

    name: str
    check: Check
    eligible: Optional[Callable[[Workload], bool]] = None


def _crashes(case: FuzzCase, outcomes: Outcomes, workload) -> Iterator[str]:
    for name, outcome in outcomes.items():
        if outcome.error is not None:
            yield f"{name}: {outcome.error}"


def _violations(case: FuzzCase, outcomes: Outcomes, workload) -> Iterator[str]:
    for name, outcome in outcomes.items():
        for violation in outcome.violations:
            yield f"{name}: {violation.format()}"


def _rerun(axis: str, value: str) -> Check:
    """Rerun every completed policy run with ``axis=value``; the serialized
    trace must match the reference byte for byte."""

    def check(case: FuzzCase, outcomes: Outcomes, workload) -> Iterator[str]:
        for name, reference in outcomes.items():
            if reference.error is not None:
                continue
            rerun = _run_policy(case, name, **{axis: value})
            if rerun.error is not None:
                yield (
                    f"{name}: {axis}={value} crashed where the reference "
                    f"did not: {rerun.error}"
                )
            elif rerun.trace_json != reference.trace_json:
                yield f"{name}: serialized traces diverge at {axis}={value}"

    return check


def _differential_eligible(workload: Workload) -> bool:
    """NATIVE/SIMTY delivery counts are comparable without churn/externals."""
    return not workload.directives and not workload.externals


def _oracle_eligible(workload: Workload) -> bool:
    """The greedy stabbing bound is strict for static/one-shot, hold-free
    populations."""
    return _differential_eligible(workload) and all(
        alarm.repeat_kind in (RepeatKind.STATIC, RepeatKind.ONE_SHOT)
        and alarm.hold_duration is None
        for alarm in workload.alarms()
    )


def _oracle(case: FuzzCase, outcomes: Outcomes, workload) -> Iterator[str]:
    bound = minimum_wakeups(
        workload.alarms(), workload.horizon, complete_tolerances_only=True
    ).wakeups
    for name, outcome in outcomes.items():
        if outcome.wake_count < bound:
            yield (
                f"{name}: {outcome.wake_count} wake sessions undercut the "
                f"oracle lower bound {bound}"
            )


def _differential(
    case: FuzzCase, outcomes: Outcomes, workload
) -> Iterator[str]:
    native, simty = outcomes["native"], outcomes["simty"]
    for alarm in workload.alarms():
        if alarm.repeat_kind is not RepeatKind.STATIC or not alarm.wakeup:
            continue
        counts = (
            native.delivered.get(alarm.label, 0),
            simty.delivered.get(alarm.label, 0),
        )
        if abs(counts[0] - counts[1]) > 1:
            yield (
                f"alarm {alarm.label}: NATIVE delivered {counts[0]}, SIMTY "
                f"{counts[1]} (|diff| > 1)"
            )


#: Every detector, in report order.
DETECTORS = (
    Detector("crash", _crashes),
    Detector("invariant", _violations),
    Detector("backend", _rerun("queue_backend", "indexed")),
    Detector("stepping", _rerun("driver", "step")),
    Detector("oracle", _oracle, eligible=_oracle_eligible),
    Detector("differential", _differential, eligible=_differential_eligible),
)

DETECTOR_NAMES = tuple(row.name for row in DETECTORS)


def _inline_workload(case: FuzzCase, outcomes: Outcomes) -> Optional[Workload]:
    """The compiled workload the gated rows judge, or ``None`` when the
    case has a non-inline source or a run that did not complete."""
    if any(outcome.error for outcome in outcomes.values()) or any(
        use.source != InlineAlarmsSource.name for use in case.spec.sources
    ):
        return None
    return compile_scenario(case.spec)


def run_case(case: FuzzCase) -> CaseOutcome:
    """Run one case under every policy and apply every detector row."""
    outcomes = {name: _run_policy(case, name) for name in POLICY_NAMES}
    workload = _inline_workload(case, outcomes)
    failures = [
        Failure(kind=row.name, detail=detail)
        for row in DETECTORS
        if row.eligible is None
        or (workload is not None and row.eligible(workload))
        for detail in row.check(case, outcomes, workload)
    ]
    return CaseOutcome(case=case, outcomes=outcomes, failures=failures)


# ---------------------------------------------------------------------------
# Shrinking and rendering
# ---------------------------------------------------------------------------


def _smaller_specs(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Every spec one step smaller: one source dropped, or one element of
    one tuple-valued kwarg of one source."""
    sources = spec.sources
    for index in range(len(sources)):
        yield replace(spec, sources=sources[:index] + sources[index + 1 :])
    for index, use in enumerate(sources):
        for key, value in use.kwargs:
            if not isinstance(value, tuple):
                continue
            for drop in range(len(value)):
                kwargs = dict(use.kwargs)
                kwargs[key] = value[:drop] + value[drop + 1 :]
                smaller = (replace(use, kwargs=kwargs),)
                yield replace(
                    spec,
                    sources=sources[:index] + smaller + sources[index + 1 :],
                )


def _registers_alarms(spec: ScenarioSpec) -> bool:
    """A valid spec that still registers an alarm (or fails to compile,
    which is itself a finding the run reports)."""
    if spec.validate():
        return False
    try:
        return bool(compile_scenario(spec).registrations)
    except Exception:  # noqa: BLE001 - the run reports the crash
        return True


def shrink_case(
    case: FuzzCase,
    kinds: frozenset,
    run: Callable[[FuzzCase], CaseOutcome] = run_case,
) -> FuzzCase:
    """Greedy delta-debugging: drop components while the failure persists.

    A one-step-smaller spec is kept when it is valid, still registers an
    alarm, and still fails with at least one of the original failure
    ``kinds``.  Terminates at a local minimum.
    """
    shrunk = case
    progress = True
    while progress:
        progress = False
        for spec in _smaller_specs(shrunk.spec):
            if not _registers_alarms(spec):
                continue
            candidate = replace(shrunk, spec=spec)
            if {failure.kind for failure in run(candidate).failures} & kinds:
                shrunk = candidate
                progress = True
                break
    return shrunk


def _literal(value, indent: int) -> str:
    """``value`` as a Python literal: one dict entry or nested item per
    line, flat lists (config rows) on one line."""
    pad = " " * indent
    if isinstance(value, dict) and value:
        items = [
            f"{pad}    {key!r}: {_literal(item, indent + 4)},"
            for key, item in value.items()
        ]
        return "{\n" + "\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list) and any(
        isinstance(item, (dict, list)) for item in value
    ):
        items = [f"{pad}    {_literal(item, indent + 4)}," for item in value]
        return "[\n" + "\n".join(items) + f"\n{pad}]"
    return repr(value)


def render_case(case: FuzzCase) -> str:
    """Render a case as a pytest reproducer with the config inline."""
    config = _literal(scenario_to_dict(case.spec), indent=4)
    return "\n".join(
        [
            f"def test_fuzz_regression_seed_{case.seed}():",
            '    """Shrunk reproducer found by `simty fuzz`: keep as a '
            'regression."""',
            "    from repro.analysis.fuzz import FuzzCase, run_case",
            "    from repro.workloads.sources import scenario_from_dict",
            "",
            f"    config = {config}",
            f"    case = FuzzCase(seed={case.seed}, "
            "spec=scenario_from_dict(config))",
            "    outcome = run_case(case)",
            "    assert outcome.ok, [f.detail for f in outcome.failures]",
        ]
    )


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------


@dataclass
class FuzzFailure:
    """A failing case, its shrunk form, and the rendered reproducer."""

    case: FuzzCase
    shrunk: FuzzCase
    failures: List[Failure]
    reproducer: str


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign: failures counted per detector row."""

    seed: int
    cases_run: int
    elapsed_s: float
    failures: List[FuzzFailure] = field(default_factory=list)
    counts: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(DETECTOR_NAMES, 0)
    )
    compositions_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} cases ({self.compositions_run} "
            f"compositions) in {self.elapsed_s:.1f}s (seed {self.seed}, "
            f"policies {'/'.join(POLICY_NAMES)})",
        ]
        lines.extend(
            f"  {name + ':':<14s}{self.counts[name]}"
            for name in DETECTOR_NAMES
        )
        if self.ok:
            lines.append("  all cases clean")
        else:
            lines.append(f"  FAILING CASES: {len(self.failures)}")
            for failure in self.failures:
                lines.append("")
                for item in failure.failures:
                    lines.append(f"  - [{item.kind}] {item.detail}")
                lines.append("  shrunk reproducer:")
                for row in failure.reproducer.splitlines():
                    lines.append(f"    {row}")
        return "\n".join(lines)


def fuzz(
    seed: int = 0,
    budget_s: float = 60.0,
    max_cases: int = 1_000,
    clock: Callable[[], float] = time.monotonic,
) -> FuzzReport:
    """Run a fuzz campaign until the time budget or case budget is spent.

    Case ``i`` is generated from ``seed + i``, so any failure is replayable
    on its own; failing cases are shrunk and rendered immediately.  A
    per-index draw sends :data:`COMPOSITION_SHARE` of the cases to the
    composition sampler and the rest to :func:`generate_case`.
    """
    started = clock()
    report = FuzzReport(seed=seed, cases_run=0, elapsed_s=0.0)
    for index in range(max_cases):
        if clock() - started >= budget_s:
            break
        case_seed = seed + index
        composition = (
            random.Random(f"axis:{case_seed}").random() < COMPOSITION_SHARE
        )
        generate = generate_scenario_case if composition else generate_case
        case = generate(case_seed)
        outcome = run_case(case)
        report.cases_run += 1
        report.compositions_run += composition
        for failure in outcome.failures:
            report.counts[failure.kind] += 1
        if not outcome.ok:
            kinds = frozenset(failure.kind for failure in outcome.failures)
            shrunk = shrink_case(case, kinds)
            report.failures.append(
                FuzzFailure(
                    case=case,
                    shrunk=shrunk,
                    failures=outcome.failures,
                    reproducer=render_case(shrunk),
                )
            )
    report.elapsed_s = clock() - started
    return report
