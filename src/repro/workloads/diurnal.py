"""A 24-hour diurnal scenario: standby interleaved with interactive use.

The paper's 3-hour untouched-phone experiment covers connected standby alone;
real days also contain screen-on sessions (which the study [Shye et al.]
behind the paper's motivation quantifies: phones are in standby ~89 % of
the time).  This scenario extends the evaluation horizon to a full day and
injects seeded interactive sessions as external wakes, so daily-energy and
overnight-drain questions can be asked of the same machinery.

During an interactive session the device is awake anyway, so non-wakeup
alarms drain and wakeup alarms piggyback — exactly Android's behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from ..core.units import MS_PER_HOUR, MS_PER_MINUTE
from ..simulator.external import ExternalWake
from .scenarios import ScenarioConfig, Workload, build_heavy, build_light


@dataclass(frozen=True)
class DiurnalConfig:
    """Shape of the interactive day."""

    horizon_hours: int = 24
    #: Hours (start, end) of the waking day; sessions only occur inside.
    day_span: tuple = (8, 23)
    sessions_per_day: int = 40
    session_length_range_ms: tuple = (20_000, 300_000)
    seed: int = 42
    base: ScenarioConfig = field(default_factory=ScenarioConfig)

    @property
    def horizon_ms(self) -> int:
        return self.horizon_hours * MS_PER_HOUR


def interactive_sessions(config: DiurnalConfig) -> List[ExternalWake]:
    """Seeded screen-on sessions inside the waking-day span."""
    rng = random.Random(config.seed)
    start_hour, end_hour = config.day_span
    events = []
    for _ in range(config.sessions_per_day):
        start = rng.randrange(
            start_hour * MS_PER_HOUR,
            min(end_hour * MS_PER_HOUR, config.horizon_ms - MS_PER_MINUTE),
        )
        hold = rng.randrange(*config.session_length_range_ms)
        events.append(
            ExternalWake(time=start, hold_ms=hold, description="screen-on")
        )
    events.sort(key=lambda event: event.time)
    return events


def build_diurnal(
    config: DiurnalConfig = DiurnalConfig(), heavy: bool = True
) -> tuple:
    """A (workload, external_events) pair for a full simulated day.

    The app workload is the paper's light or heavy scenario with the
    horizon stretched to the configured day; alarms keep repeating all day.
    """
    base = ScenarioConfig(
        beta=config.base.beta,
        horizon=config.horizon_ms,
        install_window_ms=config.base.install_window_ms,
        phase_seed=config.base.phase_seed,
        background=config.base.background,
    )
    workload = build_heavy(base) if heavy else build_light(base)
    workload.name = f"diurnal-{'heavy' if heavy else 'light'}"
    return workload, interactive_sessions(config)
