"""The ``inline-alarms`` source: an explicit alarm population as plain rows.

Every alarm, churn operation and external wake is spelled out in the
config; nothing is drawn from a seed.  The fuzz harness generates its
alarm-population cases as one ``inline-alarms`` source, so a generated
case, a shrunk case and a rendered reproducer are all one scenario config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ...core.alarm import Alarm, RepeatKind
from ...core.hardware import EMPTY_HARDWARE, SPEAKER_VIBRATOR_ONLY, WIFI_ONLY
from ...simulator.external import ExternalWake
from ..churn import CancelAt, ReRegisterAt
from ..scenarios import Registration
from .base import BuildContext, ScenarioSource, SourceBuild, _freeze, suggest

ALARM_FIELDS = (
    "label",
    "nominal",
    "interval",
    "kind",
    "window",
    "grace",
    "wakeup",
    "hardware",
    "hold_ms",
)
CHURN_FIELDS = ("op", "time", "target", "nominal_offset")
EXTERNAL_FIELDS = ("time", "hold_ms")

KINDS = {
    "static": RepeatKind.STATIC,
    "dynamic": RepeatKind.DYNAMIC,
    "one_shot": RepeatKind.ONE_SHOT,
}
HARDWARE = {
    "none": EMPTY_HARDWARE,
    "wifi": WIFI_ONLY,
    "speaker": SPEAKER_VIBRATOR_ONLY,
}
OPS = ("cancel", "reregister")


class InlineAlarmsSource(ScenarioSource):
    """Explicit alarms registered at time 0, plus scripted churn and wakes.

    ``interval == 0`` means one-shot; ``hold_ms`` models a no-sleep bug
    holding the wakelock past the task (``None`` for none).  Churn rows
    target alarms of this source by label.
    """

    name = "inline-alarms"
    description = "Explicit alarm rows with inline churn and external wakes"

    @dataclass(frozen=True)
    class Config:
        alarms: Tuple[Tuple, ...] = ()
        churn: Tuple[Tuple, ...] = ()
        externals: Tuple[Tuple, ...] = ()

    field_docs = {
        "alarms": f"({', '.join(ALARM_FIELDS)}) rows; kind is one of "
        f"{'/'.join(KINDS)}, hardware one of {'/'.join(HARDWARE)}",
        "churn": f"({', '.join(CHURN_FIELDS)}) rows; op is one of "
        f"{'/'.join(OPS)}",
        "externals": f"({', '.join(EXTERNAL_FIELDS)}) rows",
    }

    @classmethod
    def validate_kwargs(cls, kwargs, where=""):
        problems = super().validate_kwargs(kwargs, where=where)
        prefix = f"{where}: " if where else ""
        labels = set()
        for key, fields, menus in (
            ("alarms", ALARM_FIELDS, {3: KINDS, 7: HARDWARE}),
            ("churn", CHURN_FIELDS, {0: OPS}),
            ("externals", EXTERNAL_FIELDS, {}),
        ):
            rows = _freeze(kwargs.get(key, ()))
            if not isinstance(rows, tuple):
                continue
            for index, row in enumerate(rows):
                at = f"{prefix}{key}[{index}]"
                if not isinstance(row, tuple) or len(row) != len(fields):
                    problems.append(f"{at} must be ({', '.join(fields)})")
                    continue
                for position, menu in menus.items():
                    value = row[position]
                    if value not in menu:
                        problems.append(
                            f"{at}: unknown {fields[position]} {value!r}"
                            f"{suggest(str(value), list(menu))}; choose "
                            f"from {list(menu)}"
                        )
                if key == "alarms":
                    if row[0] in labels:
                        problems.append(f"{at}: duplicate label {row[0]!r}")
                    labels.add(row[0])
                elif key == "churn" and row[2] not in labels:
                    problems.append(
                        f"{at}: target {row[2]!r} names no alarm of this "
                        f"source{suggest(str(row[2]), sorted(labels))}"
                    )
        return problems

    def build(self, ctx: BuildContext) -> SourceBuild:
        config = self.config
        registrations = [
            Registration(
                time=0,
                alarm=Alarm(
                    app=label,
                    label=label,
                    nominal_time=nominal,
                    repeat_interval=interval,
                    repeat_kind=KINDS[kind],
                    window_length=window,
                    grace_length=grace,
                    wakeup=wakeup,
                    hardware=HARDWARE[hardware],
                    hold_duration=hold_ms,
                ),
            )
            for (
                label, nominal, interval, kind, window, grace, wakeup,
                hardware, hold_ms,
            ) in config.alarms
        ]
        directives = [
            CancelAt(time=time, label=target)
            if op == "cancel"
            else ReRegisterAt(
                time=time, label=target, nominal_offset=nominal_offset
            )
            for op, time, target, nominal_offset in config.churn
        ]
        externals = [
            ExternalWake(time=time, hold_ms=hold_ms)
            for time, hold_ms in config.externals
        ]
        return SourceBuild(
            registrations=registrations,
            directives=directives,
            externals=externals,
        )
