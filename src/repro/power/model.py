"""The device power model.

Energy in connected standby decomposes into (Sec. 4.2 / Fig. 3):

* **sleep floor** — baseline draw while suspended (radio beacons, RAM
  self-refresh).  Alarm alignment cannot reduce this term; the paper calls
  it out explicitly as motivation for low-power hardware design.
* **awake base** — CPU/memory draw while the device is awake (tasks, wake
  latency and the post-task tail).
* **wake transitions** — fixed energy to resume from suspend: 180 mJ
  measured by the authors ("the energy required simply to awaken the
  smartphone, without wakelocking extra hardware components").
* **component activations** — fixed cost each time a batch brings up a
  hardware component (Wi-Fi radio ramp, WPS scan, vibrator spin-up).  This
  is the term hardware-similar alignment amortizes.
* **component hold** — power drawn while a component stays wakelocked.

All energies are millijoules, powers milliwatts, times milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from ..core.hardware import Component, ComponentPower
from ..core.units import mw_ms_to_mj


@dataclass(frozen=True)
class PowerModel:
    """Static power characteristics of a device."""

    name: str
    sleep_power_mw: float
    awake_base_power_mw: float
    wake_transition_energy_mj: float
    components: Mapping[Component, ComponentPower] = field(default_factory=dict)
    battery_capacity_mj: float = 0.0

    def __post_init__(self) -> None:
        if self.sleep_power_mw < 0 or self.awake_base_power_mw < 0:
            raise ValueError("powers must be non-negative")
        if self.wake_transition_energy_mj < 0:
            raise ValueError("wake transition energy must be non-negative")
        for component, spec in self.components.items():
            if spec.component is not component:
                raise ValueError(
                    f"component map key {component} does not match spec "
                    f"{spec.component}"
                )

    # ------------------------------------------------------------------
    # Elementary energy terms
    # ------------------------------------------------------------------
    def sleep_energy_mj(self, sleep_ms: int) -> float:
        return mw_ms_to_mj(self.sleep_power_mw, sleep_ms)

    def awake_base_energy_mj(self, awake_ms: int) -> float:
        return mw_ms_to_mj(self.awake_base_power_mw, awake_ms)

    def wake_transitions_energy_mj(self, wake_count: int) -> float:
        return self.wake_transition_energy_mj * wake_count

    def component_spec(self, component: Component) -> ComponentPower:
        spec = self.components.get(component)
        if spec is None:
            raise KeyError(f"power model {self.name!r} has no spec for {component}")
        return spec

    def activation_energy_mj(self, component: Component, activations: int) -> float:
        return self.component_spec(component).activation_energy_mj * activations

    def hold_energy_mj(self, component: Component, hold_ms: int) -> float:
        return mw_ms_to_mj(self.component_spec(component).active_power_mw, hold_ms)

    def single_delivery_energy_mj(self, components: Mapping[Component, int]) -> float:
        """Energy of one stand-alone batch: wake + activations + holds.

        ``components`` maps each component to its hold time.  This is the
        quantity the authors measured per-alarm with the Monsoon monitor
        (3,650 mJ for a WPS fix, 400 mJ for a calendar notification).
        """
        total = self.wake_transition_energy_mj
        for component, hold_ms in components.items():
            total += self.activation_energy_mj(component, 1)
            total += self.hold_energy_mj(component, hold_ms)
        return total


def make_component_map(*specs: ComponentPower) -> Dict[Component, ComponentPower]:
    """Build the component map keyed by each spec's component."""
    mapping: Dict[Component, ComponentPower] = {}
    for spec in specs:
        if spec.component in mapping:
            raise ValueError(f"duplicate spec for {spec.component}")
        mapping[spec.component] = spec
    return mapping
