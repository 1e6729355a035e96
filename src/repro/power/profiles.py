"""Calibrated power profiles.

``NEXUS5`` reproduces the paper's measured anchors exactly (Sec. 2.2):

* waking the phone without extra wakelocks: **180 mJ**;
* one stand-alone WPS position fix: **3,650 mJ** = 180 (wake) + 3,470 (scan);
* one stand-alone calendar notification: **400 mJ** = 180 (wake) + 220
  (speaker & vibrator spin-up);

so the motivating example's arithmetic (7,520 vs 4,050 mJ, Fig. 2) holds to
the millijoule when task durations are zero.  The remaining constants are
not reported in the paper and are set to public measurements for 2013-class
hardware (see DESIGN.md, calibration notes): ~96 mW connected-standby sleep
floor (Wi-Fi PSM), ~180 mW awake base, Wi-Fi sync activation ~600 mJ.  The
reproduction asserts *ratios* (who wins, by how much), never absolute joules.
"""

from __future__ import annotations

from ..core.hardware import Component, ComponentPower
from ..core.units import joules_to_mj
from .model import PowerModel, make_component_map

#: LG Nexus 5 battery: 3.8 V x 2300 mAh = 31,464 J.
NEXUS5_BATTERY_MJ = joules_to_mj(3.8 * 2.3 * 3600)

NEXUS5 = PowerModel(
    name="LG Nexus 5 (calibrated)",
    sleep_power_mw=96.0,
    awake_base_power_mw=180.0,
    wake_transition_energy_mj=180.0,
    battery_capacity_mj=NEXUS5_BATTERY_MJ,
    components=make_component_map(
        ComponentPower(Component.WIFI, activation_energy_mj=600.0, active_power_mw=250.0),
        ComponentPower(Component.CELLULAR, activation_energy_mj=800.0, active_power_mw=500.0),
        ComponentPower(Component.WPS, activation_energy_mj=3470.0, active_power_mw=400.0),
        ComponentPower(Component.GPS, activation_energy_mj=5000.0, active_power_mw=450.0),
        ComponentPower(Component.ACCELEROMETER, activation_energy_mj=120.0, active_power_mw=30.0),
        ComponentPower(Component.SCREEN, activation_energy_mj=500.0, active_power_mw=1000.0),
        ComponentPower(Component.SPEAKER_VIBRATOR, activation_energy_mj=220.0, active_power_mw=300.0),
    ),
)

#: An idealized profile with no sleep floor or base power: only the
#: alignment-sensitive terms remain.  Used by unit tests and the Fig. 2
#: bench, where the paper's arithmetic ignores those terms too.
IDEAL_DELIVERY_ONLY = PowerModel(
    name="delivery-energy-only",
    sleep_power_mw=0.0,
    awake_base_power_mw=0.0,
    wake_transition_energy_mj=180.0,
    battery_capacity_mj=NEXUS5_BATTERY_MJ,
    components=NEXUS5.components,
)

#: A 2016-class Wi-Fi wearable: ~10x smaller battery (1.52 kJ usable of a
#: 300 mAh cell at 3.8 V... 4,104 J), much lower sleep floor (no cellular,
#: aggressive PSM), slower SoC but cheaper wake.  Alarm alignment matters
#: *more* here: the sleep floor is a smaller share, so the alignable awake
#: energy dominates the battery budget.
WEARABLE = PowerModel(
    name="Wi-Fi wearable (hypothetical)",
    sleep_power_mw=12.0,
    awake_base_power_mw=90.0,
    wake_transition_energy_mj=90.0,
    battery_capacity_mj=joules_to_mj(3.8 * 0.3 * 3600),
    components=make_component_map(
        ComponentPower(Component.WIFI, activation_energy_mj=400.0, active_power_mw=180.0),
        ComponentPower(Component.CELLULAR, activation_energy_mj=0.0, active_power_mw=0.0),
        ComponentPower(Component.WPS, activation_energy_mj=2200.0, active_power_mw=300.0),
        ComponentPower(Component.GPS, activation_energy_mj=3500.0, active_power_mw=350.0),
        ComponentPower(Component.ACCELEROMETER, activation_energy_mj=40.0, active_power_mw=10.0),
        ComponentPower(Component.SCREEN, activation_energy_mj=150.0, active_power_mw=250.0),
        ComponentPower(Component.SPEAKER_VIBRATOR, activation_energy_mj=120.0, active_power_mw=150.0),
    ),
)

PROFILES = {
    "nexus5": NEXUS5,
    "ideal": IDEAL_DELIVERY_ONLY,
    "wearable": WEARABLE,
}
