"""CMOS power model: dynamic V^2·f term plus static leakage.

The classic low-power-design relation the paper builds on (their ref [28],
Horowitz et al.): dynamic power scales with C·V²·f, so running slower at a
lower voltage spends less *energy per operation* even though it takes
longer — the entire reason DVFS prolongs battery life.
"""

from __future__ import annotations

from repro.hardware import calibration
from repro.hardware.dvfs import VFLevel


class PowerModel:
    """P(level) = kappa · V² · f + leakage · V."""

    def __init__(self, kappa_f: float = calibration.KAPPA_EFF_F,
                 leakage_w_per_v: float = calibration.LEAKAGE_W_PER_V) -> None:
        if kappa_f <= 0:
            raise ValueError("kappa must be positive")
        if leakage_w_per_v < 0:
            raise ValueError("leakage cannot be negative")
        self.kappa_f = kappa_f
        self.leakage_w_per_v = leakage_w_per_v

    def dynamic_power_w(self, level: VFLevel) -> float:
        return self.kappa_f * level.voltage_v ** 2 * level.freq_hz

    def static_power_w(self, level: VFLevel) -> float:
        return self.leakage_w_per_v * level.voltage_v

    def power_w(self, level: VFLevel) -> float:
        """Total power while computing at ``level``."""
        return self.dynamic_power_w(level) + self.static_power_w(level)

    def energy_j(self, level: VFLevel, seconds: float) -> float:
        """Energy to run for ``seconds`` at ``level``."""
        if seconds < 0:
            raise ValueError("duration cannot be negative")
        return self.power_w(level) * seconds
