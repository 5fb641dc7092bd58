"""DVFS voltage/frequency levels (paper Table I) and the battery governor.

Table I of the paper lists the six V/F levels of the ARM Cortex-A7 core in
the Odroid-XU3; they are reproduced verbatim in :data:`ODROID_XU3_LEVELS`.
The governor maps remaining battery fraction to a level, mimicking the
phone behaviour the paper cites (energy-saving mode under 20% battery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class VFLevel:
    """One DVFS operating point."""

    name: str
    freq_mhz: float
    voltage_mv: float

    @property
    def freq_hz(self) -> float:
        return self.freq_mhz * 1e6

    @property
    def voltage_v(self) -> float:
        return self.voltage_mv * 1e-3


# Paper Table I, verbatim.
ODROID_XU3_LEVELS: Tuple[VFLevel, ...] = (
    VFLevel("l1", 400, 916.25),
    VFLevel("l2", 600, 917.5),
    VFLevel("l3", 800, 992.5),
    VFLevel("l4", 1000, 1066.25),
    VFLevel("l5", 1200, 1141.25),
    VFLevel("l6", 1400, 1240.0),
)


class DVFSTable:
    """An ordered set of V/F levels with name lookup."""

    def __init__(self, levels: Sequence[VFLevel] = ODROID_XU3_LEVELS) -> None:
        if not levels:
            raise ValueError("DVFS table cannot be empty")
        freqs = [lv.freq_mhz for lv in levels]
        if sorted(freqs) != freqs:
            raise ValueError("levels must be ordered by increasing frequency")
        self.levels: Tuple[VFLevel, ...] = tuple(levels)
        self._by_name: Dict[str, VFLevel] = {lv.name: lv for lv in levels}

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    def __getitem__(self, key) -> VFLevel:
        if isinstance(key, str):
            return self._by_name[key]
        return self.levels[key]

    def names(self) -> List[str]:
        return [lv.name for lv in self.levels]

    def subset(self, names: Sequence[str]) -> "DVFSTable":
        """The paper evaluates on {l3, l4, l6}; this builds such subsets."""
        return DVFSTable([self._by_name[n] for n in names])


class BatteryGovernor:
    """Map remaining battery fraction to a V/F level.

    ``thresholds`` are the battery fractions *below which* the governor
    drops to the next-lower level.  With levels ``[l3, l4, l6]`` and
    thresholds ``[0.15, 0.40]``:

    - battery > 40%  -> l6 (F-Mode, fast)
    - 15% < b <= 40% -> l4 (N-Mode, normal)
    - b <= 15%       -> l3 (E-Mode, energy saving)

    The default split makes the *energy* fractions spent in each mode
    roughly 60/25/15, which reproduces the paper's Table II improvement of
    E2 over E1 (~17%).
    """

    def __init__(self, table: DVFSTable, thresholds: Sequence[float] = (0.15, 0.40)) -> None:
        if len(thresholds) != len(table) - 1:
            raise ValueError(
                f"need {len(table) - 1} thresholds for {len(table)} levels, got {len(thresholds)}"
            )
        if list(thresholds) != sorted(thresholds):
            raise ValueError("thresholds must be increasing")
        if thresholds and (thresholds[0] <= 0.0 or thresholds[-1] >= 1.0):
            raise ValueError("thresholds must lie strictly inside (0, 1)")
        self.table = table
        self.thresholds = tuple(thresholds)

    def level_for(self, battery_fraction: float) -> VFLevel:
        """Pick the level for the given remaining battery fraction."""
        if not 0.0 <= battery_fraction <= 1.0:
            raise ValueError("battery fraction must be in [0, 1]")
        for i, thr in enumerate(self.thresholds):
            if battery_fraction <= thr:
                return self.table[i]
        return self.table[len(self.table) - 1]

    def energy_fractions(self) -> List[float]:
        """Fraction of total battery energy spent at each level (low->high)."""
        bounds = [0.0, *self.thresholds, 1.0]
        return [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
