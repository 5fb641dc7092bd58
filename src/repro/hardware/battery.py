"""Battery with a fixed energy budget (one charging cycle)."""

from __future__ import annotations

from repro.hardware import calibration


class Battery:
    """Tracks remaining energy across a discharge campaign."""

    def __init__(self, budget_j: float = calibration.BATTERY_BUDGET_J) -> None:
        if budget_j <= 0:
            raise ValueError("battery budget must be positive")
        self.budget_j = budget_j
        self.remaining_j = budget_j

    @property
    def fraction(self) -> float:
        """Remaining charge as a fraction of the full budget."""
        return self.remaining_j / self.budget_j

    @property
    def depleted(self) -> bool:
        return self.remaining_j <= 0.0

    def draw(self, energy_j: float) -> bool:
        """Consume ``energy_j``; returns False when the battery cannot supply it."""
        if energy_j < 0:
            raise ValueError("cannot draw negative energy")
        if energy_j > self.remaining_j:
            self.remaining_j = 0.0
            return False
        self.remaining_j -= energy_j
        return True

    def __repr__(self) -> str:
        return f"Battery({self.remaining_j:.1f}/{self.budget_j:.1f} J)"
