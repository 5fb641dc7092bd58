"""Run-time adaptation policy beyond DVFS.

The paper notes its reconfigurability "is not only applicable for DVFS,
but can be applied for diverse scenarios, such as local language
translation for on-line interactive events with a fluctuating network
bandwidth".  This module implements that deployment story: a
:class:`RuntimeAdapter` holds the searched pattern sets (sorted by
sparsity), and on every constraint change picks the *least sparse* set
whose predicted latency still meets the current deadline at the current
V/F level — maximizing accuracy subject to the real-time requirement —
while accounting each swap's cost through the reconfigurator model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.patterns import MaskManager, PatternSet
from repro.hardware.dvfs import VFLevel
from repro.hardware.latency import LatencyModel, SparsityKind
from repro.hardware.runtime import RuntimeReconfigurator, SwitchStats
from repro.hardware.workload import WorkloadProfile


@dataclass
class AdaptationEvent:
    """One step of the adaptation log."""

    deadline_s: float
    level_name: str
    chosen_sparsity: Optional[float]  # None = infeasible even at max sparsity
    predicted_latency_s: float
    switched: bool
    switch: Optional[SwitchStats]


@dataclass
class AdaptationReport:
    """Aggregate of one adaptation run."""

    events: List[AdaptationEvent] = field(default_factory=list)

    @property
    def num_switches(self) -> int:
        return sum(1 for e in self.events if e.switched)

    @property
    def total_switch_seconds(self) -> float:
        return sum(e.switch.seconds for e in self.events if e.switch is not None)

    @property
    def violations(self) -> int:
        return sum(1 for e in self.events if e.chosen_sparsity is None)


# distinguishes "caller did not resolve feasibility" from a resolved None
# (None is a meaningful result: no candidate meets the deadline)
_UNRESOLVED = object()


class RuntimeAdapter:
    """Pick the most accurate feasible pattern set as constraints move.

    ``pattern_sets`` maps a *total* model sparsity (backbone + pattern) to
    the pattern set achieving it; candidates are tried least-sparse first
    since lower sparsity preserves more accuracy.
    """

    def __init__(
        self,
        pattern_sets: Dict[float, PatternSet],
        workload: WorkloadProfile,
        latency: Optional[LatencyModel] = None,
        reconfigurator: Optional[RuntimeReconfigurator] = None,
        manager: Optional[MaskManager] = None,
        hardware_pattern_size: int = 100,
    ) -> None:
        if not pattern_sets:
            raise ValueError("need at least one pattern set")
        self.candidates: List[Tuple[float, PatternSet]] = sorted(pattern_sets.items())
        self.workload = workload
        self.latency = latency or LatencyModel()
        self.reconfigurator = reconfigurator or RuntimeReconfigurator()
        self.manager = manager
        self.hardware_pattern_size = hardware_pattern_size
        self.active_sparsity: Optional[float] = None
        # analytic latencies are pure functions of (level, sparsity,
        # batch) for this adapter's model and workload: each is computed
        # once and looked up afterwards
        self._rungs: Dict[VFLevel, Dict[float, float]] = {}
        self._batch_s: Dict[Tuple[VFLevel, Optional[float], int], float] = {}

    # ------------------------------------------------------------------
    def rungs(self, level: VFLevel) -> Dict[float, float]:
        """The ladder at ``level``: sparsity -> single-inference latency,
        least sparse first (built once per level)."""
        table = self._rungs.get(level)
        if table is None:
            table = self._rungs[level] = {
                sparsity: self.latency.latency_s(
                    self.workload, level, sparsity, SparsityKind.PATTERN,
                    self.hardware_pattern_size)
                for sparsity, _ in self.candidates}
        return table

    def feasible_sparsity(self, level: VFLevel, deadline_s: float) -> Optional[float]:
        """Smallest candidate sparsity meeting the deadline, or None."""
        for sparsity, lat in self.rungs(level).items():
            if lat <= deadline_s:
                return sparsity
        return None

    def batch_latency_s(self, level: VFLevel, sparsity: Optional[float],
                        size: int = 1) -> float:
        """Analytic service time of ``size`` requests at ``sparsity``
        (``None``, an infeasible deadline, runs the sparsest rung)."""
        key = (level, sparsity, size)
        est = self._batch_s.get(key)
        if est is None:
            est = self._batch_s[key] = self.latency.batch_latency_s(
                self.workload, level, size,
                sparsity if sparsity is not None else self.candidates[-1][0],
                SparsityKind.PATTERN, self.hardware_pattern_size)
        return est

    def plan(self, level: VFLevel, deadline_s: float,
             active_sparsity: Optional[float],
             chosen: object = _UNRESOLVED) -> AdaptationEvent:
        """Pure adaptation decision against an explicit installed state.

        Side-effect-free twin of :meth:`adapt`: the caller supplies which
        sparsity is currently installed and receives the event (including
        the switch cost a change would incur) without the adapter mutating
        its own state or touching the mask manager.  Sharded serving uses
        this so every simulated device can track — and pay for — its *own*
        installed pattern set while sharing one adapter.

        ``chosen`` lets a caller that already resolved
        :meth:`feasible_sparsity` for this exact ``(level, deadline)``
        pass the result in, skipping a repeated ladder walk (the serving
        engine resolves it once at routing time).
        """
        if deadline_s <= 0:
            raise ValueError("deadline must be positive")
        if chosen is _UNRESOLVED:
            chosen = self.feasible_sparsity(level, deadline_s)
        effective = chosen if chosen is not None else self.candidates[-1][0]
        lat = self.rungs(level)[effective]
        switched = chosen is not None and chosen != active_sparsity
        switch: Optional[SwitchStats] = None
        if switched:
            pset = dict(self.candidates)[chosen]
            switch = self.reconfigurator.pattern_switch(
                self.workload, len(pset), self.hardware_pattern_size
            )
        return AdaptationEvent(deadline_s, level.name, chosen, lat, switched, switch)

    def adapt(self, level: VFLevel, deadline_s: float) -> AdaptationEvent:
        """React to a new (level, deadline) operating point."""
        event = self.plan(level, deadline_s, self.active_sparsity)
        if event.switched:
            pset = dict(self.candidates)[event.chosen_sparsity]
            if self.manager is not None:
                self.manager.apply(pset)
            self.active_sparsity = event.chosen_sparsity
        return event

    def run(self, trace: Sequence[Tuple[VFLevel, float]]) -> AdaptationReport:
        """Adapt along a (level, deadline) trace; returns the event log."""
        report = AdaptationReport()
        for level, deadline in trace:
            report.events.append(self.adapt(level, deadline))
        return report
