"""Component ③: the shrunken pattern-pruning search space.

Pattern space is astronomically large (the paper counts C(100·100, 50%)
~ 10^286 same-sparsity patterns), so RT3 shrinks it in two steps:

1. **Constraint-driven sparsities.**  Given the N V/F levels and the timing
   constraint T, invert the latency model to get the N sparsity ratios that
   *just* satisfy T, then gradually tighten the constraint to collect
   ``theta`` candidate sparsities per level (theta x N ratios total).

2. **BP-guided patterns.**  For each candidate sparsity, build ``m``
   representative patterns from the Level-1 backbone: sample n/2 of the
   backbone's ``psize x psize`` tiles, point-wise add their magnitudes into
   an importance map, and keep the top-(1-s) positions.  Different random
   tile samples give the m diverse-but-important patterns of one set.

This is the paper's "hot search start": BP decides *where* weights matter,
so RL only has to decide *which* candidate sets to bind to which level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.patterns import MaskManager, Pattern, PatternSet
from repro.hardware.dvfs import DVFSTable
from repro.hardware.latency import LatencyModel, SparsityKind
from repro.hardware.workload import WorkloadProfile


@dataclass
class SearchSpaceConfig:
    """Shape of the shrunken space.

    ``theta`` candidate sparsities per level, ``patterns_per_set`` (the
    paper's m) patterns in each candidate set, ``tighten_step`` the
    sparsity increment used when tightening the constraint, and
    ``max_sparsity`` a cap so patterns keep at least a few positions.
    """

    pattern_size: int = 16
    # Pattern size used for *hardware* accounting (latency/energy/switch).
    # The paper deploys 100x100 patterns; our laptop-scale proxy models use
    # smaller masks, but the device-side cost model should still see the
    # deployment-scale pattern, so the two are decoupled.
    hardware_pattern_size: int = 100
    theta: int = 3
    patterns_per_set: int = 4
    tighten_step: float = 0.06
    max_sparsity: float = 0.95
    min_sparsity: float = 0.05
    block_sample_fraction: float = 0.5  # the paper's "sample n/2 blocks"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pattern_size < 2:
            raise ValueError("pattern_size must be >= 2")
        if self.theta < 1 or self.patterns_per_set < 1:
            raise ValueError("theta and patterns_per_set must be >= 1")
        if not 0.0 < self.block_sample_fraction <= 1.0:
            raise ValueError("block_sample_fraction must be in (0, 1]")
        if not 0.0 <= self.min_sparsity < self.max_sparsity < 1.0:
            raise ValueError("need 0 <= min_sparsity < max_sparsity < 1")


class PatternSearchSpace:
    """theta pattern-set candidates for each of the N V/F levels."""

    def __init__(
        self,
        manager: MaskManager,
        workload: WorkloadProfile,
        levels: DVFSTable,
        deadline_s: float,
        latency: Optional[LatencyModel] = None,
        cfg: SearchSpaceConfig = SearchSpaceConfig(),
    ) -> None:
        self.manager = manager
        self.workload = workload
        self.levels = levels
        self.deadline_s = deadline_s
        self.latency = latency or LatencyModel()
        self.cfg = cfg
        self._rng = np.random.default_rng(cfg.seed)
        self.sparsity_candidates: Dict[str, List[float]] = self._candidate_sparsities()
        self.candidates: Dict[str, List[PatternSet]] = {
            name: [self._build_pattern_set(s) for s in sparsities]
            for name, sparsities in self.sparsity_candidates.items()
        }

    # ------------------------------------------------------------------
    # step 1: constraint-driven sparsity ratios
    # ------------------------------------------------------------------
    def pattern_sparsity_for_total(self, total_sparsity: float) -> float:
        """Pattern sparsity needed on top of the backbone to reach a total.

        BP removed a fraction ``s_bp`` already; patterns act on what is
        left, so kept = (1-s_bp)(1-s_pp) and
        s_pp = 1 - (1-total)/(1-s_bp).
        """
        s_bp = self.manager.backbone_sparsity()
        if total_sparsity <= s_bp:
            return self.cfg.min_sparsity
        s_pp = 1.0 - (1.0 - total_sparsity) / (1.0 - s_bp)
        return float(np.clip(s_pp, self.cfg.min_sparsity, self.cfg.max_sparsity))

    def total_sparsity(self, pattern_sparsity: float) -> float:
        """Combined model sparsity for a pattern sparsity over the backbone."""
        s_bp = self.manager.backbone_sparsity()
        return 1.0 - (1.0 - s_bp) * (1.0 - pattern_sparsity)

    def _candidate_sparsities(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for level in self.levels:
            total_needed = self.latency.sparsity_for_deadline(
                self.workload, level, self.deadline_s,
                kind=SparsityKind.PATTERN,
                pattern_size=self.cfg.hardware_pattern_size,
            )
            base = self.pattern_sparsity_for_total(total_needed)
            cands = []
            for j in range(self.cfg.theta):
                s = min(base + j * self.cfg.tighten_step, self.cfg.max_sparsity)
                # round *up* so the loosest candidate still meets the deadline
                s = float(np.ceil(s * 1e4) / 1e4)
                if not cands or s > cands[-1] + 1e-9:
                    cands.append(s)
            out[level.name] = cands
        return out

    # ------------------------------------------------------------------
    # step 2: BP-guided importance map -> m patterns per sparsity
    # ------------------------------------------------------------------
    def _backbone_tiles(self) -> np.ndarray:
        """All full psize x psize tiles of |backbone weights|, stacked."""
        psize = self.cfg.pattern_size
        tiles = []
        for name, layer in self.manager.layers.items():
            w = np.abs(layer.weight.data) * self.manager.backbone_masks[name]
            n_row, n_col = w.shape[0] // psize, w.shape[1] // psize
            if n_row == 0 or n_col == 0:
                continue
            trimmed = w[: n_row * psize, : n_col * psize]
            t = trimmed.reshape(n_row, psize, n_col, psize).transpose(0, 2, 1, 3)
            tiles.append(t.reshape(-1, psize, psize))
        if not tiles:
            raise ValueError(
                f"no layer is large enough for {psize}x{psize} patterns; "
                "reduce pattern_size"
            )
        return np.concatenate(tiles, axis=0)

    def importance_map(self, tiles: Optional[np.ndarray] = None) -> np.ndarray:
        """Point-wise sum of a random half of the backbone tiles."""
        tiles = self._backbone_tiles() if tiles is None else tiles
        n = len(tiles)
        take = max(1, int(round(n * self.cfg.block_sample_fraction)))
        chosen = self._rng.choice(n, size=take, replace=False)
        return tiles[chosen].sum(axis=0)

    def _pattern_from_importance(self, importance: np.ndarray, sparsity: float) -> Pattern:
        psize = self.cfg.pattern_size
        keep = max(1, int(round((1.0 - sparsity) * psize * psize)))
        flat = importance.reshape(-1)
        # random jitter breaks ties deterministically under the space's rng
        jitter = self._rng.uniform(0, 1e-12, size=flat.shape)
        order = np.argsort(flat + jitter)[::-1]
        mask = np.zeros(psize * psize)
        mask[order[:keep]] = 1.0
        return Pattern(mask.reshape(psize, psize))

    def _build_pattern_set(self, sparsity: float) -> PatternSet:
        tiles = self._backbone_tiles()
        patterns: List[Pattern] = []
        seen = set()
        attempts = 0
        while len(patterns) < self.cfg.patterns_per_set and attempts < 10 * self.cfg.patterns_per_set:
            attempts += 1
            pat = self._pattern_from_importance(self.importance_map(tiles), sparsity)
            if pat.digest() not in seen:
                seen.add(pat.digest())
                patterns.append(pat)
        while len(patterns) < self.cfg.patterns_per_set:  # tiny spaces may collide
            patterns.append(patterns[-1])
        return PatternSet(patterns, sparsity=sparsity,
                          name=f"s{sparsity:.2f}")

    # ------------------------------------------------------------------
    # accessors used by the controller
    # ------------------------------------------------------------------
    @property
    def level_names(self) -> List[str]:
        return self.levels.names()

    def num_set_choices(self, level_name: str) -> int:
        return len(self.candidates[level_name])

    def get_set(self, level_name: str, choice: int) -> PatternSet:
        return self.candidates[level_name][choice]

    def heuristic_choice(self) -> Dict[str, PatternSet]:
        """The paper's heuristic baseline: per level, the pattern set whose
        sparsity *just* satisfies the timing constraint (the first/loosest
        candidate)."""
        return {name: sets[0] for name, sets in self.candidates.items()}

    def __repr__(self) -> str:
        parts = [f"{name}:{[s.sparsity for s in sets]}"
                 for name, sets in self.candidates.items()]
        return f"PatternSearchSpace({'; '.join(parts)})"
