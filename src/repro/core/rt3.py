"""The RT3 framework: two-level optimization for run-time reconfigurability.

Level 1 applies block-structured pruning and (optionally) fine-tunes the
resulting backbone; Level 2 builds the shrunken pattern search space from
the backbone, then runs REINFORCE episodes: sample pattern sets per V/F
level, predict latency and number-of-runs, short-circuit deadline
violations (reward case 1, no training), otherwise jointly train the
shared backbone and score Eq. (1).  The best episode is fine-tuned into
the final deployable configuration.

Also provides the paper's baselines: the heuristic (loosest sparsity that
meets the deadline per level, jointly trained) and the per-level
individually-trained upper bound (UB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union


from repro.core.block_pruning import BlockPruningConfig, BlockPruningReport, apply_block_pruning
from repro.core.controller import ControllerConfig, Episode, RNNController
from repro.core.pareto import pareto_front
from repro.core.patterns import MaskManager, PatternSet
from repro.core.reward import RewardConfig, RewardTerms, compute_reward
from repro.core.search_space import PatternSearchSpace, SearchSpaceConfig
from repro.core.tasks import Task
from repro.core.trainer import JointTrainer, TrainConfig, train_individual, train_plain
from repro.hardware.energy_sim import ModeAssignment
from repro.hardware.latency import SparsityKind
from repro.hardware.platform import OdroidXU3
from repro.hardware.workload import WorkloadProfile


@dataclass
class RT3Config:
    """All knobs of the framework in one place."""

    deadline_s: float = 0.1
    level_names: Tuple[str, ...] = ("l3", "l4", "l6")
    min_accuracy: float = 0.2  # Am
    penalty: float = 0.3  # pen
    # Aw weights, high level first.  None = uniform; the string "governor"
    # weights each level by the battery-energy fraction the governor spends
    # there, so Aw reflects the accuracy a user actually experiences over a
    # charge.
    alpha: Optional[Union[Sequence[float], str]] = None
    episodes: int = 8
    bp: BlockPruningConfig = field(default_factory=BlockPruningConfig)
    space: SearchSpaceConfig = field(default_factory=SearchSpaceConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    episode_train: TrainConfig = field(default_factory=TrainConfig)
    finetune_train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=2))
    backbone_finetune_epochs: int = 1
    # Evaluate the heuristic configuration as episode 0.  The search space
    # contains it by construction, so this is a warm start that guarantees
    # the searched result never falls below the heuristic baseline (the
    # paper's Fig. 3 observation, which at paper scale emerges from running
    # many more episodes than a laptop budget allows).
    seed_heuristic: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline_s <= 0:
            raise ValueError("deadline must be positive")
        if self.episodes < 1:
            raise ValueError("need at least one search episode")
        if len(self.level_names) < 1:
            raise ValueError("need at least one V/F level")


@dataclass
class SearchedSolution:
    """One explored point: the chosen sets and the reward decomposition."""

    episode: Episode
    pattern_sets: Dict[str, PatternSet]
    terms: RewardTerms

    @property
    def point(self) -> Tuple[float, float]:
        """(weighted accuracy, total runs) for Pareto analysis."""
        aw = self.terms.weighted_accuracy
        return (aw if aw == aw else 0.0, self.terms.total_runs)


@dataclass
class RT3Result:
    """Everything the experiments need from one RT3 run."""

    original_accuracy: float
    backbone_accuracy: float
    backbone_report: BlockPruningReport
    history: List[SearchedSolution]
    best: SearchedSolution
    final_accuracies: Dict[str, float]
    final_latencies_ms: Dict[str, float]
    final_total_runs: float
    switch_ms: float
    reload_ms: float

    @property
    def pareto_points(self) -> List[Tuple[float, float]]:
        pts = [s.point for s in self.history if s.terms.deadline_met]
        return pareto_front(pts) if pts else []


class RT3:
    """Orchestrates Level 1 + Level 2 on a task/workload/platform triple."""

    def __init__(self, task: Task, workload: WorkloadProfile,
                 cfg: RT3Config = RT3Config(),
                 platform: Optional[OdroidXU3] = None) -> None:
        self.task = task
        self.workload = workload
        self.cfg = cfg
        self.platform = platform or OdroidXU3()
        self.table = self.platform.dvfs.subset(cfg.level_names)
        self.simulator = self.platform.simulator(
            workload, cfg.level_names, pattern_size=cfg.space.hardware_pattern_size
        )
        self.manager: Optional[MaskManager] = None
        self.space: Optional[PatternSearchSpace] = None
        self.controller: Optional[RNNController] = None
        self._names_desc = list(reversed(self.table.names()))

    # ------------------------------------------------------------------
    # Level 1
    # ------------------------------------------------------------------
    def run_level1(self, random_baseline: bool = False) -> Tuple[BlockPruningReport, float, float]:
        """BP + optional backbone fine-tune; returns (report, acc_M, acc_C)."""
        original_accuracy = self.task.evaluate()
        report = apply_block_pruning(self.task.model, self.cfg.bp,
                                     random_baseline=random_baseline)
        if self.cfg.backbone_finetune_epochs > 0:
            train_plain(self.task, epochs=self.cfg.backbone_finetune_epochs,
                        lr=self.cfg.episode_train.lr)
        backbone_accuracy = self.task.evaluate()
        self.manager = MaskManager(self.task.model, report.masks)
        return report, original_accuracy, backbone_accuracy

    # ------------------------------------------------------------------
    # Level 2 helpers
    # ------------------------------------------------------------------
    def build_space(self) -> PatternSearchSpace:
        if self.manager is None:
            raise RuntimeError("run_level1 must be called before build_space")
        self.space = PatternSearchSpace(
            self.manager, self.workload, self.table, self.cfg.deadline_s,
            latency=self.platform.latency, cfg=self.cfg.space,
        )
        self.controller = RNNController(self.space, self.cfg.controller)
        return self.space

    def _assignments(self, sets: Dict[str, PatternSet]) -> List[ModeAssignment]:
        assert self.space is not None
        return [
            ModeAssignment(name,
                           self.space.total_sparsity(sets[name].sparsity),
                           SparsityKind.PATTERN,
                           num_patterns=len(sets[name]))
            for name in self.table.names()
        ]

    def predict_hardware(self, sets: Dict[str, PatternSet]
                         ) -> Tuple[List[float], float]:
        """Latency per level (high level first) and total runs of a campaign."""
        campaign = self.simulator.run_campaign(
            self._assignments(sets), self.cfg.deadline_s
        )
        lat_by_name = {o.level.name: o.latency_s for o in campaign.outcomes}
        lats = [lat_by_name[n] for n in self._names_desc]
        return lats, campaign.total_runs

    def _runs_ref(self) -> float:
        """Normalizer for Rruns: campaign runs at the tightest candidates."""
        assert self.space is not None
        tightest = {name: sets[-1] for name, sets in self.space.candidates.items()}
        _, runs = self.predict_hardware(tightest)
        return runs

    def _reward_config(self, backbone_accuracy: float) -> RewardConfig:
        # Am must sit strictly below Ao for the normalization to be sane;
        # if the user's floor is too ambitious for this backbone, back off.
        min_accuracy = self.cfg.min_accuracy
        if backbone_accuracy <= min_accuracy:
            min_accuracy = backbone_accuracy - max(0.05, 0.2 * abs(backbone_accuracy))
        alpha = self.cfg.alpha
        if isinstance(alpha, str):
            if alpha != "governor":
                raise ValueError(f"unknown alpha mode {alpha!r}")
            # governor fractions are low->high level; reward wants high first
            alpha = list(reversed(self.simulator.governor.energy_fractions()))
        return RewardConfig(
            backbone_accuracy=backbone_accuracy,
            min_accuracy=min_accuracy,
            deadline_s=self.cfg.deadline_s,
            alpha=alpha,
            penalty=self.cfg.penalty,
            runs_ref=self._runs_ref(),
        )

    def evaluate_sets(self, sets: Dict[str, PatternSet], reward_cfg: RewardConfig,
                      train_cfg: Optional[TrainConfig] = None,
                      restore: bool = True) -> RewardTerms:
        """Score one candidate: hardware first, training only if feasible."""
        assert self.manager is not None
        lats, runs = self.predict_hardware(sets)
        if any(lat > reward_cfg.deadline_s for lat in lats):
            return compute_reward(reward_cfg, lats, runs, accuracies=None)

        snapshot = self.task.model.state_dict() if restore else None
        trainer = JointTrainer(self.task, self.manager,
                               train_cfg or self.cfg.episode_train)
        trainer.train(sets)
        accs = trainer.accuracies(sets)
        ordered = [accs[n] for n in self._names_desc]
        terms = compute_reward(reward_cfg, lats, runs, ordered)
        if restore and snapshot is not None:
            self.task.model.load_state_dict(snapshot)
            self.manager.clear_patterns()
        return terms

    # ------------------------------------------------------------------
    # the full search
    # ------------------------------------------------------------------
    def search(self) -> RT3Result:
        """Level 1, space construction, RL episodes, final fine-tune."""
        report, acc_m, acc_c = self.run_level1()
        self.build_space()
        assert self.controller is not None and self.space is not None
        reward_cfg = self._reward_config(acc_c)

        history: List[SearchedSolution] = []
        if self.cfg.seed_heuristic:
            sets = self.space.heuristic_choice()
            terms = self.evaluate_sets(sets, reward_cfg)
            history.append(SearchedSolution(Episode(), sets, terms))
        for _ in range(self.cfg.episodes):
            episode = self.controller.sample()
            sets = self.controller.decode(episode)
            terms = self.evaluate_sets(sets, reward_cfg)
            self.controller.update(episode, terms.reward)
            history.append(SearchedSolution(episode, sets, terms))

        # The paper selects the highest-accuracy point of the Pareto front
        # (P_L / P_T in Fig. 3) and fine-tunes it; fall back to reward if
        # nothing met the deadline.
        feasible = [s for s in history if s.terms.deadline_met]
        if feasible:
            best = max(feasible, key=lambda s: (s.terms.weighted_accuracy,
                                                s.terms.reward))
        else:
            best = max(history, key=lambda s: s.terms.reward)

        # Fine-tune the winner into the deployable configuration.
        final_terms = self.evaluate_sets(best.pattern_sets, reward_cfg,
                                         train_cfg=self.cfg.finetune_train,
                                         restore=False)
        lat_ms = {n: lat * 1e3 for n, lat in zip(self._names_desc, final_terms.latencies_s)}
        accs = {n: a for n, a in zip(self._names_desc, final_terms.accuracies)}

        any_set = best.pattern_sets[self.table.names()[0]]
        switch = self.platform.reconfigurator.pattern_switch(
            self.workload, len(any_set), self.cfg.space.hardware_pattern_size
        )
        reload = self.platform.reconfigurator.model_reload(self.workload)
        return RT3Result(
            original_accuracy=acc_m,
            backbone_accuracy=acc_c,
            backbone_report=report,
            history=history,
            best=best,
            final_accuracies=accs,
            final_latencies_ms=lat_ms,
            final_total_runs=final_terms.total_runs,
            switch_ms=switch.milliseconds,
            reload_ms=reload.milliseconds,
        )

    # ------------------------------------------------------------------
    # baselines
    # ------------------------------------------------------------------
    def heuristic(self, reward_cfg: Optional[RewardConfig] = None) -> SearchedSolution:
        """Paper's heuristic baseline: loosest feasible sparsity per level."""
        if self.space is None:
            raise RuntimeError("build_space must run before heuristic()")
        sets = self.space.heuristic_choice()
        cfg = reward_cfg or self._reward_config(max(self.cfg.min_accuracy + 1e-6,
                                                    self.task.evaluate()))
        terms = self.evaluate_sets(sets, cfg)
        return SearchedSolution(Episode(), sets, terms)

    def upper_bound(self, sets: Dict[str, PatternSet],
                    train_cfg: Optional[TrainConfig] = None) -> Dict[str, float]:
        """UB: train each level's model individually (checkpoint per level)."""
        assert self.manager is not None
        cfg = train_cfg or self.cfg.finetune_train
        return {name: train_individual(self.task, self.manager, pset, cfg)
                for name, pset in sets.items()}
