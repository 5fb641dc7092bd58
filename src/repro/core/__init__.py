"""RT3 core: the paper's contribution.

Two-level pruning-based AutoML for run-time reconfigurable Transformers:

- Level 1 (:mod:`repro.core.block_pruning`): hardware-friendly
  block-structured pruning (BP) produces a fixed backbone model.
- Level 2 (:mod:`repro.core.search_space`, :mod:`repro.core.controller`,
  :mod:`repro.core.reward`, :mod:`repro.core.trainer`): an RNN-based RL
  controller searches pattern sets with diverse sparsity — one per DVFS
  V/F level — and the shared backbone is trained jointly through all of
  them, enabling a millisecond pattern-set swap at run time.
- :mod:`repro.core.rt3` orchestrates the whole framework and the baselines
  (rBP, rPP, heuristic, individually-trained upper bound).
"""

from repro.core.block_pruning import (
    BlockPruningConfig,
    BlockPruningReport,
    block_prune_matrix,
    random_block_prune_matrix,
    apply_block_pruning,
    ReweightedGroupLasso,
)
from repro.core.patterns import (
    Pattern,
    PatternSet,
    pattern_mask_for_matrix,
    random_pattern_set,
    MaskManager,
)
from repro.core.search_space import SearchSpaceConfig, PatternSearchSpace
from repro.core.controller import ControllerConfig, RNNController, Episode
from repro.core.reward import RewardConfig, RewardTerms, compute_reward
from repro.core.tasks import Task, LMTask, GlueTask
from repro.core.trainer import JointTrainer, TrainConfig, evaluate_with_masks
from repro.core.pareto import pareto_front, dominates
from repro.core.rt3 import RT3Config, RT3, RT3Result, SearchedSolution
from repro.core.runtime_policy import RuntimeAdapter, AdaptationEvent, AdaptationReport

__all__ = [
    "BlockPruningConfig",
    "BlockPruningReport",
    "block_prune_matrix",
    "random_block_prune_matrix",
    "apply_block_pruning",
    "ReweightedGroupLasso",
    "Pattern",
    "PatternSet",
    "pattern_mask_for_matrix",
    "random_pattern_set",
    "MaskManager",
    "SearchSpaceConfig",
    "PatternSearchSpace",
    "ControllerConfig",
    "RNNController",
    "Episode",
    "RewardConfig",
    "RewardTerms",
    "compute_reward",
    "Task",
    "LMTask",
    "GlueTask",
    "JointTrainer",
    "TrainConfig",
    "evaluate_with_masks",
    "pareto_front",
    "dominates",
    "RT3Config",
    "RT3",
    "RT3Result",
    "SearchedSolution",
    "RuntimeAdapter",
    "AdaptationEvent",
    "AdaptationReport",
]
