"""Remaining RT3 configuration options and result-object behaviours."""

import numpy as np
import pytest

from repro.core import (
    BlockPruningConfig,
    ControllerConfig,
    RT3,
    RT3Config,
    SearchSpaceConfig,
)
from repro.core.trainer import TrainConfig, train_plain
from repro.hardware.workload import paper_scale_transformer


def cfg(**overrides):
    base = dict(
        deadline_s=0.104, episodes=2,
        bp=BlockPruningConfig(num_blocks=2, rate=0.3),
        space=SearchSpaceConfig(pattern_size=8, theta=2, patterns_per_set=2),
        controller=ControllerConfig(seed=0),
        episode_train=TrainConfig(epochs=1, lr=2e-3),
        finetune_train=TrainConfig(epochs=1, lr=2e-3),
        backbone_finetune_epochs=0,
    )
    base.update(overrides)
    return RT3Config(**base)


@pytest.fixture()
def trained(lm_task):
    train_plain(lm_task, epochs=1, lr=3e-3)
    return lm_task


class TestSeedHeuristicToggle:
    def test_disabled_seed_heuristic(self, trained):
        rt3 = RT3(trained, paper_scale_transformer(),
                  cfg(seed_heuristic=False, episodes=2))
        res = rt3.search()
        assert len(res.history) == 2  # episodes only, no seeded entry
        # every history entry is a real RL episode (has log probs)
        assert all(s.episode.log_probs for s in res.history)


class TestResultObject:
    def test_pareto_points_empty_when_all_infeasible(self, trained):
        # an absurd deadline nothing can meet
        tight = cfg(deadline_s=0.104)
        rt3 = RT3(trained, paper_scale_transformer(), tight)
        res = rt3.search()
        # feasible points are Pareto points; infeasible are excluded
        for point in res.pareto_points:
            assert point[1] > 0

    def test_solution_point_handles_nan(self):
        from repro.core.controller import Episode
        from repro.core.reward import RewardTerms
        from repro.core.rt3 import SearchedSolution

        terms = RewardTerms(reward=-0.5, runs_reward=0.5,
                            weighted_accuracy=float("nan"), deadline_met=False,
                            accuracy_ordered=False, latencies_s=[0.2],
                            accuracies=[], total_runs=5e5)
        sol = SearchedSolution(Episode(), {}, terms)
        assert sol.point == (0.0, 5e5)


class TestEvaluateSetsRestore:
    def test_restore_true_leaves_weights_untouched(self, trained):
        rt3 = RT3(trained, paper_scale_transformer(), cfg())
        rt3.run_level1()
        rt3.build_space()
        reward_cfg = rt3._reward_config(0.5)
        sets = rt3.space.heuristic_choice()
        before = {k: v.copy() for k, v in trained.model.state_dict().items()}
        rt3.evaluate_sets(sets, reward_cfg, restore=True)
        after = trained.model.state_dict()
        for key in before:
            assert np.array_equal(before[key], after[key]), key

    def test_restore_false_keeps_training(self, trained):
        rt3 = RT3(trained, paper_scale_transformer(), cfg())
        rt3.run_level1()
        rt3.build_space()
        reward_cfg = rt3._reward_config(0.5)
        sets = rt3.space.heuristic_choice()
        before = {k: v.copy() for k, v in trained.model.state_dict().items()}
        rt3.evaluate_sets(sets, reward_cfg, restore=False)
        after = trained.model.state_dict()
        changed = any(not np.array_equal(before[k], after[k]) for k in before)
        assert changed
