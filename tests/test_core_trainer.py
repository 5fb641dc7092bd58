"""Joint trainer (Fig. 2), UB individual training, pareto utilities."""

import numpy as np
import pytest

from repro.core.block_pruning import BlockPruningConfig, apply_block_pruning
from repro.core.pareto import dominates, pareto_front
from repro.core.patterns import MaskManager, random_pattern_set
from repro.core.trainer import JointTrainer, TrainConfig, evaluate_with_masks, train_individual, train_plain


@pytest.fixture()
def setup(lm_task):
    report = apply_block_pruning(lm_task.model, BlockPruningConfig(num_blocks=2, rate=0.3))
    manager = MaskManager(lm_task.model, report.masks)
    rng = np.random.default_rng(0)
    sets = {
        "l6": random_pattern_set(8, 0.2, 2, rng),
        "l4": random_pattern_set(8, 0.4, 2, rng),
        "l3": random_pattern_set(8, 0.6, 2, rng),
    }
    return lm_task, manager, sets


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)


class TestTrainPlain:
    def test_loss_decreases(self, lm_task):
        losses = train_plain(lm_task, epochs=3, lr=3e-3)
        assert losses[-1] < losses[0]


class TestJointTrainer:
    def test_returns_epoch_losses(self, setup):
        task, manager, sets = setup
        trainer = JointTrainer(task, manager, TrainConfig(epochs=2, lr=2e-3))
        losses = trainer.train(sets)
        assert len(losses) == 2
        assert all(np.isfinite(l) for l in losses)

    def test_joint_loss_decreases(self, setup):
        task, manager, sets = setup
        trainer = JointTrainer(task, manager, TrainConfig(epochs=3, lr=3e-3))
        losses = trainer.train(sets)
        assert losses[-1] < losses[0]

    def test_alpha_count_checked(self, setup):
        task, manager, sets = setup
        trainer = JointTrainer(task, manager)
        with pytest.raises(ValueError):
            trainer.train(sets, alphas=[1.0])

    def test_accuracies_per_level(self, setup):
        task, manager, sets = setup
        trainer = JointTrainer(task, manager, TrainConfig(epochs=1, lr=2e-3))
        trainer.train(sets)
        accs = trainer.accuracies(sets)
        assert set(accs) == {"l3", "l4", "l6"}
        assert all(0.0 <= a <= 1.0 for a in accs.values())

    def test_backbone_zeros_stay_dead(self, setup):
        """With pin_backbone_zeros (default), positions pruned at Level 1
        remain exactly 0.0 in the stored weights after joint training."""
        task, manager, sets = setup
        trainer = JointTrainer(task, manager, TrainConfig(epochs=1, lr=2e-3))
        trainer.train(sets)
        for name, layer in manager.layers.items():
            dead = manager.backbone_masks[name] == 0.0
            assert np.all(layer.weight.data[dead] == 0.0), name

    def test_unpinned_training_lets_zeros_drift(self, setup):
        task, manager, sets = setup
        trainer = JointTrainer(task, manager,
                               TrainConfig(epochs=1, lr=2e-3,
                                           pin_backbone_zeros=False))
        trainer.train(sets)
        drifted = any(
            np.any(layer.weight.data[manager.backbone_masks[name] == 0.0] != 0.0)
            for name, layer in manager.layers.items()
        )
        assert drifted

    def test_training_updates_shared_weights_once(self, setup):
        """All pattern sets share one backbone: after joint training the
        *unmasked* weights are identical regardless of which set is active."""
        task, manager, sets = setup
        trainer = JointTrainer(task, manager, TrainConfig(epochs=1, lr=2e-3))
        trainer.train(sets)
        manager.apply(sets["l6"])
        w_a = next(iter(manager.layers.values())).weight.data.copy()
        manager.apply(sets["l3"])
        w_b = next(iter(manager.layers.values())).weight.data.copy()
        assert np.array_equal(w_a, w_b)


class TestEvaluateWithMasks:
    def test_restores_backbone_after(self, setup):
        task, manager, sets = setup
        evaluate_with_masks(task, manager, sets)
        assert manager.combined_sparsity() == pytest.approx(
            manager.backbone_sparsity()
        )

    def test_sparser_masks_not_better(self, setup):
        """On an eval with trained weights, heavier masking should not help
        systematically; at minimum the function returns a value per set."""
        task, manager, sets = setup
        train_plain(task, epochs=2, lr=3e-3)
        accs = evaluate_with_masks(task, manager, sets)
        assert len(accs) == 3


class TestTrainIndividualUB:
    def test_restores_model_state(self, setup):
        task, manager, sets = setup
        before = {k: v.copy() for k, v in task.model.state_dict().items()}
        train_individual(task, manager, sets["l4"], TrainConfig(epochs=1, lr=3e-3))
        after = task.model.state_dict()
        for key in before:
            assert np.array_equal(before[key], after[key]), key

    def test_returns_metric(self, setup):
        task, manager, sets = setup
        acc = train_individual(task, manager, sets["l6"], TrainConfig(epochs=1, lr=3e-3))
        assert 0.0 <= acc <= 1.0

    def test_ub_at_least_near_joint(self, setup):
        """Individually trained models form an upper bound in expectation;
        at tiny scale we just require UB is not catastrophically worse."""
        task, manager, sets = setup
        trainer = JointTrainer(task, manager, TrainConfig(epochs=2, lr=3e-3))
        trainer.train(sets)
        joint = trainer.accuracies(sets)["l6"]
        ub = train_individual(task, manager, sets["l6"], TrainConfig(epochs=2, lr=3e-3))
        assert ub > joint - 0.15


class TestPareto:
    def test_dominates(self):
        assert dominates((2.0, 2.0), (1.0, 1.0))
        assert dominates((2.0, 1.0), (1.0, 1.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))
        assert not dominates((2.0, 0.5), (1.0, 1.0))

    def test_front_excludes_dominated(self):
        pts = [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (0.4, 0.4)]
        front = pareto_front(pts)
        assert (0.4, 0.4) not in front
        assert len(front) == 3

    def test_front_sorted(self):
        front = pareto_front([(2.0, 0.5), (0.5, 2.0), (1.0, 1.0)])
        assert front == sorted(front)

    def test_front_dedupes(self):
        assert pareto_front([(1.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]

    def test_empty_front(self):
        assert pareto_front([]) == []
