"""End-to-end integration scenarios across all packages.

Each test exercises a realistic user journey rather than a single module:
train -> search -> deploy -> reconfigure, with invariants checked at every
hand-off.
"""

import numpy as np
import pytest

from repro.core import (
    BlockPruningConfig,
    ControllerConfig,
    RT3,
    RT3Config,
    RuntimeAdapter,
    SearchSpaceConfig,
)
from repro.core.trainer import TrainConfig, train_plain
from repro.deploy import export_bundle, load_bundle
from repro.hardware import OdroidXU3, paper_scale_transformer
from repro.hardware.energy_sim import ModeAssignment
from repro.hardware.latency import SparsityKind
from repro.nn.transformer import TransformerLM
from repro.tensor.tensor import Tensor

from tests.conftest import TINY_TRANSFORMER

pytestmark = pytest.mark.slow


def quick_cfg(deadline=0.104, episodes=2):
    return RT3Config(
        deadline_s=deadline, episodes=episodes,
        bp=BlockPruningConfig(num_blocks=2, rate=0.3),
        space=SearchSpaceConfig(pattern_size=8, theta=2, patterns_per_set=2),
        controller=ControllerConfig(seed=0),
        episode_train=TrainConfig(epochs=1, lr=2e-3),
        finetune_train=TrainConfig(epochs=1, lr=2e-3),
        backbone_finetune_epochs=1,
    )


@pytest.fixture()
def searched(lm_task):
    train_plain(lm_task, epochs=2, lr=3e-3)
    rt3 = RT3(lm_task, paper_scale_transformer(), quick_cfg())
    return rt3, rt3.search()


class TestSearchToDeployment:
    def test_search_deploy_adapt_roundtrip(self, tmp_path, searched):
        """Full journey: search -> bundle -> fresh device -> DVFS swaps."""
        rt3, result = searched
        bundle = export_bundle(rt3, result)
        path = bundle.save(tmp_path / "bundle")

        # "device side": fresh process, fresh model
        loaded = load_bundle(path)
        device_model = TransformerLM(TINY_TRANSFORMER)
        manager = loaded.install(device_model, level_name="l6")

        # run the governor's descent, swapping pattern sets at each level
        plat = OdroidXU3()
        sparsities_seen = []
        for level_name in ("l6", "l4", "l3"):
            manager.apply(loaded.binding_for(level_name).pattern_set)
            sparsities_seen.append(manager.combined_sparsity())
            toks = np.random.default_rng(0).integers(0, 60, size=(1, 8))
            device_model.eval()
            logits = device_model(Tensor(toks))
            assert np.isfinite(logits.data).all(), level_name
        # descending levels need ascending sparsity
        assert sparsities_seen[0] < sparsities_seen[-1]


class TestSearchToEnergyAccounting:
    def test_reported_runs_match_independent_simulation(self, searched):
        """RT3Result's runs must be reproducible from raw hardware models."""
        rt3, result = searched
        sim = OdroidXU3().simulator(paper_scale_transformer(),
                                    pattern_size=rt3.cfg.space.hardware_pattern_size)
        assignments = [
            ModeAssignment(
                name,
                rt3.space.total_sparsity(result.best.pattern_sets[name].sparsity),
                SparsityKind.PATTERN,
                num_patterns=len(result.best.pattern_sets[name]),
            )
            for name in ("l3", "l4", "l6")
        ]
        campaign = sim.run_campaign(assignments, rt3.cfg.deadline_s)
        assert campaign.total_runs == pytest.approx(result.final_total_runs, rel=1e-9)


class TestAdapterWithSearchedSets:
    def test_adapter_tracks_deadline_with_searched_ladder(self, searched):
        rt3, result = searched
        ladder = {
            rt3.space.total_sparsity(ps.sparsity): ps
            for ps in result.best.pattern_sets.values()
        }
        adapter = RuntimeAdapter(ladder, paper_scale_transformer(),
                                 manager=rt3.manager)
        plat = OdroidXU3()
        # generous deadline -> least sparse; tight -> sparser
        loose = adapter.adapt(plat.dvfs["l6"], 1.0)
        assert loose.chosen_sparsity == min(ladder)
        lm = plat.latency
        tight_deadline = lm.latency_s(paper_scale_transformer(), plat.dvfs["l3"],
                                      max(ladder), SparsityKind.PATTERN) * 1.01
        tight = adapter.adapt(plat.dvfs["l3"], tight_deadline)
        assert tight.chosen_sparsity == max(ladder)
        assert adapter.manager.combined_sparsity() >= max(ladder) - 0.05


class TestCrossTaskConsistency:
    def test_same_seed_same_search(self, corpus):
        """Whole-pipeline determinism under a fixed seed."""
        from repro.core.tasks import LMTask

        results = []
        for _ in range(2):
            model = TransformerLM(TINY_TRANSFORMER)
            task = LMTask(model, corpus, seq_len=12, batch_size=8,
                          max_train_batches=6, max_eval_batches=2)
            train_plain(task, epochs=1, lr=3e-3)
            rt3 = RT3(task, paper_scale_transformer(), quick_cfg(episodes=2))
            res = rt3.search()
            results.append(res)
        a, b = results
        assert a.final_total_runs == pytest.approx(b.final_total_runs)
        assert a.final_accuracies == b.final_accuracies
        assert [s.terms.reward for s in a.history] == pytest.approx(
            [s.terms.reward for s in b.history])
