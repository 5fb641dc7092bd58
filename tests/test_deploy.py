"""Deployment bundle: round-trips, installation, export from a search."""

import numpy as np
import pytest

from repro.core.block_pruning import BlockPruningConfig, apply_block_pruning
from repro.core.patterns import random_pattern_set
from repro.deploy import (
    DeploymentBundle,
    LevelBinding,
    export_bundle,
    load_bundle,
    load_state_npz,
    save_state_npz,
)
from repro.nn.transformer import TransformerLM

from tests.conftest import TINY_TRANSFORMER


@pytest.fixture()
def bundle(tiny_transformer):
    report = apply_block_pruning(tiny_transformer, BlockPruningConfig(num_blocks=2, rate=0.3))
    rng = np.random.default_rng(0)
    bindings = [
        LevelBinding("l3", random_pattern_set(8, 0.6, 3, rng), 0.72),
        LevelBinding("l4", random_pattern_set(8, 0.4, 3, rng), 0.58),
        LevelBinding("l6", random_pattern_set(8, 0.2, 3, rng), 0.44),
    ]
    return DeploymentBundle(
        backbone_state=tiny_transformer.state_dict(),
        backbone_masks=report.masks,
        bindings=bindings,
        metadata={"deadline_ms": 104.0},
    )


class TestStateNpz:
    def test_round_trip(self, tmp_path, tiny_transformer):
        path = tmp_path / "state.npz"
        save_state_npz(tiny_transformer.state_dict(), path)
        loaded = load_state_npz(path)
        for name, value in tiny_transformer.state_dict().items():
            assert np.array_equal(loaded[name], value)


class TestBundleValidation:
    def test_needs_bindings(self, tiny_transformer):
        with pytest.raises(ValueError):
            DeploymentBundle(tiny_transformer.state_dict(), {}, [])

    def test_duplicate_levels_rejected(self, tiny_transformer):
        rng = np.random.default_rng(1)
        b = LevelBinding("l4", random_pattern_set(8, 0.5, 2, rng), 0.5)
        with pytest.raises(ValueError):
            DeploymentBundle(tiny_transformer.state_dict(), {}, [b, b])

    def test_binding_lookup(self, bundle):
        assert bundle.binding_for("l4").total_sparsity == 0.58
        with pytest.raises(KeyError):
            bundle.binding_for("l9")


class TestSaveLoad:
    def test_round_trip(self, tmp_path, bundle):
        bundle.save(tmp_path / "bundle")
        loaded = load_bundle(tmp_path / "bundle")
        # weights identical
        for name, value in bundle.backbone_state.items():
            assert np.array_equal(loaded.backbone_state[name], value)
        # masks identical
        for name, value in bundle.backbone_masks.items():
            assert np.array_equal(loaded.backbone_masks[name], value)
        # pattern sets identical per level
        for b in bundle.bindings:
            lb = loaded.binding_for(b.level_name)
            assert len(lb.pattern_set) == len(b.pattern_set)
            for pa, pb in zip(lb.pattern_set, b.pattern_set):
                assert pa == pb
            assert lb.total_sparsity == pytest.approx(b.total_sparsity)
        assert loaded.metadata["deadline_ms"] == 104.0

    def test_version_check(self, tmp_path, bundle):
        path = bundle.save(tmp_path / "bundle")
        manifest = path / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"version": 1', '"version": 99'))
        with pytest.raises(ValueError):
            load_bundle(path)


class TestInstall:
    def test_install_restores_weights_and_masks(self, tmp_path, bundle):
        bundle.save(tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        fresh = TransformerLM(TINY_TRANSFORMER)
        fresh.embed.weight.data[...] = 0.0  # scrub so load is observable
        manager = loaded.install(fresh)
        assert not np.allclose(fresh.embed.weight.data, 0.0)
        # default level is the top one (l6) -> its pattern set is active
        assert manager.active_set is loaded.binding_for("l6").pattern_set
        assert manager.combined_sparsity() > manager.backbone_sparsity()

    def test_install_specific_level(self, bundle):
        fresh = TransformerLM(TINY_TRANSFORMER)
        manager = bundle.install(fresh, level_name="l3")
        assert manager.active_set is bundle.binding_for("l3").pattern_set


class TestExportFromSearch:
    def test_export_and_reinstall(self, tmp_path, lm_task):
        from repro.core.controller import ControllerConfig
        from repro.core.rt3 import RT3, RT3Config
        from repro.core.search_space import SearchSpaceConfig
        from repro.core.trainer import TrainConfig, train_plain
        from repro.hardware.workload import paper_scale_transformer
        from repro.tensor.tensor import Tensor

        train_plain(lm_task, epochs=1, lr=3e-3)
        cfg = RT3Config(
            deadline_s=0.104, episodes=2,
            bp=BlockPruningConfig(num_blocks=2, rate=0.3),
            space=SearchSpaceConfig(pattern_size=8, theta=2, patterns_per_set=2),
            controller=ControllerConfig(seed=0),
            episode_train=TrainConfig(epochs=1, lr=2e-3),
            finetune_train=TrainConfig(epochs=1, lr=2e-3),
            backbone_finetune_epochs=0,
        )
        rt3 = RT3(lm_task, paper_scale_transformer(), cfg)
        result = rt3.search()
        bundle = export_bundle(rt3, result, extra_metadata={"run": "test"})
        assert bundle.metadata["run"] == "test"
        assert bundle.metadata["deadline_ms"] == pytest.approx(104.0)

        path = bundle.save(tmp_path / "search-bundle")
        loaded = load_bundle(path)
        fresh = TransformerLM(TINY_TRANSFORMER)
        manager = loaded.install(fresh, level_name="l6")

        # the reinstalled model reproduces the searched model's outputs
        toks = np.random.default_rng(0).integers(0, 60, size=(2, 8))
        rt3.manager.apply(result.best.pattern_sets["l6"])
        lm_task.model.eval()
        fresh.eval()
        expected = lm_task.model(Tensor(toks)).data
        got = fresh(Tensor(toks)).data
        assert np.allclose(got, expected)

    def test_export_requires_search(self, lm_task):
        from repro.core.rt3 import RT3, RT3Config
        from repro.hardware.workload import paper_scale_transformer

        rt3 = RT3(lm_task, paper_scale_transformer(), RT3Config())
        with pytest.raises(ValueError):
            export_bundle(rt3, None)
