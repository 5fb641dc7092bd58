"""Component ③: shrunken search-space construction."""

import numpy as np
import pytest

from repro.core.block_pruning import BlockPruningConfig, apply_block_pruning
from repro.core.patterns import MaskManager
from repro.core.search_space import PatternSearchSpace, SearchSpaceConfig
from repro.hardware.dvfs import DVFSTable
from repro.hardware.workload import paper_scale_transformer

LEVELS = DVFSTable().subset(["l3", "l4", "l6"])


@pytest.fixture()
def space(tiny_transformer):
    report = apply_block_pruning(tiny_transformer, BlockPruningConfig(num_blocks=2, rate=0.3))
    manager = MaskManager(tiny_transformer, report.masks)
    cfg = SearchSpaceConfig(pattern_size=8, theta=3, patterns_per_set=4, seed=0)
    return PatternSearchSpace(manager, paper_scale_transformer(), LEVELS,
                              deadline_s=0.104, cfg=cfg)


class TestConfigValidation:
    def test_pattern_size(self):
        with pytest.raises(ValueError):
            SearchSpaceConfig(pattern_size=1)

    def test_theta(self):
        with pytest.raises(ValueError):
            SearchSpaceConfig(theta=0)

    def test_fraction(self):
        with pytest.raises(ValueError):
            SearchSpaceConfig(block_sample_fraction=0.0)

    def test_sparsity_bounds(self):
        with pytest.raises(ValueError):
            SearchSpaceConfig(min_sparsity=0.9, max_sparsity=0.5)


class TestSparsityCandidates:
    def test_theta_candidates_per_level(self, space):
        for name in space.level_names:
            assert 1 <= space.num_set_choices(name) <= 3

    def test_lower_level_higher_base_sparsity(self, space):
        """l3 needs more total sparsity than l6 to hit the same deadline."""
        total_l3 = space.total_sparsity(space.sparsity_candidates["l3"][0])
        total_l6 = space.total_sparsity(space.sparsity_candidates["l6"][0])
        assert total_l3 > total_l6

    def test_candidates_tighten(self, space):
        for name in space.level_names:
            cands = space.sparsity_candidates[name]
            assert cands == sorted(cands)

    def test_pattern_sparsity_composition(self, space):
        s_bp = space.manager.backbone_sparsity()
        s_pp = 0.5
        total = space.total_sparsity(s_pp)
        assert total == pytest.approx(1 - (1 - s_bp) * 0.5)
        # inverse
        assert space.pattern_sparsity_for_total(total) == pytest.approx(s_pp)

    def test_total_below_backbone_gives_min(self, space):
        s_bp = space.manager.backbone_sparsity()
        assert space.pattern_sparsity_for_total(s_bp / 2) == space.cfg.min_sparsity


class TestPatternConstruction:
    def test_sets_have_m_patterns(self, space):
        for name in space.level_names:
            for ps in space.candidates[name]:
                assert len(ps) == 4

    def test_patterns_match_set_sparsity(self, space):
        for name in space.level_names:
            for ps in space.candidates[name]:
                for p in ps:
                    assert p.sparsity == pytest.approx(ps.sparsity, abs=0.05)

    def test_patterns_within_set_are_diverse(self, space):
        ps = space.candidates["l3"][0]
        digests = {p.digest() for p in ps}
        assert len(digests) >= 2  # block sampling produced variety

    def test_importance_map_shape(self, space):
        imp = space.importance_map()
        assert imp.shape == (8, 8)
        assert (imp >= 0).all()

    def test_importance_guided_patterns_keep_important_positions(self, space):
        """The top-importance position must be kept by every generated
        pattern at moderate sparsity (it wins every subsample)."""
        tiles = space._backbone_tiles()
        total_importance = tiles.sum(axis=0)
        top = np.unravel_index(total_importance.argmax(), total_importance.shape)
        ps = space._build_pattern_set(0.5)
        kept = [p.mask[top] for p in ps]
        assert np.mean(kept) >= 0.75

    def test_pattern_too_large_raises(self, tiny_transformer):
        report = apply_block_pruning(tiny_transformer, BlockPruningConfig(num_blocks=2, rate=0.3))
        manager = MaskManager(tiny_transformer, report.masks)
        cfg = SearchSpaceConfig(pattern_size=512, theta=1, patterns_per_set=1)
        with pytest.raises(ValueError):
            PatternSearchSpace(manager, paper_scale_transformer(), LEVELS, 0.104, cfg=cfg)


class TestChoices:
    def test_get_set(self, space):
        ps = space.get_set("l6", 0)
        assert ps.sparsity == space.sparsity_candidates["l6"][0]

    def test_heuristic_choice_is_loosest(self, space):
        choice = space.heuristic_choice()
        for name in space.level_names:
            assert choice[name].sparsity == space.sparsity_candidates[name][0]

    def test_repr(self, space):
        assert "l6" in repr(space)

    def test_deterministic_under_seed(self, tiny_transformer):
        report = apply_block_pruning(tiny_transformer, BlockPruningConfig(num_blocks=2, rate=0.3))
        manager = MaskManager(tiny_transformer, report.masks)
        cfg = SearchSpaceConfig(pattern_size=8, theta=2, patterns_per_set=2, seed=42)
        a = PatternSearchSpace(manager, paper_scale_transformer(), LEVELS, 0.104, cfg=cfg)
        b = PatternSearchSpace(manager, paper_scale_transformer(), LEVELS, 0.104, cfg=cfg)
        for name in a.level_names:
            for pa, pb in zip(a.candidates[name], b.candidates[name]):
                assert [p.digest() for p in pa] == [p.digest() for p in pb]
