"""Runtime adaptation policy (fluctuating-constraint deployment)."""

import numpy as np
import pytest

from repro.core.patterns import random_pattern_set
from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.dvfs import DVFSTable
from repro.hardware.latency import LatencyModel, SparsityKind
from repro.hardware.workload import paper_scale_transformer

L4 = DVFSTable()["l4"]
L6 = DVFSTable()["l6"]


@pytest.fixture()
def adapter():
    rng = np.random.default_rng(0)
    ladder = {s: random_pattern_set(8, s, 2, rng) for s in (0.3, 0.5, 0.7, 0.9)}
    return RuntimeAdapter(ladder, paper_scale_transformer())


class TestFeasibility:
    def test_loose_deadline_picks_least_sparse(self, adapter):
        assert adapter.feasible_sparsity(L6, 10.0) == 0.3

    def test_tight_deadline_picks_sparser(self, adapter):
        lm = LatencyModel()
        wl = paper_scale_transformer()
        lat_05 = lm.latency_s(wl, L4, 0.5, SparsityKind.PATTERN)
        lat_03 = lm.latency_s(wl, L4, 0.3, SparsityKind.PATTERN)
        deadline = (lat_05 + lat_03) / 2  # between the two
        assert adapter.feasible_sparsity(L4, deadline) == 0.5

    def test_impossible_deadline_returns_none(self, adapter):
        assert adapter.feasible_sparsity(L4, 1e-6) is None


def walk_ladder(adapter, level, deadline_s):
    """The per-rung walk the rung table replaced: recompute each rung's
    latency until one meets the deadline."""
    for sparsity, _ in adapter.candidates:
        lat = adapter.latency.latency_s(
            adapter.workload, level, sparsity, SparsityKind.PATTERN,
            adapter.hardware_pattern_size)
        if lat <= deadline_s:
            return sparsity
    return None


class TestRungTable:
    @pytest.mark.parametrize("level", list(DVFSTable()), ids=lambda lv: lv.name)
    def test_matches_per_rung_walk_at_every_boundary(self, adapter, level):
        for sparsity, lat in adapter.rungs(level).items():
            assert lat == adapter.latency.latency_s(
                adapter.workload, level, sparsity, SparsityKind.PATTERN,
                adapter.hardware_pattern_size)
            for deadline in (np.nextafter(lat, 0.0), lat,
                             np.nextafter(lat, np.inf)):
                assert (adapter.feasible_sparsity(level, float(deadline))
                        == walk_ladder(adapter, level, float(deadline)))

    def test_table_is_ladder_ordered_and_built_once(self, adapter):
        table = adapter.rungs(L4)
        assert list(table) == [s for s, _ in adapter.candidates]
        assert adapter.rungs(L4) is table

    def test_batch_latency_memo_matches_model(self, adapter):
        sparsest = adapter.candidates[-1][0]
        for sparsity, size in ((0.5, 1), (0.5, 8), (None, 3)):
            want = adapter.latency.batch_latency_s(
                adapter.workload, L4, size,
                sparsest if sparsity is None else sparsity,
                SparsityKind.PATTERN, adapter.hardware_pattern_size)
            assert adapter.batch_latency_s(L4, sparsity, size) == want
            assert adapter.batch_latency_s(L4, sparsity, size) == want


class TestAdaptation:
    def test_first_adapt_switches(self, adapter):
        event = adapter.adapt(L6, 1.0)
        assert event.switched
        assert event.switch is not None
        assert event.chosen_sparsity == 0.3

    def test_stable_constraint_no_repeat_switch(self, adapter):
        adapter.adapt(L6, 1.0)
        event = adapter.adapt(L6, 1.0)
        assert not event.switched

    def test_constraint_change_triggers_switch(self, adapter):
        adapter.adapt(L6, 10.0)
        lm = LatencyModel()
        wl = paper_scale_transformer()
        tight = lm.latency_s(wl, L4, 0.7, SparsityKind.PATTERN) * 1.01
        event = adapter.adapt(L4, tight)
        assert event.switched
        assert event.chosen_sparsity == 0.7

    def test_infeasible_marks_violation_keeps_running(self, adapter):
        event = adapter.adapt(L4, 1e-6)
        assert event.chosen_sparsity is None
        assert not event.switched
        assert event.predicted_latency_s > 0

    def test_bad_deadline_rejected(self, adapter):
        with pytest.raises(ValueError):
            adapter.adapt(L4, 0.0)


class TestTraceRun:
    def test_report_aggregates(self, adapter):
        lm = LatencyModel()
        wl = paper_scale_transformer()
        tight = lm.latency_s(wl, L4, 0.7, SparsityKind.PATTERN) * 1.01
        trace = [(L6, 1.0), (L6, 1.0), (L4, tight), (L6, 1.0)]
        report = adapter.run(trace)
        assert len(report.events) == 4
        assert report.num_switches == 3  # initial, tighten, loosen
        assert report.total_switch_seconds > 0
        assert report.violations == 0

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            RuntimeAdapter({}, paper_scale_transformer())

    def test_manager_masks_applied_on_switch(self, tiny_transformer):
        from repro.core.block_pruning import BlockPruningConfig, apply_block_pruning
        from repro.core.patterns import MaskManager

        report = apply_block_pruning(tiny_transformer, BlockPruningConfig(num_blocks=2, rate=0.3))
        manager = MaskManager(tiny_transformer, report.masks)
        rng = np.random.default_rng(1)
        ladder = {0.4: random_pattern_set(8, 0.4, 2, rng),
                  0.8: random_pattern_set(8, 0.8, 2, rng)}
        adapter = RuntimeAdapter(ladder, paper_scale_transformer(), manager=manager)
        adapter.adapt(L6, 10.0)
        assert manager.active_set is ladder[0.4]
        assert manager.combined_sparsity() > report.overall_sparsity
