"""Sparse formats and kernels: round-trips, correctness, cost ordering."""

import numpy as np
import pytest

from repro.core.block_pruning import (
    BlockPruningConfig,
    apply_block_pruning,
    block_prune_matrix,
)
from repro.core.patterns import pattern_mask_for_matrix, random_pattern_set
from repro.hardware.latency import LatencyModel, SparsityKind
from repro.hardware.workload import profile_from_model
from repro.nn.layers import prunable_linears
from repro.nn.transformer import TransformerLM
from repro.sparse import (
    BlockCompressedMatrix,
    COOMatrix,
    OpCounter,
    block_matmul,
    coo_matmul,
    dense_matmul,
    from_dense_block,
    from_dense_coo,
    from_dense_pattern,
    pattern_matmul,
    pattern_matmul_loop,
)
from tests.conftest import TINY_TRANSFORMER


def bp_masked_matrix(shape=(16, 12), rate=0.5, num_blocks=4, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape)
    mask = block_prune_matrix(w, BlockPruningConfig(num_blocks=num_blocks, rate=rate))
    return w * mask


def pattern_masked_matrix(shape=(16, 12), psize=4, sparsity=0.5, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=shape)
    ps = random_pattern_set(psize, sparsity, 3, rng)
    mask, ids = pattern_mask_for_matrix(w, ps)
    return w * mask, [p.mask for p in ps], ids


class TestCOOFormat:
    def test_round_trip(self):
        w = bp_masked_matrix()
        coo = from_dense_coo(w)
        assert np.array_equal(coo.to_dense(), w)

    def test_nnz_and_bytes(self):
        w = np.zeros((4, 4))
        w[0, 0] = w[3, 3] = 1.0
        coo = from_dense_coo(w)
        assert coo.nnz == 2
        assert coo.nbytes() == 2 * (4 + 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), np.array([0]), np.array([0, 1]), np.array([1.0]))
        with pytest.raises(ValueError):
            COOMatrix((2, 2), np.array([5]), np.array([0]), np.array([1.0]))


class TestBlockFormat:
    def test_round_trip(self):
        w = bp_masked_matrix()
        bc = from_dense_block(w, 4)
        assert np.allclose(bc.to_dense(), w)

    def test_index_count_is_per_group(self):
        w = bp_masked_matrix(rate=0.5, num_blocks=4)
        bc = from_dense_block(w, 4)
        kept_cols_total = sum(len(c) for c in bc.kept_cols)
        assert bc.nbytes() == bc.nnz * 4 + kept_cols_total * 2

    def test_beats_coo_on_bytes_for_bp_structure(self):
        """The paper's storage argument, now on real containers."""
        w = bp_masked_matrix(shape=(64, 48), rate=0.5, num_blocks=4)
        assert from_dense_block(w, 4).nbytes() < from_dense_coo(w).nbytes()

    def test_payload_shape_validation(self):
        with pytest.raises(ValueError):
            BlockCompressedMatrix((4, 4), [(0, 4)], [np.array([0, 1])],
                                  [np.zeros((4, 3))])

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            from_dense_block(np.zeros(5), 1)


class TestPatternFormat:
    def test_round_trip_exact_tiles(self):
        w, patterns, ids = pattern_masked_matrix(shape=(16, 12), psize=4)
        pm = from_dense_pattern(w, patterns, ids)
        assert np.allclose(pm.to_dense(), w)

    def test_round_trip_padded(self):
        w, patterns, ids = pattern_masked_matrix(shape=(14, 10), psize=4)
        pm = from_dense_pattern(w, patterns, ids)
        assert np.allclose(pm.to_dense(), w)

    def test_rejects_out_of_pattern_values(self):
        w, patterns, ids = pattern_masked_matrix(psize=4)
        w = w.copy()
        # plant a nonzero where the chosen pattern has a zero
        mask0 = patterns[ids[0, 0]].astype(bool)
        zr, zc = np.argwhere(~mask0)[0]
        w[zr, zc] = 99.0
        with pytest.raises(ValueError):
            from_dense_pattern(w, patterns, ids)

    def test_bytes_include_shared_masks_once(self):
        w, patterns, ids = pattern_masked_matrix(shape=(16, 12), psize=4)
        pm = from_dense_pattern(w, patterns, ids)
        with_masks = pm.nbytes(include_patterns=True)
        without = pm.nbytes(include_patterns=False)
        assert with_masks - without == pytest.approx(len(patterns) * 16 / 8)


class TestKernelCorrectness:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_all_kernels_match_dense(self, batch):
        w, patterns, ids = pattern_masked_matrix(shape=(16, 12), psize=4, seed=3)
        x = np.random.default_rng(1).normal(size=(12, batch))
        expected, _ = dense_matmul(w, x)

        got_coo, _ = coo_matmul(from_dense_coo(w), x)
        assert np.allclose(got_coo, expected)

        got_pat, _ = pattern_matmul(from_dense_pattern(w, patterns, ids), x)
        assert np.allclose(got_pat, expected)

        wb = bp_masked_matrix(shape=(16, 12), seed=3)
        expected_b, _ = dense_matmul(wb, x)
        got_blk, _ = block_matmul(from_dense_block(wb, 4), x)
        assert np.allclose(got_blk, expected_b)

    def test_vector_input_promoted(self):
        w = bp_masked_matrix(shape=(8, 6))
        x = np.random.default_rng(2).normal(size=6)
        out, _ = block_matmul(from_dense_block(w, 2), x)
        assert out.shape == (8, 1)

    def test_shape_mismatch_rejected(self):
        w = bp_masked_matrix(shape=(8, 6))
        with pytest.raises(ValueError):
            dense_matmul(w, np.zeros((5, 1)))


class TestVectorizedKernels:
    """The grouped kernels must reproduce the scalar references exactly."""

    @pytest.mark.parametrize("shape,psize,batch", [
        ((16, 12), 4, 1), ((16, 12), 4, 3), ((14, 10), 4, 2),  # ragged pad
        ((32, 32), 8, 5), ((8, 8), 8, 2),  # single tile
    ])
    def test_pattern_grouped_matches_loop(self, shape, psize, batch):
        w, patterns, ids = pattern_masked_matrix(shape=shape, psize=psize,
                                                 seed=11)
        x = np.random.default_rng(4).normal(size=(shape[1], batch))
        got, c_vec = pattern_matmul(from_dense_pattern(w, patterns, ids), x)
        ref, c_loop = pattern_matmul_loop(from_dense_pattern(w, patterns, ids), x)
        np.testing.assert_allclose(got, ref, atol=1e-12, rtol=0)
        assert c_vec == c_loop  # identical op accounting

    def test_pattern_grouped_vector_input(self):
        w, patterns, ids = pattern_masked_matrix(shape=(16, 12), psize=4)
        x = np.random.default_rng(5).normal(size=12)
        out, _ = pattern_matmul(from_dense_pattern(w, patterns, ids), x)
        assert out.shape == (16, 1)

    def test_pattern_groups_cover_every_tile_once(self):
        w, patterns, ids = pattern_masked_matrix(shape=(16, 16), psize=4, seed=2)
        pm = from_dense_pattern(w, patterns, ids)
        seen = []
        for g in pm.pattern_groups():
            assert np.all(pm.tile_ids[g.tile_rows, g.tile_cols] == g.pattern_id)
            seen.extend(zip(g.tile_rows.tolist(), g.tile_cols.tolist()))
        assert sorted(seen) == [(bi, bj) for bi in range(4) for bj in range(4)]

    def test_table_charge_once_per_matrix(self):
        """Satellite fix: kept-position tables are charged on the first
        invocation only — materialized once, amortized across calls."""
        w, patterns, ids = pattern_masked_matrix(shape=(16, 12), psize=4)
        pm = from_dense_pattern(w, patterns, ids)
        x = np.ones((12, 2))
        _, first = pattern_matmul(pm, x)
        _, second = pattern_matmul(pm, x)
        table_ops = sum(len(np.argwhere(p != 0)) for p in pm.patterns)
        assert first.index_ops == table_ops
        assert second.index_ops == 0
        assert second.macs == first.macs
        assert second.overhead_ops == first.overhead_ops

    def test_table_charge_shared_between_kernels(self):
        # loop and grouped kernels share one table per matrix: whoever
        # runs first pays, the other rides the materialized table
        w, patterns, ids = pattern_masked_matrix(shape=(16, 12), psize=4)
        pm = from_dense_pattern(w, patterns, ids)
        x = np.ones((12, 2))
        _, first = pattern_matmul_loop(pm, x)
        _, second = pattern_matmul(pm, x)
        assert first.index_ops > 0
        assert second.index_ops == 0

    def test_block_grouped_matches_dense(self):
        # ragged block heights: 10 rows over 4 blocks -> mixed 2/3 heights
        w = bp_masked_matrix(shape=(10, 12), rate=0.4, num_blocks=2, seed=9)
        bc = from_dense_block(w, 4)
        heights = {hi - lo for lo, hi in bc.block_bounds}
        assert len(heights) > 1  # genuinely ragged
        x = np.random.default_rng(6).normal(size=(12, 3))
        expected, _ = dense_matmul(w, x)
        got, counter = block_matmul(bc, x)
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
        assert counter.overhead_ops == len(bc.block_bounds)
        assert counter.index_ops == sum(len(c) for c in bc.kept_cols)

    def test_block_groups_batch_uniform_blocks(self):
        w = bp_masked_matrix(shape=(16, 12), rate=0.0, num_blocks=4)
        bc = from_dense_block(w, 4)
        # equal heights and (rate=0 -> all columns kept) equal kept counts:
        # the whole matrix collapses into one batched group
        assert len(bc.matmul_groups()) == 1
        assert bc.matmul_groups() is bc.matmul_groups()  # cached

    def test_degenerate_blocks_still_billed_one_dispatch(self):
        # num_blocks > rows: zero-height blocks carry no work but still
        # cost a per-block dispatch, matching the pre-grouping kernel
        w = bp_masked_matrix(shape=(2, 8), rate=0.0, num_blocks=1)
        bc = from_dense_block(w, 4)
        assert len(bc.block_bounds) == 4
        _, counter = block_matmul(bc, np.ones((8, 1)))
        assert counter.overhead_ops == 4

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError, match="num_blocks"):
            from_dense_block(np.ones((4, 4)), 0)

    def test_from_dense_pattern_matches_tilewise_reference(self):
        w, patterns, ids = pattern_masked_matrix(shape=(14, 10), psize=4, seed=8)
        pm = from_dense_pattern(w, patterns, ids)
        stack = np.stack([p != 0 for p in np.asarray(patterns)])
        padded = np.zeros((16, 12))
        padded[:14, :10] = w
        k = 0
        for bi in range(4):
            for bj in range(3):
                tile = padded[bi * 4:(bi + 1) * 4, bj * 4:(bj + 1) * 4]
                np.testing.assert_array_equal(pm.tile_values[k],
                                              tile[stack[ids[bi, bj]]])
                k += 1


class TestCostModel:
    def test_sparse_macs_scale_with_survivors(self):
        w = bp_masked_matrix(shape=(32, 32), rate=0.5, num_blocks=4)
        x = np.ones((32, 1))
        _, dense_c = dense_matmul(w, x)
        _, block_c = block_matmul(from_dense_block(w, 4), x)
        kept = np.count_nonzero(w) / w.size
        assert block_c.macs == pytest.approx(dense_c.macs * kept, rel=0.01)

    def test_cost_ordering_block_pattern_coo(self):
        """The paper's Challenge-1 ordering, realized by op counts."""
        w, patterns, ids = pattern_masked_matrix(shape=(32, 32), psize=4,
                                                 sparsity=0.5, seed=5)
        x = np.ones((32, 4))
        _, coo_c = coo_matmul(from_dense_coo(w), x)
        _, pat_c = pattern_matmul(from_dense_pattern(w, patterns, ids), x)
        wb = bp_masked_matrix(shape=(32, 32), rate=0.5, num_blocks=4, seed=5)
        _, blk_c = block_matmul(from_dense_block(wb, 4), x)
        # same MAC ballpark, wildly different index burden: structured
        # formats pay a few dozen index ops, COO pays thousands
        assert blk_c.index_ops * 10 < coo_c.index_ops
        assert pat_c.index_ops * 10 < coo_c.index_ops
        assert blk_c.weighted_total() < coo_c.weighted_total()
        assert pat_c.weighted_total() < coo_c.weighted_total()

    def test_coo_indexing_can_dominate(self):
        """At moderate sparsity COO's weighted cost exceeds dense —
        why the paper rejects irregular pruning on mobile."""
        rng = np.random.default_rng(6)
        w = rng.normal(size=(32, 32))
        w[rng.random(w.shape) < 0.3] = 0.0  # only 30% sparse
        x = np.ones((32, 2))
        _, dense_c = dense_matmul(w, x)
        _, coo_c = coo_matmul(from_dense_coo(w), x)
        assert coo_c.weighted_total() > dense_c.weighted_total()

    def test_pattern_index_cost_amortized(self):
        """Doubling the tiles (same pattern library) must NOT double the
        pattern-table index cost — it is shared across tiles."""
        w1, patterns, ids1 = pattern_masked_matrix(shape=(16, 16), psize=4, seed=7)
        w2 = np.vstack([w1, w1])
        ids2 = np.vstack([ids1, ids1])
        x1 = np.ones((16, 1))
        _, c1 = pattern_matmul(from_dense_pattern(w1, patterns, ids1), x1)
        _, c2 = pattern_matmul(from_dense_pattern(w2, patterns, ids2), x1)
        assert c2.index_ops == c1.index_ops  # same table, twice the tiles
        assert c2.macs == 2 * c1.macs
        assert c2.overhead_ops == 2 * c1.overhead_ops

    def test_op_counter_totals(self):
        c = OpCounter(macs=10, index_ops=4, overhead_ops=1)
        assert c.total == 15
        assert c.weighted_total(index_penalty=3.0) == 10 + 12 + 1


class TestPredictorCrossValidation:
    def test_kernel_macs_track_latency_model(self):
        """The analytic predictor and the executable kernels must agree on
        the *relative* cost of sparsities (correlation of block-kernel MACs
        vs predicted cycles across BP rates)."""
        lm = LatencyModel()
        mac_counts, predicted = [], []
        for rate in (0.2, 0.4, 0.6, 0.8):
            model = TransformerLM(TINY_TRANSFORMER)
            apply_block_pruning(model, BlockPruningConfig(num_blocks=2, rate=rate))
            macs = kept = weights = 0
            for layer in prunable_linears(model, min_features=8).values():
                w = layer.weight.data * layer.mask
                got, counter = block_matmul(from_dense_block(w, 2), np.ones((w.shape[1], 1)))
                assert np.allclose(got, w @ np.ones((w.shape[1], 1)))
                macs += counter.macs
                kept += np.count_nonzero(w)
                weights += w.size
            mac_counts.append(macs)
            wl = profile_from_model(model, seq_len=1)
            predicted.append(lm.cycles(wl, 1.0 - kept / weights, SparsityKind.BLOCK))
        corr = np.corrcoef(mac_counts, predicted)[0, 1]
        assert corr > 0.99
