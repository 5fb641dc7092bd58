"""Artifact cache: LRU mechanics, byte budget, and mask/format wiring."""

import numpy as np
import pytest

from repro.core.patterns import (
    MaskManager,
    PackedMask,
    PatternSet,
    pattern_mask_for_matrix,
    random_pattern_set,
)
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve.cache import ArtifactCache, CacheStats, LRUCache, artifact_nbytes
from repro.sparse.executor import SparseExecutor

TINY = TransformerConfig(vocab_size=40, dim=16, num_heads=2, ffn_dim=32,
                         num_encoder_layers=1, num_decoder_layers=1,
                         max_len=12, dropout=0.0, seed=2)


@pytest.fixture()
def model():
    return TransformerLM(TINY)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestLRUCache:
    def test_get_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes a
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_get_or_compute_runs_once(self):
        cache = LRUCache(4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_invalidate_all_and_predicate(self):
        cache = LRUCache(8)
        for i in range(4):
            cache.put(("x", i), i)
        assert cache.invalidate(lambda k: k[1] % 2 == 0) == 2
        assert len(cache) == 2
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 4


class TestCacheStats:
    def test_hit_rate_no_lookups(self):
        assert CacheStats().hit_rate == 0.0

    def test_snapshot_is_independent(self):
        stats = CacheStats(hits=3, misses=1)
        snap = stats.snapshot()
        stats.hits = 10
        assert snap.hits == 3
        assert snap.hit_rate == 0.75


class TestArtifactCache:
    def test_mask_namespace_computes_once(self):
        cache = ArtifactCache()
        calls = []
        for _ in range(2):
            out = cache.get_mask("layer0", "digestA", lambda: calls.append(1) or "mask")
        assert out == "mask" and len(calls) == 1

    def test_format_namespace_is_distinct(self):
        cache = ArtifactCache()
        cache.get_mask("l", "d", lambda: "mask-artifact")
        fmt = cache.get_format("l", "d", "coo", lambda: "coo-artifact")
        assert fmt == "coo-artifact"
        assert cache.stats.misses == 2  # no cross-namespace collision

    def test_invalidate_by_layer(self):
        cache = ArtifactCache()
        cache.get_mask("a", "d1", lambda: 1)
        cache.get_mask("b", "d1", lambda: 2)
        assert cache.invalidate(layer="a") == 1
        assert cache.get_mask("b", "d1", lambda: 99) == 2  # still cached

    def test_invalidate_by_set_digest_spans_namespaces(self):
        cache = ArtifactCache()
        cache.get_mask("a", "d1", lambda: 1)
        cache.get_mask("a", "d2", lambda: 2)
        # pattern conversions carry the set digest in the config field
        cache.get_format("a", "w-hash", "pattern", lambda: 3, config="d1")
        cache.get_format("a", "w-hash", "coo", lambda: 4)
        assert cache.invalidate(set_digest="d1") == 2
        assert cache.get_mask("a", "d2", lambda: 99) == 2
        assert cache.get_format("a", "w-hash", "coo", lambda: 99) == 4

    def test_invalidate_by_owner_keeps_formats(self):
        cache = ArtifactCache()
        cache.get_mask("a", "d1", lambda: 1, owner="m0")
        cache.get_mask("a", "d1", lambda: 2, owner="m1")
        cache.get_format("a", "w-hash", "coo", lambda: 3)
        assert cache.invalidate(owner="m0") == 1
        assert cache.get_mask("a", "d1", lambda: 99, owner="m1") == 2
        assert cache.get_format("a", "w-hash", "coo", lambda: 99) == 3


class TestPatternSetDigest:
    def test_identical_content_same_digest(self, rng):
        a = random_pattern_set(4, 0.5, 2, np.random.default_rng(7))
        b = random_pattern_set(4, 0.5, 2, np.random.default_rng(7))
        assert a.digest() == b.digest()

    def test_name_does_not_change_digest(self, rng):
        base = random_pattern_set(4, 0.5, 2, rng)
        renamed = PatternSet(base.patterns, sparsity=base.sparsity, name="other")
        assert base.digest() == renamed.digest()

    def test_different_patterns_different_digest(self):
        a = random_pattern_set(4, 0.5, 2, np.random.default_rng(1))
        b = random_pattern_set(4, 0.5, 2, np.random.default_rng(2))
        assert a.digest() != b.digest()

    def test_subset_changes_digest(self, rng):
        full = random_pattern_set(4, 0.5, 3, rng)
        assert full.subset([0, 1]).digest() != full.digest()


class TestMaskManagerCache:
    def test_second_apply_hits_every_layer(self, model, rng):
        cache = ArtifactCache()
        manager = MaskManager(model, cache=cache)
        pset = random_pattern_set(4, 0.5, 2, rng)
        manager.apply(pset)
        assert cache.stats.misses == len(manager.layers)
        assert cache.stats.hits == 0
        manager.apply(pset)
        assert cache.stats.hits == len(manager.layers)

    def test_cached_masks_match_uncached(self, rng):
        pset = random_pattern_set(4, 0.5, 2, rng)
        plain_model, cached_model = TransformerLM(TINY), TransformerLM(TINY)
        plain = MaskManager(plain_model)
        cached = MaskManager(cached_model, cache=ArtifactCache())
        plain.apply(pset)
        cached.apply(pset)
        cached.apply(pset)  # second pass comes from cache
        for name in plain.layers:
            np.testing.assert_array_equal(plain.layers[name].mask,
                                          cached.layers[name].mask)

    def test_swap_and_return_reuses_cache(self, model, rng):
        cache = ArtifactCache()
        manager = MaskManager(model, cache=cache)
        set_a = random_pattern_set(4, 0.3, 2, rng)
        set_b = random_pattern_set(4, 0.7, 2, rng)
        manager.apply(set_a)
        manager.apply(set_b)
        first_masks = {n: l.mask.copy() for n, l in manager.layers.items()}
        misses_before = cache.stats.misses
        manager.apply(set_a)
        manager.apply(set_b)  # both swaps fully cached now
        assert cache.stats.misses == misses_before
        for name, layer in manager.layers.items():
            np.testing.assert_array_equal(layer.mask, first_masks[name])

    def test_invalidation_on_weight_change(self, model, rng):
        cache = ArtifactCache()
        manager = MaskManager(model, cache=cache)
        pset = random_pattern_set(4, 0.5, 2, rng)
        manager.apply(pset)
        stale = {n: l.mask.copy() for n, l in manager.layers.items()}
        # perturb weights: cached masks are now stale until invalidated
        name, layer = next(iter(manager.layers.items()))
        layer.weight.data[:] = rng.normal(size=layer.weight.shape)
        removed = manager.invalidate_cache()
        assert removed == len(manager.layers)
        manager.apply(pset)
        assert not np.array_equal(manager.layers[name].mask, stale[name])

    def test_shared_cache_does_not_cross_managers(self, rng):
        # masks derive from weights: two managers over different weights
        # sharing one cache must never serve each other's entries
        cache = ArtifactCache()
        model_a = TransformerLM(TINY)
        model_b = TransformerLM(TransformerConfig(**{**TINY.__dict__, "seed": 99}))
        pset = random_pattern_set(4, 0.5, 2, rng)
        manager_a = MaskManager(model_a, cache=cache)
        manager_b = MaskManager(model_b, cache=cache)
        manager_a.apply(pset)
        manager_b.apply(pset)
        plain_b = MaskManager(TransformerLM(TransformerConfig(
            **{**TINY.__dict__, "seed": 99})))
        plain_b.apply(pset)
        for name in manager_b.layers:
            np.testing.assert_array_equal(manager_b.layers[name].mask,
                                          plain_b.layers[name].mask)

    def test_attach_cache_later(self, model, rng):
        manager = MaskManager(model)
        pset = random_pattern_set(4, 0.5, 2, rng)
        manager.apply(pset)
        cache = ArtifactCache()
        manager.attach_cache(cache)
        manager.apply(pset)
        manager.apply(pset)
        assert cache.stats.hits == len(manager.layers)


class TestExecutorCache:
    @pytest.mark.parametrize("fmt", ["coo", "block", "pattern"])
    def test_repeat_audit_hits_cache(self, model, rng, fmt):
        pset = random_pattern_set(4, 0.5, 2, rng)
        MaskManager(model).apply(pset)
        cache = ArtifactCache()
        executor = SparseExecutor(fmt, pattern_set=pset, cache=cache)
        first = executor.audit(model)
        assert cache.stats.hits == 0
        second = executor.audit(model)
        assert cache.stats.hits == len(first.layers)
        assert first.all_correct and second.all_correct
        assert second.total.macs == first.total.macs

    def test_weight_change_misses_naturally(self, model, rng):
        pset = random_pattern_set(4, 0.5, 2, rng)
        MaskManager(model).apply(pset)
        cache = ArtifactCache()
        executor = SparseExecutor("coo", pattern_set=pset, cache=cache)
        executor.audit(model)
        name, layer = next(iter(MaskManager(model).layers.items()))
        layer.weight.data[:] = rng.normal(size=layer.weight.shape)
        # version-counter keys: raw in-place writes must declare themselves
        # (optimizers and load_state_dict do this automatically)
        layer.weight.bump_version()
        executor.audit(model)  # bumped version: changed layer misses
        assert cache.stats.misses > len(executor.audit(model).layers)

    def test_mask_change_misses_naturally(self, model, rng):
        # set_mask bumps the layer's mask version, so a swapped pattern set
        # can never be served a stale conversion
        set_a = random_pattern_set(4, 0.3, 2, rng)
        cache = ArtifactCache()
        executor = SparseExecutor("coo", pattern_set=set_a, cache=cache)
        manager = MaskManager(model)
        manager.apply(set_a)
        first = executor.audit(model)
        manager.apply(random_pattern_set(4, 0.9, 2, rng))
        second = executor.audit(model)  # every layer misses, none stale
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2 * len(first.layers)
        assert second.all_correct
        assert second.total.macs < first.total.macs

    def test_shared_cache_distinguishes_pattern_sets(self, model, rng):
        # same weights, different pattern sets: payloads must not collide
        cache = ArtifactCache()
        set_a = random_pattern_set(4, 0.3, 2, rng)
        set_b = random_pattern_set(4, 0.9, 2, rng)
        exec_a = SparseExecutor("pattern", pattern_set=set_a, cache=cache)
        exec_b = SparseExecutor("pattern", pattern_set=set_b, cache=cache)
        audit_a = exec_a.audit(model)
        audit_b = exec_b.audit(model)
        truth_b = SparseExecutor("pattern", pattern_set=set_b).audit(model)
        assert audit_b.total.macs == truth_b.total.macs
        assert audit_b.total.macs != audit_a.total.macs
        assert audit_b.all_correct

    def test_shared_cache_distinguishes_block_counts(self, model, rng):
        cache = ArtifactCache()
        audit_2 = SparseExecutor("block", num_blocks=2, cache=cache).audit(model)
        audit_8 = SparseExecutor("block", num_blocks=8, cache=cache).audit(model)
        truth_8 = SparseExecutor("block", num_blocks=8).audit(model)
        assert audit_8.total.index_ops == truth_8.total.index_ops
        assert audit_8.total.index_ops != audit_2.total.index_ops

    def test_uncached_executor_still_works(self, model, rng):
        pset = random_pattern_set(4, 0.5, 2, rng)
        MaskManager(model).apply(pset)
        audit = SparseExecutor("pattern", pattern_set=pset).audit(model)
        assert audit.all_correct


class TestPackedMask:
    def test_round_trip_exact(self, rng):
        mask = (rng.random((13, 7)) > 0.5).astype(np.float64)
        packed = PackedMask(mask)
        np.testing.assert_array_equal(packed.unpack(), mask)
        assert packed.count() == int(mask.sum())

    def test_round_trip_pattern_mask(self, model, rng):
        pset = random_pattern_set(4, 0.5, 2, rng)
        layer = next(iter(MaskManager(model).layers.values()))
        mask, _ = pattern_mask_for_matrix(layer.weight.data, pset)
        np.testing.assert_array_equal(PackedMask(mask).unpack(), mask)

    def test_eightfold_compression(self):
        mask = np.ones((64, 64))
        packed = PackedMask(mask)
        assert packed.nbytes == 64 * 64 // 8  # one bit per position
        assert packed.nbytes * 64 == mask.nbytes  # vs float64 storage

    def test_equality_is_content_based(self, rng):
        mask = (rng.random((8, 8)) > 0.5).astype(np.float64)
        assert PackedMask(mask) == PackedMask(mask.copy())
        flipped = mask.copy()
        flipped[0, 0] = 1.0 - flipped[0, 0]
        assert PackedMask(mask) != PackedMask(flipped)


class TestArtifactNbytes:
    def test_ndarray_uses_nbytes(self):
        assert artifact_nbytes(np.zeros((4, 4))) == 128

    def test_formats_use_own_accounting(self):
        from repro.sparse import from_dense_coo
        w = np.eye(4)
        coo = from_dense_coo(w)
        assert artifact_nbytes(coo) == coo.nbytes()

    def test_packed_mask_counts_packed_bits(self):
        packed = PackedMask(np.ones((64, 64)))
        assert artifact_nbytes(packed) == packed.nbytes

    def test_containers_sum_members(self):
        pair = (np.zeros(8), np.zeros(4))
        assert artifact_nbytes(pair) == 64 + 32
        assert artifact_nbytes([pair, np.zeros(2)]) == 96 + 16

    def test_fallback_is_positive(self):
        assert artifact_nbytes("some string") > 0


class TestByteBudgetLRU:
    def test_eviction_is_size_aware_lru(self):
        cache = LRUCache(capacity=None, budget_bytes=3 * 80)
        for name in ("a", "b", "c"):
            cache.put(name, np.zeros(10))  # 80 bytes each
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("d", np.zeros(20))  # 160 bytes: must evict b AND c
        assert "a" in cache and "d" in cache
        assert "b" not in cache and "c" not in cache
        assert cache.stats.evictions == 2
        assert cache.total_bytes == 80 + 160

    def test_total_bytes_tracks_replacement(self):
        cache = LRUCache(capacity=None, budget_bytes=1000)
        cache.put("k", np.zeros(10))
        assert cache.total_bytes == 80
        cache.put("k", np.zeros(50))  # replace: old size released
        assert cache.total_bytes == 400
        cache.invalidate()
        assert cache.total_bytes == 0

    def test_oversized_artifact_never_stored(self):
        cache = LRUCache(capacity=None, budget_bytes=100)
        cache.put("small", np.zeros(4))
        cache.put("huge", np.zeros(1000))  # would flush the whole cache
        assert "huge" not in cache
        assert "small" in cache  # untouched by the rejected insert

    def test_zero_budget_disables(self):
        cache = LRUCache(capacity=None, budget_bytes=0)
        cache.put("a", np.zeros(2))
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(budget_bytes=-1)

    def test_entry_nbytes_reported(self):
        cache = LRUCache(capacity=None, budget_bytes=1000)
        cache.put("k", np.zeros(10))
        assert cache.entry_nbytes("k") == 80
        assert cache.entry_nbytes("missing") is None

    def test_explicit_nbytes_overrides_estimate(self):
        cache = LRUCache(capacity=None, budget_bytes=100)
        cache.put("k", np.zeros(1000), nbytes=10)  # caller-declared size
        assert "k" in cache
        assert cache.total_bytes == 10

    def test_capacity_and_budget_compose(self):
        cache = LRUCache(capacity=2, budget_bytes=10_000)
        for name in ("a", "b", "c"):
            cache.put(name, np.zeros(1))
        assert len(cache) == 2  # entry bound still enforced


class TestArtifactCacheByteBudget:
    def test_masks_stored_packed(self, model, rng):
        cache = ArtifactCache()
        manager = MaskManager(model, cache=cache)
        manager.apply(random_pattern_set(4, 0.5, 2, rng))
        # every cached mask artifact is bit-packed: the cache's accounted
        # bytes must be far below the float64 mask footprint
        float_bytes = sum(l.weight.data.nbytes for l in manager.layers.values())
        assert 0 < cache.bytes_in_use < float_bytes / 4

    def test_packed_masks_identical_to_uncached(self, rng):
        pset = random_pattern_set(4, 0.5, 2, rng)
        plain_model, cached_model = TransformerLM(TINY), TransformerLM(TINY)
        plain = MaskManager(plain_model)
        cached = MaskManager(cached_model, cache=ArtifactCache())
        plain.apply(pset)
        cached.apply(pset)
        cached.apply(pset)  # second pass unpacks from cache
        for name in plain.layers:
            np.testing.assert_array_equal(plain.layers[name].mask,
                                          cached.layers[name].mask)

    def test_budget_pressure_evicts_old_pattern_sets(self, model, rng):
        # budget sized for roughly one pattern set's worth of artifacts:
        # swapping through many sets must evict rather than grow
        manager = MaskManager(model)
        one_set_bytes = 0
        probe = ArtifactCache()
        probe_manager = MaskManager(TransformerLM(TINY), cache=probe)
        probe_manager.apply(random_pattern_set(4, 0.5, 2, rng))
        one_set_bytes = probe.bytes_in_use
        cache = ArtifactCache(budget_bytes=int(one_set_bytes * 1.5))
        manager.attach_cache(cache)
        for sparsity in (0.3, 0.5, 0.7, 0.9):
            manager.apply(random_pattern_set(4, sparsity, 2, rng))
        assert cache.stats.evictions > 0
        assert cache.bytes_in_use <= int(one_set_bytes * 1.5)


class TestIdenticalMaskReinstall:
    def test_token_stable_across_identical_reinstall(self, rng):
        from repro.nn.layers import Linear
        layer = Linear(16, 16, seed=0)
        mask = (rng.random((16, 16)) > 0.5).astype(np.float64)
        layer.set_mask(mask)
        token = layer.cache_token
        layer.set_mask(mask.copy())  # identical content, fresh array
        assert layer.cache_token == token
        changed = mask.copy()
        changed[0, 0] = 1.0 - changed[0, 0]
        layer.set_mask(changed)
        assert layer.cache_token != token

    def test_reinstall_keeps_format_conversions_hot(self, model, rng):
        # the ROADMAP open item: re-installing the same masks used to bump
        # every cache_token, turning warm format conversions into misses
        pset = random_pattern_set(4, 0.5, 2, rng)
        manager = MaskManager(model)
        manager.apply(pset)
        cache = ArtifactCache()
        executor = SparseExecutor("pattern", pattern_set=pset, cache=cache)
        first = executor.audit(model)
        manager.apply(pset)  # identical reinstall (the per-batch path)
        executor.audit(model)
        assert cache.stats.hits == len(first.layers)  # all hot

    def test_engine_reinstall_path_hits(self, rng):
        # end to end: the serving loop re-applies masks every batch;
        # with the content fast path the executor-style token never moves
        model = TransformerLM(TINY)
        manager = MaskManager(model)
        pset = random_pattern_set(4, 0.5, 2, rng)
        manager.apply(pset)
        tokens = {n: l.cache_token for n, l in manager.layers.items()}
        for _ in range(3):
            manager.apply(pset)
        assert {n: l.cache_token for n, l in manager.layers.items()} == tokens


class TestResidentAccounting:
    def test_resident_nbytes_grows_with_tables(self, rng):
        from repro.sparse import from_dense_pattern
        pset = random_pattern_set(4, 0.5, 2, rng)
        w = rng.normal(size=(16, 16))
        mask, ids = pattern_mask_for_matrix(w, pset)
        pm = from_dense_pattern(w * mask, [p.mask for p in pset], ids)
        storage = pm.nbytes()
        assert pm.resident_nbytes() == storage  # nothing materialized yet
        pm.pattern_groups()
        assert pm.resident_nbytes() > storage  # tables now resident

    def test_cached_pattern_artifact_accounts_for_tables(self, model, rng):
        # the executor materializes kernel tables before the artifact is
        # sized, so the cache's byte budget sees the live footprint, not
        # just the storage format
        pset = random_pattern_set(4, 0.5, 2, rng)
        MaskManager(model).apply(pset)
        cache = ArtifactCache()
        executor = SparseExecutor("pattern", pattern_set=pset, cache=cache)
        executor.audit(model)
        for key in cache.store.keys():
            packed, _ = cache.store.get(key)
            assert cache.store.entry_nbytes(key) >= packed.resident_nbytes()
            assert packed.resident_nbytes() > packed.nbytes()

    def test_block_resident_nbytes_counts_groups(self, rng):
        from repro.sparse import from_dense_block
        w = rng.normal(size=(16, 12))
        bc = from_dense_block(w, 4)
        storage = bc.nbytes()
        assert bc.resident_nbytes() == storage
        bc.matmul_groups()
        assert bc.resident_nbytes() > storage
