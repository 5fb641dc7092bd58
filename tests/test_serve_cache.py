"""Artifact cache: LRU mechanics, byte budget, and mask wiring."""

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
from repro.serve import (
    InferenceRequest,
    ScenarioConfig,
    StackConfig,
    build_scenario,
    build_serving_stack,
)
from repro.serve.cache import ArtifactCache, CacheStats

TINY = TransformerConfig(vocab_size=40, dim=16, num_heads=2, ffn_dim=32,
                         num_encoder_layers=1, num_decoder_layers=1,
                         max_len=12, dropout=0.0, seed=2)


@pytest.fixture()
def model():
    return TransformerLM(TINY)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def artifact(nbytes):
    """A mask artifact the cache charges exactly ``nbytes``."""
    return PackedMask(np.ones(8 * nbytes)), np.zeros(0, dtype=np.int64)


def lookup(cache, layer, nbytes=10, owner=""):
    return cache.get_mask(layer, "d", lambda: artifact(nbytes), owner=owner)


def serve_one(engine, rid):
    """One request at the ``l6`` level, served to completion."""
    engine.submit(InferenceRequest(rid, [1, 2, 3 + rid], arrival_s=float(rid),
                                   deadline_s=10.0, level_name="l6"))
    engine.drain()


def resident(cache):
    return {key[0] for key in cache._entries}


class TestLRUCache:
    def test_get_miss_then_hit(self):
        cache = ArtifactCache(budget_bytes=100)
        first = lookup(cache, "a")
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert lookup(cache, "a") is first
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_eviction_is_least_recently_used(self):
        cache = ArtifactCache(budget_bytes=20)
        lookup(cache, "a")
        lookup(cache, "b")
        lookup(cache, "a")  # refresh a; b becomes LRU
        lookup(cache, "c")
        assert resident(cache) == {"a", "c"}
        assert cache.stats.evictions == 1

    def test_get_or_compute_runs_once(self):
        cache = ArtifactCache()
        calls = []
        for _ in range(3):
            cache.get_mask("k", "d", lambda: calls.append(1) or artifact(4))
        assert len(calls) == 1
        assert cache.stats.hits == 2 and cache.stats.misses == 1


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
        # the key is (layer, set digest, owner): each distinct key
        # computes once, and no two keys share an entry
        cache = ArtifactCache()
        keys = [("l0", "d1", ""), ("l1", "d1", ""), ("l0", "d2", ""),
                ("l0", "d1", "m1")]
        calls = []
        for _ in range(2):
            for layer, digest, owner in keys:
                cache.get_mask(layer, digest,
                               lambda: calls.append(1) or artifact(4),
                               owner=owner)
        assert len(calls) == len(keys)
        assert cache.stats.misses == len(keys)
        assert cache.stats.hits == len(keys)

    def test_invalidate_by_owner(self):
        cache = ArtifactCache()
        lookup(cache, "a", nbytes=10, owner="m0")
        lookup(cache, "b", nbytes=10, owner="m0")
        kept = lookup(cache, "a", nbytes=30, owner="m1")
        assert cache.invalidate(owner="m0") == 2
        assert cache.bytes_in_use == 30
        assert cache.stats.invalidations == 2
        assert lookup(cache, "a", owner="m1") is kept
        assert cache.invalidate(owner="m0") == 0


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


class TestPackedMask:
    def test_round_trip_exact(self, rng):
        mask = (rng.random((13, 7)) > 0.5).astype(np.float64)
        packed = PackedMask(mask)
        np.testing.assert_array_equal(packed.unpack(), mask)

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


class TestArtifactNbytes:
    def test_packed_mask_counts_packed_bits(self, rng):
        # a mask artifact is charged its packed bits plus its tile ids
        pset = random_pattern_set(4, 0.5, 2, rng)
        mask, ids = pattern_mask_for_matrix(rng.normal(size=(16, 16)), pset)
        packed = PackedMask(mask)
        cache = ArtifactCache()
        cache.get_mask("l", "d", lambda: (packed, ids))
        assert cache.bytes_in_use == packed.nbytes + ids.nbytes
        assert packed.nbytes * 64 == mask.nbytes


class TestByteBudgetLRU:
    def test_eviction_is_size_aware_lru(self):
        cache = ArtifactCache(budget_bytes=3 * 80)
        for name in ("a", "b", "c"):
            lookup(cache, name, nbytes=80)
        lookup(cache, "a")  # refresh a; b becomes LRU
        lookup(cache, "d", nbytes=160)  # must evict b AND c
        assert resident(cache) == {"a", "d"}
        assert cache.stats.evictions == 2
        assert cache.bytes_in_use == 80 + 160

    def test_oversized_artifact_never_stored(self):
        cache = ArtifactCache(budget_bytes=100)
        lookup(cache, "small", nbytes=32)
        huge = lookup(cache, "huge", nbytes=1000)  # would flush the cache
        assert huge[0].nbytes == 1000  # still handed to the caller
        assert resident(cache) == {"small"}  # untouched by the rejection
        assert cache.bytes_in_use == 32

    def test_zero_budget_disables(self):
        cache = ArtifactCache(budget_bytes=0)
        lookup(cache, "a", nbytes=16)
        lookup(cache, "a", nbytes=16)
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert resident(cache) == set()
        assert cache.bytes_in_use == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_bytes"):
            ArtifactCache(budget_bytes=-1)


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

    def test_engine_reinstall_path_hits(self, rng):
        # repeated applies of one set (direct callers of the manager)
        # never move a layer's cache token
        model = TransformerLM(TINY)
        manager = MaskManager(model)
        pset = random_pattern_set(4, 0.5, 2, rng)
        manager.apply(pset)
        tokens = {n: l.cache_token for n, l in manager.layers.items()}
        for _ in range(3):
            manager.apply(pset)
        assert {n: l.cache_token for n, l in manager.layers.items()} == tokens


class TestServeAccounting:
    """Byte and miss accounting after a serve that visits every rung."""

    @pytest.fixture(scope="class")
    def served(self):
        _, workload, engine = build_serving_stack(StackConfig())
        trace = build_scenario("bandwidth", workload,
                               ScenarioConfig(num_requests=48, seed=0))
        return engine, engine.serve(trace)

    def test_bytes_in_use_sums_resident_masks(self, served):
        engine, _ = served
        manager = engine.adapter.manager
        expected = 0
        for _, pset in engine.adapter.candidates:
            for name, layer in manager.layers.items():
                mask, ids = pattern_mask_for_matrix(
                    layer.weight.data * manager.backbone_masks[name], pset)
                expected += PackedMask(mask).nbytes + ids.nbytes
        assert engine.cache.stats.evictions == 0  # every mask is resident
        assert engine.cache.bytes_in_use == expected

    def test_misses_equal_distinct_layer_set_pairs(self, served):
        engine, report = served
        rungs = {sparsity for sparsity, _ in engine.adapter.candidates}
        assert {r.sparsity for r in report.results} == rungs
        pairs = (len(engine.adapter.candidates)
                 * len(engine.adapter.manager.layers))
        assert engine.cache.stats.misses == pairs
        assert report.cache_stats.misses == pairs

    def test_masks_installed_only_on_a_real_switch(self):
        """A batch at the resident rung installs nothing; once another
        path sets a layer mask, the next batch installs the rung's set
        again (from the cache) and its output stays exact."""
        from repro.serve.invariants import check_exact

        _, _, engine = build_serving_stack(StackConfig(streaming=True))
        manager, stats = engine.adapter.manager, engine.cache.stats

        serve_one(engine, 0)
        lookups = (stats.hits, stats.misses)
        serve_one(engine, 1)
        assert (stats.hits, stats.misses) == lookups
        next(iter(manager.layers.values())).set_mask(None)
        serve_one(engine, 2)
        assert stats.hits == lookups[0] + len(manager.layers)
        assert len({r.sparsity for r in engine.report().results}) == 1
        check_exact(engine)

    def test_invalidate_cache_reinstalls_the_resident_set(self):
        """After a weight update and ``invalidate_cache``, the next batch
        at the resident rung installs masks derived from the new weights."""
        _, _, engine = build_serving_stack(StackConfig(streaming=True))
        manager = engine.adapter.manager

        serve_one(engine, 0)
        pset = manager.active_set
        old = [lin.mask for lin in manager.layers.values()]
        rng = np.random.default_rng(7)
        for lin in manager.layers.values():
            lin.weight.data[...] = rng.standard_normal(lin.weight.data.shape)
            lin.weight.bump_version()
        manager.invalidate_cache()
        serve_one(engine, 1)
        assert manager.active_set is pset
        for (name, lin), before in zip(manager.layers.items(), old):
            bp = manager.backbone_masks[name]
            fresh, _ = pattern_mask_for_matrix(lin.weight.data * bp, pset)
            np.testing.assert_array_equal(lin.mask, bp * fresh)
        assert any(not np.array_equal(lin.mask, before)
                   for lin, before in zip(manager.layers.values(), old))
