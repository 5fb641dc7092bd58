"""Compiled zero-autograd forward plane: exactness, recompile, serving."""

import numpy as np
import pytest

from repro.core.patterns import MaskManager, random_pattern_set
from repro.nn.distilbert import DistilBertConfig, DistilBertForSequenceTask
from repro.nn.inference import (
    _BIND_CACHE_CAP,
    _PROGRAM_CACHE_CAP,
    CompiledForward,
    UnsupportedModel,
    compile_inference,
)
from repro.nn.layers import _KNOWN_MASKS_CAP, Linear, prunable_linears
from repro.nn.optim import SGD
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve import (
    ArtifactCache,
    InferenceRequest,
    ScenarioConfig,
    StackConfig,
    build_scenario,
    build_serving_stack,
    pad_batch,
    run_padded,
)
from repro.serve.invariants import check_exact
from repro.serve.streaming import StreamingEngine
from repro.tensor.tensor import Tensor, no_grad

LM_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                           num_encoder_layers=2, num_decoder_layers=1,
                           max_len=16, dropout=0.0, seed=3)
DB_CFG = DistilBertConfig(vocab_size=80, dim=32, num_heads=2, ffn_dim=64,
                          num_layers=2, max_len=24, dropout=0.0, seed=5)


def make_model(kind):
    if kind == "lm":
        return TransformerLM(LM_CFG).eval()
    if kind == "distilbert":
        return DistilBertForSequenceTask(DB_CFG).eval()
    return DistilBertForSequenceTask(
        DistilBertConfig(vocab_size=80, dim=32, num_heads=2, ffn_dim=64,
                         num_layers=2, max_len=24, dropout=0.0,
                         is_regression=True, seed=5)).eval()


def install_masks(model, kind):
    """Install the requested mask family on every prunable layer."""
    if kind == "none":
        return
    if kind == "pattern":
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        MaskManager(model).apply(pset)
        return
    # block: zero the bottom half-rows of each prunable weight (the
    # block-pruning structure: whole row groups removed)
    for layer in prunable_linears(model).values():
        mask = np.ones_like(layer.weight.data)
        mask[layer.out_features // 2:, :] = 0.0
        layer.set_mask(mask)


def tokens_for(model, batch, ragged, seed=0):
    rng = np.random.default_rng(seed)
    vocab = model.cfg.vocab_size
    length = 12
    if not ragged:
        return rng.integers(1, vocab, size=(batch, length)), None
    lengths = [max(2, length - 2 * i) for i in range(batch)]
    seqs = [rng.integers(1, vocab, size=n) for n in lengths]
    toks, mask, _ = pad_batch(seqs)
    return toks, mask


def eager(model, toks, mask):
    with no_grad():
        out = model(toks) if mask is None else model(toks, attn_mask=mask)
    return out.data


# ---------------------------------------------------------------------------
# the equivalence matrix: models x mask families x padding x dtypes
# ---------------------------------------------------------------------------

class TestEquivalenceMatrix:
    @pytest.mark.parametrize("kind", ["lm", "distilbert", "regression"])
    @pytest.mark.parametrize("masks", ["none", "pattern", "block"])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_float64_bit_identical(self, kind, masks, ragged):
        model = make_model(kind)
        install_masks(model, masks)
        plan = compile_inference(model)
        toks, mask = tokens_for(model, 4, ragged)
        ref = eager(model, toks, mask)
        got = plan(toks, attn_mask=mask)
        assert got.dtype == np.float64
        assert np.array_equal(ref, got)  # exact ==, not allclose

    @pytest.mark.parametrize("kind", ["lm", "distilbert", "regression"])
    @pytest.mark.parametrize("padded", [False, True])
    def test_every_bound_shape_bit_identical(self, kind, padded):
        """Each (batch, length[, mask]) shape binds its own step list;
        every one of them must replay the eager forward exactly."""
        model = make_model(kind)
        install_masks(model, "pattern")
        plan = compile_inference(model)
        rng = np.random.default_rng(1)
        for batch in (1, 3, 8):
            for length in range(2, model.cfg.max_len + 1):
                toks = rng.integers(1, model.cfg.vocab_size,
                                    size=(batch, length))
                mask = padding_mask(batch, length) if padded else None
                assert np.array_equal(plan(toks, attn_mask=mask),
                                      eager(model, toks, mask))
        assert plan.binds == 3 * (model.cfg.max_len - 1)

    @pytest.mark.parametrize("kind", ["lm", "distilbert"])
    def test_float32_within_documented_tolerance(self, kind):
        model = make_model(kind)
        install_masks(model, "pattern")
        plan32 = compile_inference(model, dtype="float32")
        toks, mask = tokens_for(model, 4, True)
        ref = eager(model, toks, mask)
        got = plan32(toks, attn_mask=mask)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-3)
        assert not np.array_equal(ref, got.astype(np.float64))

    def test_batch_of_one_and_full_batch_agree(self):
        model = make_model("lm")
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 8, False)
        full = plan(toks)
        for i in range(8):
            solo = plan(toks[i:i + 1])
            np.testing.assert_array_equal(full[i], solo[0])

    def test_run_padded_fast_path_matches_eager(self):
        model = make_model("lm")
        plan = compile_inference(model)
        rng = np.random.default_rng(7)
        reqs = [InferenceRequest(i, rng.integers(1, 60, size=n))
                for i, n in enumerate((12, 9, 6, 12))]
        eager_outs = run_padded(model, reqs)
        fast_outs = run_padded(model, reqs, forward=plan)
        for a, b in zip(eager_outs, fast_outs):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# recompilation: keyed on cache_token / Parameter.version, O(1) checks
# ---------------------------------------------------------------------------

class TestRecompile:
    def test_mask_install_triggers_exactly_one_recompile(self):
        model = make_model("lm")
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 4, False)
        plan(toks)
        assert plan.compiles == 1
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        manager = MaskManager(model)
        manager.apply(pset)
        got = plan(toks)
        assert plan.compiles == 2  # masks changed -> one recompile
        assert np.array_equal(eager(model, toks, None), got)
        plan(toks)
        assert plan.compiles == 2  # stable weights -> no recompile

    def test_identical_reinstall_keeps_plan(self):
        model = make_model("lm")
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        manager = MaskManager(model)
        manager.apply(pset)
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 4, False)
        plan(toks)
        # re-installing the identical mask keeps cache_token stable
        # (content compare in set_mask), so the plan must not recompile
        manager.apply(pset)
        plan(toks)
        assert plan.compiles == 1

    def test_weight_update_triggers_recompile(self):
        model = make_model("lm")
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 2, False)
        stale = plan(toks)
        opt = SGD(model.parameters(), lr=1e-2)
        loss = model.loss(Tensor(toks), Tensor(toks))
        loss.backward()
        opt.step()
        fresh = plan(toks)
        assert plan.compiles == 2
        assert np.array_equal(eager(model, toks, None), fresh)
        assert not np.array_equal(stale, fresh)

    def test_bias_only_update_triggers_recompile(self):
        model = make_model("lm")
        plan = compile_inference(model)
        plan32 = compile_inference(model, dtype="float32")
        toks, _ = tokens_for(model, 2, False)
        stale32 = plan32(toks)
        plan(toks)
        # the sanctioned in-place mutation protocol: edit data, bump
        layer = model.lm_head
        layer.bias.data[...] = layer.bias.data + 1.0
        layer.bias.bump_version()
        fresh = plan(toks)
        assert plan.compiles == 2
        assert np.array_equal(eager(model, toks, None), fresh)
        fresh32 = plan32(toks)
        assert plan32.compiles == 2  # float32 snapshots must not go stale
        assert not np.array_equal(stale32, fresh32)

    def test_recompile_rechecks_eval_mode(self):
        model = TransformerLM(TransformerConfig(
            vocab_size=60, dim=32, num_heads=2, ffn_dim=64, max_len=16,
            dropout=0.1, seed=0)).eval()
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 2, False)
        plan(toks)
        model.train()
        model.embed.weight.bump_version()  # force a signature change
        with pytest.raises(ValueError, match="eval"):
            plan(toks)

    def test_signature_is_cheap_ints(self):
        model = make_model("lm")
        plan = compile_inference(model)
        sig = plan.signature()
        assert all(isinstance(v, int) for group in sig for tup in group
                   for v in (tup if isinstance(tup, tuple) else (tup,)))


# ---------------------------------------------------------------------------
# rung switches: combined masks and compiled programs are looked up
# ---------------------------------------------------------------------------

def rung_sets(count=2):
    return [random_pattern_set(8, s, 3, np.random.default_rng(i))
            for i, s in enumerate((0.3, 0.5, 0.7, 0.9)[:count])]


def cached_manager(model):
    return MaskManager(model, cache=ArtifactCache())


class TestRungSwitchLookup:
    def test_return_to_rung_is_lookup(self):
        model = make_model("lm")
        manager = cached_manager(model)
        a, b = rung_sets()
        toks, mask = tokens_for(model, 4, True)
        manager.apply(a)
        plan = compile_inference(model)
        outs = []
        for pset in (a, b, a, b, a):
            manager.apply(pset)
            got = plan(toks, attn_mask=mask)
            assert np.array_equal(eager(model, toks, mask), got)
            outs.append(got)
        assert plan.compiles == 2  # one per rung, switches are lookups
        assert np.array_equal(outs[0], outs[2])
        assert not np.array_equal(outs[0], outs[1])

    def test_return_to_rung_restores_cache_tokens(self):
        model = make_model("lm")
        manager = cached_manager(model)
        a, b = rung_sets()
        layers = list(manager.layers.values())
        manager.apply(a)
        tokens_a = [lin.cache_token for lin in layers]
        masks_a = [lin.mask for lin in layers]
        assert all(not m.flags.writeable for m in masks_a)
        manager.apply(b)
        tokens_b = [lin.cache_token for lin in layers]
        assert all(x != y for x, y in zip(tokens_a, tokens_b))
        manager.apply(a)
        assert [lin.cache_token for lin in layers] == tokens_a
        assert all(lin.mask is m for lin, m in zip(layers, masks_a))
        # a caller-built writable mask is never matched against remembered
        # ones: equal content to A still counts as a new mask
        manager.apply(b)
        layers[0].set_mask(np.array(masks_a[0]))
        assert layers[0].cache_token not in (tokens_a[0], tokens_b[0])
        # ...while re-installing equal content over it keeps its token
        token = layers[0].cache_token
        layers[0].set_mask(np.array(masks_a[0]))
        assert layers[0].cache_token == token

    def test_read_only_view_of_writable_data_is_not_remembered(self):
        layer = Linear(16, 16, seed=0)
        base = np.ones((16, 16))
        view = base.view()
        view.flags.writeable = False
        layer.set_mask(view)
        token = layer.cache_token
        layer.set_mask(None)
        base[0] = 0.0  # the view's content changes under the same id
        layer.set_mask(view)
        assert layer.cache_token != token

    def test_remembered_masks_are_bounded(self):
        layer = Linear(16, 16, seed=0)
        masks = []
        for i in range(_KNOWN_MASKS_CAP + 3):
            mask = np.ones((16, 16))
            mask[i] = 0.0
            mask.flags.writeable = False
            masks.append(mask)
            layer.set_mask(mask)
        assert len(layer._known_masks) == _KNOWN_MASKS_CAP
        tokens = set()
        for mask in masks:  # evicted masks come back as new versions
            layer.set_mask(mask)
            tokens.add(layer.cache_token)
        assert len(tokens) == len(masks)

    def test_invalidate_cache_drops_combined_memo(self):
        model = make_model("lm")
        manager = cached_manager(model)
        a, _ = rung_sets()
        manager.apply(a)
        first = [lin.mask for lin in manager.layers.values()]
        assert manager._combined
        manager.invalidate_cache()
        assert not manager._combined
        manager.apply(a)
        again = [lin.mask for lin in manager.layers.values()]
        assert all(x is not y and np.array_equal(x, y)
                   for x, y in zip(first, again))

    def test_apply_keeps_cache_counters(self):
        """The memo sits behind the artifact cache: one lookup per layer
        per apply, so hits, misses and bytes match an unmemoized run."""
        model = make_model("lm")
        manager = cached_manager(model)
        a, b = rung_sets()
        for pset in (a, b, a, a, b):
            manager.apply(pset)
        stats = manager.cache.stats
        layers = len(manager.layers)
        assert stats.misses == 2 * layers
        assert stats.hits == 3 * layers

    def test_weight_update_after_cached_rungs_recompiles(self):
        model = make_model("lm")
        manager = cached_manager(model)
        a, b = rung_sets()
        toks, _ = tokens_for(model, 2, False)
        manager.apply(a)
        plan = compile_inference(model)
        manager.apply(b)
        plan(toks)
        manager.apply(a)
        stale = plan(toks)
        assert plan.compiles == 2
        layer = model.lm_head
        layer.weight.data[...] = layer.weight.data * 1.5
        layer.weight.bump_version()
        fresh = plan(toks)
        assert plan.compiles == 3
        assert np.array_equal(eager(model, toks, None), fresh)
        assert not np.array_equal(stale, fresh)
        # programs snapshotting superseded weights can never be reused
        assert len(plan._programs) == 1

    def test_program_cache_is_bounded(self):
        model = make_model("lm")
        manager = cached_manager(model)
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 2, False)
        for i in range(_PROGRAM_CACHE_CAP + 2):
            manager.apply(random_pattern_set(
                8, 0.5, 3, np.random.default_rng(100 + i)))
            assert np.array_equal(eager(model, toks, None), plan(toks))
        assert len(plan._programs) == _PROGRAM_CACHE_CAP

    def test_eval_guard_runs_on_lookup(self):
        model = TransformerLM(TransformerConfig(
            vocab_size=60, dim=32, num_heads=2, ffn_dim=64, max_len=16,
            dropout=0.1, seed=0)).eval()
        manager = cached_manager(model)
        a, b = rung_sets()
        toks, _ = tokens_for(model, 2, False)
        manager.apply(a)
        plan = compile_inference(model)
        plan(toks)
        manager.apply(b)
        plan(toks)
        compiles = plan.compiles
        model.train()
        manager.apply(a)  # a cached rung: no compile, still checked
        with pytest.raises(ValueError, match="eval"):
            plan(toks)
        assert plan.compiles == compiles


# ---------------------------------------------------------------------------
# shape binding: lookups, staleness, aliasing, the bound-shape cap
# ---------------------------------------------------------------------------

def padding_mask(batch, length):
    """Key-padding mask: row i blocks its last i positions (row 0 none)."""
    mask = np.zeros((batch, 1, 1, length), dtype=bool)
    for i in range(batch):
        mask[i, 0, 0, max(1, length - i):] = True
    return mask


def bound_buffers(*planes):
    """The slot memory every binding of ``planes`` runs over."""
    return [flat for plane in planes for flat in plane.pool._shared.values()]


class TestShapeBinding:
    def test_bind_once_per_shape(self):
        model = make_model("lm")
        plan = compile_inference(model)
        toks, mask = tokens_for(model, 4, True)
        for _ in range(3):
            plan(toks, attn_mask=mask)
            plan(toks)
        assert plan.binds == 2  # padded and unpadded are distinct shapes
        plan(toks[:2], attn_mask=mask[:2])
        assert plan.binds == 3

    def test_revisit_after_rung_round_trip_and_weight_update(self):
        model = make_model("lm")
        manager = cached_manager(model)
        a, b = rung_sets()
        shapes = [tokens_for(model, 4, True), tokens_for(model, 3, False, 1)]
        manager.apply(a)
        plan = compile_inference(model)
        for pset in (a, b, a):
            manager.apply(pset)
            for toks, mask in shapes:
                assert np.array_equal(plan(toks, attn_mask=mask),
                                      eager(model, toks, mask))
        # each program binds its own steps over the shared slots
        assert plan.binds == 4
        assert [len(p.bound) for p in plan._programs.values()] == [2, 2]
        toks, mask = shapes[0]
        stale = plan(toks, attn_mask=mask)
        layer = model.encoder[0].ffn.fc1
        layer.weight.data[...] = layer.weight.data * 1.5
        layer.weight.bump_version()
        fresh = plan(toks, attn_mask=mask)
        assert np.array_equal(fresh, eager(model, toks, mask))
        assert not np.array_equal(stale, fresh)

    @pytest.mark.parametrize("kind", ["lm", "distilbert", "regression"])
    def test_outputs_never_alias_bound_buffers(self, kind):
        model = make_model(kind)
        plan = compile_inference(model)
        toks, mask = tokens_for(model, 4, True)
        first = plan(toks, attn_mask=mask)
        ref = first.copy()
        second = plan(toks, attn_mask=mask)
        assert not np.shares_memory(first, second)
        for out in (first, second):
            assert not any(np.shares_memory(out, buf)
                           for buf in bound_buffers(plan))
        first[...] = 0.0
        second[...] = 0.0
        assert np.array_equal(plan(toks, attn_mask=mask), ref)

    def test_bound_shapes_capped(self):
        model = make_model("lm")
        plan = compile_inference(model)
        rng = np.random.default_rng(2)
        shapes = [(batch, length) for batch in range(1, 6)
                  for length in range(2, model.cfg.max_len + 1)]
        assert len(shapes) > _BIND_CACHE_CAP
        for shape in shapes:
            toks = rng.integers(1, 60, size=shape)
            assert np.array_equal(plan(toks), eager(model, toks, None))
            assert len(plan._program.bound) <= _BIND_CACHE_CAP
        # the first shapes were dropped: rebinding them draws on slots
        # already grown, so it allocates nothing
        misses = plan.pool.misses
        for shape in shapes[:3]:
            toks = rng.integers(1, 60, size=shape)
            assert np.array_equal(plan(toks), eager(model, toks, None))
        assert plan.binds == len(shapes) + 3
        assert plan.pool.misses == misses

    def test_interleaved_bindings_share_slots_across_growth(self):
        """Plain padded, unpadded and by-length bindings of one plan run
        over the same slot memory.  Interleaved across a slot growth (a
        small shape, a larger one, the small one again) every output
        stays == its eager forward or solo row with no floating-point
        error raised, and binding a second, smaller shape allocates
        nothing."""
        model = make_model("lm")
        plan = compile_inference(model)
        tops = plan.length_classes()
        rng = np.random.default_rng(4)

        def lengths_for(batch, length):
            # the last row one shorter when that length shares the
            # class, so the call has two runs and stays == solo
            short = length - 1 if tops[length - 1] == tops[length] else length
            return [length] * (batch - 1) + [short]

        def check(batch, length):
            toks = rng.integers(1, 60, size=(batch, length))
            mask = padding_mask(batch, length)
            assert np.array_equal(plan(toks, attn_mask=mask),
                                  eager(model, toks, mask))
            assert np.array_equal(plan(toks), eager(model, toks, None))
            lengths = lengths_for(batch, length)
            out = plan(toks, lengths=lengths)
            for row, n in enumerate(lengths):
                solo = eager(model, toks[row:row + 1, :n], None)[0]
                assert np.array_equal(out[row, :n], solo)

        with np.errstate(over="raise", invalid="raise", divide="raise"):
            check(2, 6)
            small = plan.pool.misses
            check(4, 12)  # larger: the slots grow
            assert plan.pool.misses > small
            check(2, 6)  # the small bindings keep their old memory
            grown = plan.pool.misses
            check(3, 9)  # a new, smaller shape fits the grown slots
        assert plan.pool.misses == grown
        assert plan.binds == 9


# ---------------------------------------------------------------------------
# scratch pool + mask memoization
# ---------------------------------------------------------------------------

class TestScratchAndMasks:
    def test_zero_steady_state_allocations(self):
        model = make_model("lm")
        plan = compile_inference(model)
        toks, mask = tokens_for(model, 4, True)
        plan(toks, attn_mask=mask)
        misses = plan.pool.misses
        for _ in range(3):
            plan(toks, attn_mask=mask)
        assert plan.pool.misses == misses

    def test_causal_mask_memoized_per_length(self):
        model = make_model("lm")
        plan = compile_inference(model)
        for _ in range(3):
            plan(np.ones((2, 8), dtype=np.int64))
            plan(np.ones((2, 12), dtype=np.int64))
        keys = [k for k in plan._mask_cache if k[0] == "causal"]
        assert sorted(k[1] for k in keys) == [8, 12]

    def test_mask_cache_bounded(self):
        model = make_model("lm")
        plan = compile_inference(model)
        rng = np.random.default_rng(0)
        for i in range(80):
            seqs = [rng.integers(1, 60, size=12),
                    rng.integers(1, 60, size=4 + (i % 8))]
            toks, mask, _ = pad_batch(seqs)
            plan(toks, attn_mask=mask)
        from repro.nn.inference import _MASK_CACHE_CAP
        assert len(plan._mask_cache) <= _MASK_CACHE_CAP


# ---------------------------------------------------------------------------
# validation / fallback
# ---------------------------------------------------------------------------

class TestValidation:
    def test_unknown_architecture_raises(self):
        with pytest.raises(UnsupportedModel):
            compile_inference(Linear(8, 8))

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            compile_inference(make_model("lm"), dtype="float16")

    def test_training_dropout_rejected(self):
        model = TransformerLM(TransformerConfig(
            vocab_size=60, dim=32, num_heads=2, ffn_dim=64, max_len=16,
            dropout=0.1, seed=0))  # train mode, p > 0
        with pytest.raises(ValueError, match="eval"):
            compile_inference(model)
        assert isinstance(compile_inference(model.eval()), CompiledForward)

    def test_one_dim_tokens_rejected(self):
        plan = compile_inference(make_model("lm"))
        with pytest.raises(ValueError, match="batch, length"):
            plan(np.ones(8, dtype=np.int64))

    def test_engine_rejects_unsupported_model(self):
        _, workload, engine = build_serving_stack(StackConfig(seed=0))
        core = engine.streaming()
        core.model = Linear(8, 8)  # not a compilable architecture
        trace = build_scenario("steady", workload,
                               ScenarioConfig(num_requests=2, seed=0))
        with pytest.raises(UnsupportedModel,
                           match="compile_inference supports TransformerLM "
                                 "and DistilBert\\* models, not Linear"):
            core.play(trace)


# ---------------------------------------------------------------------------
# serving integration: fast path default, bit-identical, zero grad graph
# ---------------------------------------------------------------------------

def serve_report(seed=0, requests=24):
    _, workload, engine = build_serving_stack(StackConfig(seed=seed))
    trace = build_scenario("bursty", workload,
                          ScenarioConfig(num_requests=requests, seed=seed))
    core = engine.streaming()
    core.play(trace)
    return core.report(), core


def serve_eagerly(monkeypatch):
    """Route this test's engines through the eager Tensor forward, the
    reference the compiled plan must match."""
    monkeypatch.setattr(StreamingEngine, "_forward", lambda self: None)


SWITCHING_CFG = StackConfig(devices=2, policy="least-loaded")


def serve_logging_compiles(requests=48):
    """Serve the rung-alternating bursty trace on two least-loaded
    shards; log ``(set digest, plan compiles so far)`` at every install."""
    _, workload, engine = build_serving_stack(SWITCHING_CFG)
    core = engine.streaming()
    manager = core.adapter.manager
    apply, log = manager.apply, []

    def logged(pset):
        log.append((pset.digest(), core._plan.compiles if core._plan else 0))
        apply(pset)

    manager.apply = logged
    trace = build_scenario("bursty", workload,
                           ScenarioConfig(num_requests=requests, seed=0))
    core.play(trace)
    return core, core.report(), log


class TestServePathCompiles:
    def test_one_compile_per_rung(self):
        core, report, log = serve_logging_compiles()
        compiles = core._plan.compiles
        first_seen = {}
        for i, (digest, _) in enumerate(log):
            first_seen.setdefault(digest, i)
        assert len(first_seen) >= 2 and report.num_switches > 0
        assert compiles <= len(core.ladder) + 1
        assert compiles == len(first_seen)
        # once every rung has been seen, no batch compiles again
        last_new = max(first_seen.values())
        assert last_new + 1 < len(log)
        assert log[last_new + 1][1] == compiles
        # and the looked-up programs serve the same bits as eager forwards
        check_exact(core)
        assert core._plan.compiles == compiles


class TestServingIntegration:
    def test_fast_and_eager_serving_bit_identical(self, monkeypatch):
        fast, fast_run = serve_report()
        serve_eagerly(monkeypatch)
        eager_r, eager_run = serve_report()
        # check_exact measures batched-vs-solo padding exactness (within
        # the serving tolerance); bit-identical forwards mean the two
        # engines must measure the *same* value
        assert check_exact(fast_run) == check_exact(eager_run)
        outs_f = {r.request.req_id: r.output for r in fast.results}
        outs_e = {r.request.req_id: r.output for r in eager_r.results}
        assert outs_f.keys() == outs_e.keys()
        for rid, out in outs_f.items():
            assert np.array_equal(out, outs_e[rid])
        assert fast.sim_throughput_rps == eager_r.sim_throughput_rps
        assert fast.p95_latency_s == eager_r.p95_latency_s
        assert fast.num_switches == eager_r.num_switches

    def test_fast_serve_builds_no_tensors_at_all(self):
        _, workload, engine = build_serving_stack(StackConfig(seed=1))
        trace = build_scenario("steady", workload,
                               ScenarioConfig(num_requests=16, seed=1))
        created = []
        orig = Tensor.__init__

        def spy(self, *args, **kwargs):
            created.append(self)
            orig(self, *args, **kwargs)

        Tensor.__init__ = spy
        try:
            report = engine.serve(trace)
        finally:
            Tensor.__init__ = orig
        assert report.num_requests == 16
        # the serve path never touches the Tensor engine: zero graph
        # nodes, hence trivially zero recorded parents
        assert created == []

    def test_eager_serve_never_records_grad_graph(self, monkeypatch):
        serve_eagerly(monkeypatch)
        _, workload, engine = build_serving_stack(StackConfig(seed=1))
        trace = build_scenario("steady", workload,
                               ScenarioConfig(num_requests=16, seed=1))
        created = []
        orig = Tensor.__init__

        def spy(self, *args, **kwargs):
            created.append(self)
            orig(self, *args, **kwargs)

        Tensor.__init__ = spy
        try:
            report = engine.serve(trace)
        finally:
            Tensor.__init__ = orig
        assert report.num_requests == 16
        assert len(created) > 0  # the eager path does build wrappers...
        # ...but run_padded's no_grad guard means none requires grad and
        # none records parents (the regression this test pins)
        assert not any(t.requires_grad for t in created)
        assert not any(t._parents for t in created)

    def test_streaming_session_shares_fast_plan(self):
        _, workload, engine = build_serving_stack(StackConfig(seed=2))
        core = engine.streaming()
        plan = core._forward()
        assert isinstance(plan, CompiledForward)
        assert core._forward() is plan  # built once, reused
