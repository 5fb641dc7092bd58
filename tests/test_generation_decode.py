"""Compiled decode + DecodeSession API: exactness, edge cases.

A decode step is the last output row of the compiled full-sequence plan
over each stream's context.  The contract under test is bit-identity:
every token and logprob a compiled, continuously-batched decode stream
produces must equal (``==``, not allclose) what the historical eager
``generate()`` loop produces for the same prompt and sampling config,
regardless of which streams join or leave the rolling batch around it.
"""

import numpy as np
import pytest

from repro.core.patterns import MaskManager, random_pattern_set
from repro.nn.generation import (
    DecodeSession,
    GenerationConfig,
    sample_token,
)
from repro.nn.inference import CompiledForward, ScratchPool, compile_decode
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve.cache import ArtifactCache
from repro.tensor.tensor import Tensor, no_grad

# the paper shape (2 encoder / 1 decoder layers)
LM_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                           num_encoder_layers=2, num_decoder_layers=1,
                           max_len=16, dropout=0.0, seed=3)
# two decoder layers
DEEP_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                             num_encoder_layers=1, num_decoder_layers=2,
                             max_len=16, dropout=0.0, seed=4)
# 64 wide: its transposed-view GEMMs change BLAS kernel regime mid-range
# (under OpenBLAS the length-class probe splits max_len 24 into 1, 2-9,
# 10, 11-18 and 19-24)
WIDE_CFG = TransformerConfig(vocab_size=120, dim=64, num_heads=4,
                             ffn_dim=128, num_encoder_layers=2,
                             num_decoder_layers=1, max_len=24,
                             dropout=0.0, seed=9)


def make_model(kind="lm"):
    return TransformerLM(LM_CFG if kind == "lm" else DEEP_CFG).eval()


def install_pattern(model, seed=0, sparsity=0.5):
    pset = random_pattern_set(8, sparsity, 3, np.random.default_rng(seed))
    MaskManager(model).apply(pset)
    return pset


def eager_generate(model, prompt, cfg):
    """The pre-decode-plane ``generate()`` loop, replicated verbatim:
    the reference every compiled stream must match bit-for-bit."""
    model.eval()
    tokens = np.asarray(prompt, dtype=np.int64).reshape(-1).copy()
    rng = np.random.default_rng(cfg.seed)
    logprobs = []
    max_len = model.cfg.max_len
    for _ in range(cfg.max_new_tokens):
        context = tokens[-max_len:]
        with no_grad():
            logits = model(Tensor(context[None, :])).data[0, -1]
        nxt, logprob = sample_token(logits, cfg, rng)
        tokens = np.append(tokens, nxt)
        logprobs.append(logprob)
        if cfg.eos_id is not None and nxt == cfg.eos_id:
            break
    return tokens, logprobs


def run_session(model, prompt, cfg, **kw):
    session = DecodeSession(model, cfg, **kw)
    sid = session.submit_prompt(prompt)
    session.run()
    return session.result(sid)


def assert_matches_eager(model, session, sids, prompts, cfgs):
    for sid, prompt, cfg in zip(sids, prompts, cfgs):
        ref_tokens, ref_logprobs = eager_generate(model, prompt, cfg)
        got = session.result(sid)
        assert np.array_equal(got.tokens, ref_tokens)  # exact ==
        assert got.logprobs == ref_logprobs


class CountingPlan:
    """Wraps a plan to record the ``(batch, max_len)`` shape and the
    lengths of every call a session makes."""

    def __init__(self, plan):
        self.plan = plan
        self.calls = []

    def __call__(self, tokens, **kw):
        self.calls.append((tokens.shape, kw.get("lengths")))
        return self.plan(tokens, **kw)

    def __getattr__(self, name):
        return getattr(self.plan, name)


# ---------------------------------------------------------------------------
# the equivalence matrix: models x masks x sampling x prompt lengths
# ---------------------------------------------------------------------------

class TestDecodeExactness:
    @pytest.mark.parametrize("kind", ["lm", "deep"])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("cfg", [
        GenerationConfig(max_new_tokens=10),
        GenerationConfig(max_new_tokens=10, top_k=7, seed=11),
    ], ids=["greedy", "topk"])
    @pytest.mark.parametrize("plen", [1, 2, 5, 15, 16, 19])
    def test_bit_identical_to_eager(self, kind, masked, cfg, plen):
        model = make_model(kind)
        if masked:
            install_pattern(model)
        prompt = np.random.default_rng(plen).integers(0, 60, size=plen)
        ref_tokens, ref_logprobs = eager_generate(model, prompt, cfg)
        got = run_session(model, prompt, cfg)
        assert np.array_equal(got.tokens, ref_tokens)  # exact ==
        assert got.logprobs == ref_logprobs

    def test_step_output_never_aliases_bound_buffers(self):
        """The plan a step reads its last row from returns fresh arrays:
        a caller scribbling on one never perturbs the next step."""
        model = make_model("lm")
        plan = compile_decode(model)
        tokens = np.random.default_rng(0).integers(0, 60, size=(1, 6))
        first = plan(tokens)
        ref = first.copy()
        slots = list(plan.pool._shared.values())
        assert not any(np.shares_memory(first, flat) for flat in slots)
        first[...] = 0.0
        assert np.array_equal(plan(tokens), ref)

    def test_deep_model_shares_one_plan(self):
        """A session handed a plan decodes through it — no second
        compile — and a deep decoder stays exact on a ragged batch."""
        model = make_model("deep")
        plan = compile_decode(model)
        assert isinstance(plan, CompiledForward)
        session = DecodeSession(model, plan=plan)
        assert session.plan is plan
        rng = np.random.default_rng(1)
        prompts = [rng.integers(0, 60, size=n) for n in (3, 5, 5)]
        cfg = GenerationConfig(max_new_tokens=6)
        sids = [session.submit_prompt(p, cfg) for p in prompts]
        session.run()
        assert plan.compiles == 1
        for sid, prompt in zip(sids, prompts):
            ref_tokens, ref_logprobs = eager_generate(model, prompt, cfg)
            assert np.array_equal(session.result(sid).tokens, ref_tokens)
            assert session.result(sid).logprobs == ref_logprobs

    def test_non_lm_model_rejected(self):
        from repro.nn.distilbert import DistilBertConfig, DistilBertModel
        from repro.nn.inference import UnsupportedModel

        model = DistilBertModel(DistilBertConfig(
            vocab_size=60, dim=32, num_heads=2, ffn_dim=64, num_layers=1,
            max_len=16, dropout=0.0, seed=0)).eval()
        with pytest.raises(UnsupportedModel, match="TransformerLM"):
            compile_decode(model)

    def test_length_validation(self):
        plan = compile_decode(make_model("lm"))
        toks = np.zeros((1, LM_CFG.max_len + 1), dtype=np.int64)
        with pytest.raises(ValueError, match="exceeds max_len"):
            plan(toks)


# ---------------------------------------------------------------------------
# continuous batching: ragged joins and leaves never perturb a stream
# ---------------------------------------------------------------------------

class TestContinuousBatching:
    def test_ragged_join_leave_schedule(self):
        model = make_model("lm")
        rng = np.random.default_rng(5)
        cfgs = [GenerationConfig(max_new_tokens=3 + i % 4,
                                 top_k=None if i % 2 else 5, seed=i)
                for i in range(6)]
        prompts = [rng.integers(0, 60, size=2 + i) for i in range(6)]
        session = DecodeSession(model)
        sids = [session.submit_prompt(prompts[0], cfgs[0])]
        pending = list(zip(prompts[1:], cfgs[1:]))
        while pending or not session.finished():
            if not session.finished():
                session.step()
            if pending:
                p, c = pending.pop(0)
                sids.append(session.submit_prompt(p, c))
        for sid, prompt, cfg in zip(sids, prompts, cfgs):
            ref_tokens, ref_logprobs = eager_generate(model, prompt, cfg)
            got = session.result(sid)
            assert np.array_equal(got.tokens, ref_tokens)
            assert got.logprobs == ref_logprobs

    def test_same_tick_join_and_leave(self):
        """A stream exhausting its budget on the same boundary another
        joins: neither perturbs the other."""
        model = make_model("lm")
        rng = np.random.default_rng(9)
        p_short = rng.integers(0, 60, size=4)
        p_long = rng.integers(0, 60, size=4)
        p_late = rng.integers(0, 60, size=6)
        session = DecodeSession(model)
        s1 = session.submit_prompt(p_short,
                                   GenerationConfig(max_new_tokens=1))
        s2 = session.submit_prompt(p_long,
                                   GenerationConfig(max_new_tokens=5))
        session.step()  # s1 leaves at this boundary...
        assert session.finished(s1)
        s3 = session.submit_prompt(p_late,
                                   GenerationConfig(max_new_tokens=4))
        session.run()
        for sid, prompt, n in ((s1, p_short, 1), (s2, p_long, 5),
                               (s3, p_late, 4)):
            ref_tokens, ref_logprobs = eager_generate(
                model, prompt, GenerationConfig(max_new_tokens=n))
            got = session.result(sid)
            assert np.array_equal(got.tokens, ref_tokens)
            assert got.logprobs == ref_logprobs

    def test_eos_early_exit_mid_batch(self):
        """One stream hitting eos mid-decode leaves the batch; survivors
        stay bit-identical to their solo runs."""
        model = make_model("lm")
        rng = np.random.default_rng(3)
        prompts = [rng.integers(0, 60, size=5) for _ in range(3)]
        base = GenerationConfig(max_new_tokens=8)
        # pick an eos that actually fires mid-run for stream 0
        probe, _ = eager_generate(model, prompts[0], base)
        eos = int(probe[len(prompts[0]) + 2])  # third generated token
        cfgs = [GenerationConfig(max_new_tokens=8, eos_id=eos), base, base]
        session = DecodeSession(model)
        sids = [session.submit_prompt(p, c)
                for p, c in zip(prompts, cfgs)]
        session.run()
        early = session.result(sids[0])
        assert int(early.generated[-1]) == eos
        assert len(early.generated) < 8  # actually exited early
        for sid, prompt, cfg in zip(sids, prompts, cfgs):
            ref_tokens, ref_logprobs = eager_generate(model, prompt, cfg)
            got = session.result(sid)
            assert np.array_equal(got.tokens, ref_tokens)
            assert got.logprobs == ref_logprobs


# ---------------------------------------------------------------------------
# one plan call per regime class: rows padded to the class's longest live
# length, attention per true length
# ---------------------------------------------------------------------------

class TestBatchingByLength:
    def test_ragged_decode_across_regime_change(self):
        """Live lengths on both sides of the wide shape's M == 10 regime
        change at the same boundary: every stream stays bit-identical."""
        model = TransformerLM(WIDE_CFG).eval()
        rng = np.random.default_rng(4)
        lens = (2, 6, 8, 9, 10, 11, 13, 20)
        prompts = [rng.integers(0, 120, size=n) for n in lens]
        cfgs = [GenerationConfig(max_new_tokens=6 + i % 3,
                                 top_k=None if i % 2 else 9, seed=i)
                for i in range(len(lens))]
        session = DecodeSession(model)
        sids = [session.submit_prompt(p, c) for p, c in zip(prompts, cfgs)]
        session.run()
        assert_matches_eager(model, session, sids, prompts, cfgs)

    def test_length_one_prompt_beside_longer_streams(self):
        """Length 1 is its own class (a GEMV row is never ``==`` a GEMM
        row): a one-token prompt decodes exactly next to longer ones."""
        model = make_model("lm")
        rng = np.random.default_rng(6)
        prompts = [rng.integers(0, 60, size=n) for n in (1, 1, 4, 7)]
        cfgs = [GenerationConfig(max_new_tokens=5, seed=i, top_k=4)
                for i in range(len(prompts))]
        session = DecodeSession(model)
        assert session.plan.length_classes()[1] == 1
        sids = [session.submit_prompt(p, c) for p, c in zip(prompts, cfgs)]
        session.run()
        assert_matches_eager(model, session, sids, prompts, cfgs)

    @pytest.mark.parametrize("kind", ["lm", "wide"])
    def test_padded_rows_stay_finite(self, kind):
        """A ragged join/leave schedule under raising floating-point
        error states: padded rows never produce inf or NaN."""
        model = (make_model("lm") if kind == "lm"
                 else TransformerLM(WIDE_CFG).eval())
        vocab = model.cfg.vocab_size
        rng = np.random.default_rng(8)
        prompts = [rng.integers(0, vocab, size=n) for n in (3, 9, 1, 12, 5)]
        cfgs = [GenerationConfig(max_new_tokens=4 + i) for i in range(5)]
        session = DecodeSession(model)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sids = []
            for prompt, cfg in zip(prompts, cfgs):
                sids.append(session.submit_prompt(prompt, cfg))
                session.step()
            session.run()
        assert_matches_eager(model, session, sids, prompts, cfgs)

    def test_long_ragged_schedule_stays_finite(self):
        """One or two streams join at each of 400 token boundaries under
        raising floating-point error states: every padded row the plan
        computes stays finite, and the streams stay == their eager runs
        (every eighth is checked, to keep the eager oracle cheap)."""
        model = make_model("lm")
        rng = np.random.default_rng(5)
        cfg = GenerationConfig(max_new_tokens=8)
        session = DecodeSession(model, cfg)
        sids, prompts = [], []
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(400):
                for _ in range(rng.integers(1, 3)):
                    prompts.append(rng.integers(0, 60,
                                                size=rng.integers(4, 7)))
                    sids.append(session.submit_prompt(prompts[-1]))
                session.step()
            session.run()
        assert_matches_eager(model, session, sids[::8], prompts[::8],
                             [cfg] * len(sids[::8]))

    def test_ragged_decode_on_head_dim_32(self):
        """Two heads of 32: attention padded to a longer row sums its
        rows in another order than a solo row for some lengths, which
        the length classes must split.  A ragged schedule across the
        whole length range stays == eager."""
        model = TransformerLM(TransformerConfig(
            vocab_size=60, dim=64, num_heads=2, ffn_dim=128,
            num_encoder_layers=2, num_decoder_layers=1, max_len=24,
            dropout=0.0, seed=5)).eval()
        rng = np.random.default_rng(11)
        prompts = [rng.integers(0, 60, size=n) for n in range(2, 21)]
        cfgs = [GenerationConfig(max_new_tokens=4 + i % 3) for i in
                range(len(prompts))]
        session = DecodeSession(model)
        sids = [session.submit_prompt(p, c) for p, c in zip(prompts, cfgs)]
        session.run()
        assert_matches_eager(model, session, sids, prompts, cfgs)

    def test_one_plan_call_per_boundary(self):
        """A boundary whose live lengths share one regime class makes
        exactly one plan call over the right-padded contexts."""
        model = make_model("lm")
        rng = np.random.default_rng(2)
        lens = (3, 5, 5, 8, 11)
        prompts = [rng.integers(0, 60, size=n) for n in lens]
        session = DecodeSession(model)
        counting = session.plan = CountingPlan(session.plan)
        tops = counting.length_classes()
        assert len({tops[n] for n in lens}) == 1  # one class on this shape
        sids = [session.submit_prompt(p) for p in prompts]
        session.step()
        assert counting.calls == [((5, 11), [3, 5, 5, 8, 11])]
        session.run()
        assert_matches_eager(model, session, sids, prompts,
                             [session.config] * len(prompts))

    def test_binds_follow_shapes_not_compositions(self):
        """Over a ragged schedule the plan binds once per ``(batch,
        max_len)`` shape visited; a new mix of lengths at a bound shape
        reuses the binding."""
        model = make_model("lm")
        rng = np.random.default_rng(7)
        session = DecodeSession(model)
        counting = session.plan = CountingPlan(compile_decode(model))
        waves = [(4, 6, 8), (7, 7, 8), (2, 5, 8), (3, 9), (6, 9), (5, 5, 7)]
        for i, wave in enumerate(waves):
            for n in wave:
                session.submit_prompt(rng.integers(0, 60, size=n),
                                      GenerationConfig(max_new_tokens=1
                                                       + i % 2))
            session.run()
        shapes = {shape for shape, _ in counting.calls}
        compositions = {(shape, tuple(lengths))
                        for shape, lengths in counting.calls}
        assert len(compositions) > len(shapes)  # the schedule mixes lengths
        assert counting.binds == len(shapes)

    def test_lengths_call_validation(self):
        plan = compile_decode(make_model("lm"))
        toks = np.zeros((2, 5), dtype=np.int64)
        with pytest.raises(ValueError, match="exclusive"):
            plan(toks, np.zeros((2, 1, 1, 5), dtype=bool), lengths=[5, 5])
        with pytest.raises(ValueError, match="2 entries for a batch of 3"):
            plan(np.zeros((3, 5), dtype=np.int64), lengths=[5, 5])
        with pytest.raises(ValueError, match="outside 1..5"):
            plan(toks, lengths=[6, 5])


# ---------------------------------------------------------------------------
# edge cases: mask-cache churn, recompiles, dtype aliasing
# ---------------------------------------------------------------------------

class TestDecodeEdgeCases:
    def test_prompt_longer_than_mask_cache_cap(self):
        """A long decode visits more distinct lengths than the memoized
        mask cache holds (cap 64): the wholesale clear mid-decode must
        not perturb a single bit."""
        cfg = TransformerConfig(vocab_size=40, dim=16, num_heads=2,
                                ffn_dim=32, num_encoder_layers=1,
                                num_decoder_layers=1, max_len=80,
                                dropout=0.0, seed=7)
        model = TransformerLM(cfg).eval()
        prompt = np.random.default_rng(1).integers(0, 40, size=3)
        gen = GenerationConfig(max_new_tokens=74)
        ref_tokens, ref_logprobs = eager_generate(model, prompt, gen)
        got = run_session(model, prompt, gen)
        assert np.array_equal(got.tokens, ref_tokens)
        assert got.logprobs == ref_logprobs

    def test_kernel_regime_cap_keeps_wide_shapes_exact(self):
        """A shape whose transposed-view GEMMs change BLAS kernel regime
        mid-range (on OpenBLAS this one flips at M == 10 of max_len 24)
        stays bit-identical across the boundary and past a sliding
        window: every step runs the same full-length GEMMs as the eager
        forward."""
        model = TransformerLM(WIDE_CFG).eval()
        plan = compile_decode(model)
        prompt = np.random.default_rng(3).integers(0, 120, size=4)
        gen = GenerationConfig(max_new_tokens=24)  # slides past max_len
        ref_tokens, ref_logprobs = eager_generate(model, prompt, gen)
        got = run_session(model, prompt, gen, plan=plan)
        assert np.array_equal(got.tokens, ref_tokens)
        assert got.logprobs == ref_logprobs

    def test_mask_install_mid_decode_moves_plan(self):
        """Installing another pattern set mid-decode moves the plan to a
        freshly compiled program; outputs still match an eager run with
        the same install schedule."""
        model = make_model("lm")
        manager = MaskManager(model)
        psets = [random_pattern_set(8, s, 3, np.random.default_rng(i))
                 for i, s in enumerate((0.3, 0.5))]
        prompt = np.random.default_rng(2).integers(0, 60, size=5)
        cfg = GenerationConfig(max_new_tokens=8)

        def scheduled(step_fn, install_at=4):
            out = []
            for i in range(cfg.max_new_tokens):
                if i == install_at:
                    manager.apply(psets[1])
                out.append(step_fn())
            return out

        manager.apply(psets[0])
        session = DecodeSession(model)
        plan = session.plan
        sid = session.submit_prompt(prompt)
        compiles0 = plan.compiles
        compiled_steps = scheduled(session.step)
        got = session.result(sid)
        assert plan.compiles == compiles0 + 1  # the real switch compiled

        manager.apply(psets[0])
        tokens = prompt.astype(np.int64).copy()
        rng = np.random.default_rng(cfg.seed)
        logprobs = []

        def eager_step():
            nonlocal tokens
            context = tokens[-model.cfg.max_len:]
            with no_grad():
                logits = model(Tensor(context[None, :])).data[0, -1]
            nxt, lp = sample_token(logits, cfg, rng)
            tokens = np.append(tokens, nxt)
            logprobs.append(lp)
            return {sid: nxt}

        eager_steps = scheduled(eager_step)
        assert compiled_steps == eager_steps
        assert np.array_equal(got.tokens, tokens)
        assert got.logprobs == logprobs

    def test_rung_round_trip_mid_decode(self):
        """A -> B -> A mid-decode through a cached manager: the switch to
        B compiles, the return to A is a program lookup rather than a
        compile, and tokens plus logprobs stay bit-identical to the eager
        loop under the same schedule."""
        model = make_model("lm")
        manager = MaskManager(model, cache=ArtifactCache())
        psets = [random_pattern_set(8, s, 3, np.random.default_rng(i))
                 for i, s in enumerate((0.3, 0.5))]
        schedule = {3: psets[1], 6: psets[0]}
        prompt = np.random.default_rng(2).integers(0, 60, size=5)
        cfg = GenerationConfig(max_new_tokens=9)

        manager.apply(psets[0])
        session = DecodeSession(model)
        sid = session.submit_prompt(prompt)
        for i in range(cfg.max_new_tokens):
            if i in schedule:
                manager.apply(schedule[i])
            session.step()
        got = session.result(sid)
        assert session.plan.compiles == 2

        manager.apply(psets[0])
        tokens = prompt.astype(np.int64).copy()
        rng = np.random.default_rng(cfg.seed)
        logprobs = []
        for i in range(cfg.max_new_tokens):
            if i in schedule:
                manager.apply(schedule[i])
            context = tokens[-model.cfg.max_len:]
            with no_grad():
                logits = model(Tensor(context[None, :])).data[0, -1]
            nxt, lp = sample_token(logits, cfg, rng)
            tokens = np.append(tokens, nxt)
            logprobs.append(lp)
        assert np.array_equal(got.tokens, tokens)
        assert got.logprobs == logprobs

    def test_identical_reinstall_keeps_binding(self):
        """Re-applying the already-installed set (as a direct caller
        may) neither recompiles nor rebinds: the next step replays the
        bound program."""
        model = make_model("lm")
        manager = MaskManager(model)
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        manager.apply(pset)
        plan = compile_decode(model)
        toks = np.random.default_rng(0).integers(0, 60, size=(1, 6))
        ref = plan(toks)
        compiles, binds = plan.compiles, plan.binds
        manager.apply(pset)  # identical re-install
        assert np.array_equal(plan(toks), ref)
        assert (plan.compiles, plan.binds) == (compiles, binds)

    def test_only_unfinished_streams_are_stepped(self):
        """A finished stream leaves the active set and stays readable;
        greedy streams hold no generator, sampled ones are seeded at
        submission."""
        session = DecodeSession(make_model("lm"))
        short = session.submit_prompt(np.arange(1, 4),
                                      GenerationConfig(max_new_tokens=1))
        long = session.submit_prompt(np.arange(1, 6), GenerationConfig(
            max_new_tokens=3, top_k=5, seed=2))
        assert session._streams[short].rng is None
        assert session._streams[long].rng is not None
        assert set(session.step()) == {short, long}
        assert session.finished(short) and not session.finished()
        assert list(session._active) == [long]
        assert list(session.step()) == [long]
        session.run()
        assert session.finished() and not session._active
        assert len(session.result(short).generated) == 1
        assert len(session.result(long).generated) == 3

    def test_scratch_pool_dtype_keying(self):
        """One slot in two dtypes gives views that never alias (a plan's
        float scratch shares the pool with its token and mask inputs)."""
        pool = ScratchPool(np.dtype(np.float32))
        a32 = pool.shared("slot", (4, 4))
        a64 = pool.shared("slot", (4, 4), np.dtype(np.float64))
        assert a32.dtype == np.float32 and a64.dtype == np.float64
        assert not np.shares_memory(a32, a64)
        a32[:] = 1.0
        a64[:] = 2.0
        assert float(a32[0, 0]) == 1.0 and float(a64[0, 0]) == 2.0
        # the same slot and dtype again is the same memory, still apart
        # from the other dtype's
        b64 = pool.shared("slot", (2, 8), np.dtype(np.float64))
        b32 = pool.shared("slot", (16,))
        assert np.shares_memory(b64, a64) and np.shares_memory(b32, a32)
        assert not np.shares_memory(b64, b32)
        assert float(b64[0, 0]) == 2.0 and float(b32[0]) == 1.0
        assert pool.misses == 2


# ---------------------------------------------------------------------------
# sampling-config validation
# ---------------------------------------------------------------------------

class TestGenerationConfig:
    @pytest.mark.parametrize("temperature",
                             [float("nan"), float("inf"), 0.0, -1.0])
    def test_temperature_must_be_finite_and_positive(self, temperature):
        # NaN slips past a bare `<= 0` check and then poisons the softmax
        with pytest.raises(ValueError, match="temperature must be positive"):
            GenerationConfig(temperature=temperature, top_k=3).validate()


class TestGenerateShim:
    """The errors the retired ``generate()`` free function raised, still
    raised by its replacement, ``GenerationConfig`` + ``DecodeSession``."""

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(max_new_tokens=0), "max_new_tokens must be >= 1"),
        (dict(max_new_tokens=3, temperature=0.0), "temperature must be positive"),
        (dict(max_new_tokens=3, top_k=0), "top_k must be >= 1"),
    ])
    def test_validation_errors_preserved(self, kwargs, msg):
        session = DecodeSession(make_model("lm"))
        with pytest.raises(ValueError, match=msg):
            session.submit_prompt([1, 2, 3], GenerationConfig(**kwargs))

    def test_empty_prompt_rejected(self):
        session = DecodeSession(make_model("lm"))
        with pytest.raises(ValueError, match="prompt cannot be empty"):
            session.submit_prompt([])
