"""KV-cached decode plane + DecodeSession API: exactness, edge cases.

The contract under test is bit-identity: every token and logprob a
compiled, continuously-batched decode stream produces must equal (``==``,
not allclose) what the historical eager ``generate()`` loop produces for
the same prompt and sampling config, regardless of which streams join or
leave the rolling batch around it.
"""

import numpy as np
import pytest

from repro.core.patterns import MaskManager, random_pattern_set
from repro.nn.generation import (
    DecodeSession,
    GenerationConfig,
    sample_token,
)
from repro.nn.inference import ScratchPool, compile_decode
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve.cache import ArtifactCache
from repro.tensor.tensor import Tensor, no_grad

# the paper shape (2 encoder / 1 decoder layers): KV-capable
LM_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                           num_encoder_layers=2, num_decoder_layers=1,
                           max_len=16, dropout=0.0, seed=3)
# two decoder layers: the decode plane must fall back to full forwards
DEEP_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                             num_encoder_layers=1, num_decoder_layers=2,
                             max_len=16, dropout=0.0, seed=4)


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
    try:
        sid = session.submit_prompt(prompt)
        session.run()
        return session.result(sid)
    finally:
        session.close()


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

    def test_per_step_logits_equal_full_plan(self):
        """CompiledDecode's incremental step == the full-sequence plan, at
        every bound (G, L) shape of the KV path."""
        model = make_model("lm")
        for batch, start in ((1, 2), (3, 4), (8, 2)):
            decoder = compile_decode(model)
            assert decoder.kv_capable
            rng = np.random.default_rng(batch)
            tokens = rng.integers(0, 60, size=(batch, start))
            states = [decoder.new_state() for _ in range(batch)]
            try:
                for length in range(start, LM_CFG.max_len + 1):
                    step = decoder.decode_step(tokens, states)
                    full = decoder.plan(tokens)[:, -1]
                    assert np.array_equal(step, full)
                    nxt = step.argmax(axis=1).astype(np.int64)
                    tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
                # one KV binding per length on the incremental path plus
                # one cold-cache rebuild binding
                kv_lengths = decoder.kv_len_cap - start + 1
                assert decoder.binds == kv_lengths + 1
            finally:
                for st in states:
                    st.release()

    def test_step_output_never_aliases_bound_buffers(self):
        model = make_model("lm")
        decoder = compile_decode(model)
        tokens = np.random.default_rng(0).integers(0, 60, size=(1, 6))
        states = [decoder.new_state()]
        try:
            first = decoder.decode_step(tokens, states)
            ref = first.copy()
            bound = [buf for plane in (decoder, decoder.plan)
                     for arena in plane._arenas.values()
                     for buf in arena.owned]
            assert not any(np.shares_memory(first, buf) for buf in bound)
            first[...] = 0.0
            states[0].invalidate()
            assert np.array_equal(decoder.decode_step(tokens, states), ref)
        finally:
            states[0].release()

    def test_deep_model_not_kv_capable_but_exact(self):
        decoder = compile_decode(make_model("deep"))
        assert not decoder.kv_capable

    def test_sparse_plan_not_kv_capable(self):
        from repro.nn.inference import compile_inference
        from repro.sparse.executor import SparseExecutor

        model = make_model("lm")
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        MaskManager(model).apply(pset)
        plan = compile_inference(model,
                                 sparse=SparseExecutor("pattern",
                                                       pattern_set=pset))
        decoder = compile_decode(model, plan=plan)
        # a sparse-dispatch plan must refuse the incremental KV path
        assert not decoder.kv_capable
        # ...but decode still works through the full-plan fallback, and
        # every step must agree with the sparse plan itself exactly
        toks = np.random.default_rng(0).integers(0, 60, size=(2, 5))
        st = [decoder.new_state() for _ in range(2)]
        try:
            got = decoder.decode_step(toks, st)
            assert np.array_equal(got, plan(toks)[:, -1])
            assert all(s.rows == 0 for s in st)
        finally:
            for s in st:
                s.release()

    def test_length_validation(self):
        model = make_model("lm")
        decoder = compile_decode(model)
        toks = np.zeros((1, LM_CFG.max_len + 1), dtype=np.int64)
        st = decoder.new_state()
        try:
            with pytest.raises(ValueError, match="exceeds max_len"):
                decoder.decode_step(toks, [st])
        finally:
            st.release()


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
        try:
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
        finally:
            session.close()

    def test_same_tick_join_and_leave(self):
        """A stream exhausting its budget on the same boundary another
        joins: neither perturbs the other."""
        model = make_model("lm")
        rng = np.random.default_rng(9)
        p_short = rng.integers(0, 60, size=4)
        p_long = rng.integers(0, 60, size=4)
        p_late = rng.integers(0, 60, size=6)
        session = DecodeSession(model)
        try:
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
        finally:
            session.close()

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
        try:
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
        finally:
            session.close()


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
        """Shapes whose transposed-view tail GEMMs change BLAS kernel
        regime mid-range get a probed ``kv_len_cap``; decode falls back
        to the full plan beyond it and stays bit-identical across the
        boundary (on OpenBLAS this shape caps at 9 of max_len 24)."""
        cfg = TransformerConfig(vocab_size=120, dim=64, num_heads=4,
                                ffn_dim=128, num_encoder_layers=2,
                                num_decoder_layers=1, max_len=24,
                                dropout=0.0, seed=9)
        model = TransformerLM(cfg).eval()
        decoder = compile_decode(model)
        assert 1 <= decoder.kv_len_cap <= cfg.max_len
        # the probe is deterministic per shape
        other = compile_decode(TransformerLM(cfg).eval())
        assert other.kv_len_cap == decoder.kv_len_cap
        prompt = np.random.default_rng(3).integers(0, 120, size=4)
        gen = GenerationConfig(max_new_tokens=18)  # crosses any sub-max cap
        ref_tokens, ref_logprobs = eager_generate(model, prompt, gen)
        got = run_session(model, prompt, gen, decoder=decoder)
        assert np.array_equal(got.tokens, ref_tokens)
        assert got.logprobs == ref_logprobs
        if decoder.kv_len_cap < cfg.max_len:
            # past the cap every stream's cache is retired each step
            state = decoder.new_state()
            ctx = np.random.default_rng(4).integers(
                0, 120, size=(1, decoder.kv_len_cap))
            decoder.decode_step(ctx, [state])
            assert state.rows > 0
            long_ctx = np.random.default_rng(5).integers(
                0, 120, size=(1, decoder.kv_len_cap + 1))
            decoder.decode_step(long_ctx, [state])
            assert state.rows == 0
            state.release()

    def test_mask_install_mid_decode_invalidates_kv(self):
        """Re-installing masks mid-decode recompiles the decode plane and
        drops cached K/V; outputs still match an eager run with the same
        install schedule."""
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
        decoder = session.decoder
        assert decoder is not None and decoder.kv_capable
        sid = session.submit_prompt(prompt)
        epoch0 = decoder.epoch
        compiled_steps = scheduled(session.step)
        got = session.result(sid)
        session.close()
        assert decoder.epoch > epoch0  # the real switch invalidated K/V
        assert decoder.decode_compiles >= 2

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
        """A -> B -> A mid-decode through a cached manager: each switch
        bumps the epoch (K/V rows are retired), the return to A is a
        program lookup rather than a compile, and tokens plus logprobs
        stay bit-identical to the eager loop under the same schedule."""
        model = make_model("lm")
        manager = MaskManager(model, cache=ArtifactCache())
        psets = [random_pattern_set(8, s, 3, np.random.default_rng(i))
                 for i, s in enumerate((0.3, 0.5))]
        schedule = {3: psets[1], 6: psets[0]}
        prompt = np.random.default_rng(2).integers(0, 60, size=5)
        cfg = GenerationConfig(max_new_tokens=9)

        manager.apply(psets[0])
        session = DecodeSession(model)
        decoder = session.decoder
        assert decoder is not None and decoder.kv_capable
        sid = session.submit_prompt(prompt)
        epoch0 = decoder.epoch
        for i in range(cfg.max_new_tokens):
            if i in schedule:
                manager.apply(schedule[i])
            session.step()
        got = session.result(sid)
        session.close()
        assert decoder.epoch == epoch0 + 2
        assert decoder.decode_compiles == 2
        assert decoder.plan.compiles == 2

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

    def test_identical_reinstall_keeps_kv(self):
        """Re-applying the already-installed set (the serving loop
        re-installs before every step) must not recompile or drop caches."""
        model = make_model("lm")
        manager = MaskManager(model)
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        manager.apply(pset)
        decoder = compile_decode(model)
        st = decoder.new_state()
        try:
            toks = np.random.default_rng(0).integers(0, 60, size=(1, 6))
            decoder.decode_step(toks, [st])
            epoch, compiles = decoder.epoch, decoder.decode_compiles
            rows = st.rows
            manager.apply(pset)  # identical re-install
            decoder.decode_step(toks, [st])
            assert decoder.epoch == epoch
            assert decoder.decode_compiles == compiles
            assert st.rows >= rows  # cache survived
        finally:
            st.release()

    def test_released_states_and_new_binds_never_share_buffers(self):
        """K/V rows handed back by released states may be reused by a
        later bind, but a live state's rows and a bound buffer are never
        the same memory."""
        model = make_model("lm")
        decoder = compile_decode(model)
        rng = np.random.default_rng(6)
        live = []
        try:
            for length in range(3, 9):
                states = [decoder.new_state() for _ in range(3)]
                toks = rng.integers(0, 60, size=(3, length))
                decoder.decode_step(toks, states)
                decoder.plan(toks[:, :length - 1])  # a forward bind too
                states[0].release()
                states[2].release()
                live.append(states[1])
                bound = [buf for plane in (decoder, decoder.plan)
                         for arena in plane._arenas.values()
                         for buf in arena.owned]
                rows = [a for st in live for a in (st.k, st.v)]
                assert not any(np.shares_memory(r, buf)
                               for r in rows for buf in bound)
                assert len({id(r) for r in rows}) == len(rows)
        finally:
            for st in live:
                st.release()

    def test_scratch_pool_dtype_keying(self):
        """Same-shape buffers of different dtypes never alias (the KV
        cache is float64 while a float32 plan shares the pool)."""
        pool = ScratchPool(np.dtype(np.float32))
        a32 = pool.take((4, 4))
        a64 = pool.take((4, 4), np.dtype(np.float64))
        assert a32.dtype == np.float32 and a64.dtype == np.float64
        a32[:] = 1.0
        a64[:] = 2.0
        assert float(a32[0, 0]) == 1.0 and float(a64[0, 0]) == 2.0
        pool.give(a32)
        pool.give(a64)
        # reuse honours the dtype key: both live again, still distinct
        b64 = pool.take((4, 4), np.dtype(np.float64))
        b32 = pool.take((4, 4))
        assert b64 is a64 and b32 is a32
        assert b64.dtype == np.float64 and b32.dtype == np.float32


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
