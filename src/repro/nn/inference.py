"""Zero-autograd inference fast path: compiled pure-ndarray forwards.

Every op in :mod:`repro.tensor.functional` eagerly records the reverse-mode
graph — a ``Tensor`` wrapper, a backward closure and ``requires_grad``
checks per operation — which is pure overhead on a serving path that never
calls ``backward()``.  This module is the inference-mode split every
production framework makes (and the PatDNN-style ahead-of-time
specialization the paper leans on): :func:`compile_inference` walks the
module tree **once** and emits a flat program of ndarray steps that

- snapshots each layer's *effective* weight (``weight * mask``) so the
  per-forward mask multiply disappears; snapshots are keyed on the O(1)
  :attr:`~repro.nn.layers.Linear.cache_token` / ``Parameter.version``
  counters, and the plan keeps one compiled program per distinct
  signature (bounded), so each effective weight configuration compiles
  once: a run-time pattern switch back to a rung already seen restores
  the layers' tokens and is a dictionary lookup plus a reference swap,
  not a recompile (an identical re-install keeps the tokens stable and
  therefore the plan);
- fuses LayerNorm and softmax into single functions with no intermediate
  graph nodes, replicating the Tensor engine's exact arithmetic
  expression by expression — the ``float64`` plan is **bit-identical**
  (``==``, not allclose) to the eager forward, which the forward bench
  and the equivalence tests assert;
- memoizes causal and combined causal|key-padding attention masks keyed
  on ``(batch, seqlen)`` (plus the padding mask's content for ragged
  batches);
- reuses scratch buffers across layers *and* across forwards through a
  shape-keyed :class:`ScratchPool` — steady-state serving performs zero
  large intermediate allocations per request batch;
- optionally executes masked prunable layers straight through the sparse
  kernels (:func:`~repro.sparse.kernels.pattern_matmul` /
  :func:`~repro.sparse.kernels.block_matmul`) on raw ndarrays with no
  Tensor wrapping, via :meth:`repro.sparse.executor.SparseExecutor.layer_matmul`.

``dtype="float32"`` is an opt-in reduced-precision execution mode: the
weight snapshots are cast once at compile time and the whole forward runs
in single precision.  It is *not* bit-identical to the float64 engine —
expect relative deviations around 1e-5 (asserted at 1e-3 in the tests);
float64 remains the default and the only mode the serving stack enables
by itself.

Supported architectures: :class:`~repro.nn.transformer.TransformerLM`,
:class:`~repro.nn.distilbert.DistilBertModel` and
:class:`~repro.nn.distilbert.DistilBertForSequenceTask` — the two model
families of the paper.  Anything else raises :class:`UnsupportedModel`
(the serving engine then falls back to the eager Tensor path).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn.attention import NEG_INF, MultiHeadAttention, causal_mask
from repro.nn.distilbert import DistilBertForSequenceTask, DistilBertModel
from repro.nn.layers import Dropout, LayerNorm, Linear, prunable_linears
from repro.nn.module import Module
from repro.nn.transformer import (
    FeedForward,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    TransformerLM,
)
from repro.tensor.functional import _GELU_C

__all__ = ["CompiledDecode", "CompiledForward", "DecodeState", "ScratchPool",
           "UnsupportedModel", "compile_decode", "compile_inference"]

DTYPES = ("float64", "float32")

# combined-mask memo bound: entries are keyed on padding-mask content, so
# adversarial traffic could otherwise grow the cache without limit
_MASK_CACHE_CAP = 64

# compiled programs kept per plan, keyed on the weight signature: one per
# pattern-set rung that is resident at once (each entry snapshots a full
# set of effective weights); programs of superseded weights are dropped
_PROGRAM_CACHE_CAP = 8


class UnsupportedModel(TypeError):
    """``compile_inference`` does not know this architecture's forward."""


class ScratchPool:
    """Shape-keyed free lists of scratch ndarrays, reused across forwards.

    ``take`` hands out a buffer (popping a free one when available),
    ``give`` returns it; nothing is zeroed — every consumer overwrites the
    whole buffer (``np.matmul(..., out=)``, ``np.copyto``, ``np.subtract``
    with ``out=``).  ``misses`` counts real ``np.empty`` allocations, the
    number the forward bench reports: after the first forward of a given
    shape it stays flat.

    Free lists are keyed on ``(shape, dtype)``: a float32 opt-in plan and
    the float64 KV caches of a decode plane can share one pool without a
    same-shape buffer of the wrong precision ever being handed back out.
    """

    def __init__(self, dtype: np.dtype, per_shape_cap: int = 4) -> None:
        self.dtype = np.dtype(dtype)
        self.per_shape_cap = per_shape_cap
        self._free: Dict[Tuple[Tuple[int, ...], np.dtype], List[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    def take(self, shape: Tuple[int, ...],
             dtype: Optional[np.dtype] = None) -> np.ndarray:
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        stack = self._free.get((shape, dtype))
        if stack:
            self.hits += 1
            return stack.pop()
        self.misses += 1
        return np.empty(shape, dtype=dtype)

    def give(self, arr: np.ndarray) -> None:
        stack = self._free.setdefault((arr.shape, arr.dtype), [])
        if len(stack) < self.per_shape_cap:
            stack.append(arr)

    def clear(self) -> None:
        self._free.clear()


class CompiledForward:
    """A model's forward compiled to a flat program of pure-ndarray steps.

    Calling the plan runs the snapshot program: ``plan(tokens,
    attn_mask=None) -> np.ndarray`` with the exact semantics of the
    eval-mode Tensor forward (``attn_mask`` is the boolean key-padding
    mask the serving batcher builds).  Before every call the plan
    compares its O(1)-per-layer weight signature (every
    ``Linear.cache_token`` plus the version counter of each non-Linear
    parameter) against the live model.  On a change it looks the new
    signature up among the programs it already compiled and compiles
    only on a miss: one compile per distinct effective-weight signature,
    so switching between pattern-set rungs already seen is a lookup.
    ``compiles`` counts real compilations (1 = never recompiled).
    Programs snapshotting superseded weight versions are dropped (those
    versions never come back) and at most ``_PROGRAM_CACHE_CAP`` are
    kept.

    ``sparse`` (a :class:`~repro.sparse.executor.SparseExecutor`)
    dispatches masked prunable layers through that executor's sparse
    kernel on raw ndarrays — format conversions are memoized by cache
    token exactly like the audit path.  Kernel outputs agree with the
    dense snapshot to ~1e-13, so the sparse plan is *not* bit-identical
    (like ``float32``, it is an opt-in mode with a documented tolerance).
    """

    def __init__(self, model: Module, dtype: str = "float64",
                 sparse=None) -> None:
        if str(dtype) not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}, got {dtype!r}")
        self.model = model
        self.dtype = np.dtype(dtype)
        if sparse is not None and self.dtype != np.float64:
            raise ValueError("sparse kernel dispatch requires dtype='float64'")
        self.sparse = sparse
        self.pool = ScratchPool(self.dtype)
        self.compiles = 0
        self.program: List[str] = []
        self._mask_cache: Dict = {}
        # signature sources, collected once: Linears carry cache_token
        # (weight version + mask install counter); everything else
        # (embeddings, layernorm gains) carries Parameter.version
        self._linears = [m for m in model.modules() if isinstance(m, Linear)]
        owned = {id(p) for lin in self._linears
                 for p in (lin.weight, lin.bias) if p is not None}
        self._loose_params = [p for _, p in model.named_parameters()
                              if id(p) not in owned]
        self._dropouts = [m for m in model.modules()
                          if isinstance(m, Dropout) and m.p > 0.0]
        # signature -> (forward, program): every compiled program this
        # plan can switch back to without recompiling
        self._programs: Dict[tuple, Tuple[Callable, List[str]]] = {}
        self._names = {id(m): name for name, m in model.named_modules()}
        self._sparse_names = (set(prunable_linears(model))
                              if sparse is not None else set())
        self._signature: Optional[tuple] = None
        self._refresh(self.signature())

    # ------------------------------------------------------------------
    @property
    def recompiles(self) -> int:
        """Compilations beyond the first (0 = weights never changed)."""
        return self.compiles - 1

    def signature(self) -> tuple:
        """O(1)-per-layer identity of everything the snapshots depend on.

        The raw integer counters behind ``Linear.cache_token`` (uid,
        weight version, mask install counter) plus the bias version —
        the bias is snapshot too, so a sanctioned bias-only update must
        recompile — plus each loose parameter's version.  Same identity
        as the string tokens without per-call string formatting.
        """
        return (tuple((lin._uid, lin.weight.version,
                       -1 if lin.bias is None else lin.bias.version,
                       lin._mask_version)
                      for lin in self._linears),
                tuple(p.version for p in self._loose_params))

    def _check_eval(self) -> None:
        if any(m.training for m in self._dropouts):
            raise ValueError(
                "compile_inference snapshots eval-mode semantics; call "
                "model.eval() first (found an active Dropout)")

    def _cast(self, arr: np.ndarray) -> np.ndarray:
        if arr.dtype == self.dtype:
            return arr
        return arr.astype(self.dtype)

    # ------------------------------------------------------------------
    # mask memoization
    # ------------------------------------------------------------------
    def _cache_mask(self, key, build):
        mask = self._mask_cache.get(key)
        if mask is None:
            if len(self._mask_cache) >= _MASK_CACHE_CAP:
                self._mask_cache.clear()
            mask = build()
            self._mask_cache[key] = mask
        return mask

    def _causal(self, length: int) -> np.ndarray:
        return self._cache_mask(("causal", length),
                                lambda: causal_mask(length))

    def _self_mask(self, length: int,
                   attn_mask: Optional[np.ndarray]) -> np.ndarray:
        """Decoder self-attention mask: causal, or causal | key-padding."""
        if attn_mask is None:
            return self._causal(length)
        key = ("self", length, attn_mask.shape, attn_mask.tobytes())
        return self._cache_mask(
            key, lambda: np.logical_or(self._causal(length), attn_mask))

    # ------------------------------------------------------------------
    # layer compilers: each returns a closure over compile-time snapshots
    # ------------------------------------------------------------------
    def _compile_linear(self, layer: Linear) -> Callable:
        """Plain (non-pooled) linear step: ``x @ W_eff.T + b``.

        The effective weight is snapshot C-contiguous exactly as the
        eager path materializes it, and applied through the same
        transposed view, so the BLAS call — and its bit pattern — match.
        """
        name = self._names.get(id(layer), "")
        w_eff = layer.weight.data
        if layer.mask is not None:
            w_eff = w_eff * layer.mask
        w_eff = self._cast(w_eff)
        w_t = w_eff.T
        bias = None if layer.bias is None else self._cast(layer.bias.data)
        if (self.sparse is not None and name in self._sparse_names
                and layer.mask is not None):
            executor = self.sparse
            out_features = layer.out_features

            def run_sparse(x: np.ndarray) -> np.ndarray:
                flat = x.reshape(-1, x.shape[-1])
                y = executor.layer_matmul(name, layer, flat.T, w_eff=w_eff).T
                out = y.reshape(x.shape[:-1] + (out_features,))
                if bias is not None:
                    out = out + bias
                return out

            return run_sparse

        def run(x: np.ndarray) -> np.ndarray:
            out = np.matmul(x, w_t)
            if bias is not None:
                out += bias
            return out

        return run

    def _proj(self, layer: Linear) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Snapshot ``(W_eff.T view, bias)`` for pooled in-place linears."""
        w_eff = layer.weight.data
        if layer.mask is not None:
            w_eff = w_eff * layer.mask
        bias = None if layer.bias is None else self._cast(layer.bias.data)
        return self._cast(w_eff).T, bias

    def _compile_norm(self, norm: LayerNorm) -> Callable:
        """Fused LayerNorm: the six eager ops as one function, two scratch
        buffers, arithmetic replicated expression by expression."""
        gamma = self._cast(norm.gamma.data)
        beta = self._cast(norm.beta.data)
        eps = norm.eps
        pool = self.pool

        def run(x: np.ndarray) -> np.ndarray:
            # np.add.reduce + divide is exactly what ndarray.mean runs
            # (same pairwise summation, same division) minus the Python
            # wrapper the profile showed dominating small-model norms
            dim = x.shape[-1]
            mu = np.add.reduce(x, axis=-1, keepdims=True)
            mu /= dim
            centered = np.subtract(x, mu, out=pool.take(x.shape))
            sq = np.multiply(centered, centered, out=pool.take(x.shape))
            var = np.add.reduce(sq, axis=-1, keepdims=True)
            var /= dim
            pool.give(sq)
            # 1 / sqrt(var + eps), computed in place on the small
            # (..., 1) reduction buffer — same three elementwise ops the
            # eager path records as add/sqrt/div graph nodes
            var += eps
            np.sqrt(var, out=var)
            inv = np.divide(1.0, var, out=var)
            np.multiply(centered, inv, out=centered)
            np.multiply(centered, gamma, out=centered)
            out = centered + beta
            pool.give(centered)
            return out

        return run

    def _compile_attention(self, attn: MultiHeadAttention) -> Callable:
        """Multi-head attention with pooled q/k/v/scores/context buffers
        and the softmax applied in place on the score buffer."""
        heads, head_dim = attn.num_heads, attn.head_dim
        scale = 1.0 / math.sqrt(attn.head_dim)
        pool = self.pool
        sparse_projs = self.sparse is not None
        if sparse_projs:
            lin_q = self._compile_linear(attn.q_proj)
            lin_k = self._compile_linear(attn.k_proj)
            lin_v = self._compile_linear(attn.v_proj)
        else:
            (q_t, q_b), (k_t, k_b), (v_t, v_b) = (
                self._proj(attn.q_proj), self._proj(attn.k_proj),
                self._proj(attn.v_proj))
        lin_out = self._compile_linear(attn.out_proj)

        def run(x_q: np.ndarray, x_kv: np.ndarray,
                mask: Optional[np.ndarray]) -> np.ndarray:
            batch, len_q, dim = x_q.shape
            len_k = x_kv.shape[1]
            if sparse_projs:
                q, k, v = lin_q(x_q), lin_k(x_kv), lin_v(x_kv)
            else:
                q = np.matmul(x_q, q_t, out=pool.take((batch, len_q, dim)))
                if q_b is not None:
                    q += q_b
                k = np.matmul(x_kv, k_t, out=pool.take((batch, len_k, dim)))
                if k_b is not None:
                    k += k_b
                v = np.matmul(x_kv, v_t, out=pool.take((batch, len_k, dim)))
                if v_b is not None:
                    v += v_b
            qh = q.reshape(batch, len_q, heads, head_dim).transpose(0, 2, 1, 3)
            kh = k.reshape(batch, len_k, heads, head_dim).transpose(0, 2, 1, 3)
            vh = v.reshape(batch, len_k, heads, head_dim).transpose(0, 2, 1, 3)
            scores = np.matmul(qh, kh.transpose(0, 1, 3, 2),
                               out=pool.take((batch, heads, len_q, len_k)))
            scores *= scale
            if mask is not None:
                np.copyto(scores, NEG_INF, where=mask)
            # in-place single-pass softmax (same elementwise arithmetic as
            # the eager shift/exp/normalize, no intermediate arrays)
            shift = np.maximum.reduce(scores, axis=-1, keepdims=True)
            np.subtract(scores, shift, out=scores)
            np.exp(scores, out=scores)
            scores /= np.add.reduce(scores, axis=-1, keepdims=True)
            context = np.matmul(
                scores, vh, out=pool.take((batch, heads, len_q, head_dim)))
            merged = pool.take((batch, len_q, dim))
            np.copyto(merged.reshape(batch, len_q, heads, head_dim),
                      context.transpose(0, 2, 1, 3))
            out = lin_out(merged)
            if not sparse_projs:
                pool.give(q)
                pool.give(k)
                pool.give(v)
            pool.give(scores)
            pool.give(context)
            pool.give(merged)
            return out

        return run

    def _compile_ffn_relu(self, ffn: FeedForward) -> Callable:
        """Transformer FFN: fc1 -> ReLU (in place) -> fc2, pooled hidden."""
        fc2 = self._compile_linear(ffn.fc2)
        hidden_dim = ffn.fc1.out_features
        pool = self.pool
        sparse_fc1 = self._compile_linear(ffn.fc1) if self.sparse else None
        if sparse_fc1 is None:
            fc1_t, fc1_b = self._proj(ffn.fc1)

        def run(x: np.ndarray) -> np.ndarray:
            if sparse_fc1 is not None:
                h = sparse_fc1(x)
            else:
                h = np.matmul(x, fc1_t,
                              out=pool.take(x.shape[:-1] + (hidden_dim,)))
                if fc1_b is not None:
                    h += fc1_b
            # eager relu is `x * (x > 0)`, not np.maximum — replicate it
            np.multiply(h, h > 0, out=h)
            out = fc2(h)
            if sparse_fc1 is None:
                pool.give(h)
            return out

        return run

    def _compile_ffn_gelu(self, fc1: Linear, fc2: Linear) -> Callable:
        """DistilBERT FFN: fc1 -> tanh-GELU -> fc2 (eager expression)."""
        lin1 = self._compile_linear(fc1)
        lin2 = self._compile_linear(fc2)

        def run(x: np.ndarray) -> np.ndarray:
            h = lin1(x)
            inner = _GELU_C * (h + 0.044715 * h ** 3)
            t = np.tanh(inner)
            return lin2(0.5 * h * (1.0 + t))

        return run

    # ------------------------------------------------------------------
    # architecture programs
    # ------------------------------------------------------------------
    def _compile_encoder_layer(self, layer: TransformerEncoderLayer) -> Callable:
        norm1 = self._compile_norm(layer.norm1)
        norm2 = self._compile_norm(layer.norm2)
        attn = self._compile_attention(layer.self_attn)
        ffn = self._compile_ffn_relu(layer.ffn)

        def run(x: np.ndarray, attn_mask: Optional[np.ndarray]) -> np.ndarray:
            h = norm1(x)
            a = attn(h, h, attn_mask)
            x = np.add(x, a, out=a)
            f = ffn(norm2(x))
            return np.add(x, f, out=f)

        return run

    def _compile_decoder_layer(self, layer: TransformerDecoderLayer) -> Callable:
        norm1 = self._compile_norm(layer.norm1)
        norm2 = self._compile_norm(layer.norm2)
        norm3 = self._compile_norm(layer.norm3)
        self_attn = self._compile_attention(layer.self_attn)
        cross_attn = self._compile_attention(layer.cross_attn)
        ffn = self._compile_ffn_relu(layer.ffn)

        def run(x: np.ndarray, memory: np.ndarray,
                self_mask: Optional[np.ndarray],
                memory_mask: Optional[np.ndarray]) -> np.ndarray:
            h = norm1(x)
            a = self_attn(h, h, self_mask)
            x = np.add(x, a, out=a)
            c = cross_attn(norm2(x), memory, memory_mask)
            x = np.add(x, c, out=c)
            f = ffn(norm3(x))
            return np.add(x, f, out=f)

        return run

    def _compile_transformer_lm(self, model: TransformerLM) -> Callable:
        embed_w = self._cast(model.embed.weight.data)
        pos = self._cast(model.pos)
        max_len = model.cfg.max_len
        encoders = [self._compile_encoder_layer(layer)
                    for layer in model.encoder]
        decoders = [self._compile_decoder_layer(layer)
                    for layer in model.decoder]
        final_norm = self._compile_norm(model.final_norm)
        lm_head = self._compile_linear(model.lm_head)
        self.program = (["embed.src"]
                        + [f"encoder.{i}" for i in range(len(encoders))]
                        + ["embed.tgt"]
                        + [f"decoder.{i}" for i in range(len(decoders))]
                        + ["final_norm", "lm_head"])

        def forward(tokens: np.ndarray,
                    attn_mask: Optional[np.ndarray] = None) -> np.ndarray:
            length = tokens.shape[-1]
            if length > max_len:
                raise ValueError(
                    f"sequence length {length} exceeds max_len {max_len}")
            emb = embed_w[tokens]
            emb = np.add(emb, pos[:length], out=emb)
            x = emb
            for enc in encoders:
                x = enc(x, attn_mask)
            memory = x
            self_mask = self._self_mask(length, attn_mask)
            # the eager path embeds the same tokens twice; every compiled
            # step treats its input as read-only, so the source embedding
            # is still intact and serves as the decoder input directly
            y = emb
            for dec in decoders:
                y = dec(y, memory, self_mask, attn_mask)
            return lm_head(final_norm(y))

        return forward

    def _compile_distilbert_layer(self, layer) -> Callable:
        attn = self._compile_attention(layer.attention)
        norm1 = self._compile_norm(layer.norm1)
        norm2 = self._compile_norm(layer.norm2)
        ffn = self._compile_ffn_gelu(layer.fc1, layer.fc2)

        def run(x: np.ndarray, attn_mask: Optional[np.ndarray]) -> np.ndarray:
            a = attn(x, x, attn_mask)
            x = norm1(np.add(x, a, out=a))
            f = ffn(x)
            return norm2(np.add(x, f, out=f))

        return run

    def _compile_distilbert(self, model: DistilBertModel) -> Callable:
        tok_w = self._cast(model.tok_embed.weight.data)
        pos_w = self._cast(model.pos_embed.weight.data)
        embed_norm = self._compile_norm(model.embed_norm)
        max_len = model.cfg.max_len
        layers = [self._compile_distilbert_layer(layer)
                  for layer in model.layers]
        self.program = (["embed"]
                        + [f"layer.{i}" for i in range(len(layers))])

        def forward(tokens: np.ndarray,
                    attn_mask: Optional[np.ndarray] = None) -> np.ndarray:
            length = tokens.shape[-1]
            if length > max_len:
                raise ValueError(
                    f"sequence length {length} exceeds max_len {max_len}")
            x = tok_w[tokens] + pos_w[:length]
            x = embed_norm(x)
            for layer in layers:
                x = layer(x, attn_mask)
            return x

        return forward

    def _compile_distilbert_task(self,
                                 model: DistilBertForSequenceTask) -> Callable:
        bert = self._compile_distilbert(model.bert)
        pre = self._compile_linear(model.pre_classifier)
        head = self._compile_linear(model.classifier)
        is_regression = model.cfg.is_regression
        self.program = self.program + ["pooler", "classifier"]

        def forward(tokens: np.ndarray,
                    attn_mask: Optional[np.ndarray] = None) -> np.ndarray:
            hidden = bert(tokens, attn_mask)
            pooled = pre(hidden[:, 0])
            np.multiply(pooled, pooled > 0, out=pooled)
            logits = head(pooled)
            if is_regression:
                logits = logits.reshape(logits.shape[0])
            return logits

        return forward

    # ------------------------------------------------------------------
    @staticmethod
    def _weight_versions(sig: tuple) -> tuple:
        """The weight/bias/loose-parameter versions inside a signature.

        Parameter versions only ever grow, so a cached entry whose
        versions differ from the live ones can never be looked up again.
        """
        return tuple(entry[1:3] for entry in sig[0]), sig[1]

    def _lookup(self, cache: Dict[tuple, object], sig: tuple,
                build: Callable[[], object]) -> object:
        """``cache[sig]``, building (and bounding the cache) on a miss."""
        entry = cache.get(sig)
        if entry is None:
            live = self._weight_versions(sig)
            for old in [k for k in cache if self._weight_versions(k) != live]:
                del cache[old]
            if len(cache) >= _PROGRAM_CACHE_CAP:
                del cache[next(iter(cache))]
            entry = cache[sig] = build()
        return entry

    def _refresh(self, sig: tuple) -> None:
        """Point the plan at the program for ``sig``, compiling on a miss."""
        # re-checked on every signature change, hit or miss: a model
        # flipped back to train mode must fail loudly rather than let
        # the plan silently keep eval (dropout-free) semantics
        self._check_eval()
        self._forward, self.program = self._lookup(
            self._programs, sig, self._compile)
        self._signature = sig

    def _compile(self) -> Tuple[Callable, List[str]]:
        model = self.model
        if isinstance(model, TransformerLM):
            forward = self._compile_transformer_lm(model)
        elif isinstance(model, DistilBertForSequenceTask):
            forward = self._compile_distilbert_task(model)
        elif isinstance(model, DistilBertModel):
            forward = self._compile_distilbert(model)
        else:
            raise UnsupportedModel(
                f"compile_inference supports TransformerLM and DistilBert* "
                f"models, not {type(model).__name__}")
        self.compiles += 1
        return forward, self.program

    def __call__(self, tokens, attn_mask: Optional[np.ndarray] = None
                 ) -> np.ndarray:
        sig = self.signature()
        if sig != self._signature:
            # a parameter or mask changed since the last call
            self._refresh(sig)
        tokens = np.asarray(tokens.data if hasattr(tokens, "data") else tokens)
        if tokens.ndim != 2:
            raise ValueError("compiled forward expects (batch, length) tokens")
        return self._forward(tokens, attn_mask)


class DecodeState:
    """Per-stream decoder self-attention K/V rows, allocated from the plan's
    :class:`ScratchPool` (dtype-keyed, so a float32 plan and these float64
    rows coexist).  ``rows`` counts how many leading positions hold valid
    projections; ``epoch`` ties the rows to one compile epoch of the
    owning :class:`CompiledDecode` — a weight or mask change bumps the
    epoch and the next ``decode_step`` rebuilds the rows from scratch."""

    __slots__ = ("k", "v", "rows", "epoch", "_pool")

    def __init__(self, decode: "CompiledDecode") -> None:
        cfg = decode.model.cfg
        self._pool = decode.plan.pool
        self.k = self._pool.take((cfg.max_len, cfg.dim))
        self.v = self._pool.take((cfg.max_len, cfg.dim))
        self.rows = 0
        self.epoch = decode.epoch

    def invalidate(self) -> None:
        self.rows = 0

    def release(self) -> None:
        """Hand the K/V buffers back to the pool (state becomes unusable)."""
        if self.k is not None:
            self._pool.give(self.k)
            self._pool.give(self.v)
            self.k = self.v = None


class CompiledDecode:
    """Stateful single-token decode plane over a :class:`CompiledForward`.

    The architecture's forward re-encodes the *whole* context through the
    bidirectional encoder every step — appending a token changes every
    encoder output, so nothing on that side is cacheable.  What *is*
    position-stable is the decoder's self-attention input (the token
    embeddings), so for single-decoder-layer models ``decode_step`` keeps
    per-stream K/V rows (:class:`DecodeState`) and pushes only the last
    **two** positions through the decoder, discarding the penultimate row.
    Two, not one: OpenBLAS picks a different kernel for ``M == 1`` GEMMs
    whose rows do not bitwise match the rows of larger GEMMs, while every
    ``M >= 2`` row is bitwise independent of its batch-mates — the
    invariant that makes the float64 decode plane ``==``-identical to the
    eager per-token forward (asserted by tests and ``bench_generate``).

    The same invariant makes *continuous batching* exact: stacking G
    equal-length streams into one ``(G, L)`` step yields, per stream, the
    identical bits a solo run would — streams can join and leave a rolling
    batch at any token boundary without perturbing each other.

    Effective weights are shared with (snapshot by the same helpers as)
    the full-sequence plan and keyed on the same ``cache_token``/version
    counters: a weight change or mask switch moves both planes to the
    programs of the new signature (compiling each only the first time
    that signature is seen), bumps ``epoch`` and thereby invalidates
    every outstanding :class:`DecodeState`.  Falls back to the full plan
    (still zero autograd) whenever the incremental path cannot be exact:
    multi-layer decoders, sparse executors, contexts shorter than two
    tokens, a caller-signalled sliding window (``full=True`` — positions
    shift, so cached rows are stale by construction), or contexts beyond
    ``kv_len_cap``.  That cap exists because the M==1 quirk is not the
    only kernel boundary: for GEMMs whose weight operand is a transposed
    *view* (the plan's — and the eager path's — idiom), OpenBLAS flips to
    a different blocking once ``M`` crosses a shape-dependent threshold,
    after which M=2 rows no longer bitwise match M=L rows.  The
    thresholds are shape-determined but not portably predictable, so
    compile probes every decode-path GEMM shape at every length up to
    ``max_len`` with random operands and caps the incremental path at
    the longest prefix where all of them are tail-row invariant.
    """

    def __init__(self, model: Module, dtype: str = "float64",
                 plan: Optional[CompiledForward] = None) -> None:
        if not isinstance(model, TransformerLM):
            raise UnsupportedModel(
                f"compile_decode supports TransformerLM models, "
                f"not {type(model).__name__}")
        self.model = model
        self.plan = plan if plan is not None else CompiledForward(
            model, dtype=dtype)
        self.dtype = self.plan.dtype
        self.epoch = 0
        self.decode_compiles = 0
        # single decoder layer: its self-attention K/V rows are the only
        # position-stable intermediates; deeper decoders would need the
        # (changing) cross-attention outputs of earlier layers
        self.kv_capable = (len(model.decoder) == 1
                           and self.plan.sparse is None)
        self._dec: Optional[dict] = None
        # signature -> decode program, bounded like the plan's programs
        self._decs: Dict[tuple, dict] = {}
        # longest context the incremental path may serve bitwise; probed
        # once per model shape (0 until the first decode compile)
        self.kv_len_cap = 0
        self._decode_signature = self.plan.signature()
        self.plan._check_eval()
        self._load_decode(self._decode_signature)

    # ------------------------------------------------------------------
    def new_state(self) -> DecodeState:
        """A fresh per-stream K/V cache bound to the current epoch."""
        return DecodeState(self)

    def _ensure_fresh(self) -> None:
        sig = self.plan.signature()
        if sig != self._decode_signature:
            # a parameter or installed mask changed: point both planes at
            # the programs for the new signature (compiling only on a
            # miss) and retire every outstanding DecodeState via the
            # epoch — its K/V rows were projected with other weights
            self.plan._refresh(sig)
            self._load_decode(sig)
            self._decode_signature = sig
            self.epoch += 1

    def _load_decode(self, sig: tuple) -> None:
        if self.kv_capable:
            self._dec = self.plan._lookup(self._decs, sig,
                                          self._compile_decode)

    def _compile_decode(self) -> dict:
        plan, model = self.plan, self.model
        dec = model.decoder[0]
        sa, ca = dec.self_attn, dec.cross_attn
        program = {
            "embed_w": plan._cast(model.embed.weight.data),
            "pos": plan._cast(model.pos),
            "encoders": [plan._compile_encoder_layer(layer)
                         for layer in model.encoder],
            "norm1": plan._compile_norm(dec.norm1),
            "norm2": plan._compile_norm(dec.norm2),
            "norm3": plan._compile_norm(dec.norm3),
            "q": plan._proj(sa.q_proj),
            "k": plan._proj(sa.k_proj),
            "v": plan._proj(sa.v_proj),
            "self_out": plan._compile_linear(sa.out_proj),
            "cq": plan._proj(ca.q_proj),
            "ck": plan._proj(ca.k_proj),
            "cv": plan._proj(ca.v_proj),
            "cross_out": plan._compile_linear(ca.out_proj),
            "ffn": plan._compile_ffn_relu(dec.ffn),
            "final_norm": plan._compile_norm(model.final_norm),
            "lm_head": plan._compile_linear(model.lm_head),
            "heads": sa.num_heads,
            "head_dim": sa.head_dim,
            "scale": 1.0 / math.sqrt(sa.head_dim),
        }
        self.decode_compiles += 1
        if not self.kv_len_cap:
            # kernel regimes depend only on shapes/layout, never on the
            # weight or mask values, so one probe per model shape holds
            # across recompiles
            self.kv_len_cap = self._probe_kv_len_cap(program)
        return program

    def _probe_kv_len_cap(self, d: dict) -> int:
        """Longest context length at which the M==2 tail path is bitwise
        equal to the full plan, probed empirically per GEMM shape.

        BLAS picks a different blocking for transposed-*view* weight
        operands once ``M`` crosses a shape-dependent threshold (e.g. on
        OpenBLAS ``(K=64, N=128)`` flips at ``M == 10`` while
        ``(K=32, N=64)`` holds until ``M == 19``); past it the last rows
        of an ``M == L`` GEMM stop matching the same rows computed at
        ``M == 2``.  Kernel choice depends only on shape and layout, so
        random operands in the plan's exact layouts (transposed views
        for weights, contiguous tails for activations, strided head
        views for attention) decide each length definitively.
        """
        cfg = self.model.cfg
        heads, hd = d["heads"], d["head_dim"]
        dim = heads * hd
        dt = self.dtype
        rng = np.random.default_rng(0)

        def view_w(k, n):
            return np.ascontiguousarray(
                rng.standard_normal((n, k)).astype(dt)).T

        # every (in, out) shape the tail path pushes through a
        # transposed-view weight; contiguous-weight GEMMs are row
        # invariant and need no probe
        shapes = sorted({(dim, dim), (dim, cfg.ffn_dim),
                         (cfg.ffn_dim, dim), (dim, cfg.vocab_size)})
        weights = [view_w(k, n) for k, n in shapes]
        kv_shape = (dim, dim)  # K/V projections also fill the cache

        for length in range(2, cfg.max_len + 1):
            ok = True
            for w_t in weights:
                x = rng.standard_normal(
                    (1, length, w_t.shape[0])).astype(dt)
                full = np.matmul(x, w_t)
                tail = np.matmul(
                    np.ascontiguousarray(x[:, length - 2:]), w_t)
                if not np.array_equal(full[0, length - 1], tail[0, 1]):
                    ok = False
                    break
                if w_t.shape == kv_shape:
                    # cache rows written at earlier lengths must match a
                    # full-length rebuild row for row: slide an M==2
                    # window over every position
                    win = np.ascontiguousarray(np.stack(
                        [x[0, j - 1: j + 1] for j in range(1, length)]))
                    rows = np.matmul(win, w_t)
                    if not (np.array_equal(full[0, 1:], rows[:, 1])
                            and np.array_equal(full[0, :-1], rows[:, 0])):
                        ok = False
                        break
            if ok:
                # 4-D attention in the plan's layouts: scores q @ k^T
                # with a strided 2-row query view, context probs @ v
                # with a contiguous 2-row probs tail
                q = rng.standard_normal((1, length, dim)).astype(dt)
                k = rng.standard_normal((1, length, dim)).astype(dt)
                qh = q.reshape(1, length, heads, hd).transpose(0, 2, 1, 3)
                kh = k.reshape(1, length, heads, hd).transpose(0, 2, 1, 3)
                kht = kh.transpose(0, 1, 3, 2)
                q2 = np.ascontiguousarray(q[:, length - 2:])
                q2h = q2.reshape(1, 2, heads, hd).transpose(0, 2, 1, 3)
                if not np.array_equal(np.matmul(qh, kht)[:, :, length - 1],
                                      np.matmul(q2h, kht)[:, :, 1]):
                    ok = False
                else:
                    probs = rng.random((1, heads, length, length)).astype(dt)
                    v = rng.standard_normal((1, length, dim)).astype(dt)
                    vh = v.reshape(1, length, heads,
                                   hd).transpose(0, 2, 1, 3)
                    tail_p = np.ascontiguousarray(probs[:, :, length - 2:])
                    if not np.array_equal(
                            np.matmul(probs, vh)[:, :, length - 1],
                            np.matmul(tail_p, vh)[:, :, 1]):
                        ok = False
            if not ok:
                return length - 1
        return cfg.max_len

    # ------------------------------------------------------------------
    def decode_step(self, contexts: np.ndarray, states: List[DecodeState],
                    full: bool = False) -> np.ndarray:
        """Next-token logits ``(G, vocab)`` for G equal-length contexts.

        ``contexts`` is ``(G, L)`` token ids (every stream at the same
        context length — group ragged streams by length, they batch
        exactly); ``states`` the G per-stream caches.  ``full=True``
        forces the full-sequence plan (callers set it once their context
        window starts sliding).
        """
        contexts = np.asarray(
            contexts.data if hasattr(contexts, "data") else contexts)
        if contexts.ndim != 2:
            raise ValueError("decode_step expects (batch, length) contexts")
        if contexts.shape[0] != len(states):
            raise ValueError("one DecodeState per context row is required")
        self._ensure_fresh()
        for st in states:
            if st.epoch != self.epoch:
                st.rows = 0
                st.epoch = self.epoch
        length = contexts.shape[1]
        if (full or not self.kv_capable or length < 2
                or length > self.kv_len_cap):
            # exactness fallbacks; cached rows no longer describe the
            # next step's positions, so retire them (length-1 prefixes
            # are M==1-tainted and deliberately never seed the cache,
            # and beyond kv_len_cap the BLAS tail GEMMs change kernel
            # regime)
            logits = self.plan(contexts)
            for st in states:
                st.rows = 0
            return np.ascontiguousarray(logits[:, -1])
        return self._step_kv(contexts, states)

    def _step_kv(self, contexts: np.ndarray,
                 states: List[DecodeState]) -> np.ndarray:
        d = self._dec
        pool = self.plan.pool
        batch, length = contexts.shape
        max_len = self.model.cfg.max_len
        if length > max_len:
            raise ValueError(
                f"sequence length {length} exceeds max_len {max_len}")
        dim = self.model.cfg.dim
        heads, head_dim, scale = d["heads"], d["head_dim"], d["scale"]
        emb = d["embed_w"][contexts]
        emb = np.add(emb, d["pos"][:length], out=emb)
        x = emb
        for enc in d["encoders"]:
            x = enc(x, None)
        memory = x
        # ---- decoder self-attention over the cached K/V rows ----------
        tail = emb[:, length - 2:]
        h2 = d["norm1"](tail)
        (q_t, q_b), (k_t, k_b), (v_t, v_b) = d["q"], d["k"], d["v"]
        q2 = np.matmul(h2, q_t, out=pool.take((batch, 2, dim)))
        if q_b is not None:
            q2 += q_b
        k2 = np.matmul(h2, k_t, out=pool.take((batch, 2, dim)))
        if k_b is not None:
            k2 += k_b
        v2 = np.matmul(h2, v_t, out=pool.take((batch, 2, dim)))
        if v_b is not None:
            v2 += v_b
        pool.give(h2)
        rebuild = [g for g, st in enumerate(states) if st.rows != length - 1]
        if rebuild:
            # cold or invalidated caches: recompute every row in one
            # M=length GEMM — row-bitwise equal to the incremental fills
            hf = d["norm1"](emb[rebuild])
            kf = np.matmul(hf, k_t)
            if k_b is not None:
                kf += k_b
            vf = np.matmul(hf, v_t)
            if v_b is not None:
                vf += v_b
            pool.give(hf)
            for j, g in enumerate(rebuild):
                st = states[g]
                np.copyto(st.k[:length], kf[j])
                np.copyto(st.v[:length], vf[j])
                st.rows = length
        for g, st in enumerate(states):
            if st.rows == length - 1:
                np.copyto(st.k[length - 1], k2[g, 1])
                np.copyto(st.v[length - 1], v2[g, 1])
                st.rows = length
        pool.give(k2)
        pool.give(v2)
        kbuf = pool.take((batch, length, dim))
        vbuf = pool.take((batch, length, dim))
        for g, st in enumerate(states):
            np.copyto(kbuf[g], st.k[:length])
            np.copyto(vbuf[g], st.v[:length])
        qh = q2.reshape(batch, 2, heads, head_dim).transpose(0, 2, 1, 3)
        kh = kbuf.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)
        vh = vbuf.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)
        scores = np.matmul(qh, kh.transpose(0, 1, 3, 2),
                           out=pool.take((batch, heads, 2, length)))
        scores *= scale
        # last-2-rows slice of the causal mask, memoized per position in
        # the plan's shared (capped) mask cache
        tail_mask = self.plan._cache_mask(
            ("decode_tail", length),
            lambda: np.ascontiguousarray(causal_mask(length)[length - 2:]))
        np.copyto(scores, NEG_INF, where=tail_mask)
        shift = np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.subtract(scores, shift, out=scores)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        context = np.matmul(
            scores, vh, out=pool.take((batch, heads, 2, head_dim)))
        merged = pool.take((batch, 2, dim))
        np.copyto(merged.reshape(batch, 2, heads, head_dim),
                  context.transpose(0, 2, 1, 3))
        a2 = d["self_out"](merged)
        pool.give(q2)
        pool.give(kbuf)
        pool.give(vbuf)
        pool.give(scores)
        pool.give(context)
        pool.give(merged)
        x2 = np.add(tail, a2, out=a2)
        # ---- cross-attention against the freshly encoded memory -------
        hc = d["norm2"](x2)
        (cq_t, cq_b), (ck_t, ck_b), (cv_t, cv_b) = d["cq"], d["ck"], d["cv"]
        qc = np.matmul(hc, cq_t, out=pool.take((batch, 2, dim)))
        if cq_b is not None:
            qc += cq_b
        kc = np.matmul(memory, ck_t, out=pool.take((batch, length, dim)))
        if ck_b is not None:
            kc += ck_b
        vc = np.matmul(memory, cv_t, out=pool.take((batch, length, dim)))
        if cv_b is not None:
            vc += cv_b
        pool.give(hc)
        qch = qc.reshape(batch, 2, heads, head_dim).transpose(0, 2, 1, 3)
        kch = kc.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)
        vch = vc.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3)
        cscores = np.matmul(qch, kch.transpose(0, 1, 3, 2),
                            out=pool.take((batch, heads, 2, length)))
        cscores *= scale
        cshift = np.maximum.reduce(cscores, axis=-1, keepdims=True)
        np.subtract(cscores, cshift, out=cscores)
        np.exp(cscores, out=cscores)
        cscores /= np.add.reduce(cscores, axis=-1, keepdims=True)
        ccontext = np.matmul(
            cscores, vch, out=pool.take((batch, heads, 2, head_dim)))
        cmerged = pool.take((batch, 2, dim))
        np.copyto(cmerged.reshape(batch, 2, heads, head_dim),
                  ccontext.transpose(0, 2, 1, 3))
        c2 = d["cross_out"](cmerged)
        pool.give(qc)
        pool.give(kc)
        pool.give(vc)
        pool.give(cscores)
        pool.give(ccontext)
        pool.give(cmerged)
        x3 = np.add(x2, c2, out=c2)
        f2 = d["ffn"](d["norm3"](x3))
        y2 = np.add(x3, f2, out=f2)
        out2 = d["lm_head"](d["final_norm"](y2))
        return np.ascontiguousarray(out2[:, 1])

    # decode_step is the one entry point; keep the plan's call idiom too
    __call__ = decode_step


def compile_decode(model: Module, dtype: str = "float64",
                   plan: Optional[CompiledForward] = None) -> CompiledDecode:
    """Compile a KV-cached single-token decode plane for ``model``.

    ``plan`` optionally shares an existing :class:`CompiledForward` (and
    its scratch pool / mask cache); otherwise one is built.  ``float64``
    decode is bit-identical to the eager per-token forward; ``float32``
    inherits the plan's documented reduced-precision tolerance.  Raises
    :class:`UnsupportedModel` for non-``TransformerLM`` architectures.
    """
    return CompiledDecode(model, dtype=dtype, plan=plan)


def compile_inference(model: Module, dtype: str = "float64",
                      sparse=None) -> CompiledForward:
    """Compile ``model``'s eval-mode forward into a pure-ndarray plan.

    ``dtype`` selects the execution precision: ``"float64"`` (default)
    is bit-identical to the eager Tensor forward; ``"float32"`` runs the
    snapshots in single precision (opt-in, ~1e-5 relative deviation).
    ``sparse`` is an optional :class:`~repro.sparse.executor.SparseExecutor`
    whose kernel executes masked prunable layers on raw ndarrays.
    Raises :class:`UnsupportedModel` for unknown architectures.
    """
    return CompiledForward(model, dtype=dtype, sparse=sparse)
