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
- binds each program lazily to every concrete input shape it serves:
  the first call with a ``(batch, seqlen)`` token shape (and padding-mask
  shape) lays the layers out over preallocated buffers and precomputed
  head views, as a flat list of ``(ufunc, args)`` steps; every later
  call with that shape copies its tokens (and mask) in, replays the
  steps and returns a freshly allocated output — no per-call buffer
  lookups, view construction or closure hops, and zero steady-state
  intermediate allocations per request batch.  A binding's buffers are
  reused across its layers and are views over the plan's shared
  :class:`ScratchPool` slots, so every binding of every program and
  shape runs over one set of scratch memory;
- memoizes causal masks per ``seqlen``; a padded batch's combined
  causal | key-padding mask is one bound ``np.logical_or`` step;
- runs a right-padded batch *by true lengths* (``plan(tokens,
  lengths=...)``): every step runs once over the whole ``(batch,
  max_len)`` batch, attention under a key-padding mask the plan fills
  from the lengths, and only the softmax denominators are summed per run
  of equal-length rows, over the true keys.  Rows stay ``==`` their solo
  forward as long as the lengths share a padding class
  (:meth:`CompiledForward.length_classes`, probed for both the weight
  GEMMs and the padded attention), which is how decode batches streams
  of different context lengths into one call.

Pattern masks are folded into the dense weight snapshots: every layer,
masked or not, is one BLAS ``matmul``.  The sparse kernels of
:mod:`repro.sparse` are cost models, not an execution path — on every
serving layer shape (at most 64 wide) a dense product beats them.

``dtype="float32"`` is an opt-in reduced-precision execution mode: the
weight snapshots are cast once at compile time and the whole forward runs
in single precision.  It is *not* bit-identical to the float64 engine —
expect relative deviations around 1e-5 (asserted at 1e-3 in the tests);
float64 remains the default and the only mode the serving stack enables
by itself.

Supported architectures: :class:`~repro.nn.transformer.TransformerLM`,
:class:`~repro.nn.distilbert.DistilBertModel` and
:class:`~repro.nn.distilbert.DistilBertForSequenceTask` — the two model
families of the paper.  Anything else raises :class:`UnsupportedModel`,
and so does the serving engine on its first batch: the eager Tensor
forward is the reference the plan is checked against, not a fallback.
Autoregressive decoding needs no second plane: a decode step is the last
row of this plan over the stream's context (:func:`compile_decode`).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.attention import NEG_INF, MultiHeadAttention, causal_mask
from repro.nn.distilbert import DistilBertForSequenceTask, DistilBertModel
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module
from repro.nn.transformer import (
    FeedForward,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    TransformerLM,
)
from repro.tensor.functional import _GELU_C

__all__ = ["CompiledForward", "ScratchPool", "UnsupportedModel",
           "compile_decode", "compile_inference", "require_eval"]

DTYPES = ("float64", "float32")

# causal-mask memo bound: one entry per sequence length
_MASK_CACHE_CAP = 64

# compiled programs kept per plan, keyed on the weight signature: one per
# pattern-set rung that is resident at once (each entry snapshots a full
# set of effective weights); programs of superseded weights are dropped
_PROGRAM_CACHE_CAP = 8

# input shapes bound per program; beyond the cap the least recently
# bound shape is dropped
_BIND_CACHE_CAP = 64


class UnsupportedModel(TypeError):
    """``compile_inference`` does not know this architecture's forward."""


class ScratchPool:
    """The shared scratch slots of one plan.

    :meth:`shared` hands out views over slot memory; every binding of the
    plan draws its buffers from here (:class:`_Arena`).  ``misses``
    counts real allocations, a slot made or grown, the number the
    forward bench reports: once a shape is bound it stays flat.

    Slots are keyed on ``(slot, dtype)``: a plan's float, integer token
    and boolean mask buffers share one pool without a view of one dtype
    ever aliasing the memory of another.
    """

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = np.dtype(dtype)
        self._shared: Dict[tuple, np.ndarray] = {}
        self.misses = 0

    def shared(self, slot, shape: Tuple[int, ...],
               dtype: Optional[np.dtype] = None) -> np.ndarray:
        """A ``shape`` view over the memory of shared ``slot``.

        Every caller naming the same slot gets the same memory, so it
        suits only steps that never run at the same time — the bindings
        of one plan, which fully write a buffer before reading it.  A
        slot too small for ``shape`` is replaced by a zero-filled one (at
        least twice as large); views handed out earlier keep the old
        memory.  So slot memory only ever holds zeros or values some step
        computed.
        """
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        size = math.prod(shape)
        flat = self._shared.get((slot, dtype))
        if flat is None or flat.size < size:
            self.misses += 1
            grown = size if flat is None else max(size, 2 * flat.size)
            flat = self._shared[(slot, dtype)] = np.zeros(grown, dtype)
        return flat[:size].reshape(shape)


class _Arena:
    """One program bound to one input key ``(tokens shape, mask shape,
    by length)``.

    ``inputs`` are the token (and key-padding mask) buffers the program
    reads.  The layer binders then ``take``/``give`` buffers — a buffer
    given back is reused by a later layer of the same binding, and the
    n-th new buffer is a view over the pool's shared slot ``("bind",
    n)`` — and ``add`` their ``(ufunc, args)`` steps.  ``head`` is the
    final ``(f, args, bias, shape)`` call, run after the steps so the
    returned array is freshly allocated, never slot memory.  Every
    binding of a plan, whatever its program or shape, runs over one set
    of slot memory: only one call of a plan runs at a time, and every
    bound step writes a buffer before reading it.

    ``segments`` is ``None`` for a plain binding, whose call copies its
    mask in.  A call by true lengths copies them into ``lengths``, which
    the first step turns into the mask, and sets ``segments`` to its runs
    of equal-length rows, ``(rows slice, length)`` pairs.
    """

    __slots__ = ("pool", "inputs", "lengths", "steps", "head", "segments",
                 "_free", "_slots")

    def __init__(self, pool: ScratchPool, tokens_shape: Tuple[int, ...],
                 mask_shape: Optional[Tuple[int, ...]],
                 by_length: bool) -> None:
        self.pool = pool
        self.steps: List[tuple] = []
        self.head: Optional[tuple] = None
        self.segments: Optional[tuple] = () if by_length else None
        self._free: Dict[tuple, List[np.ndarray]] = {}
        self._slots = 0
        self.inputs = (self.take(tokens_shape, np.intp),
                       None if mask_shape is None
                       else self.take(mask_shape, np.bool_))
        self.lengths: Optional[np.ndarray] = None
        if by_length:
            # key j of row i is padding iff j >= lengths[i]
            self.lengths = self.take(tokens_shape[:1], np.intp)
            self.add(np.greater_equal, np.arange(tokens_shape[1]),
                     self.lengths.reshape(-1, 1, 1, 1), self.inputs[1])

    def take(self, shape: Tuple[int, ...],
             dtype: Optional[np.dtype] = None) -> np.ndarray:
        dtype = self.pool.dtype if dtype is None else np.dtype(dtype)
        stack = self._free.get((shape, dtype))
        if stack:
            return stack.pop()
        self._slots += 1
        return self.pool.shared(("bind", self._slots), shape, dtype)

    def give(self, *arrs: np.ndarray) -> None:
        for arr in arrs:
            self._free.setdefault((arr.shape, arr.dtype), []).append(arr)

    def add(self, f: Callable, *args) -> None:
        self.steps.append((f, args))


class _Program:
    """One compiled weight signature and the shapes bound to it."""

    __slots__ = ("bind", "bound")

    def __init__(self, bind: Callable) -> None:
        self.bind = bind
        self.bound: Dict[tuple, _Arena] = {}


def require_eval(modules) -> None:
    """Refuse an active ``Dropout`` among ``modules``.

    A compiled plan snapshots eval-mode semantics, so a model left in
    training mode must fail loudly rather than silently lose its dropout.
    """
    if any(isinstance(m, Dropout) and m.p > 0.0 and m.training
           for m in modules):
        raise ValueError(
            "compile_inference snapshots eval-mode semantics; call "
            "model.eval() first (found an active Dropout)")


def _run(steps: list) -> None:
    for f, args in steps:
        f(*args)


def _run_head(head: tuple) -> np.ndarray:
    f, args, bias, shape = head
    out = f(*args)
    if bias is not None:
        out += bias
    return out if shape is None else out.reshape(shape)


def _bind_attend(b: _Arena, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                 heads: int, head_dim: int, scale: float,
                 mask: Optional[np.ndarray]) -> np.ndarray:
    """Scaled dot-product attention of bound ``(batch, len, dim)``
    projections; returns the merged-heads context buffer.  The softmax
    runs in place on the score buffer (same elementwise arithmetic as the
    eager shift/exp/normalize).  A binding by true lengths sums each
    softmax denominator over its row's true length only
    (:func:`_sum_by_length`); every other step runs over the whole padded
    batch, padded keys masked out."""
    batch, len_q, dim = q.shape
    len_k = k.shape[1]
    qh = q.reshape(batch, len_q, heads, head_dim).transpose(0, 2, 1, 3)
    kh = k.reshape(batch, len_k, heads, head_dim).transpose(0, 2, 1, 3)
    vh = v.reshape(batch, len_k, heads, head_dim).transpose(0, 2, 1, 3)
    merged = b.take(q.shape)
    scores = b.take((batch, heads, len_q, len_k))
    red = b.take((batch, heads, len_q, 1))
    context = b.take((batch, heads, len_q, head_dim))
    b.add(np.matmul, qh, kh.transpose(0, 1, 3, 2), scores)
    b.add(np.multiply, scores, scale, scores)
    if mask is not None:
        b.add(np.copyto, scores, NEG_INF, "same_kind", mask)
    b.add(np.maximum.reduce, scores, -1, None, red, True)
    b.add(np.subtract, scores, red, scores)
    b.add(np.exp, scores, scores)
    if b.segments is None:
        b.add(np.add.reduce, scores, -1, None, red, True)
    else:
        b.add(_sum_by_length, scores, red, b)
    b.add(np.true_divide, scores, red, scores)
    b.add(np.matmul, scores, vh, context)
    b.add(np.copyto, merged.reshape(batch, len_q, heads, head_dim),
          context.transpose(0, 2, 1, 3))
    b.give(scores, red, context)
    return merged


def _sum_by_length(scores: np.ndarray, red: np.ndarray, b: _Arena) -> None:
    """Softmax denominators by true lengths, one reduce per run of rows.
    Padded keys hold exact zeros here, but a pairwise sum over more than
    8 elements groups a zero-padded row unlike a solo one."""
    for rows, length in b.segments:
        np.add.reduce(scores[rows, :, :, :length], -1, None, red[rows], True)


class CompiledForward:
    """A model's forward compiled to flat programs of pure-ndarray steps.

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

    A program executes *bound* to one input shape: the first call with a
    given ``tokens.shape`` (and key-padding mask shape, or ``None``) binds
    the program's layers to preallocated buffers and precomputed views —
    a flat list of ``(ufunc, args)`` steps — and every later call with
    that shape copies its tokens (and mask) into the bound inputs, replays
    the steps and returns a freshly allocated output.  The effective
    weight snapshots are shared by all shapes of a program; every
    binding's buffers are views over the plan's shared scratch slots
    (:attr:`pool`), since only one call runs at a time, so a new binding
    allocates only where it needs a slot larger than any before it.
    ``binds`` counts real bindings; each program keeps at most
    ``_BIND_CACHE_CAP`` shapes bound.

    ``plan(tokens, lengths=...)`` runs a right-padded batch by true
    lengths: row ``i`` holds ``lengths[i]`` real tokens, attention masks
    the keys past them and sums each softmax denominator over them only,
    and each row's first ``lengths[i]`` outputs equal a solo forward of
    that row whenever the lengths share a class of
    :meth:`length_classes` (later rows are padding: computed, finite,
    meaningless).  Such a call binds per ``(batch, max_len)`` shape like
    any other, so a new mix of lengths at a bound shape costs no bind.
    """

    def __init__(self, model: Module, dtype: str = "float64") -> None:
        if str(dtype) not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}, got {dtype!r}")
        self.model = model
        self.dtype = np.dtype(dtype)
        self.pool = ScratchPool(self.dtype)
        self.binds = 0
        self.compiles = 0
        self._programs: Dict[tuple, _Program] = {}
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
        self._signature: Optional[tuple] = None
        self._length_tops: Optional[Tuple[int, ...]] = None
        self._refresh(self.signature())

    # ------------------------------------------------------------------
    @staticmethod
    def _weight_versions(sig: tuple) -> tuple:
        """The weight/bias/loose-parameter versions inside a signature.

        Parameter versions only ever grow, so a cached entry whose
        versions differ from the live ones can never be looked up again.
        """
        return tuple(entry[1:3] for entry in sig[0]), sig[1]

    def _lookup(self, sig: tuple) -> _Program:
        """The program for ``sig``, compiled (and the cache bounded) on a
        miss; a dropped program takes its bound shapes with it."""
        cache = self._programs
        entry = cache.get(sig)
        if entry is None:
            live = self._weight_versions(sig)
            for old in [k for k in cache if self._weight_versions(k) != live]:
                del cache[old]
            if len(cache) >= _PROGRAM_CACHE_CAP:
                del cache[next(iter(cache))]
            entry = cache[sig] = self._compile()
        return entry

    def _bind(self, key: tuple) -> _Arena:
        """Bind the current program to ``(tokens shape, mask shape, by
        length)``, dropping its least recently bound key beyond the cap."""
        arena = _Arena(self.pool, *key)
        self._program.bind(arena, *arena.inputs)
        bound = self._program.bound
        if len(bound) >= _BIND_CACHE_CAP:
            del bound[next(iter(bound))]
        bound[key] = arena
        self.binds += 1
        return arena

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

    def _cast(self, arr: np.ndarray) -> np.ndarray:
        if arr.dtype == self.dtype:
            return arr
        return arr.astype(self.dtype)

    def _causal(self, length: int) -> np.ndarray:
        """The ``(length, length)`` causal mask, memoized per length."""
        mask = self._mask_cache.get(("causal", length))
        if mask is None:
            if len(self._mask_cache) >= _MASK_CACHE_CAP:
                self._mask_cache.clear()
            mask = self._mask_cache[("causal", length)] = causal_mask(length)
        return mask

    # ------------------------------------------------------------------
    # layer compilers: each snapshots its weights once per program and
    # returns a binder ``bind(b, x, ...)`` that appends the layer's steps
    # for one concrete input shape and returns its output buffer
    # ------------------------------------------------------------------
    def _compile_linear(self, layer: Linear) -> Callable:
        """Linear step: ``x @ W_eff.T + b`` into a bound buffer, or — with
        ``final=True`` — as the head call that returns a fresh array.

        The effective weight is snapshot C-contiguous exactly as the
        eager path materializes it, and applied through the same
        transposed view, so the BLAS call — and its bit pattern — match.
        """
        w_eff = layer.weight.data
        if layer.mask is not None:
            w_eff = w_eff * layer.mask
        w_eff = self._cast(w_eff)
        w_t = w_eff.T
        bias = None if layer.bias is None else self._cast(layer.bias.data)
        out_features = layer.out_features

        def bind(b: _Arena, x: np.ndarray,
                 final: bool = False) -> Optional[np.ndarray]:
            if final:
                b.head = (np.matmul, (x, w_t), bias, None)
                return None
            out = b.take(x.shape[:-1] + (out_features,))
            b.add(np.matmul, x, w_t, out)
            if bias is not None:
                b.add(np.add, out, bias, out)
            return out

        return bind

    def _compile_norm(self, norm: LayerNorm) -> Callable:
        """Fused LayerNorm: the six eager ops as in-place steps on bound
        buffers, arithmetic replicated expression by expression."""
        gamma = self._cast(norm.gamma.data)
        beta = self._cast(norm.beta.data)
        eps = norm.eps

        def bind(b: _Arena, x: np.ndarray,
                 final: bool = False) -> Optional[np.ndarray]:
            # np.add.reduce + divide is exactly what ndarray.mean runs
            # (same pairwise summation, same division)
            dim = x.shape[-1]
            red_shape = x.shape[:-1] + (1,)
            mu = b.take(red_shape)
            var = b.take(red_shape)
            centered = b.take(x.shape)
            sq = b.take(x.shape)
            b.add(np.add.reduce, x, -1, None, mu, True)
            b.add(np.true_divide, mu, dim, mu)
            b.add(np.subtract, x, mu, centered)
            b.add(np.multiply, centered, centered, sq)
            b.add(np.add.reduce, sq, -1, None, var, True)
            b.add(np.true_divide, var, dim, var)
            # 1 / sqrt(var + eps), in place on the small (..., 1)
            # reduction buffer — the eager add/sqrt/div graph nodes
            b.add(np.add, var, eps, var)
            b.add(np.sqrt, var, var)
            b.add(np.divide, 1.0, var, var)
            b.add(np.multiply, centered, var, centered)
            b.add(np.multiply, centered, gamma, centered)
            if final:
                b.head = (np.add, (centered, beta), None, None)
                out = None
            else:
                out = b.take(x.shape)
                b.add(np.add, centered, beta, out)
            b.give(mu, var, centered, sq)
            return out

        return bind

    def _compile_attention(self, attn: MultiHeadAttention) -> Callable:
        """Multi-head attention: q/k/v projections, in-place softmax over
        the score buffer, output projection."""
        heads, head_dim = attn.num_heads, attn.head_dim
        scale = 1.0 / math.sqrt(attn.head_dim)
        lin_q = self._compile_linear(attn.q_proj)
        lin_k = self._compile_linear(attn.k_proj)
        lin_v = self._compile_linear(attn.v_proj)
        lin_out = self._compile_linear(attn.out_proj)

        def bind(b: _Arena, x_q: np.ndarray, x_kv: np.ndarray,
                 mask: Optional[np.ndarray]) -> np.ndarray:
            q, k, v = lin_q(b, x_q), lin_k(b, x_kv), lin_v(b, x_kv)
            merged = _bind_attend(b, q, k, v, heads, head_dim, scale, mask)
            b.give(q, k, v)
            out = lin_out(b, merged)
            b.give(merged)
            return out

        return bind

    def _compile_ffn_relu(self, ffn: FeedForward) -> Callable:
        """Transformer FFN: fc1 -> ReLU (in place) -> fc2."""
        fc1 = self._compile_linear(ffn.fc1)
        fc2 = self._compile_linear(ffn.fc2)

        def bind(b: _Arena, x: np.ndarray) -> np.ndarray:
            h = fc1(b, x)
            # eager relu is `x * (x > 0)`, not np.maximum — replicate it
            positive = b.take(h.shape, np.bool_)
            b.add(np.greater, h, 0, positive)
            b.add(np.multiply, h, positive, h)
            b.give(positive)
            out = fc2(b, h)
            b.give(h)
            return out

        return bind

    def _compile_ffn_gelu(self, fc1: Linear, fc2: Linear) -> Callable:
        """DistilBERT FFN: fc1 -> tanh-GELU -> fc2, the eager expression
        ``0.5 * h * (1 + tanh(c * (h + 0.044715 * h ** 3)))`` op by op."""
        lin1 = self._compile_linear(fc1)
        lin2 = self._compile_linear(fc2)
        gelu_c = self.dtype.type(_GELU_C)

        def bind(b: _Arena, x: np.ndarray) -> np.ndarray:
            h = lin1(b, x)
            t = b.take(h.shape)
            g = b.take(h.shape)
            b.add(np.power, h, 3, t)
            b.add(np.multiply, 0.044715, t, t)
            b.add(np.add, h, t, t)
            b.add(np.multiply, gelu_c, t, t)
            b.add(np.tanh, t, t)
            b.add(np.multiply, 0.5, h, g)
            b.add(np.add, 1.0, t, t)
            b.add(np.multiply, g, t, g)
            b.give(h, t)
            out = lin2(b, g)
            b.give(g)
            return out

        return bind

    # ------------------------------------------------------------------
    # architecture programs
    # ------------------------------------------------------------------
    def _compile_encoder_layer(self, layer: TransformerEncoderLayer) -> Callable:
        norm1 = self._compile_norm(layer.norm1)
        norm2 = self._compile_norm(layer.norm2)
        attn = self._compile_attention(layer.self_attn)
        ffn = self._compile_ffn_relu(layer.ffn)

        def bind(b: _Arena, x: np.ndarray,
                 attn_mask: Optional[np.ndarray]) -> np.ndarray:
            h = norm1(b, x)
            a = attn(b, h, h, attn_mask)
            b.give(h)
            b.add(np.add, x, a, a)
            h = norm2(b, a)
            f = ffn(b, h)
            b.give(h)
            b.add(np.add, a, f, f)
            b.give(a)
            return f

        return bind

    def _compile_decoder_layer(self, layer: TransformerDecoderLayer) -> Callable:
        norm1 = self._compile_norm(layer.norm1)
        norm2 = self._compile_norm(layer.norm2)
        norm3 = self._compile_norm(layer.norm3)
        self_attn = self._compile_attention(layer.self_attn)
        cross_attn = self._compile_attention(layer.cross_attn)
        ffn = self._compile_ffn_relu(layer.ffn)

        def bind(b: _Arena, x: np.ndarray, memory: np.ndarray,
                 self_mask: Optional[np.ndarray],
                 memory_mask: Optional[np.ndarray]) -> np.ndarray:
            h = norm1(b, x)
            a = self_attn(b, h, h, self_mask)
            b.give(h)
            b.add(np.add, x, a, a)
            h = norm2(b, a)
            c = cross_attn(b, h, memory, memory_mask)
            b.give(h)
            b.add(np.add, a, c, c)
            b.give(a)
            h = norm3(b, c)
            f = ffn(b, h)
            b.give(h)
            b.add(np.add, c, f, f)
            b.give(c)
            return f

        return bind

    def _compile_lm_encode(self, model: TransformerLM) -> Callable:
        """Token + position embedding and the encoder stack; the binder
        returns ``(embedding, memory)`` buffers."""
        embed_w = self._cast(model.embed.weight.data)
        pos = self._cast(model.pos)
        max_len = model.cfg.max_len
        encoders = [self._compile_encoder_layer(layer)
                    for layer in model.encoder]

        def bind(b: _Arena, tokens: np.ndarray,
                 attn_mask: Optional[np.ndarray]
                 ) -> Tuple[np.ndarray, np.ndarray]:
            batch, length = tokens.shape
            if length > max_len:
                raise ValueError(
                    f"sequence length {length} exceeds max_len {max_len}")
            emb = b.take((batch, length, embed_w.shape[1]))
            b.add(np.take, embed_w, tokens, 0, emb)
            b.add(np.add, emb, pos[:length], emb)
            x = emb
            for enc in encoders:
                y = enc(b, x, attn_mask)
                if x is not emb:
                    b.give(x)
                x = y
            return emb, x

        return bind

    def _compile_transformer_lm(self, model: TransformerLM) -> _Program:
        encode = self._compile_lm_encode(model)
        decoders = [self._compile_decoder_layer(layer)
                    for layer in model.decoder]
        final_norm = self._compile_norm(model.final_norm)
        lm_head = self._compile_linear(model.lm_head)

        def bind(b: _Arena, tokens: np.ndarray,
                 attn_mask: Optional[np.ndarray]) -> None:
            emb, memory = encode(b, tokens, attn_mask)
            causal = self._causal(tokens.shape[1])
            if attn_mask is None:
                self_mask = causal
            else:
                self_mask = b.take(np.broadcast_shapes(causal.shape,
                                                       attn_mask.shape),
                                   np.bool_)
                b.add(np.logical_or, causal, attn_mask, self_mask)
            # the eager path embeds the same tokens twice; every step
            # treats its input as read-only, so the source embedding is
            # still intact and serves as the decoder input directly
            y = emb
            for dec in decoders:
                z = dec(b, y, memory, self_mask, attn_mask)
                if y is not emb:
                    b.give(y)
                y = z
            lm_head(b, final_norm(b, y), final=True)

        return _Program(bind)

    def _compile_distilbert_layer(self, layer) -> Callable:
        attn = self._compile_attention(layer.attention)
        norm1 = self._compile_norm(layer.norm1)
        norm2 = self._compile_norm(layer.norm2)
        ffn = self._compile_ffn_gelu(layer.fc1, layer.fc2)

        def bind(b: _Arena, x: np.ndarray, attn_mask: Optional[np.ndarray],
                 final: bool = False) -> Optional[np.ndarray]:
            a = attn(b, x, x, attn_mask)
            b.add(np.add, x, a, a)
            h = norm1(b, a)
            b.give(a)
            f = ffn(b, h)
            b.add(np.add, h, f, f)
            b.give(h)
            out = norm2(b, f, final)
            b.give(f)
            return out

        return bind

    def _compile_distilbert(self, model: DistilBertModel) -> _Program:
        tok_w = self._cast(model.tok_embed.weight.data)
        pos_w = self._cast(model.pos_embed.weight.data)
        embed_norm = self._compile_norm(model.embed_norm)
        max_len = model.cfg.max_len
        layers = [self._compile_distilbert_layer(layer)
                  for layer in model.layers]

        def bind(b: _Arena, tokens: np.ndarray,
                 attn_mask: Optional[np.ndarray],
                 final: bool = True) -> Optional[np.ndarray]:
            batch, length = tokens.shape
            if length > max_len:
                raise ValueError(
                    f"sequence length {length} exceeds max_len {max_len}")
            emb = b.take((batch, length, tok_w.shape[1]))
            b.add(np.take, tok_w, tokens, 0, emb)
            b.add(np.add, emb, pos_w[:length], emb)
            x = embed_norm(b, emb, final and not layers)
            b.give(emb)
            for i, layer in enumerate(layers):
                y = layer(b, x, attn_mask, final and i == len(layers) - 1)
                b.give(x)
                x = y
            return x

        return _Program(bind)

    def _compile_distilbert_task(self,
                                 model: DistilBertForSequenceTask) -> _Program:
        bert = self._compile_distilbert(model.bert)
        pre = self._compile_linear(model.pre_classifier)
        head = self._compile_linear(model.classifier)
        is_regression = model.cfg.is_regression

        def bind(b: _Arena, tokens: np.ndarray,
                 attn_mask: Optional[np.ndarray]) -> None:
            hidden = bert.bind(b, tokens, attn_mask, final=False)
            pooled = pre(b, hidden[:, 0])
            b.give(hidden)
            positive = b.take(pooled.shape, np.bool_)
            b.add(np.greater, pooled, 0, positive)
            b.add(np.multiply, pooled, positive, pooled)
            head(b, pooled, final=True)
            if is_regression:
                b.head = b.head[:3] + ((tokens.shape[0],),)

        return _Program(bind)

    # ------------------------------------------------------------------
    def _refresh(self, sig: tuple) -> None:
        """Point the plan at the program for ``sig``, compiling on a miss."""
        # re-checked on every signature change, hit or miss: a model
        # flipped back to train mode must fail loudly rather than let
        # the plan silently keep eval (dropout-free) semantics
        require_eval(self._dropouts)
        self._program = self._lookup(sig)
        self._signature = sig

    def _compile(self) -> _Program:
        model = self.model
        if isinstance(model, TransformerLM):
            program = self._compile_transformer_lm(model)
        elif isinstance(model, DistilBertForSequenceTask):
            program = self._compile_distilbert_task(model)
        elif isinstance(model, DistilBertModel):
            program = self._compile_distilbert(model)
        else:
            raise UnsupportedModel(
                f"compile_inference supports TransformerLM and DistilBert* "
                f"models, not {type(model).__name__}")
        self.compiles += 1
        return program

    def length_classes(self) -> Tuple[int, ...]:
        """The padding classes of a forward by true lengths.

        ``tops[L]`` is the longest length ``L`` may be right-padded to,
        within one call, with every weight GEMM row and every attention
        row staying ``==``: two lengths with the same top may share a
        call.  Probed lazily, once per process per plan geometry
        (:func:`_regime_classes`).
        """
        if self._length_tops is None:
            shapes = tuple(sorted({(lin.in_features, lin.out_features)
                                   for lin in self._linears}))
            attention = tuple(sorted({(m.num_heads, m.head_dim)
                                      for m in self.model.modules()
                                      if isinstance(m, MultiHeadAttention)}))
            self._length_tops = _regime_classes(
                shapes, attention, self.model.cfg.max_len, self.dtype)
        return self._length_tops

    def __call__(self, tokens, attn_mask: Optional[np.ndarray] = None,
                 lengths: Optional[Sequence[int]] = None) -> np.ndarray:
        sig = self.signature()
        if sig != self._signature:
            # a parameter or mask changed since the last call
            self._refresh(sig)
        tokens = np.asarray(tokens.data if hasattr(tokens, "data") else tokens)
        if tokens.ndim != 2:
            raise ValueError("compiled forward expects (batch, length) tokens")
        if lengths is None:
            key = (tokens.shape,
                   None if attn_mask is None else attn_mask.shape, False)
        else:
            if attn_mask is not None:
                raise ValueError("lengths and attn_mask are exclusive: a "
                                 "forward by true lengths needs no padding "
                                 "mask")
            segments = _length_runs(lengths, *tokens.shape)
            key = (tokens.shape, (tokens.shape[0], 1, 1, tokens.shape[1]),
                   True)
        arena = self._program.bound.get(key)
        if arena is None:
            arena = self._bind(key)
        tok, mask = arena.inputs
        np.copyto(tok, tokens)
        if lengths is not None:
            arena.segments = segments
            arena.lengths[:] = lengths
        elif mask is not None:
            np.copyto(mask, attn_mask)
        _run(arena.steps)
        return _run_head(arena.head)


def _length_runs(lengths: Sequence[int], batch: int, max_len: int) -> tuple:
    """Runs of equal consecutive ``lengths`` as ``(rows slice, length)``
    pairs, one length per row, each in ``1..max_len``."""
    if len(lengths) != batch:
        raise ValueError(f"lengths has {len(lengths)} entries for a batch "
                         f"of {batch}")
    runs = []
    start = 0
    for length, rows in itertools.groupby(lengths):
        if not 1 <= length <= max_len:
            raise ValueError(f"length {length} outside 1..{max_len}")
        count = sum(1 for _ in rows)
        runs.append((slice(start, start + count), length))
        start += count
    return tuple(runs)


# padding classes probed in this process, keyed on plan geometry
_REGIME_CLASSES: Dict[tuple, Tuple[int, ...]] = {}


def _regime_classes(shapes: tuple, attention: tuple, max_len: int,
                    dtype: np.dtype) -> Tuple[int, ...]:
    """Class tops of lengths ``1..max_len`` for weight GEMMs ``shapes``
    and attention blocks ``attention`` (``(heads, head_dim)`` pairs).

    ``np.matmul`` runs one GEMM per batch item, so a row's bits depend on
    its item's row count M only through the BLAS kernel chosen for M.
    For each ``(in, out)`` shape the probe runs the plan's call form — a
    contiguous ``(1, M, in)`` input against the transposed view of a
    C-contiguous ``(out, in)`` weight.  Walking M down from ``max_len``,
    M stays in the current class while every row equals the first M rows
    of the class top's output and attention padded from M to any longer
    length of the class stays exact (:func:`_padded_attention_exact`);
    otherwise M opens a class.  Length 1 (a GEMV, never ``==`` a GEMM
    row) is always its own class.  Returns ``tops[M]``, M's class top.
    """
    key = (shapes, attention, max_len, dtype.str)
    tops = _REGIME_CLASSES.get(key)
    if tops is not None:
        return tops
    rng = np.random.default_rng(0)
    probes = []
    for k, n in shapes:
        x = rng.standard_normal((1, max_len, k)).astype(dtype)
        w_t = rng.standard_normal((n, k)).astype(dtype).T
        probes.append([np.matmul(np.ascontiguousarray(x[:, :m]), w_t)[0]
                       for m in range(max_len + 1)])
    exact = [_padded_attention_exact(heads, head_dim, max_len, dtype)
             for heads, head_dim in attention]
    found = [0] * (max_len + 1)
    top = max_len
    for m in range(max_len, 0, -1):
        if (m == 1
                or not all(np.array_equal(rows[m], rows[top][:m])
                           for rows in probes)
                or not all(ok[m, m + 1:top + 1].all() for ok in exact)):
            top = m
        found[m] = top
    tops = _REGIME_CLASSES[key] = tuple(found)
    return tops


def _padded_attention_exact(heads: int, head_dim: int, max_len: int,
                            dtype: np.dtype) -> np.ndarray:
    """``exact[l, P]``: the first ``l`` rows of attention over ``l`` true
    keys padded to ``P`` are ``==`` attention over ``l`` keys alone, under
    the key-padding mask (encoder, cross-attention) and the causal |
    key-padding mask (decoder).  Both sides run the plan's own steps
    (:func:`_bind_attend`): a binding by true lengths with one row per
    length ``1..P``, and a plain binding per solo length."""
    rng = np.random.default_rng(1)
    qkv = [rng.standard_normal((1, max_len, heads * head_dim)).astype(dtype)
           for _ in range(3)]
    pool = ScratchPool(dtype)

    def attend(lengths: List[int], padded: int, causal: bool) -> np.ndarray:
        batch = len(lengths)
        b = _Arena(pool, (batch, padded), None, False)
        mask = causal_mask(padded) if causal else None
        if batch > 1:  # by true lengths, under the mask the plan fills
            b.segments = _length_runs(lengths, batch, padded)
            keypad = np.arange(padded) >= np.reshape(lengths, (-1, 1, 1, 1))
            mask = keypad if mask is None else mask | keypad
        merged = _bind_attend(b, *[np.repeat(x[:, :padded], batch, axis=0)
                                   for x in qkv],
                              heads, head_dim, 1.0 / math.sqrt(head_dim), mask)
        _run(b.steps)
        return merged.copy()

    exact = np.ones((max_len + 1, max_len + 1), dtype=bool)
    for causal in (False, True):
        solo = [attend([n], n, causal)[0] for n in range(1, max_len + 1)]
        for padded in range(2, max_len + 1):
            out = attend(list(range(1, padded + 1)), padded, causal)
            for n, alone in enumerate(solo[:padded], 1):
                exact[n, padded] &= np.array_equal(out[n - 1, :n], alone)
    return exact


def compile_decode(model: Module, dtype: str = "float64",
                   plan: Optional[CompiledForward] = None) -> CompiledForward:
    """The plan a :class:`~repro.nn.generation.DecodeSession` step runs.

    A decode step is the last row of the full-sequence plan over the
    stream's context, so this is :func:`compile_inference` (or the
    shared ``plan``) restricted to ``TransformerLM``.  Raises
    :class:`UnsupportedModel` for any other architecture.
    """
    if not isinstance(model, TransformerLM):
        raise UnsupportedModel(
            f"compile_decode supports TransformerLM models, "
            f"not {type(model).__name__}")
    return plan if plan is not None else CompiledForward(model, dtype=dtype)


def compile_inference(model: Module, dtype: str = "float64") -> CompiledForward:
    """Compile ``model``'s eval-mode forward into a pure-ndarray plan.

    ``dtype`` selects the execution precision: ``"float64"`` (default)
    is bit-identical to the eager Tensor forward; ``"float32"`` runs the
    snapshots in single precision (opt-in, ~1e-5 relative deviation).
    Raises :class:`UnsupportedModel` for unknown architectures.
    """
    return CompiledForward(model, dtype=dtype)
