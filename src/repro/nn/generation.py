"""Autoregressive generation for :class:`~repro.nn.transformer.TransformerLM`.

Supports the paper's deployment story ("local language translation for
on-line interactive events"): greedy and top-k sampling continuations, and
a latency-budgeted helper that reports whether each generated token met
its per-token deadline under a hardware model — the per-token analogue of
the per-inference timing constraint T.

The public surface is :class:`GenerationConfig` (the sampling knobs as one
value object) plus :class:`DecodeSession` (``submit_prompt`` / ``step`` /
``finished``): a session owns a set of decode streams, advances every
unfinished stream by one token per ``step`` and runs their contexts,
right-padded, through the compiled full-sequence plan
(:class:`~repro.nn.inference.CompiledForward`) by true lengths, taking
row ``L - 1`` of each stream's output as its next-token logits.  One
plan call covers every stream whose context length falls in one padding
class (on the serve shape under OpenBLAS: every length above 1).
Streams may be submitted at any point — they join the rolling
batch at the next token boundary — and each stream's float64 output is
bit-identical (``==``) to running it alone through the eager Tensor
forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.inference import CompiledForward, compile_decode
from repro.nn.transformer import TransformerLM
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.config import require

__all__ = ["DecodeSession", "GenerationConfig", "GenerationResult",
           "generate_with_deadline", "sample_token"]


@dataclass
class GenerationResult:
    """Tokens plus per-step bookkeeping."""

    tokens: np.ndarray  # (prompt + generated,)
    generated: np.ndarray  # just the continuation
    logprobs: List[float]


@dataclass
class GenerationConfig:
    """Per-stream sampling knobs, replacing the old kwarg sprawl.

    ``top_k=None`` is greedy decoding; otherwise sample from the top-k
    renormalized probabilities at the given temperature with a
    per-stream ``default_rng(seed)``.  ``eos_id`` (optional) ends the
    stream early once that token is emitted — the eos token itself is
    kept in the continuation.
    """

    max_new_tokens: int = 16
    top_k: Optional[int] = None
    temperature: float = 1.0
    seed: Optional[int] = None
    eos_id: Optional[int] = None

    def validate(self) -> "GenerationConfig":
        require(self.max_new_tokens >= 1, "max_new_tokens",
                "max_new_tokens must be >= 1")
        # NaN passes a bare `<= 0` check and then poisons the softmax
        require(math.isfinite(self.temperature) and self.temperature > 0,
                "temperature",
                f"temperature must be positive and finite, "
                f"got {self.temperature}")
        require(self.top_k is None or self.top_k >= 1, "top_k",
                "top_k must be >= 1 when given")
        return self


def sample_token(logits: np.ndarray, cfg: GenerationConfig,
                 rng: Optional[np.random.Generator]) -> Tuple[int, float]:
    """One sampling step on float64 next-token ``logits``.

    Expression-for-expression the historical ``generate()`` arithmetic
    (shift-max softmax, top-k renormalize, one ``rng.choice`` draw), so
    bit-identical logits yield identical tokens and logprobs.  Greedy
    decoding (``cfg.top_k is None``) never draws, so ``rng`` may be
    ``None`` there.
    """
    logits = logits / cfg.temperature
    logits = logits - logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    if cfg.top_k is None:
        nxt = int(probs.argmax())
    else:
        k = min(cfg.top_k, len(probs))
        top = np.argsort(probs)[::-1][:k]
        p = probs[top] / probs[top].sum()
        nxt = int(rng.choice(top, p=p))
    return nxt, float(np.log(probs[nxt] + 1e-12))


class _Stream:
    __slots__ = ("sid", "tokens", "prompt_len", "cfg", "rng", "logprobs",
                 "emitted", "done")

    def __init__(self, sid: int, prompt: np.ndarray,
                 cfg: GenerationConfig) -> None:
        self.sid = sid
        self.tokens = prompt.copy()
        self.prompt_len = len(prompt)
        self.cfg = cfg
        # seeded at submission; greedy streams never draw
        self.rng = (None if cfg.top_k is None
                    else np.random.default_rng(cfg.seed))
        self.logprobs: List[float] = []
        self.emitted = 0
        self.done = False


class DecodeSession:
    """A rolling batch of decode streams over one model.

    ``submit_prompt`` opens a stream (joining at the next token
    boundary), ``step`` advances every unfinished stream by exactly one
    token, ``finished``/``result`` read a stream out.  Each step groups
    the streams by the padding class of their context length
    (:meth:`~repro.nn.inference.CompiledForward.length_classes`) and
    makes one plan call per class over the right-padded contexts, padded
    keys masked out of attention — so every stream's tokens and
    logprobs are bit-identical to a solo run regardless of what joins or
    leaves the batch around it.

    ``compiled=True`` (default) runs each class's ``(G, L_max)``
    contexts through the model's compiled
    :class:`~repro.nn.inference.CompiledForward` plan and keeps row
    ``L - 1`` of each stream (pass ``plan=`` to share one plan across
    sessions, as the serving engine does); ``compiled=False`` keeps the
    eager per-stream Tensor forward under ``no_grad`` — same bits, no
    plan, the reference the compiled path is checked against.  The
    session puts the model in eval mode and leaves it there; callers
    that need train mode back restore it themselves.
    """

    def __init__(self, model: TransformerLM,
                 config: Optional[GenerationConfig] = None, *,
                 compiled: bool = True, dtype: str = "float64",
                 plan: Optional[CompiledForward] = None) -> None:
        self.model = model
        self.config = (config or GenerationConfig()).validate()
        model.eval()
        self.plan: Optional[CompiledForward] = (
            compile_decode(model, dtype=dtype, plan=plan) if compiled
            else None)
        self._max_len = model.cfg.max_len
        self._streams: Dict[int, _Stream] = {}
        # the unfinished subset of _streams, which keeps every stream
        # for result()
        self._active: Dict[int, _Stream] = {}
        self._next_sid = 0

    # ------------------------------------------------------------------
    def submit_prompt(self, prompt: np.ndarray,
                      config: Optional[GenerationConfig] = None) -> int:
        """Open a new stream; returns its id.  The stream joins the
        rolling batch at the next ``step`` boundary."""
        cfg = (config or self.config).validate()
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("prompt cannot be empty")
        sid = self._next_sid
        self._next_sid += 1
        self._streams[sid] = self._active[sid] = _Stream(sid, prompt, cfg)
        return sid

    def finished(self, stream_id: Optional[int] = None) -> bool:
        """Whether one stream (or, with no argument, all of them) is done."""
        if stream_id is not None:
            return self._streams[stream_id].done
        return not self._active

    def step(self) -> Dict[int, int]:
        """Advance every unfinished stream one token; ``{sid: token}``."""
        if not self._active:
            return {}
        # a snapshot: _emit retires finished streams from _active
        active = list(self._active.values())
        emitted: Dict[int, int] = {}
        if self.plan is None:
            for s in active:
                context = s.tokens[-self._max_len:]
                with no_grad():
                    logits = self.model(Tensor(context[None, :])).data[0, -1]
                self._emit(s, logits, emitted)
            return emitted
        max_len = self._max_len
        tops = self.plan.length_classes()
        classes: Dict[int, List[_Stream]] = {}
        for s in sorted(active, key=lambda s: len(s.tokens)):
            classes.setdefault(tops[min(len(s.tokens), max_len)],
                               []).append(s)
        for members in classes.values():
            lengths = [min(len(s.tokens), max_len) for s in members]
            contexts = np.zeros((len(members), lengths[-1]), dtype=np.int64)
            for row, s, length in zip(contexts, members, lengths):
                row[:length] = s.tokens[-max_len:]
            out = self.plan(contexts, lengths=lengths)
            logits = out[np.arange(len(members)), np.subtract(lengths, 1)]
            for i, s in enumerate(members):
                self._emit(s, logits[i], emitted)
        return emitted

    def _emit(self, s: _Stream, logits: np.ndarray,
              emitted: Dict[int, int]) -> None:
        nxt, logprob = sample_token(logits, s.cfg, s.rng)
        s.tokens = np.append(s.tokens, nxt)
        s.logprobs.append(logprob)
        s.emitted += 1
        emitted[s.sid] = nxt
        if (s.emitted >= s.cfg.max_new_tokens
                or (s.cfg.eos_id is not None and nxt == s.cfg.eos_id)):
            s.done = True
            del self._active[s.sid]

    def run(self) -> None:
        """Step until every stream has finished."""
        while not self.finished():
            self.step()

    def result(self, stream_id: int) -> GenerationResult:
        s = self._streams[stream_id]
        return GenerationResult(s.tokens, s.tokens[s.prompt_len:],
                                s.logprobs)


def _decode_one(model: TransformerLM, prompt: np.ndarray,
                cfg: GenerationConfig) -> GenerationResult:
    """Continue one prompt to completion through a private session."""
    session = DecodeSession(model, cfg)
    sid = session.submit_prompt(prompt)
    session.run()
    return session.result(sid)


def generate_with_deadline(model: TransformerLM, prompt: np.ndarray,
                           max_new_tokens: int, workload, level,
                           deadline_s: float, sparsity: float,
                           latency_model=None) -> Tuple[GenerationResult, List[bool]]:
    """Generate while checking each token's predicted on-device latency.

    Returns the generation plus a per-token "met deadline" list computed
    from the hardware model for the configured (level, sparsity).  Useful
    for the interactive-translation scenario where the constraint applies
    per produced token.
    """
    from repro.hardware.latency import LatencyModel, SparsityKind

    lm = latency_model or LatencyModel()
    per_token = lm.latency_s(workload, level, sparsity, SparsityKind.PATTERN)
    result = _decode_one(model, prompt,
                         GenerationConfig(max_new_tokens=max_new_tokens))
    met = [per_token <= deadline_s] * len(result.generated)
    return result, met
