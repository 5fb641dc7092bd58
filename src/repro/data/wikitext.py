"""Synthetic WikiText-2-like language-modelling corpus.

WikiText-2 itself is not available offline.  The substitute is a corpus
sampled from a sparse first-order Markov chain over a Zipf-distributed
vocabulary.  Why this preserves the paper's behaviour: the LM experiments
only consume *next-word prediction accuracy as a function of model
capacity/sparsity*.  A Markov corpus has (a) learnable structure, so a
small transformer achieves high accuracy when dense; (b) enough entropy
that pruning degrades accuracy smoothly rather than cliffing; and (c) a
deterministic seed, so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.data.vocab import Vocabulary, zipf_probs


@dataclass
class WikiTextConfig:
    """Parameters of the synthetic corpus.

    ``branching`` controls per-token ambiguity: each context token has this
    many plausible successors, so the Bayes-optimal accuracy is roughly
    the weight of the dominant successor — tunable difficulty.
    """

    vocab_size: int = 200
    num_tokens: int = 20_000
    branching: int = 4
    dominant_prob: float = 0.72
    zipf_alpha: float = 1.1
    seed: int = 7


class SyntheticWikiText:
    """Deterministic Markov-chain token stream + train/valid/test splits."""

    def __init__(self, cfg: WikiTextConfig = WikiTextConfig()) -> None:
        self.cfg = cfg
        self.vocab = Vocabulary.synthetic(cfg.vocab_size)
        self._rng = np.random.default_rng(cfg.seed)
        self._transitions = self._build_chain()
        tokens = self._sample_tokens(cfg.num_tokens)
        n = len(tokens)
        self.train_tokens = tokens[: int(0.8 * n)]
        self.valid_tokens = tokens[int(0.8 * n): int(0.9 * n)]
        self.test_tokens = tokens[int(0.9 * n):]

    def _build_chain(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-token successor ids and probabilities.

        Successors are drawn from a Zipf marginal so frequent words remain
        frequent; the first successor carries ``dominant_prob`` mass.
        """
        cfg = self.cfg
        v = cfg.vocab_size
        marginal = zipf_probs(v, cfg.zipf_alpha)
        successors = np.zeros((v, cfg.branching), dtype=np.int64)
        probs = np.zeros((v, cfg.branching), dtype=np.float64)
        rest = (1.0 - cfg.dominant_prob)
        tail = np.full(cfg.branching - 1, rest / (cfg.branching - 1))
        for tok in range(v):
            successors[tok] = self._rng.choice(v, size=cfg.branching, replace=False, p=marginal)
            probs[tok, 0] = cfg.dominant_prob
            probs[tok, 1:] = tail
        return successors, probs

    def _sample_tokens(self, n: int) -> np.ndarray:
        succ, probs = self._transitions
        tokens = np.empty(n, dtype=np.int64)
        state = int(self._rng.integers(self.cfg.vocab_size))
        for i in range(n):
            tokens[i] = state
            nxt = self._rng.choice(self.cfg.branching, p=probs[state])
            state = int(succ[state, nxt])
        return tokens

    def batches(self, split: str, seq_len: int, batch_size: int
                ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        tokens = {"train": self.train_tokens, "valid": self.valid_tokens,
                  "test": self.test_tokens}[split]
        yield from make_lm_batches(tokens, seq_len, batch_size)


def make_lm_batches(tokens: np.ndarray, seq_len: int, batch_size: int
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(inputs, targets)`` pairs with targets shifted by one token."""
    if seq_len < 1 or batch_size < 1:
        raise ValueError("seq_len and batch_size must be positive")
    window = seq_len + 1
    num_windows = (len(tokens) - 1) // seq_len
    batch_x, batch_y = [], []
    for w in range(num_windows):
        start = w * seq_len
        chunk = tokens[start: start + window]
        if len(chunk) < window:
            break
        batch_x.append(chunk[:-1])
        batch_y.append(chunk[1:])
        if len(batch_x) == batch_size:
            yield np.stack(batch_x), np.stack(batch_y)
            batch_x, batch_y = [], []
    if batch_x:
        yield np.stack(batch_x), np.stack(batch_y)
