"""Word-level tokenization and corpus building from raw text.

The synthetic corpus (:mod:`repro.data.wikitext`) is the offline default,
but the LM pipeline accepts any token stream.  This module provides the
WikiText-convention word-level path: whitespace/punctuation tokenization,
frequency-capped vocabulary with ``<unk>`` replacement, and a
:class:`TextCorpus` exposing the same ``batches()`` interface as
:class:`~repro.data.wikitext.SyntheticWikiText`, so a real WikiText-2
download slots in without touching the training code.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.vocab import Vocabulary
from repro.data.wikitext import make_lm_batches

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str, lowercase: bool = True) -> List[str]:
    """Split text into word and punctuation tokens (WikiText convention)."""
    if lowercase:
        text = text.lower()
    return _TOKEN_RE.findall(text)


def build_vocab(tokens: Iterable[str], max_size: Optional[int] = None,
                min_freq: int = 1) -> Vocabulary:
    """Frequency-sorted vocabulary with optional size/frequency caps."""
    counts = Counter(tokens)
    kept = [tok for tok, freq in counts.most_common() if freq >= min_freq]
    if max_size is not None:
        budget = max_size - 4  # the four specials
        if budget <= 0:
            raise ValueError("max_size must exceed the 4 special tokens")
        kept = kept[:budget]
    return Vocabulary(kept)


class TextCorpus:
    """Raw-text LM corpus with train/valid/test splits.

    Provides ``batches(split, seq_len, batch_size)`` like the synthetic
    corpus, so :class:`repro.core.tasks.LMTask` works on either.
    """

    def __init__(self, tokens: np.ndarray, vocab: Vocabulary,
                 splits: Tuple[float, float] = (0.8, 0.9)) -> None:
        if not 0.0 < splits[0] < splits[1] < 1.0:
            raise ValueError("splits must satisfy 0 < a < b < 1")
        self.vocab = vocab
        self.tokens = np.asarray(tokens, dtype=np.int64)
        n = len(self.tokens)
        a, b = int(splits[0] * n), int(splits[1] * n)
        self.train_tokens = self.tokens[:a]
        self.valid_tokens = self.tokens[a:b]
        self.test_tokens = self.tokens[b:]

    @classmethod
    def from_text(cls, text: str, max_vocab: Optional[int] = None,
                  min_freq: int = 1, lowercase: bool = True,
                  splits: Tuple[float, float] = (0.8, 0.9)) -> "TextCorpus":
        words = tokenize(text, lowercase=lowercase)
        if len(words) < 10:
            raise ValueError("corpus too small to split")
        vocab = build_vocab(words, max_size=max_vocab, min_freq=min_freq)
        ids = np.asarray(vocab.encode(words), dtype=np.int64)
        return cls(ids, vocab, splits=splits)

    def batches(self, split: str, seq_len: int, batch_size: int
                ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        tokens = {"train": self.train_tokens, "valid": self.valid_tokens,
                  "test": self.test_tokens}[split]
        yield from make_lm_batches(tokens, seq_len, batch_size)
