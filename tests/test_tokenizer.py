"""Word-level tokenizer and raw-text corpus pipeline."""

import numpy as np
import pytest

from repro.data.tokenizer import TextCorpus, build_vocab, tokenize
from repro.data.vocab import Vocabulary

SAMPLE = """
The quick brown fox jumps over the lazy dog . The dog sleeps , the fox
runs away . A quick fox is a happy fox ; the dog dreams of bones .
""" * 5


class TestTokenize:
    def test_splits_words_and_punct(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_case_preserved_when_asked(self):
        assert tokenize("Hello", lowercase=False) == ["Hello"]

    def test_numbers_kept(self):
        assert tokenize("at 1400 MHz") == ["at", "1400", "mhz"]

    def test_empty(self):
        assert tokenize("") == []


class TestBuildVocab:
    def test_frequency_ordering(self):
        v = build_vocab(["a", "b", "a", "a", "b", "c"])
        ids = v.encode(["a", "b", "c"])
        assert ids[0] < ids[1] < ids[2]

    def test_max_size_cap(self):
        v = build_vocab(["a", "b", "c", "d"], max_size=6)
        assert len(v) == 6  # 4 specials + 2 most frequent

    def test_min_freq_filter(self):
        v = build_vocab(["a", "a", "b"], min_freq=2)
        assert "a" in v and "b" not in v

    def test_max_size_too_small(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], max_size=4)


class TestTextCorpus:
    def test_from_text_splits(self):
        corpus = TextCorpus.from_text(SAMPLE)
        n = len(corpus.tokens)
        assert len(corpus.train_tokens) == int(0.8 * n)
        assert len(corpus.test_tokens) == n - int(0.9 * n)

    def test_stats(self):
        corpus = TextCorpus.from_text(SAMPLE, max_vocab=10)
        assert len(corpus.vocab) == 10
        assert 0.0 < (corpus.tokens == corpus.vocab.unk_id).mean() < 1.0

    def test_no_unk_with_full_vocab(self):
        corpus = TextCorpus.from_text(SAMPLE)
        assert not (corpus.tokens == corpus.vocab.unk_id).any()

    def test_batches_interface_matches_synthetic(self):
        corpus = TextCorpus.from_text(SAMPLE)
        x, y = next(corpus.batches("train", seq_len=8, batch_size=2))
        assert x.shape == (2, 8)
        assert np.array_equal(x[0, 1:], y[0, :-1])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            TextCorpus.from_text("tiny")

    def test_bad_splits_rejected(self):
        with pytest.raises(ValueError):
            TextCorpus(np.arange(100), Vocabulary(), splits=(0.9, 0.8))

    def test_lm_task_runs_on_text_corpus(self):
        """The whole point: LMTask accepts raw-text corpora unchanged."""
        from repro.core.tasks import LMTask
        from repro.core.trainer import train_plain
        from repro.nn.transformer import TransformerConfig, TransformerLM

        corpus = TextCorpus.from_text(SAMPLE)
        model = TransformerLM(TransformerConfig(
            vocab_size=len(corpus.vocab), dim=16, num_heads=2, ffn_dim=32,
            max_len=16, dropout=0.0))
        task = LMTask(model, corpus, seq_len=8, batch_size=4,
                      max_train_batches=4, max_eval_batches=2)
        losses = train_plain(task, epochs=2, lr=3e-3)
        assert losses[-1] < losses[0]
        assert 0.0 <= task.evaluate() <= 1.0
