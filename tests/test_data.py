"""Data substrate: vocab, synthetic WikiText, synthetic GLUE, loaders."""

import numpy as np
import pytest

from repro.data.dataloader import BatchIterator, train_eval_split
from repro.data.glue import GLUE_TASKS, GlueTaskConfig, make_glue_task
from repro.data.vocab import SPECIAL_TOKENS, Vocabulary, zipf_probs
from repro.data.wikitext import SyntheticWikiText, WikiTextConfig, make_lm_batches


class TestVocabulary:
    def test_specials_first(self):
        v = Vocabulary()
        assert v.decode([0, 1, 2, 3]) == SPECIAL_TOKENS

    def test_add_and_encode(self):
        v = Vocabulary(["hello", "world"])
        ids = v.encode(["hello", "world", "hello"])
        assert ids[0] == ids[2] != ids[1]

    def test_unknown_maps_to_unk(self):
        v = Vocabulary(["a"])
        assert v.encode(["zzz"]) == [v.unk_id]

    def test_roundtrip(self):
        v = Vocabulary(["x", "y"])
        assert v.decode(v.encode(["x", "y"])) == ["x", "y"]

    def test_contains_and_len(self):
        v = Vocabulary(["q"])
        assert "q" in v and "nope" not in v
        assert len(v) == len(SPECIAL_TOKENS) + 1

    def test_synthetic_size(self):
        v = Vocabulary.synthetic(50)
        assert len(v) == 50

    def test_synthetic_too_small(self):
        with pytest.raises(ValueError):
            Vocabulary.synthetic(3)

    def test_zipf_probs_normalized_decreasing(self):
        p = zipf_probs(100)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) <= 0)


class TestSyntheticWikiText:
    def test_deterministic(self):
        a = SyntheticWikiText(WikiTextConfig(vocab_size=50, num_tokens=500, seed=1))
        b = SyntheticWikiText(WikiTextConfig(vocab_size=50, num_tokens=500, seed=1))
        assert np.array_equal(a.train_tokens, b.train_tokens)

    def test_seed_changes_corpus(self):
        a = SyntheticWikiText(WikiTextConfig(vocab_size=50, num_tokens=500, seed=1))
        b = SyntheticWikiText(WikiTextConfig(vocab_size=50, num_tokens=500, seed=2))
        assert not np.array_equal(a.train_tokens, b.train_tokens)

    def test_split_sizes(self):
        c = SyntheticWikiText(WikiTextConfig(vocab_size=50, num_tokens=1000))
        assert len(c.train_tokens) == 800
        assert len(c.valid_tokens) == 100
        assert len(c.test_tokens) == 100

    def test_tokens_in_vocab_range(self):
        c = SyntheticWikiText(WikiTextConfig(vocab_size=50, num_tokens=500))
        assert c.train_tokens.min() >= 0
        assert c.train_tokens.max() < 50

    def test_corpus_is_learnable(self):
        """Bigram statistics dominated by the chain's dominant successor."""
        cfg = WikiTextConfig(vocab_size=30, num_tokens=5000, dominant_prob=0.8)
        c = SyntheticWikiText(cfg)
        toks = c.train_tokens
        # empirical accuracy of the best bigram predictor
        from collections import Counter, defaultdict

        succ = defaultdict(Counter)
        for a, b in zip(toks[:-1], toks[1:]):
            succ[a][b] += 1
        correct = sum(c.most_common(1)[0][1] for c in succ.values())
        acc = correct / (len(toks) - 1)
        assert acc > 0.6  # far above chance (1/30)

    def test_batches_shapes_and_shift(self):
        c = SyntheticWikiText(WikiTextConfig(vocab_size=30, num_tokens=600))
        x, y = next(c.batches("train", seq_len=10, batch_size=4))
        assert x.shape == (4, 10) and y.shape == (4, 10)
        assert np.array_equal(x[0, 1:], y[0, :-1])  # targets are inputs shifted

    def test_make_lm_batches_validation(self):
        with pytest.raises(ValueError):
            list(make_lm_batches(np.arange(10), 0, 2))

    def test_make_lm_batches_tail_batch(self):
        batches = list(make_lm_batches(np.arange(100), seq_len=9, batch_size=4))
        assert batches[-1][0].shape[0] <= 4
        total = sum(b[0].shape[0] for b in batches)
        assert total == (100 - 1) // 9


class TestSyntheticGlue:
    def test_all_nine_tasks_generate(self):
        for task in GLUE_TASKS:
            data = make_glue_task(task, num_train=16, num_eval=8, seq_len=12)
            x, y = data.train
            assert x.shape == (16, 12)
            assert len(y) == 16

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            GlueTaskConfig(task="nope")

    def test_classification_labels_valid(self):
        data = make_glue_task("mnli", num_train=32, num_eval=8)
        assert set(np.unique(data.train[1])) <= {0, 1, 2}

    def test_regression_targets_in_glue_range(self):
        data = make_glue_task("stsb", num_train=32, num_eval=8)
        y = data.train[1]
        assert y.dtype.kind == "f"
        assert y.min() >= 0.0 and y.max() <= 5.0

    def test_pair_tasks_have_separator(self):
        data = make_glue_task("rte", num_train=4, num_eval=2, seq_len=16)
        x, _ = data.train
        assert (x == data.vocab.eos_id).any(axis=1).all()

    def test_single_sentence_tasks_have_no_separator(self):
        data = make_glue_task("sst2", num_train=4, num_eval=2, seq_len=16)
        x, _ = data.train
        assert not (x == data.vocab.eos_id).any()

    def test_cls_prefix(self):
        data = make_glue_task("rte", num_train=4, num_eval=2)
        x, _ = data.train
        assert (x[:, 0] == data.vocab.bos_id).all()

    def test_deterministic_given_seed(self):
        a = make_glue_task("qnli", num_train=8, num_eval=4, seed=3)
        b = make_glue_task("qnli", num_train=8, num_eval=4, seed=3)
        assert np.array_equal(a.train[0], b.train[0])

    def test_signal_strength_validation(self):
        with pytest.raises(ValueError):
            GlueTaskConfig(task="rte", signal_strength=0.3)

    def test_task_is_learnable_by_token_counting(self):
        """A trivial signal-token counter should beat chance."""
        data = make_glue_task("sst2", num_train=200, num_eval=1, signal_strength=0.95)
        x, y = data.train
        sig1 = set(data.signal_tokens[1].tolist())
        score = np.array([[t in sig1 for t in row].count(True) for row in x])
        pred = (score > np.median(score)).astype(int)
        assert (pred == y).mean() > 0.7

    def test_metric_key_matches_convention(self):
        assert make_glue_task("cola").metric == "mcc"
        assert make_glue_task("stsb").metric == "spearman"
        assert make_glue_task("qqp").metric == "f1"
        assert make_glue_task("rte").metric == "accuracy"


class TestDataloader:
    def test_batch_iterator_covers_everything(self):
        x = np.arange(25).reshape(25, 1)
        y = np.arange(25)
        seen = []
        for bx, by in BatchIterator(x, y, batch_size=4, seed=0):
            assert len(bx) == len(by)
            seen.extend(by.tolist())
        assert sorted(seen) == list(range(25))

    def test_batch_iterator_len(self):
        it = BatchIterator(np.zeros((10, 1)), np.zeros(10), batch_size=3)
        assert len(it) == 4

    def test_no_shuffle_preserves_order(self):
        x = np.arange(6).reshape(6, 1)
        it = BatchIterator(x, np.arange(6), batch_size=2, shuffle=False)
        first = next(iter(it))
        assert np.array_equal(first[1], [0, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BatchIterator(np.zeros((3, 1)), np.zeros(4), batch_size=2)

    def test_train_eval_split_disjoint_and_complete(self):
        x = np.arange(20).reshape(20, 1)
        y = np.arange(20)
        (tx, ty), (ex, ey) = train_eval_split(x, y, eval_fraction=0.25, seed=1)
        assert len(ty) == 15 and len(ey) == 5
        assert set(ty) | set(ey) == set(range(20))
        assert not set(ty) & set(ey)

    def test_split_fraction_validation(self):
        with pytest.raises(ValueError):
            train_eval_split(np.zeros((4, 1)), np.zeros(4), eval_fraction=1.5)
