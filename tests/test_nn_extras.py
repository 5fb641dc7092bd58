"""MaskedAdam, generation, and the fit() training loop."""

import numpy as np
import pytest

from repro.core.block_pruning import BlockPruningConfig, apply_block_pruning
from repro.nn import FitConfig, MaskedAdam, fit
from repro.nn.generation import (
    DecodeSession,
    GenerationConfig,
    generate_with_deadline,
)
from repro.nn.lr_scheduler import StepLR
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.nn.transformer import TransformerLM
from repro.tensor.tensor import Tensor

from tests.conftest import TINY_TRANSFORMER


class TestMaskedAdam:
    def _step_n(self, opt, p, n, grad):
        for _ in range(n):
            p.grad = grad.copy()
            opt.step()

    def test_frozen_positions_pinned_to_zero(self):
        p = Parameter(np.ones((2, 2)))
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])
        p.data *= mask
        opt = MaskedAdam([p], lr=0.1, weight_decay=0.5,
                         freeze_masks={id(p): mask})
        self._step_n(opt, p, 10, np.ones((2, 2)))
        assert p.data[0, 1] == 0.0
        assert p.data[0, 0] != 1.0  # live positions still train

    def test_plain_adam_lets_masked_weights_drift(self):
        """The failure mode MaskedAdam exists to prevent."""
        p = Parameter(np.zeros((2, 2)))
        opt = Adam([p], lr=0.1)
        self._step_n(opt, p, 5, np.ones((2, 2)))
        assert np.all(p.data != 0.0)  # every position moved, mask or not

    def test_moments_scrubbed(self):
        p = Parameter(np.zeros((2, 2)))
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])
        opt = MaskedAdam([p], lr=0.1, freeze_masks={id(p): mask})
        self._step_n(opt, p, 3, np.ones((2, 2)))
        assert opt._m[0][0, 1] == 0.0
        assert opt._v[0][0, 1] == 0.0

    def test_for_backbone_builder(self, tiny_transformer):
        report = apply_block_pruning(tiny_transformer,
                                     BlockPruningConfig(num_blocks=2, rate=0.4))
        opt = MaskedAdam.for_backbone(tiny_transformer, report.masks, lr=1e-3)
        # one freeze mask per pruned layer
        assert len(opt.freeze_masks) == len(report.masks)
        # a training step keeps the masked weights exactly zero
        toks = np.random.default_rng(0).integers(0, 60, size=(2, 8))
        tgt = np.random.default_rng(1).integers(0, 60, size=(2, 8))
        loss = tiny_transformer.loss(Tensor(toks), Tensor(tgt))
        opt.zero_grad()
        loss.backward()
        opt.step()
        from repro.nn.layers import prunable_linears

        for name, layer in prunable_linears(tiny_transformer).items():
            dead = report.masks[name] == 0.0
            assert np.all(layer.weight.data[dead] == 0.0), name


def continue_prompt(model, prompt, max_new_tokens, **sampling):
    """One stream through a fresh session (greedy unless ``top_k``)."""
    session = DecodeSession(model, GenerationConfig(
        max_new_tokens=max_new_tokens, **sampling))
    sid = session.submit_prompt(prompt)
    session.run()
    return session.result(sid)


class TestGeneration:
    @pytest.fixture()
    def model(self):
        return TransformerLM(TINY_TRANSFORMER)

    def test_greedy_deterministic(self, model):
        prompt = np.array([1, 2, 3])
        a = continue_prompt(model, prompt, 5)
        b = continue_prompt(model, prompt, 5)
        assert np.array_equal(a.generated, b.generated)
        assert len(a.generated) == 5
        assert len(a.logprobs) == 5

    def test_tokens_in_vocab(self, model):
        out = continue_prompt(model, np.array([0]), 8)
        assert out.generated.min() >= 0
        assert out.generated.max() < model.cfg.vocab_size

    def test_topk_sampling_varies_with_seed(self, model):
        prompt = np.array([1, 2])
        outs = {tuple(continue_prompt(model, prompt, 6, top_k=10,
                                      seed=s).generated)
                for s in range(5)}
        assert len(outs) > 1

    def test_context_truncated_to_max_len(self, model):
        prompt = np.arange(model.cfg.max_len + 10) % model.cfg.vocab_size
        out = continue_prompt(model, prompt, 2)
        assert len(out.tokens) == len(prompt) + 2

    def test_validation(self, model):
        with pytest.raises(ValueError):
            continue_prompt(model, np.array([1]), 0)
        with pytest.raises(ValueError):
            continue_prompt(model, np.array([]), 3)
        with pytest.raises(ValueError):
            continue_prompt(model, np.array([1]), 3, temperature=0.0)

    def test_generate_with_deadline_flags(self, model):
        from repro.hardware.dvfs import DVFSTable
        from repro.hardware.workload import paper_scale_transformer

        wl = paper_scale_transformer()
        l6 = DVFSTable()["l6"]
        _, met_loose = generate_with_deadline(model, np.array([1]), 3, wl, l6,
                                              deadline_s=10.0, sparsity=0.5)
        _, met_tight = generate_with_deadline(model, np.array([1]), 3, wl, l6,
                                              deadline_s=1e-5, sparsity=0.5)
        assert all(met_loose) and not any(met_tight)


class TestFit:
    def test_history_and_improvement(self, lm_task):
        history = fit(lm_task, FitConfig(epochs=3, lr=3e-3))
        assert len(history.train_loss) == 3
        assert len(history.eval_score) == 3
        assert history.train_loss[-1] < history.train_loss[0]

    def test_restore_best(self, lm_task):
        history = fit(lm_task, FitConfig(epochs=3, lr=3e-3, restore_best=True))
        # after restore, the model evaluates at (>=) the best recorded score
        assert lm_task.evaluate() >= max(history.eval_score) - 1e-9

    def test_early_stopping(self, lm_task):
        # patience 1 with an impossible min_delta stops after 2 epochs
        history = fit(lm_task, FitConfig(epochs=50, lr=3e-3, patience=1,
                                         min_delta=2.0))
        assert len(history.train_loss) <= 3

    def test_scheduler_applied(self, lm_task):
        opt = Adam(lm_task.model.parameters(), lr=1.0e-3)
        sched = StepLR(opt, step_size=1, gamma=0.5)
        history = fit(lm_task, FitConfig(epochs=3), optimizer=opt, scheduler=sched)
        assert history.lr[0] > history.lr[-1]

    def test_callback_invoked(self, lm_task):
        seen = []
        fit(lm_task, FitConfig(epochs=2, lr=3e-3),
            on_epoch_end=lambda e, h: seen.append(e))
        assert seen == [0, 1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(epochs=0)
        with pytest.raises(ValueError):
            FitConfig(patience=0)
