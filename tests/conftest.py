"""Shared fixtures: tiny models, corpora and tasks reused across tests.

Session scope keeps the suite fast — tests must not mutate these fixtures
in place unless they snapshot/restore (module-scoped copies are provided
for mutating tests).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tasks import GlueTask, LMTask
from repro.data.glue import GlueTaskConfig, SyntheticGlueTask
from repro.data.wikitext import SyntheticWikiText, WikiTextConfig
from repro.nn.distilbert import DistilBertConfig, DistilBertForSequenceTask
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve.batcher import AdmissionQueue


TINY_TRANSFORMER = TransformerConfig(
    vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
    num_encoder_layers=2, num_decoder_layers=1, max_len=16, dropout=0.0, seed=3,
)

TINY_DISTILBERT = DistilBertConfig(
    vocab_size=80, dim=32, num_heads=2, ffn_dim=64,
    num_layers=2, max_len=24, dropout=0.0, num_labels=2, seed=3,
)


def admission_batches(requests, max_batch=8, window_s=0.05, key_fn=None):
    """Group a known trace the way the streaming loop does.

    Replays the requests (sorted by arrival, ties by id) through an
    :class:`AdmissionQueue`, closing windows that expired strictly before
    each arrival first — the loop's arrival-before-window-close order.
    """
    queue = AdmissionQueue(max_batch, window_s, key_fn)
    groups = []
    for req in sorted(requests, key=lambda r: (r.arrival_s, r.req_id)):
        groups.extend(queue.close_due(req.arrival_s, strict=True))
        full, _ = queue.add(req, req.arrival_s)
        if full is not None:
            groups.append(full)
    groups.extend(queue.flush_remaining())
    return [g.requests for g in groups]


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def tiny_transformer():
    return TransformerLM(TINY_TRANSFORMER)


@pytest.fixture()
def tiny_distilbert():
    return DistilBertForSequenceTask(TINY_DISTILBERT)


@pytest.fixture(scope="session")
def corpus():
    return SyntheticWikiText(WikiTextConfig(vocab_size=60, num_tokens=4000, seed=5))


@pytest.fixture(scope="session")
def rte_data():
    return SyntheticGlueTask(GlueTaskConfig(
        task="rte", vocab_size=80, num_train=64, num_eval=48, seq_len=16, seed=5,
    ))


@pytest.fixture(scope="session")
def stsb_data():
    return SyntheticGlueTask(GlueTaskConfig(
        task="stsb", vocab_size=80, num_train=64, num_eval=48, seq_len=16, seed=5,
    ))


@pytest.fixture()
def lm_task(corpus):
    model = TransformerLM(TINY_TRANSFORMER)
    return LMTask(model, corpus, seq_len=12, batch_size=8,
                  max_train_batches=8, max_eval_batches=3)


@pytest.fixture()
def rte_task(rte_data):
    model = DistilBertForSequenceTask(TINY_DISTILBERT)
    return GlueTask(model, rte_data, batch_size=16, max_train_batches=4)


@pytest.fixture()
def stsb_task(stsb_data):
    cfg = DistilBertConfig(
        vocab_size=80, dim=32, num_heads=2, ffn_dim=64,
        num_layers=2, max_len=24, dropout=0.0, is_regression=True, seed=3,
    )
    model = DistilBertForSequenceTask(cfg)
    return GlueTask(model, stsb_data, batch_size=16, max_train_batches=4)
