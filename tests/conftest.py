"""Shared fixtures: tiny models, corpora and tasks reused across tests.

Session scope keeps the suite fast — tests must not mutate these fixtures
in place unless they snapshot/restore (module-scoped copies are provided
for mutating tests).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.tasks import GlueTask, LMTask
from repro.data.glue import GlueTaskConfig, SyntheticGlueTask
from repro.data.wikitext import SyntheticWikiText, WikiTextConfig
from repro.nn.distilbert import DistilBertConfig, DistilBertForSequenceTask
from repro.nn.generation import GenerationResult
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve.batcher import AdmissionQueue
from repro.serve.decode import DecodeJob
from repro.serve.invariants import check_run
from repro.serve.streaming import StreamingEngine


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


def assert_reports_equivalent(a, b):
    """Two reports describe the same run: batching, placement, simulated
    timing, outputs, terminal records and per-shard accounting."""
    assert a.num_requests == b.num_requests
    assert a.num_batches == b.num_batches
    by_id_a = {r.request.req_id: r for r in a.results}
    by_id_b = {r.request.req_id: r for r in b.results}
    assert by_id_a.keys() == by_id_b.keys()
    for rid, ra in by_id_a.items():
        rb = by_id_b[rid]
        assert ra.batch_id == rb.batch_id
        assert ra.batch_size == rb.batch_size
        assert ra.shard_id == rb.shard_id
        assert ra.sparsity == rb.sparsity
        assert ra.queue_wait_s == rb.queue_wait_s
        assert ra.service_s == rb.service_s
        assert ra.completion_s == rb.completion_s
        if isinstance(ra.output, GenerationResult):
            np.testing.assert_array_equal(ra.output.tokens, rb.output.tokens)
            assert ra.output.logprobs == rb.output.logprobs
        else:
            np.testing.assert_array_equal(ra.output, rb.output)
    assert [e.chosen_sparsity for e in a.events] == \
           [e.chosen_sparsity for e in b.events]
    assert [e.switched for e in a.events] == [e.switched for e in b.events]
    assert [(rec.request.req_id, rec.time_s, rec.reason) for rec in a.shed] \
        == [(rec.request.req_id, rec.time_s, rec.reason) for rec in b.shed]
    assert [(rec.request.req_id, rec.time_s, rec.where)
            for rec in a.cancelled] == \
           [(rec.request.req_id, rec.time_s, rec.where)
            for rec in b.cancelled]
    assert [s.as_dict() for s in a.shard_stats] == \
           [s.as_dict() for s in b.shard_stats]


def assert_tick_independent(build, trace, decode_ids=(), tick_every=1):
    """Serve ``trace`` (arrival-ordered) on two fresh sessions from
    ``build()`` and require the same run from both.

    One session takes every submission and then one ``drain``.  The
    other is fed per arrival through :meth:`StreamingEngine.play`.
    ``play`` cannot submit decode streams and ticks at every new
    instant, so with ``decode_ids`` or a coarser ``tick_every`` the
    feeding is written out here in its discipline: tick only to an
    instant whose arrivals are all submitted, every ``tick_every``
    arrivals, then drain.  Each session gets its own copies of the
    requests, which the loop may restamp.  Returns both reports,
    drained first.
    """
    def run(ticked):
        core = build()
        requests = [replace(r) for r in trace]
        if ticked and not decode_ids and tick_every == 1:
            core.play(requests)
            return core.report()
        prev = None
        for i, req in enumerate(requests):
            if (ticked and prev is not None and i % tick_every == 0
                    and req.arrival_s > prev):
                core.tick(prev)
            if req.req_id in decode_ids:
                core.submit_decode(req)
            else:
                core.submit(req)
            prev = req.arrival_s
        core.drain()
        return core.report()

    drained, ticked = run(False), run(True)
    assert_reports_equivalent(drained, ticked)
    return drained, ticked


def backlog_oracle(engine):
    """The queue-full backlog by rescan: every member of the open
    admission groups and of the batches queued on devices, done members
    included; parked batches and pending decode jobs left out."""
    return len(engine.admission) + sum(
        len(qb) for s in engine.shards for qb in s.queued_batches())


def tenant_backlog_oracle(engine, tenant):
    """The quota backlog by rescan: ``tenant``'s live requests in open
    groups, queued batches, parked batches and pending decode jobs."""
    count = sum(1 for r in engine.admission.waiting() if r.tenant == tenant)
    batches = [qb for s in engine.shards for qb in s.queued_batches()]
    batches.extend(engine.parked.batches)
    for qb in batches:
        done = set(qb.done_ids)
        count += sum(1 for r in qb.requests
                     if r.req_id not in done and r.tenant == tenant)
    jobs = [job for s in engine.shards for _, _, job in s.decode.pending]
    jobs.extend(engine.parked.jobs)
    count += sum(1 for job in jobs if job.request.tenant == tenant)
    return count


class BacklogChecks:
    """What :func:`backlog_oracle_check` saw across its checks."""

    def __init__(self):
        self.checks = 0
        self.tenants = set()  # every tenant that ever arrived
        self.pending_decode = 0  # checks with a decode job pending on a lane
        self.parked_decode = 0  # checks with a decode job parked
        self.parked = 0  # checks with a batch parked


@pytest.fixture()
def backlog_oracle_check(monkeypatch):
    """Assert the admission-control counters equal the rescan oracles
    before every arrival the engine processes (each admission decision
    runs inside one), for every tenant anywhere in the system."""
    seen = BacklogChecks()
    on_arrival = StreamingEngine._on_arrival

    def checked(engine, request, now):
        control = engine.admission_control
        assert control.backlog() == backlog_oracle(engine)
        req = request.request if isinstance(request, DecodeJob) else request
        seen.tenants.add(req.tenant)
        for tenant in seen.tenants | set(control.live):
            assert (control.tenant_backlog(tenant)
                    == tenant_backlog_oracle(engine, tenant)), tenant
        seen.checks += 1
        seen.pending_decode += any(s.decode.pending for s in engine.shards)
        seen.parked_decode += bool(engine.parked.jobs)
        seen.parked += bool(engine.parked.batches)
        return on_arrival(engine, request, now)

    monkeypatch.setattr(StreamingEngine, "_on_arrival", checked)
    yield seen
    assert seen.checks > 0


@pytest.fixture(autouse=True)
def checked_runs(monkeypatch):
    """Run :func:`~repro.serve.invariants.check_run` at teardown on every
    :class:`StreamingEngine` the test built, so no serving test needs to
    assert conservation itself.

    Engines are recorded as they are constructed.  An engine whose event
    loop raised (an exception escaped ``_advance`` — say a test expecting
    an unsupported model to fail on its first batch) stopped in the
    middle of an event, so its records describe no finished state: it is
    skipped.  Every other engine is checked, drained or not.
    """
    engines, broken = [], set()
    init, advance = StreamingEngine.__init__, StreamingEngine._advance

    def recording_init(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        engines.append(engine)

    def guarded_advance(engine, horizon_s):
        try:
            return advance(engine, horizon_s)
        except BaseException:
            broken.add(id(engine))
            raise

    monkeypatch.setattr(StreamingEngine, "__init__", recording_init)
    monkeypatch.setattr(StreamingEngine, "_advance", guarded_advance)
    yield engines
    for engine in engines:
        if id(engine) not in broken:
            check_run(engine)


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
