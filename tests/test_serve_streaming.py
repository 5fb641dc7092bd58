"""Streaming serving core: admission, event loop, offline equivalence."""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.core.patterns import MaskManager, random_pattern_set
from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.latency import LatencyModel, SparsityKind
from repro.hardware.dvfs import DVFSTable
from repro.hardware.workload import profile_from_model
from repro.nn.inference import UnsupportedModel
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve import (
    AdmissionQueue,
    ArtifactCache,
    DecodeOptions,
    FaultPlan,
    InferenceRequest,
    ScenarioConfig,
    ServeConfig,
    ServeEngine,
    StackConfig,
    StreamingEngine,
    build_scenario,
    build_serving_stack,
    stream_scenario,
)

from tests.conftest import (
    admission_batches,
    assert_reports_equivalent,
    assert_tick_independent,
)

LM_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                           num_encoder_layers=2, num_decoder_layers=1,
                           max_len=16, dropout=0.0, seed=3)


def req(req_id, arrival=0.0, level="l6", deadline=10.0, length=6, seed=0):
    rng = np.random.default_rng(seed + req_id)
    return InferenceRequest(req_id, rng.integers(1, 60, size=length),
                            arrival_s=arrival, deadline_s=deadline,
                            level_name=level)


def build_engine(model, **kwargs):
    wl = profile_from_model(model, seq_len=12)
    ladder = {s: random_pattern_set(8, s, 2, np.random.default_rng(0))
              for s in (0.3, 0.5, 0.7, 0.9)}
    adapter = RuntimeAdapter(ladder, wl, manager=MaskManager(model),
                             hardware_pattern_size=8)
    return ServeEngine(model, adapter, ServeConfig(**kwargs),
                       cache=ArtifactCache()), wl


# ---------------------------------------------------------------------------
# AdmissionQueue: the incremental half of micro-batching
# ---------------------------------------------------------------------------

class TestAdmissionQueue:
    def test_full_group_flushes_on_admission(self):
        q = AdmissionQueue(max_batch=2, window_s=1.0)
        full, window = q.add(req(0, 0.0), 0.0)
        assert full is None
        assert window is not None and window[0] == pytest.approx(1.0)
        full, window = q.add(req(1, 0.1), 0.1)
        assert window is None  # joined the existing group
        assert full is not None and full.full
        assert [r.req_id for r in full.requests] == [0, 1]
        assert full.ready_s == pytest.approx(0.1)  # full: last arrival
        assert len(q) == 0

    def test_window_close_releases_partial_group(self):
        q = AdmissionQueue(max_batch=8, window_s=0.05)
        _, window = q.add(req(0, 0.0), 0.0)
        deadline, key, generation = window
        assert deadline == pytest.approx(0.05)
        group = q.close_generation(key, generation)
        assert group is not None and not group.full
        assert group.ready_s == pytest.approx(0.05)  # partial: window close

    def test_stale_generation_close_is_ignored(self):
        q = AdmissionQueue(max_batch=1, window_s=0.05)
        full, window = q.add(req(0, 0.0), 0.0)
        assert full is not None  # max_batch=1: flushed immediately
        deadline, key, generation = window
        assert q.close_generation(key, generation) is None  # already gone
        # a re-opened group gets a fresh generation
        _, window2 = q.add(req(1, 0.01), 0.01)
        assert window2[2] != generation

    def test_close_due_strict_vs_inclusive(self):
        q = AdmissionQueue(max_batch=8, window_s=0.05)
        q.add(req(0, 0.0), 0.0)
        assert q.close_due(0.05, strict=True) == []
        assert len(q.close_due(0.05)) == 1

    def test_flush_remaining_oldest_first(self):
        q = AdmissionQueue(max_batch=8, window_s=1.0)
        q.add(req(0, 0.0, level="l6"), 0.0)
        q.add(req(1, 0.1, level="l4"), 0.1)
        q.add(req(2, 0.2, level="l3"), 0.2)
        groups = q.flush_remaining()
        assert [g.requests[0].req_id for g in groups] == [0, 1, 2]
        assert len(q) == 0

    def test_admissions_must_be_time_ordered(self):
        q = AdmissionQueue()
        q.add(req(0, 1.0), 1.0)
        with pytest.raises(ValueError, match="time-ordered"):
            q.add(req(1, 0.5), 0.5)

    def test_invalid_config_rejected(self):
        # the queue's knobs arrive validated by the engine's ServeConfig
        with pytest.raises(ValueError, match="max_batch"):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError, match="window_s"):
            ServeConfig(window_s=-1.0)


# ---------------------------------------------------------------------------
# replaying a trace through the admission queue must group it exactly like
# an independent implementation of the historical grouping algorithm
# ---------------------------------------------------------------------------

def reference_batches(requests, max_batch, window_s, key_fn):
    """The historical trace-grouping algorithm, kept as an oracle."""
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
    open_groups, flush_order = {}, []

    def flush(key):
        group = open_groups.pop(key, None)
        if group:
            flush_order.append(group)

    for r in ordered:
        for key in list(open_groups):
            if r.arrival_s - open_groups[key][0].arrival_s > window_s:
                flush(key)
        key = key_fn(r)
        open_groups.setdefault(key, []).append(r)
        if len(open_groups[key]) >= max_batch:
            flush(key)
    for key in sorted(open_groups, key=lambda k: open_groups[k][0].arrival_s):
        flush(key)
    return flush_order


class TestMicroBatcherEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces_group_identically(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        max_batch = int(rng.integers(1, 6))
        window = float(rng.choice([0.0, 0.01, 0.05, 0.2]))
        levels = ["l6", "l4", "l3"]
        t = 0.0
        reqs = []
        for i in range(n):
            # duplicate arrival times on purpose (simultaneous arrivals)
            t += float(rng.choice([0.0, 0.005, 0.02, 0.1]))
            reqs.append(req(i, t, level=str(rng.choice(levels))))
        key_fn = lambda r: r.level_name  # noqa: E731
        got = admission_batches(reqs, max_batch, window, key_fn)
        want = reference_batches(reqs, max_batch, window, key_fn)
        assert [[r.req_id for r in g] for g in got] == \
               [[r.req_id for r in g] for g in want]


# ---------------------------------------------------------------------------
# streaming loop semantics
# ---------------------------------------------------------------------------

class TestStreamingLoop:
    def make_core(self, model=None, **kwargs):
        model = model or TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, **kwargs)
        return engine.streaming(), wl

    def test_submit_in_the_past_rejected(self):
        core, _ = self.make_core()
        core.tick(1.0)
        with pytest.raises(ValueError, match="arrives at"):
            core.submit(req(0, 0.5))

    def test_tick_must_advance(self):
        core, _ = self.make_core()
        core.tick(1.0)
        with pytest.raises(ValueError, match="monotonically"):
            core.tick(0.5)

    def test_submit_restamps_arrival(self):
        core, _ = self.make_core()
        r = req(0, 0.0)
        core.submit(r, arrival_s=0.25)
        assert r.arrival_s == 0.25
        assert core.next_event_s() == pytest.approx(0.25)

    def test_completions_release_with_ticks(self):
        core, wl = self.make_core(max_batch=4, window_s=0.01)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=12,
                                                            seed=3))
        for r in trace:
            core.submit(r)
        horizon = trace[5].arrival_s
        early = core.tick(horizon)
        assert all(r.completion_s <= horizon for r in early)
        late = core.drain()
        assert len(early) + len(late) == 12
        # completions come out in completion order
        times = [r.completion_s for r in early] + [r.completion_s for r in late]
        assert times == sorted(times)
        assert core.next_event_s() is None
        assert core.admission_control.backlog() == 0

    def test_window_close_flushes_without_further_arrivals(self):
        core, _ = self.make_core(max_batch=8, window_s=0.02)
        core.submit(req(0, 0.0))
        assert core.tick(0.019) == []  # window still open: nothing admitted
        done = core.tick(1.0)  # window closed at 0.02, batch executed
        assert len(done) == 1
        assert done[0].queue_wait_s >= 0.02  # waited out the full window

    def test_zero_window_serves_per_request(self):
        core, wl = self.make_core(max_batch=8, window_s=0.0)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=10,
                                                            seed=3))
        for r in trace:  # steady arrivals are strictly increasing
            core.submit(r)
        core.drain()
        report = core.report()
        assert report.num_batches == 10
        assert report.mean_batch_size == 1.0

    def test_zero_window_still_batches_simultaneous_arrivals(self):
        core, _ = self.make_core(max_batch=8, window_s=0.0)
        for i in range(4):
            core.submit(req(i, 0.5))  # identical arrival instants
        core.drain()
        report = core.report()
        assert report.num_batches == 1
        assert report.results[0].batch_size == 4

    def test_play_batches_simultaneous_zero_window_arrivals(self):
        # the CLI/bench feeding path: per-arrival online feeding must not
        # split same-instant ties, even at a zero-width window — play()
        # ticks lagging one arrival behind, so the tie group is fully
        # admitted before its window deadline fires
        core, _ = self.make_core(max_batch=8, window_s=0.0)
        done = core.play([req(0, 0.25), req(1, 0.5), req(2, 0.5),
                          req(3, 0.5), req(4, 0.75)])
        assert len(done) == 5
        report = core.report()
        sizes = sorted(r.batch_size for r in report.results
                       if r.request.req_id in (1, 2, 3))
        assert sizes == [3, 3, 3]  # the tie stayed one batch
        assert report.num_batches == 3

    def test_tick_landing_on_window_deadline_admits_arrivals_first(self):
        # the heap orders same-instant arrivals before window closes, so
        # submitting a tie group and then ticking exactly to its instant
        # (also the zero-width window deadline) still forms one batch
        core, _ = self.make_core(max_batch=8, window_s=0.0)
        for i in range(3):
            core.submit(req(i, 0.5))
        core.tick(0.5)
        core.drain()
        assert core.report().num_batches == 1

    def test_max_batch_one_never_groups(self):
        core, _ = self.make_core(max_batch=1, window_s=10.0)
        for i in range(5):
            core.submit(req(i, 0.1 * i))
        core.drain()
        report = core.report()
        assert report.num_batches == 5
        assert {r.batch_size for r in report.results} == {1}

    def test_invalid_config_rejected(self):
        model = TransformerLM(LM_CFG).eval()
        wl = profile_from_model(model, seq_len=12)
        ladder = {0.5: random_pattern_set(8, 0.5, 2, np.random.default_rng(0))}
        adapter = RuntimeAdapter(ladder, wl, hardware_pattern_size=8)
        with pytest.raises(ValueError, match="devices"):
            StreamingEngine(model, adapter, ServeConfig(devices=0))
        with pytest.raises(ValueError, match="dispatch policy"):
            StreamingEngine(model, adapter, ServeConfig(policy="fastest-first"))
        with pytest.raises(ValueError, match="drain policy"):
            StreamingEngine(model, adapter, ServeConfig(drain_policy="lifo"))
        with pytest.raises(ValueError, match="window_s"):
            StreamingEngine(model, adapter, ServeConfig(window_s=float("inf")))


# ---------------------------------------------------------------------------
# scenario streams are lazy and agree with the materialized traces
# ---------------------------------------------------------------------------

class TestScenarioStreams:
    @pytest.mark.parametrize("name", ["steady", "bursty", "battery",
                                      "bandwidth"])
    def test_stream_matches_trace(self, name, tiny_transformer):
        wl = profile_from_model(tiny_transformer, seq_len=12)
        cfg = ScenarioConfig(num_requests=24, seed=11)
        stream = stream_scenario(name, wl, cfg)
        assert not isinstance(stream, list)  # lazy iterator, not a trace
        first = next(stream)  # pulling one does not materialize the rest
        rest = list(stream)
        trace = build_scenario(name, wl, cfg)
        assert len(rest) + 1 == len(trace)
        for a, b in zip([first] + rest, trace):
            assert a.req_id == b.req_id
            assert a.arrival_s == b.arrival_s
            assert a.deadline_s == b.deadline_s
            assert a.level_name == b.level_name
            np.testing.assert_array_equal(a.tokens, b.tokens)

    def test_unknown_scenario_rejected(self, tiny_transformer):
        wl = profile_from_model(tiny_transformer, seq_len=12)
        with pytest.raises(ValueError, match="unknown scenario"):
            stream_scenario("tsunami", wl)


# ---------------------------------------------------------------------------
# streaming-vs-offline equivalence: the offline wrapper, one drain over
# the whole trace and incremental online feeding must produce identical
# batching, placement, simulated timing and outputs
# ---------------------------------------------------------------------------

def assert_offline_equivalent(scenario, devices, policy, n=32, seed=7,
                              tick_every=1):
    """Serve a scenario trace through ``ServeEngine.serve`` and through
    both sessions of :func:`assert_tick_independent`; all three must
    describe the same run.  Returns the wrapper's and the ticked report."""
    def engine():
        return build_engine(TransformerLM(LM_CFG).eval(), devices=devices,
                            policy=policy)[0]

    wl = profile_from_model(TransformerLM(LM_CFG).eval(), seq_len=12)
    trace = build_scenario(scenario, wl, ScenarioConfig(num_requests=n,
                                                        seed=seed))
    offline = engine().serve([replace(r) for r in trace])
    drained, ticked = assert_tick_independent(
        lambda: engine().streaming(), trace, tick_every=tick_every)
    assert_reports_equivalent(offline, drained)
    return offline, ticked


FAST_MATRIX = [
    ("steady", 1, "round-robin"),
    ("bursty", 1, "round-robin"),
    ("battery", 1, "round-robin"),
    ("bandwidth", 1, "round-robin"),
    ("bursty", 4, "least-loaded"),
    ("bandwidth", 4, "switch-aware"),
]
FULL_MATRIX = [(s, d, p)
               for s in ("steady", "bursty", "battery", "bandwidth")
               for d in (1, 4)
               for p in ("round-robin", "least-loaded", "switch-aware")
               if (s, d, p) not in FAST_MATRIX]


class TestStreamingOfflineEquivalence:
    @pytest.mark.parametrize("scenario,devices,policy", FAST_MATRIX)
    def test_equivalence_fast_matrix(self, scenario, devices, policy):
        assert_offline_equivalent(scenario, devices, policy)

    @pytest.mark.slow
    @pytest.mark.parametrize("scenario,devices,policy", FULL_MATRIX)
    def test_equivalence_full_matrix(self, scenario, devices, policy):
        assert_offline_equivalent(scenario, devices, policy)

    def test_equivalence_independent_of_tick_granularity(self):
        # a coarser schedule: tick only every fifth arrival
        assert_offline_equivalent("bursty", 4, "least-loaded", tick_every=5)

    def test_wrapper_metrics_match_streaming_summary(self):
        offline, streaming = assert_offline_equivalent("steady", 1,
                                                       "round-robin")
        assert offline.sim_throughput_rps == streaming.sim_throughput_rps
        assert offline.p50_latency_s == streaming.p50_latency_s
        assert offline.p95_latency_s == streaming.p95_latency_s
        assert offline.sim_makespan_s == streaming.sim_makespan_s


# ---------------------------------------------------------------------------
# tick independence on every feature path: faults, client timeouts,
# preemption with tenant quotas and decode streams all ride the one heap
# ---------------------------------------------------------------------------

def bursty_arrivals(n=32, seed=0):
    _, wl, _ = build_serving_stack(StackConfig(seed=seed))
    trace = build_scenario("bursty", wl, ScenarioConfig(num_requests=n,
                                                        seed=seed),
                           burst_size=8)
    return sorted(trace, key=lambda r: (r.arrival_s, r.req_id))


def head_of_line_two_tenants(flood=32):
    """A loose ``t0`` flood at t=0, then three tight-SLO ``t1`` requests
    2 ms apart: each can only meet its SLO by preempting the flood."""
    def request(rid, at, slo, tenant):
        return InferenceRequest(
            rid, np.random.default_rng(rid).integers(1, 60, size=12),
            arrival_s=at, deadline_s=5e-3, level_name="l4", slo_s=slo,
            tenant=tenant)

    return ([request(i, 0.0, 10.0, "t0") for i in range(flood)]
            + [request(flood + i, 2e-3 * (i + 1), 5e-3, "t1")
               for i in range(3)])


def feature_case(name):
    """``(stack knobs, trace, decode ids, engaged)`` for one feature path;
    ``engaged(report)`` says the feature really acted on the run."""
    trace = bursty_arrivals()
    if name == "crash":
        # shard 1 dies 3 ms after the second burst's window closed, with
        # that burst's batch in flight
        close_s = max(r.arrival_s for r in trace[8:16])
        return (dict(devices=2, window_s=2e-3,
                     faults=FaultPlan.outage(1, close_s + 3e-3, 0.1)),
                trace, (), lambda rep: rep.requeued_batches >= 1)
    if name == "cancel_after":
        return (dict(window_s=2e-3, cancel_after_s=6e-3), trace, (),
                lambda rep: rep.num_cancelled >= 1)
    if name == "running_preemption_two_tenants":
        return (dict(window_s=1e-3, preempt_policy="running", max_queue=40,
                     tenant_weights={"t0": 2.0, "t1": 1.0}),
                head_of_line_two_tenants(), (),
                lambda rep: rep.preemptions >= 1 and rep.num_shed >= 1)
    assert name == "decode_streams"
    return (dict(devices=2, decode=DecodeOptions(max_new_tokens=4)), trace,
            {r.req_id for r in trace[:4]},
            lambda rep: rep.decode_streams == 4)


class TestTickIndependence:
    @pytest.mark.parametrize("name", ["crash", "cancel_after",
                                      "running_preemption_two_tenants",
                                      "decode_streams"])
    def test_feature_path(self, name):
        knobs, trace, decode_ids, engaged = feature_case(name)
        drained, _ = assert_tick_independent(
            lambda: build_serving_stack(StackConfig(streaming=True,
                                                    **knobs))[2],
            trace, decode_ids=decode_ids)
        assert engaged(drained)


# ---------------------------------------------------------------------------
# adaptive drain: each shard picks its own policy from observed switches
# ---------------------------------------------------------------------------

def mixed_fleet_trace(wl, latency=None, bursts=40, burst=4):
    """Saturating bursts: even bursts steady (one rung), odd bursts
    alternate V/F levels *and* sparsity rungs — with round-robin routing
    on 2 devices, shard 0 sees a single operating point while shard 1 is
    rung-thrashed."""
    latency = latency or LatencyModel()
    table = DVFSTable()
    dense = {name: latency.latency_s(wl, table[name], 0.0, SparsityKind.DENSE)
             for name in ("l6", "l4", "l3")}
    reqs = []
    t = 0.0
    for b in range(bursts):
        if b % 2 == 0:
            level, factor = "l6", 1.7
        elif (b // 2) % 2 == 0:
            level, factor = "l4", 1.7
        else:
            level, factor = "l3", 1.2
        deadline = factor * dense[level]
        for _ in range(burst):
            reqs.append(InferenceRequest(
                len(reqs),
                np.random.default_rng(len(reqs)).integers(1, 60, size=6),
                arrival_s=t, deadline_s=deadline, level_name=level,
                slo_s=10.0))
        t += 1e-4  # saturating: far faster than service
    return reqs


class TestAdaptiveDrain:
    def run(self, drain_policy, trace):
        engine, _ = build_engine(TransformerLM(LM_CFG).eval(), devices=2,
                                 policy="round-robin", max_batch=4,
                                 window_s=1e-5, drain_policy=drain_policy,
                                 fairness_window=4, adaptive_window=8,
                                 adaptive_threshold=0.5)
        return engine.serve(list(trace))

    @pytest.fixture(scope="class")
    def trace(self):
        wl = profile_from_model(TransformerLM(LM_CFG).eval(), seq_len=12)
        return mixed_fleet_trace(wl)

    def test_only_the_thrashed_shard_flips(self, trace):
        report = self.run("adaptive", trace)
        stats = {s.shard_id: s for s in report.shard_stats}
        # shard 0 serves one operating point: no evidence, stays fifo
        assert stats[0].drain_policy == "fifo"
        assert stats[0].policy_flips == 0
        assert stats[0].switches <= 1  # at most the cold-start install
        # shard 1 is switch-thrashed: it must flip itself to affinity
        assert stats[1].drain_policy == "level-affinity"
        assert stats[1].policy_flips == 1

    def test_flip_cuts_switches_with_identical_outputs(self, trace):
        fifo = self.run("fifo", trace)
        adaptive = self.run("adaptive", trace)
        assert adaptive.num_requests == fifo.num_requests
        fifo_switches = sum(s.switches for s in fifo.shard_stats)
        adaptive_switches = sum(s.switches for s in adaptive.shard_stats)
        assert adaptive_switches < fifo_switches
        outs_a = {r.request.req_id: r.output for r in fifo.results}
        outs_b = {r.request.req_id: r.output for r in adaptive.results}
        assert outs_a.keys() == outs_b.keys()
        for rid, out in outs_a.items():
            np.testing.assert_allclose(out, outs_b[rid], atol=1e-9, rtol=0)

    def test_steady_adaptive_keeps_fifo_schedule(self):
        # with no switch pressure, adaptive must be indistinguishable
        # from fifo — same batches, same completions
        engine_a, wl = build_engine(TransformerLM(LM_CFG).eval(),
                                    drain_policy="adaptive")
        engine_b, _ = build_engine(TransformerLM(LM_CFG).eval(),
                                   drain_policy="fifo")
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=24,
                                                            seed=3))
        assert_reports_equivalent(engine_a.serve(trace),
                                  engine_b.serve(list(trace)))

    def test_adaptive_validation(self):
        model = TransformerLM(LM_CFG).eval()
        with pytest.raises(ValueError, match="adaptive_window"):
            build_engine(model, drain_policy="adaptive", adaptive_window=0)
        with pytest.raises(ValueError, match="adaptive_threshold"):
            build_engine(model, drain_policy="adaptive",
                         adaptive_threshold=1.5)


# ---------------------------------------------------------------------------
# adaptive hysteresis: the flip is reversible when the traffic phase changes
# ---------------------------------------------------------------------------

def phase_change_trace(wl, thrash_bursts=24, steady_bursts=48, burst=4):
    """Rung-alternating saturating bursts, then a long steady phase.

    Phase 1 alternates two operating points whose feasible sparsities
    differ, so every batch on a single device swaps pattern sets; phase 2
    sticks to one point, so the post-flip switch rate collapses to zero.
    """
    latency = LatencyModel()
    table = DVFSTable()
    dense = {name: latency.latency_s(wl, table[name], 0.0, SparsityKind.DENSE)
             for name in ("l6", "l4", "l3")}
    reqs = []
    t = 0.0
    for b in range(thrash_bursts + steady_bursts):
        if b >= thrash_bursts:
            level, factor = "l6", 1.7
        elif b % 2 == 0:
            level, factor = "l4", 1.7
        else:
            level, factor = "l3", 1.2
        deadline = factor * dense[level]
        for _ in range(burst):
            reqs.append(InferenceRequest(
                len(reqs),
                np.random.default_rng(len(reqs)).integers(1, 60, size=6),
                arrival_s=t, deadline_s=deadline, level_name=level,
                slo_s=10.0))
        t += 1e-4
    return reqs


class TestAdaptiveHysteresis:
    def run(self, drain_policy, trace, low=None):
        engine, _ = build_engine(TransformerLM(LM_CFG).eval(), devices=1,
                                 max_batch=4, window_s=1e-5,
                                 drain_policy=drain_policy,
                                 fairness_window=4, adaptive_window=8,
                                 adaptive_threshold=0.5,
                                 adaptive_low_threshold=low)
        return engine.serve(list(trace))

    @pytest.fixture(scope="class")
    def trace(self):
        wl = profile_from_model(TransformerLM(LM_CFG).eval(), seq_len=12)
        return phase_change_trace(wl)

    def test_flips_forward_then_back(self, trace):
        report = self.run("adaptive", trace, low=0.1)
        stats = report.shard_stats[0]
        # thrash phase flips fifo -> level-affinity; once the steady
        # phase drains the mixed backlog the post-flip window holds zero
        # switches and the hysteresis band flips the shard back
        assert stats.policy_flips == 2
        assert stats.drain_policy == "fifo"

    def test_without_band_the_flip_stays_one_way(self, trace):
        report = self.run("adaptive", trace, low=None)
        stats = report.shard_stats[0]
        assert stats.policy_flips == 1
        assert stats.drain_policy == "level-affinity"

    def test_outputs_identical_to_fifo_through_both_flips(self, trace):
        fifo = self.run("fifo", trace)
        hysteresis = self.run("adaptive", trace, low=0.1)
        assert hysteresis.num_requests == fifo.num_requests
        outs_a = {r.request.req_id: r.output for r in fifo.results}
        outs_b = {r.request.req_id: r.output for r in hysteresis.results}
        assert outs_a.keys() == outs_b.keys()
        for rid, out in outs_a.items():
            np.testing.assert_array_equal(out, outs_b[rid])

    def test_band_cuts_switches_vs_fifo(self, trace):
        fifo = self.run("fifo", trace)
        hysteresis = self.run("adaptive", trace, low=0.1)
        assert (sum(s.switches for s in hysteresis.shard_stats)
                < sum(s.switches for s in fifo.shard_stats))

    def test_low_threshold_validation(self):
        model = TransformerLM(LM_CFG).eval()
        with pytest.raises(ValueError, match="adaptive_low_threshold"):
            build_engine(model, drain_policy="adaptive",
                         adaptive_threshold=0.5, adaptive_low_threshold=0.5)
        with pytest.raises(ValueError, match="adaptive_low_threshold"):
            build_engine(model, drain_policy="adaptive",
                         adaptive_low_threshold=-0.1)


# ---------------------------------------------------------------------------
# compile errors at the boundary: every batch and decode step runs the
# compiled plan, so a model it cannot serve fails on the first one
# ---------------------------------------------------------------------------

TRAIN_MODE_ERROR = re.escape(
    "compile_inference snapshots eval-mode semantics; call model.eval() "
    "first (found an active Dropout)")


def train_mode_model():
    # dropout left active (training mode) is a misconfiguration of a
    # *supported* architecture
    cfg = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                            num_encoder_layers=2, num_decoder_layers=1,
                            max_len=16, dropout=0.1, seed=3)
    return TransformerLM(cfg).train()


class TestCompileErrorsAtBoundary:
    def test_train_mode_fails_on_first_batch(self):
        engine, _ = build_engine(train_mode_model())
        with pytest.raises(ValueError, match=TRAIN_MODE_ERROR):
            engine.serve([req(0)])

    def test_train_mode_fails_on_first_decode_step(self):
        engine, _ = build_engine(train_mode_model())
        core = engine.streaming()
        core.submit_decode(req(0))
        with pytest.raises(ValueError, match=TRAIN_MODE_ERROR):
            core.drain()

    def test_unsupported_model_fails_on_first_batch(self):
        class Opaque:
            def modules(self):
                return []

            def named_modules(self):
                return []

            def named_parameters(self):
                return []

        engine, _ = build_engine(TransformerLM(LM_CFG).eval())
        core = engine.streaming()
        core.model = Opaque()
        core.submit(req(0))
        with pytest.raises(UnsupportedModel, match=re.escape(
                "compile_inference supports TransformerLM and DistilBert* "
                "models, not Opaque")):
            core.drain()
