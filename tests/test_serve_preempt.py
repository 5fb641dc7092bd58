"""Scheduler-defense tests: preemption, cancellation, tenant isolation.

Every test drives the real streaming engine; the invariants the
preempt bench gates come from :mod:`repro.serve.invariants`:

- **extended conservation** — ``completed + shed + cancelled ==
  submitted`` under every combination of preemption, cancellation,
  tenant quotas and injected faults, checked by ``check_run`` on every
  engine at teardown;
- **exactness** — every *completed* output is bit-identical to a clean
  serve (no preemption, no quotas, no cancels, no faults) of the
  surviving request set, checked by ``check_exact``: batch membership is
  preserved under retraction (cancelled members join ``done_ids``), so
  the defenses only reshuffle *when* work runs, never *what* it
  computes;
- **starvation guard** — weighted fair shares floor at one slot, so
  every live tenant completes something even under a hot-tenant flood.

Plus the cancellation search order (one test per stage a request can be
pulled back from), the remaining-window admission estimate, the
``AdmissionQueue.remove``/``waiting`` primitives, ``assign_tenants``
and the CLI knob validation.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.nn.generation import GenerationConfig
from repro.serve import (
    AdmissionQueue,
    DecodeOptions,
    FaultPlan,
    InferenceRequest,
    ScenarioConfig,
    ShardFault,
    StackConfig,
    assign_tenants,
    build_scenario,
    build_serving_stack,
    flaky_fault_overlay,
)
from repro.serve.invariants import check_exact

WINDOW_S = 1e-3
PROBE_S = 5e-3
LEVEL = "l4"
# head-of-line shape (calibrated): 32 loose-SLO requests flood a single
# device at t=0 (four full batches), one tight-SLO request lands behind
# them at 2 ms — its SLO only fits if it preempts the queue
LOOSE = 32
TIGHT_ARRIVAL_S = 2e-3
TIGHT_SLO_S = 5e-3
DEADLINE_S = 5e-3


def make_stack(seed=0, devices=1, **kw):
    return build_serving_stack(StackConfig(
        devices=devices, seed=seed, window_s=WINDOW_S,
        probe_backoff_s=PROBE_S, **kw))


def request(rid, arrival_s, slo_s, tenant="default", seed=0):
    rng = np.random.default_rng(seed + rid)
    return InferenceRequest(
        req_id=rid, tokens=rng.integers(1, 60, size=12),
        arrival_s=arrival_s, deadline_s=DEADLINE_S, level_name=LEVEL,
        slo_s=slo_s, tenant=tenant)


def head_of_line_trace():
    """The preemption shape: a loose flood, then one tight request."""
    trace = [request(i, 0.0, 10.0) for i in range(LOOSE)]
    trace.append(request(LOOSE, TIGHT_ARRIVAL_S, TIGHT_SLO_S,
                         tenant="tight"))
    return trace


def bursty_trace(n=32, seed=0):
    _, workload, _ = make_stack(seed)
    return build_scenario("bursty", workload,
                          ScenarioConfig(num_requests=n, seed=seed),
                          burst_size=8, deadline_factors=(1.7, 1.2))


def serve(trace, cancels=(), seed=0, devices=1, **kw):
    """One session: arm scripted cancels, play the trace; the report
    and the session."""
    _, _, engine = make_stack(seed, devices=devices, **kw)
    core = engine.streaming()
    for rid, at in cancels:
        core.cancel(rid, at_s=at)
    core.play(sorted(trace, key=lambda r: (r.arrival_s, r.req_id)))
    return core.report(), core


def clean(seed=0, devices=1):
    """A fresh session of the clean stack: the exactness reference."""
    return make_stack(seed, devices=devices)[2].streaming()


# decode streams for the cancellation stages of the decode lane: two
# streams race onto one device, a third arrives after every scripted
# cancel so the backlog oracle checks the counters once the cancel landed
DECODE_CFG = GenerationConfig(max_new_tokens=4, seed=5)
DECODE_ARRIVALS = (0.0, 1e-3, 10e-3)


def decode_trace():
    return [InferenceRequest(
        req_id=rid, tokens=np.random.default_rng(rid).integers(
            1, 60, size=4).tolist(), arrival_s=at, level_name=LEVEL)
        for rid, at in enumerate(DECODE_ARRIVALS)]


def serve_decode(cancels=()):
    _, _, engine = make_stack()
    core = engine.streaming()
    for rid, at in cancels:
        core.cancel(rid, at_s=at)
    for req in decode_trace():
        core.submit_decode(req, config=DECODE_CFG)
    core.drain()
    return core.report(), core


def latency_of(report, rid):
    result = next(r for r in report.results if r.request.req_id == rid)
    return result.completion_s - result.request.arrival_s


# ---------------------------------------------------------------------------
# cancellation: one test per stage of the search order
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("backlog_oracle_check")
class TestCancellation:
    def where(self, report, rid):
        return next(c.where for c in report.cancelled
                    if c.request.req_id == rid)

    def test_cancel_before_arrival_lands_pre_admission(self):
        trace = [request(0, 0.0, 1.0), request(1, 0.01, 1.0)]
        report, _ = serve(trace, cancels=[(1, 0.005)])
        assert self.where(report, 1) == "pre_admission"
        assert report.completed == 1

    def test_cancel_in_open_window_lands_admission(self):
        # alone in its group: the window holds it until 1 ms, the cancel
        # lands at 0.5 ms
        report, _ = serve([request(0, 0.0, 1.0)], cancels=[(0, 5e-4)])
        assert self.where(report, 0) == "admission"
        assert report.completed == 0

    def test_cancel_behind_backlog_lands_queued(self):
        # four instant-flush batches queue on one device; a member of
        # the last batch is retracted after dispatch, before execution
        trace = head_of_line_trace()[:LOOSE]
        report, core = serve(trace, cancels=[(LOOSE - 1, 5e-4)])
        assert self.where(report, LOOSE - 1) == "queued"
        assert report.completed == LOOSE - 1
        check_exact(core, reference=clean())

    def test_cancel_inflight_suppresses_result_only(self):
        # first batch starts at t=0; the cancel lands while it runs
        trace = head_of_line_trace()[:LOOSE]
        report, core = serve(trace, cancels=[(0, 1e-5)])
        assert self.where(report, 0) == "inflight"
        assert 0 not in {r.request.req_id for r in report.results}
        assert report.completed == LOOSE - 1
        check_exact(core, reference=clean())

    def test_crash_rolls_back_batch_cancelled_in_flight(self):
        # the whole batch is cancelled while it runs, then the device
        # crashes: nothing was due any more, yet the device stopped at
        # the crash, so the batch leaves its time and counts behind
        trace = [request(i, 0.0, 10.0) for i in range(8)]
        report, _ = serve(trace, cancels=[(i, 2e-6) for i in range(8)],
                          faults=FaultPlan.outage(0, 4e-6, 0.1))
        stats = report.shard_stats[0]
        assert stats.busy_s == pytest.approx(4e-6)
        assert (stats.batches, stats.requests) == (0, 0)
        assert report.completed == 0

    def test_cancel_pending_decode_stream_lands_decode_pending(self):
        # stream 1 arrives at 1 ms while stream 0's first boundary (it
        # pays the cold pattern install) holds the device until ~5 ms, so
        # it waits on the lane's pending heap when the cancel lands
        report, core = serve_decode(cancels=[(1, 2e-3)])
        assert self.where(report, 1) == "decode_pending"
        assert report.completed == 2
        check_exact(core, reference=clean(), decode_config=DECODE_CFG)

    def test_cancel_finished_decode_stream_lands_inflight(self):
        # the cancel lands inside the boundary stream 1 finishes in: its
        # result is retracted before its completion instant
        uncancelled, _ = serve_decode()
        done_s = next(r.completion_s for r in uncancelled.results
                      if r.request.req_id == 1)
        report, core = serve_decode(cancels=[(1, done_s - 1e-6)])
        assert self.where(report, 1) == "inflight"
        assert report.shard_stats[0].decode_streams == (
            uncancelled.shard_stats[0].decode_streams - 1)
        assert report.completed == 2
        check_exact(core, reference=clean(), decode_config=DECODE_CFG)

    def test_cancel_after_completion_is_noop(self):
        _, _, engine = make_stack()
        core = engine.streaming()
        core.submit(request(0, 0.0, 1.0))
        core.tick(1.0)  # runs to completion well past the window
        core.cancel(0)
        core.drain()
        report = core.report()
        assert report.completed == 1 and not report.cancelled

    def test_cancel_unknown_id_is_noop(self):
        report, _ = serve([request(0, 0.0, 1.0)], cancels=[(999, 5e-4)])
        assert report.completed == 1 and not report.cancelled

    def test_cancel_after_timeout_reaches_placed_work(self):
        # full batches flush instantly, so the timeout finds its victims
        # already dispatched: queued behind the backlog or in flight
        trace = head_of_line_trace()[:LOOSE]
        report, core = serve(trace, cancel_after_s=1.5e-3)
        assert report.num_cancelled >= 1
        assert {c.where for c in report.cancelled} <= {"queued", "inflight"}
        check_exact(core, reference=clean())

    def test_cancel_after_timeout_fires_in_admission(self):
        report, _ = serve([request(0, 0.0, 1.0)], cancel_after_s=5e-4)
        assert report.completed == 0
        assert self.where(report, 0) == "admission"

    def test_generous_timeout_cancels_nothing(self):
        report, _ = serve([request(0, 0.0, 1.0)], cancel_after_s=10.0)
        assert report.completed == 1 and not report.cancelled

    def test_cancel_preserves_surviving_bits(self):
        trace = bursty_trace()
        victims = [(4, 1e-4), (9, 2e-3), (17, 4e-3)]
        report, core = serve(trace, cancels=victims, devices=2)
        assert report.num_cancelled == 3
        check_exact(core, reference=clean(devices=2))

    def test_backdated_cancel_rejected(self):
        _, _, engine = make_stack()
        core = engine.streaming()
        core.submit(request(0, 0.0, 1.0))
        core.tick(0.5)
        with pytest.raises(ValueError, match="predates"):
            core.cancel(0, at_s=0.1)


# ---------------------------------------------------------------------------
# preemption: the head-of-line rescue
# ---------------------------------------------------------------------------

class TestPreemption:
    def test_off_policy_never_preempts(self):
        report, _ = serve(head_of_line_trace())
        assert report.preemptions == 0

    def test_queued_preemption_rescues_tight_request(self):
        base, _ = serve(head_of_line_trace())
        pre, core = serve(head_of_line_trace(), preempt_policy="queued")
        assert pre.preemptions >= 1
        assert latency_of(pre, LOOSE) < latency_of(base, LOOSE)
        check_exact(core, reference=clean())

    def test_running_preemption_cuts_deeper(self):
        queued, _ = serve(head_of_line_trace(), preempt_policy="queued")
        running, core = serve(head_of_line_trace(), preempt_policy="running")
        assert running.preemptions >= 1
        assert latency_of(running, LOOSE) <= latency_of(queued, LOOSE)
        # the retracted in-flight batch re-executes in full
        assert running.completed == LOOSE + 1
        check_exact(core, reference=clean())

    def test_running_meets_tight_slo(self):
        base, _ = serve(head_of_line_trace())
        running, _ = serve(head_of_line_trace(), preempt_policy="running")
        assert latency_of(base, LOOSE) > TIGHT_SLO_S  # adversarial
        assert latency_of(running, LOOSE) <= TIGHT_SLO_S  # rescued

    def test_running_preemption_frees_device_of_cancelled_batch(self):
        # every member of the running batch is cancelled in flight; a
        # tight request then preempts it: the device is free at once, and
        # the tight result is released by the tick that covers it
        _, _, engine = make_stack(preempt_policy="running")
        core = engine.streaming()
        for rid in range(8):
            core.cancel(rid, at_s=1e-5)
        for req in [request(i, 0.0, 10.0) for i in range(8)]:
            core.submit(req)
        core.submit(request(8, 5e-4, TIGHT_SLO_S, tenant="tight"))
        released = core.tick(2e-3)
        assert [r.request.req_id for r in released] == [8]
        assert released[0].completion_s <= 2e-3
        core.drain()

    def test_preemption_charges_switch_penalty(self):
        running, _ = serve(head_of_line_trace(), preempt_policy="running")
        retried = sum(s.retried_batches for s in running.shard_stats)
        assert retried >= 1  # in-flight retraction re-runs the batch

    def test_loose_traffic_never_triggers_preemption(self):
        # nothing tight to rescue: the policies are inert, the serve is
        # byte-identical to the off policy
        for policy in ("queued", "running"):
            report, _ = serve(head_of_line_trace()[:LOOSE],
                              preempt_policy=policy)
            assert report.preemptions == 0
            assert report.completed == LOOSE


# ---------------------------------------------------------------------------
# per-tenant isolation
# ---------------------------------------------------------------------------

def flood_trace(hot=24, victims=2):
    trace = [request(i, 0.0, 10.0, tenant="hot") for i in range(hot)]
    trace += [request(hot + i, i * WINDOW_S, 10.0, tenant="victim")
              for i in range(victims)]
    return trace


class TestTenantIsolation:
    WEIGHTS = {"hot": 1.0, "victim": 1.0}

    def test_quota_sheds_only_the_flooding_tenant(self):
        report, core = serve(flood_trace(), max_queue=8,
                             tenant_weights=self.WEIGHTS)
        reasons = {}
        for rec in report.shed:
            reasons[rec.reason] = reasons.get(rec.reason, 0) + 1
        assert reasons.get("tenant_quota", 0) >= 1
        assert all(rec.request.tenant == "hot" for rec in report.shed)
        breakdown = report.tenant_breakdown()
        assert breakdown["victim"]["completed"] == 2
        assert report.starved_tenants == []
        check_exact(core, reference=clean())

    def test_no_quota_without_max_queue(self):
        # fair shares need a bounded queue to divide; weights alone are
        # inert and nothing is shed
        report, _ = serve(flood_trace(), tenant_weights=self.WEIGHTS)
        assert not report.shed
        assert report.completed == report.submitted

    def test_no_quota_without_weights(self):
        # a bounded queue alone keeps the historical global behaviour
        report, _ = serve(flood_trace(), max_queue=8)
        assert all(rec.reason != "tenant_quota" for rec in report.shed)

    def test_starvation_guard_floors_one_slot(self):
        # 100:1 weights squeeze the victim's share below one request;
        # the one-slot floor still lets every victim request complete
        report, _ = serve(flood_trace(), max_queue=8,
                          tenant_weights={"hot": 100.0, "victim": 1.0})
        assert report.tenant_breakdown()["victim"]["completed"] >= 1
        assert "victim" not in report.starved_tenants

    def test_unlisted_tenant_joins_at_weight_one(self):
        trace = flood_trace() + [request(50, 0.0, 10.0, tenant="guest")]
        report, _ = serve(trace, max_queue=8,
                          tenant_weights=self.WEIGHTS)
        assert report.tenant_breakdown()["guest"]["completed"] == 1

    def test_breakdown_sums_to_submissions(self):
        trace = flood_trace()
        report, _ = serve(trace, max_queue=8, tenant_weights=self.WEIGHTS,
                          cancel_after_s=0.5)
        per_tenant = {}
        for r in trace:
            per_tenant[r.tenant] = per_tenant.get(r.tenant, 0) + 1
        for tenant, counts in report.tenant_breakdown().items():
            total = (counts["completed"] + counts["shed"]
                     + counts["cancelled"])
            assert total == per_tenant[tenant]


class TestAssignTenants:
    def test_round_robin_stamp(self):
        trace = [request(i, 0.0, 1.0) for i in range(5)]
        out = assign_tenants(trace, 2)
        assert out[0] is trace[0]  # restamped in place
        assert [r.tenant for r in trace] == ["t0", "t1", "t0", "t1", "t0"]

    def test_single_tenant_is_identity_label(self):
        trace = [request(0, 0.0, 1.0)]
        assign_tenants(trace, 1)
        assert trace[0].tenant == "t0"

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="tenants"):
            assign_tenants([], 0)


# ---------------------------------------------------------------------------
# chaos matrix: preemption x cancellation x faults
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("backlog_oracle_check")
class TestChaosMatrix:
    def test_crash_lands_on_preempting_schedule(self):
        # shard 0 dies right after the tight request forces preemption;
        # the retracted work fails over to shard 1 and nothing is lost
        faults = FaultPlan.outage(0, TIGHT_ARRIVAL_S + 1e-3, 0.05)
        report, core = serve(head_of_line_trace(), devices=2, faults=faults,
                             preempt_policy="running",
                             cancels=[(3, 1e-4)])
        assert report.failures == 1
        assert report.num_cancelled == 1
        check_exact(core, reference=clean(devices=2))

    def test_cancel_mid_failover(self):
        # shard 0 crashes with work in flight; the cancel lands at the
        # same instant the batch is being requeued (fault events order
        # before cancels on the heap, so the cancel sees the failed-over
        # placement)
        crash_s = 1.5e-3
        faults = FaultPlan.outage(0, crash_s, 0.05)
        report, core = serve(head_of_line_trace()[:LOOSE], devices=2,
                             faults=faults,
                             cancels=[(0, crash_s), (7, crash_s)])
        assert report.num_cancelled == 2
        check_exact(core, reference=clean(devices=2))

    def test_total_outage_with_hot_tenant(self):
        # every shard down at once while a quota-bounded flood arrives:
        # admission sheds what cannot fit, recovery serves the rest
        faults = FaultPlan([ShardFault("crash", 0, 1e-3, 0.02),
                            ShardFault("crash", 1, 1e-3, 0.02)])
        report, core = serve(flood_trace(), devices=2, faults=faults,
                             max_queue=8, tenant_weights={"hot": 1.0,
                                                          "victim": 1.0},
                             preempt_policy="running", shed_policy="reject")
        assert report.failures == 2
        assert report.completed > 0
        assert report.starved_tenants == []
        check_exact(core, reference=clean(devices=2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("policy", ["queued", "running"])
    def test_seeded_matrix_conserves_and_stays_exact(self, seed, policy):
        trace = assign_tenants(bursty_trace(seed=seed), 2)
        span = max(r.arrival_s for r in trace)
        faults = flaky_fault_overlay(2, span, seed=seed)
        cancels = [(trace[3].req_id, trace[3].arrival_s + 1e-4),
                   (trace[11].req_id, trace[11].arrival_s + 2e-3)]
        _, core = serve(trace, devices=2, seed=seed, faults=faults,
                        cancels=cancels, preempt_policy=policy,
                        max_queue=16,
                        tenant_weights={"t0": 2.0, "t1": 1.0})
        check_exact(core, reference=clean(seed=seed, devices=2))

    @pytest.mark.parametrize("policy", ["queued", "running"])
    def test_decode_streams_through_total_outage(self, policy,
                                                 backlog_oracle_check):
        # every other arrival is a decode stream; both shards go down at
        # 3 ms for 10 ms, so pending decode jobs are evacuated and parked,
        # later streams park on arrival, flushed batches park, and the
        # quota decisions in between count all of it; arrivals run on
        # past the recovery, which hands the parked work back
        faults = FaultPlan([ShardFault("crash", 0, 3e-3, 0.01),
                            ShardFault("crash", 1, 3e-3, 0.01)])
        _, _, engine = make_stack(
            devices=2, faults=faults, max_queue=8, preempt_policy=policy,
            tenant_weights={"hot": 2.0, "cold": 1.0},
            decode=DecodeOptions(max_new_tokens=6, seed=11))
        core = engine.streaming()
        # parked batch members (1, 7, 9) and a parked decode stream (20)
        cancels = [(1, 3e-3), (9, 4e-3), (7, 5e-3), (20, 6e-3)]
        for rid, at in cancels:
            core.cancel(rid, at_s=at)
        prev = None
        for i in range(80):
            req = request(i, i * 2.5e-4, 10.0,
                          tenant="hot" if i % 3 else "cold")
            if prev is not None and req.arrival_s > prev:
                core.tick(prev)
            if i % 2 == 0:
                core.submit_decode(replace(req, tokens=req.tokens[:4]))
            else:
                core.submit(req)
            prev = req.arrival_s
        core.drain()
        report = core.report()
        assert report.failures == 2
        assert {(c.request.req_id, c.where) for c in report.cancelled} == {
            (1, "parked"), (7, "parked"), (9, "parked"),
            (20, "decode_pending")}
        assert any(rec.reason == "tenant_quota" for rec in report.shed)
        assert report.starved_tenants == []
        seen = backlog_oracle_check
        assert seen.pending_decode and seen.parked_decode and seen.parked


# ---------------------------------------------------------------------------
# the remaining-window admission estimate
# ---------------------------------------------------------------------------

class TestAdmissionEstimate:
    WINDOW = 0.05

    def test_remaining_window_admits_midwindow_arrival(self):
        # A opens the window at t=0; B arrives at 90% of it with an SLO
        # that fits the *residual* wait but not a full second window
        trace = [request(0, 0.0, 1.0),
                 request(1, 0.9 * self.WINDOW, 0.02)]
        _, _, engine = build_serving_stack(StackConfig(
            devices=1, seed=0, window_s=self.WINDOW, shed_policy="reject"))
        report = engine.serve(trace)
        assert report.completed == 2 and not report.shed


# ---------------------------------------------------------------------------
# admission-queue primitives
# ---------------------------------------------------------------------------

class TestAdmissionQueueOps:
    def test_remove_returns_and_drops(self):
        q = AdmissionQueue(max_batch=8, window_s=1.0)
        a, b = request(0, 0.0, 1.0), request(1, 0.0, 1.0)
        q.add(a, 0.0)
        q.add(b, 0.0)
        got = q.remove(0)
        assert got is a
        assert [r.req_id for r in q.waiting()] == [1]

    def test_remove_missing_is_none(self):
        q = AdmissionQueue(max_batch=8, window_s=1.0)
        q.add(request(0, 0.0, 1.0), 0.0)
        assert q.remove(999) is None
        assert len(q) == 1

    def test_remove_last_member_drops_group(self):
        q = AdmissionQueue(max_batch=8, window_s=1.0)
        r = request(0, 0.0, 1.0)
        q.add(r, 0.0)
        assert q.remove(0) is not None
        assert q.open_group(q.key_fn(r)) is None and not q.waiting()

    def test_waiting_preserves_admission_order(self):
        q = AdmissionQueue(max_batch=8, window_s=1.0)
        reqs = [request(i, 0.0, 1.0) for i in range(3)]
        for r in reqs:
            q.add(r, 0.0)
        assert [r.req_id for r in q.waiting()] == [0, 1, 2]


# ---------------------------------------------------------------------------
# CLI knob validation
# ---------------------------------------------------------------------------

SERVE = ["serve", "--scenario", "steady", "--requests", "4"]


class TestCLIValidation:
    def test_max_queue_floor(self):
        with pytest.raises(SystemExit, match="--max-queue"):
            cli_main(SERVE + ["--max-queue", "0"])

    def test_probe_backoff_nan(self):
        with pytest.raises(SystemExit, match="--probe-backoff-ms"):
            cli_main(SERVE + ["--probe-backoff-ms", "nan"])

    def test_cancel_after_negative(self):
        with pytest.raises(SystemExit, match="--cancel-after"):
            cli_main(SERVE + ["--cancel-after", "-5"])

    def test_tenants_floor(self):
        with pytest.raises(SystemExit, match="--tenants"):
            cli_main(SERVE + ["--tenants", "0"])

    def test_tenant_weight_bad_spec(self):
        with pytest.raises(SystemExit, match="tenant-weight"):
            cli_main(SERVE + ["--tenant-weight", "hot"])

    def test_tenant_weight_nan(self):
        with pytest.raises(SystemExit, match="tenant-weight"):
            cli_main(SERVE + ["--tenant-weight", "t0=nan"])

    @pytest.mark.parametrize("flag,value", [
        ("--batch-size", "0"),
        ("--devices", "0"),
        ("--fairness-window", "0"),
        ("--window-ms", "nan"),
        ("--window-ms", "-1"),
        ("--adaptive-low-threshold", "5"),
        ("--cache-budget-kb", "-5"),
        ("--requests", "-3"),
    ])
    def test_bad_value_names_its_flag(self, flag, value):
        # rejected once, by the config, before anything is built
        with pytest.raises(SystemExit, match=f"^{flag}: "):
            cli_main(SERVE + [flag, value])

    def test_preempt_serve_smoke(self, capsys):
        assert cli_main(SERVE + ["--preempt-policy", "running",
                                 "--cancel-after", "50"]) == 0
        import json
        out = json.loads(capsys.readouterr().out)
        assert out["requests"] >= 0

    def test_two_tenant_fairness_smoke(self, capsys):
        assert cli_main(["serve", "--scenario", "bursty", "--requests",
                         "16", "--devices", "2", "--window-ms", "2",
                         "--tenants", "2", "--tenant-weight", "t0=3",
                         "--max-queue", "16"]) == 0
        import json
        out = json.loads(capsys.readouterr().out)
        assert out["requests"] >= 0
