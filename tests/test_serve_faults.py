"""Chaos-matrix tests for the fault-tolerant serving plane.

Every test drives the real streaming engine under a deterministic
:class:`FaultPlan`; the two invariants the faults bench gates come from
:mod:`repro.serve.invariants`:

- **conservation** — ``completed + shed == submitted`` under every
  fault schedule and shed policy (no request is ever silently lost),
  checked by ``check_run`` on every engine at teardown;
- **exactness** — every *completed* output is bit-identical to a
  fault-free serve of the surviving request set (failover re-execution,
  stalls, slowdowns and degradation never perturb served numerics),
  checked by ``check_exact`` against a clean reference session.

Plus the schedule vocabulary itself (``ShardFault`` validation, the
CLI ``--faults`` spec parser, the seeded flaky overlay) and the edge
cases: every shard down at once, crashes landing on in-flight work,
crashes retracting live decode streams, and recovery mid-trace.
"""

import math

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.nn.generation import GenerationConfig
from repro.serve import (
    DecodeOptions,
    FaultPlan,
    InferenceRequest,
    ScenarioConfig,
    ServeConfig,
    ShardFault,
    StackConfig,
    build_scenario,
    build_serving_stack,
    flaky_fault_overlay,
)
from repro.serve.invariants import check_exact

DEVICES = 4
WINDOW_S = 2e-3          # admission window small enough to fit the SLOs
PROBE_S = 5e-3
BURST = 8
# burst families cycle through these; 0.95x dense is infeasible at every
# sparsity rung, so reject shed and degrade rescue are both exercised
FACTORS = (1.7, 1.2, 1.7, 0.95)


def make_stack(seed=0, devices=DEVICES, **kw):
    return build_serving_stack(StackConfig(
        devices=devices, seed=seed, window_s=WINDOW_S,
        probe_backoff_s=PROBE_S, **kw))


def bursty_trace(n=48, seed=0, factors=(1.7, 1.2)):
    _, workload, _ = make_stack(seed)
    return build_scenario("bursty", workload,
                          ScenarioConfig(num_requests=n, seed=seed),
                          burst_size=BURST, deadline_factors=factors)


def steady_trace(n=32, seed=0):
    _, workload, _ = make_stack(seed)
    return build_scenario("steady", workload,
                          ScenarioConfig(num_requests=n, seed=seed))


def serve(trace, faults=None, seed=0, devices=DEVICES, **kw):
    """Play ``trace`` through one session: the report and the session."""
    _, _, engine = make_stack(seed, devices=devices, faults=faults, **kw)
    core = engine.streaming()
    core.play(sorted(trace, key=lambda r: (r.arrival_s, r.req_id)))
    return core.report(), core


def clean(seed=0, devices=DEVICES, **kw):
    """A fresh session of the fault-free stack: the exactness reference."""
    return make_stack(seed, devices=devices, **kw)[2].streaming()


def in_flight_crash(trace, shard=1, duration_s=None):
    """Crash ``shard`` while its first batch is in flight.

    Round-robin routing sends the second burst's batch to shard 1; the
    window closes at that burst's last arrival and the pattern-switch
    charge keeps the batch busy well past close + 3 ms, so the crash
    deterministically retracts live work.
    """
    ordered = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
    close_s = max(r.arrival_s for r in ordered[BURST:2 * BURST])
    span_s = max(r.arrival_s for r in ordered)
    return FaultPlan.outage(shard, close_s + 0.003,
                            duration_s if duration_s is not None
                            else 0.3 * span_s)


# ---------------------------------------------------------------------------
# the schedule vocabulary
# ---------------------------------------------------------------------------

class TestShardFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ShardFault("explode", 0, 0.1)

    def test_negative_shard_rejected(self):
        with pytest.raises(ValueError, match="shard_id"):
            ShardFault("crash", -1, 0.1)

    @pytest.mark.parametrize("at", [-0.1, float("inf"), float("nan")])
    def test_bad_time_rejected(self, at):
        with pytest.raises(ValueError, match="fault time"):
            ShardFault("crash", 0, at)

    @pytest.mark.parametrize("dur", [0.0, -1.0, float("nan")])
    def test_bad_duration_rejected(self, dur):
        with pytest.raises(ValueError, match="duration"):
            ShardFault("crash", 0, 0.1, dur)

    @pytest.mark.parametrize("kind", ["stall", "slow"])
    def test_only_crashes_may_be_permanent(self, kind):
        with pytest.raises(ValueError, match="finite duration"):
            ShardFault(kind, 0, 0.1, float("inf"),
                       factor=2.0 if kind == "slow" else 1.0)

    @pytest.mark.parametrize("factor", [1.0, 0.5])
    def test_slow_factor_must_exceed_one(self, factor):
        with pytest.raises(ValueError, match="factor"):
            ShardFault("slow", 0, 0.1, 0.2, factor)

    def test_end_time(self):
        assert ShardFault("stall", 0, 0.1, 0.2).end_s == pytest.approx(0.3)
        assert math.isinf(ShardFault("crash", 0, 0.1).end_s)


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("crash:1@0.2+0.3, slow:2@0.1+0.2x3,"
                               "stall:0@0.5+0.05, crash:3@1.0")
        kinds = {(f.kind, f.shard_id) for f in plan}
        assert kinds == {("crash", 1), ("slow", 2), ("stall", 0),
                         ("crash", 3)}
        crash = next(f for f in plan if f.shard_id == 1)
        assert crash.at_s == pytest.approx(0.2)
        assert crash.duration_s == pytest.approx(0.3)
        slow = next(f for f in plan if f.kind == "slow")
        assert slow.factor == pytest.approx(3.0)
        permanent = next(f for f in plan if f.shard_id == 3)
        assert math.isinf(permanent.duration_s)

    @pytest.mark.parametrize("spec", ["", "garbage", "crash@0.2",
                                      "crash:x@0.2", "crash:1@",
                                      "boom:1@0.2"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_outage_shape(self):
        plan = FaultPlan.outage(2, 0.4, 0.25)
        assert len(plan) == 1
        fault = plan.events[0]
        assert (fault.kind, fault.shard_id) == ("crash", 2)
        assert fault.end_s == pytest.approx(0.65)

    def test_ordered_is_deterministic(self):
        plan = FaultPlan([ShardFault("stall", 1, 0.2, 0.1),
                          ShardFault("crash", 0, 0.2, 0.1),
                          ShardFault("crash", 0, 0.1, 0.05)])
        ordered = plan.ordered()
        assert [(f.at_s, f.shard_id) for f in ordered] == [
            (0.1, 0), (0.2, 0), (0.2, 1)]

    def test_validate_rejects_out_of_fleet_targets(self):
        # a plan is checked against the fleet by the config carrying it
        with pytest.raises(ValueError, match="shard 7"):
            ServeConfig(devices=4, faults=FaultPlan.outage(7, 0.1))

    def test_injector_validates_backoff(self):
        plan = FaultPlan.outage(0, 0.1)
        with pytest.raises(ValueError, match="probe_backoff_s"):
            ServeConfig(faults=plan, probe_backoff_s=0.0)


class TestFlakyOverlay:
    def test_seeded_and_deterministic(self):
        a = flaky_fault_overlay(4, 2.5, seed=9)
        b = flaky_fault_overlay(4, 2.5, seed=9)
        assert [(f.kind, f.shard_id, f.at_s, f.duration_s, f.factor)
                for f in a] == [(f.kind, f.shard_id, f.at_s, f.duration_s,
                                 f.factor) for f in b]
        c = flaky_fault_overlay(4, 2.5, seed=10)
        assert [(f.at_s, f.kind) for f in a] != [(f.at_s, f.kind)
                                                 for f in c]

    def test_always_crashes_and_rejoins(self):
        plan = flaky_fault_overlay(2, 1.0, seed=0)
        crashes = [f for f in plan if f.kind == "crash"]
        assert crashes  # rate 1.0 guarantees at least one
        assert all(math.isfinite(f.duration_s) for f in crashes)
        assert all(0 <= f.shard_id < 2 for f in plan)
        ServeConfig(devices=2, faults=plan)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            flaky_fault_overlay(0, 1.0)
        with pytest.raises(ValueError):
            flaky_fault_overlay(2, float("inf"))
        with pytest.raises(ValueError):
            flaky_fault_overlay(2, 1.0, crash_rate=-1.0)


# ---------------------------------------------------------------------------
# failover
# ---------------------------------------------------------------------------

class TestFailover:
    def test_crash_retracts_in_flight_work(self):
        trace = bursty_trace(48)
        report, core = serve(trace, faults=in_flight_crash(trace))
        assert report.completed == len(trace)  # failover loses nothing
        assert report.failures == 1
        assert report.recoveries == 1
        assert report.requeued_batches >= 1
        assert report.max_recovery_lag_s > 0
        check_exact(core, reference=clean())

    def test_idle_crash_only_flips_health(self):
        # between bursts (gap 0.5 s) every shard is idle: the crash must
        # fail over nothing, and the shard rejoins via the probe chain
        trace = bursty_trace(32)
        plan = FaultPlan.outage(1, 0.25, 0.1)
        report, core = serve(trace, faults=plan)
        assert report.completed == len(trace)
        assert report.failures == 1
        assert report.recoveries == 1
        assert report.requeued_batches == 0
        check_exact(core, reference=clean())

    def test_stall_is_timing_only(self):
        trace = bursty_trace(32)
        baseline, _ = serve(trace)
        plan = FaultPlan([ShardFault("stall", 0, 0.0005, 0.05)])
        report, core = serve(trace, faults=plan)
        assert report.completed == len(trace)
        assert report.stalls >= 1
        assert report.sim_makespan_s >= baseline.sim_makespan_s
        check_exact(core, reference=clean())

    def test_slow_window_is_timing_only(self):
        trace = bursty_trace(32)
        plan = FaultPlan.parse("slow:0@0.0+1.0x4")
        report, core = serve(trace, faults=plan)
        assert report.completed == len(trace)
        check_exact(core, reference=clean())

    def test_recovery_mid_burst_stream(self):
        # the shard comes back while later bursts are still arriving and
        # must finish the trace without losing or perturbing anything
        trace = bursty_trace(64)
        report, core = serve(trace, faults=in_flight_crash(trace,
                                                           duration_s=0.6))
        assert report.completed == len(trace)
        assert report.recoveries == 1
        check_exact(core, reference=clean())


class TestTotalOutage:
    def test_all_shards_down_sheds_not_hangs(self):
        trace = bursty_trace(16)
        plan = FaultPlan([ShardFault("crash", i, 0.0)
                          for i in range(DEVICES)])
        report, _ = serve(trace, faults=plan)
        assert report.completed == 0
        assert report.num_shed == len(trace)
        assert all(rec.reason == "no_device" for rec in report.shed)

    def test_finite_total_outage_parks_then_flushes(self):
        trace = bursty_trace(16)
        plan = FaultPlan([ShardFault("crash", i, 0.0005, 0.05)
                          for i in range(DEVICES)])
        report, core = serve(trace, faults=plan)
        assert report.completed == len(trace)
        assert report.recoveries == DEVICES
        check_exact(core, reference=clean())


# ---------------------------------------------------------------------------
# shed policies
# ---------------------------------------------------------------------------

class TestShedPolicies:
    def test_bounded_queue_sheds_overflow(self):
        trace = bursty_trace(32)
        report, core = serve(trace, max_queue=1)
        assert report.num_shed > 0
        assert all(rec.reason == "queue_full" for rec in report.shed)
        check_exact(core, reference=clean())

    def test_reject_sheds_infeasible_bursts(self):
        trace = bursty_trace(48, factors=FACTORS)
        report, core = serve(trace, shed_policy="reject")
        assert report.num_shed > 0
        assert all(rec.reason == "deadline" for rec in report.shed)
        assert all(rec.est_completion_s is not None for rec in report.shed)
        check_exact(core, reference=clean())

    def test_degrade_rescues_infeasible_bursts(self):
        trace = bursty_trace(48, factors=FACTORS)
        report, core = serve(trace, shed_policy="degrade")
        assert report.num_shed == 0
        assert report.degraded_requests > 0
        # degraded completions remember their original deadline; the
        # restamped one is the rescue rung's latency (feasible, unlike
        # the original) and must stay inside the untouched SLO
        degraded = [r for r in report.results if r.degraded]
        assert degraded
        assert all(r.request.degraded_from_s is not None
                   and r.request.deadline_s != r.request.degraded_from_s
                   and r.request.deadline_s <= r.request.slo_s
                   for r in degraded)
        check_exact(core, reference=clean())

    def test_degrade_sheds_strictly_less_than_reject(self):
        trace = bursty_trace(48, factors=FACTORS)
        plan = in_flight_crash(trace)
        reject, reject_core = serve(trace, faults=plan, shed_policy="reject")
        degrade, degrade_core = serve(trace, faults=plan,
                                      shed_policy="degrade")
        assert degrade.num_shed < reject.num_shed
        check_exact(reject_core, reference=clean())
        check_exact(degrade_core, reference=clean())


# ---------------------------------------------------------------------------
# decode streams under faults
# ---------------------------------------------------------------------------

class TestDecodeUnderFaults:
    def decode_trace(self, vocab, n, seed=0, spacing=0.01):
        rng = np.random.default_rng(seed)
        reqs = []
        for i in range(n):
            toks = rng.integers(0, vocab,
                                size=int(rng.integers(2, 9))).tolist()
            reqs.append(InferenceRequest(req_id=i, tokens=toks,
                                         level_name=("l2", "l4")[i % 2],
                                         arrival_s=spacing * i))
        return reqs

    def serve_crash(self, at_s):
        """Eight alternating-level streams on two devices; shard 1 down
        from ``at_s`` for 0.2 s (no fault when ``at_s`` is None)."""
        cfg = GenerationConfig(max_new_tokens=6, seed=11)
        opts = DecodeOptions(max_new_tokens=6, seed=11)
        plan = None if at_s is None else FaultPlan.outage(1, at_s, 0.2)
        _, _, engine = make_stack(seed=3, devices=2, faults=plan,
                                  decode=opts)
        trace = self.decode_trace(StackConfig().vocab_size, 8)
        core = engine.streaming()
        for req in trace:
            core.submit_decode(req, config=cfg)
        core.drain()
        report = core.report()
        assert report.completed == len(trace)
        check_exact(core, reference=clean(seed=3, devices=2, decode=opts),
                    decode_config=cfg)
        return report

    def test_crash_mid_decode_stream(self):
        assert self.serve_crash(0.015).failures == 1

    def test_crash_retracts_stream_finished_past_the_crash(self):
        # stream 1 is the first on shard 1; the crash lands inside the
        # boundary it finishes in, so its already-emitted result is
        # retracted and the stream restarts on shard 0
        clean = self.serve_crash(None)
        done_s = next(r.completion_s for r in clean.results
                      if r.request.req_id == 1)
        assert next(r.shard_id for r in clean.results
                    if r.request.req_id == 1) == 1
        report = self.serve_crash(done_s - 1e-6)
        assert report.failures == 1
        assert next(r.shard_id for r in report.results
                    if r.request.req_id == 1) == 0
        assert report.shard_stats[1].decode_streams == 0

    def test_crash_mid_boundary_rolls_device_time_back(self):
        # shard 1's first boundary runs 10.0 -> ~15.3 ms (it pays the
        # cold pattern install); a crash at 10.42 ms cuts it, and the
        # shard does no later work, so its busy time and last completion
        # must stop at the crash instant
        crash_s = 0.01042
        report = self.serve_crash(crash_s)
        stats = report.shard_stats[1]
        assert stats.last_completion_s == crash_s
        assert stats.busy_s == pytest.approx(crash_s - 0.010)


# ---------------------------------------------------------------------------
# chaos matrix: seeded overlays x scenarios x policies
# ---------------------------------------------------------------------------

def _chaos_case(scenario, seed, policy):
    trace = (bursty_trace(32, seed=seed) if scenario == "bursty"
             else steady_trace(32, seed=seed))
    horizon = max(r.arrival_s for r in trace) or 1.0
    plan = flaky_fault_overlay(DEVICES, horizon, seed=seed)
    report, core = serve(trace, faults=plan, seed=seed, shed_policy=policy)
    assert report.failures >= 1
    check_exact(core, reference=clean(seed=seed))


@pytest.mark.usefixtures("backlog_oracle_check")
class TestChaosMatrix:
    @pytest.mark.parametrize("scenario", ["bursty", "steady"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("policy", ["none", "degrade"])
    def test_conservation_and_exactness(self, scenario, seed, policy):
        _chaos_case(scenario, seed, policy)

    @pytest.mark.slow
    @pytest.mark.parametrize("scenario", ["bursty", "steady"])
    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    @pytest.mark.parametrize("policy", ["none", "reject", "degrade"])
    def test_wider_sweep(self, scenario, seed, policy):
        _chaos_case(scenario, seed, policy)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCLIFaults:
    def test_serve_with_flaky_overlay(self, capsys):
        assert cli_main(["serve", "--scenario", "bursty", "--requests",
                         "16", "--devices", "2", "--window-ms", "2",
                         "--faults", "flaky",
                         "--shed-policy", "degrade"]) == 0
        import json
        out = json.loads(capsys.readouterr().out)
        faults = out["faults"]
        assert faults["conserved"] is True
        assert faults["failures"] >= 1
        assert faults["completed"] + faults["shed"] == faults["submitted"]
        assert faults["completed"] > 0  # the tight window actually admits

    def test_serve_with_fault_spec(self, capsys):
        assert cli_main(["serve", "--scenario", "bursty", "--requests",
                         "16", "--devices", "2", "--window-ms", "2",
                         "--faults", "crash:1@0.2+0.3", "--shed-policy",
                         "reject"]) == 0
        import json
        out = json.loads(capsys.readouterr().out)
        assert out["faults"]["failures"] == 1
