"""Fault-tolerance bench: shard failover, load shedding, degradation.

Serves one seeded bursty trace on four simulated devices while shard 1
crashes mid-burst and stays down for 30% of the trace span, under the
two admission overload defenses (``--shed-policy reject`` vs
``degrade``), and asserts the fault-tolerance invariants end to end:

- **conservation** — no request is ever lost: every submission is
  either completed or accounted for in the shed log
  (``completed + shed == submitted``), under both policies;
- **exactness** — every *completed* output is bit-identical (``==``)
  to a fault-free serve of the surviving request set (degraded
  requests replayed at their restamped deadlines), so failover
  re-execution and degradation never perturb served numerics;
- **separation** — ``degrade`` sheds strictly fewer requests than
  ``reject``: the trace includes burst families whose compute deadline
  is infeasible at every sparsity rung, which ``reject`` drops and
  ``degrade`` rescues at the sparsest rung inside the SLO;
- **failover** — the crash really lands on in-flight work (at least
  one batch is requeued and retried, charged the pattern-switch
  penalty) and the shard rejoins within the recovery-lag budget set by
  the exponential-backoff probe chain.

The digest lands in ``benchmarks/results/BENCH_faults.fresh.json``;
``scripts/check_bench_regression.py`` replays the committed
configuration and gates conservation, exactness, the shed counts of
both policies, the strict reject/degrade separation and the failover
counters (the simulation is deterministic, so those replay exactly).

Run directly: ``python benchmarks/bench_faults.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List, Optional

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.serve import (
    FaultPlan,
    ScenarioConfig,
    StackConfig,
    build_scenario,
    build_serving_stack,
)
from repro.serve.invariants import check_exact, check_run

from benchmarks.common import holds, write_json_result, write_result

DEVICES = 4
FAULT_SHARD = 1
DOWN_FRACTION = 0.3          # outage length as a fraction of the trace span
WINDOW_MS = 2.0              # admission window small enough to fit the SLOs
PROBE_BACKOFF_MS = 5.0
BURST_SIZE = 8
# burst families cycle through these compute-deadline factors; 0.95x the
# dense latency is *infeasible at every sparsity rung* (the pattern
# overhead floor sits above it), so reject must shed those bursts while
# degrade serves them at the sparsest rung inside the (generous) SLO
DEADLINE_FACTORS = (1.7, 1.2, 1.7, 0.95)
# acceptance budgets (the simulation itself is deterministic; these keep
# the *configuration* honest if someone retunes the trace or the probes)
REJECT_SHED_RATE_CEILING = 0.35
DEGRADE_SHED_RATE_CEILING = 0.05
RECOVERY_LAG_FRACTION = 0.75  # detection lag must stay under this x outage


def _stack(seed: int, **kw):
    return build_serving_stack(StackConfig(
        devices=DEVICES, seed=seed, window_s=WINDOW_MS / 1e3,
        probe_backoff_s=PROBE_BACKOFF_MS / 1e3, **kw))


def _trace(num_requests: int, seed: int):
    _, workload, _ = _stack(seed)
    return build_scenario(
        "bursty", workload, ScenarioConfig(num_requests=num_requests, seed=seed),
        burst_size=BURST_SIZE, deadline_factors=DEADLINE_FACTORS)


def _fault_plan(trace) -> FaultPlan:
    """Crash FAULT_SHARD while its first batch is in flight.

    Round-robin routing sends the second burst's batch to shard 1; the
    window closes at that burst's last arrival and the pattern-switch
    charge (~5 ms) keeps the batch in flight well past close + 3 ms, so
    the crash deterministically retracts live work and exercises the
    requeue/retry path, not just an idle health flip.
    """
    ordered = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
    close_s = max(r.arrival_s for r in ordered[BURST_SIZE:2 * BURST_SIZE])
    span_s = max(r.arrival_s for r in ordered)
    return FaultPlan.outage(FAULT_SHARD, close_s + 0.003,
                            DOWN_FRACTION * span_s)


def _serve_policy(trace, plan: FaultPlan, policy: str, seed: int) -> dict:
    """One faulted serve plus its fault-free exactness reference."""
    _, _, engine = _stack(seed, faults=plan, shed_policy=policy)
    core = engine.streaming()
    core.play(sorted(trace, key=lambda r: (r.arrival_s, r.req_id)))
    report = core.report()
    # the reference is a fresh same-seed stack with no faults and no
    # shedding; degraded survivors replay at their restamped deadlines
    # so they resolve to the same sparsity rung
    reference = _stack(seed)[2].streaming()

    reasons: dict = {}
    for record in report.shed:
        reasons[record.reason] = reasons.get(record.reason, 0) + 1
    return {
        "submitted": report.submitted,
        "completed": report.completed,
        "shed": report.num_shed,
        "shed_rate": report.shed_rate,
        "shed_reasons": reasons,
        "conserved": holds(check_run, core),
        "exact": holds(check_exact, core, reference=reference),
        "degraded": report.degraded_requests,
        "failures": report.failures,
        "recoveries": report.recoveries,
        "requeued_batches": report.requeued_batches,
        "retried_batches": sum(s.retried_batches for s in report.shard_stats),
        "retry_penalty_ms": 1e3 * sum(s.retry_penalty_s
                                      for s in report.shard_stats),
        "recovery_lag_s": report.max_recovery_lag_s,
        "p95_latency_ms": 1e3 * report.p95_latency_s,
        "sim_makespan_s": report.sim_makespan_s,
    }


def run_bench(num_requests: int = 96, seed: int = 0) -> dict:
    """Reject-vs-degrade digest under one deterministic shard outage."""
    start = time.perf_counter()
    trace = _trace(num_requests, seed)
    plan = _fault_plan(trace)
    fault = plan.events[0]
    policies = {policy: _serve_policy(trace, plan, policy, seed)
                for policy in ("reject", "degrade")}
    span_s = max(r.arrival_s for r in trace)
    return {
        "scenario": "bursty",
        "requests": num_requests,
        "devices": DEVICES,
        "seed": seed,
        "window_ms": WINDOW_MS,
        "burst_size": BURST_SIZE,
        "deadline_factors": list(DEADLINE_FACTORS),
        "probe_backoff_ms": PROBE_BACKOFF_MS,
        "fault": {"shard": fault.shard_id, "at_s": fault.at_s,
                  "down_s": fault.duration_s, "down_fraction": DOWN_FRACTION,
                  "span_s": span_s},
        "policies": policies,
        "separation": {
            "reject_shed": policies["reject"]["shed"],
            "degrade_shed": policies["degrade"]["shed"],
            "strict": float(policies["degrade"]["shed"]
                            < policies["reject"]["shed"]),
        },
        "acceptance": {
            "reject_shed_rate_ceiling": REJECT_SHED_RATE_CEILING,
            "degrade_shed_rate_ceiling": DEGRADE_SHED_RATE_CEILING,
            "recovery_lag_budget_s": RECOVERY_LAG_FRACTION
            * fault.duration_s,
        },
        "wall_s": time.perf_counter() - start,
    }


def render(digest: dict) -> str:
    fault = digest["fault"]
    rows = [
        f"bursty x{digest['requests']} on {digest['devices']} shards, "
        f"shard {fault['shard']} down {fault['down_s'] * 1e3:.0f} ms "
        f"({100 * fault['down_fraction']:.0f}% of span) from "
        f"t={fault['at_s'] * 1e3:.1f} ms",
        "",
        f"{'policy':>8} {'done':>5} {'shed':>5} {'rate':>6} {'degr':>5} "
        f"{'requeue':>8} {'retry ms':>9} {'lag ms':>7} {'conserved':>10} "
        f"{'exact':>6}",
        "-" * 76,
    ]
    for name, p in digest["policies"].items():
        rows.append(
            f"{name:>8} {p['completed']:>5d} {p['shed']:>5d} "
            f"{p['shed_rate']:>6.3f} {p['degraded']:>5d} "
            f"{p['requeued_batches']:>8d} {p['retry_penalty_ms']:>9.2f} "
            f"{1e3 * p['recovery_lag_s']:>7.1f} "
            f"{bool(p['conserved'])!s:>10} {bool(p['exact'])!s:>6}")
    sep = digest["separation"]
    rows += [
        "",
        f"separation: degrade shed {sep['degrade_shed']} < reject shed "
        f"{sep['reject_shed']} (strict={bool(sep['strict'])})",
    ]
    return "\n".join(rows)


def check(digest: dict) -> bool:
    """Acceptance: conservation, exactness, failover, strict separation."""
    acc = digest["acceptance"]
    reject = digest["policies"]["reject"]
    degrade = digest["policies"]["degrade"]
    fault_exercised = all(
        p["failures"] >= 1 and p["recoveries"] >= 1
        and p["requeued_batches"] >= 1 and p["retried_batches"] >= 1
        and p["recovery_lag_s"] <= acc["recovery_lag_budget_s"]
        for p in (reject, degrade))
    return (bool(reject["conserved"]) and bool(degrade["conserved"])
            and bool(reject["exact"]) and bool(degrade["exact"])
            and fault_exercised
            and bool(digest["separation"]["strict"])
            and reject["shed"] > 0
            and reject["shed_rate"] <= acc["reject_shed_rate_ceiling"]
            and degrade["shed_rate"] <= acc["degrade_shed_rate_ceiling"])


# ---------------------------------------------------------------------------
# pytest entry point (parity with bench_serve; not in the default testpath)
# ---------------------------------------------------------------------------

def test_fault_tolerance():
    digest = run_bench(num_requests=96)
    write_result("faults_failover", render(digest))
    write_json_result("faults", digest)
    assert check(digest)


# ---------------------------------------------------------------------------
# script entry point (CI smoke job)
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast run for CI (48 requests)")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    num = args.requests or (48 if args.smoke else 96)
    digest = run_bench(num_requests=num, seed=args.seed)
    write_result("faults_failover", render(digest))
    write_json_result("faults", digest)
    ok = check(digest)
    print(f"smoke {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
