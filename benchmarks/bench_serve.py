"""Serving bench: batched + sharded engine vs the single-request path.

Two comparisons, one digest:

- **batching** (steady traffic) — ``max_batch=1`` with no artifact cache
  (the repo's original single-request behaviour) against ``max_batch=8``
  with the LRU artifact cache and time-sliced completions;
- **sharding** (bursty traffic) — the same batched engine on 1 vs
  ``--devices`` simulated devices, saturating bursts on a larger stack
  so compute rather than reconfiguration dominates, with per-shard
  throughput/utilization and the throughput scaling factor.

Reported: measured wall-clock throughput (req/s) for both paths and the
speedup, simulated throughput and p50/p95 latency against the SLO,
cache misses against the distinct (layer, pattern set) pairs installed
(``misses/pairs`` in the table), multi-device scaling, and the worst
absolute deviation between batched/sharded and per-request outputs,
which :func:`~repro.serve.invariants.check_exact` measures while it
holds every output to its eager recomputation.  Machine-readable numbers land in
``benchmarks/results/BENCH_serve.fresh.json``; ``scripts/check_bench_regression.py``
re-runs this bench at the committed configuration and gates CI on the
*simulated* (deterministic) metrics.

Run directly (``python benchmarks/bench_serve.py [--smoke] [--devices N]``)
or via pytest for the asserted shape checks.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional, Tuple

import numpy as np

if __package__ in (None, ""):  # run as a script: python benchmarks/bench_serve.py
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.serve import (
    ScenarioConfig,
    ServeReport,
    StackConfig,
    StreamingEngine,
    build_scenario,
    build_serving_stack,
)
from repro.serve.invariants import check_exact, check_run

from benchmarks.common import write_json_result, write_result

# Sharded comparison stack: dim 96 puts per-batch compute (~4 ms) above
# the pattern-switch cost (~5 ms warm, 0 after prewarm), so throughput
# scaling measures parallelism rather than reconfiguration overhead.
SHARDED_DIM = 96
SHARDED_BURST = 32
SHARDED_GAP_S = 2e-3


Served = Tuple[ServeReport, StreamingEngine]


def serve_scenario(scenario: str, num_requests: int, *, max_batch: int,
                   use_cache: bool, seed: int = 0) -> Served:
    """Serve a named scenario through the shared demo stack; the report
    and the checked session that produced it."""
    _, workload, engine = build_serving_stack(StackConfig(
        seed=seed, max_batch=max_batch, use_cache=use_cache))
    trace = build_scenario(scenario, workload,
                           ScenarioConfig(num_requests=num_requests, seed=seed))
    core = engine.streaming()
    core.play(sorted(trace, key=lambda r: (r.arrival_s, r.req_id)))
    check_run(core)
    return core.report(), core


def serve_sharded(num_requests: int, devices: int, policy: str,
                  seed: int = 0) -> Served:
    """Saturating bursty traffic across ``devices`` simulated shards.

    Both burst deadline factors resolve to the same sparsity rung so the
    1-vs-N comparison isolates compute scaling; ``prewarm=True`` models
    deploy-time mask provisioning on every device.
    """
    _, workload, engine = build_serving_stack(StackConfig(
        dim=SHARDED_DIM, seed=seed, devices=devices, policy=policy,
        prewarm=True))
    trace = build_scenario("bursty", workload,
                           ScenarioConfig(num_requests=num_requests, seed=seed),
                           burst_size=SHARDED_BURST, burst_gap_s=SHARDED_GAP_S,
                           deadline_factors=(1.7, 1.7))
    core = engine.streaming()
    core.play(sorted(trace, key=lambda r: (r.arrival_s, r.req_id)))
    check_run(core)
    return core.report(), core


def run_comparison(num_requests: int = 96, batch: int = 8, seed: int = 0,
                   devices: int = 4, policy: str = "least-loaded") -> dict:
    """Baseline vs batched vs sharded; returns the machine-readable digest."""
    baseline, _ = serve_scenario("steady", num_requests, max_batch=1,
                                 use_cache=False, seed=seed)
    batched, batched_run = serve_scenario("steady", num_requests,
                                          max_batch=batch, use_cache=True,
                                          seed=seed)
    # cross-check: the batched engine must reproduce the baseline's outputs
    cross_err = max(
        (float(np.abs(b.output - s.output).max())
         for b, s in zip(sorted(batched.results, key=lambda r: r.request.req_id),
                         sorted(baseline.results, key=lambda r: r.request.req_id))),
        default=0.0)

    single, _ = serve_sharded(num_requests, 1, policy, seed=seed)
    sharded, sharded_run = serve_sharded(num_requests, devices, policy,
                                         seed=seed)
    makespan = sharded.sim_makespan_s
    return {
        "scenario": "steady",
        "requests": num_requests,
        "batch_size": batch,
        "seed": seed,
        "baseline_throughput_rps": baseline.throughput_rps,
        "batched_throughput_rps": batched.throughput_rps,
        "speedup": (batched.throughput_rps / baseline.throughput_rps
                    if baseline.throughput_rps else float("inf")),
        "sim_throughput_rps": batched.sim_throughput_rps,
        "p50_latency_ms": 1e3 * batched.p50_latency_s,
        "p95_latency_ms": 1e3 * batched.p95_latency_s,
        "slo_hit_rate": batched.deadline_hit_rate,
        "cache_misses": batched.cache_stats.misses,
        # each (layer, pattern set) pair the run installed: the misses a
        # cache that derives every mask once must show
        "cache_layer_set_pairs": (
            len(batched_run.adapter.manager.layers)
            * len({r.sparsity for r in batched.results})),
        "mean_batch_size": batched.mean_batch_size,
        "max_batch_vs_single_error": check_exact(batched_run),
        "max_cross_engine_error": cross_err,
        "sharded": {
            "scenario": "bursty",
            "devices": devices,
            "policy": policy,
            "requests": num_requests,
            "sim_rps_single_device": single.sim_throughput_rps,
            "sim_rps_sharded": sharded.sim_throughput_rps,
            "scaling": (sharded.sim_throughput_rps / single.sim_throughput_rps
                        if single.sim_throughput_rps else float("inf")),
            "p50_latency_ms": 1e3 * sharded.p50_latency_s,
            "p95_latency_ms": 1e3 * sharded.p95_latency_s,
            "max_verify_error": check_exact(sharded_run),
            "per_shard": [s.as_dict(makespan) for s in sharded.shard_stats],
        },
    }


def render(digest: dict) -> str:
    sharded = digest["sharded"]
    shard_util = " ".join(f"{100 * s['utilization']:.0f}%"
                          for s in sharded["per_shard"])
    rows = [
        f"{'path':<22} {'req/s':>10} {'p50 ms':>8} {'p95 ms':>8} {'SLO':>6} {'cache':>6}",
        "-" * 66,
        (f"{'single-request':<22} {digest['baseline_throughput_rps']:>10.0f} "
         f"{'-':>8} {'-':>8} {'-':>6} {'-':>6}"),
        (f"{'batched (B=' + str(digest['batch_size']) + ', cached)':<22} "
         f"{digest['batched_throughput_rps']:>10.0f} "
         f"{digest['p50_latency_ms']:>8.2f} {digest['p95_latency_ms']:>8.2f} "
         f"{100 * digest['slo_hit_rate']:>5.0f}% "
         f"{digest['cache_misses']:>3}/{digest['cache_layer_set_pairs']:<2}"),
        "",
        f"speedup: {digest['speedup']:.2f}x  "
        f"(exactness: batch-vs-single {digest['max_batch_vs_single_error']:.2e}, "
        f"cross-engine {digest['max_cross_engine_error']:.2e})",
        "",
        f"sharded bursty ({sharded['policy']}, prewarmed):",
        (f"  1 device  {sharded['sim_rps_single_device']:>10.0f} sim req/s   "
         f"{sharded['devices']} devices  {sharded['sim_rps_sharded']:>10.0f} sim req/s   "
         f"scaling {sharded['scaling']:.2f}x"),
        (f"  p50 {sharded['p50_latency_ms']:.2f} ms  p95 "
         f"{sharded['p95_latency_ms']:.2f} ms  shard utilization [{shard_util}]  "
         f"verify {sharded['max_verify_error']:.2e}"),
    ]
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_serve_shape():
    digest = run_comparison(num_requests=96, batch=8, devices=4)
    write_result("serve_throughput", render(digest))
    write_json_result("serve", digest)
    # acceptance: batching wins >= 3x, sharding >= 2.5x, the cache
    # derives each installed (layer, set) mask once, and batching changes
    # no output (check_exact already held every batched and sharded
    # output to the eager recomputation)
    assert digest["speedup"] >= 3.0
    assert digest["sharded"]["scaling"] >= 2.5
    assert digest["cache_misses"] == digest["cache_layer_set_pairs"]
    assert digest["max_cross_engine_error"] < 1e-9
    assert digest["slo_hit_rate"] == 1.0


def test_bench_batched_forward(benchmark):
    _, workload, engine = build_serving_stack(StackConfig(max_batch=8))
    trace = build_scenario("steady", workload, ScenarioConfig(num_requests=32))
    result = benchmark(engine.serve, trace)
    assert result.num_requests == 32


# ---------------------------------------------------------------------------
# script entry point (CI smoke job)
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast run for CI (48 requests)")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--devices", type=int, default=4,
                        help="device shards for the sharded comparison")
    parser.add_argument("--policy", default="least-loaded",
                        choices=["round-robin", "least-loaded"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    num = args.requests or (48 if args.smoke else 96)
    digest = run_comparison(num_requests=num, batch=args.batch, seed=args.seed,
                            devices=args.devices, policy=args.policy)
    write_result("serve_throughput", render(digest))
    write_json_result("serve", digest)
    ok = (digest["cache_misses"] == digest["cache_layer_set_pairs"]
          and digest["speedup"] > 1.0
          and (args.devices == 1 or digest["sharded"]["scaling"] > 1.0))
    print(f"smoke {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
