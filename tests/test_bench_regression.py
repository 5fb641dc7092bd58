"""Unit tests for the CI multi-bench regression gate's rule table."""

import importlib.util
import inspect
import json
import pathlib
import re
import shutil

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent
          / "scripts" / "check_bench_regression.py")
spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def digest(sim_rps=4000.0, p95=6.0, sharded_rps=5000.0, sharded_p95=5.0,
           err=0.0):
    return {
        "requests": 96,
        "batch_size": 8,
        "sim_throughput_rps": sim_rps,
        "p95_latency_ms": p95,
        "baseline_throughput_rps": 500.0,
        "batched_throughput_rps": 3500.0,
        "speedup": 7.0,
        "max_batch_vs_single_error": err,
        "max_cross_engine_error": err,
        "sharded": {
            "devices": 4,
            "policy": "least-loaded",
            "sim_rps_sharded": sharded_rps,
            "p95_latency_ms": sharded_p95,
            "scaling": 2.8,
            "max_verify_error": err,
        },
    }


def kernels_digest(err=0.0, macs=131072, speedup=11.0, min_speedup=5.0):
    return {
        "seed": 0,
        "repeats": 5,
        "smoke": False,
        "cases": {
            "ffn-256x256-s75": {
                "shape": [256, 256],
                "op_counters": {
                    "pattern": {"macs": macs, "index_ops": 12,
                                "overhead_ops": 4096,
                                "weighted_total": macs + 24 + 4096},
                },
                "wall_ms": {"pattern": 2.0},
                "max_abs_err": {"pattern": err, "pattern_vs_loop": err},
            },
        },
        "acceptance": {"case": "ffn-256x256-s75", "min_speedup": min_speedup,
                       "speedup": speedup, "ok": speedup >= min_speedup},
    }


def verdicts(findings):
    return {f["metric"]: f["ok"] for f in findings if f["gated"]}


class TestCompare:
    def test_identical_digests_pass(self):
        findings = gate.compare("serve", digest(), digest())
        assert all(verdicts(findings).values())

    def test_throughput_drop_beyond_tolerance_fails(self):
        findings = gate.compare("serve", digest(), digest(sim_rps=4000.0 * 0.80))
        assert verdicts(findings)["sim_throughput_rps"] is False

    def test_throughput_drop_within_tolerance_passes(self):
        findings = gate.compare("serve", digest(), digest(sim_rps=4000.0 * 0.90))
        assert verdicts(findings)["sim_throughput_rps"] is True

    def test_p95_rise_beyond_tolerance_fails(self):
        findings = gate.compare("serve", digest(), digest(p95=6.0 * 1.25))
        assert verdicts(findings)["p95_latency_ms"] is False

    def test_sharded_metrics_gated_too(self):
        findings = gate.compare(
            "serve", digest(), digest(sharded_rps=5000.0 * 0.5, sharded_p95=5.0 * 2))
        got = verdicts(findings)
        assert got["sharded.sim_rps_sharded"] is False
        assert got["sharded.p95_latency_ms"] is False

    def test_exactness_always_gated(self):
        findings = gate.compare("serve", digest(), digest(err=1e-6))
        got = verdicts(findings)
        assert got["max_batch_vs_single_error"] is False
        assert got["sharded.max_verify_error"] is False

    def test_metric_missing_from_baseline_is_skipped(self):
        base = digest()
        del base["sharded"]
        findings = gate.compare("serve", base, digest())
        got = {f["metric"]: f for f in findings}
        assert got["sharded.sim_rps_sharded"]["ok"] is True
        assert "absent from baseline" in got["sharded.sim_rps_sharded"]["note"]

    def test_metric_missing_from_fresh_run_fails(self):
        fresh = digest()
        del fresh["sim_throughput_rps"]
        findings = gate.compare("serve", digest(), fresh)
        assert verdicts(findings)["sim_throughput_rps"] is False

    def test_wall_clock_metrics_never_gated(self):
        fresh = digest()
        fresh["batched_throughput_rps"] = 1.0  # collapses, but runner-dependent
        fresh["speedup"] = 0.01
        findings = gate.compare("serve", digest(), fresh)
        assert all(verdicts(findings).values())
        info = {f["metric"] for f in findings if not f["gated"]}
        assert {"speedup", "batched_throughput_rps"} <= info


class TestCompareKernels:
    def test_identical_digests_pass(self):
        findings = gate.compare("kernels", kernels_digest(), kernels_digest())
        assert all(verdicts(findings).values())

    def test_exactness_breach_fails(self):
        findings = gate.compare("kernels", kernels_digest(), kernels_digest(err=1e-6))
        got = verdicts(findings)
        assert got["cases.ffn-256x256-s75.max_abs_err.pattern"] is False
        assert got["cases.ffn-256x256-s75.max_abs_err.pattern_vs_loop"] is False

    def test_op_counter_drift_fails(self):
        # op counts are deterministic: any change is a behavioural change
        findings = gate.compare("kernels", kernels_digest(),
                                           kernels_digest(macs=131073))
        got = verdicts(findings)
        assert got["cases.ffn-256x256-s75.op_counters.pattern.macs"] is False

    def test_speedup_below_floor_fails(self):
        findings = gate.compare("kernels", kernels_digest(),
                                           kernels_digest(speedup=3.0))
        assert verdicts(findings)["acceptance.speedup"] is False

    def test_speedup_above_floor_passes(self):
        findings = gate.compare("kernels", kernels_digest(),
                                           kernels_digest(speedup=5.5))
        assert verdicts(findings)["acceptance.speedup"] is True

    def test_dropped_case_fails(self):
        # removing a gated case from the bench must not silently pass
        fresh = kernels_digest()
        del fresh["cases"]["ffn-256x256-s75"]
        findings = gate.compare("kernels", kernels_digest(), fresh)
        missing = [f for f in findings if f["gated"] and not f["ok"]]
        assert missing
        assert any("missing from fresh run" in f["note"] for f in missing)

    def test_dropped_kernel_fails(self):
        fresh = kernels_digest()
        del fresh["cases"]["ffn-256x256-s75"]["op_counters"]["pattern"]
        findings = gate.compare("kernels", kernels_digest(), fresh)
        got = {f["metric"]: f for f in findings if f["gated"]}
        key = "cases.ffn-256x256-s75.op_counters.pattern"
        assert got[key]["ok"] is False

    def test_baseline_speedup_floor_is_authoritative(self):
        # the bench cannot lower its own gate by editing its threshold
        fresh = kernels_digest(speedup=3.0, min_speedup=1.0)
        fresh["acceptance"]["ok"] = True
        findings = gate.compare("kernels", kernels_digest(min_speedup=5.0), fresh)
        assert verdicts(findings)["acceptance.speedup"] is False

    def test_floor_falls_back_to_fresh_for_old_baselines(self):
        base = kernels_digest()
        del base["acceptance"]
        findings = gate.compare("kernels", base, kernels_digest(speedup=6.0))
        assert verdicts(findings)["acceptance.speedup"] is True

    def test_counter_missing_from_baseline_is_skipped(self):
        base = kernels_digest()
        del base["cases"]["ffn-256x256-s75"]["op_counters"]["pattern"]["macs"]
        findings = gate.compare("kernels", base, kernels_digest())
        got = {f["metric"]: f for f in findings}
        key = "cases.ffn-256x256-s75.op_counters.pattern.macs"
        assert got[key]["ok"] is True
        assert "absent from baseline" in got[key]["note"]

    def test_wall_clock_never_gated(self):
        fresh = kernels_digest()
        fresh["cases"]["ffn-256x256-s75"]["wall_ms"]["pattern"] = 1e6
        findings = gate.compare("kernels", kernels_digest(), fresh)
        assert all(verdicts(findings).values())
        info = {f["metric"] for f in findings if not f["gated"]}
        assert "cases.ffn-256x256-s75.wall_ms.pattern" in info


def stream_digest(err=0.0, mono=True, batches=(1.0, 3.4, 8.0),
                  efficiency=(1300.0, 1400.0, 1460.0),
                  p50=(2.1, 5.7, 9.2)):
    return {
        "requests": 64,
        "seed": 0,
        "windows_ms": [0.0, 4.0, 50.0],
        "max_oracle_err": err,
        "monotonic": {"mean_batch_size": mono,
                      "service_throughput_rps": mono,
                      "p50_latency_ms": mono},
        "sweep": [
            {"max_wait_ms": w, "mean_batch_size": b,
             "service_throughput_rps": e, "p50_latency_ms": p}
            for w, b, e, p in zip([0.0, 4.0, 50.0], batches, efficiency, p50)],
        "tradeoff": {"efficiency_gain": efficiency[-1] / efficiency[0],
                     "p50_increase_ms": p50[-1] - p50[0],
                     "batch_growth": batches[-1] / batches[0]},
    }


def table_digest(power_scale=1.0, names=("l1", "l6")):
    return {
        "table": "table1_dvfs",
        "levels": [{"name": n, "freq_mhz": 400.0 if n == "l1" else 1400.0,
                    "voltage_mv": 916.25 if n == "l1" else 1240.0,
                    "power_w": power_scale * (0.07 if n == "l1" else 0.44)}
                   for n in names],
        "governor": {"lookups": 1000, "wall_ms": 0.5,
                     "thresholds": [0.15, 0.40]},
    }


class TestCompareStream:
    def test_identical_digests_pass(self):
        findings = gate.compare("stream", stream_digest(), stream_digest())
        assert all(verdicts(findings).values())

    def test_oracle_exactness_breach_fails(self):
        findings = gate.compare("stream", stream_digest(),
                                          stream_digest(err=1e-6))
        assert verdicts(findings)["max_oracle_err"] is False

    def test_lost_monotonicity_fails(self):
        findings = gate.compare("stream", stream_digest(),
                                          stream_digest(mono=False))
        got = verdicts(findings)
        assert got["monotonic.mean_batch_size"] is False
        assert got["monotonic.p50_latency_ms"] is False

    def test_batch_size_drift_fails(self):
        findings = gate.compare(
            "stream", stream_digest(), stream_digest(batches=(1.0, 4.0, 8.0)))
        assert verdicts(findings)["sweep[1].mean_batch_size"] is False

    def test_endpoint_efficiency_drop_fails(self):
        findings = gate.compare(
            "stream", stream_digest(),
            stream_digest(efficiency=(1300.0, 1400.0, 1460.0 * 0.5)))
        assert verdicts(findings)["sweep[-1].service_throughput_rps"] is False

    def test_endpoint_p50_rise_fails(self):
        findings = gate.compare(
            "stream", stream_digest(), stream_digest(p50=(2.1, 5.7, 9.2 * 2.0)))
        assert verdicts(findings)["sweep[-1].p50_latency_ms"] is False

    def test_drift_within_tolerance_passes(self):
        findings = gate.compare(
            "stream", stream_digest(),
            stream_digest(efficiency=(1300.0, 1400.0, 1460.0 * 0.9)))
        assert verdicts(findings)["sweep[-1].service_throughput_rps"] is True


class TestCompareTable:
    def test_identical_digests_pass(self):
        findings = gate.compare("table", table_digest(), table_digest())
        assert all(verdicts(findings).values())

    def test_row_drift_fails(self):
        findings = gate.compare("table", table_digest(),
                                         table_digest(names=("l1", "l5")))
        assert verdicts(findings)["levels.row_set"] is False

    def test_power_drift_beyond_one_percent_fails(self):
        findings = gate.compare("table", table_digest(),
                                         table_digest(power_scale=1.02))
        got = verdicts(findings)
        assert got["levels.l1.power_w"] is False
        assert got["levels.l6.power_w"] is False

    def test_power_drift_within_budget_passes(self):
        findings = gate.compare("table", table_digest(),
                                         table_digest(power_scale=1.005))
        assert all(verdicts(findings).values())

    def test_wall_clock_never_gated(self):
        fresh = table_digest()
        fresh["governor"]["wall_ms"] = 1e6
        findings = gate.compare("table", table_digest(), fresh)
        assert all(verdicts(findings).values())
        info = {f["metric"] for f in findings if not f["gated"]}
        assert "governor.wall_ms" in info


def table2_digest(e3=2.5e6, meets=True):
    rows = [{"experiment": "E1", "level": "l6", "latency_ms": 114.7,
             "meets_deadline": True},
            {"experiment": "E3", "level": "l3", "latency_ms": 114.0,
             "meets_deadline": meets}]
    return {
        "table": "table2_reconfig",
        "deadline_ms": 115.0,
        "rows": rows,
        "total_runs": {"E1": 1.53e6, "E2": 1.78e6, "E3": e3},
        "improvement": {"E2_vs_E1": 1.164, "E3_vs_E1": e3 / 1.53e6},
        "wall_ms": 0.2,
    }


class TestCompareTable2:
    def test_identical_digests_pass(self):
        findings = gate.compare("table2", table2_digest(), table2_digest())
        assert all(verdicts(findings).values())

    def test_row_verdict_drift_fails(self):
        findings = gate.compare("table2", table2_digest(),
                                          table2_digest(meets=False))
        assert verdicts(findings)["rows.row_set"] is False

    def test_run_total_drift_fails(self):
        findings = gate.compare("table2", table2_digest(),
                                          table2_digest(e3=2.6e6))
        assert verdicts(findings)["total_runs.E3"] is False

    def test_wall_clock_never_gated(self):
        fresh = table2_digest()
        fresh["wall_ms"] = 1e6
        findings = gate.compare("table2", table2_digest(), fresh)
        assert all(verdicts(findings).values())
        info = {f["metric"] for f in findings if not f["gated"]}
        assert "wall_ms" in info


def forward_digest(err=0.0, nodes=238, allocs=0, speedup=3.5,
                   min_speedup=2.0, rel32=2e-7):
    return {
        "bench": "forward",
        "smoke": False,
        "seed": 0,
        "repeats": 5,
        "cases": {
            "serve.b1": {
                "model": "TransformerLM", "batch": 1, "seq_len": 12,
                "tensor_ms": 1.4, "compiled_ms": 1.4 / speedup,
                "speedup": speedup, "max_abs_err": err,
                "exact": err == 0.0, "tensor_nodes": nodes,
                "compiled_steady_allocs": allocs,
                "compiled_warm_allocs": 14,
                "float32_max_rel_err": rel32,
            },
        },
        "acceptance": {"case": "serve.b1", "speedup": speedup,
                       "min_speedup": min_speedup, "exact": err == 0.0,
                       "float32_tol": 1e-3},
    }


class TestCompareForward:
    def test_identical_digests_pass(self):
        findings = gate.compare("forward", forward_digest(), forward_digest())
        assert all(verdicts(findings).values())

    def test_any_exactness_breach_fails(self):
        # bit-exactness: even a 1e-16 deviation is a gate failure
        findings = gate.compare("forward", forward_digest(),
                                           forward_digest(err=1e-16))
        assert verdicts(findings)["cases.serve.b1.max_abs_err"] is False

    def test_node_count_drift_fails(self):
        findings = gate.compare("forward", forward_digest(),
                                           forward_digest(nodes=239))
        assert verdicts(findings)["cases.serve.b1.tensor_nodes"] is False

    def test_steady_alloc_drift_fails(self):
        findings = gate.compare("forward", forward_digest(),
                                           forward_digest(allocs=3))
        assert (verdicts(findings)["cases.serve.b1.compiled_steady_allocs"]
                is False)

    def test_speedup_below_floor_fails(self):
        findings = gate.compare("forward", forward_digest(),
                                           forward_digest(speedup=1.5))
        assert verdicts(findings)["acceptance.speedup"] is False

    def test_baseline_floor_is_authoritative(self):
        # a fresh run cannot lower the gate by shipping a smaller floor
        fresh = forward_digest(speedup=2.2)
        fresh["acceptance"]["min_speedup"] = 1.0
        findings = gate.compare("forward", forward_digest(min_speedup=2.5),
                                           fresh)
        assert verdicts(findings)["acceptance.speedup"] is False

    def test_float32_tolerance_breach_fails(self):
        findings = gate.compare("forward", forward_digest(),
                                           forward_digest(rel32=5e-3))
        assert (verdicts(findings)["cases.serve.b1.float32_max_rel_err"]
                is False)

    def test_dropped_case_fails(self):
        fresh = forward_digest()
        fresh["cases"] = {}
        findings = gate.compare("forward", forward_digest(), fresh)
        assert verdicts(findings)["cases.serve.b1"] is False

    def test_wall_clock_never_gated(self):
        fresh = forward_digest()
        fresh["cases"]["serve.b1"]["tensor_ms"] = 1e6
        fresh["cases"]["serve.b1"]["compiled_ms"] = 1e6
        findings = gate.compare("forward", forward_digest(), fresh)
        info = {f["metric"] for f in findings if not f["gated"]}
        assert "cases.serve.b1.speedup" in info


def generate_digest(exact=True, err=0.0, ragged=True, speedup=2.6,
                    min_speedup=2.0):
    return {
        "bench": "generate",
        "smoke": False,
        "seed": 0,
        "repeats": 5,
        "cases": {
            "serve.dense": {
                "prompt_len": 5, "new_tokens": 10,
                "eager_tok_ms": 1.1, "compiled_tok_ms": 1.1 / speedup,
                "speedup": speedup, "exact": exact,
                "max_abs_err": err, "ragged_exact": ragged,
            },
        },
        "batching": {"streams": 8, "new_tokens_per_stream": 10,
                     "batched_tok_ms": 0.13, "eager_tok_ms": 1.2,
                     "speedup": 9.2},
        "acceptance": {"case": "serve.dense", "speedup": speedup,
                       "min_speedup": min_speedup, "exact": exact,
                       "ragged_exact": ragged},
    }


class TestCompareGenerate:
    def test_identical_digests_pass(self):
        findings = gate.compare("generate", generate_digest(), generate_digest())
        assert all(verdicts(findings).values())

    def test_exactness_breach_fails(self):
        findings = gate.compare("generate", generate_digest(),
                                            generate_digest(exact=False))
        assert verdicts(findings)["cases.serve.dense.exact"] is False

    def test_logprob_err_breach_fails(self):
        # bit-exactness: even a 1e-16 logprob deviation is a gate failure
        findings = gate.compare("generate", generate_digest(),
                                            generate_digest(err=1e-16))
        assert verdicts(findings)["cases.serve.dense.max_abs_err"] is False

    def test_ragged_schedule_breach_fails(self):
        findings = gate.compare("generate", generate_digest(),
                                            generate_digest(ragged=False))
        assert verdicts(findings)["cases.serve.dense.ragged_exact"] is False

    def test_speedup_below_floor_fails(self):
        findings = gate.compare("generate", generate_digest(),
                                            generate_digest(speedup=1.4))
        assert verdicts(findings)["acceptance.speedup"] is False

    def test_baseline_floor_is_authoritative(self):
        # a fresh run cannot lower the gate by shipping a smaller floor
        fresh = generate_digest(speedup=2.2)
        fresh["acceptance"]["min_speedup"] = 1.0
        findings = gate.compare("generate", generate_digest(min_speedup=2.5),
                                            fresh)
        assert verdicts(findings)["acceptance.speedup"] is False

    def test_dropped_case_fails(self):
        fresh = generate_digest()
        fresh["cases"] = {}
        findings = gate.compare("generate", generate_digest(), fresh)
        assert verdicts(findings)["cases.serve.dense"] is False

    def test_wall_clock_never_gated(self):
        fresh = generate_digest(speedup=0.01)
        fresh["acceptance"]["speedup"] = 2.6  # per-case speedups are info
        fresh["batching"]["speedup"] = 0.01
        findings = gate.compare("generate", generate_digest(), fresh)
        info = {f["metric"] for f in findings if not f["gated"]}
        assert "cases.serve.dense.speedup" in info
        assert "batching.speedup" in info
        assert all(verdicts(findings).values())


def _fault_policy(shed=24, completed=72, conserved=True, exact=True,
                  degraded=0, requeued=1, retried=1, lag=0.9):
    return {
        "submitted": 96, "completed": completed, "shed": shed,
        "shed_rate": shed / 96.0, "shed_reasons": {"deadline": shed},
        "conserved": float(conserved), "exact": float(exact),
        "degraded": degraded, "failures": 1, "recoveries": 1,
        "requeued_batches": requeued, "retried_batches": retried,
        "retry_penalty_ms": 5.18, "recovery_lag_s": lag,
        "p95_latency_ms": 13.9, "sim_makespan_s": 5.6,
    }


def faults_digest(reject_shed=24, degrade_shed=0, conserved=True, exact=True,
                  lag=0.9, lag_budget=1.24, reject_ceiling=0.35,
                  degrade_ceiling=0.05):
    return {
        "scenario": "bursty", "requests": 96, "devices": 4, "seed": 0,
        "fault": {"shard": 1, "at_s": 0.5, "down_s": 1.65,
                  "down_fraction": 0.3, "span_s": 5.5},
        "policies": {
            "reject": _fault_policy(shed=reject_shed,
                                    completed=96 - reject_shed,
                                    conserved=conserved, exact=exact,
                                    lag=lag),
            "degrade": _fault_policy(shed=degrade_shed,
                                     completed=96 - degrade_shed,
                                     conserved=conserved, exact=exact,
                                     degraded=24, lag=lag),
        },
        "separation": {"reject_shed": reject_shed,
                       "degrade_shed": degrade_shed,
                       "strict": float(degrade_shed < reject_shed)},
        "acceptance": {"reject_shed_rate_ceiling": reject_ceiling,
                       "degrade_shed_rate_ceiling": degrade_ceiling,
                       "recovery_lag_budget_s": lag_budget},
        "wall_s": 0.1,
    }


class TestCompareFaults:
    def test_identical_digests_pass(self):
        findings = gate.compare("faults", faults_digest(), faults_digest())
        assert all(verdicts(findings).values())

    def test_conservation_breach_fails(self):
        findings = gate.compare("faults", faults_digest(),
                                          faults_digest(conserved=False))
        v = verdicts(findings)
        assert v["policies.reject.conserved"] is False
        assert v["policies.degrade.conserved"] is False

    def test_exactness_breach_fails(self):
        findings = gate.compare("faults", faults_digest(),
                                          faults_digest(exact=False))
        assert verdicts(findings)["policies.reject.exact"] is False

    def test_shed_count_drift_fails(self):
        # deterministic simulation: even one extra shed request fails
        findings = gate.compare("faults", faults_digest(),
                                          faults_digest(reject_shed=25))
        assert verdicts(findings)["policies.reject.shed"] is False

    def test_lost_strict_separation_fails(self):
        findings = gate.compare(
            "faults", faults_digest(), faults_digest(reject_shed=24, degrade_shed=24))
        assert verdicts(findings)["separation.strict"] is False

    def test_missing_policy_fails(self):
        fresh = faults_digest()
        del fresh["policies"]["degrade"]
        findings = gate.compare("faults", faults_digest(), fresh)
        assert verdicts(findings)["policies.degrade"] is False

    def test_recovery_lag_over_budget_fails(self):
        findings = gate.compare("faults", faults_digest(),
                                          faults_digest(lag=1.5))
        assert verdicts(findings)["policies.reject.recovery_lag_s"] is False

    def test_baseline_budgets_are_authoritative(self):
        # a fresh run cannot widen the gate by shipping looser budgets
        fresh = faults_digest(lag=1.5, lag_budget=2.0)
        findings = gate.compare("faults", faults_digest(), fresh)
        assert verdicts(findings)["policies.reject.recovery_lag_s"] is False

    def test_penalty_and_latency_never_gated(self):
        fresh = faults_digest()
        fresh["policies"]["reject"]["retry_penalty_ms"] = 99.0
        fresh["policies"]["reject"]["p95_latency_ms"] = 99.0
        findings = gate.compare("faults", faults_digest(), fresh)
        info = {f["metric"] for f in findings if not f["gated"]}
        assert "policies.reject.retry_penalty_ms" in info
        assert "policies.reject.p95_latency_ms" in info
        assert all(verdicts(findings).values())


def _preempt_arm(completed=55, shed=45, cancelled=2, preemptions=12,
                 victim_misses=0, conserved=True, exact=True,
                 starved=(), hot_shed_rate=0.47):
    return {
        "submitted": 102, "completed": completed, "shed": shed,
        "shed_reasons": {"queue_full": shed}, "cancelled": cancelled,
        "cancel_where": ["inflight", "inflight"],
        "preemptions": preemptions, "requeued_batches": 0,
        "retried_batches": preemptions, "retry_penalty_ms": 140.0,
        "conserved": float(conserved), "exact": float(exact),
        "starved_tenants": list(starved),
        "tenants": {}, "victim_slo_misses": victim_misses,
        "hot_slo_misses": shed, "hot_shed_rate": hot_shed_rate,
        "victim_p95_latency_ms": 1.0, "p95_latency_ms": 8.0,
        "sim_makespan_s": 0.02,
    }


def preempt_digest(fifo_misses=6, preempt_misses=0, conserved=True,
                   exact=True, preemptions=12, cancelled=2, starved=(),
                   hot_shed_rate=0.47, miss_floor=1, miss_ceiling=0,
                   shed_ceiling=0.75):
    return {
        "scenario": "hot-tenant head-of-line", "requests": 102,
        "devices": 1, "seed": 0, "cancels": 2,
        "policies": {
            "fifo": _preempt_arm(completed=38, shed=62, preemptions=0,
                                 victim_misses=fifo_misses,
                                 conserved=conserved, exact=exact,
                                 cancelled=cancelled,
                                 hot_shed_rate=hot_shed_rate),
            "preempt": _preempt_arm(victim_misses=preempt_misses,
                                    conserved=conserved, exact=exact,
                                    preemptions=preemptions,
                                    cancelled=cancelled, starved=starved,
                                    hot_shed_rate=hot_shed_rate),
        },
        "separation": {"fifo_victim_misses": fifo_misses,
                       "preempt_victim_misses": preempt_misses,
                       "strict": float(preempt_misses < fifo_misses)},
        "acceptance": {"fifo_victim_miss_floor": miss_floor,
                       "preempt_victim_miss_ceiling": miss_ceiling,
                       "hot_shed_rate_ceiling": shed_ceiling},
        "wall_s": 0.1,
    }


class TestComparePreempt:
    def test_identical_digests_pass(self):
        findings = gate.compare("preempt", preempt_digest(), preempt_digest())
        assert all(verdicts(findings).values())

    def test_conservation_breach_fails(self):
        findings = gate.compare("preempt", preempt_digest(),
                                           preempt_digest(conserved=False))
        v = verdicts(findings)
        assert v["policies.fifo.conserved"] is False
        assert v["policies.preempt.conserved"] is False

    def test_exactness_breach_fails(self):
        findings = gate.compare("preempt", preempt_digest(),
                                           preempt_digest(exact=False))
        assert verdicts(findings)["policies.preempt.exact"] is False

    def test_counter_drift_fails(self):
        # deterministic simulation: even one extra preemption fails
        findings = gate.compare("preempt", preempt_digest(),
                                           preempt_digest(preemptions=13))
        assert verdicts(findings)["policies.preempt.preemptions"] is False

    def test_cancel_count_drift_fails(self):
        findings = gate.compare("preempt", preempt_digest(),
                                           preempt_digest(cancelled=1))
        assert verdicts(findings)["policies.fifo.cancelled"] is False

    def test_lost_strict_separation_fails(self):
        findings = gate.compare(
            "preempt", preempt_digest(),
            preempt_digest(fifo_misses=6, preempt_misses=6))
        assert verdicts(findings)["separation.strict"] is False

    def test_starved_tenant_fails(self):
        findings = gate.compare(
            "preempt", preempt_digest(), preempt_digest(starved=("victim",)))
        assert (verdicts(findings)["policies.preempt.starved_tenants"]
                is False)

    def test_missing_arm_fails(self):
        fresh = preempt_digest()
        del fresh["policies"]["preempt"]
        findings = gate.compare("preempt", preempt_digest(), fresh)
        assert verdicts(findings)["policies.preempt"] is False

    def test_hot_shed_rate_over_budget_fails(self):
        findings = gate.compare("preempt", preempt_digest(),
                                           preempt_digest(hot_shed_rate=0.9))
        assert verdicts(findings)["policies.fifo.hot_shed_rate"] is False

    def test_baseline_budgets_are_authoritative(self):
        # a fresh run cannot widen the gate by shipping looser budgets
        fresh = preempt_digest(hot_shed_rate=0.9, shed_ceiling=0.95)
        findings = gate.compare("preempt", preempt_digest(), fresh)
        assert verdicts(findings)["policies.fifo.hot_shed_rate"] is False

    def test_preempt_ceiling_gates_fresh_misses(self):
        # the fresh preempt arm drifting to 1 victim miss fails both the
        # exact counter and the committed ceiling
        fresh = preempt_digest(preempt_misses=1)
        v = verdicts(gate.compare("preempt", preempt_digest(), fresh))
        assert v["policies.preempt.victim_slo_misses"] is False
        assert v["policies.preempt.victim_miss_ceiling"] is False

    def test_penalty_and_latency_never_gated(self):
        fresh = preempt_digest()
        fresh["policies"]["preempt"]["retry_penalty_ms"] = 99.0
        fresh["policies"]["preempt"]["victim_p95_latency_ms"] = 99.0
        findings = gate.compare("preempt", preempt_digest(), fresh)
        info = {f["metric"] for f in findings if not f["gated"]}
        assert "policies.preempt.retry_penalty_ms" in info
        assert "policies.preempt.victim_p95_latency_ms" in info
        assert all(verdicts(findings).values())


def fig3_digest(best_aw=0.62, best_reward=0.55, front=None, feasible=6,
                l3=0.3):
    front = front if front is not None else [[0.58, 1.2e6], [0.62, 9.5e5]]
    return {
        "bench": "fig3_pareto",
        "seed": 0, "episodes": 6, "pretrain_epochs": 6,
        "searches": {
            "loose-104ms": {
                "deadline_ms": 104.0,
                "num_episodes": 6,
                "num_feasible": feasible,
                "feasible_points": front,
                "pareto_front": front,
                "best_weighted_accuracy": best_aw,
                "best_reward": best_reward,
                "heuristic_weighted_accuracy": 0.55,
                "original_accuracy": 0.66,
                "backbone_accuracy": 0.64,
                "min_sparsity": {"l3": l3, "l4": 0.4, "l6": 0.6},
            },
        },
        "wall_s": 12.0,
    }


class TestCompareFig3:
    def test_identical_digests_pass(self):
        findings = gate.compare("fig3", fig3_digest(), fig3_digest())
        assert all(verdicts(findings).values())

    def test_dropped_pareto_point_fails(self):
        # the replayed front no longer reaches the second committed point
        fresh = fig3_digest(front=[[0.58, 1.2e6]])
        findings = gate.compare("fig3", fig3_digest(), fresh)
        assert verdicts(findings)["searches.loose-104ms.pareto[1]"] is False

    def test_dominating_front_passes(self):
        fresh = fig3_digest(front=[[0.60, 1.3e6], [0.64, 9.6e5]])
        findings = gate.compare("fig3", fig3_digest(), fresh)
        assert all(v for k, v in verdicts(findings).items() if "pareto" in k)

    def test_accuracy_regression_beyond_budget_fails(self):
        findings = gate.compare("fig3", fig3_digest(), fig3_digest(best_aw=0.55))
        got = verdicts(findings)
        assert got["searches.loose-104ms.best_weighted_accuracy"] is False

    def test_accuracy_drift_within_budget_passes(self):
        findings = gate.compare("fig3", fig3_digest(), fig3_digest(best_aw=0.61))
        got = verdicts(findings)
        assert got["searches.loose-104ms.best_weighted_accuracy"] is True

    def test_lost_feasible_points_fail(self):
        findings = gate.compare("fig3", fig3_digest(), fig3_digest(feasible=4))
        assert verdicts(findings)["searches.loose-104ms.num_feasible"] is False

    def test_sparsity_grid_drift_fails(self):
        findings = gate.compare("fig3", fig3_digest(), fig3_digest(l3=0.25))
        got = verdicts(findings)
        assert got["searches.loose-104ms.min_sparsity.l3"] is False

    def test_missing_search_fails(self):
        fresh = fig3_digest()
        fresh["searches"] = {}
        findings = gate.compare("fig3", fig3_digest(), fresh)
        assert verdicts(findings)["searches.loose-104ms"] is False

    def test_wall_clock_never_gated(self):
        fresh = fig3_digest()
        fresh["wall_s"] = 1e6
        findings = gate.compare("fig3", fig3_digest(), fresh)
        assert all(verdicts(findings).values())


def fig4_digest(sparsity=0.5625, digests=("a1b2", "c3d4", "e5f6"),
                shared=0.41):
    return {
        "bench": "fig4_patterns",
        "seed": 0, "pretrain_epochs": 2, "deadline_ms": 104.0,
        "levels": [{"level": "l3", "sparsity": sparsity, "num_patterns": 3,
                    "pattern_size": 12, "pattern_digests": list(digests)}],
        "overlap": {"pair": "l3-l6", "shared_kept": shared, "chance": 0.33},
        "wall_s": 3.0,
    }


class TestCompareFig4:
    def test_identical_digests_pass(self):
        findings = gate.compare("fig4", fig4_digest(), fig4_digest())
        assert all(verdicts(findings).values())

    def test_pattern_content_drift_fails(self):
        # same sparsity/counts but different searched patterns
        fresh = fig4_digest(digests=("a1b2", "c3d4", "ffff"))
        findings = gate.compare("fig4", fig4_digest(), fresh)
        assert verdicts(findings)["levels.row_set"] is False

    def test_sparsity_drift_fails(self):
        findings = gate.compare("fig4", fig4_digest(), fig4_digest(sparsity=0.5))
        assert verdicts(findings)["levels.row_set"] is False

    def test_overlap_drift_fails(self):
        findings = gate.compare("fig4", fig4_digest(), fig4_digest(shared=0.5))
        assert verdicts(findings)["overlap.shared_kept"] is False


def fig5_digest(pruned=0.55, mean_loss=0.02):
    rows = [{"task": "wikitext2", "rate": 0.3, "dense_score": 0.57,
             "pruned_score": pruned, "score_loss": round(0.57 - pruned, 9),
             "compression": 1.43}]
    return {"bench": "fig5_block_pruning", "tasks": ["wikitext2"],
            "pretrain_epochs": 6, "finetune_epochs": 3, "rows": rows,
            "mean_score_loss": mean_loss, "wall_s": 9.0}


class TestCompareFig5:
    def test_identical_digests_pass(self):
        findings = gate.compare("fig5", fig5_digest(), fig5_digest())
        assert all(verdicts(findings).values())

    def test_score_drift_fails(self):
        findings = gate.compare("fig5", fig5_digest(), fig5_digest(pruned=0.54))
        assert verdicts(findings)["rows.row_set"] is False

    def test_mean_loss_drift_fails(self):
        findings = gate.compare("fig5", fig5_digest(),
                                        fig5_digest(mean_loss=0.03))
        assert verdicts(findings)["mean_score_loss"] is False

    def test_wall_clock_never_gated(self):
        fresh = fig5_digest()
        fresh["wall_s"] = 1e6
        findings = gate.compare("fig5", fig5_digest(), fresh)
        assert all(verdicts(findings).values())
        info = {f["metric"] for f in findings if not f["gated"]}
        assert "wall_s" in info


def table3_digest(best_reward=0.52, rt3=0.60, meets=True, speedup=5200.0,
                  switch_ms=8.75, floor=1000.0, episodes=4):
    trajectory = [None, 0.4] + [best_reward] * (episodes - 2)
    return {
        "bench": "table3_automl", "seed": 0, "episodes": episodes,
        "experiments": {
            "WikiText-2 (T:104ms)": {
                "deadline_ms": 104.0,
                "levels": [{"level": "l6", "sparsity": 0.56,
                            "latency_ms": 95.2, "ub_score": 0.62,
                            "rt3_score": rt3, "meets_deadline": meets}],
                "best_reward": best_reward,
                "best_reward_trajectory": trajectory,
                "ub_reload_ms": speedup * switch_ms,
                "rt3_switch_ms": switch_ms,
                "switch_speedup": speedup,
            },
        },
        "min_switch_speedup": floor,
        "wall_s": 30.0,
    }


class TestCompareTable3:
    def test_identical_digests_pass(self):
        findings = gate.compare("table3", table3_digest(), table3_digest())
        assert all(verdicts(findings).values())

    def test_deadline_verdict_flip_fails(self):
        findings = gate.compare("table3", table3_digest(),
                                          table3_digest(meets=False))
        assert verdicts(findings)["verdicts.row_set"] is False

    def test_best_reward_regression_beyond_budget_fails(self):
        findings = gate.compare("table3", table3_digest(),
                                          table3_digest(best_reward=0.40))
        got = verdicts(findings)
        assert got["experiments.WikiText-2 (T:104ms).best_reward"] is False

    def test_best_reward_drift_within_budget_passes(self):
        findings = gate.compare("table3", table3_digest(),
                                          table3_digest(best_reward=0.48))
        got = verdicts(findings)
        assert got["experiments.WikiText-2 (T:104ms).best_reward"] is True

    def test_rt3_score_regression_fails(self):
        findings = gate.compare("table3", table3_digest(),
                                          table3_digest(rt3=0.50))
        got = verdicts(findings)
        key = "experiments.WikiText-2 (T:104ms).levels.l6.rt3_score"
        assert got[key] is False

    def test_switch_speedup_below_floor_fails(self):
        findings = gate.compare("table3", table3_digest(),
                                          table3_digest(speedup=800.0))
        got = verdicts(findings)
        assert got["experiments.WikiText-2 (T:104ms).switch_speedup"] is False

    def test_baseline_floor_is_authoritative(self):
        # a fresh run cannot lower the gate by shipping a smaller floor
        findings = gate.compare("table3", table3_digest(floor=2000.0),
                                          table3_digest(speedup=1500.0,
                                                     floor=1.0))
        got = verdicts(findings)
        assert got["experiments.WikiText-2 (T:104ms).switch_speedup"] is False

    def test_switch_cost_rise_beyond_budget_fails(self):
        findings = gate.compare(
            "table3", table3_digest(), table3_digest(switch_ms=8.75 * 1.2,
                                           speedup=5200.0 / 1.2))
        got = verdicts(findings)
        assert got["experiments.WikiText-2 (T:104ms).rt3_switch_ms"] is False

    def test_shortened_trajectory_fails(self):
        findings = gate.compare("table3", table3_digest(),
                                          table3_digest(episodes=3))
        got = verdicts(findings)
        assert got["experiments.WikiText-2 (T:104ms).trajectory_len"] is False

    def test_missing_experiment_fails(self):
        fresh = table3_digest()
        fresh["experiments"] = {}
        findings = gate.compare("table3", table3_digest(), fresh)
        assert verdicts(findings)["experiments.WikiText-2 (T:104ms)"] is False


def table4_digest(rt3_impr=4.9):
    rows = [
        {"task": "wikitext2", "method": "No-Opt", "avg_sparsity": 0.0,
         "runs": 1.2e6, "improvement": 1.0, "avg_accuracy": 0.57,
         "accuracy_loss": 0.0},
        {"task": "wikitext2", "method": "RT3", "avg_sparsity": 0.55,
         "runs": 1.2e6 * rt3_impr, "improvement": rt3_impr,
         "avg_accuracy": 0.56, "accuracy_loss": 0.01},
    ]
    return {"bench": "table4_ablation", "tasks": ["wikitext2"],
            "episodes": {"wikitext2": 4}, "pretrain_epochs": 6,
            "finetune_epochs": 2, "rows": rows, "wall_s": 40.0}


class TestCompareTable4:
    def test_identical_digests_pass(self):
        findings = gate.compare("table4", table4_digest(), table4_digest())
        assert all(verdicts(findings).values())

    def test_perturbed_row_fails(self):
        findings = gate.compare("table4", table4_digest(),
                                          table4_digest(rt3_impr=4.5))
        assert verdicts(findings)["rows.row_set"] is False

    def test_wall_clock_never_gated(self):
        fresh = table4_digest()
        fresh["wall_s"] = 1e6
        findings = gate.compare("table4", table4_digest(), fresh)
        assert all(verdicts(findings).values())


def ablations_digest(reward=0.5, total_runs=2.1e6, acc=0.6):
    return {
        "bench": "design_ablations", "seed": 0, "episodes": 3,
        "pretrain_epochs": 3,
        "pattern_size": [{"psize": 10, "latency_ms": 98.1,
                          "overhead_cycles": 5.0e4}],
        "governor": [{"thresholds": [0.1, 0.3], "low_energy_fraction": 0.4,
                      "total_runs": total_runs}],
        "kernels": [{"kernel": "pattern", "macs": 131072, "index_ops": 12,
                     "weighted_total": 1.4e5}],
        "space_size": [{"theta": 1, "m": 1, "best_reward": reward,
                        "best_weighted_accuracy": acc}],
        "wall_s": 20.0,
    }


class TestCompareAblations:
    def test_identical_digests_pass(self):
        findings = gate.compare("ablations", ablations_digest(),
                                             ablations_digest())
        assert all(verdicts(findings).values())

    def test_governor_row_drift_fails(self):
        findings = gate.compare("ablations", ablations_digest(),
                                             ablations_digest(total_runs=2.2e6))
        assert verdicts(findings)["governor.row_set"] is False

    def test_reward_regression_beyond_budget_fails(self):
        findings = gate.compare("ablations", ablations_digest(),
                                             ablations_digest(reward=0.40))
        got = verdicts(findings)
        assert got["space_size.theta1_m1.best_reward"] is False

    def test_reward_drift_within_budget_passes(self):
        findings = gate.compare("ablations", ablations_digest(),
                                             ablations_digest(reward=0.46))
        assert all(verdicts(findings).values())

    def test_dropped_space_point_fails(self):
        fresh = ablations_digest()
        fresh["space_size"] = []
        findings = gate.compare("ablations", ablations_digest(), fresh)
        got = verdicts(findings)
        assert got["space_size.theta1_m1.best_reward"] is False


class TestRender:
    def test_render_marks_failures(self):
        findings = gate.compare("serve", digest(), digest(sim_rps=1000.0))
        table = gate.render(findings)
        assert "FAIL" in table and "info" in table

    def test_render_titles_benches(self):
        table = gate.render(gate.compare("serve", digest(), digest()), title="serve")
        assert table.startswith("== serve ==")


def committed(name):
    return json.loads((gate.RESULTS / f"BENCH_{name}.json").read_text())


class TestTable:
    @pytest.mark.parametrize("name", list(gate.BENCHES))
    def test_committed_baseline_passes_against_itself(self, name):
        baseline = committed(name)
        findings = gate.compare(name, baseline, baseline)
        assert any(f["gated"] for f in findings)
        assert all(verdicts(findings).values())

    @pytest.mark.parametrize("name", list(gate.BENCHES))
    def test_recipe_binds_to_entry_signature(self, name):
        kwargs = gate.recipe_kwargs(name, committed(name))
        # every recipe path resolves in the committed baseline, so none
        # silently falls back to the entry function's default
        assert set(kwargs) == {item.partition("=")[0]
                               for item in gate.BENCHES[name].recipe}
        inspect.signature(gate.entry_function(name)).bind(**kwargs)


class TestMainEntry:
    def test_missing_baseline_errors(self, tmp_path, capsys):
        code = gate.main(["--results-dir", str(tmp_path)])
        assert code == 2
        assert "no committed baseline" in capsys.readouterr().err

    def test_missing_kernels_baseline_errors(self, tmp_path, capsys):
        code = gate.main(["--bench", "kernels", "--results-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no committed baseline" in err and "BENCH_kernels.json" in err

    def test_baseline_without_table_entry_fails(self, tmp_path, capsys):
        shutil.copy(gate.RESULTS / "BENCH_table.json", tmp_path)
        (tmp_path / "BENCH_orphan.json").write_text("{}")
        code = gate.main(["--bench", "table", "--results-dir", str(tmp_path)])
        assert code != 0
        assert "BENCH_orphan.json" in capsys.readouterr().err

    def test_cli_has_three_options(self, capsys):
        with pytest.raises(SystemExit):
            gate.main(["--help"])
        options = set(re.findall(r"--[a-z][\w-]*", capsys.readouterr().out))
        assert options == {"--help", "--bench", "--results-dir",
                           "--update-baseline"}

    def test_update_baseline_round_trip(self, tmp_path):
        # a stale baseline fails the gate, --update-baseline refreshes it
        # in place, and the refreshed file then passes
        stale = committed("table")
        stale["levels"][0]["power_w"] *= 2.0
        baseline = tmp_path / "BENCH_table.json"
        baseline.write_text(json.dumps(stale))
        argv = ["--bench", "table", "--results-dir", str(tmp_path)]
        assert gate.main(argv) == 1
        assert gate.main(argv + ["--update-baseline"]) == 0
        fresh = tmp_path / "BENCH_table.fresh.json"
        assert json.loads(baseline.read_text()) == json.loads(fresh.read_text())
        assert gate.main(argv) == 0

    def test_standalone_bench_leaves_baseline_untouched(self, tmp_path,
                                                        monkeypatch):
        # a bench run on its own writes the gitignored .fresh digest and
        # table; the committed baseline is written only by
        # --update-baseline, the committed table only by hand
        common = importlib.import_module("benchmarks.common")
        bench = importlib.import_module("benchmarks.bench_table1_dvfs")
        tracked = ["BENCH_table.json", "table1_dvfs_levels.txt"]
        for name in tracked:
            shutil.copy(gate.RESULTS / name, tmp_path)
        before = {name: (tmp_path / name).read_bytes() for name in tracked}
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        assert bench.main() == 0
        assert {name: (tmp_path / name).read_bytes()
                for name in tracked} == before
        assert (tmp_path / "BENCH_table.fresh.json").exists()
        assert (tmp_path / "table1_dvfs_levels.fresh.txt").exists()

    def test_end_to_end_pass_and_report(self, tmp_path, capsys):
        # the two cheapest deterministic benches through main(); the full
        # fifteen-bench replay is CI's gate step
        names = ["table", "table2"]
        for name in names:
            shutil.copy(gate.RESULTS / f"BENCH_{name}.json", tmp_path)
        assert gate.main(["--bench", *names, "--results-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / gate.REPORT_NAME).read_text())
        assert report["registry"] == list(gate.BENCHES)
        assert report["selected"] == names
        assert set(report["benches"]) == set(names)
        assert report["failures"] == 0 and report["ok"] is True
        for name in names:
            # fresh digests land next to the baselines, not in the repo
            assert (tmp_path / f"BENCH_{name}.fresh.json").exists()
            bench = report["benches"][name]
            assert bench["ok"] is True
            assert all(set(f) >= {"metric", "baseline", "fresh", "gated",
                                  "ok", "note"} for f in bench["findings"])
        out = capsys.readouterr().out
        assert "== table ==" in out and "== table2 ==" in out
        assert "no bench regression detected" in out
